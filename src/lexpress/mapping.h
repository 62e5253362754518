#ifndef METACOMM_LEXPRESS_MAPPING_H_
#define METACOMM_LEXPRESS_MAPPING_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lexpress/ast.h"
#include "lexpress/compiler.h"
#include "lexpress/record.h"
#include "lexpress/vm.h"

namespace metacomm::lexpress {

/// How a translated update should be applied at the target, derived
/// from the partitioning constraints (paper §4.2):
///   old sat. | new sat. | action
///   ---------+----------+---------
///      no    |   yes    | Add      (object newly managed by target)
///      yes   |   yes    | Modify
///      yes   |   no     | Delete   (object left the target's partition)
///      no    |   no     | Skip
enum class RouteAction { kAdd, kModify, kDelete, kSkip };

/// A compiled lexpress mapping from one schema to another.
///
/// "Mappings are specified from a source schema to a target schema, so
/// two lexpress mappings are specified for each schema pair" (§4.2).
///
/// Compile() additionally precomputes the execution fast path
/// (DESIGN.md "lexpress execution pipeline"):
///  * a SlotMap interning every source attribute any rule or the
///    partition reads, with all programs slot-resolved against it;
///  * rule groups — the target-attribute → {rules, source slots}
///    dependency index that drives dirty-attribute rule selection on
///    Modify translation and in the closure engine.
///
/// Execution methods take an optional Vm*: pass a per-worker instance
/// to reuse its scratch buffers across calls (the update manager's
/// workers do); nullptr falls back to a per-thread Vm.
class Mapping {
 public:
  /// Compiles a parsed declaration. Fails on unknown functions, bad
  /// arity, unknown tables, or a mapping without rules.
  static StatusOr<Mapping> Compile(const MappingDecl& decl);

  const std::string& name() const { return name_; }
  const std::string& source_schema() const { return source_schema_; }
  const std::string& target_schema() const { return target_schema_; }

  /// Name of the repository instance this mapping feeds (option
  /// target_name); empty when the mapping targets a schema in general.
  const std::string& target_name() const { return target_name_; }

  /// Source attribute that names an update's origin (option
  /// originator, §5.4); empty disables conditional-update detection.
  const std::string& originator_attr() const { return originator_attr_; }

  /// True when cycles through this mapping defer to runtime fixpoint
  /// detection (option allow_cycles = true).
  bool allow_cycles() const { return allow_cycles_; }

  const std::vector<CompiledRule>& rules() const { return rules_; }
  const std::vector<TableDef>& tables() const { return tables_; }

  /// Target attribute of the first `key` rule; empty if none declared.
  const std::string& key_target_attr() const { return key_target_attr_; }

  /// One target attribute's alternate-rule chain plus the union of
  /// source slots its rules read — the compiled dependency index
  /// behind SourcesOf and dirty-attribute rule selection.
  struct RuleGroup {
    std::string target_attr;
    /// Indices into rules(), in declaration order (first rule wins).
    std::vector<uint32_t> rules;
    /// Union of slot_map() slots read by the group's guards + values.
    std::vector<uint32_t> source_slots;
  };
  /// Groups ordered by first appearance of their target attribute.
  const std::vector<RuleGroup>& rule_groups() const { return groups_; }

  /// The mapping's interned source-attribute table.
  const SlotMap& slot_map() const { return slot_map_; }

  /// Maps a full source record to a target record: runs every rule in
  /// declaration order; for each target attribute the first rule whose
  /// guard holds and whose value is non-empty wins (alternate attribute
  /// mappings, §4.2).
  StatusOr<Record> MapRecord(const Record& source,
                             Vm* vm = nullptr) const;

  /// Reference implementation of MapRecord on the reference
  /// interpreter — the oracle the differential test checks the slot
  /// path against. Not for hot paths.
  StatusOr<Record> MapRecordReference(const Record& source) const;

  /// Evaluates only the rule groups reading at least one attribute in
  /// `changed_src`, appending (target attr, value) per dirty group —
  /// value empty when no rule won, which callers must treat as
  /// "derives to nothing" (the closure engine removes the target
  /// attribute). Groups reading no changed attribute are skipped
  /// entirely: their result is provably identical to the previous
  /// evaluation. This is the work-proportional core of the closure.
  Status MapDirtyGroups(
      const Record& source,
      const std::set<std::string, CaseInsensitiveLess>& changed_src,
      Vm* vm,
      std::vector<std::pair<std::string_view, Value>>* out) const;

  /// Evaluates the partition predicate over a source record; mappings
  /// without a partition clause accept everything.
  StatusOr<bool> PartitionAccepts(const Record& source,
                                  Vm* vm = nullptr) const;

  /// Routing decision for an update (see RouteAction).
  StatusOr<RouteAction> Route(const UpdateDescriptor& update,
                              Vm* vm = nullptr) const;

  /// Translates a canonical update in the source schema into a
  /// canonical update against the target, or nullopt when the target
  /// is not involved (RouteAction::kSkip).
  ///
  /// Sets `conditional` on the result when the update is headed back
  /// to the repository it originated from: the originator attribute of
  /// the source record names this mapping's target_name (§5.4).
  ///
  /// On a Modify, only rule groups whose source attributes actually
  /// changed between the old and new images are re-evaluated for the
  /// new target record (dirty-attribute rule selection); the result is
  /// byte-identical to mapping both records in full.
  StatusOr<std::optional<UpdateDescriptor>> Translate(
      const UpdateDescriptor& update, Vm* vm = nullptr) const;

  /// Reference implementation of Translate: full remap of every image
  /// on the reference interpreter. The differential-test oracle.
  StatusOr<std::optional<UpdateDescriptor>> TranslateReference(
      const UpdateDescriptor& update) const;

  /// Source attributes read by any rule mapping into `target_attr`.
  std::set<std::string, CaseInsensitiveLess> SourcesOf(
      std::string_view target_attr) const;

 private:
  Mapping() = default;

  /// Runs one group's first-wins chain against `view`; `*out` is left
  /// empty when no rule wins.
  Status EvalGroup(const RuleGroup& group, const RecordView& view,
                   Vm& vm, Value* out) const;

  /// Marks the slots of `changed` attrs in the vm's dirty bitmap;
  /// returns false when no changed attribute is read by any program
  /// (nothing to re-evaluate).
  bool MarkDirtySlots(
      const std::set<std::string, CaseInsensitiveLess>& changed,
      std::vector<uint8_t>* dirty) const;

  static bool AnySlotDirty(const std::vector<uint32_t>& slots,
                           const std::vector<uint8_t>& dirty);

  std::string name_;
  std::string source_schema_;
  std::string target_schema_;
  std::string target_name_;
  std::string originator_attr_;
  bool allow_cycles_ = false;
  std::vector<TableDef> tables_;
  std::vector<CompiledRule> rules_;
  Program partition_;  // Empty = accept all.
  std::string key_target_attr_;
  SlotMap slot_map_;
  std::vector<RuleGroup> groups_;
};

/// Compiles every mapping in a lexpress source file. This is the
/// "compile at run-time using the appropriate lexpress routine" entry
/// point (§4.2): description files can be added to a running program.
StatusOr<std::vector<Mapping>> CompileMappings(std::string_view source);

}  // namespace metacomm::lexpress

#endif  // METACOMM_LEXPRESS_MAPPING_H_
