#include "lexpress/mapping.h"

#include <algorithm>

#include "lexpress/parser.h"

namespace metacomm::lexpress {

namespace {

/// Per-thread fallback interpreter for callers that don't plumb one
/// (tests, tools, setup paths). Still reuses its scratch across calls
/// on the same thread; the hot update-manager paths pass their
/// worker-owned Vm explicitly instead.
Vm& FallbackVm() {
  thread_local Vm vm;
  return vm;
}

}  // namespace

StatusOr<Mapping> Mapping::Compile(const MappingDecl& decl) {
  Mapping mapping;
  mapping.name_ = decl.name;
  mapping.source_schema_ = decl.source_schema;
  mapping.target_schema_ = decl.target_schema;
  mapping.tables_ = decl.tables;

  auto option = [&decl](std::string_view name) -> std::string {
    auto it = decl.options.find(name);
    return it == decl.options.end() ? "" : it->second;
  };
  mapping.target_name_ = option("target_name");
  mapping.originator_attr_ = option("originator");
  mapping.allow_cycles_ = EqualsIgnoreCase(option("allow_cycles"), "true");

  for (const auto& [key, value] : decl.options) {
    if (!EqualsIgnoreCase(key, "target_name") &&
        !EqualsIgnoreCase(key, "originator") &&
        !EqualsIgnoreCase(key, "allow_cycles")) {
      return Status::InvalidArgument("lexpress: unknown option '" + key +
                                     "' in mapping " + decl.name);
    }
  }

  if (decl.rules.empty()) {
    return Status::InvalidArgument("lexpress: mapping " + decl.name +
                                   " has no rules");
  }
  for (const MapRule& rule : decl.rules) {
    METACOMM_ASSIGN_OR_RETURN(CompiledRule compiled,
                              CompileRule(rule, mapping.tables_));
    if (compiled.is_key && mapping.key_target_attr_.empty()) {
      mapping.key_target_attr_ = compiled.target_attr;
    }
    mapping.rules_.push_back(std::move(compiled));
  }
  if (decl.partition.has_value()) {
    METACOMM_ASSIGN_OR_RETURN(mapping.partition_,
                              CompileExpr(*decl.partition, mapping.tables_));
  }

  // Slot-resolve every program against one per-mapping table, and
  // build the target-attr → {rules, source slots} dependency index.
  // Done last so the SlotMap covers partition reads too.
  auto group_of = [&mapping](const std::string& target_attr) -> RuleGroup& {
    for (RuleGroup& group : mapping.groups_) {
      if (EqualsIgnoreCase(group.target_attr, target_attr)) return group;
    }
    mapping.groups_.emplace_back();
    mapping.groups_.back().target_attr = target_attr;
    return mapping.groups_.back();
  };
  for (size_t i = 0; i < mapping.rules_.size(); ++i) {
    CompiledRule& rule = mapping.rules_[i];
    ResolveSlots(&mapping.slot_map_, &rule.guard);
    ResolveSlots(&mapping.slot_map_, &rule.value);
    if (rule.identity && rule.guard.empty() &&
        rule.value.code.size() == 1 &&
        rule.value.code[0].op == OpCode::kLoadAttr) {
      rule.direct_slot =
          static_cast<int32_t>(rule.value.attr_slots[rule.value.code[0].a]);
    }
    RuleGroup& group = group_of(rule.target_attr);
    group.rules.push_back(static_cast<uint32_t>(i));
    for (const std::string& attr : rule.source_attrs) {
      uint32_t slot = mapping.slot_map_.Intern(attr);
      if (std::find(group.source_slots.begin(), group.source_slots.end(),
                    slot) == group.source_slots.end()) {
        group.source_slots.push_back(slot);
      }
    }
  }
  ResolveSlots(&mapping.slot_map_, &mapping.partition_);
  // Groups are independent (each owns one target attribute and rules
  // are pure reads of the source), so evaluation order is free. Keep
  // them sorted by target: MapRecord then emits attributes in Record
  // order and the bulk constructor's sort sees presorted input.
  std::sort(mapping.groups_.begin(), mapping.groups_.end(),
            [](const RuleGroup& a, const RuleGroup& b) {
              return CaseInsensitiveLess()(a.target_attr, b.target_attr);
            });
  return mapping;
}

Status Mapping::EvalGroup(const RuleGroup& group, const RecordView& view,
                          Vm& vm, Value* out) const {
  out->clear();
  for (uint32_t index : group.rules) {
    const CompiledRule& rule = rules_[index];
    if (rule.direct_slot >= 0) {
      // Unguarded identity copy: read the slot, skip the VM entirely.
      const Value& direct = view.at(static_cast<uint32_t>(rule.direct_slot));
      if (!direct.empty()) {
        *out = direct;
        return Status::Ok();  // First rule wins.
      }
      continue;
    }
    METACOMM_ASSIGN_OR_RETURN(bool guard_ok,
                              vm.ExecuteGuard(rule.guard, tables_, view));
    if (!guard_ok) continue;
    METACOMM_ASSIGN_OR_RETURN(*out, vm.Execute(rule.value, tables_, view));
    if (!out->empty()) return Status::Ok();  // First rule wins.
    // Empty value: let an alternate rule supply it.
  }
  return Status::Ok();
}

StatusOr<Record> Mapping::MapRecord(const Record& source, Vm* vm) const {
  Vm& v = vm != nullptr ? *vm : FallbackVm();
  RecordView& view = v.scratch_view();
  view.Reset(source, slot_map_);
  // Collect the output unsorted and let the bulk Record constructor
  // sort once: group targets are distinct, so Set-ing them one at a
  // time would only buy repeated binary searches and insert shifting.
  Record::AttrMap attrs;
  attrs.reserve(groups_.size());
  Value value;
  for (const RuleGroup& group : groups_) {
    METACOMM_RETURN_IF_ERROR(EvalGroup(group, view, v, &value));
    if (!value.empty()) attrs.emplace_back(group.target_attr, std::move(value));
  }
  return Record(target_schema_, std::move(attrs));
}

StatusOr<Record> Mapping::MapRecordReference(const Record& source) const {
  Record target(target_schema_);
  for (const CompiledRule& rule : rules_) {
    if (target.Has(rule.target_attr)) continue;  // First rule wins.
    METACOMM_ASSIGN_OR_RETURN(
        bool guard_ok,
        Vm::ExecuteGuardReference(rule.guard, tables_, source));
    if (!guard_ok) continue;
    METACOMM_ASSIGN_OR_RETURN(
        Value value, Vm::ExecuteReference(rule.value, tables_, source));
    if (value.empty()) continue;  // Let an alternate mapping supply it.
    target.Set(rule.target_attr, std::move(value));
  }
  return target;
}

bool Mapping::MarkDirtySlots(
    const std::set<std::string, CaseInsensitiveLess>& changed,
    std::vector<uint8_t>* dirty) const {
  dirty->assign(slot_map_.size(), 0);
  bool any = false;
  for (const std::string& attr : changed) {
    std::optional<uint32_t> slot = slot_map_.Find(attr);
    if (slot.has_value()) {
      (*dirty)[*slot] = 1;
      any = true;
    }
  }
  return any;
}

bool Mapping::AnySlotDirty(const std::vector<uint32_t>& slots,
                           const std::vector<uint8_t>& dirty) {
  for (uint32_t slot : slots) {
    if (dirty[slot] != 0) return true;
  }
  return false;
}

Status Mapping::MapDirtyGroups(
    const Record& source,
    const std::set<std::string, CaseInsensitiveLess>& changed_src,
    Vm* vm,
    std::vector<std::pair<std::string_view, Value>>* out) const {
  Vm& v = vm != nullptr ? *vm : FallbackVm();
  std::vector<uint8_t>& dirty = v.scratch_dirty();
  if (!MarkDirtySlots(changed_src, &dirty)) return Status::Ok();
  RecordView& view = v.scratch_view();
  view.Reset(source, slot_map_);
  Value value;
  for (const RuleGroup& group : groups_) {
    if (!AnySlotDirty(group.source_slots, dirty)) continue;
    METACOMM_RETURN_IF_ERROR(EvalGroup(group, view, v, &value));
    out->emplace_back(group.target_attr, std::move(value));
    value.clear();
  }
  return Status::Ok();
}

StatusOr<bool> Mapping::PartitionAccepts(const Record& source,
                                         Vm* vm) const {
  if (partition_.empty()) return true;
  if (source.empty()) return false;
  Vm& v = vm != nullptr ? *vm : FallbackVm();
  RecordView& view = v.scratch_view();
  view.Reset(source, slot_map_);
  return v.ExecuteGuard(partition_, tables_, view);
}

StatusOr<RouteAction> Mapping::Route(const UpdateDescriptor& update,
                                     Vm* vm) const {
  // "lexpress checks the partitioning constraints against both the old
  // and new attributes of the object" (§4.2).
  switch (update.op) {
    case DescriptorOp::kAdd: {
      METACOMM_ASSIGN_OR_RETURN(bool new_ok,
                                PartitionAccepts(update.new_record, vm));
      return new_ok ? RouteAction::kAdd : RouteAction::kSkip;
    }
    case DescriptorOp::kDelete: {
      METACOMM_ASSIGN_OR_RETURN(bool old_ok,
                                PartitionAccepts(update.old_record, vm));
      return old_ok ? RouteAction::kDelete : RouteAction::kSkip;
    }
    case DescriptorOp::kModify: {
      METACOMM_ASSIGN_OR_RETURN(bool old_ok,
                                PartitionAccepts(update.old_record, vm));
      METACOMM_ASSIGN_OR_RETURN(bool new_ok,
                                PartitionAccepts(update.new_record, vm));
      if (old_ok && new_ok) return RouteAction::kModify;
      if (!old_ok && new_ok) return RouteAction::kAdd;
      if (old_ok && !new_ok) return RouteAction::kDelete;
      return RouteAction::kSkip;
    }
  }
  return Status::Internal("lexpress: bad descriptor op");
}

StatusOr<std::optional<UpdateDescriptor>> Mapping::Translate(
    const UpdateDescriptor& update, Vm* vm) const {
  if (!EqualsIgnoreCase(update.schema, source_schema_)) {
    return Status::InvalidArgument(
        "lexpress: update in schema '" + update.schema +
        "' given to mapping from '" + source_schema_ + "'");
  }
  Vm& v = vm != nullptr ? *vm : FallbackVm();

  // The Modify dirty set drives both routing shortcuts and rule
  // selection; computed once up front.
  std::set<std::string, CaseInsensitiveLess> changed;
  bool have_changed = false;
  if (update.op == DescriptorOp::kModify) {
    changed = ChangedAttrs(update.old_record, update.new_record);
    have_changed = true;
  }

  RouteAction action;
  if (have_changed && !partition_.empty() &&
      update.old_record.empty() == update.new_record.empty() &&
      !MarkDirtySlots(changed, &v.scratch_dirty())) {
    // No partition or rule input changed: both images satisfy the
    // partition identically, so one evaluation answers for both.
    METACOMM_ASSIGN_OR_RETURN(bool ok,
                              PartitionAccepts(update.new_record, &v));
    action = ok ? RouteAction::kModify : RouteAction::kSkip;
  } else {
    METACOMM_ASSIGN_OR_RETURN(action, Route(update, &v));
  }
  if (action == RouteAction::kSkip) {
    return std::optional<UpdateDescriptor>();
  }

  UpdateDescriptor out;
  out.schema = target_schema_;
  out.source = update.source;

  // Conditional-update detection (§5.4): if the source record says the
  // update originated at this mapping's target, the target has already
  // seen it — mark it so the filter reapplies with recovery semantics.
  if (!originator_attr_.empty() && !target_name_.empty()) {
    const Record& effective = update.EffectiveRecord();
    for (const std::string& origin : effective.Get(originator_attr_)) {
      if (EqualsIgnoreCase(origin, target_name_)) out.conditional = true;
    }
  }

  switch (action) {
    case RouteAction::kAdd: {
      out.op = DescriptorOp::kAdd;
      METACOMM_ASSIGN_OR_RETURN(out.new_record,
                                MapRecord(update.new_record, &v));
      break;
    }
    case RouteAction::kDelete: {
      out.op = DescriptorOp::kDelete;
      METACOMM_ASSIGN_OR_RETURN(out.old_record,
                                MapRecord(update.old_record, &v));
      break;
    }
    case RouteAction::kModify: {
      out.op = DescriptorOp::kModify;
      METACOMM_ASSIGN_OR_RETURN(out.old_record,
                                MapRecord(update.old_record, &v));
      // Dirty-attribute rule selection: a group reading no changed
      // attribute produces bit-identical output on both images, so the
      // new target record starts as a copy of the old one and only
      // dirty groups are re-evaluated against the new image.
      out.new_record = out.old_record;
      out.new_record.set_schema(target_schema_);
      if (MarkDirtySlots(changed, &v.scratch_dirty())) {
        const std::vector<uint8_t>& dirty = v.scratch_dirty();
        // MapRecord above left the scratch view on the old image, which
        // matches the new image everywhere but the dirty slots (the
        // clean values compared exactly equal): patch those instead of
        // rebuilding the whole view.
        RecordView& view = v.scratch_view();
        for (uint32_t slot = 0; slot < dirty.size(); ++slot) {
          if (dirty[slot] != 0) {
            view.Patch(slot, update.new_record.Get(slot_map_.names()[slot]));
          }
        }
        Value value;
        for (const RuleGroup& group : groups_) {
          if (!AnySlotDirty(group.source_slots, dirty)) continue;
          METACOMM_RETURN_IF_ERROR(EvalGroup(group, view, v, &value));
          // Set() removes on empty — matching the absent attribute a
          // full MapRecord would produce when no rule wins.
          out.new_record.Set(group.target_attr, std::move(value));
          value.clear();
        }
      }
      break;
    }
    case RouteAction::kSkip:
      return std::optional<UpdateDescriptor>();
  }
  return std::optional<UpdateDescriptor>(std::move(out));
}

StatusOr<std::optional<UpdateDescriptor>> Mapping::TranslateReference(
    const UpdateDescriptor& update) const {
  if (!EqualsIgnoreCase(update.schema, source_schema_)) {
    return Status::InvalidArgument(
        "lexpress: update in schema '" + update.schema +
        "' given to mapping from '" + source_schema_ + "'");
  }
  auto accepts = [this](const Record& record) -> StatusOr<bool> {
    if (partition_.empty()) return true;
    if (record.empty()) return false;
    return Vm::ExecuteGuardReference(partition_, tables_, record);
  };
  RouteAction action = RouteAction::kSkip;
  switch (update.op) {
    case DescriptorOp::kAdd: {
      METACOMM_ASSIGN_OR_RETURN(bool new_ok, accepts(update.new_record));
      action = new_ok ? RouteAction::kAdd : RouteAction::kSkip;
      break;
    }
    case DescriptorOp::kDelete: {
      METACOMM_ASSIGN_OR_RETURN(bool old_ok, accepts(update.old_record));
      action = old_ok ? RouteAction::kDelete : RouteAction::kSkip;
      break;
    }
    case DescriptorOp::kModify: {
      METACOMM_ASSIGN_OR_RETURN(bool old_ok, accepts(update.old_record));
      METACOMM_ASSIGN_OR_RETURN(bool new_ok, accepts(update.new_record));
      if (old_ok && new_ok) {
        action = RouteAction::kModify;
      } else if (!old_ok && new_ok) {
        action = RouteAction::kAdd;
      } else if (old_ok && !new_ok) {
        action = RouteAction::kDelete;
      }
      break;
    }
  }
  if (action == RouteAction::kSkip) {
    return std::optional<UpdateDescriptor>();
  }

  UpdateDescriptor out;
  out.schema = target_schema_;
  out.source = update.source;
  if (!originator_attr_.empty() && !target_name_.empty()) {
    const Record& effective = update.EffectiveRecord();
    for (const std::string& origin : effective.Get(originator_attr_)) {
      if (EqualsIgnoreCase(origin, target_name_)) out.conditional = true;
    }
  }
  switch (action) {
    case RouteAction::kAdd: {
      out.op = DescriptorOp::kAdd;
      METACOMM_ASSIGN_OR_RETURN(out.new_record,
                                MapRecordReference(update.new_record));
      break;
    }
    case RouteAction::kDelete: {
      out.op = DescriptorOp::kDelete;
      METACOMM_ASSIGN_OR_RETURN(out.old_record,
                                MapRecordReference(update.old_record));
      break;
    }
    case RouteAction::kModify: {
      out.op = DescriptorOp::kModify;
      METACOMM_ASSIGN_OR_RETURN(out.old_record,
                                MapRecordReference(update.old_record));
      METACOMM_ASSIGN_OR_RETURN(out.new_record,
                                MapRecordReference(update.new_record));
      break;
    }
    case RouteAction::kSkip:
      return std::optional<UpdateDescriptor>();
  }
  return std::optional<UpdateDescriptor>(std::move(out));
}

std::set<std::string, CaseInsensitiveLess> Mapping::SourcesOf(
    std::string_view target_attr) const {
  std::set<std::string, CaseInsensitiveLess> out;
  for (const RuleGroup& group : groups_) {
    if (!EqualsIgnoreCase(group.target_attr, target_attr)) continue;
    for (uint32_t slot : group.source_slots) {
      out.insert(slot_map_.names()[slot]);
    }
  }
  return out;
}

StatusOr<std::vector<Mapping>> CompileMappings(std::string_view source) {
  METACOMM_ASSIGN_OR_RETURN(std::vector<MappingDecl> decls,
                            ParseMappings(source));
  std::vector<Mapping> mappings;
  mappings.reserve(decls.size());
  for (const MappingDecl& decl : decls) {
    METACOMM_ASSIGN_OR_RETURN(Mapping mapping, Mapping::Compile(decl));
    mappings.push_back(std::move(mapping));
  }
  return mappings;
}

}  // namespace metacomm::lexpress
