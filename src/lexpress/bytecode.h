#ifndef METACOMM_LEXPRESS_BYTECODE_H_
#define METACOMM_LEXPRESS_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lexpress/record.h"

namespace metacomm::lexpress {

/// Builtin functions of the lexpress VM. Boolean builtins return
/// ["true"] / ["false"]; a guard holds when its program yields ["true"].
enum class Builtin : uint8_t {
  // Boolean combinators / predicates.
  kAnd,       // and(a, b)
  kOr,        // or(a, b)
  kNot,       // not(a)
  kEq,        // eq(a, b): case-insensitive set equality
  kNe,        // ne(a, b)
  kPresent,   // present(x): value list non-empty
  kAbsent,    // absent(x)
  kPrefix,    // prefix(x, p): any value starts with p (case-insensitive)
  kSuffix,    // suffix(x, s)
  kMatches,   // matches(x, glob): any value matches ('*'/'?')
  kContains,  // contains(x, needle): any value contains needle
  // Elementwise string transforms.
  kUpper,      // upper(x)
  kLower,      // lower(x)
  kTrim,       // trim(x)
  kNormalize,  // normalize(x): collapse internal whitespace
  kDigits,     // digits(x): strip non-digit characters
  kSurname,    // surname(x): text after the last space
  kGivenName,  // givenname(x): text before the first space
  kSubstr,     // substr(x, start, len); negative start counts from end
  kReplace,    // replace(x, from, to)
  kSplit,      // split(x, sep, index)
  kConcat,     // concat(a, b, ...): elementwise with broadcast
  kFormat,     // format(fmt, a, ...): each %s takes the next argument
  // Aggregates and value plumbing.
  kFirst,    // first(x)
  kLast,     // last(x)
  kJoin,     // join(x, sep)
  kCount,    // count(x) -> decimal string
  kDefault,  // default(x, fallback): x when non-empty
  kIfElse,   // ifelse(pred, then, else)
};

/// VM opcodes. The machine is a tiny stack machine over Values: rules
/// have no loops or branches (ifelse is a strict builtin), so three
/// opcodes suffice and programs are trivially verifiable.
enum class OpCode : uint8_t {
  kPushConst,  // push constants[a]
  kLoadAttr,   // push record.Get(attr_names[a])
  kCall,       // pop b args, call builtin a, push result
  kLookup,     // pop 1 arg, translate through tables[a], push result
};

/// One instruction; `a` and `b` index per-program tables.
struct Instruction {
  OpCode op = OpCode::kPushConst;
  uint32_t a = 0;
  uint32_t b = 0;
};

/// A compiled rule body: "machine-independent byte code" per paper
/// §4.2. Programs are pure — execution reads the source record and
/// produces one Value, with no side effects — which is what makes
/// alternate mappings and closure re-evaluation safe.
struct Program {
  std::vector<Instruction> code;
  std::vector<Value> constants;
  std::vector<std::string> attr_names;
  /// Slot index per attr_names entry, filled by ResolveSlots against
  /// the owning mapping's SlotMap. When present, the fast interpreter
  /// serves kLoadAttr from a RecordView array index; programs compiled
  /// standalone (tests, analyzer probes) leave this empty and run on
  /// the reference interpreter's name lookups.
  std::vector<uint32_t> attr_slots;

  bool empty() const { return code.empty(); }
  bool slot_resolved() const {
    return attr_slots.size() == attr_names.size();
  }
};

}  // namespace metacomm::lexpress

#endif  // METACOMM_LEXPRESS_BYTECODE_H_
