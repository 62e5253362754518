#include "core/coalescer.h"

#include <map>
#include <utility>

#include "common/strings.h"

namespace metacomm::core {

namespace {

using lexpress::DescriptorOp;
using lexpress::UpdateDescriptor;

/// Updates from different originators (or with different reapply
/// semantics) must never fold into one: the §5.4 conditional machinery
/// keys off the source, and merging across sources would launder one
/// originator's change as another's.
bool SameProvenance(const UpdateDescriptor& a, const UpdateDescriptor& b) {
  return EqualsIgnoreCase(a.schema, b.schema) &&
         EqualsIgnoreCase(a.source, b.source) &&
         a.conditional == b.conditional;
}

/// Key the descriptor expects the entity to currently have: the old
/// image's key for modify/delete (what the repository still holds,
/// since nothing in the batch has been applied yet), the new image's
/// for add.
std::string IncomingKey(const UpdateDescriptor& d,
                        const std::string& key_attr) {
  if (d.op == DescriptorOp::kAdd) return d.new_record.GetFirst(key_attr);
  std::string key = d.old_record.GetFirst(key_attr);
  if (key.empty()) key = d.new_record.GetFirst(key_attr);
  return key;
}

/// Key the entity carries after the unit's effective update (tracks
/// rename chains: Modify(A->B) leaves the chain addressable as B).
std::string OutgoingKey(const UpdateDescriptor& d,
                        const std::string& key_attr) {
  if (d.op == DescriptorOp::kDelete) {
    return d.old_record.GetFirst(key_attr);
  }
  return d.new_record.GetFirst(key_attr);
}

/// Folds `next` into `unit` if a merge rule applies; false means
/// barrier (the caller starts a fresh unit).
bool TryMerge(CoalescedUnit& unit, const UpdateDescriptor& next) {
  UpdateDescriptor& u = unit.update;
  if (unit.annihilated) return false;     // Entity ended inside batch.
  if (u.op == DescriptorOp::kDelete) return false;  // Delete barrier.
  if (next.op == DescriptorOp::kAdd) return false;  // Add-after-X barrier.

  if (next.op == DescriptorOp::kModify) {
    // Add+Modify -> Add, Modify+Modify -> Modify: either way the
    // effective new image is the later one and the old image (absent
    // for Add) stays the batch-entry image the repository still holds.
    u.new_record = next.new_record;
    for (const std::string& attr : next.explicit_attrs) {
      u.explicit_attrs.insert(attr);
    }
    return true;
  }
  // next.op == kDelete.
  if (u.op == DescriptorOp::kAdd) {
    // Created and destroyed within the batch: nothing ever reaches the
    // repositories.
    unit.annihilated = true;
    return true;
  }
  // Modify+Delete -> Delete. The old image stays the unit's ORIGINAL
  // old image: the repository never saw the intermediate modify, so
  // the delete must target the key it still holds.
  u.op = DescriptorOp::kDelete;
  u.new_record = lexpress::Record(u.new_record.schema());
  return true;
}

}  // namespace

CoalesceResult CoalesceBatch(std::vector<UpdateDescriptor> batch,
                             const std::string& key_attr) {
  CoalesceResult out;
  // Latest open unit per entity, addressed by the entity's CURRENT key
  // in its rename chain. A barrier replaces the map entry, so later
  // same-entity items extend the newest unit, never an older one.
  std::map<std::string, size_t, CaseInsensitiveLess> open;

  for (size_t i = 0; i < batch.size(); ++i) {
    UpdateDescriptor& d = batch[i];
    const std::string in_key = IncomingKey(d, key_attr);

    if (!in_key.empty()) {
      auto it = open.find(in_key);
      if (it != open.end()) {
        CoalescedUnit& unit = out.units[it->second];
        if (SameProvenance(unit.update, d) && TryMerge(unit, d)) {
          unit.constituents.push_back(i);
          ++out.coalesced_away;
          if (unit.annihilated) {
            // The chain ended inside the batch; a later Add of the
            // same key starts a genuinely new entity.
            open.erase(it);
          } else {
            std::string out_key = OutgoingKey(unit.update, key_attr);
            if (!EqualsIgnoreCase(out_key, in_key)) {
              size_t unit_index = it->second;
              open.erase(it);
              if (!out_key.empty()) open[out_key] = unit_index;
            }
          }
          continue;
        }
      }
    }

    if (!in_key.empty()) {
      std::string out_key = OutgoingKey(d, key_attr);
      open[out_key.empty() ? in_key : out_key] = out.units.size();
    }
    CoalescedUnit unit;
    unit.update = std::move(d);
    unit.constituents.push_back(i);
    out.units.push_back(std::move(unit));
  }
  return out;
}

}  // namespace metacomm::core
