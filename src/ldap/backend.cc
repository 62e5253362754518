#include "ldap/backend.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <utility>

#include "common/blocking_wait.h"
#include "common/clock.h"
#include "common/strings.h"
#include "ldap/query_planner.h"

namespace metacomm::ldap {

namespace {

using TreeNodePtr = std::shared_ptr<const Backend::TreeNode>;

/// Normalized index keys of `values`, sorted and deduplicated (values
/// such as "Foo Bar" and "foo  bar" share one key).
std::vector<std::string> IndexKeys(const std::vector<std::string>& values) {
  std::vector<std::string> keys;
  keys.reserve(values.size());
  for (const std::string& value : values) {
    NormalizeSpaceLowerInto(value, &keys.emplace_back());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Adds the posting `norm_dn` -> `dn` under each of `keys` of attribute
/// `name`, or removes it when `dn` is null, deriving the new index
/// layers by copy-on-write. Empty postings and empty value maps are
/// erased so absent attributes stay absent.
void UpdatePostings(Backend::AttrIndex* index, std::string_view name,
                    const std::vector<std::string>& keys,
                    const std::string& norm_dn,
                    const std::shared_ptr<const Dn>& dn) {
  if (keys.empty()) return;
  thread_local std::string attr_key;
  ToLowerInto(name, &attr_key);
  const Backend::ValueIndex* found = index->Find(attr_key);
  if (found == nullptr && dn == nullptr) return;
  Backend::ValueIndex value_index =
      found != nullptr ? *found : Backend::ValueIndex();
  for (const std::string& key : keys) {
    const Backend::Postings* existing = value_index.Find(key);
    if (dn != nullptr) {
      Backend::Postings postings =
          existing != nullptr ? *existing : Backend::Postings();
      value_index = value_index.Insert(key, postings.Insert(norm_dn, dn));
    } else {
      if (existing == nullptr) continue;
      Backend::Postings postings = existing->Erase(norm_dn);
      value_index = postings.empty()
                        ? value_index.Erase(key)
                        : value_index.Insert(key, std::move(postings));
    }
  }
  *index = value_index.empty() ? index->Erase(attr_key)
                               : index->Insert(attr_key, std::move(value_index));
}

/// Indexes every value of `entry` under one shared DN, or removes its
/// postings.
void IndexEntry(Backend::AttrIndex* index, const Entry& entry, bool insert) {
  std::string norm_dn = entry.dn().Normalized();
  std::shared_ptr<const Dn> dn =
      insert ? std::make_shared<const Dn>(entry.dn()) : nullptr;
  for (const auto& [name, attr] : entry.attributes()) {
    UpdatePostings(index, name, IndexKeys(attr.values()), norm_dn, dn);
  }
}

/// Moves `norm_dn`'s postings for one attribute from the keys of
/// `before` to the keys of `after` (either may be null for an absent
/// attribute), touching only the keys found on one side.
void ReindexAttribute(Backend::AttrIndex* index, std::string_view name,
                      const Attribute* before, const Attribute* after,
                      const std::string& norm_dn,
                      const std::shared_ptr<const Dn>& dn) {
  if (before != nullptr && after != nullptr &&
      before->values() == after->values()) {
    return;
  }
  std::vector<std::string> old_keys =
      before != nullptr ? IndexKeys(before->values())
                        : std::vector<std::string>();
  std::vector<std::string> new_keys =
      after != nullptr ? IndexKeys(after->values())
                       : std::vector<std::string>();
  std::vector<std::string> gone;
  std::vector<std::string> added;
  std::set_difference(old_keys.begin(), old_keys.end(), new_keys.begin(),
                      new_keys.end(), std::back_inserter(gone));
  std::set_difference(new_keys.begin(), new_keys.end(), old_keys.begin(),
                      old_keys.end(), std::back_inserter(added));
  UpdatePostings(index, name, gone, norm_dn, nullptr);
  UpdatePostings(index, name, added, norm_dn, dn);
}

void ReindexSubtree(Backend::AttrIndex* index,
                    const Backend::TreeNode* node, bool insert) {
  IndexEntry(index, node->entry, insert);
  node->children.ForEach(
      [index, insert](const std::string&, const TreeNodePtr& child) {
        ReindexSubtree(index, child.get(), insert);
        return true;
      });
}

/// Copies `node`'s subtree with `entry` (already renamed) at its top and
/// every descendant's DN rebased beneath it: the ModifyRDN subtree
/// rewrite as fresh immutable nodes instead of in-place mutation.
TreeNodePtr CloneWithNewDn(const Backend::TreeNode& node, Entry entry) {
  auto fresh = std::make_shared<Backend::TreeNode>();
  fresh->entry = std::move(entry);
  node.children.ForEach(
      [&fresh](const std::string& key, const TreeNodePtr& child) {
        Entry rebased = child->entry;
        rebased.set_dn(fresh->entry.dn().Child(child->entry.dn().leaf()));
        fresh->children = fresh->children.Insert(
            key, CloneWithNewDn(*child, std::move(rebased)));
        return true;
      });
  return fresh;
}

/// Path-copies from `node` down to the entry named by `rdns[size-1-i]..`
/// and grafts `replacement` there (nullptr erases it). Every node on
/// the path must exist; siblings off the path are shared, not copied.
TreeNodePtr ReplaceAt(const TreeNodePtr& node, const std::vector<Rdn>& rdns,
                      size_t i, const TreeNodePtr& replacement) {
  if (i == rdns.size()) return replacement;
  std::string key = rdns[rdns.size() - 1 - i].Normalized();
  const TreeNodePtr* child = node->children.Find(key);
  TreeNodePtr new_child = ReplaceAt(*child, rdns, i + 1, replacement);
  auto fresh = std::make_shared<Backend::TreeNode>();
  fresh->entry = node->entry;
  fresh->children = new_child == nullptr ? node->children.Erase(key)
                                         : node->children.Insert(key, new_child);
  return fresh;
}

TreeNodePtr ReplaceAt(const TreeNodePtr& root, const Dn& dn,
                      const TreeNodePtr& replacement) {
  return ReplaceAt(root, dn.rdns(), 0, replacement);
}

void CollectScan(const Backend::TreeNode* node, const SearchRequest& request,
                 std::vector<Entry>* out, Status* limit_status) {
  if (!limit_status->ok()) return;
  if (request.size_limit > 0 && out->size() >= request.size_limit) {
    *limit_status = Status::DeadlineExceeded("size limit exceeded");
    return;
  }
  if (request.filter.Matches(node->entry)) {
    out->push_back(node->entry.Project(request.attributes));
  }
  node->children.ForEach(
      [&](const std::string&, const TreeNodePtr& child) {
        CollectScan(child.get(), request, out, limit_status);
        return limit_status->ok();
      });
}

}  // namespace

Backend::Backend(const Schema* schema) : schema_(schema) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->root = std::make_shared<TreeNode>();
  snapshot->published_micros = RealClock::Get()->NowMicros();
  snapshot_.store(std::move(snapshot));
}

const Backend::TreeNode* Backend::FindNode(const Snapshot& snapshot,
                                           const Dn& dn) {
  // Walk from the root; DN rdns are leaf-first, so iterate backwards.
  const TreeNode* node = snapshot.root.get();
  const auto& rdns = dn.rdns();
  for (auto it = rdns.rbegin(); it != rdns.rend(); ++it) {
    const TreeNodePtr* child = node->children.FindBy(
        [&it](std::string_view key) { return it->CompareNormalized(key); });
    if (child == nullptr) return nullptr;
    node = child->get();
  }
  return node;
}

void Backend::ForEachEntry(const Snapshot& snapshot,
                           const std::function<bool(const Entry&)>& fn) {
  // BFS guarantees parents precede children.
  std::deque<const TreeNode*> frontier{snapshot.root.get()};
  bool stopped = false;
  while (!frontier.empty() && !stopped) {
    const TreeNode* node = frontier.front();
    frontier.pop_front();
    node->children.ForEach(
        [&](const std::string&, const TreeNodePtr& child) {
          if (!fn(child->entry)) {
            stopped = true;
            return false;
          }
          frontier.push_back(child.get());
          return true;
        });
  }
}

Backend::SnapshotPtr Backend::GetSnapshot() const {
  return snapshot_.load();
}

Backend::SnapshotPtr Backend::WriterSnapshot() const {
  // Writers serialize on write_mutex_, which orders their stores; the
  // cell's acquire/release pairs Commit with the unlocked readers.
  return snapshot_.load();
}

void Backend::Commit(Snapshot snapshot, ChangeRecord record) {
  record.sequence = ++sequence_;
  snapshot.version = sequence_;
  snapshot.published_micros = RealClock::Get()->NowMicros();
  if (journal_ != nullptr) {
    // Write-ahead order: the redo record reaches the log (not
    // necessarily the disk yet — the mutation's AwaitJournal handles
    // that) before the snapshot becomes visible.
    last_journal_lsn_ = journal_->append(record);
  }
  snapshot_.store(std::make_shared<const Snapshot>(std::move(snapshot)));
  for (const Listener& listener : listeners_) {
    listener(record);
  }
}

Backend::JournalTicket Backend::TakeJournalTicket() const {
  JournalTicket ticket;
  ticket.journal = journal_.get();
  ticket.lsn = last_journal_lsn_;
  return ticket;
}

Status Backend::AwaitJournal(const JournalTicket& ticket, Wait wait) {
  if (ticket.journal == nullptr) return Status::Ok();
  ScopedBlockingWait blocking;  // Group commit: another writer may flush.
  return ticket.journal->sync(ticket.lsn, wait);
}

void Backend::SetJournal(Journal journal) {
  MutexLock lock(&write_mutex_);
  journal_ = std::make_unique<Journal>(std::move(journal));
}

void Backend::ClearJournal() {
  MutexLock lock(&write_mutex_);
  journal_.reset();
}

void Backend::SetSequence(uint64_t sequence) {
  MutexLock lock(&write_mutex_);
  if (sequence <= sequence_) return;
  sequence_ = sequence;
  SnapshotPtr current = WriterSnapshot();
  Snapshot bumped = *current;
  bumped.version = sequence_;
  snapshot_.store(std::make_shared<const Snapshot>(std::move(bumped)));
}

Status Backend::Add(const Entry& entry, Wait wait) {
  JournalTicket ticket;
  METACOMM_RETURN_IF_ERROR(AddImpl(entry, &ticket));
  return AwaitJournal(ticket, wait);
}

Status Backend::AddImpl(const Entry& entry, JournalTicket* ticket) {
  if (entry.dn().IsRoot()) {
    return Status::InvalidArgument("cannot add the root DSE");
  }
  if (schema_ != nullptr) {
    METACOMM_RETURN_IF_ERROR(schema_->ValidateEntry(entry));
  }
  MutexLock lock(&write_mutex_);
  SnapshotPtr current = WriterSnapshot();
  Dn parent_dn = entry.dn().Parent();
  const TreeNode* parent = FindNode(*current, parent_dn);
  if (parent == nullptr) {
    return Status::NotFound("parent does not exist: " + parent_dn.ToString());
  }
  std::string key = entry.dn().leaf().Normalized();
  if (parent->children.Find(key) != nullptr) {
    return Status::AlreadyExists("entry already exists: " +
                                 entry.dn().ToString());
  }
  auto leaf = std::make_shared<TreeNode>();
  leaf->entry = entry;
  auto new_parent = std::make_shared<TreeNode>();
  new_parent->entry = parent->entry;
  new_parent->children = parent->children.Insert(key, std::move(leaf));

  Snapshot next;
  next.root = ReplaceAt(current->root, parent_dn, std::move(new_parent));
  next.index = current->index;
  IndexEntry(&next.index, entry, /*insert=*/true);
  next.entry_count = current->entry_count + 1;

  ChangeRecord record;
  record.op = UpdateOp::kAdd;
  record.dn = entry.dn();
  record.new_entry = entry;
  Commit(std::move(next), std::move(record));
  *ticket = TakeJournalTicket();
  return Status::Ok();
}

Status Backend::Delete(const Dn& dn, Wait wait) {
  JournalTicket ticket;
  METACOMM_RETURN_IF_ERROR(DeleteImpl(dn, &ticket));
  return AwaitJournal(ticket, wait);
}

Status Backend::DeleteImpl(const Dn& dn, JournalTicket* ticket) {
  if (dn.IsRoot()) {
    return Status::InvalidArgument("cannot delete the root DSE");
  }
  MutexLock lock(&write_mutex_);
  SnapshotPtr current = WriterSnapshot();
  const TreeNode* parent = FindNode(*current, dn.Parent());
  if (parent == nullptr) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  const TreeNodePtr* node = parent->children.Find(dn.leaf().Normalized());
  if (node == nullptr) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  if (!(*node)->children.empty()) {
    return Status::SchemaViolation("not allowed on non-leaf: " +
                                   dn.ToString());
  }
  Entry old_entry = (*node)->entry;

  Snapshot next;
  next.root = ReplaceAt(current->root, dn, nullptr);
  next.index = current->index;
  IndexEntry(&next.index, old_entry, /*insert=*/false);
  next.entry_count = current->entry_count - 1;

  ChangeRecord record;
  record.op = UpdateOp::kDelete;
  record.dn = dn;
  record.old_entry = std::move(old_entry);
  Commit(std::move(next), std::move(record));
  *ticket = TakeJournalTicket();
  return Status::Ok();
}

Status Backend::ApplyMods(const Rdn& rdn,
                          const std::vector<Modification>& mods,
                          Entry* entry) const {
  for (const Modification& mod : mods) {
    // RDN attribute protection: an operation may not remove or replace
    // a value that names the entry. (Adding extra values is fine.)
    bool is_rdn_attr = false;
    std::string rdn_value;
    for (const Ava& ava : rdn.avas()) {
      if (EqualsIgnoreCase(ava.attribute, mod.attribute)) {
        is_rdn_attr = true;
        rdn_value = ava.value;
      }
    }
    switch (mod.type) {
      case Modification::Type::kAdd:
        if (mod.values.empty()) {
          return Status::InvalidArgument("modify/add with no values: " +
                                         mod.attribute);
        }
        for (const std::string& v : mod.values) {
          entry->AddValue(mod.attribute, v);
        }
        break;
      case Modification::Type::kDelete:
        if (mod.values.empty()) {
          if (is_rdn_attr) {
            return Status::SchemaViolation("not allowed on RDN: " +
                                           mod.attribute);
          }
          if (!entry->Remove(mod.attribute)) {
            return Status::NotFound("no such attribute: " + mod.attribute);
          }
        } else {
          for (const std::string& v : mod.values) {
            if (is_rdn_attr && EqualsIgnoreCase(v, rdn_value)) {
              return Status::SchemaViolation("not allowed on RDN: " +
                                             mod.attribute + "=" + v);
            }
            if (!entry->RemoveValue(mod.attribute, v)) {
              return Status::NotFound("no such value: " + mod.attribute +
                                      "=" + v);
            }
          }
        }
        break;
      case Modification::Type::kReplace: {
        if (is_rdn_attr) {
          // Replacement must retain the RDN value.
          bool keeps = std::any_of(
              mod.values.begin(), mod.values.end(),
              [&rdn_value](const std::string& v) {
                return EqualsIgnoreCase(v, rdn_value);
              });
          if (!keeps) {
            return Status::SchemaViolation("not allowed on RDN: " +
                                           mod.attribute);
          }
        }
        entry->Set(mod.attribute, mod.values);
        break;
      }
    }
  }
  return Status::Ok();
}

Status Backend::Modify(const Dn& dn, const std::vector<Modification>& mods,
                       Wait wait) {
  JournalTicket ticket;
  METACOMM_RETURN_IF_ERROR(ModifyImpl(dn, mods, &ticket));
  return AwaitJournal(ticket, wait);
}

Status Backend::ModifyImpl(const Dn& dn,
                           const std::vector<Modification>& mods,
                           JournalTicket* ticket) {
  MutexLock lock(&write_mutex_);
  SnapshotPtr current = WriterSnapshot();
  const TreeNode* node = FindNode(*current, dn);
  if (node == nullptr) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  Entry updated = node->entry;
  METACOMM_RETURN_IF_ERROR(ApplyMods(dn.leaf(), mods, &updated));
  if (schema_ != nullptr) {
    METACOMM_RETURN_IF_ERROR(schema_->ValidateEntry(updated));
  }
  Entry old_entry = node->entry;

  auto replacement = std::make_shared<TreeNode>();
  replacement->entry = updated;
  replacement->children = node->children;

  Snapshot next;
  next.root = ReplaceAt(current->root, dn, std::move(replacement));
  next.index = current->index;
  // Reindex only the value keys the mods changed: the COW index pays
  // per touched posting, so adding one objectClass value inserts one
  // posting instead of re-inserting the entry into every class's list.
  std::string norm_dn = dn.Normalized();
  auto shared_dn = std::make_shared<const Dn>(updated.dn());
  const AttributeMap& before = old_entry.attributes();
  const AttributeMap& after = updated.attributes();
  for (const auto& [name, attr] : before) {
    auto it = after.find(name);
    ReindexAttribute(&next.index, name, &attr,
                     it == after.end() ? nullptr : &it->second, norm_dn,
                     shared_dn);
  }
  for (const auto& [name, attr] : after) {
    if (before.find(name) == before.end()) {
      ReindexAttribute(&next.index, name, nullptr, &attr, norm_dn,
                       shared_dn);
    }
  }
  next.entry_count = current->entry_count;

  ChangeRecord record;
  record.op = UpdateOp::kModify;
  record.dn = dn;
  record.old_entry = std::move(old_entry);
  record.new_entry = std::move(updated);
  Commit(std::move(next), std::move(record));
  *ticket = TakeJournalTicket();
  return Status::Ok();
}

Status Backend::ModifyRdn(const Dn& dn, const Rdn& new_rdn,
                          bool delete_old_rdn, Wait wait) {
  JournalTicket ticket;
  METACOMM_RETURN_IF_ERROR(ModifyRdnImpl(dn, new_rdn, delete_old_rdn,
                                         &ticket));
  return AwaitJournal(ticket, wait);
}

Status Backend::ModifyRdnImpl(const Dn& dn, const Rdn& new_rdn,
                              bool delete_old_rdn, JournalTicket* ticket) {
  if (dn.IsRoot()) {
    return Status::InvalidArgument("cannot rename the root DSE");
  }
  MutexLock lock(&write_mutex_);
  SnapshotPtr current = WriterSnapshot();
  Dn parent_dn = dn.Parent();
  const TreeNode* parent = FindNode(*current, parent_dn);
  if (parent == nullptr) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  std::string old_key = dn.leaf().Normalized();
  const TreeNodePtr* node = parent->children.Find(old_key);
  if (node == nullptr) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  std::string new_key = new_rdn.Normalized();
  if (new_key != old_key && parent->children.Find(new_key) != nullptr) {
    return Status::AlreadyExists("sibling already exists: " +
                                 new_rdn.ToString());
  }

  // Build the post-rename entry.
  Entry updated = (*node)->entry;
  Dn new_dn = dn.WithLeaf(new_rdn);
  updated.set_dn(new_dn);
  for (const Ava& ava : new_rdn.avas()) {
    updated.AddValue(ava.attribute, ava.value);
  }
  if (delete_old_rdn) {
    for (const Ava& old_ava : dn.leaf().avas()) {
      // Keep values that also appear in the new RDN.
      bool kept = std::any_of(new_rdn.avas().begin(), new_rdn.avas().end(),
                              [&old_ava](const Ava& n) {
                                return EqualsIgnoreCase(n.attribute,
                                                        old_ava.attribute) &&
                                       EqualsIgnoreCase(n.value,
                                                        old_ava.value);
                              });
      if (!kept) updated.RemoveValue(old_ava.attribute, old_ava.value);
    }
  }
  if (schema_ != nullptr) {
    METACOMM_RETURN_IF_ERROR(schema_->ValidateEntry(updated));
  }

  Entry old_entry = (*node)->entry;

  Snapshot next;
  next.index = current->index;
  // De-index the whole subtree (descendant DNs change too), rebuild it
  // under the new DN, then re-index the rebuilt copy.
  ReindexSubtree(&next.index, node->get(), /*insert=*/false);
  TreeNodePtr renamed = CloneWithNewDn(**node, updated);
  ReindexSubtree(&next.index, renamed.get(), /*insert=*/true);

  auto new_parent = std::make_shared<TreeNode>();
  new_parent->entry = parent->entry;
  new_parent->children =
      parent->children.Erase(old_key).Insert(new_key, std::move(renamed));
  next.root = ReplaceAt(current->root, parent_dn, std::move(new_parent));
  next.entry_count = current->entry_count;

  ChangeRecord record;
  record.op = UpdateOp::kModifyRdn;
  record.dn = dn;
  record.new_dn = new_dn;
  record.old_entry = std::move(old_entry);
  record.new_entry = std::move(updated);
  Commit(std::move(next), std::move(record));
  *ticket = TakeJournalTicket();
  return Status::Ok();
}

StatusOr<Entry> Backend::Get(const Dn& dn) const {
  read_stats_.gets.fetch_add(1, std::memory_order_relaxed);
  SnapshotPtr snapshot = GetSnapshot();
  const TreeNode* node = FindNode(*snapshot, dn);
  if (node == nullptr || dn.IsRoot()) {
    return Status::NotFound("no such object: " + dn.ToString());
  }
  return node->entry;
}

bool Backend::Exists(const Dn& dn) const {
  read_stats_.exists.fetch_add(1, std::memory_order_relaxed);
  SnapshotPtr snapshot = GetSnapshot();
  return !dn.IsRoot() && FindNode(*snapshot, dn) != nullptr;
}

size_t Backend::Size() const {
  return GetSnapshot()->entry_count;
}

StatusOr<SearchResult> Backend::Search(const SearchRequest& request) const {
  read_stats_.searches.fetch_add(1, std::memory_order_relaxed);
  SnapshotPtr snapshot = GetSnapshot();
  const TreeNode* base = FindNode(*snapshot, request.base);
  if (base == nullptr) {
    return Status::NotFound("no such object: " + request.base.ToString());
  }
  SearchResult result;
  switch (request.scope) {
    case Scope::kBase:
      if (!request.base.IsRoot() && request.filter.Matches(base->entry)) {
        result.entries.push_back(base->entry.Project(request.attributes));
      }
      break;
    case Scope::kOneLevel: {
      Status limit_status = Status::Ok();
      base->children.ForEach(
          [&](const std::string&, const TreeNodePtr& child) {
            if (!request.filter.Matches(child->entry)) return true;
            if (request.size_limit > 0 &&
                result.entries.size() >= request.size_limit) {
              limit_status = Status::DeadlineExceeded("size limit exceeded");
              return false;
            }
            result.entries.push_back(
                child->entry.Project(request.attributes));
            return true;
          });
      if (!limit_status.ok()) return limit_status;
      break;
    }
    case Scope::kSubtree: {
      QueryPlan plan = PlanFilter(snapshot->index, request.filter);
      if (plan.indexed) {
        read_stats_.indexed_plans.fetch_add(1, std::memory_order_relaxed);
        read_stats_.candidates_examined.fetch_add(
            plan.candidates.size(), std::memory_order_relaxed);
        // Emit in subtree-scan order so planned and scanned searches
        // are indistinguishable to callers. Each candidate's scope check
        // and sort key come from its posting's normalized DN, once.
        std::string base_dn = request.base.Normalized();
        std::vector<std::string_view> base = TreeOrderKey(base_dn);
        std::vector<std::pair<std::vector<std::string_view>, const Dn*>>
            in_scope;
        for (const auto& [norm_dn, dn] : plan.candidates) {
          std::vector<std::string_view> key = TreeOrderKey(norm_dn);
          if (std::mismatch(base.begin(), base.end(), key.begin(), key.end())
                  .first == base.end()) {
            in_scope.emplace_back(std::move(key), dn);
          }
        }
        std::sort(in_scope.begin(), in_scope.end());
        uint64_t matched = 0;
        for (const auto& [key, dn] : in_scope) {
          const TreeNode* node = FindNode(*snapshot, *dn);
          if (node == nullptr || !request.filter.Matches(node->entry)) {
            continue;
          }
          ++matched;
          if (request.size_limit > 0 &&
              result.entries.size() >= request.size_limit) {
            read_stats_.candidates_matched.fetch_add(
                matched, std::memory_order_relaxed);
            return Status::DeadlineExceeded("size limit exceeded");
          }
          result.entries.push_back(node->entry.Project(request.attributes));
        }
        read_stats_.candidates_matched.fetch_add(matched,
                                                 std::memory_order_relaxed);
      } else {
        read_stats_.scan_plans.fetch_add(1, std::memory_order_relaxed);
        Status limit_status = Status::Ok();
        if (request.base.IsRoot()) {
          // The virtual root is not a real entry: search its subtrees.
          base->children.ForEach(
              [&](const std::string&, const TreeNodePtr& child) {
                CollectScan(child.get(), request, &result.entries,
                            &limit_status);
                return limit_status.ok();
              });
        } else {
          CollectScan(base, request, &result.entries, &limit_status);
        }
        if (!limit_status.ok()) return limit_status;
      }
      break;
    }
  }
  return result;
}

void Backend::AddListener(Listener listener) {
  MutexLock lock(&write_mutex_);
  listeners_.push_back(std::move(listener));
}

std::vector<Entry> Backend::DumpAll() const {
  SnapshotPtr snapshot = GetSnapshot();
  std::vector<Entry> out;
  out.reserve(snapshot->entry_count);
  ForEachEntry(*snapshot, [&out](const Entry& entry) {
    out.push_back(entry);
    return true;
  });
  return out;
}

uint64_t Backend::ChangeCount() const {
  return GetSnapshot()->version;
}

Backend::ReadStats Backend::read_stats() const {
  ReadStats stats;
  stats.searches = read_stats_.searches.load(std::memory_order_relaxed);
  stats.gets = read_stats_.gets.load(std::memory_order_relaxed);
  stats.exists = read_stats_.exists.load(std::memory_order_relaxed);
  stats.indexed_plans =
      read_stats_.indexed_plans.load(std::memory_order_relaxed);
  stats.scan_plans = read_stats_.scan_plans.load(std::memory_order_relaxed);
  stats.candidates_examined =
      read_stats_.candidates_examined.load(std::memory_order_relaxed);
  stats.candidates_matched =
      read_stats_.candidates_matched.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace metacomm::ldap
