#ifndef METACOMM_COMMON_PERSISTENT_MAP_H_
#define METACOMM_COMMON_PERSISTENT_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace metacomm {

/// An immutable, structurally shared ordered map from std::string to V.
///
/// This is the copy-on-write backbone of the snapshot-isolated
/// directory read path: every mutation returns a NEW map that shares
/// all untouched nodes with its parent, so a published snapshot stays
/// valid (and immutable) for as long as any reader holds it, while a
/// writer derives the next version in O(log n) node copies.
///
/// Implementation: a path-copying treap whose heap priorities are
/// derived from a hash of the key. That makes the tree shape a pure
/// function of the key SET — independent of insertion order — which
/// keeps the expected depth logarithmic without storing any balance
/// bookkeeping, and makes structurally equal snapshots byte-identical.
///
/// Thread safety: a PersistentMap value itself is a single shared_ptr;
/// distinct map values may be read concurrently without
/// synchronization (all reachable nodes are immutable). Publishing a
/// map from one thread to another requires the usual external
/// happens-before edge (the Backend publishes whole snapshots through
/// one atomic pointer).
template <typename V>
class PersistentMap {
 public:
  PersistentMap() = default;

  size_t size() const { return Count(root_); }
  bool empty() const { return root_ == nullptr; }

  /// Pointer to the value for `key`, or nullptr. The pointee lives as
  /// long as any map sharing the node does.
  const V* Find(std::string_view key) const {
    const Node* node = root_.get();
    while (node != nullptr) {
      if (key < node->key) {
        node = node->left.get();
      } else if (node->key < key) {
        node = node->right.get();
      } else {
        return &node->value;
      }
    }
    return nullptr;
  }

  /// Insert-or-assign; returns the derived map. Copies only the
  /// search path down to where the new node belongs.
  PersistentMap Insert(std::string_view key, V value) const {
    return PersistentMap(
        InsertAt(root_, key, Priority(key), std::move(value)));
  }

  /// Removes `key` if present; returns the derived map. Copies only the
  /// search path and the spines the erased node's children merge on.
  PersistentMap Erase(std::string_view key) const {
    return PersistentMap(EraseAt(root_, key));
  }

  /// In-order traversal. `fn(key, value)` returns false to stop early;
  /// ForEach itself returns false when stopped.
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    return Walk(root_.get(), std::string_view(), fn);
  }

  /// In-order traversal starting at the first key >= `from` (the
  /// range-scan primitive behind prefix-indexed query plans).
  template <typename Fn>
  bool ForEachFrom(std::string_view from, Fn&& fn) const {
    return Walk(root_.get(), from, fn);
  }

 private:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

  struct Node {
    std::string key;
    V value;
    uint64_t priority;
    size_t count;  // Subtree size.
    NodePtr left;
    NodePtr right;
  };

  explicit PersistentMap(NodePtr root) : root_(std::move(root)) {}

  static size_t Count(const NodePtr& node) {
    return node == nullptr ? 0 : node->count;
  }

  /// FNV-1a; deterministic so equal key sets build equal trees.
  static uint64_t Priority(std::string_view key) {
    uint64_t h = 1469598103934665603ull;
    for (char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  static NodePtr WithChildren(const NodePtr& node, NodePtr left,
                              NodePtr right) {
    return std::make_shared<Node>(
        Node{node->key, node->value, node->priority,
             1 + Count(left) + Count(right), std::move(left),
             std::move(right)});
  }

  /// True when a node (`priority`, `key`) sits above `node`: higher
  /// priority wins, and on a tie the smaller key. Insert and Merge
  /// share this one rule, so the shape depends only on the key set.
  static bool Above(uint64_t priority, std::string_view key,
                    const Node& node) {
    return priority > node.priority ||
           (priority == node.priority && key < node.key);
  }

  static NodePtr InsertAt(const NodePtr& node, std::string_view key,
                          uint64_t priority, V&& value) {
    if (node == nullptr || Above(priority, key, *node)) {
      // `key` is absent below here (an equal key would share its
      // priority, so it could not sit under `node`).
      NodePtr less, greater;
      Split(node, key, &less, &greater);
      size_t count = 1 + Count(less) + Count(greater);
      return std::make_shared<Node>(Node{std::string(key), std::move(value),
                                         priority, count, std::move(less),
                                         std::move(greater)});
    }
    if (key < node->key) {
      return WithChildren(node, InsertAt(node->left, key, priority,
                                         std::move(value)),
                          node->right);
    }
    if (node->key < key) {
      return WithChildren(node, node->left,
                          InsertAt(node->right, key, priority,
                                   std::move(value)));
    }
    return std::make_shared<Node>(Node{node->key, std::move(value),
                                       node->priority, node->count,
                                       node->left, node->right});
  }

  /// Returns `node` itself when `key` is absent, so a miss copies
  /// nothing.
  static NodePtr EraseAt(const NodePtr& node, std::string_view key) {
    if (node == nullptr) return nullptr;
    if (key < node->key) {
      NodePtr left = EraseAt(node->left, key);
      return left == node->left ? node
                                : WithChildren(node, std::move(left),
                                               node->right);
    }
    if (node->key < key) {
      NodePtr right = EraseAt(node->right, key);
      return right == node->right ? node
                                  : WithChildren(node, node->left,
                                                 std::move(right));
    }
    return Merge(node->left, node->right);
  }

  /// Partitions `node`, which must not hold `key`, into keys < `key`
  /// and keys > `key`, copying only the nodes on the search path.
  static void Split(const NodePtr& node, std::string_view key,
                    NodePtr* less, NodePtr* greater) {
    if (node == nullptr) {
      *less = *greater = nullptr;
      return;
    }
    if (key < node->key) {
      NodePtr sub_greater;
      Split(node->left, key, less, &sub_greater);
      *greater = WithChildren(node, std::move(sub_greater), node->right);
    } else {
      NodePtr sub_less;
      Split(node->right, key, &sub_less, greater);
      *less = WithChildren(node, node->left, std::move(sub_less));
    }
  }

  /// Joins two treaps; every key in `a` precedes every key in `b`.
  static NodePtr Merge(const NodePtr& a, const NodePtr& b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (Above(a->priority, a->key, *b)) {
      return WithChildren(a, a->left, Merge(a->right, b));
    }
    return WithChildren(b, Merge(a, b->left), b->right);
  }

  template <typename Fn>
  static bool Walk(const Node* node, std::string_view from, Fn& fn) {
    if (node == nullptr) return true;
    // Keys below `from` (the whole left subtree included) are skipped
    // without descending into them.
    if (node->key < from) return Walk(node->right.get(), from, fn);
    if (!Walk(node->left.get(), from, fn)) return false;
    if (!fn(node->key, node->value)) return false;
    return Walk(node->right.get(), from, fn);
  }

  NodePtr root_;
};

}  // namespace metacomm

#endif  // METACOMM_COMMON_PERSISTENT_MAP_H_
