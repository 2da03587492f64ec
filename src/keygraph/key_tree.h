// The key tree (paper Sections 2.2, 3.3, 3.4).
//
// A tree key graph: the root k-node holds the group key, internal k-nodes
// hold subgroup keys, and each leaf k-node is one user's individual key. The
// server mutates this structure on every join/leave and hands the mutation
// record (which nodes changed, old and new keys, sibling keys) to a rekeying
// strategy, which turns it into rekey messages.
//
// The tree maintains the paper's "full and balanced" heuristic: a join
// descends toward the lightest subtree and attaches at the first node with
// spare capacity (splitting a leaf when every node on the way is full), and
// a leave splices out internal nodes left with a single child.
//
// Storage: k-nodes live in a slot arena held in fixed-size copy-on-write
// pages (detail::TreeStore in tree_view.h), with one KeyId -> slot index in
// the same kind of pages. A join, leave or batch writes only the O(d log n)
// slots on the paths it changes, cloning each page it writes once per
// epoch; at the end of every mutation the writer publishes an immutable
// TreeView by copying the store's page tables, then swapping a shared_ptr.
// Readers acquire views via view() and never block on or race with the
// writer. The traversal-heavy read API (users_under, keyset, users, height,
// serialize) answers from the current view.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "crypto/random.h"
#include "keygraph/key.h"
#include "keygraph/tree_view.h"

namespace keygraphs {

/// One changed k-node on the rekey path, root first.
struct PathChange {
  KeyId node = 0;
  /// Key existing holders of this subtree had before the change. For a join
  /// this is the pre-join key of the node (or, when a leaf was split to make
  /// room, the split leaf's individual key). Unset for a leave: the old key
  /// is compromised and never used to wrap anything.
  std::optional<SymmetricKey> old_key;
  SymmetricKey new_key;
};

/// A child of a rekey-path node, as needed by leave strategies: its current
/// key (already the *new* key if the child itself is on the path).
struct ChildKey {
  KeyId node = 0;
  SymmetricKey key;
  bool on_path = false;  // true if this child is the next path node down
};

/// Everything a strategy needs to build join rekey messages.
struct JoinRecord {
  UserId user = 0;
  SymmetricKey individual_key;
  /// Changed nodes from root (index 0) down to the joining point.
  std::vector<PathChange> path;
  /// K-nodes that no longer exist (none for joins; present for symmetry).
  std::vector<KeyId> removed_nodes;
  /// Ids of the root's children after the join (the hybrid strategy sends
  /// one message per top-level subtree, paper Section 7).
  std::vector<KeyId> root_children;
};

/// Everything a strategy needs to build leave rekey messages.
struct LeaveRecord {
  UserId user = 0;
  /// Changed nodes from root (index 0) down to the leaving point.
  std::vector<PathChange> path;
  /// children[i] lists the children of path[i] *after* the removal.
  std::vector<std::vector<ChildKey>> children;
  /// K-nodes deleted by this leave (the user's leaf, plus any spliced-out
  /// single-child parents). Clients may garbage-collect these.
  std::vector<KeyId> removed_nodes;
};

/// One rekeyed node in a batch operation, with its post-batch children.
struct BatchChange {
  KeyId node = 0;
  SymmetricKey new_key;
  /// Children after the batch, carrying current keys (new ones for
  /// children that were themselves rekeyed).
  std::vector<ChildKey> children;
};

/// Result of a batched membership update (several joins and leaves rekeyed
/// in one pass — the periodic-rekeying extension of the LKH line of work).
struct BatchRecord {
  std::vector<UserId> joined;
  std::vector<UserId> left;
  /// Every k-node whose key changed, each exactly once.
  std::vector<BatchChange> changes;
  std::vector<KeyId> removed_nodes;
  /// Full new keyset (leaf to root) per joiner, for the welcome unicasts.
  std::vector<std::pair<UserId, std::vector<SymmetricKey>>> joiner_keysets;
};

/// The server-side key tree.
class KeyTree {
 public:
  /// `degree` is the paper's d (maximum children per k-node), >= 2.
  /// `key_size` is the symmetric key size in bytes (8 for DES, 16 for AES).
  /// The rng is borrowed for the tree's lifetime and supplies key material.
  /// `first_id` seeds the internal k-node id counter (default 1). A sharded
  /// deployment gives each shard tree a disjoint id range (stride 2^32) so
  /// k-node ids never collide across shards — multicast subscriptions and
  /// rekey blobs are keyed by KeyId, and two shards minting the same id
  /// would cross-deliver. 2^32 ids per shard outlasts any realistic
  /// mutation count (ids are never reused within a tree's lifetime).
  KeyTree(int degree, std::size_t key_size, crypto::SecureRandom& rng,
          KeyId first_id = 1);

  KeyTree(const KeyTree&) = delete;
  KeyTree& operator=(const KeyTree&) = delete;
  virtual ~KeyTree();  // StarGraph derives from KeyTree

  /// Adds a user. The individual key is supplied by the caller (in the
  /// paper it comes out of the authentication exchange). Changes the keys on
  /// the path from the joining point to the root. Throws ProtocolError if
  /// the user is already a member.
  JoinRecord join(UserId user, Bytes individual_key);

  /// Removes a user. Changes keys from the leaving point to the root.
  /// Throws ProtocolError if the user is not a member.
  LeaveRecord leave(UserId user);

  /// Applies several joins and leaves in one pass, rekeying each affected
  /// k-node exactly once (periodic/batch rekeying: amortizes overlapping
  /// rekey paths when churn is high). A user may not both join and leave
  /// in the same batch. Throws ProtocolError on duplicate/unknown users;
  /// the tree is unchanged if validation fails.
  BatchRecord batch_update(
      const std::vector<std::pair<UserId, Bytes>>& joins,
      const std::vector<UserId>& leaves);

  [[nodiscard]] std::size_t user_count() const noexcept;
  [[nodiscard]] bool has_user(UserId user) const;

  /// Total number of k-nodes including the root and leaves (Table 1 row 1
  /// counts these as "number of keys held by the server", minus nothing —
  /// individual keys are part of K).
  [[nodiscard]] std::size_t key_count() const noexcept;

  /// Number of edges on the longest root-to-leaf path. The paper's h counts
  /// one more edge (their paths end at u-nodes hanging below the individual
  /// keys), so paper-h = height() + 1 and a user at maximum depth holds
  /// height() + 1 keys. Answered from the current view's precomputed value
  /// — O(1), no traversal (it sits on the stats hot path).
  [[nodiscard]] std::size_t height() const;

  [[nodiscard]] int degree() const noexcept { return store_.degree; }

  /// Current group key (the root k-node's key).
  [[nodiscard]] SymmetricKey group_key() const;

  [[nodiscard]] KeyId root_id() const noexcept { return at(store_.root).id; }

  /// userset(k): all users in the subtree of `node` (paper Section 2.1).
  [[nodiscard]] std::vector<UserId> users_under(KeyId node) const;

  /// keyset(u): the keys user u holds, leaf to root. Used by tests to check
  /// the user-key relation and by the simulator to seed client state.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;

  /// Full user list (ascending ids).
  [[nodiscard]] std::vector<UserId> users() const;

  // --- Epoch views -------------------------------------------------------

  /// Acquires the current immutable snapshot. Safe from any thread at any
  /// time; the returned view (and the key material it references) stays
  /// valid for as long as the caller holds the pointer.
  [[nodiscard]] TreeViewPtr view() const;

  /// Structural invariants, asserted by tests after every operation:
  /// child/parent links consistent, arity <= degree, user counts and
  /// subtree heights correct, every live slot reachable exactly once, the
  /// id index mapping exactly the live slots, and the free list and page
  /// stamps consistent.
  void check_invariants() const;

  /// Serializes the complete tree — structure AND key material. This is
  /// the replication path Section 6 alludes to ("the key server may be
  /// replicated for reliability"): a standby server restores from it and
  /// continues issuing rekeys. The bytes are as sensitive as the server's
  /// memory; move them only over a mutually authenticated secure channel.
  [[nodiscard]] Bytes serialize() const;

  /// Restores a tree serialized by serialize(). The rng supplies key
  /// material for *future* operations only. Throws ParseError on malformed
  /// input (and validates all invariants before returning).
  static std::unique_ptr<KeyTree> deserialize(BytesView data,
                                              crypto::SecureRandom& rng);

 private:
  using NodeIndex = std::uint32_t;
  using Slot = detail::TreeSlot;
  static constexpr NodeIndex kNil = detail::kNilSlot;

  [[nodiscard]] const Slot& at(NodeIndex index) const {
    return store_.at(index);
  }
  /// The slot for writing, cloning its page first if a view shares it.
  /// Take a fresh reference after any other write: never write through a
  /// reference obtained from at().
  [[nodiscard]] Slot& mut(NodeIndex index) {
    return store_.slots.mut(index, edit_);
  }
  /// The slot's key material for writing, under the same rule as mut().
  [[nodiscard]] std::uint8_t* mut_secret(NodeIndex index) {
    return store_.slots.mut_pool(index, store_.key_size, edit_);
  }
  [[nodiscard]] SymmetricKey key(NodeIndex index) const {
    return store_.key(index);
  }

  NodeIndex make_node(std::optional<KeyId> fixed_id = std::nullopt);
  /// Claims a fresh leaf for `user` holding `secret`.
  NodeIndex make_leaf(UserId user, BytesView secret);
  void destroy_node(NodeIndex index);
  void refresh_key(NodeIndex index);
  void bump_counts(NodeIndex from, std::ptrdiff_t delta);
  /// Heights after `from` (a fresh leaf) was attached: they can only grow.
  void raise_heights(NodeIndex from);
  /// Heights after a child of `from` was removed or replaced, from `from`
  /// up until one is unchanged.
  void recompute_heights(NodeIndex from);
  [[nodiscard]] NodeIndex lightest_child(NodeIndex parent) const;
  void append_child(NodeIndex parent, NodeIndex child);
  void remove_child(NodeIndex parent, NodeIndex child);
  /// Puts `replacement` where `old` sits in the parent's child list.
  void replace_child(NodeIndex parent, NodeIndex old, NodeIndex replacement);
  [[nodiscard]] NodeIndex find_join_parent() const;
  /// Attaches a (pre-made) leaf per the balance heuristic; returns the
  /// attach parent and, when a full leaf had to be split, that leaf's
  /// pre-split individual key. Shared by join() and batch_update().
  std::pair<NodeIndex, std::optional<SymmetricKey>> attach_leaf(
      NodeIndex leaf);
  /// Unlinks and frees a user's leaf, splicing out a parent left with one
  /// child; returns the deepest surviving node on the path. Appends the
  /// freed ids to `removed`.
  NodeIndex detach_leaf(NodeIndex leaf, std::vector<KeyId>& removed);
  /// Writer-side keyset (live store, mid-mutation safe).
  [[nodiscard]] std::vector<SymmetricKey> arena_keyset(UserId user) const;
  /// Publishes a view sharing the current pages and swaps it in; refreshes
  /// the tree-shape telemetry gauges.
  void publish(std::uint64_t epoch);
  /// publish() labelled with the next mutation count.
  void publish_next();

  crypto::SecureRandom& rng_;
  detail::TreeStore store_;
  /// The writer's edit stamp: pages stamped with it are not in any view.
  /// Bumped by every publish.
  std::uint64_t edit_ = 1;

  /// Guards only the view_ pointer swap/copy (a leaf lock, never held
  /// across any other work); the snapshot itself is immutable.
  mutable std::mutex view_mutex_;
  TreeViewPtr view_;
  std::uint64_t view_epoch_ = 0;
};

}  // namespace keygraphs
