#include "keygraph/key_tree.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/error.h"
#include "common/io.h"
#include "telemetry/stage.h"

namespace keygraphs {

KeyTree::KeyTree(int degree, std::size_t key_size, crypto::SecureRandom& rng,
                 KeyId first_id)
    : rng_(rng) {
  if (degree < 2) throw ProtocolError("KeyTree: degree must be >= 2");
  if (key_size == 0) throw ProtocolError("KeyTree: key size must be > 0");
  if (first_id == 0 || (first_id & (KeyId{1} << 63)) != 0) {
    throw ProtocolError("KeyTree: first_id collides with reserved id space");
  }
  store_.degree = degree;
  store_.key_size = key_size;
  store_.next_id = first_id;
  store_.root = make_node();
  refresh_key(store_.root);
  publish(0);
}

KeyTree::~KeyTree() = default;  // pages wipe their key material

KeyTree::NodeIndex KeyTree::make_node(std::optional<KeyId> fixed_id) {
  NodeIndex index;
  if (store_.free_head != kNil) {
    index = store_.free_head;
    store_.free_head = at(index).next_sibling;
  } else {
    if (store_.slot_count == store_.slots.capacity()) {
      store_.slots.add_page(store_.key_size, edit_);
    }
    index = store_.slot_count++;
  }
  // value_or evaluates its argument, so fixed-id nodes advance the counter
  // too. Ids are on the wire: keep it that way.
  const KeyId id = fixed_id.value_or(store_.next_id++);
  store_.index_insert(id, index, edit_);
  Slot& node = mut(index);
  node = Slot{};
  node.id = id;
  node.live = true;
  ++store_.live;
  return index;
}

KeyTree::NodeIndex KeyTree::make_leaf(UserId user, BytesView secret) {
  const NodeIndex leaf = make_node(individual_key_id(user));
  Slot& node = mut(leaf);
  node.leaf = true;
  node.user = user;
  node.version = 1;
  node.user_count = 1;
  std::memcpy(mut_secret(leaf), secret.data(), store_.key_size);
  return leaf;
}

void KeyTree::destroy_node(NodeIndex index) {
  store_.index_erase(at(index).id, edit_);
  secure_wipe(mut_secret(index), store_.key_size);
  Slot& node = mut(index);
  node = Slot{};
  node.next_sibling = store_.free_head;
  store_.free_head = index;
  --store_.live;
}

void KeyTree::refresh_key(NodeIndex index) {
  // Attributes fresh key material to the keygen stage when an operation is
  // being collected (join/leave/batch); inert otherwise (e.g. restore).
  const telemetry::StageScope scope(telemetry::Stage::kKeygen);
  rng_.fill(mut_secret(index), store_.key_size);
  ++mut(index).version;
  if (telemetry::enabled()) {
    static auto& generated =
        telemetry::Registry::global().counter("keygraph.keys_generated");
    generated.add(1);
  }
}

void KeyTree::bump_counts(NodeIndex from, std::ptrdiff_t delta) {
  for (NodeIndex i = from; i != kNil; i = at(i).parent) {
    Slot& node = mut(i);
    node.user_count = static_cast<std::uint32_t>(
        static_cast<std::ptrdiff_t>(node.user_count) + delta);
  }
}

void KeyTree::raise_heights(NodeIndex from) {
  for (NodeIndex i = from, parent = at(i).parent; parent != kNil;
       i = parent, parent = at(i).parent) {
    const std::uint32_t height = at(i).height + 1;
    if (at(parent).height >= height) return;  // ancestors are unaffected
    mut(parent).height = height;
  }
}

void KeyTree::recompute_heights(NodeIndex from) {
  for (NodeIndex i = from; i != kNil; i = at(i).parent) {
    std::uint32_t height = 0;
    for (NodeIndex c = at(i).first_child; c != kNil; c = at(c).next_sibling) {
      height = std::max(height, at(c).height + 1);
    }
    if (at(i).height == height) return;  // ancestors are unaffected
    mut(i).height = height;
  }
}

KeyTree::NodeIndex KeyTree::lightest_child(NodeIndex parent) const {
  // The first child with the fewest users, like std::min_element.
  NodeIndex best = at(parent).first_child;
  for (NodeIndex c = at(best).next_sibling; c != kNil;
       c = at(c).next_sibling) {
    if (at(c).user_count < at(best).user_count) best = c;
  }
  return best;
}

void KeyTree::append_child(NodeIndex parent, NodeIndex child) {
  const NodeIndex first = at(parent).first_child;
  if (first == kNil) {
    mut(parent).first_child = child;
  } else {
    NodeIndex tail = first;
    while (at(tail).next_sibling != kNil) tail = at(tail).next_sibling;
    mut(tail).next_sibling = child;
  }
  ++mut(parent).child_count;
  Slot& node = mut(child);
  node.parent = parent;
  node.next_sibling = kNil;
}

void KeyTree::remove_child(NodeIndex parent, NodeIndex child) {
  const NodeIndex next = at(child).next_sibling;
  if (at(parent).first_child == child) {
    mut(parent).first_child = next;
  } else {
    NodeIndex prev = at(parent).first_child;
    while (at(prev).next_sibling != child) prev = at(prev).next_sibling;
    mut(prev).next_sibling = next;
  }
  --mut(parent).child_count;
}

void KeyTree::replace_child(NodeIndex parent, NodeIndex old,
                            NodeIndex replacement) {
  const NodeIndex next = at(old).next_sibling;
  if (at(parent).first_child == old) {
    mut(parent).first_child = replacement;
  } else {
    NodeIndex prev = at(parent).first_child;
    while (at(prev).next_sibling != old) prev = at(prev).next_sibling;
    mut(prev).next_sibling = replacement;
  }
  Slot& node = mut(replacement);
  node.parent = parent;
  node.next_sibling = next;
}

KeyTree::NodeIndex KeyTree::find_join_parent() const {
  // Descend toward the lightest subtree; attach at the first node with
  // spare capacity. Returns an internal node with < degree children, or a
  // full node whose lightest child is a leaf (caller splits that leaf).
  NodeIndex index = store_.root;
  for (;;) {
    if (static_cast<std::int64_t>(at(index).child_count) < store_.degree) {
      return index;
    }
    const NodeIndex lightest = lightest_child(index);
    if (at(lightest).leaf) return index;  // full everywhere: split
    index = lightest;
  }
}

std::pair<KeyTree::NodeIndex, std::optional<SymmetricKey>>
KeyTree::attach_leaf(NodeIndex leaf) {
  const NodeIndex target = find_join_parent();
  NodeIndex attach_parent = target;
  std::optional<SymmetricKey> split_leaf_key;

  if (static_cast<std::int64_t>(at(target).child_count) >= store_.degree) {
    // Split the lightest (leaf) child: a fresh intermediate k-node takes its
    // place and adopts both the old leaf and the new user's leaf.
    const NodeIndex old_leaf = lightest_child(target);
    split_leaf_key = key(old_leaf);
    const NodeIndex intermediate = make_node();
    replace_child(target, old_leaf, intermediate);
    const std::uint32_t users = at(old_leaf).user_count;
    mut(intermediate).user_count = users;
    append_child(intermediate, old_leaf);
    attach_parent = intermediate;
  }

  append_child(attach_parent, leaf);
  bump_counts(attach_parent, +1);
  raise_heights(leaf);
  return {attach_parent, std::move(split_leaf_key)};
}

KeyTree::NodeIndex KeyTree::detach_leaf(NodeIndex leaf,
                                        std::vector<KeyId>& removed) {
  const NodeIndex parent = at(leaf).parent;
  removed.push_back(at(leaf).id);
  remove_child(parent, leaf);
  bump_counts(parent, -1);
  destroy_node(leaf);

  // Splice out a non-root parent left with a single child: the child keeps
  // its own key and moves up one level, shrinking user keysets by one key.
  NodeIndex start = parent;
  if (at(parent).parent != kNil && at(parent).child_count == 1) {
    const NodeIndex child = at(parent).first_child;
    const NodeIndex grandparent = at(parent).parent;
    replace_child(grandparent, parent, child);
    removed.push_back(at(parent).id);
    destroy_node(parent);
    start = grandparent;
  }
  recompute_heights(start);
  return start;
}

JoinRecord KeyTree::join(UserId user, Bytes individual_key) {
  if (store_.find(individual_key_id(user)) != kNil) {
    throw ProtocolError("KeyTree: user already in group");
  }
  if (individual_key.size() != store_.key_size) {
    throw ProtocolError("KeyTree: individual key has wrong size");
  }

  const NodeIndex leaf = make_leaf(user, individual_key);
  secure_wipe(individual_key);
  const auto [attach_parent, split_leaf_key] = attach_leaf(leaf);

  // The pre-join key of every ancestor is what existing members hold; it
  // wraps the corresponding new key. Capture before refreshing.
  JoinRecord record;
  record.user = user;
  record.individual_key = key(leaf);

  std::vector<NodeIndex> path;  // attach parent up to root
  for (NodeIndex i = attach_parent; i != kNil; i = at(i).parent) {
    path.push_back(i);
  }
  std::reverse(path.begin(), path.end());  // root first

  const bool had_members = user_count() > 1;
  for (NodeIndex i : path) {
    PathChange change;
    change.node = at(i).id;
    if (split_leaf_key.has_value() && i == attach_parent) {
      // Brand-new intermediate: the only existing holder-to-be is the split
      // leaf's user, reachable through its individual key.
      change.old_key = split_leaf_key;
    } else if (had_members) {
      change.old_key = key(i);
    }
    refresh_key(i);
    change.new_key = key(i);
    record.path.push_back(std::move(change));
  }
  for (NodeIndex c = at(store_.root).first_child; c != kNil;
       c = at(c).next_sibling) {
    record.root_children.push_back(at(c).id);
  }
  publish_next();
  return record;
}

LeaveRecord KeyTree::leave(UserId user) {
  const NodeIndex leaf = store_.find_leaf(user);
  if (leaf == kNil) throw ProtocolError("KeyTree: user not in group");

  LeaveRecord record;
  record.user = user;
  const NodeIndex rekey_start = detach_leaf(leaf, record.removed_nodes);

  std::vector<NodeIndex> path;  // rekey start up to root
  for (NodeIndex i = rekey_start; i != kNil; i = at(i).parent) {
    path.push_back(i);
  }
  std::reverse(path.begin(), path.end());  // root first

  for (NodeIndex i : path) {
    refresh_key(i);
    PathChange change;
    change.node = at(i).id;
    change.new_key = key(i);  // old key is compromised; never recorded
    record.path.push_back(std::move(change));
  }
  // Snapshot children after all refreshes so on-path children already carry
  // their new keys (Figure 8's {K'_{i-1}}_{K'_i} chain).
  record.children.resize(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeIndex next_on_path = i + 1 < path.size() ? path[i + 1] : kNil;
    for (NodeIndex c = at(path[i]).first_child; c != kNil;
         c = at(c).next_sibling) {
      record.children[i].push_back(
          ChildKey{at(c).id, key(c), c == next_on_path});
    }
  }
  publish_next();
  return record;
}

BatchRecord KeyTree::batch_update(
    const std::vector<std::pair<UserId, Bytes>>& joins,
    const std::vector<UserId>& leaves) {
  // Validate everything before mutating anything. Joiners are keyed by
  // their leaf id: two users whose ids differ only in the top bit would
  // share one.
  std::set<KeyId> joining;
  std::set<UserId> leaving;
  for (const auto& [user, key] : joins) {
    if (store_.find(individual_key_id(user)) != kNil) {
      throw ProtocolError("batch: joining user already in group");
    }
    if (!joining.insert(individual_key_id(user)).second) {
      throw ProtocolError("batch: duplicate join");
    }
    if (key.size() != store_.key_size) {
      throw ProtocolError("batch: individual key has wrong size");
    }
  }
  for (UserId user : leaves) {
    if (joining.contains(individual_key_id(user))) {
      throw ProtocolError("batch: user both joins and leaves");
    }
    if (store_.find_leaf(user) == kNil) {
      throw ProtocolError("batch: leaving user not in group");
    }
    if (!leaving.insert(user).second) {
      throw ProtocolError("batch: duplicate leave");
    }
  }

  BatchRecord record;
  std::set<KeyId> changed;  // ordered for deterministic key generation

  // Leaves first: free the slots, mark every path to the root.
  for (UserId user : leaves) {
    record.left.push_back(user);
    const std::size_t removed_before = record.removed_nodes.size();
    const NodeIndex start =
        detach_leaf(store_.find_leaf(user), record.removed_nodes);
    if (record.removed_nodes.size() - removed_before == 2) {
      // The spliced-out parent may be marked by a prior leave.
      changed.erase(record.removed_nodes.back());
    }
    for (NodeIndex i = start; i != kNil; i = at(i).parent) {
      changed.insert(at(i).id);
    }
  }

  // Then joins: attach per the balance heuristic, mark the paths.
  for (const auto& [user, key] : joins) {
    const NodeIndex attach_parent = attach_leaf(make_leaf(user, key)).first;
    for (NodeIndex i = attach_parent; i != kNil; i = at(i).parent) {
      changed.insert(at(i).id);
    }
    record.joined.push_back(user);
  }

  // Rekey every affected node exactly once — the whole point of batching.
  for (KeyId id : changed) refresh_key(store_.find(id));

  // Snapshot after all refreshes so wrapped-under-child keys are current.
  for (KeyId id : changed) {
    const NodeIndex node = store_.find(id);
    BatchChange change;
    change.node = id;
    change.new_key = key(node);
    for (NodeIndex c = at(node).first_child; c != kNil;
         c = at(c).next_sibling) {
      change.children.push_back(
          ChildKey{at(c).id, key(c), changed.contains(at(c).id)});
    }
    record.changes.push_back(std::move(change));
  }
  for (const auto& [user, key] : joins) {
    record.joiner_keysets.emplace_back(user, arena_keyset(user));
  }
  publish_next();
  return record;
}

std::size_t KeyTree::user_count() const noexcept {
  return at(store_.root).user_count;
}

bool KeyTree::has_user(UserId user) const {
  return store_.find_leaf(user) != kNil;
}

std::size_t KeyTree::key_count() const noexcept { return store_.live; }

std::size_t KeyTree::height() const { return view()->height(); }

SymmetricKey KeyTree::group_key() const { return key(store_.root); }

std::vector<UserId> KeyTree::users_under(KeyId node_id) const {
  return view()->users_under(node_id);
}

std::vector<SymmetricKey> KeyTree::keyset(UserId user) const {
  return view()->keyset(user);
}

std::vector<SymmetricKey> KeyTree::arena_keyset(UserId user) const {
  const NodeIndex leaf = store_.find_leaf(user);
  if (leaf == kNil) throw ProtocolError("KeyTree: user not in group");
  std::vector<SymmetricKey> out;
  for (NodeIndex i = leaf; i != kNil; i = at(i).parent) out.push_back(key(i));
  return out;
}

std::vector<UserId> KeyTree::users() const { return view()->users(); }

Bytes KeyTree::serialize() const { return view()->serialize(); }

TreeViewPtr KeyTree::view() const {
  // A leaf mutex held only for the pointer copy: readers pay one refcount
  // increment here, then run entirely on the immutable snapshot. (GCC 12's
  // std::atomic<shared_ptr> reads its pointer word outside any
  // TSan-visible synchronization, so a plain mutex is the portable,
  // sanitizer-clean publication primitive.)
  const std::lock_guard lock(view_mutex_);
  return view_;
}

void KeyTree::publish_next() { publish(++view_epoch_); }

void KeyTree::publish(std::uint64_t epoch) {
  auto fresh = std::shared_ptr<TreeView>(new TreeView());
  fresh->store_ = store_;  // copies the page tables, shares every page
  fresh->epoch_ = epoch;
  ++edit_;  // the view now shares every page: the next write clones

  if (telemetry::enabled()) {
    auto& registry = telemetry::Registry::global();
    static auto& users_gauge = registry.gauge("tree.users");
    static auto& keys_gauge = registry.gauge("tree.keys");
    static auto& height_gauge = registry.gauge("tree.height");
    static auto& epoch_gauge = registry.gauge("tree.view_epoch");
    users_gauge.set(static_cast<std::int64_t>(fresh->user_count()));
    keys_gauge.set(static_cast<std::int64_t>(fresh->key_count()));
    height_gauge.set(static_cast<std::int64_t>(fresh->height()));
    epoch_gauge.set(static_cast<std::int64_t>(epoch));
  }

  TreeViewPtr retired;  // released after the lock, with any pages it alone held
  {
    const std::lock_guard lock(view_mutex_);
    retired = std::move(view_);
    view_ = std::move(fresh);
  }
}

std::unique_ptr<KeyTree> KeyTree::deserialize(BytesView data,
                                              crypto::SecureRandom& rng) {
  ByteReader reader(data);
  if (reader.u8() != detail::kTreeMagic) {
    throw ParseError("KeyTree: bad magic");
  }
  if (reader.u8() != detail::kTreeVersion) {
    throw ParseError("KeyTree: bad version");
  }
  const int degree = static_cast<int>(reader.u32());
  const std::size_t key_size = reader.u64();
  if (degree < 2 || key_size == 0 || key_size > 1024) {
    throw ParseError("KeyTree: implausible parameters");
  }
  auto tree = std::make_unique<KeyTree>(degree, key_size, rng);
  detail::TreeStore& store = tree->store_;
  store = detail::TreeStore{};
  store.degree = degree;
  store.key_size = key_size;
  const KeyId stored_next_id = reader.u64();

  const std::uint64_t node_count = reader.u64();
  if (node_count == 0 || node_count > data.size()) {
    throw ParseError("KeyTree: implausible node count");
  }

  // Recursive-descent over the pre-order stream, iteratively: a stack of
  // (parent, remaining-children, last linked child) frames.
  struct Frame {
    NodeIndex parent;
    std::uint16_t remaining;
    NodeIndex last_child;
  };
  std::vector<Frame> frames;
  std::uint64_t read_nodes = 0;
  KeyId max_internal_id = 0;
  while (read_nodes < node_count) {
    const KeyId id = reader.u64();
    if (id == 0) throw ParseError("KeyTree: zero node id");
    if (store.find(id) != kNil) {
      throw ParseError("KeyTree: duplicate node id");
    }
    const NodeIndex index = tree->make_node(id);
    ++read_nodes;
    const KeyVersion version = reader.u32();
    Bytes secret = reader.var_bytes();
    if (secret.size() != key_size) {
      throw ParseError("KeyTree: key size mismatch");
    }
    std::memcpy(tree->mut_secret(index), secret.data(), key_size);
    secure_wipe(secret);
    tree->mut(index).version = version;
    const bool leaf = reader.u8() != 0;
    if (leaf) {
      const UserId user = reader.u64();
      Slot& node = tree->mut(index);
      node.leaf = true;
      node.user = user;
      if (id != individual_key_id(user)) {
        throw ParseError("KeyTree: leaf id mismatch");
      }
    } else if ((id >> 63) != 0) {
      // The top bit is the individual-key namespace; an internal k-node
      // there would shadow a user's leaf in the id index.
      throw ParseError("KeyTree: implausible internal id");
    } else {
      max_internal_id = std::max(max_internal_id, id);
    }
    const std::uint16_t children = reader.u16();
    if (leaf && children != 0) {
      throw ParseError("KeyTree: leaf with children");
    }

    if (frames.empty()) {
      if (store.root != kNil) {
        throw ParseError("KeyTree: multiple roots");
      }
      store.root = index;
    } else {
      Frame& top = frames.back();
      if (top.last_child == kNil) {
        tree->mut(top.parent).first_child = index;
      } else {
        tree->mut(top.last_child).next_sibling = index;
      }
      ++tree->mut(top.parent).child_count;
      tree->mut(index).parent = top.parent;
      top.last_child = index;
      if (--top.remaining == 0) frames.pop_back();
    }
    if (children > 0) frames.push_back(Frame{index, children, kNil});
  }
  reader.expect_done();
  if (!frames.empty() || store.root == kNil) {
    throw ParseError("KeyTree: truncated structure");
  }

  // Slots were handed out in preorder, so walking them backwards visits
  // every child before its parent: accumulate user counts and heights
  // upward, then let the invariant checker vet everything else (arity,
  // links, leaf indexing).
  for (NodeIndex i = store.slot_count; i-- > 0;) {
    if (tree->at(i).leaf) tree->mut(i).user_count = 1;
    const Slot node = tree->at(i);
    if (node.parent == kNil) continue;
    Slot& parent = tree->mut(node.parent);
    parent.user_count += node.user_count;
    parent.height = std::max(parent.height, node.height + 1);
  }
  try {
    tree->check_invariants();
  } catch (const Error& error) {
    throw ParseError(std::string("KeyTree: invalid snapshot: ") +
                     error.what());
  }
  if (stored_next_id <= max_internal_id) {
    throw ParseError("KeyTree: id counter behind live ids");
  }
  // make_node's default-id argument is evaluated even for fixed-id nodes,
  // so parsing advanced the counter by node_count. Restore the serialized
  // value: a replica must keep allocating from the primary's counter, and
  // serialize -> deserialize -> serialize must round-trip byte-identically.
  store.next_id = stored_next_id;
  tree->publish(0);
  return tree;
}

void KeyTree::check_invariants() const {
  if (store_.slot_count > store_.slots.capacity()) {
    throw Error("invariant: slot count beyond the pages");
  }
  for (const char* problem : {store_.slots.audit(store_.key_size, edit_),
                              store_.index.audit(0, edit_)}) {
    if (problem != nullptr) throw Error(std::string("invariant: ") + problem);
  }
  // Structure: a walk from the root must reach every live slot exactly once.
  std::vector<bool> seen(store_.slot_count, false);
  std::size_t nodes_seen = 0;
  std::vector<NodeIndex> stack{store_.root};
  if (store_.root >= store_.slot_count || at(store_.root).parent != kNil) {
    throw Error("invariant: root slot broken");
  }
  while (!stack.empty()) {
    const NodeIndex index = stack.back();
    stack.pop_back();
    if (seen[index]) throw Error("invariant: slot reachable twice");
    seen[index] = true;
    ++nodes_seen;
    const Slot node = at(index);
    if (!node.live) {
      throw Error("invariant: reachable node not marked live");
    }
    if (static_cast<std::int64_t>(node.child_count) > store_.degree) {
      throw Error("invariant: node arity exceeds degree");
    }
    if (store_.find(node.id) != index) {
      throw Error("invariant: id index does not map the node");
    }
    if (node.leaf) {
      if (node.first_child != kNil || node.child_count != 0) {
        throw Error("invariant: leaf with children");
      }
      if (node.user_count != 1 || node.height != 0) {
        throw Error("invariant: leaf user_count != 1");
      }
      if (node.id != individual_key_id(node.user)) {
        throw Error("invariant: leaf not indexed by user");
      }
      continue;
    }
    std::size_t children = 0;
    std::size_t users = 0;
    std::uint32_t height = 0;
    for (NodeIndex c = node.first_child; c != kNil; c = at(c).next_sibling) {
      if (c >= store_.slot_count || ++children > node.child_count) {
        throw Error("invariant: child list longer than child_count");
      }
      if (at(c).parent != index) {
        throw Error("invariant: child/parent link broken");
      }
      users += at(c).user_count;
      height = std::max(height, at(c).height + 1);
      stack.push_back(c);
    }
    if (children != node.child_count) {
      throw Error("invariant: child list shorter than child_count");
    }
    if (users != node.user_count) {
      throw Error("invariant: user_count mismatch");
    }
    if (height != node.height) {
      throw Error("invariant: subtree height mismatch");
    }
    if (node.parent != kNil && children < 2) {
      throw Error("invariant: non-root internal node with < 2 children");
    }
  }
  if (nodes_seen != store_.live) {
    throw Error("invariant: orphan k-nodes present");
  }
  // Arena accounting: every slot is live or on the free list, never both.
  std::size_t free_seen = 0;
  for (NodeIndex i = store_.free_head; i != kNil; i = at(i).next_sibling) {
    if (i >= store_.slot_count || seen[i]) {
      throw Error("invariant: free list reaches a live or repeated slot");
    }
    seen[i] = true;
    ++free_seen;
    if (at(i).live) throw Error("invariant: free slot marked live");
  }
  if (store_.live + free_seen != store_.slot_count) {
    throw Error("invariant: arena slot accounting broken");
  }
  // The id index maps exactly the live slots.
  std::size_t indexed = 0;
  for (std::uint32_t b = 0; b < store_.index.capacity(); ++b) {
    const detail::IndexEntry& entry = store_.index[b];
    if (entry.id == 0) continue;
    ++indexed;
    if (entry.slot >= store_.slot_count || !at(entry.slot).live ||
        at(entry.slot).id != entry.id || store_.find(entry.id) != entry.slot) {
      throw Error("invariant: id index entry broken");
    }
  }
  if (indexed != store_.live) {
    throw Error("invariant: id index size mismatch");
  }
}

}  // namespace keygraphs
