#include "keygraph/tree_view.h"

#include <algorithm>

#include "common/error.h"
#include "common/io.h"

namespace keygraphs {

namespace detail {
namespace {

/// splitmix64's finalizer: a bijection on 64-bit values, so distinct ids
/// never share a full hash and the sequential internal ids spread evenly.
std::uint64_t mix(KeyId id) {
  std::uint64_t x = id;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Puts `entry` in the first free bucket of its probe run.
void place(CowPages<IndexEntry>& index, const IndexEntry& entry,
           std::uint64_t edit) {
  const std::size_t mask = index.capacity() - 1;
  std::size_t b = mix(entry.id) & mask;
  while (index[static_cast<std::uint32_t>(b)].id != 0) b = (b + 1) & mask;
  index.mut(static_cast<std::uint32_t>(b), edit) = entry;
}

}  // namespace

SymmetricKey TreeStore::key(std::uint32_t i) const {
  const BytesView bytes = secret(i);
  return SymmetricKey{slots[i].id, slots[i].version,
                      Bytes(bytes.begin(), bytes.end())};
}

std::uint32_t TreeStore::find(KeyId id) const {
  if (id == 0 || index.capacity() == 0) return kNilSlot;
  const std::size_t mask = index.capacity() - 1;
  for (std::size_t b = mix(id) & mask;; b = (b + 1) & mask) {
    const IndexEntry& entry = index[static_cast<std::uint32_t>(b)];
    if (entry.id == id) return entry.slot;
    if (entry.id == 0) return kNilSlot;
  }
}

std::uint32_t TreeStore::find_leaf(UserId user) const {
  // individual_key_id drops the user's top bit, so check the user itself.
  const std::uint32_t i = find(individual_key_id(user));
  if (i == kNilSlot || !slots[i].leaf || slots[i].user != user) {
    return kNilSlot;
  }
  return i;
}

std::vector<UserId> TreeStore::users_under(std::uint32_t top) const {
  std::vector<UserId> out;
  out.reserve(slots[top].user_count);
  if (top == root) {
    // Every live leaf is under the root: scan the pages in order.
    slots.scan(slot_count, [&out](const TreeSlot& node) {
      if (node.live && node.leaf) out.push_back(node.user);
    });
    std::sort(out.begin(), out.end());
    return out;
  }
  if (slots[top].leaf) {
    out.push_back(slots[top].user);
    return out;
  }
  // The output is sorted anyway, so visit in any order: each slot is read
  // once, as its parent's child, and only internal nodes are stacked.
  std::vector<std::uint32_t> stack{top};
  while (!stack.empty()) {
    const std::uint32_t parent = stack.back();
    stack.pop_back();
    for (std::uint32_t c = slots[parent].first_child; c != kNilSlot;) {
      const TreeSlot& child = slots[c];
      if (child.leaf) {
        out.push_back(child.user);
      } else {
        stack.push_back(c);
      }
      c = child.next_sibling;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TreeStore::index_insert(KeyId id, std::uint32_t slot,
                             std::uint64_t edit) {
  // Keep the load at most 3/4 so probe runs stay short. Growing rebuilds
  // the table in fresh pages; views keep the old ones.
  if ((live + 1) * 4 > index.capacity() * 3) {
    CowPages<IndexEntry> old;
    std::swap(index, old);
    const std::size_t pages = std::max<std::size_t>(
        1, 2 * old.capacity() / CowPages<IndexEntry>::kPageItems);
    for (std::size_t p = 0; p < pages; ++p) index.add_page(0, edit);
    for (std::uint32_t b = 0; b < old.capacity(); ++b) {
      if (old[b].id != 0) place(index, old[b], edit);
    }
  }
  place(index, IndexEntry{id, slot}, edit);
}

void TreeStore::index_erase(KeyId id, std::uint64_t edit) {
  const std::size_t mask = index.capacity() - 1;
  std::size_t hole = mix(id) & mask;
  while (index[static_cast<std::uint32_t>(hole)].id != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home bucket lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const IndexEntry entry = index[static_cast<std::uint32_t>(j)];
    if (entry.id == 0) break;
    const std::size_t home = mix(entry.id) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index.mut(static_cast<std::uint32_t>(hole), edit) = entry;
      hole = j;
    }
  }
  index.mut(static_cast<std::uint32_t>(hole), edit) = IndexEntry{};
}

}  // namespace detail

using detail::kNilSlot;
using detail::TreeSlot;

bool TreeView::has_user(UserId user) const {
  return store_.find_leaf(user) != kNilSlot;
}

SymmetricKey TreeView::group_key() const { return store_.key(store_.root); }

std::vector<UserId> TreeView::users_under(KeyId node) const {
  const std::uint32_t index = store_.find(node);
  if (index == kNilSlot) throw ProtocolError("KeyTree: no such k-node");
  return store_.users_under(index);
}

std::vector<SymmetricKey> TreeView::keyset(UserId user) const {
  const std::uint32_t leaf = store_.find_leaf(user);
  if (leaf == kNilSlot) throw ProtocolError("KeyTree: user not in group");
  std::vector<SymmetricKey> out;
  for (std::uint32_t i = leaf; i != kNilSlot; i = store_.at(i).parent) {
    out.push_back(store_.key(i));
  }
  return out;
}

bool TreeView::user_holds(UserId user, KeyId key) const {
  const std::uint32_t leaf = store_.find_leaf(user);
  if (leaf == kNilSlot) return false;
  for (std::uint32_t i = leaf; i != kNilSlot; i = store_.at(i).parent) {
    if (store_.at(i).id == key) return true;
  }
  return false;
}

std::vector<UserId> TreeView::users() const {
  return store_.users_under(store_.root);
}

Bytes TreeView::serialize() const {
  ByteWriter writer;
  writer.u8(detail::kTreeMagic);
  writer.u8(detail::kTreeVersion);
  writer.u32(static_cast<std::uint32_t>(store_.degree));
  writer.u64(store_.key_size);
  writer.u64(store_.next_id);
  writer.u64(store_.live);
  store_.preorder(store_.root, [&](std::uint32_t i, const TreeSlot& node) {
    writer.u64(node.id);
    writer.u32(node.version);
    writer.var_bytes(store_.secret(i));
    writer.u8(node.leaf ? 1 : 0);
    if (node.leaf) writer.u64(node.user);
    writer.u16(static_cast<std::uint16_t>(node.child_count));
  });
  return writer.take();
}

std::vector<UserId> TreeView::resolve_subgroup(
    KeyId include, std::optional<KeyId> exclude) const {
  const std::uint32_t inc = store_.find(include);
  if (inc == kNilSlot) return {};  // vanished in the same operation
  std::vector<UserId> included = store_.users_under(inc);
  if (!exclude.has_value()) return included;
  const std::uint32_t exc = store_.find(*exclude);
  if (exc == kNilSlot) return included;
  const std::vector<UserId> excluded = store_.users_under(exc);
  std::vector<UserId> out;
  std::set_difference(included.begin(), included.end(), excluded.begin(),
                      excluded.end(), std::back_inserter(out));
  return out;
}

BytesView TreeView::find_secret(const KeyRef& ref) const {
  const std::uint32_t index = store_.find(ref.id);
  if (index == kNilSlot || store_.at(index).version != ref.version) return {};
  return store_.secret(index);
}

KeyGraph TreeView::to_key_graph() const {
  KeyGraph graph;
  // Preorder adds every parent's k-node before its children link to it.
  store_.preorder(store_.root, [&](std::uint32_t, const TreeSlot& node) {
    graph.add_key(node.id);
    if (node.parent != kNilSlot) {
      graph.add_key_edge(node.id, store_.at(node.parent).id);
    }
    if (node.leaf) {
      graph.add_user(node.user);
      graph.add_user_edge(node.user, node.id);
    }
  });
  return graph;
}

}  // namespace keygraphs
