// Immutable per-epoch snapshots of the key tree (the RCU read path).
//
// The key tree keeps its k-nodes in copy-on-write pages (detail::TreeStore
// below): fixed-size pages of plain slots, each page with a pool holding its
// slots' key material, reached through a two-level page table. A TreeView
// is a copy of that store, which copies only the top level of the page
// table and shares every page with the live tree and with older views. The
// writer never modifies a page a view can see: before its first write to a
// page after a publish it clones the page, so a view never changes
// underneath a reader, and the key material it references stays alive (and
// is wiped with its page) until the last view and the tree let go of it.
//
// Layout notes:
//   - a slot stores its children as first-child/next-sibling indices in
//     insertion order, which is the order serialize() emits them;
//   - one KeyId -> slot index, an open-addressing table in the same kind of
//     pages, resolves internal ids and (through individual_key_id) users;
//   - each slot keeps its subtree's user count and height, so user_count()
//     and height() read the root slot.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "keygraph/key.h"
#include "keygraph/key_graph.h"

namespace keygraphs {

class KeyTree;

namespace detail {
/// Key-tree snapshot wire constants, shared by TreeView::serialize() and
/// KeyTree::deserialize().
inline constexpr std::uint8_t kTreeMagic = 0x4b;  // 'K'
inline constexpr std::uint8_t kTreeVersion = 1;

inline constexpr std::uint32_t kNilSlot = 0xffffffffu;

/// One k-node. Plain data, so cloning a page is one copy.
struct TreeSlot {
  KeyId id = 0;
  UserId user = 0;  // meaningful iff leaf
  KeyVersion version = 0;
  std::uint32_t parent = kNilSlot;
  std::uint32_t first_child = kNilSlot;
  std::uint32_t next_sibling = kNilSlot;  // free slots chain through this
  std::uint32_t child_count = 0;
  std::uint32_t user_count = 0;  // users in this subtree
  std::uint32_t height = 0;      // edges down to the deepest leaf
  bool leaf = false;
  bool live = false;
};

/// One id-index bucket; id 0 (never a k-node id) marks an empty bucket.
struct IndexEntry {
  KeyId id = 0;
  std::uint32_t slot = kNilSlot;
};

/// A persistent array of T in fixed-size copy-on-write pages. Each page
/// also carries a byte pool of `stride` bytes per item, wiped when the page
/// is freed. Copying the array copies only the chunk table (one pointer per
/// kPageItems pages); the pages and chunks themselves are shared.
///
/// Ownership is decided by edit stamps, never by reference counts: the
/// writer stamps every page and chunk it creates or clones with its current
/// edit, and bumps the edit when it publishes a copy. A page whose stamp
/// equals the current edit is reachable only from the writer; any other
/// page is cloned before its first write.
template <typename T>
class CowPages {
 public:
  static constexpr unsigned kPageBits = 6;
  static constexpr std::size_t kPageItems = std::size_t{1} << kPageBits;

  /// Addressable items: the number of pages times kPageItems.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return pages_ << kPageBits;
  }

  [[nodiscard]] const T& operator[](std::uint32_t i) const {
    return page(i).items[i & kMask];
  }
  [[nodiscard]] const std::uint8_t* pool(std::uint32_t i,
                                         std::size_t stride) const {
    return page(i).pool.data() + (i & kMask) * stride;
  }

  /// Calls visit(item) for items [0, count) in index order, one page
  /// lookup per page rather than per item.
  template <typename Visit>
  void scan(std::size_t count, Visit&& visit) const {
    for (std::size_t first = 0; first < count; first += kPageItems) {
      const Page& current = page(static_cast<std::uint32_t>(first));
      const std::size_t end = std::min(kPageItems, count - first);
      for (std::size_t i = 0; i < end; ++i) visit(current.items[i]);
    }
  }

  // --- Writer side: `edit` is the writer's current edit stamp. Only the
  // writer calls these, on its own array; views hold copies and only read.

  [[nodiscard]] T& mut(std::uint32_t i, std::uint64_t edit) {
    return own(i, edit).items[i & kMask];
  }
  [[nodiscard]] std::uint8_t* mut_pool(std::uint32_t i, std::size_t stride,
                                       std::uint64_t edit) {
    return own(i, edit).pool.data() + (i & kMask) * stride;
  }

  /// Appends one page of default items with a zeroed pool.
  void add_page(std::size_t stride, std::uint64_t edit) {
    if ((pages_ & kMask) == 0) {
      chunks_.push_back(std::make_shared<Chunk>());
      chunks_.back()->stamp = edit;
    }
    std::shared_ptr<Chunk>& chunk = chunks_.back();
    if (chunk->stamp != edit) chunk = clone(*chunk, edit);
    auto fresh = std::make_shared<Page>();
    fresh->stamp = edit;
    fresh->pool.assign(kPageItems * stride, 0);
    chunk->pages[pages_ & kMask] = std::move(fresh);
    ++pages_;
  }

  /// Stamp consistency: nothing is stamped after `edit`, a page the writer
  /// owns sits in a chunk it owns, every page exists and has a full pool.
  /// Returns a description of the first violation, or nullptr.
  [[nodiscard]] const char* audit(std::size_t stride,
                                  std::uint64_t edit) const {
    if (chunks_.size() != (pages_ + kMask) >> kPageBits) {
      return "page table size mismatch";
    }
    for (std::size_t p = 0; p < pages_; ++p) {
      const Chunk& chunk = *chunks_[p >> kPageBits];
      const Page* page = chunk.pages[p & kMask].get();
      if (page == nullptr) return "missing page";
      if (chunk.stamp > edit || page->stamp > edit) {
        return "page stamped after the current edit";
      }
      if (page->stamp == edit && chunk.stamp != edit) {
        return "owned page in a shared chunk";
      }
      if (page->pool.size() != kPageItems * stride) {
        return "page pool size mismatch";
      }
    }
    return nullptr;
  }

 private:
  static constexpr std::size_t kMask = kPageItems - 1;

  struct Page {
    Page() = default;
    Page(const Page&) = default;
    Page& operator=(const Page&) = delete;
    ~Page() { secure_wipe(pool); }

    std::uint64_t stamp = 0;
    std::array<T, kPageItems> items{};
    Bytes pool;
  };
  struct Chunk {
    std::uint64_t stamp = 0;
    std::array<std::shared_ptr<Page>, kPageItems> pages;
  };

  template <typename Node>
  static std::shared_ptr<Node> clone(const Node& node, std::uint64_t edit) {
    auto copy = std::make_shared<Node>(node);
    copy->stamp = edit;
    return copy;
  }

  [[nodiscard]] const Page& page(std::uint32_t i) const {
    return *chunks_[i >> (2 * kPageBits)]->pages[(i >> kPageBits) & kMask];
  }
  Page& own(std::uint32_t i, std::uint64_t edit) {
    std::shared_ptr<Chunk>& chunk = chunks_[i >> (2 * kPageBits)];
    if (chunk->stamp != edit) chunk = clone(*chunk, edit);
    std::shared_ptr<Page>& page = chunk->pages[(i >> kPageBits) & kMask];
    if (page->stamp != edit) page = clone(*page, edit);
    return *page;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t pages_ = 0;
};

/// All state of one key-tree epoch: slots with their key material, the id
/// index, and the scalars around them. The live tree owns one; each view
/// holds a copy that shares every page.
struct TreeStore {
  CowPages<TreeSlot> slots;  // pool: key_size bytes of key material per slot
  CowPages<IndexEntry> index;  // power-of-two buckets, linear probing
  std::uint32_t root = kNilSlot;
  std::uint32_t free_head = kNilSlot;
  std::uint32_t slot_count = 0;  // slots handed out so far (live or free)
  std::size_t live = 0;          // live slots == index entries
  int degree = 0;
  std::size_t key_size = 0;
  KeyId next_id = 0;  // serialized alongside the structure

  [[nodiscard]] const TreeSlot& at(std::uint32_t i) const { return slots[i]; }
  [[nodiscard]] BytesView secret(std::uint32_t i) const {
    return BytesView{slots.pool(i, key_size), key_size};
  }
  [[nodiscard]] SymmetricKey key(std::uint32_t i) const;
  /// Slot of k-node `id`, or kNilSlot.
  [[nodiscard]] std::uint32_t find(KeyId id) const;
  /// Slot of the user's leaf, or kNilSlot.
  [[nodiscard]] std::uint32_t find_leaf(UserId user) const;
  /// Leaves under `top`, ascending user ids.
  [[nodiscard]] std::vector<UserId> users_under(std::uint32_t top) const;

  /// Calls visit(index, slot) for `top` and every descendant in preorder,
  /// children in insertion order.
  template <typename Visit>
  void preorder(std::uint32_t top, Visit&& visit) const {
    std::uint32_t i = top;
    const TreeSlot* node = &slots[i];
    for (;;) {
      visit(i, *node);
      if (node->first_child != kNilSlot) {
        i = node->first_child;
      } else {
        while (i != top && node->next_sibling == kNilSlot) {
          i = node->parent;
          node = &slots[i];
        }
        if (i == top) return;
        i = node->next_sibling;
      }
      node = &slots[i];
    }
  }

  // --- Writer side (see CowPages) ---------------------------------------
  /// Maps `id` (not yet indexed) to `slot`, growing the table as needed.
  void index_insert(KeyId id, std::uint32_t slot, std::uint64_t edit);
  /// Removes `id` (which must be indexed).
  void index_erase(KeyId id, std::uint64_t edit);
};
}  // namespace detail

class TreeView {
 public:
  TreeView(const TreeView&) = delete;
  TreeView& operator=(const TreeView&) = delete;

  // --- Whole-tree facts --------------------------------------------------
  [[nodiscard]] std::size_t key_count() const noexcept { return store_.live; }
  [[nodiscard]] std::size_t user_count() const noexcept {
    return store_.at(store_.root).user_count;
  }
  [[nodiscard]] std::size_t height() const noexcept {
    return store_.at(store_.root).height;
  }
  [[nodiscard]] int degree() const noexcept { return store_.degree; }
  [[nodiscard]] std::size_t key_size() const noexcept {
    return store_.key_size;
  }
  [[nodiscard]] KeyId root_id() const noexcept {
    return store_.at(store_.root).id;
  }
  /// The epoch label this view was published under: the tree's mutation
  /// count, not the key server's group epoch (its root layer keeps that).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- Read API (mirrors KeyTree) ----------------------------------------
  [[nodiscard]] bool has_user(UserId user) const;
  [[nodiscard]] SymmetricKey group_key() const;
  /// userset(k), ascending. Throws ProtocolError for an unknown k-node.
  [[nodiscard]] std::vector<UserId> users_under(KeyId node) const;
  /// keyset(u), leaf to root. Throws ProtocolError for a non-member.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;
  /// True when `key` is on u's path (u holds that k-node); false for
  /// non-members. O(height), no key material touched — the retransmit
  /// window's recipient test.
  [[nodiscard]] bool user_holds(UserId user, KeyId key) const;
  /// All users, ascending.
  [[nodiscard]] std::vector<UserId> users() const;
  /// Byte-identical to the historical KeyTree::serialize() encoding.
  [[nodiscard]] Bytes serialize() const;

  /// userset(include) - userset(exclude). Unknown k-nodes degrade the way
  /// the dispatch path always has: unknown include -> empty, unknown
  /// exclude -> no exclusion (the node vanished in the same operation).
  [[nodiscard]] std::vector<UserId> resolve_subgroup(
      KeyId include, std::optional<KeyId> exclude) const;

  /// The secret of one exact key generation, or an empty (null-data) view
  /// when this snapshot does not hold (id, version). Used by
  /// rekey::KeySnapshot to resolve current-generation keys without copying.
  [[nodiscard]] BytesView find_secret(const KeyRef& ref) const;

  /// Exports this snapshot as a general key graph (Section 2.1 form) for
  /// the key-covering machinery: one u-node per user, one k-node per
  /// k-node, edges leaf-parent upward.
  [[nodiscard]] KeyGraph to_key_graph() const;

 private:
  friend class KeyTree;
  TreeView() = default;

  detail::TreeStore store_;
  std::uint64_t epoch_ = 0;
};

using TreeViewPtr = std::shared_ptr<const TreeView>;

}  // namespace keygraphs
