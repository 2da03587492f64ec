// Randomized churn property test for the copy-on-write KeyTree: ~10k seeded
// mixed join/leave/batch operations per degree, asserting at checkpoints
// that (a) the structural, index, free-list and page-stamp invariants hold,
// (b) serialize -> deserialize round-trips to identical bytes, and (c)
// membership matches a reference model. The mix is tuned so joins regularly
// split full leaves, leaves regularly splice out single-child parents, and
// batches both empty whole subtrees and regrow them.
//
// Every checkpoint also pins the published view with its serialized bytes.
// Later churn frees and reuses those views' slots and splits or splices
// their nodes, so at the end each pinned view must still serialize to its
// captured bytes and answer every read exactly like a tree deserialized
// from them. A reader thread re-serializes the pinned views while the
// writer churns (the TSan job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/error.h"
#include "keygraph/key_tree.h"

namespace keygraphs {
namespace {

Bytes ik(UserId user) {
  Bytes key(8, 0);
  for (int i = 0; i < 8; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(user >> (8 * i));
  return key;
}

UserId pick_member(const std::set<UserId>& members, std::mt19937_64& gen) {
  std::uniform_int_distribution<std::size_t> dist(0, members.size() - 1);
  auto it = members.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(dist(gen)));
  return *it;
}

void expect_same_keys(const std::vector<SymmetricKey>& got,
                      const std::vector<SymmetricKey>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, expect[i].id);
    ASSERT_EQ(got[i].version, expect[i].version);
    ASSERT_EQ(got[i].secret, expect[i].secret);
  }
}

void checkpoint(const KeyTree& tree, const std::set<UserId>& model) {
  tree.check_invariants();  // structure, id index, free list, page stamps
  const std::vector<UserId> users = tree.users();
  ASSERT_EQ(users.size(), model.size());
  ASSERT_TRUE(std::equal(users.begin(), users.end(), model.begin()));
  const Bytes bytes = tree.serialize();
  crypto::SecureRandom restore_rng(99);
  const auto restored = KeyTree::deserialize(bytes, restore_rng);
  restored->check_invariants();
  ASSERT_EQ(restored->serialize(), bytes);
  ASSERT_EQ(restored->users(), users);
  if (!users.empty()) {
    const UserId probe = users[users.size() / 2];
    expect_same_keys(restored->keyset(probe), tree.keyset(probe));
  }
}

/// Every read a view offers, on a pinned view vs a tree deserialized from
/// the bytes captured when the view was pinned.
void expect_view_matches_bytes(const TreeView& view, const Bytes& bytes) {
  ASSERT_EQ(view.serialize(), bytes);
  crypto::SecureRandom restore_rng(7);
  const auto restored = KeyTree::deserialize(bytes, restore_rng);
  const TreeViewPtr fresh = restored->view();
  ASSERT_EQ(view.height(), fresh->height());
  ASSERT_EQ(view.key_count(), fresh->key_count());
  ASSERT_EQ(view.user_count(), fresh->user_count());
  ASSERT_EQ(view.root_id(), fresh->root_id());
  const std::vector<UserId> users = fresh->users();
  ASSERT_EQ(view.users(), users);

  std::set<KeyId> knodes{fresh->root_id()};
  for (UserId u : users) {
    const std::vector<SymmetricKey> keys = fresh->keyset(u);
    expect_same_keys(view.keyset(u), keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      knodes.insert(keys[i].id);
      ASSERT_TRUE(view.user_holds(u, keys[i].id));
      const BytesView secret = view.find_secret(keys[i].ref());
      ASSERT_EQ(Bytes(secret.begin(), secret.end()), keys[i].secret);
      ASSERT_TRUE(
          view.find_secret(KeyRef{keys[i].id, keys[i].version + 1}).empty());
      // Each path edge as an (include, exclude) pair, the shape group-
      // oriented leave messages address.
      if (i + 1 < keys.size()) {
        ASSERT_EQ(view.resolve_subgroup(keys[i + 1].id, keys[i].id),
                  fresh->resolve_subgroup(keys[i + 1].id, keys[i].id));
      }
    }
    ASSERT_EQ(view.user_holds(u, individual_key_id(u + 1)),
              fresh->user_holds(u, individual_key_id(u + 1)));
  }
  for (KeyId id : knodes) {
    ASSERT_EQ(view.users_under(id), fresh->users_under(id));
    ASSERT_EQ(view.resolve_subgroup(id, std::nullopt),
              fresh->resolve_subgroup(id, std::nullopt));
  }
  ASSERT_FALSE(view.has_user(0xfeedfacecafe));
  ASSERT_FALSE(view.user_holds(0xfeedfacecafe, fresh->root_id()));
}

struct Pin {
  TreeViewPtr view;
  Bytes bytes;
};

class TreeChurnByDegree : public ::testing::TestWithParam<int> {};

TEST_P(TreeChurnByDegree, TenThousandMixedOpsHoldInvariants) {
  crypto::SecureRandom rng(271828);
  KeyTree tree(GetParam(), 8, rng);
  std::mt19937_64 gen(31337);
  std::set<UserId> members;
  UserId next_user = 1;
  std::size_t ops = 0;

  std::mutex pins_mutex;
  std::vector<Pin> pins;  // guarded by pins_mutex while the reader runs
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reader_checks{0};
  std::thread reader([&] {
    std::size_t next = 0;
    while (!done.load(std::memory_order_acquire)) {
      Pin pin;
      {
        const std::lock_guard lock(pins_mutex);
        if (!pins.empty()) pin = pins[next++ % pins.size()];
      }
      if (!pin.view) {
        std::this_thread::yield();
        continue;
      }
      if (pin.view->serialize() != pin.bytes ||
          pin.view->users_under(pin.view->root_id()) != pin.view->users()) {
        ADD_FAILURE() << "pinned view changed while the writer churned";
        return;
      }
      for (UserId u : pin.view->users()) (void)pin.view->keyset(u);
      reader_checks.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto join_fresh = [&] {
    const UserId u = next_user++;
    tree.join(u, ik(u));
    members.insert(u);
  };

  while (ops < 10000) {
    const std::uint64_t pick = gen() % 100;
    // Bias toward joins when small, toward leaves when large, so the tree
    // repeatedly grows through leaf-split territory and shrinks back
    // through splice-outs without drifting unbounded.
    const bool prefer_leave = members.size() > 256;
    if (members.empty() || (!prefer_leave && pick < 50) ||
        (prefer_leave && pick < 20)) {
      join_fresh();
    } else if (pick < 85) {
      const UserId u = pick_member(members, gen);
      tree.leave(u);
      members.erase(u);
    } else {
      // Batch: up to 5 fresh joins plus up to 5 distinct leaves.
      std::vector<std::pair<UserId, Bytes>> joins;
      const std::uint64_t n_joins = gen() % 6;
      for (std::uint64_t i = 0; i < n_joins; ++i) {
        const UserId u = next_user++;
        joins.emplace_back(u, ik(u));
      }
      std::vector<UserId> leaves;
      const std::uint64_t n_leaves =
          std::min<std::uint64_t>(gen() % 6, members.size());
      std::set<UserId> chosen;
      while (chosen.size() < n_leaves) chosen.insert(pick_member(members, gen));
      leaves.assign(chosen.begin(), chosen.end());
      if (joins.empty() && leaves.empty()) continue;
      tree.batch_update(joins, leaves);
      for (const auto& [u, key] : joins) members.insert(u);
      for (UserId u : leaves) members.erase(u);
    }
    ++ops;
    if (ops % 500 == 0) {
      checkpoint(tree, members);
      if (HasFatalFailure()) break;
      const std::lock_guard lock(pins_mutex);
      pins.push_back(Pin{tree.view(), tree.serialize()});
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  if (HasFatalFailure()) return;
  checkpoint(tree, members);
  EXPECT_GT(reader_checks.load(), 0u);

  // Every pin but the last saw later churn take members away (their leaf
  // slots were freed, and later joins drew from the free list) and either
  // remove one of its k-nodes (splice-out, emptied subtree) or split a
  // surviving member's leaf (the member gets a parent the pin never had).
  std::size_t removal_pins = 0;
  std::size_t split_pins = 0;
  for (std::size_t p = 0; p + 1 < pins.size(); ++p) {
    const TreeView& then = *pins[p].view;
    std::set<KeyId> then_nodes{then.root_id()};
    for (UserId u : then.users()) {
      for (const SymmetricKey& key : then.keyset(u)) then_nodes.insert(key.id);
    }
    bool departed = false, removed = false, split = false;
    for (std::size_t q = p + 1; q < pins.size(); ++q) {
      const TreeView& later = *pins[q].view;
      for (UserId u : then.users()) {
        if (!later.has_user(u)) {
          departed = true;
        } else if (const auto keys = later.keyset(u);
                   keys.size() > 1 && !then_nodes.contains(keys[1].id)) {
          split = true;
        }
      }
      for (KeyId id : then_nodes) {
        if (removed) break;
        try {
          (void)later.users_under(id);
        } catch (const ProtocolError&) {
          removed = true;
        }
      }
    }
    EXPECT_TRUE(departed) << "pin " << p;
    EXPECT_TRUE(removed || split) << "pin " << p;
    removal_pins += removed ? 1 : 0;
    split_pins += split ? 1 : 0;
  }
  EXPECT_GT(removal_pins, 0u);
  EXPECT_GT(split_pins, 0u);

  for (const Pin& pin : pins) {
    expect_view_matches_bytes(*pin.view, pin.bytes);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, TreeChurnByDegree,
                         ::testing::Values(2, 3, 4, 16));

TEST(TreeChurn, BatchEmptiesTheTreeAndRegrowsIt) {
  crypto::SecureRandom rng(161803);
  KeyTree tree(4, 8, rng);
  std::set<UserId> members;
  for (UserId u = 1; u <= 21; ++u) {
    tree.join(u, ik(u));
    members.insert(u);
  }
  checkpoint(tree, members);

  // One batch removes every member: the tree collapses to a bare root.
  tree.batch_update({}, std::vector<UserId>(members.begin(), members.end()));
  members.clear();
  EXPECT_EQ(tree.user_count(), 0u);
  EXPECT_EQ(tree.key_count(), 1u);
  EXPECT_EQ(tree.height(), 0u);
  checkpoint(tree, members);

  // Regrow from empty through batches; arena slots are recycled.
  for (UserId base : {100u, 200u, 300u}) {
    std::vector<std::pair<UserId, Bytes>> joins;
    for (UserId u = base; u < base + 9; ++u) joins.emplace_back(u, ik(u));
    tree.batch_update(joins, {});
    for (const auto& [u, key] : joins) members.insert(u);
    checkpoint(tree, members);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(tree.user_count(), 27u);

  // And a mixed batch that swaps half the membership in one pass.
  std::vector<UserId> leaves;
  for (UserId u : members) {
    if (u % 2 == 0) leaves.push_back(u);
  }
  std::vector<std::pair<UserId, Bytes>> joins;
  for (UserId u = 400; u < 400 + 5; ++u) joins.emplace_back(u, ik(u));
  tree.batch_update(joins, leaves);
  for (UserId u : leaves) members.erase(u);
  for (const auto& [u, key] : joins) members.insert(u);
  checkpoint(tree, members);
}

TEST(TreeChurn, LeaveToEmptyAndSingleUserCycles) {
  crypto::SecureRandom rng(577215);
  KeyTree tree(3, 8, rng);
  std::set<UserId> members;
  // Repeatedly drain to empty one leave at a time (exercising the final
  // splice paths), then refill; ids keep growing, slots keep recycling.
  UserId next = 1;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (int i = 0; i < 7; ++i) {
      const UserId u = next++;
      tree.join(u, ik(u));
      members.insert(u);
    }
    checkpoint(tree, members);
    if (HasFatalFailure()) return;
    while (!members.empty()) {
      const UserId u = *members.begin();
      tree.leave(u);
      members.erase(u);
    }
    EXPECT_EQ(tree.user_count(), 0u);
    checkpoint(tree, members);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace keygraphs
