// KeyTree: the paper's Section 3.3/3.4 structural behaviour — join/leave
// records, the balance heuristic, splice-out, userset/keyset, and the
// invariants under sustained random churn.
#include "keygraph/key_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"

namespace keygraphs {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(2024);
  return instance;
}

Bytes ik(UserId user) {
  Bytes key(8, 0);
  for (int i = 0; i < 8; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(user >> (8 * i));
  return key;
}

TEST(KeyTree, RejectsBadConstruction) {
  EXPECT_THROW(KeyTree(1, 8, rng()), ProtocolError);
  EXPECT_THROW(KeyTree(4, 0, rng()), ProtocolError);
}

TEST(KeyTree, EmptyTreeHasRootOnly) {
  KeyTree tree(4, 8, rng());
  EXPECT_EQ(tree.user_count(), 0u);
  EXPECT_EQ(tree.key_count(), 1u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.group_key().id, tree.root_id());
  tree.check_invariants();
}

TEST(KeyTree, FirstJoinAttachesAtRoot) {
  KeyTree tree(4, 8, rng());
  const JoinRecord record = tree.join(10, ik(10));
  EXPECT_EQ(record.user, 10u);
  EXPECT_EQ(record.individual_key.id, individual_key_id(10));
  EXPECT_EQ(record.individual_key.secret, ik(10));
  ASSERT_EQ(record.path.size(), 1u);
  EXPECT_EQ(record.path[0].node, tree.root_id());
  EXPECT_FALSE(record.path[0].old_key.has_value());  // nobody held it
  EXPECT_EQ(tree.user_count(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  tree.check_invariants();
}

TEST(KeyTree, SecondJoinWrapsUnderOldRootKey) {
  KeyTree tree(4, 8, rng());
  tree.join(1, ik(1));
  const SymmetricKey old_root = tree.group_key();
  const JoinRecord record = tree.join(2, ik(2));
  ASSERT_EQ(record.path.size(), 1u);
  ASSERT_TRUE(record.path[0].old_key.has_value());
  EXPECT_EQ(record.path[0].old_key->secret, old_root.secret);
  EXPECT_EQ(record.path[0].old_key->version, old_root.version);
  EXPECT_NE(record.path[0].new_key.secret, old_root.secret);
  EXPECT_EQ(record.path[0].new_key.version, old_root.version + 1);
}

TEST(KeyTree, JoinChangesKeysRootDownward) {
  KeyTree tree(2, 8, rng());
  for (UserId user = 1; user <= 8; ++user) tree.join(user, ik(user));
  const SymmetricKey before = tree.group_key();
  const JoinRecord record = tree.join(9, ik(9));
  // Path is root-first; the root's key must have changed.
  EXPECT_EQ(record.path.front().node, tree.root_id());
  EXPECT_NE(tree.group_key().secret, before.secret);
  // Rekeyed existing nodes bump their version by one (split intermediates
  // are new nodes whose "old key" is the split leaf's individual key).
  for (const PathChange& change : record.path) {
    if (change.old_key && change.old_key->id == change.node) {
      EXPECT_EQ(change.new_key.version, change.old_key->version + 1);
    }
  }
  tree.check_invariants();
}

TEST(KeyTree, SplitCaseUsesSplitLeafIndividualKeyAsOldKey) {
  // Degree 2, three users: root has 2 children after two joins; the third
  // join must split a leaf, and the new intermediate's "old key" must be
  // the split leaf's individual key.
  KeyTree tree(2, 8, rng());
  tree.join(1, ik(1));
  tree.join(2, ik(2));
  const JoinRecord record = tree.join(3, ik(3));
  ASSERT_GE(record.path.size(), 2u);
  const PathChange& deepest = record.path.back();
  ASSERT_TRUE(deepest.old_key.has_value());
  const KeyId old_id = deepest.old_key->id;
  EXPECT_TRUE(old_id == individual_key_id(1) ||
              old_id == individual_key_id(2));
  tree.check_invariants();
}

TEST(KeyTree, DuplicateJoinRejected) {
  KeyTree tree(4, 8, rng());
  tree.join(1, ik(1));
  EXPECT_THROW(tree.join(1, ik(1)), ProtocolError);
}

TEST(KeyTree, UsersSharingALeafIdRejected) {
  // individual_key_id sets the top bit, so users 5 and 5 | 2^63 map to one
  // leaf id; admitting both would alias two leaves in the id index.
  constexpr UserId kTopBit = UserId{1} << 63;
  KeyTree tree(4, 8, rng());
  tree.join(5, ik(5));
  EXPECT_THROW(tree.join(5 | kTopBit, ik(5)), ProtocolError);
  EXPECT_THROW(tree.batch_update({{7, ik(7)}, {7 | kTopBit, ik(7)}}, {}),
               ProtocolError);
  EXPECT_EQ(tree.users(), std::vector<UserId>{5});
  EXPECT_FALSE(tree.has_user(5 | kTopBit));
  tree.check_invariants();
}

TEST(KeyTree, WrongKeySizeRejected) {
  KeyTree tree(4, 8, rng());
  EXPECT_THROW(tree.join(1, Bytes(16, 0)), ProtocolError);
}

TEST(KeyTree, LeaveUnknownUserRejected) {
  KeyTree tree(4, 8, rng());
  EXPECT_THROW(tree.leave(99), ProtocolError);
}

TEST(KeyTree, LeaveRemovesLeafAndRekeysPath) {
  KeyTree tree(4, 8, rng());
  for (UserId user = 1; user <= 5; ++user) tree.join(user, ik(user));
  const SymmetricKey before = tree.group_key();
  const LeaveRecord record = tree.leave(3);
  EXPECT_EQ(record.user, 3u);
  EXPECT_FALSE(tree.has_user(3));
  EXPECT_NE(tree.group_key().secret, before.secret);
  EXPECT_EQ(record.path.front().node, tree.root_id());
  ASSERT_EQ(record.children.size(), record.path.size());
  // The removed leaf is reported for client-side garbage collection.
  EXPECT_TRUE(std::find(record.removed_nodes.begin(),
                        record.removed_nodes.end(),
                        individual_key_id(3)) != record.removed_nodes.end());
  tree.check_invariants();
}

TEST(KeyTree, LeaveChildrenSnapshotHasNewKeysOnPath) {
  KeyTree tree(2, 8, rng());
  for (UserId user = 1; user <= 8; ++user) tree.join(user, ik(user));
  const LeaveRecord record = tree.leave(8);
  for (std::size_t i = 0; i < record.path.size(); ++i) {
    for (const ChildKey& child : record.children[i]) {
      if (child.on_path) {
        ASSERT_LT(i + 1, record.path.size());
        EXPECT_EQ(child.node, record.path[i + 1].node);
        EXPECT_EQ(child.key.secret, record.path[i + 1].new_key.secret);
      }
    }
  }
  tree.check_invariants();
}

TEST(KeyTree, SingleChildParentSplicedOut) {
  // Degree 2: [1,2] under one intermediate, [3] ... build 3 users: root has
  // children {intermediate(1,2), leaf3}? With the lightest-subtree
  // heuristic: joins 1,2 attach at root, join 3 splits a leaf. Then leaving
  // one of the split pair must splice the intermediate out.
  KeyTree tree(2, 8, rng());
  tree.join(1, ik(1));
  tree.join(2, ik(2));
  const JoinRecord third = tree.join(3, ik(3));
  const KeyId intermediate = third.path.back().node;
  // Find which original user shares the intermediate with user 3.
  const std::vector<UserId> pair = tree.users_under(intermediate);
  ASSERT_EQ(pair.size(), 2u);
  const UserId sibling = pair[0] == 3 ? pair[1] : pair[0];

  const LeaveRecord record = tree.leave(sibling);
  EXPECT_TRUE(std::find(record.removed_nodes.begin(),
                        record.removed_nodes.end(),
                        intermediate) != record.removed_nodes.end());
  EXPECT_EQ(tree.user_count(), 2u);
  tree.check_invariants();
}

TEST(KeyTree, LastUserLeaves) {
  KeyTree tree(4, 8, rng());
  tree.join(1, ik(1));
  const LeaveRecord record = tree.leave(1);
  EXPECT_EQ(tree.user_count(), 0u);
  EXPECT_EQ(record.children.size(), record.path.size());
  EXPECT_TRUE(record.children[0].empty());
  tree.check_invariants();
}

TEST(KeyTree, KeysetIsLeafToRootChain) {
  KeyTree tree(3, 8, rng());
  for (UserId user = 1; user <= 9; ++user) tree.join(user, ik(user));
  const std::vector<SymmetricKey> keys = tree.keyset(5);
  ASSERT_GE(keys.size(), 2u);
  EXPECT_EQ(keys.front().id, individual_key_id(5));
  EXPECT_EQ(keys.back().id, tree.root_id());
  EXPECT_LE(keys.size(), tree.height() + 1);  // paper: at most h keys
  EXPECT_THROW(tree.keyset(1000), ProtocolError);
}

TEST(KeyTree, UsersetOfRootIsEveryone) {
  KeyTree tree(4, 8, rng());
  for (UserId user = 1; user <= 7; ++user) tree.join(user, ik(user));
  const std::vector<UserId> users = tree.users_under(tree.root_id());
  EXPECT_EQ(users, (std::vector<UserId>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_THROW(tree.users_under(424242), ProtocolError);
}

TEST(KeyTree, UsersetAndKeysetAreConsistent) {
  // (u, k) in R iff u in userset(k) iff k in keyset(u) — Section 2.1.
  KeyTree tree(3, 8, rng());
  for (UserId user = 1; user <= 20; ++user) tree.join(user, ik(user));
  for (UserId user : tree.users()) {
    for (const SymmetricKey& key : tree.keyset(user)) {
      const std::vector<UserId> holders = tree.users_under(key.id);
      EXPECT_TRUE(std::find(holders.begin(), holders.end(), user) !=
                  holders.end());
    }
  }
}

TEST(KeyTree, RootChildrenReported) {
  KeyTree tree(4, 8, rng());
  for (UserId user = 1; user <= 6; ++user) {
    const JoinRecord record = tree.join(user, ik(user));
    EXPECT_FALSE(record.root_children.empty());
    EXPECT_LE(record.root_children.size(), 4u);
  }
}

TEST(KeyTree, HeightGrowsLogarithmically) {
  KeyTree tree(4, 8, rng());
  for (UserId user = 1; user <= 256; ++user) tree.join(user, ik(user));
  // Perfect height (edges) for 256 users at degree 4 is log4(256) = 4;
  // allow slack for the heuristic.
  EXPECT_GE(tree.height(), 4u);
  EXPECT_LE(tree.height(), 6u);
  // Table 1: total keys ~ d/(d-1) * n.
  EXPECT_LT(tree.key_count(), 256 * 4 / 3 + 10);
}

struct ChurnParam {
  int degree;
  std::size_t initial;
  std::size_t operations;
};

class KeyTreeChurn : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(KeyTreeChurn, InvariantsHoldThroughout) {
  const ChurnParam param = GetParam();
  crypto::SecureRandom churn_rng(
      static_cast<std::uint64_t>(param.degree) * 1000 + param.initial);
  KeyTree tree(param.degree, 8, churn_rng);
  std::vector<UserId> members;
  UserId next = 1;
  for (std::size_t i = 0; i < param.initial; ++i) {
    tree.join(next, ik(next));
    members.push_back(next++);
  }
  tree.check_invariants();

  for (std::size_t op = 0; op < param.operations; ++op) {
    const bool join = members.empty() || churn_rng.uniform(2) == 0;
    if (join) {
      const JoinRecord record = tree.join(next, ik(next));
      EXPECT_EQ(record.path.front().node, tree.root_id());
      members.push_back(next++);
    } else {
      const std::size_t index =
          static_cast<std::size_t>(churn_rng.uniform(members.size()));
      const UserId user = members[index];
      const LeaveRecord record = tree.leave(user);
      EXPECT_EQ(record.children.size(), record.path.size());
      members[index] = members.back();
      members.pop_back();
    }
    tree.check_invariants();
    EXPECT_EQ(tree.user_count(), members.size());
  }
  // Height stays within one level of the balanced optimum.
  if (members.size() >= 4) {
    const double optimal = std::log(static_cast<double>(members.size())) /
                           std::log(param.degree);
    EXPECT_LE(static_cast<double>(tree.height()), optimal + 2.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndSizes, KeyTreeChurn,
    ::testing::Values(ChurnParam{2, 16, 150}, ChurnParam{3, 27, 150},
                      ChurnParam{4, 64, 200}, ChurnParam{8, 64, 150},
                      ChurnParam{16, 32, 100}, ChurnParam{4, 1, 100},
                      ChurnParam{2, 0, 120}));

}  // namespace
}  // namespace keygraphs
