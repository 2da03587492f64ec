// TreeView: the immutable per-epoch snapshots the copy-on-write KeyTree
// publishes after every mutation. Views must (a) never change underneath a
// reader, (b) answer every read exactly like the live tree, (c) serialize
// byte-identically to the tree's own encoding, and (d) resolve key
// material for rekey::KeySnapshot without copying.
#include "keygraph/tree_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.h"
#include "keygraph/key_tree.h"
#include "rekey/plan.h"

namespace keygraphs {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(4242);
  return instance;
}

Bytes ik(UserId user) {
  Bytes key(8, 0);
  for (int i = 0; i < 8; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(user >> (8 * i));
  return key;
}

TEST(TreeView, AcquiredViewSurvivesMutationsUnchanged) {
  KeyTree tree(4, 8, rng());
  tree.join(1, ik(1));
  tree.join(2, ik(2));
  const TreeViewPtr before = tree.view();
  const Bytes before_bytes = before->serialize();
  const SymmetricKey before_group = before->group_key();

  tree.join(3, ik(3));
  tree.leave(1);
  tree.join(4, ik(4));

  // The old view is frozen: same members, same bytes, same group key.
  EXPECT_EQ(before->user_count(), 2u);
  EXPECT_TRUE(before->has_user(1));
  EXPECT_FALSE(before->has_user(3));
  EXPECT_EQ(before->serialize(), before_bytes);
  EXPECT_EQ(before->group_key().secret, before_group.secret);

  // The current view reflects the mutations.
  const TreeViewPtr after = tree.view();
  EXPECT_EQ(after->user_count(), 3u);
  EXPECT_FALSE(after->has_user(1));
  EXPECT_TRUE(after->has_user(4));
  EXPECT_NE(after->group_key().secret, before_group.secret);
}

TEST(TreeView, EpochCountsMutationsOnStandaloneTree) {
  KeyTree tree(3, 8, rng());
  EXPECT_EQ(tree.view()->epoch(), 0u);
  tree.join(1, ik(1));
  EXPECT_EQ(tree.view()->epoch(), 1u);
  tree.join(2, ik(2));
  tree.leave(1);
  EXPECT_EQ(tree.view()->epoch(), 3u);
}

TEST(TreeView, ReadsMatchTreeAfterChurn) {
  KeyTree tree(3, 8, rng());
  for (UserId u = 1; u <= 40; ++u) tree.join(u, ik(u));
  for (UserId u = 2; u <= 30; u += 3) tree.leave(u);
  const TreeViewPtr view = tree.view();

  EXPECT_EQ(view->user_count(), tree.user_count());
  EXPECT_EQ(view->key_count(), tree.key_count());
  EXPECT_EQ(view->height(), tree.height());
  EXPECT_EQ(view->degree(), tree.degree());
  EXPECT_EQ(view->root_id(), tree.root_id());
  EXPECT_EQ(view->group_key().secret, tree.group_key().secret);
  EXPECT_EQ(view->users(), tree.users());
  EXPECT_EQ(view->users_under(tree.root_id()), tree.users());
  for (UserId u : tree.users()) {
    EXPECT_EQ(view->has_user(u), tree.has_user(u));
    const std::vector<SymmetricKey> expect = tree.keyset(u);
    const std::vector<SymmetricKey> got = view->keyset(u);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id);
      EXPECT_EQ(got[i].version, expect[i].version);
      EXPECT_EQ(got[i].secret, expect[i].secret);
    }
    // users_under at every internal node of u's path agrees with the tree.
    for (const SymmetricKey& key : expect) {
      EXPECT_EQ(view->users_under(key.id), tree.users_under(key.id));
    }
  }
  EXPECT_THROW(view->keyset(9999), ProtocolError);
  EXPECT_THROW(view->users_under(0xdeadbeef), ProtocolError);
}

TEST(TreeView, SerializeMatchesTreeAndRoundTrips) {
  KeyTree tree(4, 16, rng());
  for (UserId u = 1; u <= 23; ++u) tree.join(u, Bytes(16, static_cast<std::uint8_t>(u)));
  tree.leave(7);
  tree.leave(8);

  const Bytes from_tree = tree.serialize();
  const Bytes from_view = tree.view()->serialize();
  EXPECT_EQ(from_view, from_tree);

  crypto::SecureRandom rng2(1);
  const auto restored = KeyTree::deserialize(from_tree, rng2);
  EXPECT_EQ(restored->serialize(), from_tree);
  EXPECT_EQ(restored->view()->serialize(), from_tree);
  EXPECT_EQ(restored->users(), tree.users());
}

TEST(TreeView, ResolveSubgroupMatchesUsersetDifference) {
  KeyTree tree(3, 8, rng());
  for (UserId u = 1; u <= 17; ++u) tree.join(u, ik(u));
  const TreeViewPtr view = tree.view();

  // Every (include, exclude) pair over the keyset path of user 5.
  const std::vector<SymmetricKey> path = view->keyset(5);
  for (const SymmetricKey& include : path) {
    for (const SymmetricKey& exclude : path) {
      const std::vector<UserId> inc = view->users_under(include.id);
      const std::vector<UserId> exc = view->users_under(exclude.id);
      std::vector<UserId> expect;
      std::set_difference(inc.begin(), inc.end(), exc.begin(), exc.end(),
                          std::back_inserter(expect));
      EXPECT_EQ(view->resolve_subgroup(include.id, exclude.id), expect);
    }
    EXPECT_EQ(view->resolve_subgroup(include.id, std::nullopt),
              view->users_under(include.id));
  }
  // Degrade semantics: unknown include -> nobody; unknown exclude -> no
  // exclusion (the excluded node vanished in the same operation).
  EXPECT_TRUE(view->resolve_subgroup(0xdeadbeef, std::nullopt).empty());
  EXPECT_EQ(view->resolve_subgroup(view->root_id(), KeyId{0xdeadbeef}),
            view->users());
}

TEST(TreeView, FindSecretIsExactGenerationMatch) {
  KeyTree tree(4, 8, rng());
  for (UserId u = 1; u <= 9; ++u) tree.join(u, ik(u));
  const TreeViewPtr view = tree.view();
  for (const SymmetricKey& key : view->keyset(4)) {
    const BytesView secret = view->find_secret(KeyRef{key.id, key.version});
    ASSERT_FALSE(secret.empty());
    EXPECT_EQ(Bytes(secret.begin(), secret.end()), key.secret);
    // A different generation of the same node is not in this snapshot.
    EXPECT_TRUE(view->find_secret(KeyRef{key.id, key.version + 1}).empty());
  }
  EXPECT_TRUE(view->find_secret(KeyRef{0xdeadbeef, 1}).empty());
}

TEST(TreeView, KeySnapshotResolvesThroughBoundView) {
  KeyTree tree(4, 8, rng());
  for (UserId u = 1; u <= 6; ++u) tree.join(u, ik(u));
  const SymmetricKey old_root = tree.group_key();
  tree.leave(6);  // bumps the root generation; old_root is now history

  rekey::KeySnapshot keys;
  keys.bind(tree.view());
  // Current-generation keys resolve straight from the view, no add() call.
  const SymmetricKey root = tree.group_key();
  EXPECT_EQ(Bytes(keys.secret(root.ref()).begin(), keys.secret(root.ref()).end()),
            root.secret);
  EXPECT_EQ(keys.size(), 0u);
  // The old generation is not view-resolvable: it must land in the overlay.
  keys.add(old_root);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(Bytes(keys.secret(old_root.ref()).begin(),
                  keys.secret(old_root.ref()).end()),
            old_root.secret);
  // Adding a current-generation key is a no-op (the view already has it).
  keys.add(root);
  EXPECT_EQ(keys.size(), 1u);
  // A ref nobody snapshotted still throws.
  EXPECT_THROW((void)keys.secret(KeyRef{0xdeadbeef, 3}), Error);
}

TEST(TreeView, SparseIdTableAfterLongChurn) {
  // Internal ids are allocation-counter values and are never reused, so
  // sustained churn leaves a small tree whose id range dwarfs its size —
  // the id index must keep resolving every live id.
  KeyTree tree(4, 8, rng());
  for (UserId u = 1; u <= 4; ++u) tree.join(u, ik(u));
  for (int round = 0; round < 300; ++round) {
    const UserId u = 100 + static_cast<UserId>(round);
    tree.join(u, ik(u));
    tree.leave(u);
  }
  tree.check_invariants();
  const TreeViewPtr view = tree.view();
  EXPECT_EQ(view->user_count(), 4u);
  EXPECT_EQ(view->users_under(view->root_id()), tree.users());
  for (UserId u : tree.users()) {
    for (const SymmetricKey& key : view->keyset(u)) {
      EXPECT_FALSE(view->find_secret(key.ref()).empty());
      EXPECT_EQ(view->users_under(key.id), tree.users_under(key.id));
    }
  }
  const Bytes bytes = view->serialize();
  crypto::SecureRandom rng2(2);
  EXPECT_EQ(KeyTree::deserialize(bytes, rng2)->serialize(), bytes);
}

TEST(TreeView, ToKeyGraphMirrorsMembership) {
  KeyTree tree(3, 8, rng());
  for (UserId u = 1; u <= 11; ++u) tree.join(u, ik(u));
  const KeyGraph graph = tree.view()->to_key_graph();
  for (UserId u = 1; u <= 11; ++u) {
    EXPECT_TRUE(graph.has_user(u));
    const std::set<UserId> userset = graph.userset(tree.root_id());
    EXPECT_TRUE(userset.contains(u));
  }
}

}  // namespace
}  // namespace keygraphs
