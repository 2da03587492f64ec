// The sharded key tree: K independent subtree shards behind one router.
//
// Partitions the user population across K copy-on-write KeyTrees (paper
// Sec. 7's scaling direction, via the hierarchical-partitioning argument of
// the Iolus line of work): a membership operation touches exactly one
// shard's tree, so K writers can mutate concurrently — each shard publishes
// its own TreeView epoch stream and draws key material from its own
// deterministic rng. The thin root layer that joins the shards into one
// group key hierarchy lives in server/sharded_server.h; this class is pure
// keygraph state: routing, per-shard trees, per-shard rngs, aggregates.
//
// Seeding: shard 0 consumes the caller's seed exactly like a standalone
// KeyTree would (so a K=1 server replays the single-tree rng stream byte
// for byte); shard i > 0 and derived consumers use seed-mixed streams.
// A zero seed leaves every shard on OS entropy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/random.h"
#include "keygraph/key_tree.h"
#include "keygraph/shard_router.h"

namespace keygraphs {

/// Mixes a derived deterministic seed for shard lane `lane` (0 stays the
/// caller's seed; the root layer uses a reserved lane). Zero in, zero out:
/// an OS-entropy configuration stays OS-entropy in every lane.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                                 std::uint64_t lane) {
  if (seed == 0) return 0;
  if (lane == 0) return seed;
  return seed * 1000003ull + lane;
}

class ShardedKeyTree {
 public:
  /// `shards` >= 1; shard 0 with `seed` reproduces an unsharded
  /// KeyTree(degree, key_size, SecureRandom(seed)) exactly.
  ShardedKeyTree(int degree, std::size_t key_size, std::size_t shards,
                 std::uint64_t seed);

  ShardedKeyTree(const ShardedKeyTree&) = delete;
  ShardedKeyTree& operator=(const ShardedKeyTree&) = delete;

  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(UserId user) const noexcept {
    return router_.shard_of(user);
  }

  [[nodiscard]] KeyTree& shard(std::size_t index) { return *shards_[index]; }
  [[nodiscard]] const KeyTree& shard(std::size_t index) const {
    return *shards_[index];
  }
  /// The shard tree that owns (or would own) `user`.
  [[nodiscard]] KeyTree& shard_for(UserId user) {
    return *shards_[router_.shard_of(user)];
  }

  /// Shard `index`'s key-material rng — the lane planner draws IVs from the
  /// same stream, keeping each lane's randomness self-contained.
  [[nodiscard]] crypto::SecureRandom& rng(std::size_t index) {
    return *rngs_[index];
  }

  /// Replaces every shard with the trees serialized in `trees`, one per
  /// shard in index order (snapshot restore); later key material still
  /// comes from each shard's own rng. All or nothing: throws ParseError on
  /// any malformed tree and ProtocolError on a count mismatch, leaving
  /// every shard unchanged. Not safe while shards are read or mutated.
  void restore(const std::vector<Bytes>& trees);

  // --- Aggregates across all shards ---------------------------------------
  // These read each shard's published view, never the live tree, so they
  // are safe from any thread while lanes mutate their shards.

  [[nodiscard]] std::size_t user_count() const;
  /// Total k-nodes across shard trees (excludes the shared group key the
  /// root layer may hold above them).
  [[nodiscard]] std::size_t key_count() const;
  [[nodiscard]] bool has_user(UserId user) const {
    return shards_[router_.shard_of(user)]->view()->has_user(user);
  }
  /// Full user list, ascending ids (merged across shards).
  [[nodiscard]] std::vector<UserId> users() const;

 private:
  ShardRouter router_;
  std::vector<std::unique_ptr<crypto::SecureRandom>> rngs_;
  std::vector<std::unique_ptr<KeyTree>> shards_;
};

}  // namespace keygraphs
