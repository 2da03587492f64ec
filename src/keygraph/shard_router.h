// Consistent user -> shard routing for the sharded key tree.
//
// The multi-group module (multi_group.h) already namespaces k-node ids per
// tree with a 2^32 stride; the sharded single-group server promotes the
// same idiom: shard i's KeyTree mints internal k-node ids starting at
// i * 2^32 + 1, so ids stay unique across the whole group and multicast
// subscriptions (keyed by KeyId) never cross shards. Individual key ids
// (top bit set, keygraph/key.h) and the shared group key id below live in
// their own reserved ranges.
//
// Routing is a pure hash of the user id: stateless, identical on every
// replica, and stable for the server's lifetime (users never migrate
// between shards — a shard split is a group restart in this model).
#pragma once

#include <cstddef>
#include <cstdint>

#include "keygraph/key.h"

namespace keygraphs {

/// K-node id of the group key in a sharded tree (the thin root layer's only
/// key). Internal shard ids are counters below 2^62 for any realistic shard
/// count, and individual ids carry bit 63, so this id cannot collide.
inline constexpr KeyId kSharedGroupKeyId = KeyId{1} << 62;

/// Id-space stride between shard trees (matches MultiGroupGraph's
/// kGroupIdStride): shard i mints internal ids in [i * stride + 1, ...).
inline constexpr KeyId kShardIdStride = KeyId{1} << 32;

class ShardRouter {
 public:
  /// `shards` >= 1. One shard routes everything to shard 0 (the paper's
  /// single key tree).
  explicit ShardRouter(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }

  /// Consistent mapping: splitmix64-mixed user id modulo the shard count.
  /// The mix step keeps sequential user ids (the common test/benchmark
  /// assignment) spread evenly instead of striping by id arithmetic.
  [[nodiscard]] std::size_t shard_of(UserId user) const noexcept {
    if (shards_ == 1) return 0;
    std::uint64_t x = user + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % shards_);
  }

  /// First internal k-node id for `shard`'s KeyTree (shard 0 keeps a
  /// standalone KeyTree's id sequence, so K=1 is the paper's single tree
  /// byte for byte).
  [[nodiscard]] static KeyId first_id(std::size_t shard) noexcept {
    return static_cast<KeyId>(shard) * kShardIdStride + 1;
  }

 private:
  std::size_t shards_;
};

}  // namespace keygraphs
