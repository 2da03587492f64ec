#include "keygraph/sharded_tree.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace keygraphs {

ShardedKeyTree::ShardedKeyTree(int degree, std::size_t key_size,
                               std::size_t shards, std::uint64_t seed)
    : router_(shards) {
  rngs_.reserve(router_.shard_count());
  shards_.reserve(router_.shard_count());
  for (std::size_t i = 0; i < router_.shard_count(); ++i) {
    const std::uint64_t lane_seed = shard_seed(seed, i);
    rngs_.push_back(lane_seed == 0
                        ? std::make_unique<crypto::SecureRandom>()
                        : std::make_unique<crypto::SecureRandom>(lane_seed));
    shards_.push_back(std::make_unique<KeyTree>(
        degree, key_size, *rngs_.back(), ShardRouter::first_id(i)));
  }
}

void ShardedKeyTree::restore(const std::vector<Bytes>& trees) {
  if (trees.size() != shards_.size()) {
    throw ProtocolError("restore: " + std::to_string(trees.size()) +
                        " shard trees for " + std::to_string(shards_.size()) +
                        " shards");
  }
  std::vector<std::unique_ptr<KeyTree>> restored;
  restored.reserve(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    restored.push_back(KeyTree::deserialize(trees[i], *rngs_[i]));
  }
  shards_ = std::move(restored);
}

std::size_t ShardedKeyTree::user_count() const {
  std::size_t total = 0;
  for (const auto& tree : shards_) total += tree->view()->user_count();
  return total;
}

std::size_t ShardedKeyTree::key_count() const {
  std::size_t total = 0;
  for (const auto& tree : shards_) total += tree->view()->key_count();
  return total;
}

std::vector<UserId> ShardedKeyTree::users() const {
  std::vector<UserId> all;
  for (const auto& tree : shards_) {
    const std::vector<UserId> shard_users = tree->users();
    all.insert(all.end(), shard_users.begin(), shard_users.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace keygraphs
