// Multi-group key management service (paper Section 7 / the authors'
// Keystone system): one service, many secure groups, one individual key
// per user shared across all of them.
//
// Each group runs its own key server over its own multicast domain
// (its own InProcNetwork here; per-group multicast addresses in a real
// deployment). The shared AuthService gives every user one individual key
// for the whole service — the merge point of the groups' key trees into a
// single key graph (see MultiGroupGraph for the structural view, and the
// multi_group example for the end-to-end demonstration).
#pragma once

#include <map>
#include <memory>

#include "common/error.h"
#include "server/sharded_server.h"
#include "transport/inproc.h"

namespace keygraphs::server {

class MultiGroupService {
 public:
  /// `base` supplies the suite/strategy/degree shared by every group; its
  /// group id and seed are overridden per group.
  explicit MultiGroupService(ServerConfig base) : base_(std::move(base)) {}

  /// Creates a new secure group with its own server and multicast domain.
  GroupId create_group() {
    const GroupId id = next_group_++;
    auto entry = std::make_unique<Entry>();
    ServerConfig config = base_;
    config.group = id;
    config.rng_seed = base_.rng_seed == 0
                          ? 0
                          : base_.rng_seed * 1000003u + id;
    entry->server = std::make_unique<ShardedGroupKeyServer>(
        ShardedServerConfig{config}, entry->network);
    groups_.emplace(id, std::move(entry));
    return id;
  }

  [[nodiscard]] ShardedGroupKeyServer& server(GroupId group) {
    return *entry(group).server;
  }
  [[nodiscard]] transport::InProcNetwork& network(GroupId group) {
    return entry(group).network;
  }

  /// The service-wide authentication view: every group's server derives
  /// the same individual key for a user because they share auth_master.
  [[nodiscard]] Bytes individual_key(UserId user) const {
    return AuthService(base_.auth_master)
        .individual_key(user, base_.suite.key_size());
  }

  /// Groups the user currently belongs to.
  [[nodiscard]] std::vector<GroupId> groups_of(UserId user) const {
    std::vector<GroupId> out;
    for (const auto& [id, entry] : groups_) {
      if (entry->server->has_member(user)) out.push_back(id);
    }
    return out;
  }

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

 private:
  struct Entry {
    transport::InProcNetwork network;
    std::unique_ptr<ShardedGroupKeyServer> server;
  };

  Entry& entry(GroupId group) {
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      throw ProtocolError("MultiGroupService: no such group");
    }
    return *it->second;
  }

  ServerConfig base_;
  std::map<GroupId, std::unique_ptr<Entry>> groups_;
  GroupId next_group_ = 1;
};

}  // namespace keygraphs::server
