// Server replication and failover (paper Section 6: "the key server may be
// replicated for reliability/performance enhancement").
//
// A primary group key server runs a churning group; its state streams to a
// standby as snapshots. The primary "crashes"; the standby takes over and
// keeps rekeying. Existing members notice nothing: node ids, key versions
// and key material are identical, so the standby's rekey messages decrypt
// with the keys members already hold.
//
// Run: ./failover
#include <cstdio>

#include "common/error.h"
#include "server/sharded_server.h"
#include "sim/simulator.h"
#include "sim/workload.h"

using namespace keygraphs;

int main() {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.rng_seed = 71;

  transport::InProcNetwork network;
  auto primary = std::make_unique<server::ShardedGroupKeyServer>(
      server::ShardedServerConfig{config}, network);
  sim::ClientSimulator clients(*primary, network);
  sim::WorkloadGenerator workload(17);
  clients.apply_all(workload.initial_joins(40));
  clients.apply_all(workload.churn(30));
  std::printf("primary: %zu members, epoch %llu, group key v%u\n",
              primary->member_count(),
              static_cast<unsigned long long>(primary->epoch()),
              primary->group_key().version);

  // Continuous replication: after every operation the primary would stream
  // its snapshot; here we take the latest one before the "crash".
  const Bytes snapshot = primary->snapshot();
  std::printf("snapshot: %zu bytes of replicable state "
              "(epoch + full key tree)\n", snapshot.size());

  // The primary crashes. A standby with different future randomness
  // restores and is attached to the same network.
  primary.reset();
  server::ServerConfig standby_config = config;
  standby_config.rng_seed = 72;
  server::ShardedGroupKeyServer standby(
      server::ShardedServerConfig{standby_config}, network);
  standby.restore(snapshot);
  std::printf("standby restored: %zu members, epoch %llu — taking over\n",
              standby.member_count(),
              static_cast<unsigned long long>(standby.epoch()));

  // The standby evicts a member and admits a new one. Existing members'
  // clients (which never spoke to the standby before) must follow along.
  const UserId victim = standby.shard_view(0)->users().front();
  network.detach_client(victim);
  standby.leave(victim);
  standby.join(9999);  // a fresh admission handled entirely by the standby

  const SymmetricKey group = standby.group_key();
  std::size_t converged = 0;
  for (UserId user : standby.shard_view(0)->users()) {
    if (user == 9999) continue;  // no simulated client for the newcomer
    if (clients.has_client(user)) {
      const auto held = clients.client(user).group_key();
      if (held.has_value() && held->secret == group.secret) ++converged;
    }
  }
  std::printf("after failover + leave + join: %zu/%zu surviving members "
              "converged on the standby's group key v%u\n",
              converged, standby.member_count() - 1,
              group.version);

  if (converged != standby.member_count() - 1) {
    std::printf("FAILOVER BUG: members diverged\n");
    return 1;
  }
  std::printf("failover invisible to members: success\n");
  return 0;
}
