// Quickstart: the public API in one page.
//
// Creates a group key server (key tree, degree 4, group-oriented rekeying,
// batch-signed rekey messages), admits three members, shows that they
// converge on one group key and can exchange confidential messages, then
// evicts one and shows forward secrecy: the old member's keys are useless.
//
// Run: ./quickstart
#include <cstdio>

#include "client/client.h"
#include "common/error.h"
#include "server/sharded_server.h"
#include "sim/simulator.h"

using namespace keygraphs;

int main() {
  // 1. A server. The suite mirrors the paper: DES-CBC / MD5 / RSA-512.
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  config.rng_seed = 42;  // deterministic demo

  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network,
                                       server::AccessControl::allow_all());

  // 2. The client simulator wires GroupClients to the network and drives
  //    the join/leave protocols end to end (with signature verification).
  sim::SimulatorConfig sim_config;
  sim_config.clients_verify = true;
  sim::ClientSimulator clients(server, network, sim_config);

  for (UserId user : {1u, 2u, 3u}) {
    clients.apply(sim::Request{sim::RequestKind::kJoin, user});
    std::printf("user %llu joined; group key version %u, tree height %zu\n",
                static_cast<unsigned long long>(user),
                server.group_key().version, server.shard_view(0)->height());
  }

  // 3. Everyone shares the group key: confidential group messaging works.
  const Bytes sealed =
      clients.client(1).seal_application(bytes_of("launch at dawn"));
  for (UserId user : {2u, 3u}) {
    const Bytes plain = clients.client(user).open_application(sealed);
    std::printf("user %llu reads: %.*s\n",
                static_cast<unsigned long long>(user),
                static_cast<int>(plain.size()), plain.data());
  }

  // 4. User 2 leaves. Snapshot its keys first to demonstrate they go dead.
  client::ClientConfig eve_config;
  eve_config.user = 2;
  eve_config.suite = config.suite;
  eve_config.root = server.root_id();
  client::GroupClient old_member(eve_config, server.public_key());
  old_member.admit_snapshot(server.keyset(2), server.epoch());

  clients.apply(sim::Request{sim::RequestKind::kLeave, 2});
  std::printf("user 2 left; group key version is now %u\n",
              server.group_key().version);

  const Bytes secret = clients.client(1).seal_application(
      bytes_of("user 2 must not read this"));
  std::printf("user 3 reads: %.*s\n",
              static_cast<int>(clients.client(3).open_application(secret)
                                   .size()),
              clients.client(3).open_application(secret).data());
  try {
    (void)old_member.open_application(secret);
    std::printf("BUG: departed member decrypted current traffic!\n");
    return 1;
  } catch (const Error&) {
    std::printf("user 2's stale keys fail to decrypt: forward secrecy "
                "holds\n");
  }
  return 0;
}
