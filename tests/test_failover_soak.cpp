// Hot-standby failover under churn and loss: 1024 clients on the in-proc
// network behind a seeded fault engine (5% drop + duplicates + reorder),
// a primary journaling every commit to a shared storage backend, and a
// StandbyServer tailing that journal. Halfway through the churn the
// primary is destroyed outright — no shutdown, no state handoff — and the
// standby is promoted. The fleet must converge on the promoted server with
// zero manual intervention (the only recovery actions are the ones client
// state machines escalate to) and zero convergence-SLO violations, and the
// promoted server must continue the exact epoch stream the primary died on.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "client/client.h"
#include "common/io.h"
#include "server/sharded_server.h"
#include "server/standby.h"
#include "storage/backend.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"
#include "transport/fault.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

/// Generous convergence SLO (one hour of virtual time): far above anything
/// the 200 ms pump steps can accumulate even across the failover, so a
/// single violation means the promotion broke the epoch accounting.
constexpr std::uint64_t kGenerousSloUs = 3'600'000'000;

TEST(FailoverSoak, PrimaryDeathMidChurnPromotesStandbyAndConverges) {
  constexpr std::size_t kGroupSize = 1024;
  constexpr std::size_t kChurnOps = 40;
  constexpr std::uint64_t kSeed = 29;
  std::uint64_t now = 1'000'000;

  server::ServerConfig config;
  config.tree_degree = 8;
  config.rng_seed = kSeed;
  config.clock_us = [&now] { return now; };
  config.retransmit_window = 64;
  config.recovery_rate = 0;  // unlimited; the limiter has its own tests
  // Both servers share one in-memory journal — the same wiring as two
  // processes sharing a journal_dir, without touching disk in the soak.
  config.storage.backend = storage::make_memory_backend(1);
  config.storage.snapshot_interval = 300;  // several compactions mid-soak

  transport::InProcNetwork network;
  auto primary = std::make_unique<server::ShardedGroupKeyServer>(
      server::ShardedServerConfig{config}, network);
  server::StandbyServer standby(server::ShardedServerConfig{config}, network);
  server::ShardedGroupKeyServer* live = primary.get();

  transport::FaultConfig faults;
  faults.seed = kSeed;
  faults.rule.drop = 0.05;
  faults.rule.duplicate = 0.03;
  faults.rule.reorder = 0.05;
  faults.rule.reorder_span = 4;
  transport::FaultEngine engine(faults);

  for (UserId user = 1; user <= kGroupSize; ++user) live->join(user);
  std::size_t standby_applied = standby.poll();
  EXPECT_EQ(standby.epoch(), live->epoch());

  std::map<UserId, std::unique_ptr<client::GroupClient>> members;
  const KeyId root = live->root_id();

  const auto attach = [&](UserId user, bool snapshot) {
    client::ClientConfig member_config;
    member_config.user = user;
    member_config.suite = config.suite;
    member_config.root = root;
    member_config.verify = false;
    member_config.rng_seed = user + 1;
    member_config.recovery.clock_us = [&now] { return now; };
    member_config.recovery.base_backoff_us = 20'000;
    member_config.recovery.max_backoff_us = 160'000;
    member_config.recovery.token = live->auth().resync_token(user);
    auto client =
        std::make_unique<client::GroupClient>(member_config, nullptr);
    client->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        live->auth().individual_key(user, config.suite.key_size())});
    if (snapshot) {
      client->admit_snapshot(live->keyset(user), live->epoch());
    }
    client::GroupClient& ref = *client;
    const auto resubscribe = [&network, &ref, user, root] {
      std::vector<KeyId> ids = ref.key_ids();
      ids.push_back(root);
      network.resubscribe(user, ids);
    };
    network.attach_client(
        user, transport::make_faulty_inbox(
                  engine, user, [&ref, resubscribe](BytesView datagram) {
                    ref.handle_datagram(datagram);
                    resubscribe();
                  }));
    resubscribe();
    members.emplace(user, std::move(client));
  };

  for (UserId user = 1; user <= kGroupSize; ++user) {
    attach(user, /*snapshot=*/true);
  }

  telemetry::Registry::global().reset();
  telemetry::ConvergenceMonitor::global().reset();
  telemetry::ConvergenceMonitor::global().set_slo_us(kGenerousSloUs);

  // Routes one client-emitted recovery request to whichever server is
  // live — the only path any retransmit or resync ever takes here.
  const auto route = [&](const Bytes& request) {
    const rekey::Datagram datagram = rekey::Datagram::decode(request);
    ByteReader reader(datagram.payload);
    const UserId user = reader.u64();
    const Bytes token = reader.var_bytes();
    if (datagram.type == rekey::MessageType::kNackRequest) {
      (void)live->nack_with_token(user, token, reader.u64());
    } else if (datagram.type == rekey::MessageType::kResyncRequest) {
      (void)live->resync_with_token(user, token);
    }
  };

  const auto all_synced = [&] {
    const Bytes& secret = live->group_key().secret;
    for (const auto& [user, client] : members) {
      const auto key = client->group_key();
      if (!key.has_value() || key->secret != secret) return false;
      if (client->recovery_state() != client::RecoveryState::kSynced) {
        return false;
      }
    }
    return true;
  };

  std::size_t pump_rounds = 0;
  const auto pump = [&](std::size_t max_rounds) {
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (all_synced()) return true;
      now += 200'000;  // past every client's max backoff
      ++pump_rounds;
      for (const auto& [user, client] : members) {
        if (const auto request = client->poll_recovery()) route(*request);
      }
    }
    return all_synced();
  };

  std::uint64_t epoch_at_death = 0;
  crypto::SecureRandom churn_rng(kSeed * 7 + 1);
  UserId next_user = kGroupSize + 1;
  for (std::size_t op = 0; op < kChurnOps; ++op) {
    if (op % 2 == 0) {
      auto it = members.begin();
      std::advance(it, churn_rng.uniform(members.size()));
      const UserId leaver = it->first;
      engine.flush();
      network.detach_client(leaver);
      members.erase(it);
      live->leave(leaver);
    } else {
      const UserId joiner = next_user++;
      attach(joiner, /*snapshot=*/false);
      live->join(joiner);
    }
    if (!standby.promoted()) standby_applied += standby.poll();
    pump(2);

    if (op == kChurnOps / 2) {
      // The failover: release in-flight datagrams, then the primary dies
      // with no farewell — its process state is simply gone. Everything
      // the standby needs is already durable in the shared journal.
      engine.flush();
      epoch_at_death = live->epoch();
      primary.reset();
      live = &standby.promote();
      EXPECT_TRUE(standby.promoted());
      // Epoch continuity: the promoted server resumes the exact stream.
      EXPECT_EQ(live->epoch(), epoch_at_death);
    }
  }

  // Quiescent tail: faults off, heartbeat rekeys flush silently-missed
  // tail epochs, and the client state machines repair every gap against
  // the promoted server.
  engine.flush();
  engine.set_rule(transport::FaultRule{});
  bool converged = false;
  for (int phase = 0; phase < 4 && !converged; ++phase) {
    const UserId probe = next_user++;
    live->join(probe);
    live->leave(probe);
    converged = pump(32);
  }

  EXPECT_TRUE(converged);
  EXPECT_GT(epoch_at_death, kGroupSize);  // the failover really was mid-churn
  EXPECT_GT(live->epoch(), epoch_at_death);
  EXPECT_GT(standby_applied, 0u);
  EXPECT_LT(pump_rounds, 200u);

  std::size_t nacks = 0;
  std::size_t completions = 0;
  for (const auto& [user, client] : members) {
    nacks += client->recovery_stats().nacks_sent;
    completions += client->recovery_stats().completed;
  }
  EXPECT_GT(completions, 0u);  // losses happened and were repaired...
  EXPECT_GT(nacks, 0u);        // ...through the client machines, not us

  // Fleet accounting across the failover: the promotion re-anchored the
  // published-epoch watermark, so no sample ever measured "time since an
  // epoch the dead primary published" — zero SLO violations.
  EXPECT_EQ(
      telemetry::Registry::global().counter("fleet.slo_violations").value(),
      0u);
  EXPECT_GT(
      telemetry::Registry::global().counter("storage.standby_applied").value(),
      0u);
  EXPECT_EQ(
      telemetry::Registry::global().counter("storage.promotions").value(), 1u);

  // And the journal outlives the whole drama: a cold replica recovering
  // from the same backend lands byte-identical to the promoted server.
  server::ShardedGroupKeyServer replica(server::ShardedServerConfig{config},
                                        network);
  replica.recover_from_storage();
  EXPECT_EQ(replica.snapshot(), live->snapshot());
}

}  // namespace
}  // namespace keygraphs
