// Churn-under-loss soak: >= 1024 clients on the in-proc network behind a
// seeded fault engine (drop + duplicate + reorder), with membership churn
// driven through the server while every client runs the automatic recovery
// state machine on an injected clock. Every surviving member must converge
// to the latest group key within a bounded number of recovery rounds, and
// no recovery action is ever initiated by the harness itself: the only
// resyncs are the ones the client state machines escalate to (zero manual
// resyncs). Convergence is asserted under eventual quiescence: after the
// lossy churn phase the faults stop and heartbeat rekeys surface every
// silently-missed tail epoch (gap detection needs a later delivery).
// The whole scenario is deterministic — the same seed reproduces the
// identical fault trace and final state.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "client/client.h"
#include "common/io.h"
#include "http_client.h"
#include "server/sharded_server.h"
#include "telemetry/convergence.h"
#include "telemetry/http.h"
#include "telemetry/metrics.h"
#include "transport/fault.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

struct SoakResult {
  bool converged = false;
  std::size_t pump_rounds = 0;
  std::size_t nacks = 0;
  std::size_t resyncs = 0;
  std::size_t completions = 0;
  std::vector<transport::FaultEvent> trace;
  /// Server epoch followed by every surviving member's applied epoch in
  /// user order — the cross-run determinism fingerprint.
  std::vector<std::uint64_t> final_epochs;
};

/// Generous convergence SLO for the soaks: one hour of virtual time, far
/// above anything the 200 ms pump steps can accumulate, so a single
/// violation means the accounting (not the fleet) is broken.
constexpr std::uint64_t kGenerousSloUs = 3'600'000'000;

SoakResult run_soak(double drop, std::uint64_t seed, std::size_t group_size,
                    std::size_t churn_ops, bool record_trace,
                    const std::function<void()>& mid_soak = {}) {
  std::uint64_t now = 1'000'000;

  server::ServerConfig config;
  config.tree_degree = 8;
  config.rng_seed = seed;
  config.clock_us = [&now] { return now; };
  config.retransmit_window = 64;
  config.recovery_rate = 0;  // unlimited; the limiter has its own tests
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);

  transport::FaultConfig faults;
  faults.seed = seed;
  faults.rule.drop = drop;
  faults.rule.duplicate = 0.03;
  faults.rule.reorder = 0.05;
  faults.rule.reorder_span = 4;
  faults.record_trace = record_trace;
  transport::FaultEngine engine(faults);

  // Build the group server-only (the paper never measures construction);
  // clients materialize from keyset snapshots below, like the experiment
  // harness does.
  for (UserId user = 1; user <= group_size; ++user) server.join(user);

  std::map<UserId, std::unique_ptr<client::GroupClient>> members;
  const KeyId root = server.root_id();

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
    member_config.recovery.token = server.auth().resync_token(user);
    auto client =
        std::make_unique<client::GroupClient>(member_config, nullptr);
    client->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server.auth().individual_key(user, config.suite.key_size())});
    if (snapshot) {
      client->admit_snapshot(server.keyset(user), server.epoch());
    }
    client::GroupClient& ref = *client;
    // The inbox always stays subscribed to the group key's address: a
    // joiner whose welcome was dropped must still hear the group's
    // multicasts to detect the gap and recover on its own.
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

  for (UserId user = 1; user <= group_size; ++user) {
    attach(user, /*snapshot=*/true);
  }

  // Measure fleet convergence over the churn phase only: drop the
  // build-phase publishes (the snapshot attach never reports an apply, so
  // they would all score on a member's first real apply and swamp the
  // quantiles with construction noise).
  telemetry::Registry::global().reset();
  telemetry::ConvergenceMonitor::global().reset();
  telemetry::ConvergenceMonitor::global().set_slo_us(kGenerousSloUs);

  // Routes one client-emitted recovery request to the server — the only
  // way any retransmit or resync ever happens in this harness.
  const auto route = [&](const Bytes& request) {
    const rekey::Datagram datagram = rekey::Datagram::decode(request);
    ByteReader reader(datagram.payload);
    const UserId user = reader.u64();
    const Bytes token = reader.var_bytes();
    if (datagram.type == rekey::MessageType::kNackRequest) {
      (void)server.nack_with_token(user, token, reader.u64());
    } else if (datagram.type == rekey::MessageType::kResyncRequest) {
      (void)server.resync_with_token(user, token);
    }
  };

  const auto all_synced = [&] {
    const Bytes& secret = server.group_key().secret;
    for (const auto& [user, client] : members) {
      const auto key = client->group_key();
      if (!key.has_value() || key->secret != secret) return false;
      if (client->recovery_state() != client::RecoveryState::kSynced) {
        return false;
      }
    }
    return true;
  };

  SoakResult result;
  const auto pump = [&](std::size_t max_rounds) {
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (all_synced()) return true;
      now += 200'000;  // past every client's max backoff
      ++result.pump_rounds;
      for (const auto& [user, client] : members) {
        if (const auto request = client->poll_recovery()) route(*request);
      }
    }
    return all_synced();
  };

  crypto::SecureRandom churn_rng(seed * 7 + 1);
  UserId next_user = group_size + 1;
  for (std::size_t op = 0; op < churn_ops; ++op) {
    if (op % 2 == 0) {
      auto it = members.begin();
      std::advance(it, churn_rng.uniform(members.size()));
      const UserId leaver = it->first;
      // Release held datagrams before the leaver's inbox disappears: a
      // reordered delivery must not fire into a destroyed client.
      engine.flush();
      network.detach_client(leaver);
      members.erase(it);
      server.leave(leaver);
    } else {
      const UserId joiner = next_user++;
      attach(joiner, /*snapshot=*/false);
      server.join(joiner);
    }
    pump(2);  // opportunistic recovery between operations
    if (mid_soak && op == churn_ops / 2) mid_soak();
  }

  // Quiescent tail: the network heals (faults off, holds released) and the
  // server issues heartbeat rekeys. A client that lost the multicast for
  // the *latest* epoch is silently stale — gap detection needs a later
  // delivery — so each heartbeat gives every straggler a fresh epoch to
  // trip on, after which the NACK/resync machinery repairs the whole gap.
  engine.flush();
  engine.set_rule(transport::FaultRule{});
  for (int phase = 0; phase < 4 && !result.converged; ++phase) {
    const UserId probe = next_user++;
    server.join(probe);
    server.leave(probe);
    result.converged = pump(32);
  }

  result.final_epochs.push_back(server.epoch());
  for (const auto& [user, client] : members) {
    result.final_epochs.push_back(client->applied_epoch());
    result.nacks += client->recovery_stats().nacks_sent;
    result.resyncs += client->recovery_stats().resyncs_sent;
    result.completions += client->recovery_stats().completed;
  }
  if (record_trace) result.trace = engine.trace();
  return result;
}

TEST(RecoverySoak, ChurnUnderFivePercentLossConverges) {
  const SoakResult result =
      run_soak(0.05, 21, /*group_size=*/1024, /*churn_ops=*/40, false);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.completions, 0u);  // losses happened and were repaired
  EXPECT_GT(result.nacks, 0u);        // via the cheap retransmit path
  EXPECT_LT(result.pump_rounds, 200u);
}

TEST(RecoverySoak, ChurnUnderTwentyPercentLossConverges) {
  // The scrape endpoint serves from its own thread throughout the soak; a
  // mid-churn GET must come back well-formed without stalling the run.
  telemetry::TelemetryHttpServer http(0);
  std::string scraped;
  const SoakResult result =
      run_soak(0.20, 23, /*group_size=*/1024, /*churn_ops=*/40, false,
               [&] { scraped = testhttp::http_get(http.port(), "/metrics"); });
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.completions, 0u);
  EXPECT_GT(result.nacks, 0u);
  EXPECT_LT(result.pump_rounds, 200u);

  // Fleet convergence accounting over the whole churn: every repaired loss
  // scored a positive publish-to-applied latency (the pump advances the
  // injected clock 200 ms per round), immediate applies scored zero, and
  // nothing came near the one-hour SLO.
  const auto& convergence =
      telemetry::Registry::global().histogram("fleet.convergence_ns");
  EXPECT_GT(convergence.count(), 1000u);  // 1024 members, 40 churn ops
  EXPECT_GT(convergence.p99(), 0u);       // losses are >1% of samples
  EXPECT_GE(convergence.p99(), convergence.p50());
  EXPECT_LT(convergence.p99(), kGenerousSloUs * 1000);  // finite and sane
  EXPECT_EQ(
      telemetry::Registry::global().counter("fleet.slo_violations").value(),
      0u);

  ASSERT_FALSE(scraped.empty());  // the mid-soak scrape connected
  EXPECT_NE(scraped.find("200 OK"), std::string::npos);
  EXPECT_NE(scraped.find("kg_fleet_convergence_ns"), std::string::npos);
  EXPECT_NE(scraped.find("kg_fleet_published_epoch"), std::string::npos);
}

TEST(RecoverySoak, SameSeedReproducesIdenticalTraceAndState) {
  const SoakResult first =
      run_soak(0.20, 17, /*group_size=*/96, /*churn_ops=*/24, true);
  const SoakResult second =
      run_soak(0.20, 17, /*group_size=*/96, /*churn_ops=*/24, true);
  EXPECT_TRUE(first.converged);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.final_epochs, second.final_epochs);
  EXPECT_EQ(first.pump_rounds, second.pump_rounds);
  EXPECT_EQ(first.nacks, second.nacks);
  EXPECT_EQ(first.resyncs, second.resyncs);
  bool any_fault = false;
  for (const transport::FaultEvent& event : first.trace) {
    any_fault |= event.action != transport::FaultAction::kPass;
  }
  EXPECT_TRUE(any_fault);
}

}  // namespace
}  // namespace keygraphs
