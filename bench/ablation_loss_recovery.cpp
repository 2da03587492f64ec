// Ablation — recovery cost over loss rate and retransmit-window size.
//
// Clients behind a seeded lossy inbox run the automatic recovery state
// machine against a server whose retransmit window is swept from disabled
// (every gap degrades to a full keyset resync) to comfortably larger than
// any gap (every in-window loss is repaired by replaying sealed bytes).
// Two things move: how long a client spends out of sync (measured on the
// injected clock, so the numbers are deterministic per seed) and what
// fraction of recoveries fall through to the expensive resync path. The
// window trades ring memory for that ratio; the sweep quantifies the
// trade so deployments can size `retransmit_window` against their loss.
//
//   KG_GROUP_SIZE   members behind lossy inboxes (default 256)
//   KG_REQUESTS     churn operations per point (default 40)
//   KG_BENCH_JSON   file to append per-point JSON lines to
#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.h"
#include "client/client.h"
#include "common/io.h"
#include "server/sharded_server.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"
#include "transport/fault.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

struct Point {
  std::size_t recoveries = 0;   // completed recovery episodes
  std::size_t retransmits = 0;  // NACKs served from the sealed ring
  std::size_t resyncs = 0;      // recoveries that degraded to a resync
  double avg_recovery_ms = 0.0;  // mean out-of-sync time, injected clock
  std::size_t rounds = 0;
  bool converged = false;
  /// Fleet publish-to-applied latency percentiles (injected clock, so
  /// deterministic): the per-(member, epoch) fleet.convergence_ns
  /// histogram over the churn phase. A loss repaired N pump rounds later
  /// scores N * 50 ms; immediate applies score 0.
  std::uint64_t convergence_p50_ns = 0;
  std::uint64_t convergence_p99_ns = 0;
  std::uint64_t slo_violations = 0;

  [[nodiscard]] double resync_ratio() const {
    const std::size_t served = retransmits + resyncs;
    return served == 0 ? 0.0
                       : static_cast<double>(resyncs) /
                             static_cast<double>(served);
  }
};

constexpr std::uint64_t kPumpStepUs = 50'000;

Point run(double drop, std::size_t window, std::size_t group_size,
          std::size_t churn_ops) {
  std::uint64_t now = 1'000'000;

  server::ServerConfig config;
  config.tree_degree = 8;
  config.rng_seed = 4242;
  config.clock_us = [&now] { return now; };
  config.retransmit_window = window;
  config.recovery_rate = 0;  // the limiter is ablated separately
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);

  transport::FaultConfig faults;
  faults.seed = 4242;
  faults.rule.drop = drop;
  faults.rule.duplicate = 0.02;
  faults.rule.reorder = 0.03;
  faults.rule.reorder_span = 4;
  transport::FaultEngine engine(faults);

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
  for (UserId user = 1; user <= group_size; ++user) attach(user, true);

  // Score convergence over the churn phase only (the snapshot attaches
  // never report applies, so build-phase publishes would distort the
  // quantiles). A one-hour SLO makes any violation an accounting bug.
  telemetry::Registry::global().reset();
  auto& monitor = telemetry::ConvergenceMonitor::global();
  monitor.reset();
  monitor.set_slo_us(3'600'000'000);

  Point point;
  const auto route = [&](const Bytes& request) {
    const rekey::Datagram datagram = rekey::Datagram::decode(request);
    ByteReader reader(datagram.payload);
    const UserId user = reader.u64();
    const Bytes token = reader.var_bytes();
    if (datagram.type == rekey::MessageType::kNackRequest) {
      const auto outcome =
          server.nack_with_token(user, token, reader.u64());
      if (outcome == server::NackOutcome::kRetransmitted) {
        ++point.retransmits;
      } else if (outcome == server::NackOutcome::kResynced) {
        ++point.resyncs;
      }
    } else if (datagram.type == rekey::MessageType::kResyncRequest) {
      if (server.resync_with_token(user, token)) ++point.resyncs;
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

  // A recovery episode spans from the first round a client is observed out
  // of kSynced until it returns; the injected clock makes the latency
  // deterministic (granularity: one pump step).
  std::map<UserId, std::uint64_t> entered;
  double recovery_us_total = 0.0;
  const auto observe = [&] {
    for (const auto& [user, client] : members) {
      const bool syncing =
          client->recovery_state() != client::RecoveryState::kSynced;
      const auto it = entered.find(user);
      if (syncing && it == entered.end()) {
        entered.emplace(user, now);
      } else if (!syncing && it != entered.end()) {
        recovery_us_total += static_cast<double>(now - it->second);
        ++point.recoveries;
        entered.erase(it);
      }
    }
  };

  const auto pump = [&](std::size_t max_rounds) {
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (all_synced()) return true;
      now += kPumpStepUs;
      ++point.rounds;
      for (const auto& [user, client] : members) {
        if (const auto request = client->poll_recovery()) route(*request);
      }
      observe();
    }
    return all_synced();
  };

  crypto::SecureRandom churn_rng(97);
  UserId next_user = group_size + 1;
  for (std::size_t op = 0; op < churn_ops; ++op) {
    if (op % 2 == 0) {
      auto it = members.begin();
      std::advance(it, churn_rng.uniform(members.size()));
      const UserId leaver = it->first;
      engine.flush();
      entered.erase(leaver);
      network.detach_client(leaver);
      members.erase(it);
      server.leave(leaver);
    } else {
      const UserId joiner = next_user++;
      attach(joiner, /*snapshot=*/false);
      server.join(joiner);
    }
    observe();
    pump(6);
  }

  // Quiescent tail with heartbeat rekeys (see the soak test): silently
  // missed tail epochs need a later delivery before recovery can trigger.
  engine.flush();
  engine.set_rule(transport::FaultRule{});
  for (int phase = 0; phase < 4 && !point.converged; ++phase) {
    const UserId probe = next_user++;
    server.join(probe);
    server.leave(probe);
    point.converged = pump(64);
  }
  observe();
  point.avg_recovery_ms =
      point.recoveries == 0
          ? 0.0
          : recovery_us_total / static_cast<double>(point.recoveries) /
                1000.0;
  const auto& convergence =
      telemetry::Registry::global().histogram("fleet.convergence_ns");
  point.convergence_p50_ns = convergence.p50();
  point.convergence_p99_ns = convergence.p99();
  point.slo_violations =
      telemetry::Registry::global().counter("fleet.slo_violations").value();
  return point;
}

void main_impl() {
  bench::emit_header_json("ablation_loss_recovery");
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 256);
  const std::size_t churn = bench::env_size("KG_REQUESTS", 40);

  std::printf("Ablation: recovery latency and resync ratio over loss rate "
              "and retransmit window, n=%zu, %zu churn ops\n", n, churn);
  std::printf("window 0 disables the sealed ring: every gap is a full "
              "keyset resync\n\n");
  sim::TablePrinter table({{"drop", 6},
                           {"window", 8},
                           {"recoveries", 11},
                           {"rexmit", 8},
                           {"resync", 8},
                           {"ratio", 7},
                           {"avg ms", 9},
                           {"cnv p50ms", 10},
                           {"cnv p99ms", 10},
                           {"rounds", 8}});
  table.header();
  for (const double drop : {0.05, 0.10, 0.20}) {
    for (const std::size_t window : {std::size_t{0}, std::size_t{8},
                                     std::size_t{64}}) {
      const Point point = run(drop, window, n, churn);
      table.row({sim::TablePrinter::num(drop, 2),
                 sim::TablePrinter::num(window),
                 sim::TablePrinter::num(point.recoveries),
                 sim::TablePrinter::num(point.retransmits),
                 sim::TablePrinter::num(point.resyncs),
                 sim::TablePrinter::num(point.resync_ratio(), 2),
                 sim::TablePrinter::num(point.avg_recovery_ms, 1),
                 sim::TablePrinter::num(
                     static_cast<double>(point.convergence_p50_ns) / 1e6, 1),
                 sim::TablePrinter::num(
                     static_cast<double>(point.convergence_p99_ns) / 1e6, 1),
                 sim::TablePrinter::num(point.rounds)});
      char buffer[384];
      std::snprintf(
          buffer, sizeof(buffer),
          "{\"bench\":\"ablation_loss_recovery\",\"drop\":%.2f,"
          "\"window\":%zu,\"recoveries\":%zu,\"retransmits\":%zu,"
          "\"resyncs\":%zu,\"resync_ratio\":%.4f,"
          "\"avg_recovery_ms\":%.3f,\"convergence_p50_ns\":%llu,"
          "\"convergence_p99_ns\":%llu,\"slo_violations\":%llu,"
          "\"rounds\":%zu,\"converged\":%s}",
          drop, window, point.recoveries, point.retransmits, point.resyncs,
          point.resync_ratio(), point.avg_recovery_ms,
          static_cast<unsigned long long>(point.convergence_p50_ns),
          static_cast<unsigned long long>(point.convergence_p99_ns),
          static_cast<unsigned long long>(point.slo_violations),
          point.rounds, point.converged ? "true" : "false");
      bench::emit_json_line(buffer);
    }
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
