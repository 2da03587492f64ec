// The two server-only workloads: closed-loop callers driving
// ShardedGroupKeyServer::join/leave/resync directly (9:9:2 blocks, the
// fleet's mix), with no sockets or clients.
//
//   churn-65k      K=1, 65,536 preloaded members, one caller, DES
//                  unsigned, group-oriented, NullTransport, no journal —
//                  the paper's Fig. 10 left series at a size where O(log n)
//                  and O(n) per-op cost differ ~100x.
//   signed-wal-k4  K=4, 16,384 members, two callers, DES/MD5/RSA-512 with
//                  Merkle batch signing, key-oriented (Fig. 10 right
//                  series), every commit journaled before dispatch. The
//                  journal is the memory backend: on a shared host the
//                  file backend's fsync tail swings by 10x from minute to
//                  minute, which would swamp every other cost here.
//
// With no members attached, an epoch has reached everyone it can reach
// when the entry call returns (every datagram is handed to the transport),
// so converge/welcome times are the caller's send-to-return times.
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "harness.h"
#include "server/sharded_server.h"
#include "shadow.h"
#include "storage/backend.h"

namespace keybench {
namespace {

namespace kg = keygraphs;
using Server = kg::server::ShardedGroupKeyServer;

struct Spec {
  std::size_t members = 0;
  std::size_t shards = 1;
  std::size_t writers = 1;
  std::size_t setup_reps = 5;
  kg::crypto::CryptoSuite suite;
  kg::rekey::StrategyKind strategy = kg::rekey::StrategyKind::kGroupOriented;
  kg::rekey::SigningMode signing = kg::rekey::SigningMode::kNone;
  bool journal = false;
};

constexpr std::size_t kSampledMembers = 64;
/// Request blocks: 9 joins, 9 leaves and 2 resyncs, the fleet's mix.
constexpr std::size_t kJoinsPerBlock = 9;
constexpr std::size_t kResyncsPerBlock = 2;

/// One caller's view of a measured window.
struct Window {
  Samples rekey_us;     // inside the entry call
  Samples converge_us;  // send to return
  Samples welcome_us;   // joins only, send to return
  Samples rekey_by_kind[2];     // [join, leave]
  Samples converge_by_kind[2];  // [join, leave]
  Samples resync_us;            // the read path, inside the call
  std::uint64_t membership_ok = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// (send ns, op) in send order, for the shadow replay.
  std::vector<std::pair<std::int64_t, Op>> ops;

  void merge(const Window& other) {
    rekey_us.append(other.rekey_us);
    converge_us.append(other.converge_us);
    welcome_us.append(other.welcome_us);
    for (int kind = 0; kind < 2; ++kind) {
      rekey_by_kind[kind].append(other.rekey_by_kind[kind]);
      converge_by_kind[kind].append(other.converge_by_kind[kind]);
    }
    resync_us.append(other.resync_us);
    membership_ok += other.membership_ok;
    attempted += other.attempted;
    failed += other.failed;
    ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  }
};

void drive(Server& server, ChurnGenerator& generator, std::int64_t deadline_ns,
           std::uint64_t request_base, Window& window) {
  std::uint64_t request = request_base;
  while (now_ns() < deadline_ns) {
    const std::int64_t sent = now_ns();
    const Op op = generator.next();
    set_current_request(++request);
    ++window.attempted;
    if (op.kind == OpKind::kResync) {
      // Reads beside the writes: a keyset replay of an idle member.
      const std::int64_t start = now_ns();
      try {
        server.resync(op.user);
      } catch (const std::exception&) {
        ++window.failed;
      }
      window.resync_us.add(us_between(start, now_ns()));
      continue;
    }
    bool ok = true;
    const std::int64_t start = now_ns();
    try {
      const SpanScope span("server.call");
      if (op.kind == OpKind::kJoin) {
        ok = server.join(op.user) == kg::server::JoinResult::kGranted;
      } else {
        server.leave(op.user);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const std::int64_t end = now_ns();
    const int kind = op.kind == OpKind::kJoin ? 0 : 1;
    window.rekey_us.add(us_between(start, end));
    window.converge_us.add(us_between(sent, end));
    window.rekey_by_kind[kind].add(us_between(start, end));
    window.converge_by_kind[kind].add(us_between(sent, end));
    if (op.kind == OpKind::kJoin) window.welcome_us.add(us_between(sent, end));
    if (ok) {
      ++window.membership_ok;
    } else {
      ++window.failed;
    }
    window.ops.emplace_back(sent, op);
  }
}

/// Runs every writer until `deadline_ns` and merges their windows.
Window run_window(Server& server, std::span<ChurnGenerator> generators,
                  std::int64_t deadline_ns, std::uint64_t phase) {
  std::vector<Window> windows(generators.size());
  if (generators.size() == 1) {
    drive(server, generators[0], deadline_ns, phase << 40, windows[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(generators.size());
    for (std::size_t w = 0; w < generators.size(); ++w) {
      threads.emplace_back([&, w] {
        drive(server, generators[w], deadline_ns, (phase << 40) | (w << 32),
              windows[w]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  Window merged;
  for (const Window& window : windows) merged.merge(window);
  return merged;
}

Report run_closed(const Options& options, const Spec& spec) {
  Report report;
  report.note("shards", std::to_string(spec.shards));
  report.note("members", std::to_string(spec.members));
  report.note("writers", std::to_string(spec.writers));
  report.note("suite", json_string(spec.suite.label()));
  report.note("strategy", json_string(kg::rekey::strategy_name(spec.strategy)));
  report.note("signing", json_string(kg::rekey::signing_mode_name(spec.signing)));
  report.note("journal", spec.journal ? "\"memory\"" : "\"none\"");

  kg::server::ShardedServerConfig config;
  config.shards = spec.shards;
  config.base.rng_seed = kServerRngSeed;
  config.base.suite = spec.suite;
  config.base.strategy = spec.strategy;
  config.base.signing = spec.signing;

  kg::transport::NullTransport null_transport;
  TimedTransport transport(null_transport);
  const std::vector<UserId> initial = initial_members(spec.members);

  // Set-up, repeated: build the server and preload the membership. The
  // reported figure is the median; the last build serves the run.
  std::shared_ptr<kg::storage::StorageBackend> journal;
  std::shared_ptr<TimedBackend> backend;
  std::unique_ptr<Server> server;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
    server.reset();
    backend.reset();
    const std::int64_t start = now_ns();
    if (spec.journal) {
      journal = kg::storage::make_memory_backend(spec.shards);
      backend = std::make_shared<TimedBackend>(journal);
      config.base.storage.backend = backend;
    }
    server = std::make_unique<Server>(config, transport);
    server->preload(initial);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  report.metric("setup_s", median_of(setups));

  // One generator per writer over a disjoint slice of the membership.
  std::vector<ChurnGenerator> generators;
  for (std::size_t w = 0; w < spec.writers; ++w) {
    std::vector<UserId> slice;
    for (std::size_t i = w; i < initial.size(); i += spec.writers) {
      slice.push_back(initial[i]);
    }
    generators.emplace_back(options.seed * 31 + w, std::move(slice),
                            (UserId{w} + 1) << 40, kJoinsPerBlock,
                            kResyncsPerBlock);
  }

  const std::int64_t begin = now_ns();
  const auto seconds_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  Window measured;
  if (!options.trace) {
    measured = run_window(*server, generators, begin + seconds_ns, 1);
    const double wall_s = static_cast<double>(now_ns() - begin) / 1e9;
    const TimedTransport::Counts counts = transport.counts();
    report.metric("rekey_p50_us", balanced_p50(measured.rekey_by_kind[0],
                                               measured.rekey_by_kind[1]));
    report.metric("rekey_p90_us", measured.rekey_us.quantile(0.9));
    report.metric("rekeys_per_s",
                  static_cast<double>(measured.membership_ok) / wall_s);
    report.metric("converge_p50_us",
                  balanced_p50(measured.converge_by_kind[0],
                               measured.converge_by_kind[1]));
    report.metric("converge_p90_us", measured.converge_us.quantile(0.9));
    report.metric("welcome_p90_us", measured.welcome_us.quantile(0.9));
    report.metric("wire_bytes_per_op",
                  static_cast<double>(counts.bytes) /
                      static_cast<double>(std::max<std::uint64_t>(
                          measured.attempted, 1)));
    report.note("samples", std::to_string(measured.rekey_us.size()));
    report.metric("resync_p90_us", measured.resync_us.quantile(0.9));
  } else {
    // Untraced and traced blocks alternate, with one-writer blocks as a
    // third kind when there are several writers, so host drift falls on
    // each kind alike. Tracing overhead compares the traced blocks' rekey
    // p50 with the untraced ones'; lane overlap is the untraced all-writer
    // throughput over the one-writer throughput on the same tree.
    enum Kind : std::size_t { kPlain, kTraced, kSolo };
    const std::size_t kinds = spec.writers > 1 ? 3 : 2;
    Window by_kind[3];
    double wall_s[3] = {0.0, 0.0, 0.0};
    const TimedTransport::Counts before = transport.counts();
    const CacheCounters cache_before = CacheCounters::read();
    std::int64_t block_start = begin;
    for (std::uint64_t phase = 1; block_start < begin + seconds_ns; ++phase) {
      const std::size_t kind = (phase - 1) % kinds;
      set_tracing(kind == kTraced);
      const std::span<ChurnGenerator> writers =
          kind == kSolo ? std::span(generators).first(1)
                        : std::span(generators);
      by_kind[kind].merge(run_window(
          *server, writers, block_start + kTraceBlockNs, phase));
      set_tracing(false);
      const std::int64_t block_end = now_ns();
      wall_s[kind] += static_cast<double>(block_end - block_start) / 1e9;
      block_start = block_end;
    }
    const CacheCounters cache_after = CacheCounters::read();
    const TimedTransport::Counts after = transport.counts();
    const Window& plain = by_kind[kPlain];
    const Window& traced = by_kind[kTraced];
    const double ops = static_cast<double>(
        std::max<std::uint64_t>(traced.attempted, 1));
    const double all_ops = static_cast<double>(std::max<std::uint64_t>(
        plain.attempted + traced.attempted + by_kind[kSolo].attempted, 1));

    const std::map<std::string, Samples> self = Tracer::global().self_us();
    const double rekey_p50 =
        balanced_p50(traced.rekey_by_kind[0], traced.rekey_by_kind[1]);
    report.metric("server.self_us", self_p50(self, "server.call"));
    report.metric("transport.deliver_us", self_p50(self, "transport.deliver"));
    // Exact counts, so taken over every block.
    report.metric("transport.datagrams_per_op",
                  static_cast<double>(after.datagrams - before.datagrams) /
                      all_ops);
    report.metric("transport.bytes_per_op",
                  static_cast<double>(after.bytes - before.bytes) / all_ops);
    if (spec.writers > 1 && by_kind[kSolo].membership_ok > 0) {
      report.metric(
          "server.lane_overlap",
          (static_cast<double>(plain.membership_ok) / wall_s[kPlain]) /
              (static_cast<double>(by_kind[kSolo].membership_ok) /
               wall_s[kSolo]));
    }
    report.metric("rekey.cache_hit_ratio",
                  cache_hit_ratio(cache_before, cache_after));
    report.metric("harness.tracing_overhead",
                  tracing_overhead(rekey_p50,
                                   balanced_p50(plain.rekey_by_kind[0],
                                                plain.rekey_by_kind[1])));
    double storage_us = 0.0;
    if (backend) {
      const TimedBackend::Totals totals = backend->take();
      report.metric("storage.append_us", totals.append_us.median());
      report.metric("storage.sync_us_p50", totals.sync_us.median());
      report.metric("storage.sync_us_p99", totals.sync_us.quantile(0.99));
      report.metric("storage.bytes_per_op",
                    static_cast<double>(totals.bytes) / ops);
      storage_us =
          self_p50(self, "storage.append") + self_p50(self, "storage.sync");
    }

    // keygraph/rekey/merkle from the shadow replay: the request sequence
    // as one shard's tree saw it (the whole sequence at K = 1).
    Window all = plain;
    all.merge(traced);
    all.merge(by_kind[kSolo]);
    std::sort(all.ops.begin(), all.ops.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<UserId> shard_initial;
    for (const UserId user : initial) {
      if (server->shard_of(user) == 0) shard_initial.push_back(user);
    }
    std::vector<Op> shard_ops;
    for (const auto& [sent, op] : all.ops) {
      if (server->shard_of(op.user) == 0) shard_ops.push_back(op);
    }
    ShadowConfig shadow;
    shadow.seed = options.seed;
    shadow.suite = spec.suite;
    shadow.strategy = spec.strategy;
    shadow.signing = spec.signing;
    report_shadow(report, shadow, shard_initial, shard_ops);
    report.metric("server.unattributed_us",
                  unattributed_us(report, rekey_p50,
                                  self_p50(self, "transport.deliver"),
                                  storage_us));
    report.metric("harness.spans", static_cast<double>(Tracer::global().size()));
    measured = std::move(all);
  }

  // --- Correctness, outside the timed region ------------------------------
  std::size_t live_total = 0;
  for (const ChurnGenerator& generator : generators) {
    live_total += generator.live().size();
  }
  report.check(server->member_count() == live_total,
               "member count differs from the generator's live set");
  const kg::SymmetricKey group_key = server->group_key();
  std::mt19937_64 sampler(options.seed);
  for (const ChurnGenerator& generator : generators) {
    const std::vector<UserId>& live = generator.live();
    const std::vector<UserId>& departed = generator.departed();
    for (std::size_t i = 0; i < kSampledMembers; ++i) {
      const UserId member = live[sampler() % live.size()];
      const std::vector<kg::SymmetricKey> keys = server->keyset(member);
      report.check(!keys.empty() && keys.back() == group_key,
                   "a sampled member's keyset does not end in the group key");
      if (departed.empty()) continue;
      const UserId gone = departed[sampler() % departed.size()];
      report.check(!server->has_member(gone),
                   "a departed user is still a member");
      report.check(
          !server->leave_with_token(gone, server->auth().leave_token(gone)),
          "a departed user's leave was accepted");
      report.check(
          !server->resync_with_token(gone, server->auth().resync_token(gone)),
          "a departed user's resync was accepted");
    }
  }
  if (spec.journal) {
    // A fresh server recovered from this run's journal must agree with the
    // live one.
    kg::server::ShardedServerConfig replica_config = config;
    replica_config.base.storage.backend = journal;
    kg::transport::NullTransport replica_transport;
    Server replica(replica_config, replica_transport);
    const std::int64_t start = now_ns();
    try {
      replica.recover_from_storage();
      report.check(replica.epoch() == server->epoch(),
                   "recovered epoch differs from the live server");
      report.check(replica.group_key() == server->group_key(),
                   "recovered group key differs from the live server");
      report.check(replica.member_count() == server->member_count(),
                   "recovered member count differs from the live server");
    } catch (const std::exception& error) {
      report.check(false, std::string("journal recovery failed: ") +
                              error.what());
    }
    report.note("recovery_s",
                json_number(static_cast<double>(now_ns() - start) / 1e9));
  }
  report.attempted = measured.attempted;
  report.failed = measured.failed;
  report.metric("peak_rss_mb", peak_rss_mb());
  report.metric("harness.op_fail_ratio",
                static_cast<double>(measured.failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(measured.attempted, 1)));

  return report;
}

}  // namespace

Report run_churn(const Options& options) {
  Spec spec;
  spec.members = 65536;
  spec.suite = kg::crypto::CryptoSuite::paper_plain();
  spec.strategy = kg::rekey::StrategyKind::kGroupOriented;
  spec.signing = kg::rekey::SigningMode::kNone;
  return run_closed(options, spec);
}

Report run_signed_wal(const Options& options) {
  Spec spec;
  spec.members = 16384;
  spec.shards = 4;
  spec.writers = 2;
  spec.suite = kg::crypto::CryptoSuite::paper_signed();
  spec.strategy = kg::rekey::StrategyKind::kKeyOriented;
  spec.signing = kg::rekey::SigningMode::kBatch;
  spec.journal = true;
  return run_closed(options, spec);
}

}  // namespace keybench
