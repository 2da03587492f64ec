// Ablation — seal-phase parallelism in the plan/seal/dispatch pipeline.
//
// The pipeline split moves every encryption, digest and signature out of
// the planning critical section into the RekeyExecutor, which fans the
// work across seal_threads pool threads. This bench measures what that
// buys on the heaviest realistic load: signed (batch-signature)
// group-oriented batch rekeys on an n = 4096 group, where one operation
// seals dozens of multicast messages. Output bytes are identical for
// every thread count — only the wall clock moves.
//
//   KG_GROUP_SIZE   initial group size (default 4096)
//   KG_REQUESTS     membership changes measured (default 1000)
//   KG_BATCH        changes per batch() call (default 128)
//   KG_BENCH_JSON   file to append per-point JSON lines to
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

struct Interval {
  std::vector<UserId> joins;
  std::vector<UserId> leaves;
};

/// The same churn schedule for every thread count: identical plans,
/// identical bytes, only the seal schedule differs.
std::vector<Interval> make_schedule(std::size_t n, std::size_t changes,
                                    std::size_t batch_size) {
  sim::WorkloadGenerator workload(9);
  // Consume the initial joins so every run's churn starts from the same
  // generator state as the server build below.
  (void)workload.initial_joins(n);
  std::vector<Interval> schedule;
  std::size_t applied = 0;
  while (applied < changes) {
    const std::size_t this_batch = std::min(batch_size, changes - applied);
    Interval interval;
    for (const sim::Request& request : workload.churn(this_batch, 0.5)) {
      if (request.kind == sim::RequestKind::kJoin) {
        interval.joins.push_back(request.user);
      } else if (std::erase(interval.joins, request.user) == 0) {
        interval.leaves.push_back(request.user);
      }
    }
    schedule.push_back(std::move(interval));
    applied += this_batch;
  }
  return schedule;
}

struct Point {
  double wall_ms = 0.0;       // total wall time for the measured churn
  double changes_per_s = 0.0;
  bench::AveragedResult averaged;  // avg batch-op processing + stages
};

Point run(std::size_t n, std::size_t seal_threads,
          const std::vector<Interval>& schedule, std::size_t changes) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kNone;  // build phase unsigned
  config.rng_seed = 5151;
  config.seal_threads = seal_threads;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  sim::WorkloadGenerator workload(9);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }
  server.set_signing_mode(rekey::SigningMode::kBatch);
  server.stats().reset();

  const auto start = std::chrono::steady_clock::now();
  for (const Interval& interval : schedule) {
    server.batch(interval.joins, interval.leaves);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  Point point;
  point.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  point.changes_per_s =
      static_cast<double>(changes) / (point.wall_ms / 1000.0);
  const server::Summary batch =
      server.stats().summarize(rekey::RekeyKind::kBatch);
  point.averaged.all_ms = batch.avg_processing_ms;
  point.averaged.stage_us = batch.avg_stage_us;
  return point;
}

void main_impl() {
  bench::emit_header_json("ablation_pipeline", {{"max_seal_threads", 8}});
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 4096);
  const std::size_t changes = bench::env_size("KG_REQUESTS", 1000);
  const std::size_t batch_size = bench::env_size("KG_BATCH", 128);
  const std::vector<Interval> schedule =
      make_schedule(n, changes, batch_size);

  std::printf("Ablation: seal-phase parallelism, n=%zu, %zu changes in "
              "batches of %zu\n", n, changes, batch_size);
  std::printf("group-oriented, DES + MD5 + RSA-512 batch signature; wire "
              "bytes identical across thread counts\n");
  std::printf("host has %u hardware threads; the seal phase is CPU-bound, "
              "so speedup is capped by the core count\n\n",
              std::thread::hardware_concurrency());
  sim::TablePrinter table({{"threads", 8},
                           {"wall ms", 10},
                           {"batch ms", 10},
                           {"changes/s", 11},
                           {"speedup", 8}});
  table.header();
  double baseline_ms = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const Point point = run(n, threads, schedule, changes);
    if (threads == 1) baseline_ms = point.wall_ms;
    table.row({sim::TablePrinter::num(threads),
               sim::TablePrinter::num(point.wall_ms, 1),
               sim::TablePrinter::num(point.averaged.all_ms, 2),
               sim::TablePrinter::num(point.changes_per_s, 0),
               sim::TablePrinter::num(baseline_ms / point.wall_ms, 2)});
    bench::emit_point_json("ablation_pipeline", /*signed_mode=*/true,
                           "seal_threads", threads,
                           rekey::StrategyKind::kGroupOriented,
                           point.averaged);
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
