// Ablation — batch (periodic) rekeying vs per-request rekeying.
//
// The periodic-rekeying extension trades eviction latency for cost: all
// membership changes of an interval are rekeyed in one pass, so the server
// pays for the *union* of the affected paths instead of their sum. This
// bench sweeps the batch size at fixed churn and reports key encryptions
// and bytes per membership change — the amortization curve that motivates
// interval-based rekeying for very high churn.
#include <cstdio>

#include "bench_util.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

struct Point {
  double encryptions_per_change = 0;
  double bytes_per_change = 0;
  double messages_per_change = 0;
};

Point run(std::size_t n, std::size_t batch_size, std::size_t total_changes) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.rng_seed = 5150;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  sim::WorkloadGenerator workload(9);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }
  server.stats().reset();

  std::size_t applied = 0;
  while (applied < total_changes) {
    const std::size_t this_batch =
        std::min(batch_size, total_changes - applied);
    std::vector<UserId> joins, leaves;
    for (const sim::Request& request : workload.churn(this_batch, 0.5)) {
      if (request.kind == sim::RequestKind::kJoin) {
        joins.push_back(request.user);
      } else if (std::erase(joins, request.user) == 0) {
        // A join and leave of the same user within one interval annihilate:
        // that member never needs any key.
        leaves.push_back(request.user);
      }
    }
    if (batch_size == 1) {
      // Per-request baseline: the paper's normal operation.
      for (UserId user : joins) server.join(user);
      for (UserId user : leaves) server.leave(user);
    } else {
      server.batch(joins, leaves);
    }
    applied += this_batch;
  }

  Point point;
  const server::Summary all = server.stats().summarize_all();
  const double changes = static_cast<double>(applied);
  const double ops = static_cast<double>(all.operations);
  point.encryptions_per_change = all.avg_encryptions * ops / changes;
  point.bytes_per_change = all.avg_total_bytes * ops / changes;
  point.messages_per_change = all.avg_messages * ops / changes;
  return point;
}

void main_impl() {
  bench::emit_header_json("ablation_batch_rekey");
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 4096);
  const std::size_t changes = std::max<std::size_t>(bench::requests(), 512);
  std::printf("Ablation: batch rekeying, n=%zu, %zu membership changes, "
              "1:1 join/leave, group-oriented\n", n, changes);
  std::printf("batch size 1 = the paper's per-request rekeying\n\n");
  sim::TablePrinter table({{"batch", 7},
                           {"enc/change", 11},
                           {"bytes/change", 13},
                           {"msgs/change", 12}});
  table.header();
  for (std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const Point point = run(n, batch, changes);
    table.row({sim::TablePrinter::num(batch),
               sim::TablePrinter::num(point.encryptions_per_change, 2),
               sim::TablePrinter::num(point.bytes_per_change, 0),
               sim::TablePrinter::num(point.messages_per_change, 2)});
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
