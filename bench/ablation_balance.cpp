// Ablation — the "full and balanced" heuristic under sustained churn
// (paper Section 5: "the server employs a heuristic that attempts to build
// and maintain a key tree that is full and balanced ... it is unlikely that
// the tree is truly full and balanced at any time").
// We measure how far the tree drifts from the balanced optimum over long
// runs with different join:leave mixes, and how that drift shows up in the
// server's per-operation cost.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

void run_mix(double join_fraction, const char* label) {
  const int degree = 4;
  server::ServerConfig config;
  config.tree_degree = degree;
  config.strategy = rekey::StrategyKind::kKeyOriented;
  config.rng_seed = 97;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  sim::WorkloadGenerator workload(5);
  for (const sim::Request& request : workload.initial_joins(1024)) {
    server.join(request.user);
  }

  std::printf("\nmix %s (join fraction %.2f), degree %d, start n=1024\n",
              label, join_fraction, degree);
  sim::TablePrinter table({{"ops", 8},
                           {"n", 7},
                           {"height", 7},
                           {"optimal", 8},
                           {"excess", 7},
                           {"enc/op", 8}});
  table.header();

  const std::size_t rounds = 8;
  const std::size_t per_round =
      std::max<std::size_t>(bench::requests() / 2, 200);
  for (std::size_t round = 1; round <= rounds; ++round) {
    server.stats().reset();
    for (const sim::Request& request :
         workload.churn(per_round, join_fraction)) {
      if (request.kind == sim::RequestKind::kJoin) {
        server.join(request.user);
      } else {
        server.leave(request.user);
      }
    }
    server.tree().shard(0).check_invariants();
    const std::size_t n = server.member_count();
    const double optimal =
        n > 1 ? std::log(static_cast<double>(n)) / std::log(degree) : 0.0;
    const double height = static_cast<double>(server.shard_view(0)->height());
    using P = sim::TablePrinter;
    table.row({P::num(round * per_round), P::num(n), P::num(height, 0),
               P::num(optimal, 2), P::num(height - optimal, 2),
               P::num(server.stats().summarize_all().avg_encryptions, 1)});
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::bench::emit_header_json("ablation_balance");
  std::printf("Ablation: height drift of the balance heuristic under "
              "churn\n");
  keygraphs::run_mix(0.5, "1:1 (paper)");
  keygraphs::run_mix(0.7, "join-heavy 7:3");
  keygraphs::run_mix(0.3, "leave-heavy 3:7");
  return 0;
}
