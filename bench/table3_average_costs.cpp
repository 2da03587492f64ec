// Table 3 — Average cost per operation with a 1:1 join/leave mix: the
// server's average key encryptions and a member's average decryptions, for
// star vs tree (d=4) vs complete graphs, measured vs the paper's formulas
// n/2, (d+2)(h-1)/2 and 2^n.
#include <cstdio>

#include "analysis/cost_model.h"
#include "bench_util.h"
#include "keygraph/complete_graph.h"
#include "sim/simulator.h"

namespace keygraphs {
namespace {

struct Averages {
  double server = 0;
  double user = 0;
};

Averages run_mixed(bool star, std::size_t n, std::size_t requests) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kKeyOriented;
  config.rng_seed = 13;
  if (star) config = server::ServerConfig::star(config);

  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);
  sim::ClientSimulator simulator(server, network);
  sim::WorkloadGenerator workload(2);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }
  simulator.materialize_from_tree();
  server.stats().reset();
  simulator.apply_all(workload.churn(requests, 0.5));

  Averages averages;
  averages.server = server.stats().summarize_all().avg_encryptions;
  double decryptions = 0;
  std::size_t counted = 0;
  for (const sim::ClientOpRecord& record : simulator.records()) {
    if (record.members == 0) continue;
    decryptions += static_cast<double>(record.keys_decrypted) /
                   static_cast<double>(record.members);
    ++counted;
  }
  averages.user = counted ? decryptions / static_cast<double>(counted) : 0;
  return averages;
}

void run() {
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 1024);
  const std::size_t star_n = std::min<std::size_t>(n, 256);
  const std::size_t requests = std::min<std::size_t>(bench::requests(), 400);

  const Averages star = run_mixed(true, star_n, requests);
  const Averages tree = run_mixed(false, n, requests);

  // Complete graph averaged over a join+leave pair at n=8.
  crypto::SecureRandom rng(9);
  CompleteGraph complete(crypto::CipherAlgorithm::kDes, rng);
  for (UserId user = 1; user <= 8; ++user) complete.join(user);
  const CompleteOpCost leave_cost = complete.leave(2);
  const CompleteOpCost join_cost = complete.join(20);
  const double complete_server =
      static_cast<double>(join_cost.server_encryptions +
                          leave_cost.server_encryptions) / 2.0;
  const double complete_user = (join_cost.non_requesting_user_decryptions +
                                leave_cost.non_requesting_user_decryptions) /
                               2.0;

  std::printf(
      "Table 3: average cost per operation (1:1 join/leave ratio)\n");
  std::printf("star n=%zu; tree n=%zu d=4; complete n=8; %zu requests\n\n",
              star_n, n, requests);
  sim::TablePrinter table({{"cost", 18},
                           {"star meas", 10},
                           {"star paper", 11},
                           {"tree meas", 10},
                           {"tree paper", 11},
                           {"complete meas", 14},
                           {"complete paper", 15}});
  table.header();
  using P = sim::TablePrinter;
  table.row({"server (enc)", P::num(star.server, 1),
             P::num(analysis::star_avg_server_cost(star_n), 0),
             P::num(tree.server, 1),
             P::num(analysis::tree_avg_server_cost(n, 4), 1),
             P::num(complete_server, 0),
             P::num(analysis::complete_avg_server_cost(8), 0)});
  table.row({"user (dec)", P::num(star.user, 2), P::num(1.0, 0),
             P::num(tree.user, 2),
             P::num(analysis::tree_avg_user_cost(4), 2),
             P::num(complete_user, 0), "~2^n"});
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::run();
  return 0;
}
