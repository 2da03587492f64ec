// Table 2 — Cost of a join/leave operation in key encryptions/decryptions,
// for (a) the requesting user, (b) a non-requesting user, (c) the server,
// across star / tree / complete key graphs. All "measured" numbers come
// from live protocol runs (server encryption counters and client
// decryption counters), printed beside the paper's formulas.
#include <cstdio>

#include "analysis/cost_model.h"
#include "bench_util.h"
#include "keygraph/complete_graph.h"
#include "sim/simulator.h"

namespace keygraphs {
namespace {

struct Measured {
  double server_join = 0, server_leave = 0;
  double req_join = 0;                      // requesting user decryptions
  double nonreq_join = 0, nonreq_leave = 0; // per non-requesting member
};

// Run a short churn with clients attached and measure all three roles.
Measured measure_tree(int degree, bool star, std::size_t n,
                      std::size_t requests) {
  server::ServerConfig config;
  config.tree_degree = degree;
  config.strategy = rekey::StrategyKind::kKeyOriented;
  config.rng_seed = 7;
  if (star) config = server::ServerConfig::star(config);

  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);
  sim::ClientSimulator simulator(server, network);
  sim::WorkloadGenerator workload(3);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }
  simulator.materialize_from_tree();
  server.stats().reset();

  // Requesting-user join cost: join a fresh user and read its client's
  // decrypt counter directly.
  double req_join = 0;
  std::size_t probes = 0;
  const std::vector<sim::Request> churn = workload.churn(requests);
  for (const sim::Request& request : churn) {
    simulator.apply(request);
    if (request.kind == sim::RequestKind::kJoin) {
      req_join += static_cast<double>(
          simulator.client(request.user).totals().keys_decrypted);
      ++probes;
    }
  }

  Measured measured;
  measured.server_join =
      server.stats().summarize(rekey::RekeyKind::kJoin).avg_encryptions;
  measured.server_leave =
      server.stats().summarize(rekey::RekeyKind::kLeave).avg_encryptions;
  measured.req_join = probes ? req_join / static_cast<double>(probes) : 0;
  double join_dec = 0, leave_dec = 0;
  std::size_t joins = 0, leaves = 0;
  for (const sim::ClientOpRecord& record : simulator.records()) {
    if (record.members == 0) continue;
    const double per_member = static_cast<double>(record.keys_decrypted) /
                              static_cast<double>(record.members);
    if (record.kind == sim::RequestKind::kJoin) {
      join_dec += per_member;
      ++joins;
    } else {
      leave_dec += per_member;
      ++leaves;
    }
  }
  measured.nonreq_join = joins ? join_dec / static_cast<double>(joins) : 0;
  measured.nonreq_leave =
      leaves ? leave_dec / static_cast<double>(leaves) : 0;
  return measured;
}

void run() {
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 1024);
  const std::size_t requests = std::min<std::size_t>(bench::requests(), 300);
  const int d = 4;
  const Measured star = measure_tree(d, true, std::min<std::size_t>(n, 256),
                                     requests);
  const Measured tree = measure_tree(d, false, n, requests);

  crypto::SecureRandom rng(5);
  CompleteGraph complete(crypto::CipherAlgorithm::kDes, rng);
  const std::size_t complete_n = 8;
  CompleteOpCost complete_join{};
  for (UserId user = 1; user <= complete_n; ++user) {
    complete_join = complete.join(user);
  }
  const CompleteOpCost complete_leave = complete.leave(3);

  const std::size_t star_n = std::min<std::size_t>(n, 256);
  std::printf("Table 2: cost of a join/leave (key encryptions/decryptions)\n");
  std::printf("tree: n=%zu d=%d (paper h=%0.1f), key-oriented; star: n=%zu; "
              "complete: n=%zu\n\n",
              n, d, analysis::tree_height(n, d), star_n, complete_n);

  sim::TablePrinter table({{"role/op", 22},
                           {"star meas", 10},
                           {"star paper", 11},
                           {"tree meas", 10},
                           {"tree paper", 11},
                           {"complete meas", 14},
                           {"complete paper", 15}});
  table.header();
  using P = sim::TablePrinter;
  const auto star_server = analysis::star_server_cost(star_n);
  const auto tree_server = analysis::tree_server_cost(n, d);
  const auto complete_server = analysis::complete_server_cost(complete_n - 1);
  const auto tree_req = analysis::tree_requesting_cost(n, d);
  const auto tree_nonreq = analysis::tree_nonrequesting_cost(n, d);

  table.row({"server join", P::num(star.server_join, 1),
             P::num(star_server.join, 0), P::num(tree.server_join, 1),
             P::num(tree_server.join, 1),
             P::num(complete_join.server_encryptions),
             P::num(complete_server.join, 0)});
  table.row({"server leave", P::num(star.server_leave, 1),
             P::num(star_server.leave, 0), P::num(tree.server_leave, 1),
             P::num(tree_server.leave, 1),
             P::num(complete_leave.server_encryptions),
             P::num(complete_server.leave, 0)});
  table.row({"requesting join", P::num(1.0, 1), P::num(1.0, 0),
             P::num(tree.req_join, 1), P::num(tree_req.join, 1),
             P::num(complete_join.requesting_user_decryptions),
             P::num(analysis::complete_requesting_cost(complete_n - 1).join,
                    0)});
  table.row({"requesting leave", P::num(0.0, 0), P::num(0.0, 0),
             P::num(0.0, 0), P::num(0.0, 0),
             P::num(complete_leave.requesting_user_decryptions),
             P::num(0.0, 0)});
  table.row({"non-requesting join", P::num(star.nonreq_join, 2),
             P::num(1.0, 0), P::num(tree.nonreq_join, 2),
             P::num(tree_nonreq.join, 2),
             P::num(complete_join.non_requesting_user_decryptions, 0),
             P::num(analysis::complete_nonrequesting_cost(complete_n - 1)
                        .join, 0)});
  table.row({"non-requesting leave", P::num(star.nonreq_leave, 2),
             P::num(1.0, 0), P::num(tree.nonreq_leave, 2),
             P::num(tree_nonreq.leave, 2),
             P::num(complete_leave.non_requesting_user_decryptions, 0),
             P::num(0.0, 0)});
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::run();
  return 0;
}
