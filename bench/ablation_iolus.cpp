// Ablation — key graphs vs Iolus (paper Section 6), quantified.
//
// Both systems turn the O(n) leave problem into a hierarchy problem; they
// differ in WHERE the "1 affects n" work lands. The key tree pays
// ~d*log_d(n) encryptions per membership change and nothing per data
// message; Iolus pays ~subgroup-size per change and ~#agents re-wraps per
// confidential data message. This bench sweeps the traffic mix (data
// messages per membership change) and reports total crypto operations per
// event for both, locating the crossover the paper reasons about
// qualitatively. It also reports the trust and state footprint.
#include <cstdio>

#include "bench_util.h"
#include "iolus/iolus.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

struct SystemCost {
  double ops_per_event = 0;  // key encryptions+decryptions per event
};

SystemCost run_lkh(std::size_t n, std::size_t churn, std::size_t data,
                   std::uint64_t seed) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.rng_seed = seed;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  sim::WorkloadGenerator workload(seed);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }
  server.stats().reset();
  for (const sim::Request& request : workload.churn(churn, 0.5)) {
    if (request.kind == sim::RequestKind::kJoin) {
      server.join(request.user);
    } else {
      server.leave(request.user);
    }
  }
  const server::Summary all = server.stats().summarize_all();
  // Data messages under a shared group key: one payload encryption by the
  // sender, no server/agent work. Count it for fairness.
  const double total = all.avg_encryptions * static_cast<double>(churn) +
                       static_cast<double>(data);
  return {total / static_cast<double>(churn + data)};
}

SystemCost run_iolus(std::size_t n, std::size_t agents, std::size_t churn,
                     std::size_t data, std::uint64_t seed) {
  iolus::IolusNetwork network(
      iolus::IolusConfig{agents, crypto::CipherAlgorithm::kDes, seed});
  sim::WorkloadGenerator workload(seed);
  for (const sim::Request& request : workload.initial_joins(n)) {
    network.join(request.user);
  }
  double total = 0;
  std::size_t events = 0;
  const std::vector<sim::Request> requests = workload.churn(churn, 0.5);
  const std::size_t data_per_change = data / std::max<std::size_t>(churn, 1);
  for (const sim::Request& request : requests) {
    iolus::IolusCost cost;
    if (request.kind == sim::RequestKind::kJoin) {
      cost = network.join(request.user);
    } else {
      cost = network.leave(request.user);
    }
    total += static_cast<double>(cost.key_encryptions);
    ++events;
    for (std::size_t i = 0; i < data_per_change; ++i) {
      iolus::IolusCost data_cost;
      (void)network.send(request.kind == sim::RequestKind::kJoin
                             ? request.user
                             : 1,
                         bytes_of("payload"), &data_cost);
      total +=
          static_cast<double>(data_cost.key_encryptions +
                              data_cost.key_decryptions);
      ++events;
    }
  }
  return {total / static_cast<double>(events)};
}

void run() {
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 1024);
  const std::size_t churn = std::min<std::size_t>(bench::requests(), 400);
  std::printf("Ablation: key tree (d=4) vs Iolus, n=%zu, %zu membership "
              "changes\n", n, churn);
  std::printf("cost = key encryptions+decryptions per event "
              "(event = one membership change or one data message)\n");
  std::printf("Iolus leave costs ~n/agents, but every data message costs "
              "~#agents re-wraps;\nLKH pays ~d*log_d(n) per change and "
              "1 per message. Crossover expected only for\nmany agents "
              "(cheap local rekeys) and churn-dominated traffic.\n\n");
  sim::TablePrinter table({{"agents", 7},
                           {"data:churn", 11},
                           {"LKH ops/event", 14},
                           {"Iolus ops/event", 16},
                           {"winner", 8}});
  table.header();
  for (std::size_t agents : {16u, 64u, 128u}) {
    for (std::size_t ratio : {0u, 1u, 4u, 16u}) {
      const std::size_t data = churn * ratio;
      const SystemCost lkh = run_lkh(n, churn, data, 11);
      const SystemCost iolus_cost = run_iolus(n, agents, churn, data, 11);
      table.row({sim::TablePrinter::num(agents),
                 sim::TablePrinter::num(ratio),
                 sim::TablePrinter::num(lkh.ops_per_event, 2),
                 sim::TablePrinter::num(iolus_cost.ops_per_event, 2),
                 lkh.ops_per_event <= iolus_cost.ops_per_event ? "LKH"
                                                               : "Iolus"});
    }
    table.rule();
  }
  std::printf("\ntrust footprint: LKH = 1 trusted key server; Iolus = "
              "every agent + the GSC\n");
  std::printf("(Sec. 6: Iolus shifts the '1 affects n' work from rekey "
              "time to data-send time)\n");
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::bench::emit_header_json("ablation_iolus");
  keygraphs::run();
  return 0;
}
