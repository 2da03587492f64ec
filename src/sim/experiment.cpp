#include "sim/experiment.h"

#include "common/error.h"

namespace keygraphs::sim {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  server::ServerConfig server_config;
  server_config.tree_degree = config.degree;
  server_config.suite = config.suite;
  server_config.strategy = config.strategy;
  const bool defer_signing =
      config.build_unsigned && config.signing != rekey::SigningMode::kNone;
  server_config.signing =
      defer_signing ? rekey::SigningMode::kNone : config.signing;
  server_config.rng_seed = config.seed * 2654435761u + 1;
  if (config.star) {
    server_config = server::ServerConfig::star(server_config);
  }

  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(
      server::ShardedServerConfig{server_config}, network);
  ClientSimulator simulator(server, network,
                            SimulatorConfig{config.clients_verify,
                                            config.seed * 31 + 7});

  WorkloadGenerator workload(config.seed);

  // Build phase: server only (no clients attached; deliveries fall on empty
  // subgroups). Not measured.
  for (const Request& request : workload.initial_joins(config.initial_size)) {
    if (server.join(request.user) != server::JoinResult::kGranted) {
      throw ProtocolError("experiment: build join rejected");
    }
  }
  if (defer_signing) server.set_signing_mode(config.signing);
  if (config.with_clients) simulator.materialize_from_tree();
  server.stats().reset();
  network.reset_counters();

  // Measured phase.
  const std::vector<Request> churn =
      workload.churn(config.requests, config.join_fraction);
  if (config.with_clients) {
    simulator.apply_all(churn);
  } else {
    for (const Request& request : churn) {
      if (request.kind == RequestKind::kJoin) {
        if (server.join(request.user) != server::JoinResult::kGranted) {
          throw ProtocolError("experiment: churn join rejected");
        }
      } else {
        server.leave(request.user);
      }
    }
  }

  ExperimentResult result;
  result.join = server.stats().summarize(rekey::RekeyKind::kJoin);
  result.leave = server.stats().summarize(rekey::RekeyKind::kLeave);
  result.all = server.stats().summarize_all();
  if (config.with_clients) {
    result.client_avg_messages_per_request =
        simulator.avg_messages_per_client_per_request();
    result.client_avg_key_changes = simulator.avg_key_changes_per_request();
    result.client_avg_join_message_bytes =
        simulator.avg_received_message_bytes(RequestKind::kJoin);
    result.client_avg_leave_message_bytes =
        simulator.avg_received_message_bytes(RequestKind::kLeave);
  }
  const keygraphs::TreeViewPtr final_view = server.shard_view(0);
  result.final_size = final_view->user_count();
  result.final_height = final_view->height();
  result.final_keys = final_view->key_count();
  return result;
}

}  // namespace keygraphs::sim
