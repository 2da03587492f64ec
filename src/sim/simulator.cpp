#include "sim/simulator.h"

#include "common/error.h"
#include "telemetry/trace.h"

namespace keygraphs::sim {

namespace {

// Per-request latency as the simulator sees it: client detach/attach plus the
// full server round trip (rekey fan-out included, since inproc is synchronous).
telemetry::Histogram& request_histogram(RequestKind kind) {
  auto& registry = telemetry::Registry::global();
  static auto& join_ns = registry.histogram("sim.request_ns.join");
  static auto& leave_ns = registry.histogram("sim.request_ns.leave");
  return kind == RequestKind::kJoin ? join_ns : leave_ns;
}

telemetry::Counter& request_counter(RequestKind kind) {
  auto& registry = telemetry::Registry::global();
  static auto& joins = registry.counter("sim.requests.join");
  static auto& leaves = registry.counter("sim.requests.leave");
  return kind == RequestKind::kJoin ? joins : leaves;
}

}  // namespace

ClientSimulator::ClientSimulator(server::ShardedGroupKeyServer& server,
                                 transport::InProcNetwork& network,
                                 SimulatorConfig config)
    : server_(server), network_(network), config_(config) {}

client::ClientConfig ClientSimulator::client_config(UserId user) const {
  client::ClientConfig config;
  config.user = user;
  config.suite = server_.config().base.suite;
  config.group = server_.config().base.group;
  config.root = server_.root_id();
  config.verify = config_.clients_verify;
  config.rng_seed = config_.client_seed ^ (user * 0x9e3779b97f4a7c15ull);
  return config;
}

void ClientSimulator::attach(UserId user, bool install_individual) {
  auto owned = std::make_unique<client::GroupClient>(client_config(user),
                                                     server_.public_key());
  client::GroupClient* handle = owned.get();
  if (install_individual) {
    // The same derivation the server's authentication exchange performs.
    handle->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server_.auth().individual_key(
            user, server_.config().base.suite.key_size())});
  }
  clients_.emplace(user, std::move(owned));
  network_.attach_client(user, [this, handle, user](BytesView datagram) {
    const client::RekeyOutcome outcome = handle->handle_datagram(datagram);
    if (user != excluded_user_) {
      // The requesting user's own welcome message is excluded, matching the
      // paper's per-client numbers, which describe non-requesting members.
      ++current_.messages;
      current_.bytes += outcome.wire_size;
      current_.keys_changed += outcome.keys_changed;
      current_.keys_decrypted += outcome.keys_decrypted;
    }
    // Keysets define multicast membership: resubscribe after every change.
    network_.resubscribe(user, handle->key_ids());
  });
  network_.resubscribe(user, handle->key_ids());
}

void ClientSimulator::materialize_from_tree() {
  // Call between operations: every client's snapshot comes from the same
  // quiescent group state.
  const std::uint64_t epoch = server_.epoch();
  for (std::size_t shard = 0; shard < server_.shard_count(); ++shard) {
    for (UserId user : server_.shard_view(shard)->users()) {
      if (clients_.contains(user)) continue;
      attach(user, /*install_individual=*/false);
      client::GroupClient& handle = *clients_.at(user);
      handle.admit_snapshot(server_.keyset(user), epoch);
      network_.resubscribe(user, handle.key_ids());
    }
  }
}

void ClientSimulator::apply(const Request& request) {
  const bool telemetry_on = telemetry::enabled();
  const std::uint64_t started =
      telemetry_on ? telemetry::steady_now_ns() : 0;
  current_ = ClientOpRecord{};
  current_.kind = request.kind;

  if (request.kind == RequestKind::kJoin) {
    current_.members = clients_.size();  // receivers of this op's rekeys
    excluded_user_ = request.user;
    attach(request.user, /*install_individual=*/true);
    const server::JoinResult result = server_.join(request.user);
    excluded_user_ = 0;
    if (result != server::JoinResult::kGranted) {
      network_.detach_client(request.user);
      clients_.erase(request.user);
      throw ProtocolError("simulator: join rejected");
    }
  } else {
    auto it = clients_.find(request.user);
    if (it == clients_.end()) {
      throw ProtocolError("simulator: leave for unknown client");
    }
    // The departing member stops listening before the rekey goes out; the
    // paper's Table 6 counts messages received by members only.
    network_.detach_client(request.user);
    it->second->forget_keys();
    clients_.erase(it);
    current_.members = clients_.size();
    server_.leave(request.user);
  }
  if (telemetry_on) {
    request_counter(request.kind).add(1);
    request_histogram(request.kind).record(telemetry::steady_now_ns() -
                                           started);
  }
  records_.push_back(current_);
}

void ClientSimulator::apply_all(const std::vector<Request>& requests) {
  for (const Request& request : requests) apply(request);
}

void ClientSimulator::apply_batch(const std::vector<UserId>& join_users,
                                  const std::vector<UserId>& leave_users) {
  current_ = ClientOpRecord{};
  current_.kind = RequestKind::kJoin;  // batches are recorded under join

  for (UserId user : leave_users) {
    auto it = clients_.find(user);
    if (it == clients_.end()) {
      throw ProtocolError("simulator: batch leave for unknown client");
    }
    network_.detach_client(user);
    it->second->forget_keys();
    clients_.erase(it);
  }
  for (UserId user : join_users) attach(user, /*install_individual=*/true);
  current_.members = clients_.size() - join_users.size();

  const std::vector<UserId> admitted =
      server_.batch(join_users, leave_users);
  if (admitted.size() != join_users.size()) {
    throw ProtocolError("simulator: batch join rejected");
  }
  if (telemetry::enabled()) {
    static auto& batches =
        telemetry::Registry::global().counter("sim.requests.batch");
    batches.add(1);
  }
  records_.push_back(current_);
}

client::GroupClient& ClientSimulator::client(UserId user) {
  auto it = clients_.find(user);
  if (it == clients_.end()) throw ProtocolError("simulator: no such client");
  return *it->second;
}

bool ClientSimulator::has_client(UserId user) const {
  return clients_.contains(user);
}

double ClientSimulator::avg_key_changes_per_request() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const ClientOpRecord& record : records_) {
    if (record.members == 0) continue;
    sum += static_cast<double>(record.keys_changed) /
           static_cast<double>(record.members);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double ClientSimulator::avg_messages_per_client_per_request() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const ClientOpRecord& record : records_) {
    if (record.members == 0) continue;
    sum += static_cast<double>(record.messages) /
           static_cast<double>(record.members);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double ClientSimulator::avg_received_message_bytes(RequestKind kind) const {
  std::size_t bytes = 0, messages = 0;
  for (const ClientOpRecord& record : records_) {
    if (record.kind != kind) continue;
    bytes += record.bytes;
    messages += record.messages;
  }
  return messages == 0
             ? 0.0
             : static_cast<double>(bytes) / static_cast<double>(messages);
}

}  // namespace keygraphs::sim
