// Client simulator (paper Section 5: "A client-simulator runs on the other
// SGI simulating a large number of clients").
//
// Hosts up to thousands of GroupClient instances on an InProcNetwork,
// drives join/leave requests end to end (authentication, admission, rekey
// delivery, subscription maintenance, departure), and collects the
// client-side statistics of Table 6 and Figure 12.
#pragma once

#include <map>
#include <memory>

#include "client/client.h"
#include "server/sharded_server.h"
#include "sim/workload.h"
#include "transport/inproc.h"

namespace keygraphs::sim {

struct SimulatorConfig {
  /// Clients verify signatures/digests. Off by default: the paper excludes
  /// client-side authentication work from its measurements, and the big
  /// sweeps would otherwise spend all their time in RSA verify.
  bool clients_verify = false;
  std::uint64_t client_seed = 7;
};

/// Per-operation client-side totals (summed over all member clients).
struct ClientOpRecord {
  RequestKind kind = RequestKind::kJoin;
  std::size_t members = 0;        // group size when the request ran
  std::size_t messages = 0;       // rekey messages received by clients
  std::size_t bytes = 0;          // bytes received by clients
  std::size_t keys_changed = 0;   // Fig. 12 numerator
  std::size_t keys_decrypted = 0;
  std::size_t max_client_messages = 0;  // per-client max (Table 6 check)
};

class ClientSimulator {
 public:
  ClientSimulator(server::ShardedGroupKeyServer& server,
                  transport::InProcNetwork& network,
                  SimulatorConfig config = {});

  /// Builds clients for every user already in the server's tree, installing
  /// keyset snapshots (used after an unmeasured server-only build phase).
  void materialize_from_tree();

  /// Drives one request end to end and records client-side stats.
  void apply(const Request& request);

  /// Applies a whole sequence.
  void apply_all(const std::vector<Request>& requests);

  /// Drives one batched membership update end to end (periodic rekeying):
  /// leavers detach first, joiners attach, the server rekeys once.
  void apply_batch(const std::vector<UserId>& join_users,
                   const std::vector<UserId>& leave_users);

  [[nodiscard]] client::GroupClient& client(UserId user);
  [[nodiscard]] bool has_client(UserId user) const;
  [[nodiscard]] std::size_t member_count() const { return clients_.size(); }

  [[nodiscard]] const std::vector<ClientOpRecord>& records() const noexcept {
    return records_;
  }

  /// Average number of key changes by a client per request (Fig. 12):
  /// mean over requests of (total key changes / members present).
  [[nodiscard]] double avg_key_changes_per_request() const;

  /// Average rekey messages received per member client per request
  /// (Table 6 reports this as exactly 1 for all strategies).
  [[nodiscard]] double avg_messages_per_client_per_request() const;

  /// Average size of rekey messages received by clients, split by op kind
  /// (Table 6's per-join / per-leave columns).
  [[nodiscard]] double avg_received_message_bytes(RequestKind kind) const;

 private:
  void attach(UserId user, bool install_individual);
  client::ClientConfig client_config(UserId user) const;

  server::ShardedGroupKeyServer& server_;
  transport::InProcNetwork& network_;
  SimulatorConfig config_;
  std::map<UserId, std::unique_ptr<client::GroupClient>> clients_;
  std::vector<ClientOpRecord> records_;
  ClientOpRecord current_;     // accumulator wired into delivery handlers
  UserId excluded_user_ = 0;   // requester excluded from per-client stats
};

}  // namespace keygraphs::sim
