// Secure group chat over real UDP loopback sockets — the paper's prototype
// topology on one machine: a group key server process-loop and several
// chat clients, exchanging join/leave/rekey datagrams and encrypted chat.
//
// The join request carries an HMAC token from the (simulated)
// authentication service; the leave request carries the paper's
// {leave-request}_{k_u} analogue. Everything crosses a real socket.
//
// Run: ./secure_chat
#include <cstdio>
#include <memory>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/io.h"
#include "server/sharded_server.h"
#include "transport/udp.h"

using namespace keygraphs;

namespace {

// Wire format for control requests (the rekey datagrams themselves are the
// library's standard format).
Bytes make_join_request(UserId user, const server::AuthService& auth) {
  ByteWriter writer;
  writer.u64(user);
  writer.var_bytes(auth.join_token(user));
  return rekey::Datagram{rekey::MessageType::kJoinRequest, writer.take()}
      .encode();
}

Bytes make_leave_request(UserId user, const server::AuthService& auth) {
  ByteWriter writer;
  writer.u64(user);
  writer.var_bytes(auth.leave_token(user));
  return rekey::Datagram{rekey::MessageType::kLeaveRequest, writer.take()}
      .encode();
}

/// The server side: one UDP socket, the key server, and a dispatch loop
/// step that the demo pumps explicitly (a daemon would loop forever).
class ChatServer {
 public:
  ChatServer()
      : transport_(socket_),
        server_(server::ShardedServerConfig{make_config()}, transport_) {}

  [[nodiscard]] transport::Address address() const {
    return socket_.local_address();
  }
  [[nodiscard]] server::ShardedGroupKeyServer& core() { return server_; }

  /// Handles every datagram currently queued on the socket.
  void pump() {
    while (auto received = socket_.receive(50)) {
      const auto& [from, data] = *received;
      const rekey::Datagram datagram = rekey::Datagram::decode(data);
      ByteReader reader(datagram.payload);
      const UserId user = reader.u64();
      const Bytes token = reader.var_bytes();
      if (datagram.type == rekey::MessageType::kJoinRequest) {
        transport_.register_user(user, from);
        const auto result = server_.join_with_token(user, token);
        if (result != server::JoinResult::kGranted) {
          transport_.unregister_user(user);
          socket_.send_to(from, rekey::Datagram{
                                    rekey::MessageType::kJoinDenied, {}}
                                    .encode());
        }
        std::printf("[server] join(%llu) -> %s\n",
                    static_cast<unsigned long long>(user),
                    result == server::JoinResult::kGranted ? "granted"
                                                           : "denied");
      } else if (datagram.type == rekey::MessageType::kLeaveRequest) {
        const bool ok = server_.leave_with_token(user, token);
        if (ok) transport_.unregister_user(user);
        socket_.send_to(from,
                        rekey::Datagram{rekey::MessageType::kLeaveAck, {}}
                            .encode());
        std::printf("[server] leave(%llu) -> %s\n",
                    static_cast<unsigned long long>(user),
                    ok ? "granted" : "denied");
      }
    }
  }

 private:
  static server::ServerConfig make_config() {
    server::ServerConfig config;
    config.tree_degree = 4;
    config.strategy = rekey::StrategyKind::kGroupOriented;
    config.suite = crypto::CryptoSuite::modern();  // AES / SHA-256 / RSA-2048
    config.signing = rekey::SigningMode::kBatch;
    config.rng_seed = 7;
    return config;
  }

  transport::UdpSocket socket_;
  transport::UdpServerTransport transport_;
  server::ShardedGroupKeyServer server_;
};

/// A chat participant: UDP socket + GroupClient.
class ChatClient {
 public:
  ChatClient(std::string name, UserId user, const ChatServer& server,
             const server::ShardedGroupKeyServer& core)
      : name_(std::move(name)), user_(user), server_address_(server.address()),
        auth_(core.auth()), logic_(make_config(user, core),
                                   core.public_key()) {
    logic_.install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        auth_.individual_key(user, core.config().base.suite.key_size())});
  }

  void request_join() {
    socket_.send_to(server_address_, make_join_request(user_, auth_));
  }
  void request_leave() {
    socket_.send_to(server_address_, make_leave_request(user_, auth_));
  }

  /// Drains the socket, applying rekey messages.
  void pump() {
    while (auto received = socket_.receive(50)) {
      const client::RekeyOutcome outcome =
          logic_.handle_datagram(received->second);
      if (outcome.keys_changed > 0) {
        std::printf("[%s] installed %zu new key(s), group key v%u\n",
                    name_.c_str(), outcome.keys_changed,
                    logic_.group_key()->version);
      }
    }
  }

  void say(const std::string& text, std::vector<ChatClient*>& peers) {
    const Bytes sealed = logic_.seal_application(bytes_of(text));
    std::printf("[%s] says (ciphertext %zu bytes): %s\n", name_.c_str(),
                sealed.size(), text.c_str());
    for (ChatClient* peer : peers) {
      if (peer == this) continue;
      try {
        const Bytes plain = peer->logic_.open_application(sealed);
        std::printf("  [%s] hears: %.*s\n", peer->name_.c_str(),
                    static_cast<int>(plain.size()), plain.data());
      } catch (const Error&) {
        std::printf("  [%s] cannot decrypt (not a member)\n",
                    peer->name_.c_str());
      }
    }
  }

  [[nodiscard]] const transport::Address& address() const {
    return server_address_;
  }
  [[nodiscard]] client::GroupClient& logic() { return logic_; }

 private:
  static client::ClientConfig make_config(
      UserId user, const server::ShardedGroupKeyServer& core) {
    client::ClientConfig config;
    config.user = user;
    config.suite = core.config().base.suite;
    config.root = core.root_id();
    config.verify = true;
    return config;
  }

  std::string name_;
  UserId user_;
  transport::Address server_address_;
  const server::AuthService& auth_;
  transport::UdpSocket socket_;
  client::GroupClient logic_;
};

}  // namespace

int main() {
  ChatServer server;
  std::printf("group key server on %s (AES-128 / SHA-256 / RSA-2048, "
              "group-oriented, batch-signed)\n\n",
              server.address().to_string().c_str());

  ChatClient alice("alice", 1, server, server.core());
  ChatClient bob("bob", 2, server, server.core());
  ChatClient carol("carol", 3, server, server.core());
  std::vector<ChatClient*> everyone{&alice, &bob, &carol};

  alice.request_join();
  bob.request_join();
  server.pump();
  alice.pump();
  bob.pump();

  alice.say("hi bob, just us for now", everyone);

  carol.request_join();
  server.pump();
  for (ChatClient* peer : everyone) peer->pump();
  carol.say("carol here — I could NOT read anything from before I joined",
            everyone);

  bob.request_leave();
  server.pump();
  for (ChatClient* peer : everyone) peer->pump();
  std::printf("\nafter bob leaves, the group rekeys:\n");
  alice.say("bob is gone; this is confidential again", everyone);
  return 0;
}
