// Real UDP over loopback: socket round trips, the unicast fan-out server
// transport, and a miniature end-to-end join/rekey/leave session matching
// the paper's UDP prototype.
#include "transport/udp.h"

#include <gtest/gtest.h>

#include <array>

#include "client/client.h"
#include "common/error.h"
#include "server/sharded_server.h"
#include "telemetry/metrics.h"
#include "transport/fault.h"

namespace keygraphs::transport {
namespace {

TEST(Address, ParseAndFormat) {
  const Address address = Address::parse("10.1.2.3", 4567);
  EXPECT_EQ(address.ip, 0x0a010203u);
  EXPECT_EQ(address.port, 4567u);
  EXPECT_EQ(address.to_string(), "10.1.2.3:4567");
  EXPECT_EQ(Address::loopback(80).to_string(), "127.0.0.1:80");
  EXPECT_THROW(Address::parse("not-an-ip", 1), TransportError);
}

TEST(UdpSocket, LoopbackRoundTrip) {
  UdpSocket receiver;  // ephemeral port
  UdpSocket sender;
  const Address to = receiver.local_address();
  sender.send_to(to, bytes_of("ping"));
  const auto received = receiver.receive(2000);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->second, bytes_of("ping"));
  EXPECT_EQ(received->first.port, sender.local_address().port);
}

TEST(UdpSocket, ReceiveTimesOut) {
  UdpSocket socket;
  EXPECT_EQ(socket.receive(50), std::nullopt);
}

TEST(UdpSocket, MoveTransfersOwnership) {
  UdpSocket a;
  const Address address = a.local_address();
  UdpSocket b = std::move(a);
  EXPECT_EQ(b.local_address(), address);
}

TEST(UdpSocket, LargeDatagram) {
  UdpSocket receiver, sender;
  const Bytes big(8000, 0x5a);
  sender.send_to(receiver.local_address(), big);
  const auto received = receiver.receive(2000);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->second, big);
}

TEST(UdpServerTransport, UnicastFanOutForSubgroups) {
  UdpSocket server_socket;
  UdpSocket client1, client2;
  UdpServerTransport transport(server_socket);
  transport.register_user(1, client1.local_address());
  transport.register_user(2, client2.local_address());

  transport.deliver(rekey::Recipient::to_subgroup(42), bytes_of("multi"),
                    [] { return std::vector<UserId>{1, 2}; });
  EXPECT_EQ(transport.datagrams_sent(), 2u);
  EXPECT_EQ(client1.receive(2000)->second, bytes_of("multi"));
  EXPECT_EQ(client2.receive(2000)->second, bytes_of("multi"));

  transport.deliver(rekey::Recipient::to_user(2), bytes_of("uni"),
                    [] { return std::vector<UserId>{}; });
  EXPECT_EQ(client2.receive(2000)->second, bytes_of("uni"));
  EXPECT_EQ(client1.receive(50), std::nullopt);
}

TEST(UdpSocket, OversizedSendFailsWithoutThrowingOnTryPath) {
  UdpSocket receiver, sender;
  // Larger than any UDP payload: sendto fails with EMSGSIZE, which is not
  // transient, so the bounded retry loop gives up instead of spinning.
  const Bytes oversized(70'000, 0x11);
  EXPECT_FALSE(sender.try_send_to(receiver.local_address(), oversized));
  EXPECT_THROW(sender.send_to(receiver.local_address(), oversized),
               TransportError);
  // The socket survives the failure and keeps working for sane sizes.
  EXPECT_TRUE(sender.try_send_to(receiver.local_address(), bytes_of("ok")));
  EXPECT_EQ(receiver.receive(2000)->second, bytes_of("ok"));
}

TEST(UdpServerTransport, FanOutSurvivesAFailedRecipient) {
  UdpSocket server_socket;
  UdpSocket client1, client3;
  UdpServerTransport transport(server_socket);
  transport.register_user(1, client1.local_address());
  // Destination port 0 is invalid: sendto fails immediately (EINVAL),
  // modelling one unreachable peer in the middle of the fan-out.
  transport.register_user(2, Address::loopback(0));
  transport.register_user(3, client3.local_address());

  EXPECT_NO_THROW(transport.deliver(
      rekey::Recipient::to_subgroup(7), bytes_of("fanout"),
      [] { return std::vector<UserId>{1, 2, 3}; }));
  // The failure is counted, and every recipient after it still got served.
  EXPECT_EQ(transport.send_failures(), 1u);
  EXPECT_EQ(transport.datagrams_sent(), 2u);
  EXPECT_EQ(client1.receive(2000)->second, bytes_of("fanout"));
  EXPECT_EQ(client3.receive(2000)->second, bytes_of("fanout"));

  // A failed unicast is likewise counted, never thrown.
  EXPECT_NO_THROW(transport.deliver(rekey::Recipient::to_user(2),
                                    bytes_of("uni"),
                                    [] { return std::vector<UserId>{}; }));
  EXPECT_EQ(transport.send_failures(), 2u);
}

// Drains every queued datagram from `socket` in arrival order.
std::vector<Bytes> drain(UdpSocket& socket, int first_timeout_ms = 200) {
  std::vector<Bytes> received;
  int timeout = first_timeout_ms;
  while (auto datagram = socket.receive(timeout)) {
    received.push_back(std::move(datagram->second));
    timeout = 50;
  }
  return received;
}

TEST(UdpSocket, SendBatchDeliversEveryDatagramInOrder) {
  UdpSocket receiver, sender;
  const Address to = receiver.local_address();
  std::vector<Bytes> payloads;
  std::vector<UdpSocket::GatherItem> items;
  for (std::uint8_t i = 0; i < 10; ++i) {
    payloads.push_back(Bytes{i, static_cast<std::uint8_t>(i + 1), 0x7f});
  }
  for (const Bytes& payload : payloads) {
    items.push_back({to, payload});
  }
  EXPECT_EQ(sender.send_batch(items), payloads.size());
  EXPECT_EQ(drain(receiver), payloads);
}

TEST(UdpSocket, SendBatchSpansMultipleSendmmsgWindows) {
  // 150 datagrams cross two full kSendBatch windows plus a remainder; on
  // Linux with the gather path enabled that must cost exactly
  // ceil(150 / 64) = 3 sendmmsg calls.
  UdpSocket receiver, sender;
  const Address to = receiver.local_address();
  constexpr std::size_t kCount = 150;
  static_assert(kCount > 2 * UdpSocket::kSendBatch);
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < kCount; ++i) {
    payloads.push_back(Bytes{static_cast<std::uint8_t>(i),
                             static_cast<std::uint8_t>(i >> 8)});
  }
  std::vector<UdpSocket::GatherItem> items;
  for (const Bytes& payload : payloads) {
    items.push_back({to, payload});
  }
  auto& calls = telemetry::Registry::global().counter(
      "transport.udp.sendmmsg_calls");
  const std::uint64_t calls_before = calls.value();
  EXPECT_EQ(sender.send_batch(items), kCount);
  EXPECT_EQ(drain(receiver), payloads);
#if defined(__linux__)
  if (sender.sendmmsg_enabled()) {
    EXPECT_EQ(calls.value() - calls_before,
              (kCount + UdpSocket::kSendBatch - 1) / UdpSocket::kSendBatch);
  }
#else
  (void)calls_before;
#endif
}

TEST(UdpSocket, SendBatchFallbackPathMatchesGatherPath) {
  UdpSocket receiver, sender;
  sender.set_sendmmsg(false);
  const Address to = receiver.local_address();
  std::vector<Bytes> payloads;
  for (std::uint8_t i = 0; i < 70; ++i) payloads.push_back(Bytes{i, 0x2a});
  std::vector<UdpSocket::GatherItem> items;
  for (const Bytes& payload : payloads) {
    items.push_back({to, payload});
  }
  auto& calls = telemetry::Registry::global().counter(
      "transport.udp.sendmmsg_calls");
  const std::uint64_t calls_before = calls.value();
  EXPECT_EQ(sender.send_batch(items), payloads.size());
  EXPECT_EQ(drain(receiver), payloads);
  EXPECT_EQ(calls.value(), calls_before);  // per-datagram path, no sendmmsg
}

TEST(UdpSocket, SendBatchSkipsFailedDatagramAndContinues) {
  // A bad destination in the middle of a burst (port 0 fails with EINVAL)
  // must not sink the datagrams after it — same contract as try_send_to
  // in the sequential fan-out.
  UdpSocket receiver, sender;
  const Address good = receiver.local_address();
  const Bytes first = bytes_of("first");
  const Bytes doomed = bytes_of("doomed");
  const Bytes last = bytes_of("last");
  const std::vector<UdpSocket::GatherItem> items = {
      {good, first}, {Address::loopback(0), doomed}, {good, last}};
  EXPECT_EQ(sender.send_batch(items), 2u);
  EXPECT_EQ(drain(receiver), (std::vector<Bytes>{first, last}));
}

TEST(UdpServerTransport, DeliverManyMatchesSequentialDeliver) {
  UdpSocket server_socket;
  UdpSocket client1, client2;
  UdpServerTransport transport(server_socket);
  transport.register_user(1, client1.local_address());
  transport.register_user(2, client2.local_address());

  const Bytes both = bytes_of("both");
  const Bytes solo1 = bytes_of("solo1");
  const Bytes solo2 = bytes_of("solo2");
  const ServerTransport::Resolver resolve_both = [] {
    return std::vector<UserId>{1, 2};
  };
  const ServerTransport::Resolver resolve_none = [] {
    return std::vector<UserId>{};
  };
  const std::vector<ServerTransport::OutboundDatagram> items = {
      {rekey::Recipient::to_subgroup(9), both, resolve_both},
      {rekey::Recipient::to_user(1), solo1, resolve_none},
      {rekey::Recipient::to_user(2), solo2, resolve_none},
  };
  transport.deliver_many(items);
  EXPECT_EQ(transport.datagrams_sent(), 4u);
  EXPECT_EQ(transport.send_failures(), 0u);
  EXPECT_EQ(drain(client1), (std::vector<Bytes>{both, solo1}));
  EXPECT_EQ(drain(client2), (std::vector<Bytes>{both, solo2}));
}

// One seeded server session over real UDP: joins and a leave, with
// deterministic fault injection (drops, duplicates, corruption) between
// the server and the socket layer. Everything a client receives — bytes
// and order — must be identical whether the socket gathers bursts through
// sendmmsg or falls back to one sendto per datagram: batching is a
// syscall optimisation, never a wire change.
TEST(UdpWireIdentity, SendmmsgAndSendtoProduceIdenticalBytes) {
  constexpr std::size_t kClients = 4;
  struct SessionResult {
    std::array<std::vector<Bytes>, kClients> received;
    std::vector<FaultEvent> trace;
  };
  const auto run_session = [&](bool gather) {
    UdpSocket server_socket;
    server_socket.set_sendmmsg(gather);
    UdpServerTransport udp(server_socket);
    FaultConfig fault_config;
    fault_config.seed = 99;
    fault_config.rule.drop = 0.2;
    fault_config.rule.duplicate = 0.2;
    fault_config.rule.corrupt = 0.1;
    fault_config.record_trace = true;
    FaultyServerTransport faulty(udp, fault_config);

    server::ServerConfig config;
    config.strategy = rekey::StrategyKind::kGroupOriented;
    config.rng_seed = 77;
    // Pinned clock: the wire carries timestamps, and identity across the
    // two sessions must only depend on the send path under test.
    config.clock_us = [] { return std::uint64_t{1'722'000'000'000'000}; };
    server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                         faulty);

    SessionResult result;
    std::vector<UdpSocket> clients(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      const auto user = static_cast<UserId>(i + 1);
      udp.register_user(user, clients[i].local_address());
      EXPECT_EQ(server.join_with_token(user, server.auth().join_token(user)),
                server::JoinResult::kGranted);
    }
    EXPECT_TRUE(server.leave_with_token(2, server.auth().leave_token(2)));
    faulty.engine().flush();
    for (std::size_t i = 0; i < kClients; ++i) {
      result.received[i] = drain(clients[i]);
    }
    result.trace = faulty.engine().trace();
    return result;
  };

  const SessionResult gathered = run_session(true);
  const SessionResult sequential = run_session(false);
  EXPECT_EQ(gathered.trace, sequential.trace);
  ASSERT_FALSE(gathered.trace.empty());
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_FALSE(gathered.received[i].empty()) << "client " << i + 1;
    EXPECT_EQ(gathered.received[i], sequential.received[i])
        << "client " << i + 1;
  }
}

TEST(UdpServerTransport, UnknownUsersSkipped) {
  UdpSocket server_socket;
  UdpServerTransport transport(server_socket);
  EXPECT_NO_THROW(transport.deliver(rekey::Recipient::to_user(5),
                                    bytes_of("x"),
                                    [] { return std::vector<UserId>{}; }));
  transport.register_user(5, Address::loopback(9));
  transport.unregister_user(5);
  EXPECT_NO_THROW(transport.deliver(rekey::Recipient::to_user(5),
                                    bytes_of("x"),
                                    [] { return std::vector<UserId>{}; }));
  EXPECT_EQ(transport.datagrams_sent(), 0u);
}

// Miniature networked session: the paper's prototype over loopback UDP.
// Two clients join via authenticated requests, exchange a confidential
// message, one leaves, and forward secrecy holds over the real wire.
TEST(UdpEndToEnd, JoinRekeyLeaveSession) {
  UdpSocket server_socket;
  UdpServerTransport transport(server_socket);
  server::ServerConfig config;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.rng_seed = 33;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);

  struct NetClient {
    UdpSocket socket;
    std::unique_ptr<client::GroupClient> logic;
  };
  auto make_client = [&](UserId user) {
    auto net = std::make_unique<NetClient>();
    client::ClientConfig client_config;
    client_config.user = user;
    client_config.suite = server.config().base.suite;
    client_config.root = server.root_id();
    client_config.verify = false;
    net->logic =
        std::make_unique<client::GroupClient>(client_config, nullptr);
    net->logic->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server.auth().individual_key(
            user, server.config().base.suite.key_size())});
    return net;
  };

  auto pump = [&](NetClient& net) {
    std::size_t handled = 0;
    while (auto datagram = net.socket.receive(100)) {
      net.logic->handle_datagram(datagram->second);
      ++handled;
    }
    return handled;
  };

  auto alice = make_client(1);
  auto bob = make_client(2);
  transport.register_user(1, alice->socket.local_address());
  transport.register_user(2, bob->socket.local_address());

  ASSERT_EQ(server.join_with_token(1, server.auth().join_token(1)),
            server::JoinResult::kGranted);
  ASSERT_EQ(server.join_with_token(2, server.auth().join_token(2)),
            server::JoinResult::kGranted);
  EXPECT_GE(pump(*alice), 1u);
  EXPECT_GE(pump(*bob), 1u);

  // Both converged on the group key; confidential chat works on the wire.
  ASSERT_TRUE(alice->logic->group_key().has_value());
  ASSERT_TRUE(bob->logic->group_key().has_value());
  EXPECT_EQ(alice->logic->group_key()->secret,
            bob->logic->group_key()->secret);
  const Bytes sealed = alice->logic->seal_application(bytes_of("hi bob"));
  EXPECT_EQ(bob->logic->open_application(sealed), bytes_of("hi bob"));

  // Bob leaves; Alice rekeys; Bob's stale key no longer works.
  ASSERT_TRUE(server.leave_with_token(2, server.auth().leave_token(2)));
  transport.unregister_user(2);
  EXPECT_GE(pump(*alice), 1u);
  EXPECT_NE(alice->logic->group_key()->secret,
            bob->logic->group_key()->secret);
  const Bytes post_leave = alice->logic->seal_application(bytes_of("alone"));
  EXPECT_THROW(bob->logic->open_application(post_leave), Error);
}

}  // namespace
}  // namespace keygraphs::transport
