// TCP transport: framing round trips, partial/ordered delivery, oversized
// frame rejection, the server fan-out, and a full join/rekey/leave session
// over real stream sockets (the reliable delivery the paper assumes).
#include "transport/tcp.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "client/client.h"
#include "common/error.h"
#include "server/sharded_server.h"
#include "telemetry/metrics.h"

namespace keygraphs::transport {
namespace {

TEST(Tcp, FramedRoundTrip) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  ASSERT_TRUE(server_side.has_value());

  client.send(bytes_of("hello"));
  const auto received = server_side->receive(2000);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, bytes_of("hello"));

  server_side->send(bytes_of("world"));
  EXPECT_EQ(client.receive(2000), bytes_of("world"));
}

TEST(Tcp, EmptyFrameOk) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  client.send(Bytes{});
  const auto received = server_side->receive(2000);
  ASSERT_TRUE(received.has_value());
  EXPECT_TRUE(received->empty());
}

TEST(Tcp, ManyFramesArriveInOrder) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  for (int i = 0; i < 100; ++i) {
    client.send(bytes_of("frame-" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(server_side->receive(2000),
              bytes_of("frame-" + std::to_string(i)));
  }
}

TEST(Tcp, LargeFrame) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  crypto::SecureRandom rng(1);
  const Bytes big = rng.bytes(300000);
  // Send from a thread: a 300 kB frame can exceed the socket buffers, so
  // the writer must make progress while the reader drains.
  std::thread writer([&client, &big] { client.send(big); });
  const auto received = server_side->receive(5000);
  writer.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, big);
}

TEST(Tcp, ReceiveTimesOut) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  EXPECT_EQ(server_side->receive(50), std::nullopt);
  (void)client;
}

TEST(Tcp, OrderlyCloseYieldsNullopt) {
  TcpListener listener;
  auto client = std::make_unique<TcpConnection>(
      TcpConnection::connect(listener.local_address()));
  auto server_side = listener.accept(2000);
  client.reset();  // close
  EXPECT_EQ(server_side->receive(2000), std::nullopt);
}

TEST(Tcp, OversizedFrameRejectedBySender) {
  TcpListener listener;
  TcpConnection client = TcpConnection::connect(listener.local_address());
  auto server_side = listener.accept(2000);
  // The sender refuses before any bytes hit the wire.
  Bytes huge;
  EXPECT_THROW(
      {
        huge.resize(TcpConnection::kMaxFrame + 1);
        client.send(huge);
      },
      TransportError);
}

TEST(Tcp, ConnectToNothingFails) {
  EXPECT_THROW(TcpConnection::connect(Address::loopback(1)),
               TransportError);
}

TEST(Tcp, AcceptTimesOut) {
  TcpListener listener;
  EXPECT_EQ(listener.accept(50), std::nullopt);
}

TEST(Tcp, NonblockingSendDrainsThroughPolloutWait) {
  TcpListener listener;
  TcpConnection sender = TcpConnection::connect(listener.local_address());
  auto receiver = listener.accept(2000);
  ASSERT_TRUE(receiver.has_value());
  sender.set_nonblocking();

  // Big enough that loopback socket buffers cannot absorb it all while
  // the peer sits on its hands: the writes must hit EAGAIN and park on
  // POLLOUT until the late reader drains the other end.
  const Bytes frame(8u << 20, 0x5a);
  std::thread late_reader([&receiver, &frame] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    for (int i = 0; i < 3; ++i) {
      const auto got = receiver->receive(5000);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->size(), frame.size());
      ASSERT_EQ((*got)[i], 0x5a);
    }
  });
  for (int i = 0; i < 3; ++i) sender.send(frame);  // blocks logically, not hard
  late_reader.join();
}

TEST(Tcp, StallBudgetExhaustionThrowsAndCountsSendErrors) {
  telemetry::set_enabled(true);
  auto& errors =
      telemetry::Registry::global().counter("transport.tcp.send_errors");
  const std::uint64_t before = errors.value();

  TcpListener listener;
  TcpConnection sender = TcpConnection::connect(listener.local_address());
  auto receiver = listener.accept(2000);
  ASSERT_TRUE(receiver.has_value());
  sender.set_nonblocking();

  // The peer never reads: once both socket buffers are full, send() waits
  // out its bounded stall budget (~2 s) and gives up with a typed error
  // instead of wedging the dispatch fan-out forever.
  const Bytes frame(8u << 20, 0x77);
  bool threw = false;
  try {
    for (int i = 0; i < 8; ++i) sender.send(frame);
  } catch (const TransportError& error) {
    threw = true;
    EXPECT_NE(std::string(error.what()).find("stalled"), std::string::npos);
  }
  EXPECT_TRUE(threw) << "8 x 8 MiB fit in loopback buffers?";
  EXPECT_EQ(errors.value(), before + 1);
  telemetry::set_enabled(false);
}

TEST(Tcp, SetNonblockingOnClosedConnectionThrows) {
  TcpListener listener;
  TcpConnection outer = TcpConnection::connect(listener.local_address());
  TcpConnection moved = std::move(outer);
  EXPECT_THROW(outer.set_nonblocking(), TransportError);
  moved.set_nonblocking();       // the live fd accepts the flag
  moved.set_nonblocking(false);  // and switches back
}

TEST(TcpServerTransport, FanOutAndDisconnectHandling) {
  TcpListener listener;
  TcpServerTransport transport;

  TcpConnection c1 = TcpConnection::connect(listener.local_address());
  transport.register_user(1, std::move(*listener.accept(2000)));
  auto c2 = std::make_unique<TcpConnection>(
      TcpConnection::connect(listener.local_address()));
  transport.register_user(2, std::move(*listener.accept(2000)));

  transport.deliver(rekey::Recipient::to_subgroup(9), bytes_of("all"),
                    [] { return std::vector<UserId>{1, 2}; });
  EXPECT_EQ(c1.receive(2000), bytes_of("all"));
  EXPECT_EQ(c2->receive(2000), bytes_of("all"));
  EXPECT_EQ(transport.messages_sent(), 2u);

  // Unicast to an unknown user: silently dropped.
  transport.deliver(rekey::Recipient::to_user(7), bytes_of("x"),
                    [] { return std::vector<UserId>{}; });
  EXPECT_EQ(transport.messages_sent(), 2u);

  EXPECT_NE(transport.connection_of(1), nullptr);
  transport.unregister_user(1);
  EXPECT_EQ(transport.connection_of(1), nullptr);
}

// End-to-end over TCP: the reliable-delivery session the paper assumes.
TEST(TcpEndToEnd, JoinRekeyLeave) {
  TcpListener listener;
  TcpServerTransport transport;
  server::ServerConfig config;
  config.rng_seed = 21;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);

  auto make_member = [&](UserId user) {
    auto connection = std::make_unique<TcpConnection>(
        TcpConnection::connect(listener.local_address()));
    transport.register_user(user, std::move(*listener.accept(2000)));
    client::ClientConfig client_config;
    client_config.user = user;
    client_config.suite = server.config().base.suite;
    client_config.root = server.root_id();
    client_config.verify = false;
    auto logic =
        std::make_unique<client::GroupClient>(client_config, nullptr);
    logic->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server.auth().individual_key(
            user, server.config().base.suite.key_size())});
    return std::make_pair(std::move(connection), std::move(logic));
  };

  auto [conn1, alice] = make_member(1);
  auto [conn2, bob] = make_member(2);
  ASSERT_EQ(server.join(1), server::JoinResult::kGranted);
  ASSERT_EQ(server.join(2), server::JoinResult::kGranted);

  auto pump = [](TcpConnection& connection, client::GroupClient& logic) {
    while (auto frame = connection.receive(100)) {
      logic.handle_datagram(*frame);
    }
  };
  pump(*conn1, *alice);
  pump(*conn2, *bob);
  ASSERT_TRUE(alice->group_key().has_value());
  EXPECT_EQ(alice->group_key()->secret, bob->group_key()->secret);

  server.leave(2);
  transport.unregister_user(2);
  pump(*conn1, *alice);
  EXPECT_NE(alice->group_key()->secret, bob->group_key()->secret);
  EXPECT_EQ(alice->group_key()->secret,
            server.group_key().secret);
}

}  // namespace
}  // namespace keygraphs::transport
