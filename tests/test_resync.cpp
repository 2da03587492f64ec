// Keyset resynchronization: a member that missed a rekey on a lossy
// transport detects it (needs_resync) and recovers via the server's
// authenticated replay — without any rekeying of the group.
#include <gtest/gtest.h>

#include "client/client.h"
#include "common/error.h"
#include "server/sharded_server.h"
#include "sim/simulator.h"

namespace keygraphs {
namespace {

TEST(Resync, MissedRekeyDetectedAndRecovered) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.rng_seed = 91;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);
  sim::ClientSimulator simulator(server, network);
  sim::WorkloadGenerator workload(2);
  simulator.apply_all(workload.initial_joins(12));

  // Simulate loss: detach user 3's client while two operations happen.
  client::GroupClient& victim = simulator.client(3);
  network.detach_client(3);
  server.leave(7);
  server.join(100);
  // Reattach (delivery only; the missed messages are gone for good).
  network.attach_client(3, [&victim, &network](BytesView datagram) {
    victim.handle_datagram(datagram);
    network.resubscribe(3, victim.key_ids());
  });
  network.resubscribe(3, victim.key_ids());

  // The next operation's rekey reaches the victim but decrypts nothing:
  // its path keys are one version behind.
  server.leave(9);
  EXPECT_NE(victim.group_key()->secret, server.group_key().secret);

  // Detection: feed the victim the next rekey directly and observe the
  // signal (the in-proc delivery above already returned it to the handler;
  // for the assertion we replay the current state detection explicitly).
  std::vector<Bytes> captured;
  network.detach_client(3);
  network.attach_client(3, [&captured](BytesView datagram) {
    captured.emplace_back(datagram.begin(), datagram.end());
  });
  network.resubscribe(3, victim.key_ids());
  server.join(101);
  ASSERT_FALSE(captured.empty());
  const client::RekeyOutcome outcome =
      victim.handle_datagram(captured.front());
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.needs_resync);

  // Recovery: authenticated resync replays the victim's current keyset.
  EXPECT_FALSE(server.resync_with_token(3, bytes_of("forged")));
  network.detach_client(3);
  network.attach_client(3, [&victim](BytesView datagram) {
    victim.handle_datagram(datagram);
  });
  const std::uint64_t epoch_before = server.epoch();
  EXPECT_TRUE(server.resync_with_token(3, server.auth().resync_token(3)));
  EXPECT_EQ(server.epoch(), epoch_before);  // replay, not an operation
  EXPECT_EQ(victim.group_key()->secret, server.group_key().secret);
  EXPECT_EQ(victim.group_key()->version, server.group_key().version);
}

TEST(Resync, RecordedInStatsWithoutAdvancingEpoch) {
  server::ServerConfig config;
  config.rng_seed = 95;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  for (UserId user = 1; user <= 8; ++user) server.join(user);
  const std::uint64_t epoch_before = server.epoch();
  const std::size_t ops_before = server.stats().size();

  server.resync(3);
  server.resync(5);

  EXPECT_EQ(server.epoch(), epoch_before);
  ASSERT_EQ(server.stats().size(), ops_before + 2);
  const server::OpRecord& record = *server.stats().last();
  EXPECT_EQ(record.kind, rekey::RekeyKind::kResync);
  EXPECT_EQ(record.messages, 1u);  // one welcome-style unicast
  // The replay wraps the member's non-individual path keys once each.
  EXPECT_EQ(record.key_encryptions,
            server.keyset(5).size() - 1);
  EXPECT_GT(record.bytes, 0u);
  // Resyncs aggregate separately from joins: a kJoin summary is unchanged
  // by resync traffic.
  const server::Summary joins = server.stats().summarize(rekey::RekeyKind::kJoin);
  const server::Summary resyncs =
      server.stats().summarize(rekey::RekeyKind::kResync);
  EXPECT_EQ(joins.operations, 8u);
  EXPECT_EQ(resyncs.operations, 2u);
}

TEST(Resync, NonMemberRejected) {
  server::ServerConfig config;
  config.rng_seed = 92;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  server.join(1);
  EXPECT_THROW(server.resync(42), ProtocolError);
  EXPECT_FALSE(server.resync_with_token(42, server.auth().resync_token(42)));
}

TEST(Resync, NormalOperationNeverSignalsResync) {
  server::ServerConfig config;
  config.tree_degree = 3;
  config.rng_seed = 93;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);

  // Track outcomes of every delivery for one always-connected member.
  bool ever_needed_resync = false;
  client::ClientConfig member_config;
  member_config.user = 1;
  member_config.suite = config.suite;
  member_config.root = server.root_id();
  member_config.verify = false;
  client::GroupClient member(member_config, nullptr);
  member.install_individual_key(SymmetricKey{
      individual_key_id(1), 1,
      server.auth().individual_key(1, config.suite.key_size())});
  network.attach_client(1, [&](BytesView datagram) {
    const client::RekeyOutcome outcome = member.handle_datagram(datagram);
    ever_needed_resync |= outcome.needs_resync;
    network.resubscribe(1, member.key_ids());
  });
  network.resubscribe(1, member.key_ids());

  server.join(1);
  for (UserId user = 2; user <= 20; ++user) server.join(user);
  for (UserId user : {5u, 9u, 13u, 2u}) server.leave(user);
  EXPECT_FALSE(ever_needed_resync);
  EXPECT_EQ(member.group_key()->secret, server.group_key().secret);
}

TEST(Resync, SignedResyncVerifies) {
  server::ServerConfig config;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  config.rng_seed = 94;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);
  server.join(1);
  server.join(2);

  client::ClientConfig member_config;
  member_config.user = 2;
  member_config.suite = config.suite;
  member_config.root = server.root_id();
  member_config.verify = true;
  client::GroupClient member(member_config, server.public_key());
  member.install_individual_key(SymmetricKey{
      individual_key_id(2), 1,
      server.auth().individual_key(2, config.suite.key_size())});
  client::RekeyOutcome last;
  network.attach_client(2, [&member, &last](BytesView datagram) {
    last = member.handle_datagram(datagram);
  });
  server.resync(2);
  EXPECT_TRUE(last.accepted);  // batch signature on the replay verifies
  EXPECT_EQ(member.group_key()->secret, server.group_key().secret);
}

}  // namespace
}  // namespace keygraphs
