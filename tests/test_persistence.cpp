// KeyTree / server snapshot-and-restore (the Section 6 replication path):
// round trips with identical structure and key material, failover
// continuity (clients keep decrypting across the switch), and malformed-
// snapshot rejection.
#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"

namespace keygraphs {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(909);
  return instance;
}

Bytes ik(UserId user) { return Bytes(8, static_cast<std::uint8_t>(user)); }

TEST(TreeSnapshot, RoundTripPreservesEverything) {
  KeyTree original(4, 8, rng());
  for (UserId user = 1; user <= 37; ++user) original.join(user, ik(user));
  original.leave(5);
  original.leave(17);

  const Bytes snapshot = original.serialize();
  crypto::SecureRandom other_rng(1);
  const auto restored = KeyTree::deserialize(snapshot, other_rng);

  EXPECT_EQ(restored->user_count(), original.user_count());
  EXPECT_EQ(restored->key_count(), original.key_count());
  EXPECT_EQ(restored->height(), original.height());
  EXPECT_EQ(restored->root_id(), original.root_id());
  EXPECT_EQ(restored->group_key(), original.group_key());
  EXPECT_EQ(restored->users(), original.users());
  for (UserId user : original.users()) {
    EXPECT_EQ(restored->keyset(user), original.keyset(user))
        << "user " << user;
  }
  restored->check_invariants();
}

TEST(TreeSnapshot, RestoredTreeContinuesOperating) {
  KeyTree original(3, 8, rng());
  for (UserId user = 1; user <= 9; ++user) original.join(user, ik(user));
  crypto::SecureRandom replica_rng(2);
  const auto replica = KeyTree::deserialize(original.serialize(),
                                            replica_rng);
  // New operations on the replica work and preserve invariants; ids keep
  // advancing from the serialized counter, so no collisions.
  const JoinRecord join = replica->join(100, ik(100));
  EXPECT_FALSE(join.path.empty());
  replica->leave(4);
  replica->check_invariants();
}

TEST(TreeSnapshot, EmptyTreeRoundTrips) {
  KeyTree original(4, 16, rng());
  crypto::SecureRandom other_rng(3);
  const auto restored = KeyTree::deserialize(original.serialize(),
                                             other_rng);
  EXPECT_EQ(restored->user_count(), 0u);
  EXPECT_EQ(restored->group_key(), original.group_key());
}

TEST(TreeSnapshot, MalformedSnapshotsRejected) {
  KeyTree original(4, 8, rng());
  for (UserId user = 1; user <= 5; ++user) original.join(user, ik(user));
  const Bytes good = original.serialize();
  crypto::SecureRandom other_rng(4);

  EXPECT_THROW(KeyTree::deserialize(Bytes{}, other_rng), ParseError);
  EXPECT_THROW(KeyTree::deserialize(bytes_of("junk"), other_rng),
               ParseError);
  for (std::size_t len = 0; len < good.size(); len += 7) {
    EXPECT_THROW(
        KeyTree::deserialize(BytesView(good.data(), len), other_rng),
        ParseError)
        << "prefix " << len;
  }
  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(KeyTree::deserialize(bad_magic, other_rng), ParseError);
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(KeyTree::deserialize(trailing, other_rng), ParseError);
}

TEST(ServerSnapshot, FailoverIsInvisibleToClients) {
  // Primary server with live clients...
  server::ServerConfig config;
  config.tree_degree = 4;
  config.rng_seed = 10;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer primary(server::ShardedServerConfig{config},
                                        network);
  sim::ClientSimulator clients(primary, network);
  sim::WorkloadGenerator workload(4);
  clients.apply_all(workload.initial_joins(12));

  // ...snapshot flows to a standby with a different seed...
  const Bytes snapshot = primary.snapshot();
  server::ServerConfig standby_config = config;
  standby_config.rng_seed = 999;  // different future randomness is fine
  server::ShardedGroupKeyServer standby(
      server::ShardedServerConfig{standby_config}, network);
  standby.restore(snapshot);
  EXPECT_EQ(standby.epoch(), primary.epoch());
  EXPECT_EQ(standby.group_key(), primary.group_key());

  // ...the standby takes over and rekeys: existing clients must be able to
  // process its messages seamlessly (same node ids, same old keys).
  standby.leave(3);
  network.detach_client(3);  // the evicted client stops listening
  const SymmetricKey group = standby.group_key();
  for (UserId user : standby.tree().users()) {
    const auto held = clients.client(user).group_key();
    ASSERT_TRUE(held.has_value()) << "user " << user;
    EXPECT_EQ(held->secret, group.secret) << "user " << user;
  }
}

TEST(ServerSnapshot, RestoreRejectsGarbageWithoutStateChange) {
  server::ServerConfig config;
  config.rng_seed = 11;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  server.join(1);
  server.join(2);
  const SymmetricKey before = server.group_key();
  EXPECT_THROW(server.restore(bytes_of("not a snapshot")), ParseError);
  EXPECT_EQ(server.group_key(), before);
  EXPECT_EQ(server.member_count(), 2u);
}

TEST(ServerSnapshot, SnapshotCarriesEpoch) {
  server::ServerConfig config;
  config.rng_seed = 12;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  for (UserId user = 1; user <= 6; ++user) server.join(user);
  const Bytes snapshot = server.snapshot();

  server::ShardedGroupKeyServer replica(server::ShardedServerConfig{config},
                                        transport);
  replica.restore(snapshot);
  EXPECT_EQ(replica.epoch(), 6u);
  // The next operation uses epoch 7 — clients' replay protection holds.
  replica.leave(2);
  EXPECT_EQ(replica.epoch(), 7u);
}

TEST(ServerSnapshot, RestoreResetsTheRetransmitWindow) {
  server::ServerConfig config;
  config.rng_seed = 13;
  config.retransmit_window = 16;
  config.recovery_rate = 0;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  for (UserId user = 1; user <= 6; ++user) server.join(user);
  const Bytes snapshot = server.snapshot();  // epoch 6
  for (UserId user = 7; user <= 9; ++user) server.join(user);

  // Sanity: before the restore the window serves the small gap.
  EXPECT_EQ(server.handle_nack(1, server.epoch() - 1),
            server::NackOutcome::kRetransmitted);

  server.restore(snapshot);
  EXPECT_EQ(server.epoch(), 6u);
  // The retained epoch-7..9 datagrams were invalidated by the rollback:
  // they encrypt against keys the restored tree has rewound past. A NACK
  // that once hit the window must now escalate to a full resync rather
  // than replay stale ciphertext.
  EXPECT_EQ(server.handle_nack(1, server.epoch() - 1),
            server::NackOutcome::kResynced);
}

TEST(ServerSnapshot, RestoreReanchorsTheConvergenceMonitor) {
  telemetry::Registry::global().reset();
  telemetry::ConvergenceMonitor::global().reset();

  server::ServerConfig config;
  config.rng_seed = 14;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);
  for (UserId user = 1; user <= 6; ++user) server.join(user);
  const Bytes snapshot = server.snapshot();
  for (UserId user = 7; user <= 10; ++user) server.join(user);
  EXPECT_EQ(telemetry::ConvergenceMonitor::global().published_epoch(), 10u);

  // Rolling back must also roll back the published high-water mark:
  // otherwise every post-restore apply at epochs 7..10 would score
  // against the pre-restore publish timeline and fake fleet latencies.
  server.restore(snapshot);
  EXPECT_EQ(telemetry::ConvergenceMonitor::global().published_epoch(), 6u);
  server.join(20);
  EXPECT_EQ(telemetry::ConvergenceMonitor::global().published_epoch(), 7u);
}

}  // namespace
}  // namespace keygraphs
