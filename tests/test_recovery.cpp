// Client loss-recovery state machine: gap detection, the reorder buffer,
// NACK emission with exponential (deterministically jittered) backoff on an
// injected clock, escalation to resync, and strategy-uniform duplicate /
// replay suppression — keys never roll back under any rekeying strategy.
#include <gtest/gtest.h>

#include "client/client.h"
#include "common/io.h"
#include "rekey/strategy.h"
#include "server/sharded_server.h"
#include "transport/inproc.h"

namespace keygraphs::client {
namespace {

using rekey::RekeyMessage;

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(505);
  return instance;
}

SymmetricKey make_key(KeyId id, KeyVersion version) {
  return SymmetricKey{id, version, rng().bytes(8)};
}

Bytes seal_plain(const RekeyMessage& message) {
  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  return sealer.seal(std::span(&message, 1))[0];
}

/// A recovery-enabled client on a manual clock, pre-loaded with its
/// individual key and one path key (id 50) so crafted "regular" rekeys
/// (group key wrapped under the path key) decrypt without being
/// welcome-shaped.
struct Rig {
  explicit Rig(UserId user = 1,
               const std::function<void(ClientConfig&)>& tweak = {}) {
    ClientConfig config;
    config.user = user;
    config.suite = crypto::CryptoSuite::paper_plain();
    config.group = 0;
    config.root = 100;
    config.verify = false;
    config.rng_seed = 1;
    config.recovery.clock_us = [this] { return now; };
    config.recovery.token = bytes_of("resync-token");
    if (tweak) tweak(config);
    client = std::make_unique<GroupClient>(config, nullptr);
    individual = make_key(individual_key_id(user), 1);
    path = make_key(50, 1);
    client->install_individual_key(individual);
    client->admit_snapshot({path}, 0);
  }

  /// Regular rekey at `epoch`: new group key wrapped under the path key.
  Bytes group_rekey(std::uint64_t epoch, KeyId wrap_unknown = 0) {
    rekey::RekeyEncryptor encryptor(crypto::CipherAlgorithm::kDes, rng());
    const SymmetricKey wrap =
        wrap_unknown != 0 ? make_key(wrap_unknown, 1) : path;
    RekeyMessage message;
    message.epoch = epoch;
    const SymmetricKey group =
        make_key(100, static_cast<KeyVersion>(epoch));
    message.blobs.push_back(encryptor.wrap(wrap, std::span(&group, 1)));
    return seal_plain(message);
  }

  /// Keyset replay (welcome/resync shape): everything under the
  /// individual key.
  Bytes replay_rekey(std::uint64_t epoch) {
    rekey::RekeyEncryptor encryptor(crypto::CipherAlgorithm::kDes, rng());
    RekeyMessage message;
    message.epoch = epoch;
    const SymmetricKey group =
        make_key(100, static_cast<KeyVersion>(epoch));
    const SymmetricKey fresh_path =
        SymmetricKey{50, static_cast<KeyVersion>(epoch), path.secret};
    message.blobs.push_back(encryptor.wrap(individual, std::span(&group, 1)));
    message.blobs.push_back(
        encryptor.wrap(individual, std::span(&fresh_path, 1)));
    return seal_plain(message);
  }

  std::uint64_t now = 1'000'000;
  std::unique_ptr<GroupClient> client;
  SymmetricKey individual;
  SymmetricKey path;
};

struct DecodedRequest {
  rekey::MessageType type;
  UserId user;
  Bytes token;
  std::uint64_t have_epoch = 0;  // NACKs only
};

DecodedRequest decode_request(const Bytes& wire) {
  const rekey::Datagram datagram = rekey::Datagram::decode(wire);
  ByteReader reader(datagram.payload);
  DecodedRequest request{datagram.type, reader.u64(), reader.var_bytes()};
  if (datagram.type == rekey::MessageType::kNackRequest) {
    request.have_epoch = reader.u64();
  }
  return request;
}

TEST(Recovery, GapBuffersNacksAndDrainsWhenFilled) {
  Rig rig;
  GroupClient& client = *rig.client;
  EXPECT_TRUE(client.handle_rekey(rig.group_rekey(1)).accepted);
  EXPECT_EQ(client.applied_epoch(), 1u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
  EXPECT_FALSE(client.poll_recovery().has_value());

  // Epoch 3 over applied 1: a gap. Parked, flagged, recovery armed.
  const RekeyOutcome gap = client.handle_rekey(rig.group_rekey(3));
  EXPECT_TRUE(gap.accepted);
  EXPECT_TRUE(gap.buffered);
  EXPECT_TRUE(gap.needs_resync);
  EXPECT_EQ(client.applied_epoch(), 1u);
  EXPECT_EQ(client.last_epoch(), 3u);
  EXPECT_EQ(client.pending_count(), 1u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kAwaitingRetransmit);
  EXPECT_EQ(client.recovery_stats().gaps, 1u);

  // First NACK is due immediately and carries the applied high-water mark.
  const auto first = client.poll_recovery();
  ASSERT_TRUE(first.has_value());
  const DecodedRequest request = decode_request(*first);
  EXPECT_EQ(request.type, rekey::MessageType::kNackRequest);
  EXPECT_EQ(request.user, 1u);
  EXPECT_EQ(request.token, bytes_of("resync-token"));
  EXPECT_EQ(request.have_epoch, 1u);
  // Re-armed: nothing due until the backoff elapses.
  EXPECT_FALSE(client.poll_recovery().has_value());
  rig.now += 100'000;
  EXPECT_TRUE(client.poll_recovery().has_value());
  EXPECT_EQ(client.recovery_stats().nacks_sent, 2u);

  // The retransmitted epoch 2 fills the gap; the parked epoch 3 drains.
  const RekeyOutcome fill = client.handle_rekey(rig.group_rekey(2));
  EXPECT_TRUE(fill.accepted);
  EXPECT_EQ(client.applied_epoch(), 3u);
  EXPECT_EQ(client.pending_count(), 0u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
  EXPECT_EQ(client.recovery_stats().completed, 1u);
  EXPECT_EQ(client.group_key()->version, 3u);
  EXPECT_FALSE(client.poll_recovery().has_value());
}

TEST(Recovery, EscalatesToResyncAfterNackBudget) {
  Rig rig(1, [](ClientConfig& config) { config.recovery.max_nacks = 2; });
  GroupClient& client = *rig.client;

  client.handle_rekey(rig.group_rekey(1));
  client.handle_rekey(rig.group_rekey(3));  // gap
  for (std::size_t nack = 1; nack <= 2; ++nack) {
    const auto request = client.poll_recovery();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(decode_request(*request).type,
              rekey::MessageType::kNackRequest);
    rig.now += 2'000'000;
  }
  // Budget spent: the next poll escalates to a full keyset resync.
  const auto escalated = client.poll_recovery();
  ASSERT_TRUE(escalated.has_value());
  EXPECT_EQ(decode_request(*escalated).type,
            rekey::MessageType::kResyncRequest);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kAwaitingResync);
  EXPECT_EQ(client.recovery_stats().resyncs_sent, 1u);
  // Still unanswered: later polls keep asking for the resync.
  rig.now += 2'000'000;
  const auto again = client.poll_recovery();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(decode_request(*again).type, rekey::MessageType::kResyncRequest);

  // The resync replay (keyset shape, current epoch) completes recovery.
  const RekeyOutcome replay = client.handle_rekey(rig.replay_rekey(3));
  EXPECT_TRUE(replay.accepted);
  EXPECT_EQ(client.applied_epoch(), 3u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
  EXPECT_EQ(client.recovery_stats().completed, 1u);
}

TEST(Recovery, BackoffDoublesWithBoundedDeterministicJitter) {
  const auto due_intervals = [](std::size_t count) {
    Rig rig;
    GroupClient& client = *rig.client;
    client.handle_rekey(rig.group_rekey(1));
    client.handle_rekey(rig.group_rekey(3));  // arm recovery
    EXPECT_TRUE(client.poll_recovery().has_value());  // attempt 0, due now
    std::vector<std::uint64_t> intervals;
    std::uint64_t last_fire = rig.now;
    while (intervals.size() < count) {
      rig.now += 1'000;  // 1 ms resolution
      if (client.poll_recovery().has_value()) {
        intervals.push_back(rig.now - last_fire);
        last_fire = rig.now;
      }
    }
    return intervals;
  };

  const std::vector<std::uint64_t> intervals = due_intervals(4);
  const std::uint64_t base = 50'000;  // RecoveryPolicy default
  for (std::size_t attempt = 0; attempt < intervals.size(); ++attempt) {
    const std::uint64_t delay = base << attempt;
    EXPECT_GE(intervals[attempt], delay);
    // jitter <= delay/4, plus one polling-resolution step
    EXPECT_LE(intervals[attempt], delay + delay / 4 + 1'000);
  }
  // Same user, same attempt counter: the jittered schedule is replayable.
  EXPECT_EQ(intervals, due_intervals(4));
}

TEST(Recovery, ContiguousUndecryptableRekeyHoldsAppliedEpoch) {
  Rig rig;
  GroupClient& client = *rig.client;
  client.handle_rekey(rig.group_rekey(1));

  // Epoch 2 arrives contiguously but wrapped under a key we do not hold
  // (diverged keyset or payload corrupted in flight before framing checks
  // could notice). applied_epoch must not advance: the NACK re-fetches
  // epoch 2 itself.
  const RekeyOutcome outcome =
      client.handle_rekey(rig.group_rekey(2, /*wrap_unknown=*/777));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.needs_resync);
  EXPECT_EQ(client.applied_epoch(), 1u);
  EXPECT_EQ(client.last_epoch(), 2u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kAwaitingRetransmit);
  const auto request = client.poll_recovery();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(decode_request(*request).have_epoch, 1u);

  // The pristine retransmission of epoch 2 completes recovery.
  EXPECT_TRUE(client.handle_rekey(rig.group_rekey(2)).accepted);
  EXPECT_EQ(client.applied_epoch(), 2u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
}

TEST(Recovery, KeysetReplayJumpsOverTheGap) {
  Rig rig;
  GroupClient& client = *rig.client;
  client.handle_rekey(rig.group_rekey(1));
  client.handle_rekey(rig.group_rekey(4));  // gap: 2 and 3 missing
  EXPECT_EQ(client.recovery_state(), RecoveryState::kAwaitingRetransmit);

  // A keyset replay at epoch 5 supersedes everything parked and missing.
  const RekeyOutcome replay = client.handle_rekey(rig.replay_rekey(5));
  EXPECT_TRUE(replay.accepted);
  EXPECT_EQ(client.applied_epoch(), 5u);
  EXPECT_EQ(client.pending_count(), 0u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
  EXPECT_EQ(client.group_key()->version, 5u);
}

TEST(Recovery, ReorderBufferIsBoundedAndKeepsLowestEpochs) {
  Rig rig(1,
          [](ClientConfig& config) { config.recovery.reorder_capacity = 2; });
  GroupClient& client = *rig.client;
  client.handle_rekey(rig.group_rekey(1));

  const Bytes epoch5 = rig.group_rekey(5);
  client.handle_rekey(epoch5);
  client.handle_rekey(rig.group_rekey(4));
  EXPECT_EQ(client.pending_count(), 2u);
  client.handle_rekey(rig.group_rekey(3));  // evicts 5, keeps {3, 4}
  EXPECT_EQ(client.pending_count(), 2u);
  EXPECT_EQ(client.recovery_stats().buffered, 3u);

  // Filling the gap drains the kept epochs; the evicted epoch 5 is still
  // owed, so recovery stays armed with the new high-water mark.
  client.handle_rekey(rig.group_rekey(2));
  EXPECT_EQ(client.applied_epoch(), 4u);
  EXPECT_EQ(client.pending_count(), 0u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kAwaitingRetransmit);
  const auto request = client.poll_recovery();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(decode_request(*request).have_epoch, 4u);

  // The re-fetched epoch 5 (same bytes as the evicted copy) completes it.
  EXPECT_TRUE(client.handle_rekey(epoch5).accepted);
  EXPECT_EQ(client.applied_epoch(), 5u);
  EXPECT_EQ(client.recovery_state(), RecoveryState::kSynced);
}

// Strategy-uniform anti-rollback: for every rekeying strategy, replaying a
// member's full delivery history — including in reverse order — changes
// nothing: no key rolls back, no epoch regresses, no recovery falsely arms.
TEST(Recovery, ReplayAndReorderNeverRollBackUnderAnyStrategy) {
  const rekey::StrategyKind strategies[] = {
      rekey::StrategyKind::kUserOriented,
      rekey::StrategyKind::kKeyOriented,
      rekey::StrategyKind::kGroupOriented,
      rekey::StrategyKind::kHybrid,
  };
  for (const rekey::StrategyKind strategy : strategies) {
    SCOPED_TRACE(rekey::strategy_name(strategy));
    server::ServerConfig config;
    config.tree_degree = 3;
    config.strategy = strategy;
    config.rng_seed = 61;
    transport::InProcNetwork network;
    server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                         network);

    ClientConfig member_config;
    member_config.user = 1;
    member_config.suite = config.suite;
    member_config.root = server.root_id();
    member_config.verify = false;
    GroupClient member(member_config, nullptr);
    member.install_individual_key(SymmetricKey{
        individual_key_id(1), 1,
        server.auth().individual_key(1, config.suite.key_size())});
    std::vector<Bytes> history;
    network.attach_client(1, [&](BytesView datagram) {
      history.emplace_back(datagram.begin(), datagram.end());
      member.handle_datagram(datagram);
      network.resubscribe(1, member.key_ids());
    });
    network.resubscribe(1, member.key_ids());

    for (UserId user = 1; user <= 9; ++user) server.join(user);
    server.leave(4);
    server.leave(7);
    server.batch({20, 21}, {9});
    ASSERT_EQ(member.applied_epoch(), server.epoch());
    ASSERT_FALSE(history.empty());

    const auto group_before = member.group_key();
    const auto keys_before = member.key_ids();
    const std::uint64_t last_before = member.last_epoch();
    const std::uint64_t applied_before = member.applied_epoch();

    // Replay the entire history in reverse (worst-case reordering), then
    // forward again (pure duplication).
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      EXPECT_EQ(member.handle_datagram(*it).keys_changed, 0u);
    }
    for (const Bytes& datagram : history) {
      EXPECT_EQ(member.handle_datagram(datagram).keys_changed, 0u);
    }

    EXPECT_EQ(member.last_epoch(), last_before);
    EXPECT_EQ(member.applied_epoch(), applied_before);
    EXPECT_EQ(member.key_ids(), keys_before);
    EXPECT_EQ(member.group_key()->secret, group_before->secret);
    EXPECT_EQ(member.group_key()->version, group_before->version);
    EXPECT_EQ(member.pending_count(), 0u);
    EXPECT_EQ(member.recovery_state(), RecoveryState::kSynced);
    EXPECT_GT(member.recovery_stats().duplicates, 0u);
    EXPECT_EQ(member.group_key()->secret,
              server.group_key().secret);
  }
}

}  // namespace
}  // namespace keygraphs::client
