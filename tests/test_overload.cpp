// Overload control: bounded admission, token-bucket shedding, the
// healthy/degraded/shedding monitor, degraded-mode batch coalescing, the
// kRetryLater wire reply, the client's retry-after handling, and the
// overload=off byte-identity guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/io.h"
#include "rekey/message.h"
#include "rekey/strategy.h"
#include "server/overload.h"
#include "server/sharded_server.h"
#include "server/spec.h"
#include "telemetry/metrics.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

using server::overload::Admission;
using server::overload::AdmissionController;
using server::overload::Decision;
using server::overload::HealthMonitor;
using server::overload::HealthState;
using server::overload::OverloadConfig;

Bytes retry_later_datagram(std::uint64_t retry_after_us) {
  ByteWriter writer;
  writer.u64(retry_after_us);
  return rekey::Datagram{rekey::MessageType::kRetryLater, writer.take()}
      .encode();
}

TEST(AdmissionControllerTest, TokenBucketShedsWithRefillHint) {
  OverloadConfig config;
  config.enabled = true;
  config.admission_rate = 1.0;  // one admission per second
  config.admission_burst = 2.0;
  AdmissionController gate(config, 1);

  EXPECT_EQ(gate.admit(0, 0, HealthState::kHealthy).action, Admission::kAdmit);
  EXPECT_EQ(gate.admit(0, 0, HealthState::kHealthy).action, Admission::kAdmit);
  const Decision shed = gate.admit(0, 0, HealthState::kHealthy);
  EXPECT_EQ(shed.action, Admission::kShed);
  // Bucket is empty: the hint is the refill time for one token (~1 s).
  EXPECT_GE(shed.retry_after_us, 900'000u);
  EXPECT_LE(shed.retry_after_us, 1'100'000u);
  EXPECT_EQ(gate.total_sheds(), 1u);

  // After the hint elapses the bucket has refilled exactly one token.
  EXPECT_EQ(gate.admit(0, 1'000'000, HealthState::kHealthy).action,
            Admission::kAdmit);
  EXPECT_EQ(gate.admit(0, 1'000'000, HealthState::kHealthy).action,
            Admission::kShed);
}

TEST(AdmissionControllerTest, DegradedCoalescesUpToQueueBound) {
  OverloadConfig config;
  config.enabled = true;
  config.admission_queue = 4;
  AdmissionController gate(config, 1);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.admit(0, 0, HealthState::kDegraded).action,
              Admission::kCoalesce);
  }
  EXPECT_EQ(gate.depth(0), 4u);
  const Decision shed = gate.admit(0, 0, HealthState::kDegraded);
  EXPECT_EQ(shed.action, Admission::kShed);
  EXPECT_EQ(shed.retry_after_us, config.degraded_batch_period_us);
  EXPECT_EQ(gate.max_depth(), 4u);  // the bound held

  gate.release(0, 4);
  EXPECT_EQ(gate.depth(0), 0u);
  EXPECT_EQ(gate.admit(0, 0, HealthState::kDegraded).action,
            Admission::kCoalesce);
}

TEST(AdmissionControllerTest, ConsecutiveShedsTripThePerLaneBreaker) {
  OverloadConfig config;
  config.enabled = true;
  config.admission_queue = 1;
  config.breaker_threshold = 3;
  config.breaker_cooldown_us = 500'000;
  AdmissionController gate(config, 2);

  ASSERT_EQ(gate.admit(0, 0, HealthState::kDegraded).action,
            Admission::kCoalesce);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gate.admit(0, 0, HealthState::kDegraded).action,
              Admission::kShed);
  }
  EXPECT_TRUE(gate.breaker_open(0, 0));
  // The sibling lane is untouched: one slow lane sheds alone.
  EXPECT_FALSE(gate.breaker_open(1, 0));
  EXPECT_EQ(gate.admit(1, 0, HealthState::kDegraded).action,
            Admission::kCoalesce);

  // While open, offers shed instantly with the remaining cooldown.
  const Decision shed = gate.admit(0, 100'000, HealthState::kDegraded);
  EXPECT_EQ(shed.action, Admission::kShed);
  EXPECT_EQ(shed.retry_after_us, 400'000u);

  // The first offer after the cooldown closes the breaker; with its queue
  // slot returned it coalesces again and the streak restarts at zero.
  gate.release(0, 1);
  EXPECT_EQ(gate.admit(0, 600'000, HealthState::kDegraded).action,
            Admission::kCoalesce);
  EXPECT_FALSE(gate.breaker_open(0, 600'000));
}

TEST(AdmissionControllerTest, SlowSealEwmaOpensTheBreaker) {
  OverloadConfig config;
  config.enabled = true;
  config.degrade_seal_us = 1'000;
  AdmissionController gate(config, 1);

  // The EWMA must cross 2 x degrade_seal_us; a steady stream of 10 ms
  // seals gets there within a few samples.
  for (int i = 0; i < 8; ++i) gate.note_seal(0, 10'000, /*now_us=*/0);
  EXPECT_GT(gate.seal_ewma_us(0), 2'000u);
  EXPECT_TRUE(gate.breaker_open(0, 0));
}

TEST(HealthMonitorTest, EscalatesImmediatelyRecoversOneLevelPerDwell) {
  OverloadConfig config;
  config.enabled = true;
  config.admission_queue = 100;
  config.degrade_queue_fraction = 0.5;
  config.shed_queue_fraction = 0.9;
  config.recover_dwell_us = 200'000;
  HealthMonitor monitor(config);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);

  monitor.note_queue_depth(95);
  EXPECT_EQ(monitor.evaluate(0), HealthState::kShedding);

  // The recovery dwell counts from the last pressure signal; stepping
  // down goes one level at a time — never straight back to healthy.
  EXPECT_EQ(monitor.evaluate(199'999), HealthState::kShedding);
  EXPECT_EQ(monitor.evaluate(200'000), HealthState::kDegraded);
  EXPECT_EQ(monitor.evaluate(399'999), HealthState::kDegraded);
  EXPECT_EQ(monitor.evaluate(400'000), HealthState::kHealthy);
}

TEST(HealthMonitorTest, ShedPressureBootstrapsDegraded) {
  OverloadConfig config;
  config.enabled = true;
  HealthMonitor monitor(config);
  // A token-bucket burst sheds before any queue builds: the sheds alone
  // must push the monitor off healthy, or coalescing would never start.
  monitor.note_sheds(3);
  EXPECT_EQ(monitor.evaluate(0), HealthState::kDegraded);
}

TEST(HealthMonitorTest, SloLagPressureEntersDegraded) {
  OverloadConfig config;
  config.enabled = true;
  config.slo_lag_epochs = 4;
  HealthMonitor monitor(config);
  monitor.note_slo_lag(3);
  EXPECT_EQ(monitor.evaluate(0), HealthState::kHealthy);
  monitor.note_slo_lag(4);
  EXPECT_EQ(monitor.evaluate(1), HealthState::kDegraded);
}

// A server pinned into degraded mode (degrade_queue_fraction = 0 makes
// every evaluate land at least at level 1) on a manual clock.
struct DegradedServer {
  std::uint64_t now_us = 1'000'000;
  server::ServerConfig config;
  transport::InProcNetwork network;
  std::unique_ptr<server::ShardedGroupKeyServer> server;

  explicit DegradedServer(UserId members) {
    config.rng_seed = 7;
    config.clock_us = [this] { return now_us; };
    config.overload.enabled = true;
    config.overload.admission_queue = 64;
    config.overload.degraded_batch_period_us = 100'000;
    config.overload.shed_deadline_us = 250'000;
    config.overload.degrade_queue_fraction = 0.0;  // pinned degraded
    server = std::make_unique<server::ShardedGroupKeyServer>(
        server::ShardedServerConfig{config}, network);
    for (UserId user = 1; user <= members; ++user) server->join(user);
    server->poll_overload();  // evaluates into degraded
  }

  Bytes join_token(UserId user) { return server->auth().join_token(user); }
  Bytes leave_token(UserId user) { return server->auth().leave_token(user); }
};

TEST(ServerOverloadTest, DegradedJoinsCoalesceIntoOneBatchFlush) {
  DegradedServer fixture(8);
  server::ShardedGroupKeyServer& server = *fixture.server;
  ASSERT_EQ(server.health(), HealthState::kDegraded);
  const std::uint64_t epoch_before = server.epoch();

  for (UserId user = 100; user < 104; ++user) {
    const server::GateResult gate =
        server.offer_join(user, fixture.join_token(user));
    EXPECT_EQ(gate.action, Admission::kCoalesce);
    EXPECT_FALSE(gate.denied);
  }
  const server::GateResult leave =
      server.offer_leave(3, fixture.leave_token(3));
  EXPECT_EQ(leave.action, Admission::kCoalesce);

  // Nothing rekeys until the batch tick: five ops, zero epochs so far.
  EXPECT_EQ(server.epoch(), epoch_before);
  EXPECT_FALSE(server.has_member(100));

  fixture.now_us += fixture.config.overload.degraded_batch_period_us;
  const server::OverloadTick tick = server.poll_overload();
  EXPECT_TRUE(tick.flushed);
  EXPECT_TRUE(tick.shed.empty());
  EXPECT_EQ(tick.joined.size(), 4u);

  // One coalesced batch: all five ops cost a single epoch.
  EXPECT_EQ(server.epoch(), epoch_before + 1);
  for (UserId user = 100; user < 104; ++user) {
    EXPECT_TRUE(server.has_member(user));
  }
  EXPECT_FALSE(server.has_member(3));
}

TEST(ServerOverloadTest, DuplicateAndConflictingOffers) {
  DegradedServer fixture(8);
  server::ShardedGroupKeyServer& server = *fixture.server;

  ASSERT_EQ(server.offer_join(200, fixture.join_token(200)).action,
            Admission::kCoalesce);
  // Identical duplicate rides the buffered op without a second slot.
  EXPECT_EQ(server.offer_join(200, fixture.join_token(200)).action,
            Admission::kCoalesce);
  EXPECT_EQ(server.admission().depth(0), 1u);

  // A leave for a user whose join is still buffered is shed past the next
  // flush (after which the user is a member and the retried leave
  // succeeds).
  const server::GateResult conflict =
      server.offer_leave(200, fixture.leave_token(200));
  EXPECT_EQ(conflict.action, Admission::kShed);
  EXPECT_EQ(conflict.retry_after_us,
            fixture.config.overload.degraded_batch_period_us);

  // A join for an existing member is a cheap no-op: admitted, and the
  // immediate path answers kDuplicate without rekeying.
  EXPECT_EQ(server.offer_join(1, fixture.join_token(1)).action,
            Admission::kAdmit);

  // Validation failures are denied, never shed and never buffered.
  EXPECT_TRUE(server.offer_join(300, bytes_of("forged")).denied);
  EXPECT_TRUE(server.offer_leave(999, fixture.leave_token(999)).denied);
  EXPECT_EQ(server.admission().depth(0), 1u);
}

TEST(ServerOverloadTest, DeadlineExpiredOpsAreShedAtFlush) {
  DegradedServer fixture(8);
  server::ShardedGroupKeyServer& server = *fixture.server;

  ASSERT_EQ(server.offer_join(400, fixture.join_token(400)).action,
            Admission::kCoalesce);
  // The op waits past shed_deadline_us before the flush runs (e.g. the
  // daemon stalled): it is shed with a retry hint, not applied stale.
  fixture.now_us += fixture.config.overload.shed_deadline_us + 200'000;
  const server::OverloadTick tick = server.poll_overload();
  EXPECT_FALSE(tick.flushed);
  ASSERT_EQ(tick.shed.size(), 1u);
  EXPECT_EQ(tick.shed[0].user, 400u);
  EXPECT_TRUE(tick.shed[0].join);
  EXPECT_GT(tick.shed[0].retry_after_us, 0u);
  EXPECT_FALSE(server.has_member(400));
  // The queue slot was returned.
  EXPECT_EQ(server.admission().depth(0), 0u);
}

// Degraded flushes and direct joins from two threads share one epoch
// sequence: every flush is one batch epoch, every join one more, and none
// is lost or dispatched out of order (TSan watches the buffers, the gate
// and the sequencer).
TEST(ServerOverloadTest, FlushSharesTheEpochSequenceWithDirectJoins) {
  std::atomic<std::uint64_t> now_us{1'000'000};
  server::ServerConfig config;
  config.rng_seed = 11;
  config.clock_us = [&now_us] { return now_us.load(); };
  config.overload.enabled = true;
  config.overload.degrade_queue_fraction = 0.0;
  config.overload.degraded_batch_period_us = 50'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       network);
  for (UserId user = 1; user <= 4; ++user) server.join(user);
  server.poll_overload();  // evaluates into degraded
  ASSERT_EQ(server.health(), HealthState::kDegraded);

  constexpr UserId kOps = 24;
  std::thread direct([&server] {
    for (UserId i = 0; i < kOps; ++i) {
      EXPECT_EQ(server.join(2000 + i), server::JoinResult::kGranted);
    }
  });
  for (UserId i = 0; i < kOps; ++i) {
    const UserId user = 1000 + i;
    EXPECT_EQ(server.offer_join(user, server.auth().join_token(user)).action,
              Admission::kCoalesce);
    now_us += 50'000;
    const server::OverloadTick tick = server.poll_overload();
    EXPECT_TRUE(tick.flushed);
    ASSERT_EQ(tick.joined.size(), 1u);
    EXPECT_EQ(tick.joined[0], user);
  }
  direct.join();
  EXPECT_EQ(server.epoch(), 4u + 2u * kOps);
  EXPECT_EQ(server.member_count(), 4u + 2u * kOps);
  EXPECT_EQ(server.stats().size(), 4u + 2u * kOps);
}

TEST(ServerOverloadTest, OverloadOffProducesIdenticalWireBytes) {
  // Same seed, same pinned clock, same operations: the gated server in
  // its healthy state must emit byte-identical datagrams to the ungated
  // one, so overload=off (and healthy overload=on) leaves goldens intact.
  const auto run = [](bool overload_on) {
    server::ServerConfig config;
    config.rng_seed = 42;
    config.clock_us = [] { return std::uint64_t{5'000'000}; };
    config.overload.enabled = overload_on;
    transport::InProcNetwork network;
    server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                         network);
    std::vector<Bytes> captured;
    for (UserId user = 1; user <= 6; ++user) {
      network.attach_client(user, [&captured](BytesView datagram) {
        captured.emplace_back(datagram.begin(), datagram.end());
      });
    }
    for (UserId user = 1; user <= 5; ++user) {
      const Bytes token = server.auth().join_token(user);
      if (overload_on) {
        const server::GateResult gate = server.offer_join(user, token);
        EXPECT_EQ(gate.action, Admission::kAdmit);
      }
      EXPECT_EQ(server.join_with_token(user, token),
                server::JoinResult::kGranted);
    }
    server.leave(3);
    return captured;
  };

  const std::vector<Bytes> gated = run(true);
  const std::vector<Bytes> ungated = run(false);
  ASSERT_EQ(gated.size(), ungated.size());
  ASSERT_FALSE(gated.empty());
  for (std::size_t i = 0; i < gated.size(); ++i) {
    EXPECT_EQ(gated[i], ungated[i]) << "datagram " << i << " diverged";
  }
}

TEST(RetryLaterWireTest, RoundTripsThroughDatagramCodec) {
  const Bytes wire = retry_later_datagram(123'456);
  const rekey::Datagram decoded = rekey::Datagram::decode(wire);
  EXPECT_EQ(decoded.type, rekey::MessageType::kRetryLater);
  ByteReader reader(decoded.payload);
  EXPECT_EQ(reader.u64(), 123'456u);
  reader.expect_done();
}

// --- Client side: a recovery-enabled client on a manual clock, driven
// into gap recovery with crafted plain-sealed rekeys (the test_recovery
// rig, trimmed to what the retry-later path needs).

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(4242);
  return instance;
}

SymmetricKey make_key(KeyId id, KeyVersion version) {
  return SymmetricKey{id, version, rng().bytes(8)};
}

struct ClientRig {
  ClientRig() {
    client::ClientConfig config;
    config.user = 1;
    config.suite = crypto::CryptoSuite::paper_plain();
    config.group = 0;
    config.root = 100;
    config.verify = false;
    config.rng_seed = 1;
    config.recovery.clock_us = [this] { return now; };
    config.recovery.token = bytes_of("resync-token");
    client = std::make_unique<client::GroupClient>(config, nullptr);
    individual = make_key(individual_key_id(1), 1);
    path = make_key(50, 1);
    client->install_individual_key(individual);
    client->admit_snapshot({path}, 0);
  }

  /// Regular rekey at `epoch`: a new group key wrapped under the path key.
  Bytes group_rekey(std::uint64_t epoch) {
    rekey::RekeyEncryptor encryptor(crypto::CipherAlgorithm::kDes, rng());
    rekey::RekeyMessage message;
    message.epoch = epoch;
    const SymmetricKey group = make_key(100, static_cast<KeyVersion>(epoch));
    message.blobs.push_back(encryptor.wrap(path, std::span(&group, 1)));
    const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                    crypto::DigestAlgorithm::kNone, nullptr);
    return sealer.seal(std::span(&message, 1))[0];
  }

  std::uint64_t now = 1'000'000;
  std::unique_ptr<client::GroupClient> client;
  SymmetricKey individual;
  SymmetricKey path;
};

TEST(ClientRetryLaterTest, DefersRecoveryWithoutConsumingTheNackBudget) {
  ClientRig rig;
  // Epoch 2 with epoch 1 never seen: gap -> recovery.
  const client::RekeyOutcome gap = rig.client->handle_rekey(rig.group_rekey(2));
  ASSERT_TRUE(gap.needs_resync);
  ASSERT_EQ(rig.client->recovery_state(),
            client::RecoveryState::kAwaitingRetransmit);

  // First poll emits a NACK and charges the budget.
  const std::optional<Bytes> nack = rig.client->poll_recovery();
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ(rekey::Datagram::decode(*nack).type,
            rekey::MessageType::kNackRequest);
  const std::size_t nacks_before = rig.client->recovery_stats().nacks_sent;

  // The server sheds it: retry in 2 s, budget refunded.
  const client::RekeyOutcome outcome =
      rig.client->handle_datagram(retry_later_datagram(2'000'000));
  EXPECT_TRUE(outcome.retry_later);
  EXPECT_EQ(rig.client->recovery_stats().retry_later, 1u);

  rig.now += 1'900'000;
  EXPECT_FALSE(rig.client->poll_recovery().has_value());  // honoring the hint
  rig.now += 200'000;
  const std::optional<Bytes> retried = rig.client->poll_recovery();
  ASSERT_TRUE(retried.has_value());
  // The refunded attempt re-sends a NACK (no escalation to resync).
  EXPECT_EQ(rekey::Datagram::decode(*retried).type,
            rekey::MessageType::kNackRequest);
  EXPECT_EQ(rig.client->recovery_stats().nacks_sent, nacks_before + 1);
}

TEST(ClientRetryLaterTest, HintExtendsButNeverShortensTheBackoff) {
  ClientRig rig;
  ASSERT_TRUE(rig.client->handle_rekey(rig.group_rekey(2)).needs_resync);
  ASSERT_TRUE(rig.client->poll_recovery().has_value());

  // A tiny hint must not pull the next attempt earlier than the client's
  // own backoff already scheduled.
  ASSERT_TRUE(rig.client->handle_datagram(retry_later_datagram(1)).retry_later);
  EXPECT_FALSE(rig.client->poll_recovery().has_value());
}

TEST(ClientRetryLaterTest, MangledShedNoticeIsRejectedNotApplied) {
  ClientRig rig;
  const Bytes truncated =
      rekey::Datagram{rekey::MessageType::kRetryLater, {0x01, 0x02}}.encode();
  const client::RekeyOutcome outcome = rig.client->handle_datagram(truncated);
  EXPECT_FALSE(outcome.retry_later);
  EXPECT_EQ(rig.client->totals().rejected, 1u);
  EXPECT_EQ(rig.client->recovery_stats().retry_later, 0u);
}

TEST(OverloadSpecTest, ParsesOverloadKeys) {
  const server::ServerSpec spec = server::parse_server_spec(
      "overload = on\n"
      "admission_queue = 512\n"
      "shed_deadline_us = 300000\n"
      "degraded_batch_period_us = 75000\n"
      "admission_rate = 2000\n"
      "admission_burst = 128\n");
  EXPECT_TRUE(spec.config.overload.enabled);
  EXPECT_EQ(spec.config.overload.admission_queue, 512u);
  EXPECT_EQ(spec.config.overload.shed_deadline_us, 300'000u);
  EXPECT_EQ(spec.config.overload.degraded_batch_period_us, 75'000u);
  EXPECT_DOUBLE_EQ(spec.config.overload.admission_rate, 2000.0);
  EXPECT_DOUBLE_EQ(spec.config.overload.admission_burst, 128.0);
}

TEST(OverloadSpecTest, DefaultsToOffAndRejectsBadValues) {
  EXPECT_FALSE(server::parse_server_spec("").config.overload.enabled);
  EXPECT_THROW(server::parse_server_spec("overload = maybe\n"),
               ProtocolError);
  EXPECT_THROW(server::parse_server_spec("admission_queue = 0\n"),
               ProtocolError);
  EXPECT_THROW(server::parse_server_spec("degraded_batch_period_us = 0\n"),
               ProtocolError);
}

}  // namespace
}  // namespace keygraphs
