// Plan/seal/dispatch pipeline: the thread pool primitive, the executor, and
// the keystone determinism guarantee — a server sealing with N threads puts
// byte-identical datagrams on the wire, in the same order, as one sealing
// serially. All randomness (IVs, new keys) is drawn at plan time, so the
// RNG stream never depends on seal_threads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "rekey/executor.h"
#include "rekey/plan.h"
#include "server/sharded_server.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

// --- ThreadPool -------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  int sum = 0;
  pool.parallel_for(10, [&sum](std::size_t i) {
    sum += static_cast<int>(i);  // inline on the caller: no race
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyAndSingleItemBatches) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no indices to run"; });
  std::atomic<int> runs{0};
  pool.parallel_for(1, [&runs](std::size_t i) {
    EXPECT_EQ(i, 0u);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&completed](std::size_t i) {
                          if (i == 17) throw Error("boom");
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
      Error);
  // The batch still drained: every non-throwing index ran.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kItems = 100;
  std::vector<std::atomic<std::size_t>> counts(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &counts, c] {
      for (int round = 0; round < 10; ++round) {
        pool.parallel_for(kItems, [&counts, c](std::size_t) {
          counts[c].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& count : counts) EXPECT_EQ(count.load(), 10 * kItems);
}

// --- Planner / executor edges -----------------------------------------

TEST(Executor, EmptyPlanSealsToNothing) {
  crypto::SecureRandom rng(1);
  rekey::RekeyPlanner planner(crypto::CipherAlgorithm::kDes, rng);
  const rekey::RekeyPlan plan = planner.take({});
  rekey::RekeyExecutor executor(crypto::CipherAlgorithm::kDes, 4);
  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  EXPECT_TRUE(executor.seal(plan, sealer).empty());
}

TEST(Planner, WrapRequiresTargets) {
  crypto::SecureRandom rng(1);
  rekey::RekeyPlanner planner(crypto::CipherAlgorithm::kDes, rng);
  const SymmetricKey wrapping{1, 1, rng.bytes(8)};
  EXPECT_THROW(planner.wrap(wrapping, {}), Error);
}

TEST(Snapshot, MissingKeyThrows) {
  rekey::KeySnapshot snapshot;
  EXPECT_THROW(snapshot.secret(KeyRef{9, 1}), Error);
}

// --- Determinism guard ------------------------------------------------

struct Sent {
  rekey::Recipient to;
  Bytes datagram;
};

class RecordingTransport final : public transport::ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)resolve;
    sent_.push_back(Sent{to, Bytes(datagram.begin(), datagram.end())});
  }

  [[nodiscard]] const std::vector<Sent>& sent() const noexcept {
    return sent_;
  }

 private:
  std::vector<Sent> sent_;
};

server::ServerConfig signed_config(rekey::StrategyKind strategy,
                                   std::size_t seal_threads) {
  server::ServerConfig config;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  config.strategy = strategy;
  config.rng_seed = 1998;
  config.seal_threads = seal_threads;
  // Signatures cover the timestamp; pin the clock so the only remaining
  // source of variation would be the seal schedule itself.
  config.clock_us = [] { return std::uint64_t{863913600000000}; };
  return config;
}

void run_churn(server::ShardedGroupKeyServer& server) {
  for (UserId user = 1; user <= 16; ++user) server.join(user);
  server.leave(5);
  server.leave(12);
  server.join(100);
  server.resync(7);
  server.batch({200, 201, 202}, {3, 9});
}

void expect_identical_wire(rekey::StrategyKind strategy) {
  RecordingTransport serial_wire;
  server::ShardedGroupKeyServer serial(
      server::ShardedServerConfig{signed_config(strategy, 1)}, serial_wire);
  run_churn(serial);

  RecordingTransport parallel_wire;
  server::ShardedGroupKeyServer parallel(
      server::ShardedServerConfig{signed_config(strategy, 4)}, parallel_wire);
  run_churn(parallel);

  EXPECT_EQ(serial.epoch(), parallel.epoch());
  ASSERT_EQ(serial_wire.sent().size(), parallel_wire.sent().size());
  for (std::size_t i = 0; i < serial_wire.sent().size(); ++i) {
    const Sent& a = serial_wire.sent()[i];
    const Sent& b = parallel_wire.sent()[i];
    EXPECT_EQ(a.to.kind, b.to.kind) << "message " << i;
    EXPECT_EQ(a.to.user, b.to.user) << "message " << i;
    EXPECT_EQ(a.to.include, b.to.include) << "message " << i;
    EXPECT_EQ(a.to.exclude, b.to.exclude) << "message " << i;
    EXPECT_EQ(a.datagram, b.datagram) << "message " << i;
  }
}

TEST(PipelineDeterminism, GroupOriented) {
  expect_identical_wire(rekey::StrategyKind::kGroupOriented);
}

TEST(PipelineDeterminism, UserOriented) {
  expect_identical_wire(rekey::StrategyKind::kUserOriented);
}

TEST(PipelineDeterminism, KeyOriented) {
  expect_identical_wire(rekey::StrategyKind::kKeyOriented);
}

TEST(PipelineDeterminism, Hybrid) {
  expect_identical_wire(rekey::StrategyKind::kHybrid);
}

// Unsigned DES configuration too: exercises the digest-only envelope path
// under parallel sealing.
TEST(PipelineDeterminism, UnsignedDigestPath) {
  server::ServerConfig base;
  base.rng_seed = 77;
  base.clock_us = [] { return std::uint64_t{42}; };

  RecordingTransport serial_wire;
  {
    server::ServerConfig config = base;
    config.seal_threads = 1;
    server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                         serial_wire);
    run_churn(server);
  }
  RecordingTransport parallel_wire;
  {
    server::ServerConfig config = base;
    config.seal_threads = 8;
    server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                         parallel_wire);
    run_churn(server);
  }
  ASSERT_EQ(serial_wire.sent().size(), parallel_wire.sent().size());
  for (std::size_t i = 0; i < serial_wire.sent().size(); ++i) {
    EXPECT_EQ(serial_wire.sent()[i].datagram, parallel_wire.sent()[i].datagram)
        << "message " << i;
  }
}

// The eager compat path (plan + materialize) and the executor must produce
// the same messages for the same plan: IVs live in the plan, so both sides
// encrypt identically.
TEST(PipelineDeterminism, MaterializeMatchesExecutor) {
  crypto::SecureRandom rng(5);
  rekey::RekeyPlanner planner(crypto::CipherAlgorithm::kDes, rng);
  const SymmetricKey wrapping{1, 1, rng.bytes(8)};
  const std::vector<SymmetricKey> targets{{2, 1, rng.bytes(8)},
                                          {3, 2, rng.bytes(8)}};
  rekey::PlannedRekey planned;
  planned.to = rekey::Recipient::to_user(7);
  planned.header.group = 1;
  planned.header.epoch = 3;
  planned.header.timestamp_us = 42;
  planned.ops = {planner.wrap(wrapping, targets)};
  const rekey::RekeyPlan plan = planner.take({planned});

  crypto::SecureRandom eager_rng(99);  // unused: all IVs are in the plan
  rekey::RekeyEncryptor encryptor(crypto::CipherAlgorithm::kDes, eager_rng);
  const std::vector<rekey::OutboundRekey> eager =
      rekey::materialize(plan, encryptor);
  EXPECT_EQ(encryptor.key_encryptions(), 2u);

  rekey::RekeyExecutor executor(crypto::CipherAlgorithm::kDes, 2);
  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  const std::vector<rekey::SealedRekey> sealed = executor.seal(plan, sealer);

  ASSERT_EQ(eager.size(), 1u);
  ASSERT_EQ(sealed.size(), 1u);
  const rekey::RekeyOpener opener(nullptr);
  const rekey::OpenedRekey opened = opener.open(sealed[0].wire, true);
  EXPECT_EQ(opened.message, eager[0].message);
  EXPECT_EQ(sealed[0].to.user, eager[0].to.user);
}

// A restore() of an older snapshot re-issues (KeyId, version) pairs with
// new secrets, so one executor can meet the same wrapping-key ref under two
// secrets. Each plan must seal under its own secret: byte for byte what the
// eager path builds from scratch for that plan.
TEST(PipelineDeterminism, ReissuedKeyVersionSealsUnderItsOwnSecret) {
  for (const crypto::CipherAlgorithm cipher :
       {crypto::CipherAlgorithm::kDes, crypto::CipherAlgorithm::kAes128}) {
    const std::size_t key_size = crypto::cipher_key_size(cipher);
    crypto::SecureRandom rng(6);
    rekey::RekeyExecutor executor(cipher, 1);
    const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                    crypto::DigestAlgorithm::kNone, nullptr);
    std::vector<Bytes> ciphertexts;
    for (int generation = 0; generation < 2; ++generation) {
      rekey::RekeyPlanner planner(cipher, rng);
      const SymmetricKey wrapping{4, 4, rng.bytes(key_size)};
      const std::vector<SymmetricKey> targets{{5, 1, rng.bytes(key_size)}};
      rekey::PlannedRekey planned;
      planned.to = rekey::Recipient::to_user(7);
      planned.header.group = 1;
      planned.header.epoch = 3;
      planned.ops = {planner.wrap(wrapping, targets)};
      const rekey::RekeyPlan plan = planner.take({planned});

      crypto::SecureRandom eager_rng(99);  // unused: all IVs are in the plan
      rekey::RekeyEncryptor encryptor(cipher, eager_rng);
      const std::vector<rekey::OutboundRekey> eager =
          rekey::materialize(plan, encryptor);
      const std::vector<rekey::SealedRekey> sealed =
          executor.seal(plan, sealer);
      ASSERT_EQ(eager.size(), 1u);
      ASSERT_EQ(sealed.size(), 1u);
      EXPECT_EQ(sealed[0].wire,
                sealer.envelope(eager[0].message.serialize_body(), nullptr))
          << crypto::cipher_name(cipher) << " generation " << generation;
      ciphertexts.push_back(eager[0].message.blobs.at(0).ciphertext);
    }
    EXPECT_NE(ciphertexts[0], ciphertexts[1]);
  }
}

}  // namespace
}  // namespace keygraphs
