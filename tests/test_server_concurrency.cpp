// The key server under real thread contention: concurrent joins and leaves
// from several threads must leave a consistent tree (the invariant checker
// and membership counts catch lost updates or torn state), racing token
// requests for one user must answer rather than throw, and snapshots taken
// mid-churn must restore. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/error.h"
#include "server/sharded_server.h"
#include "transport/transport.h"

namespace keygraphs::server {
namespace {

ShardedServerConfig seeded(std::uint64_t seed) {
  ShardedServerConfig config;
  config.base.rng_seed = seed;
  return config;
}

TEST(ServerConcurrency, SingleThreadBehavesLikePlainServer) {
  transport::NullTransport transport;
  ShardedGroupKeyServer server(seeded(3), transport);
  EXPECT_EQ(server.join(1), JoinResult::kGranted);
  EXPECT_EQ(server.join(1), JoinResult::kDuplicate);
  EXPECT_TRUE(server.has_member(1));
  server.leave(1);
  EXPECT_FALSE(server.has_member(1));
  EXPECT_EQ(server.epoch(), 2u);
}

TEST(ServerConcurrency, TokenPathsWork) {
  transport::NullTransport transport;
  ShardedGroupKeyServer server(seeded(4), transport);
  EXPECT_EQ(server.join_with_token(5, server.auth().join_token(5)),
            JoinResult::kGranted);
  EXPECT_TRUE(server.leave_with_token(5, server.auth().leave_token(5)));
}

TEST(ServerConcurrency, ConcurrentJoinsAllLand) {
  transport::NullTransport transport;
  ShardedGroupKeyServer server(seeded(5), transport);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &granted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const UserId user =
            static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) + 1;
        if (server.join(user) == JoinResult::kGranted) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), kThreads * kPerThread);
  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  server.tree().shard(0).check_invariants();
}

TEST(ServerConcurrency, ConcurrentMixedChurnStaysConsistent) {
  transport::NullTransport transport;
  ShardedGroupKeyServer server(seeded(6), transport);
  // Pre-populate a disjoint range per thread; each thread churns only its
  // own users, so every leave targets a member.
  constexpr int kThreads = 6;
  constexpr int kUsersPerThread = 30;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kUsersPerThread; ++i) {
      server.join(static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) +
                  1);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      for (int round = 0; round < 20; ++round) {
        const UserId base = static_cast<UserId>(t) * 1000;
        const UserId user = base + static_cast<UserId>(round % 30) + 1;
        server.leave(user);
        server.join(user);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kUsersPerThread));
  server.tree().shard(0).check_invariants();
  // Epoch counts every operation exactly once.
  EXPECT_EQ(server.epoch(), static_cast<std::uint64_t>(
                                kThreads * kUsersPerThread +  // initial
                                kThreads * 20 * 2));          // churn
}

// The narrow critical section under real contention: 8 threads mixing
// joins, leaves and resyncs while the seal phase itself fans out across 4
// pool threads. This is the TSan target for the plan/seal/dispatch split —
// any server state touched outside its lock shows up here.
TEST(ServerConcurrency, EightThreadChurnWithParallelSeal) {
  transport::NullTransport transport;
  ShardedServerConfig config = seeded(8);
  config.base.seal_threads = 4;
  config.base.suite = crypto::CryptoSuite::paper_signed();
  config.base.signing = rekey::SigningMode::kBatch;
  ShardedGroupKeyServer server(config, transport);

  constexpr int kThreads = 8;
  constexpr int kUsersPerThread = 12;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kUsersPerThread; ++i) {
      server.join(static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) + 1);
    }
  }
  const std::uint64_t epoch_before = server.epoch();

  std::vector<std::thread> threads;
  constexpr int kRounds = 10;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      const UserId base = static_cast<UserId>(t) * 1000;
      for (int round = 0; round < kRounds; ++round) {
        const UserId user = base + static_cast<UserId>(round % 12) + 1;
        server.resync(user);  // replay: must not advance the epoch
        server.leave(user);
        server.join(user);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kUsersPerThread));
  server.tree().shard(0).check_invariants();
  // Leaves and joins each advance the epoch once; resyncs never do.
  EXPECT_EQ(server.epoch(), epoch_before + kThreads * kRounds * 2);
  // Every operation dispatched exactly once, in epoch order; the stats
  // ledger must account all of them (initial joins + churn + resyncs).
  EXPECT_EQ(server.stats().size(),
            static_cast<std::size_t>(kThreads * kUsersPerThread +
                                     kThreads * kRounds * 3));
}

// Token requests for one user race each other: two leaves, a resync and a
// NACK whose gap falls outside the window (so it resyncs). Whatever the
// interleaving, exactly one leave wins, and every loser — including a
// resync or NACK that arrives after the leave — answers false/nullopt
// instead of throwing from a membership check made on an older view.
TEST(ServerConcurrency, RacingTokenRequestsAnswerInsteadOfThrowing) {
  transport::NullTransport transport;
  ShardedServerConfig config = seeded(9);
  config.base.retransmit_window = 1;
  config.base.recovery_rate = 0;  // no rate limit: every NACK is served
  ShardedGroupKeyServer server(config, transport);
  for (UserId user = 1; user <= 8; ++user) server.join(user);
  const UserId user = 50;
  const Bytes leave_token = server.auth().leave_token(user);
  const Bytes resync_token = server.auth().resync_token(user);

  constexpr int kRounds = 300;
  constexpr int kRacers = 4;
  std::barrier start(kRacers + 1);
  std::barrier finish(kRacers + 1);
  std::atomic<int> thrown{0};
  std::atomic<int> leaves_granted{0};
  const auto race = [&](auto request) {
    return std::thread([&, request] {
      for (int round = 0; round < kRounds; ++round) {
        start.arrive_and_wait();
        try {
          request();
        } catch (const Error&) {
          thrown.fetch_add(1, std::memory_order_relaxed);
        }
        finish.arrive_and_wait();
      }
    });
  };
  const auto leave = [&] {
    if (server.leave_with_token(user, leave_token)) {
      leaves_granted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> racers;
  racers.push_back(race(leave));
  racers.push_back(race(leave));
  racers.push_back(
      race([&] { (void)server.resync_with_token(user, resync_token); }));
  racers.push_back(
      race([&] { (void)server.nack_with_token(user, resync_token, 0); }));
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(server.join(user), JoinResult::kGranted);
    start.arrive_and_wait();
    finish.arrive_and_wait();
    EXPECT_FALSE(server.has_member(user));
  }
  for (std::thread& racer : racers) racer.join();
  EXPECT_EQ(thrown.load(), 0);
  EXPECT_EQ(leaves_granted.load(), kRounds);
  EXPECT_EQ(server.epoch(), 8u + 2u * kRounds);
}

TEST(ServerConcurrency, SnapshotWhileChurning) {
  transport::NullTransport transport;
  ShardedGroupKeyServer server(seeded(7), transport);
  for (UserId user = 1; user <= 32; ++user) server.join(user);

  std::atomic<bool> stop{false};
  std::thread churner([&server, &stop] {
    UserId next = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      server.join(next);
      server.leave(next);
      ++next;
    }
  });
  // Snapshots taken mid-churn must always be internally consistent
  // (deserialize validates every invariant).
  for (int i = 0; i < 50; ++i) {
    const Bytes snapshot = server.snapshot();
    transport::NullTransport replica_transport;
    ShardedGroupKeyServer replica(seeded(7), replica_transport);
    EXPECT_NO_THROW(replica.restore(snapshot));
    EXPECT_GE(replica.member_count(), 32u);
  }
  stop.store(true);
  churner.join();
}

}  // namespace
}  // namespace keygraphs::server
