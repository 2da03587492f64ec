// The sharded server: K per-shard lanes stitched by a thin root layer.
//
//   - K = 1 is the paper's single key tree: its wire, journal and snapshot
//     bytes match absolute digests across all four strategies, signed and
//     unsigned.
//   - K > 1: every member converges to the shared group key after every
//     operation; the stitched epoch stream is contiguous; NACK replay
//     filters per-datagram views so cross-shard broadcasts retransmit
//     correctly; resync carries the shared key.
//   - Concurrent writers on distinct users are safe (run under TSan) and
//     never tear the epoch sequence.
#include "server/sharded_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/io.h"
#include "crypto/sha256.h"
#include "storage/backend.h"
#include "transport/inproc.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

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

/// Thread-safe sink for the concurrency tests.
class CountingTransport final : public transport::ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)to;
    (void)resolve;
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(datagram.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t deliveries() const noexcept {
    return deliveries_.load();
  }

 private:
  std::atomic<std::size_t> deliveries_{0};
  std::atomic<std::size_t> bytes_{0};
};

server::ServerConfig signed_base(rekey::StrategyKind strategy,
                                 std::size_t seal_threads) {
  server::ServerConfig config;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  config.strategy = strategy;
  config.rng_seed = 1998;
  config.seal_threads = seal_threads;
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

void expect_same_wire(const std::vector<Sent>& a,
                      const std::vector<Sent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to.kind, b[i].to.kind) << "message " << i;
    EXPECT_EQ(a[i].to.user, b[i].to.user) << "message " << i;
    EXPECT_EQ(a[i].to.include, b[i].to.include) << "message " << i;
    EXPECT_EQ(a[i].to.exclude, b[i].to.exclude) << "message " << i;
    EXPECT_EQ(a[i].datagram, b[i].datagram) << "message " << i;
  }
}

// --- K = 1 byte identity ----------------------------------------------
//
// K = 1 is the paper's single key tree. One scripted run per strategy,
// signed (paper suite, Merkle batch) and unsigned (DES), is pinned by
// SHA-256 digests of three byte streams: every datagram with its
// recipient, the lane-0 journal plus the compacted snapshot the backend
// holds, and the final snapshot(). The digests were recorded from the
// single-tree GroupKeyServer before it was removed (this class matched it
// byte for byte at K = 1), so any change to an rng draw, a header field,
// a journal record, the compaction point or the snapshot layout fails
// here.

struct Golden {
  rekey::StrategyKind strategy;
  bool sign;
  const char* wire;
  const char* journal;
  const char* snapshot;
};

const Golden kGoldens[] = {
    {rekey::StrategyKind::kUserOriented, false,
     "66bb99a2cab80ac8657401b5655eb3fb42b2cd62f910a13ea052217cc14f2402",
     "c3477bc9c1231ad63b7d83b3409f38e2799a32e491d6b27be6181493e96cf7b8",
     "f279683b731a0f9cda63c9b119f25f6e20ac4340d36fabde54a4dad649c25c6c"},
    {rekey::StrategyKind::kKeyOriented, false,
     "2f8c5f4154f3e5bedfeba46dcd3f82101b48ce2f81721f50590cc3b5c4d789ed",
     "f88631e355673bad8f2d970a41b17dcba26a1a7a86abe3ded386d6d83d479469",
     "7061e5101b86b86511f5b3740fc4487836d8a2dd67fc26e07ceaadc21f759103"},
    {rekey::StrategyKind::kGroupOriented, false,
     "86b90fa69afb8bfc1b49f53a408079212f01e0afd4147ef319ab563c43eb1d50",
     "13290b588c7dafe510d3c940f110507009a701ee873671cc6c1dafe6d6f8b71b",
     "7061e5101b86b86511f5b3740fc4487836d8a2dd67fc26e07ceaadc21f759103"},
    {rekey::StrategyKind::kHybrid, false,
     "a23e6b1c0f8b7086a82e3a7da2a3248ae240ccf11b9d05df19ec3a27a93faf64",
     "5cf67b2dbac257bc48913ccf9e31b8e97ce2c0bf17af2cbad7c7e9c62fd9413b",
     "7061e5101b86b86511f5b3740fc4487836d8a2dd67fc26e07ceaadc21f759103"},
    {rekey::StrategyKind::kUserOriented, true,
     "de586dc1135293fe4b4b81b46c84b695fc40343f8bc8107b7e42ff0217de61df",
     "b1092af320e5bd884d8ab2e136cb7ba307b6e10aa0f1033e509e1224248681e7",
     "218408a6e56e613b389657b5545ef9e11b04c66f487b6808f8a40fdf0572fbfb"},
    {rekey::StrategyKind::kKeyOriented, true,
     "7d4d9c4e7bc932b43762bdde2f6bac0dbdfb5f34a8021515d912817ef75ed85e",
     "52b47c3f97c503925f94f52047f4c8eb6f3065547c59bbd49c536124bde4effe",
     "676dce06486b27a802f199dce815a1c989ed7bc0b8737c533d7eb0ab8aab72f4"},
    {rekey::StrategyKind::kGroupOriented, true,
     "73e33b080ebdab9da5abbaa9d5fdbced9d1cbf123314fb6aa1875ee4e37c3cc5",
     "02fe6ae080c7026c9df13853f853be44848dbda2e7c18984d5f6758a050e7575",
     "676dce06486b27a802f199dce815a1c989ed7bc0b8737c533d7eb0ab8aab72f4"},
    {rekey::StrategyKind::kHybrid, true,
     "a49da291abd5c1415cf50c95ef7983d4f92c36abd29096b42aff1404b3ec3a57",
     "0e306a5489bc3f9258fb8a7496729c888ac68e24122f002ed8fa92a88f6497a3",
     "676dce06486b27a802f199dce815a1c989ed7bc0b8737c533d7eb0ab8aab72f4"},
};

server::ShardedServerConfig golden_config(
    const Golden& golden, std::shared_ptr<storage::StorageBackend> backend) {
  server::ServerConfig config;
  if (golden.sign) {
    config.suite = crypto::CryptoSuite::paper_signed();
    config.signing = rekey::SigningMode::kBatch;
  }
  config.strategy = golden.strategy;
  config.rng_seed = 1998;
  config.clock_us = [] { return std::uint64_t{863913600000000}; };
  config.overload.enabled = true;  // healthy: every offer is admitted
  config.storage.backend = std::move(backend);
  config.storage.snapshot_interval = 10;
  return server::ShardedServerConfig{config};
}

/// Joins, leaves, a resync, a NACK served from the window, a batch, gated
/// token join and leave, and an idle overload tick: 22 epochs, compacted
/// at epochs 10 and 20.
void run_golden_churn(server::ShardedGroupKeyServer& server) {
  for (UserId user = 1; user <= 16; ++user) {
    ASSERT_EQ(server.join(user), server::JoinResult::kGranted);
  }
  server.leave(5);
  server.leave(12);
  server.join(100);
  server.resync(7);
  EXPECT_EQ(server.handle_nack(7, server.epoch() - 2),
            server::NackOutcome::kRetransmitted);
  server.batch({200, 201, 202}, {3, 9});
  const Bytes join_token = server.auth().join_token(300);
  ASSERT_EQ(server.offer_join(300, join_token).action,
            server::overload::Admission::kAdmit);
  ASSERT_EQ(server.join_with_token(300, join_token),
            server::JoinResult::kGranted);
  const Bytes leave_token = server.auth().leave_token(14);
  ASSERT_EQ(server.offer_leave(14, leave_token).action,
            server::overload::Admission::kAdmit);
  ASSERT_TRUE(server.leave_with_token(14, leave_token));
  EXPECT_FALSE(server.poll_overload().flushed);
}

std::string sha256_hex(BytesView bytes) {
  crypto::Sha256 digest;
  digest.update(bytes);
  return to_hex(digest.finish());
}

std::string wire_digest(const std::vector<Sent>& sent) {
  crypto::Sha256 digest;
  for (const Sent& message : sent) {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(message.to.kind));
    writer.u64(message.to.user);
    writer.u64(message.to.include);
    writer.u8(message.to.exclude.has_value() ? 1 : 0);
    writer.u64(message.to.exclude.value_or(0));
    writer.var_bytes(message.datagram);
    digest.update(writer.data());
  }
  return to_hex(digest.finish());
}

std::string journal_digest(const storage::StorageBackend& backend) {
  ByteWriter writer;
  writer.var_bytes(backend.read_journal(0, 0));
  writer.u64(backend.snapshot_epoch());
  writer.var_bytes(backend.read_snapshot().value_or(Bytes{}));
  return sha256_hex(writer.data());
}

void expect_golden(rekey::StrategyKind strategy, bool sign) {
  for (const Golden& golden : kGoldens) {
    if (golden.strategy != strategy || golden.sign != sign) continue;
    const auto backend = storage::make_memory_backend(1);
    RecordingTransport wire;
    server::ShardedGroupKeyServer server(golden_config(golden, backend), wire);
    run_golden_churn(server);
    EXPECT_EQ(server.epoch(), 22u);
    EXPECT_EQ(backend->snapshot_epoch(), 20u);
    EXPECT_EQ(wire_digest(wire.sent()), golden.wire);
    EXPECT_EQ(journal_digest(*backend), golden.journal);
    EXPECT_EQ(sha256_hex(server.snapshot()), golden.snapshot);
    return;
  }
  FAIL() << "no golden for this configuration";
}

TEST(ShardedIdentity, GroupOriented) {
  expect_golden(rekey::StrategyKind::kGroupOriented, /*sign=*/true);
}

TEST(ShardedIdentity, UserOriented) {
  expect_golden(rekey::StrategyKind::kUserOriented, /*sign=*/true);
}

TEST(ShardedIdentity, KeyOriented) {
  expect_golden(rekey::StrategyKind::kKeyOriented, /*sign=*/true);
}

TEST(ShardedIdentity, Hybrid) {
  expect_golden(rekey::StrategyKind::kHybrid, /*sign=*/true);
}

TEST(ShardedIdentity, UnsignedDigestPath) {
  for (const auto strategy :
       {rekey::StrategyKind::kUserOriented, rekey::StrategyKind::kKeyOriented,
        rekey::StrategyKind::kGroupOriented, rekey::StrategyKind::kHybrid}) {
    expect_golden(strategy, /*sign=*/false);
  }
}

// A K=1 sharded server with more seal threads still produces the same
// bytes (the plan-time-randomness invariant carries through the lanes).
TEST(ShardedIdentity, SealThreadsDoNotChangeWire) {
  RecordingTransport serial_wire;
  server::ShardedServerConfig serial_config;
  serial_config.base = signed_base(rekey::StrategyKind::kGroupOriented, 1);
  server::ShardedGroupKeyServer serial(serial_config, serial_wire);
  run_churn(serial);

  RecordingTransport parallel_wire;
  server::ShardedServerConfig parallel_config;
  parallel_config.base = signed_base(rekey::StrategyKind::kGroupOriented, 4);
  server::ShardedGroupKeyServer parallel(parallel_config, parallel_wire);
  run_churn(parallel);

  expect_same_wire(serial_wire.sent(), parallel_wire.sent());
}

// --- K > 1 member convergence -----------------------------------------

/// A member client wired to the in-proc network that applies everything
/// delivered to it (and keeps its multicast subscriptions current).
struct Member {
  Member(server::ShardedGroupKeyServer& server,
         transport::InProcNetwork& network, UserId user)
      : network_(network), user_(user) {
    client::ClientConfig config;
    config.user = user;
    config.suite = server.config().base.suite;
    config.group = server.config().base.group;
    config.root = server.root_id();
    config.verify = false;
    config.rng_seed = user;
    client_ = std::make_unique<client::GroupClient>(config, nullptr);
    client_->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server.auth().individual_key(user, config.suite.key_size())});
    attach();
  }

  void attach() {
    network_.attach_client(user_, [this](BytesView datagram) {
      client_->handle_datagram(datagram);
      network_.resubscribe(user_, client_->key_ids());
    });
    network_.resubscribe(user_, client_->key_ids());
  }

  void detach() { network_.detach_client(user_); }

  client::GroupClient& operator*() { return *client_; }
  client::GroupClient* operator->() { return client_.get(); }

  transport::InProcNetwork& network_;
  UserId user_;
  std::unique_ptr<client::GroupClient> client_;
};

server::ShardedServerConfig sharded_config(std::size_t shards,
                                           std::uint64_t* clock_us) {
  server::ShardedServerConfig config;
  config.base.tree_degree = 3;
  config.base.rng_seed = 404;
  config.base.clock_us = [clock_us] { return *clock_us; };
  config.shards = shards;
  return config;
}

void expect_converged(
    server::ShardedGroupKeyServer& server,
    const std::map<UserId, std::unique_ptr<Member>>& members) {
  const SymmetricKey group = server.group_key();
  for (const auto& [user, member] : members) {
    const auto held = (*member)->group_key();
    ASSERT_TRUE(held.has_value()) << "user " << user;
    EXPECT_EQ(held->id, group.id) << "user " << user;
    EXPECT_EQ(held->version, group.version) << "user " << user;
    EXPECT_EQ(held->secret, group.secret) << "user " << user;
    EXPECT_EQ((*member)->applied_epoch(), server.epoch())
        << "user " << user;
  }
}

TEST(ShardedServer, MultiShardChurnConverges) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), network);
  EXPECT_EQ(server.root_id(), kSharedGroupKeyId);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 24; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    ASSERT_EQ(server.join(user), server::JoinResult::kGranted);
  }
  EXPECT_EQ(server.member_count(), 24u);
  EXPECT_EQ(server.epoch(), 24u);
  expect_converged(server, members);

  // Users land on several shards (the router spreads sequential ids).
  bool multiple_shards = false;
  for (UserId user = 2; user <= 24; ++user) {
    if (server.shard_of(user) != server.shard_of(1)) multiple_shards = true;
  }
  EXPECT_TRUE(multiple_shards);

  for (const UserId leaver : {UserId{3}, UserId{7}, UserId{11}, UserId{19}}) {
    members.at(leaver)->detach();
    members.erase(leaver);
    server.leave(leaver);
    expect_converged(server, members);
  }
  EXPECT_EQ(server.member_count(), 20u);

  // Batched update: joiners admitted, leavers cut, at most one epoch per
  // affected shard, and the whole fleet still converges.
  for (const UserId joiner : {UserId{30}, UserId{31}, UserId{32}}) {
    members.emplace(joiner, std::make_unique<Member>(server, network, joiner));
  }
  members.at(2)->detach();
  members.erase(2);
  members.at(13)->detach();
  members.erase(13);
  const std::vector<UserId> admitted = server.batch({30, 31, 32}, {2, 13});
  EXPECT_EQ(admitted.size(), 3u);
  EXPECT_EQ(server.member_count(), 21u);
  expect_converged(server, members);

  // Keysets handed to late observers include the shared group key.
  const std::vector<SymmetricKey> keys = server.keyset(30);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.back().id, kSharedGroupKeyId);
}

TEST(ShardedServer, DuplicateAndDeniedJoins) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedServerConfig config = sharded_config(2, &now);
  server::ShardedGroupKeyServer server(
      config, wire, server::AccessControl::allow_list({1, 2, 3}));
  EXPECT_EQ(server.join(1), server::JoinResult::kGranted);
  EXPECT_EQ(server.join(1), server::JoinResult::kDuplicate);
  EXPECT_EQ(server.join(9), server::JoinResult::kDenied);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_THROW(server.leave(42), ProtocolError);
}

TEST(ShardedServer, NoOpBatchAdvancesNothing) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  server.join(1);
  const std::uint64_t epoch = server.epoch();
  const std::size_t sent = wire.sent().size();
  EXPECT_TRUE(server.batch({}, {}).empty());
  EXPECT_TRUE(server.batch({1}, {}).empty());  // duplicate joiner only
  EXPECT_EQ(server.epoch(), epoch);
  EXPECT_EQ(wire.sent().size(), sent);
}

// --- Recovery across shards -------------------------------------------

TEST(ShardedServer, NackReplayCoversCrossShardBroadcasts) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), network);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 12; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    server.join(user);
  }
  expect_converged(server, members);

  // The victim goes deaf across operations in *other* shards (it missed
  // only the little G-under-its-shard-root broadcasts) and one in its own.
  const UserId victim = 1;
  members.at(victim)->detach();
  std::vector<UserId> others;
  for (UserId user = 2; user <= 12; ++user) {
    if (server.shard_of(user) != server.shard_of(victim)) {
      others.push_back(user);
    }
  }
  ASSERT_GE(others.size(), 2u);
  server.leave(others[0]);
  members.at(others[0])->detach();
  members.erase(others[0]);
  server.leave(others[1]);
  members.at(others[1])->detach();
  members.erase(others[1]);
  server.join(50);  // may land anywhere, including the victim's shard
  members.emplace(50, std::make_unique<Member>(server, network, 50));
  server.resync(50);  // the welcome predated the member's attach

  members.at(victim)->attach();
  EXPECT_LT((*members.at(victim))->applied_epoch(), server.epoch());
  const std::uint64_t epoch_before = server.epoch();
  EXPECT_EQ(server.handle_nack(victim,
                               (*members.at(victim))->applied_epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(server.epoch(), epoch_before);
  expect_converged(server, members);
}

TEST(ShardedServer, OutOfWindowGapFallsBackToResyncWithSharedKey) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedServerConfig config = sharded_config(4, &now);
  config.base.retransmit_window = 1;  // almost everything falls out
  server::ShardedGroupKeyServer server(config, network);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 10; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    server.join(user);
  }
  const UserId victim = 4;
  members.at(victim)->detach();
  server.leave(9);
  members.at(9)->detach();
  members.erase(9);
  server.join(60);
  members.emplace(60, std::make_unique<Member>(server, network, 60));
  server.resync(60);
  server.join(61);
  members.emplace(61, std::make_unique<Member>(server, network, 61));
  server.resync(61);

  members.at(victim)->attach();
  EXPECT_EQ(server.handle_nack(victim,
                               (*members.at(victim))->applied_epoch()),
            server::NackOutcome::kResynced);
  // The resync keyset replay carries the shared group key, so the victim
  // lands on the current group key in one jump.
  expect_converged(server, members);
}

TEST(ShardedServer, NackTokenGuards) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(2, &now), network);
  Member member(server, network, 5);
  server.join(5);
  EXPECT_FALSE(
      server.nack_with_token(5, bytes_of("bogus"), 0).has_value());
  const Bytes token = server.auth().resync_token(5);
  EXPECT_FALSE(server.nack_with_token(99, token, 0).has_value());
  const auto outcome = server.nack_with_token(5, token, 0);
  ASSERT_TRUE(outcome.has_value());
}

// --- Preload ------------------------------------------------------------

TEST(ShardedServer, PreloadAdmitsWithoutEpochsOrMessages) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  std::vector<UserId> users;
  for (UserId user = 1; user <= 500; ++user) users.push_back(user);
  server.preload(users);
  EXPECT_EQ(server.member_count(), 500u);
  EXPECT_EQ(server.epoch(), 0u);
  EXPECT_TRUE(wire.sent().empty());
  EXPECT_TRUE(server.has_member(250));
  // Churn after a preload behaves normally.
  EXPECT_EQ(server.join(501), server::JoinResult::kGranted);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_FALSE(wire.sent().empty());
}

// --- Concurrency (meaningful under TSan) --------------------------------

TEST(ShardedServer, ConcurrentWritersKeepEpochsContiguous) {
  std::uint64_t now = 1'000'000;
  CountingTransport wire;
  server::ShardedServerConfig config = sharded_config(4, &now);
  config.base.seal_threads = 2;
  server::ShardedGroupKeyServer server(config, wire);

  constexpr std::size_t kThreads = 4;
  constexpr UserId kPerThread = 16;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&server, t] {
      const UserId base = 1000 * (static_cast<UserId>(t) + 1);
      for (UserId i = 0; i < kPerThread; ++i) {
        EXPECT_EQ(server.join(base + i), server::JoinResult::kGranted);
      }
      for (UserId i = 0; i < kPerThread; i += 2) {
        server.leave(base + i);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const std::size_t ops = kThreads * (kPerThread + kPerThread / 2);
  EXPECT_EQ(server.epoch(), ops);
  EXPECT_EQ(server.stats().size(), ops);
  EXPECT_EQ(server.member_count(), kThreads * kPerThread / 2);
  EXPECT_GT(wire.deliveries(), 0u);

  // Every member's keyset still resolves and ends in the shared key.
  const std::vector<SymmetricKey> keys = server.keyset(1001);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.back().id, kSharedGroupKeyId);
}

TEST(ShardedServer, ConcurrentWritersWithNacks) {
  std::uint64_t now = 1'000'000;
  CountingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  for (UserId user = 1; user <= 32; ++user) server.join(user);

  std::atomic<bool> stop{false};
  std::thread nacker([&server, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t have = server.epoch();
      (void)server.handle_nack(7, have > 2 ? have - 2 : 0);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 2; ++t) {
    writers.emplace_back([&server, t] {
      const UserId base = 5000 * (static_cast<UserId>(t) + 1);
      for (UserId i = 0; i < 24; ++i) {
        server.join(base + i);
        server.leave(base + i);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  nacker.join();
  EXPECT_EQ(server.member_count(), 32u);
}

TEST(ShardedServer, MembershipReadsRaceShardChurn) {
  // member_count() and has_member() take no lane lock: they must answer
  // from each shard's published view while a writer churns that shard.
  std::uint64_t now = 1'000'000;
  CountingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(2, &now), wire);
  std::vector<UserId> churners;
  for (UserId user = 100; churners.size() < 8; ++user) {
    if (server.shard_of(user) == 0) churners.push_back(user);
  }
  for (UserId user = 1; user <= 16; ++user) server.join(user);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t members = server.member_count();
      EXPECT_GE(members, 16u);
      EXPECT_LE(members, 16u + churners.size());
      (void)server.has_member(churners.front());
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 16; ++round) {
    for (UserId user : churners) server.join(user);
    for (UserId user : churners) server.leave(user);
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(server.member_count(), 16u);
  EXPECT_FALSE(server.has_member(churners.front()));
}

}  // namespace
}  // namespace keygraphs
