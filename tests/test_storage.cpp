// Durable state: CRC framing, journal records, the storage backends, the
// DurableStore append/load/tail/compact lifecycle, whole-server crash
// recovery via rng-tape replay — including the typed corruption errors
// (torn tail, CRC damage, epoch gaps) and byte-identical restart on the
// file backend — compaction of every lane into one snapshot at K = 4, and
// hot-standby promotion at K = 1 and K = 4, across compactions included.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/error.h"
#include "common/io.h"
#include "server/sharded_server.h"
#include "server/standby.h"
#include "storage/backend.h"
#include "storage/crc32.h"
#include "storage/durable.h"
#include "storage/record.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

using storage::Cursor;
using storage::DurableStore;
using storage::FrameScan;
using storage::JournalRecord;
using storage::OpKind;
using storage::RecoveredLog;
using storage::RecoveryOptions;
using storage::StorageBackend;

/// Fresh per-test scratch directory under the system tmp dir (unique per
/// process so parallel ctest runs never collide).
std::string temp_dir(const std::string& tag) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("kg_storage_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  return base.string();
}

/// The one journal segment in `dir` (lane 0, any generation/suffix).
std::string journal_file(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0) return entry.path().string();
  }
  ADD_FAILURE() << "no journal segment in " << dir;
  return {};
}

JournalRecord sample_record(std::uint64_t epoch) {
  JournalRecord record;
  record.epoch = epoch;
  record.kind = OpKind::kJoin;
  record.shard = 0;
  record.timestamp_us = 1'000'000 + epoch;
  record.joins = {epoch};
  record.rng_tape = Bytes{1, 2, 3, static_cast<std::uint8_t>(epoch)};
  record.sealed_digest = Bytes(32, static_cast<std::uint8_t>(epoch));
  return record;
}

// --- CRC + frame layer --------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(storage::crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(storage::crc32(BytesView{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = bytes_of("write-ahead journals are just tapes");
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    crc = storage::crc32_update(crc, data.data() + i,
                                std::min<std::size_t>(7, data.size() - i));
  }
  EXPECT_EQ(crc, storage::crc32(data));
}

TEST(JournalRecord, PayloadRoundTripsExactly) {
  JournalRecord record = sample_record(7);
  record.sequence = 42;
  record.kind = OpKind::kBatch;
  record.shard = 3;
  record.joins = {10, 11, 12};
  record.leaves = {4};
  record.root_tape = bytes_of("root draws");
  const JournalRecord back =
      JournalRecord::decode_payload(record.encode_payload());
  EXPECT_EQ(back.sequence, 42u);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.kind, OpKind::kBatch);
  EXPECT_EQ(back.shard, 3u);
  EXPECT_EQ(back.timestamp_us, record.timestamp_us);
  EXPECT_EQ(back.joins, record.joins);
  EXPECT_EQ(back.leaves, record.leaves);
  EXPECT_EQ(back.rng_tape, record.rng_tape);
  EXPECT_EQ(back.root_tape, record.root_tape);
  EXPECT_EQ(back.sealed_digest, record.sealed_digest);
}

TEST(JournalRecord, FrameScanWalksBackToBackRecords) {
  Bytes stream;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const Bytes frame = sample_record(epoch).encode_frame();
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const FrameScan scan = storage::scan_frames(stream);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.consumed, stream.size());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records[4].epoch, 5u);
}

TEST(JournalRecord, TornTailIsFlaggedNotThrown) {
  Bytes stream = sample_record(1).encode_frame();
  const Bytes second = sample_record(2).encode_frame();
  stream.insert(stream.end(), second.begin(), second.end() - 5);
  const FrameScan scan = storage::scan_frames(stream);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.consumed, stream.size() - (second.size() - 5));
}

TEST(JournalRecord, CrcDamageMidSegmentThrowsCorrupt) {
  Bytes stream = sample_record(1).encode_frame();
  const std::size_t first = stream.size();
  const Bytes second = sample_record(2).encode_frame();
  stream.insert(stream.end(), second.begin(), second.end());
  stream[first + storage::kFrameHeaderSize + 3] ^= 0xff;  // payload bit rot
  EXPECT_THROW(storage::scan_frames(stream), storage::JournalCorruptError);
  Bytes bad_magic = stream;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(storage::scan_frames(bad_magic),
               storage::JournalCorruptError);
}

// --- Backends -----------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::shared_ptr<StorageBackend> make(std::size_t lanes) {
    const std::string kind = GetParam();
    if (kind == "memory") return storage::make_memory_backend(lanes);
    dir_ = temp_dir(std::string(kind) + "_backend");
    return storage::make_file_backend(dir_, lanes);
  }
  std::string dir_;
};

TEST_P(BackendTest, AppendReadTruncateRoundTrip) {
  const auto backend = make(2);
  EXPECT_EQ(backend->lanes(), 2u);
  backend->append(0, bytes_of("alpha"));
  backend->append(0, bytes_of("beta"));
  backend->append(1, bytes_of("gamma"));
  backend->sync(0);
  backend->sync(1);
  EXPECT_EQ(backend->journal_size(0), 9u);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alphabeta"));
  EXPECT_EQ(backend->read_journal(0, 5), bytes_of("beta"));
  EXPECT_EQ(backend->read_journal(1, 0), bytes_of("gamma"));
  backend->truncate(0, 5);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alpha"));
  backend->append(0, bytes_of("delta"));
  backend->sync(0);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alphadelta"));
}

TEST_P(BackendTest, CompactReplacesSnapshotAndTruncatesLanes) {
  const auto backend = make(1);
  EXPECT_FALSE(backend->read_snapshot().has_value());
  EXPECT_EQ(backend->generation(), 0u);
  backend->append(0, bytes_of("journal bytes"));
  backend->sync(0);
  backend->compact(9, bytes_of("state at epoch nine"));
  EXPECT_EQ(backend->generation(), 1u);
  EXPECT_EQ(backend->journal_size(0), 0u);
  const auto snapshot = backend->read_snapshot();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(*snapshot, bytes_of("state at epoch nine"));
  EXPECT_EQ(backend->snapshot_epoch(), 9u);
  backend->compact(12, bytes_of("newer"));
  EXPECT_EQ(backend->generation(), 2u);
  EXPECT_EQ(backend->snapshot_epoch(), 12u);
}

TEST_P(BackendTest, SurvivesReopenWhenDiskBacked) {
  const auto backend = make(1);
  backend->append(0, bytes_of("persisted"));
  backend->sync(0);
  backend->compact(3, bytes_of("snap"));
  backend->append(0, bytes_of("after"));
  backend->sync(0);
  if (dir_.empty()) return;  // memory backend: nothing to reopen
  const auto reopened = storage::make_file_backend(dir_, 1);
  EXPECT_EQ(reopened->generation(), 1u);
  EXPECT_EQ(reopened->snapshot_epoch(), 3u);
  ASSERT_TRUE(reopened->read_snapshot().has_value());
  EXPECT_EQ(*reopened->read_snapshot(), bytes_of("snap"));
  EXPECT_EQ(reopened->read_journal(0, 0), bytes_of("after"));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values("memory", "file"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- DurableStore -------------------------------------------------------

TEST(DurableStore, AppendAssignsSequencesAndLoadReturnsThem) {
  DurableStore store(storage::make_memory_backend(1), 0);
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    JournalRecord record = sample_record(epoch);
    store.append(record);
    EXPECT_EQ(record.sequence, epoch);
  }
  const RecoveredLog log = store.load(RecoveryOptions{});
  EXPECT_FALSE(log.snapshot.has_value());
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records.front().epoch, 1u);
  EXPECT_EQ(log.records.back().sequence, 4u);
}

TEST(DurableStore, LoadMergesLanesByCommitSequence) {
  DurableStore store(storage::make_memory_backend(3), 0);
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    JournalRecord record = sample_record(epoch);
    record.shard = static_cast<std::uint32_t>(epoch % 3);  // spread lanes
    store.append(record);
  }
  const RecoveredLog log = store.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log.records[i].sequence, i + 1);
    EXPECT_EQ(log.records[i].epoch, i + 1);
  }
}

TEST(DurableStore, EpochGapInJournalThrowsTyped) {
  const auto backend = storage::make_memory_backend(1);
  {
    DurableStore store(backend, 0);
    for (const std::uint64_t epoch : {1u, 2u, 4u}) {  // 3 went missing
      JournalRecord record = sample_record(epoch);
      store.append(record);
    }
  }
  DurableStore reader(backend, 0);
  EXPECT_THROW(reader.load(RecoveryOptions{}), storage::EpochGapError);
}

TEST(DurableStore, SnapshotJournalEpochGapThrowsTyped) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore store(backend, 0);
  store.compact(5, bytes_of("snapshot at five"));
  JournalRecord record = sample_record(7);  // 6 never journaled
  store.append(record);
  EXPECT_THROW(store.load(RecoveryOptions{}), storage::EpochGapError);
}

TEST(DurableStore, PreloadRecordsAreExemptFromEpochContiguity) {
  DurableStore store(storage::make_memory_backend(1), 0);
  JournalRecord preload = sample_record(0);
  preload.kind = OpKind::kPreload;
  preload.joins = {1, 2, 3};
  store.append(preload);
  JournalRecord first = sample_record(1);
  store.append(first);
  const RecoveredLog log = store.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records.front().kind, OpKind::kPreload);
}

TEST(DurableStore, TailFeedsNewRecordsAndReanchorsOnCompaction) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore writer(backend, 0);
  DurableStore reader(backend, 0);
  Cursor cursor;

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    JournalRecord record = sample_record(epoch);
    writer.append(record);
  }
  storage::Tail tail = reader.tail(cursor);
  EXPECT_FALSE(tail.snapshot.has_value());
  ASSERT_EQ(tail.records.size(), 3u);

  JournalRecord fourth = sample_record(4);
  writer.append(fourth);
  tail = reader.tail(cursor);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records.front().epoch, 4u);

  // Nothing new: an idle poll returns empty without disturbing the cursor.
  tail = reader.tail(cursor);
  EXPECT_TRUE(tail.records.empty());

  // Compaction invalidates the cursor's byte offsets; the next tail
  // re-anchors on the snapshot and the (now truncated) journal.
  writer.compact(4, bytes_of("state at four"));
  JournalRecord fifth = sample_record(5);
  writer.append(fifth);
  tail = reader.tail(cursor);
  ASSERT_TRUE(tail.snapshot.has_value());
  EXPECT_EQ(tail.snapshot_epoch, 4u);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records.front().epoch, 5u);
}

TEST(DurableStore, DropTailAfterCutsTornBytes) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore writer(backend, 0);
  JournalRecord record = sample_record(1);
  writer.append(record);

  DurableStore reader(backend, 0);
  Cursor cursor;
  EXPECT_EQ(reader.tail(cursor).records.size(), 1u);

  // A dead writer's half-appended frame...
  const Bytes half = sample_record(9).encode_frame();
  backend->append(0, Bytes(half.begin(), half.end() - 5));
  const storage::Tail quiet = reader.tail(cursor);
  EXPECT_TRUE(quiet.records.empty());  // waiting, not throwing
  // ...is cut at promotion so new appends start on a frame boundary.
  reader.drop_tail_after(cursor);
  JournalRecord next = sample_record(2);
  reader.append(next);
  EXPECT_EQ(next.sequence, 2u);  // sequence continues past the observed one
  const RecoveredLog log = reader.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records.back().epoch, 2u);
}

// --- Whole-server recovery ---------------------------------------------

server::ShardedServerConfig durable_config(
    std::uint64_t seed, std::shared_ptr<StorageBackend> backend,
    std::size_t shards = 1) {
  server::ShardedServerConfig config;
  config.shards = shards;
  config.base.tree_degree = 4;
  config.base.rng_seed = seed;
  config.base.retransmit_window = 16;
  config.base.recovery_rate = 0;
  config.base.storage.backend = std::move(backend);
  return config;
}

void churn(server::ShardedGroupKeyServer& server) {
  for (UserId user = 1; user <= 12; ++user) server.join(user);
  server.leave(3);
  server.batch({20, 21, 22}, {5, 6});
  server.leave(1);
}

TEST(ServerRecovery, ReplayRebuildsByteIdenticalState) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(durable_config(77, backend), transport);
  churn(primary);
  const Bytes expected = primary.snapshot();
  const std::uint64_t epoch = primary.epoch();

  // A replica with a *different* seed converges to the same bytes: every
  // key the original drew is replayed from the journaled rng tapes.
  server::ShardedGroupKeyServer replica(durable_config(12345, backend),
                                        transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.epoch(), epoch);
  EXPECT_EQ(replica.snapshot(), expected);
  EXPECT_EQ(replica.group_key(), primary.group_key());

  // The replica keeps operating — and journals its own ops durably.
  replica.join(100);
  EXPECT_EQ(replica.epoch(), epoch + 1);
}

TEST(ServerRecovery, ResyncsAreNeverJournaled) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(durable_config(31, backend), transport);
  server.join(1);
  server.join(2);
  const std::size_t before = server.durable()->load(RecoveryOptions{})
                                 .records.size();
  server.resync(1);
  (void)server.handle_nack(2, 1);
  EXPECT_EQ(server.durable()->load(RecoveryOptions{}).records.size(),
            before);
}

TEST(ServerRecovery, ReplayRehydratesTheRetransmitWindow) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(durable_config(55, backend), transport);
  churn(primary);

  server::ShardedGroupKeyServer replica(durable_config(55, backend), transport);
  replica.recover_from_storage();
  // A member one epoch behind is served from the rehydrated sealed-bytes
  // ring — no resync fallback, exactly as the original server would.
  EXPECT_EQ(replica.handle_nack(2, replica.epoch() - 1),
            server::NackOutcome::kRetransmitted);
}

TEST(ServerRecovery, WrongAuthMasterFailsAsDivergence) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(durable_config(41, backend), transport);
  churn(primary);

  server::ShardedServerConfig wrong = durable_config(41, backend);
  wrong.base.auth_master = bytes_of("not the same secret");
  server::ShardedGroupKeyServer replica(wrong, transport);
  EXPECT_THROW(replica.recover_from_storage(),
               storage::ReplayDivergenceError);
}

TEST(ServerRecovery, SnapshotIntervalCompactsAndRecoveryUsesIt) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ShardedServerConfig config = durable_config(63, backend);
  config.base.storage.snapshot_interval = 4;
  server::ShardedGroupKeyServer primary(config, transport);
  for (UserId user = 1; user <= 10; ++user) primary.join(user);

  // 10 commits with interval 4: compacted at least twice, and the journal
  // holds only the records after the last snapshot.
  EXPECT_GE(backend->generation(), 2u);
  ASSERT_TRUE(backend->read_snapshot().has_value());
  const RecoveredLog log = primary.durable()->load(RecoveryOptions{});
  EXPECT_GT(log.snapshot_epoch, 0u);
  EXPECT_LT(log.records.size(), 10u);

  server::ShardedGroupKeyServer replica(config, transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.epoch(), primary.epoch());
  EXPECT_EQ(replica.snapshot(), primary.snapshot());
}

TEST(ServerRecovery, FileBackendRestartIsByteIdentical) {
  const std::string dir = temp_dir("file_restart");
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.base.rng_seed = 99;
  config.base.storage.kind = storage::Kind::kFile;
  config.base.storage.journal_dir = dir;
  config.base.storage.snapshot_interval = 6;

  Bytes expected;
  std::uint64_t epoch = 0;
  {
    server::ShardedGroupKeyServer primary(config, transport);
    churn(primary);
    expected = primary.snapshot();
    epoch = primary.epoch();
  }  // "crash": the process state is gone, only the journal dir remains

  server::ShardedGroupKeyServer restarted(config, transport);
  restarted.recover_from_storage();
  EXPECT_EQ(restarted.epoch(), epoch);
  EXPECT_EQ(restarted.snapshot(), expected);
}

// --- Journal corruption, end to end ------------------------------------

TEST(JournalCorruption, TruncatedTailStrictThrowsTolerantDropsOneOp) {
  const std::string dir = temp_dir("torn_tail");
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.base.rng_seed = 71;
  config.base.storage.kind = storage::Kind::kFile;
  config.base.storage.journal_dir = dir;
  config.base.storage.snapshot_interval = 0;  // keep every record on disk

  std::uint64_t epoch = 0;
  {
    server::ShardedGroupKeyServer primary(config, transport);
    for (UserId user = 1; user <= 8; ++user) primary.join(user);
    epoch = primary.epoch();
  }
  // Crash mid-append: the final frame loses its last bytes.
  const std::string wal = journal_file(dir);
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 5);

  {
    server::ShardedGroupKeyServer strict(config, transport);
    EXPECT_THROW(strict.recover_from_storage(),
                 storage::JournalTruncatedError);
  }
  server::ShardedGroupKeyServer tolerant(config, transport);
  RecoveryOptions options;
  options.tolerate_torn_tail = true;
  tolerant.recover_from_storage(options);
  // The torn record's datagrams never left the original server, so
  // resuming one epoch short is consistent — and the journal was cut back
  // to a frame boundary, so new commits append cleanly.
  EXPECT_EQ(tolerant.epoch(), epoch - 1);
  tolerant.join(200);
  EXPECT_EQ(tolerant.epoch(), epoch);

  server::ShardedGroupKeyServer again(config, transport);
  again.recover_from_storage();
  EXPECT_EQ(again.snapshot(), tolerant.snapshot());
}

TEST(JournalCorruption, CrcDamageMidSegmentFailsRecoveryTyped) {
  const std::string dir = temp_dir("bit_rot");
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.base.rng_seed = 72;
  config.base.storage.kind = storage::Kind::kFile;
  config.base.storage.journal_dir = dir;
  config.base.storage.snapshot_interval = 0;
  {
    server::ShardedGroupKeyServer primary(config, transport);
    for (UserId user = 1; user <= 6; ++user) primary.join(user);
  }
  const std::string wal = journal_file(dir);
  {
    std::fstream file(wal, std::ios::in | std::ios::out |
                               std::ios::binary);
    file.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(wal) / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  server::ShardedGroupKeyServer replica(config, transport);
  // Tolerance covers torn tails only — mid-segment damage always throws.
  RecoveryOptions tolerant;
  tolerant.tolerate_torn_tail = true;
  EXPECT_THROW(replica.recover_from_storage(tolerant),
               storage::JournalCorruptError);
}

TEST(JournalCorruption, MissingEpochFailsRecoveryTyped) {
  // Forge a journal with a hole: epochs 1, 2, 4 — as if one lane's fsync
  // lied. The server must refuse to silently skip epoch 3.
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  {
    server::ShardedGroupKeyServer primary(durable_config(73, backend),
                                          transport);
    for (UserId user = 1; user <= 4; ++user) primary.join(user);
  }
  // Rewrite the journal without the epoch-3 frame.
  DurableStore reader(backend, 0);
  RecoveredLog log = reader.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 4u);
  backend->truncate(0, 0);
  for (JournalRecord& record : log.records) {
    if (record.epoch == 3) continue;
    backend->append(0, record.encode_frame());
  }
  server::ShardedGroupKeyServer replica(durable_config(73, backend), transport);
  EXPECT_THROW(replica.recover_from_storage(), storage::EpochGapError);
}

// --- Sharded recovery ---------------------------------------------------

TEST(ShardedRecovery, JournalOnlyReplayAcrossLanes) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.shards = 4;
  config.base.tree_degree = 4;
  config.base.rng_seed = 81;
  config.base.retransmit_window = 16;
  config.base.recovery_rate = 0;
  config.base.storage.backend = backend;

  server::ShardedGroupKeyServer primary(config, transport);
  std::vector<UserId> preloaded;
  for (UserId user = 1; user <= 64; ++user) preloaded.push_back(user);
  primary.preload(preloaded);
  for (UserId user = 100; user <= 112; ++user) primary.join(user);
  primary.leave(7);
  primary.batch({200, 201, 202}, {8, 103});
  primary.leave(110);

  server::ShardedServerConfig replica_config = config;
  replica_config.base.rng_seed = 4242;  // tapes make the seed irrelevant
  server::ShardedGroupKeyServer replica(replica_config, transport);
  replica.recover_from_storage();

  EXPECT_EQ(replica.epoch(), primary.epoch());
  EXPECT_EQ(replica.member_count(), primary.member_count());
  EXPECT_EQ(replica.group_key().secret, primary.group_key().secret);
  for (const UserId user : {UserId{1}, UserId{42}, UserId{100}, UserId{202}}) {
    EXPECT_EQ(replica.keyset(user), primary.keyset(user)) << "user " << user;
  }
  EXPECT_FALSE(replica.has_member(7));
  EXPECT_FALSE(replica.has_member(110));

  // The replayed dispatch cursor continues the stitched epoch stream.
  // (Key material now diverges — post-recovery randomness comes from the
  // replica's own differently-seeded rng; only the epochs stay in step.)
  primary.join(300);
  replica.join(300);
  EXPECT_EQ(replica.epoch(), primary.epoch());
  // And the rehydrated window serves a one-epoch gap without a resync.
  EXPECT_EQ(replica.handle_nack(1, replica.epoch() - 1),
            server::NackOutcome::kRetransmitted);
}

// --- Compaction at K > 1 -------------------------------------------------

/// K = 4 with snapshot_interval = 8: every lane is compacted into one
/// snapshot of all shard trees and G after each eighth committed record.
server::ShardedServerConfig compacting_config(
    std::uint64_t seed, std::shared_ptr<StorageBackend> backend,
    std::size_t shards = 4) {
  server::ShardedServerConfig config =
      durable_config(seed, std::move(backend), shards);
  config.base.storage.snapshot_interval = 8;
  return config;
}

/// Complete records across every journal lane.
std::size_t journal_records(const StorageBackend& backend) {
  std::size_t records = 0;
  for (std::size_t lane = 0; lane < backend.lanes(); ++lane) {
    records += storage::scan_frames(backend.read_journal(lane, 0))
                   .records.size();
  }
  return records;
}

/// A preload of 64 members, then 44 joins, leaves and batches spread over
/// every shard, calling `after_each` after each one.
void sharded_churn(server::ShardedGroupKeyServer& server,
                   const std::function<void()>& after_each = [] {}) {
  std::vector<UserId> preloaded;
  for (UserId user = 1; user <= 64; ++user) preloaded.push_back(user);
  server.preload(preloaded);
  after_each();
  for (UserId i = 0; i < 40; ++i) {
    if (i % 4 == 3) {
      server.leave(i + 1);
    } else {
      server.join(100 + i);
    }
    after_each();
  }
  server.batch({300, 301, 302, 303}, {50, 51});
  after_each();
  server.batch({304}, {104});
  after_each();
  server.join(305);
  after_each();
  server.leave(52);
  after_each();
}

/// Every member of `expected`, in every shard, holds the same keyset in
/// `actual`, and the group key, epoch and per-shard member sets agree.
void expect_same_group(const server::ShardedGroupKeyServer& actual,
                       const server::ShardedGroupKeyServer& expected) {
  EXPECT_EQ(actual.epoch(), expected.epoch());
  EXPECT_EQ(actual.group_key(), expected.group_key());
  EXPECT_EQ(actual.member_count(), expected.member_count());
  for (std::size_t shard = 0; shard < expected.shard_count(); ++shard) {
    const std::vector<UserId> users = expected.shard_view(shard)->users();
    EXPECT_EQ(actual.shard_view(shard)->users(), users);
    for (const UserId user : users) {
      EXPECT_EQ(actual.keyset(user), expected.keyset(user)) << "user " << user;
    }
  }
}

TEST(ShardedCompaction, EveryLaneStaysWithinTheInterval) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(compacting_config(85, backend),
                                        transport);
  std::size_t most = 0;
  sharded_churn(primary, [&] {
    most = std::max(most, journal_records(*backend));
    EXPECT_LE(journal_records(*backend), 8u);
  });
  // The eighth record compacts inside its own dispatch, so between ops
  // the lanes hold at most seven.
  EXPECT_EQ(most, 7u);
  EXPECT_GE(backend->generation(), 5u);
  ASSERT_TRUE(backend->read_snapshot().has_value());
  EXPECT_GT(backend->snapshot_epoch(), 0u);
  EXPECT_LE(backend->snapshot_epoch(), primary.epoch());
}

TEST(ShardedCompaction, SnapshotRoundTripsIntoAFreshServer) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(compacting_config(87, backend),
                                        transport);
  sharded_churn(primary);
  const Bytes snapshot = primary.snapshot();

  // The documented layout: the K = 1 bytes, then K, the other trees and G.
  ByteReader reader(snapshot);
  EXPECT_EQ(reader.u64(), primary.epoch());
  EXPECT_EQ(reader.var_bytes(), primary.shard_view(0)->serialize());
  EXPECT_EQ(reader.u32(), 4u);
  for (std::size_t shard = 1; shard < 4; ++shard) {
    EXPECT_EQ(reader.var_bytes(), primary.shard_view(shard)->serialize());
  }
  EXPECT_EQ(reader.var_bytes(), primary.group_key().secret);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(primary.group_key().version, primary.epoch());

  // A fresh K = 4 server with another seed and no journal.
  server::ShardedServerConfig config;
  config.shards = 4;
  config.base.tree_degree = 4;
  config.base.rng_seed = 4242;
  server::ShardedGroupKeyServer fresh(config, transport);
  fresh.restore(snapshot);
  expect_same_group(fresh, primary);
  EXPECT_EQ(fresh.snapshot(), snapshot);

  // The restored root layer continues the stitched epoch stream.
  fresh.join(999);
  primary.join(999);
  EXPECT_EQ(fresh.epoch(), primary.epoch());
  EXPECT_EQ(fresh.group_key().version, fresh.epoch());
}

TEST(ShardedCompaction, ReplicaRecoversFromSnapshotPlusTail) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(compacting_config(89, backend),
                                        transport);
  sharded_churn(primary);
  primary.join(400);  // leave a tail after the last compaction
  DurableStore reader(backend, 0);
  const RecoveredLog log = reader.load(RecoveryOptions{});
  ASSERT_TRUE(log.snapshot.has_value());
  EXPECT_FALSE(log.records.empty());
  EXPECT_LE(log.records.size(), 8u);
  EXPECT_EQ(log.snapshot_epoch + log.records.size(), primary.epoch());

  server::ShardedGroupKeyServer replica(compacting_config(4343, backend),
                                        transport);
  replica.recover_from_storage();
  expect_same_group(replica, primary);
  EXPECT_EQ(replica.snapshot(), primary.snapshot());
}

TEST(ShardedCompaction, MismatchedOrMalformedSnapshotsFailTyped) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(compacting_config(91, backend),
                                        transport);
  sharded_churn(primary);
  const Bytes snapshot = primary.snapshot();

  server::ShardedServerConfig config;
  config.base.tree_degree = 4;
  config.shards = 2;
  server::ShardedGroupKeyServer two(config, transport);
  EXPECT_THROW(two.restore(snapshot), ProtocolError);
  config.shards = 1;
  server::ShardedGroupKeyServer one(config, transport);
  EXPECT_THROW(one.restore(snapshot), ProtocolError);
  one.join(1);
  config.shards = 4;
  server::ShardedGroupKeyServer four(config, transport);
  EXPECT_THROW(four.restore(one.snapshot()), ProtocolError);

  // Garbage in a multi-lane snapshot: cut short, trailing bytes, a G of
  // the wrong size, a damaged second tree (after the first one parsed).
  Bytes trailing = snapshot;
  trailing.push_back(0);
  ByteWriter seven;
  seven.var_bytes(Bytes(7, 1));
  const Bytes short_secret = concat(
      BytesView(snapshot).first(snapshot.size() - 12), seven.take());
  Bytes bad_tree = snapshot;
  bad_tree[12 + primary.shard_view(0)->serialize().size() + 8] ^= 0xff;
  for (const Bytes& garbage :
       {Bytes(snapshot.begin(), snapshot.end() - 3), trailing, short_secret,
        bad_tree}) {
    EXPECT_THROW(four.restore(garbage), ParseError);
  }
  // Every failure left the server untouched.
  EXPECT_EQ(four.epoch(), 0u);
  EXPECT_EQ(four.member_count(), 0u);

  // Recovery turns both into a typed journal error.
  server::ShardedServerConfig two_lanes = compacting_config(91, backend, 2);
  server::ShardedGroupKeyServer wrong_k(two_lanes, transport);
  EXPECT_THROW(wrong_k.recover_from_storage(), storage::JournalCorruptError);
  backend->compact(primary.epoch(), trailing);
  server::ShardedGroupKeyServer replica(compacting_config(91, backend),
                                        transport);
  EXPECT_THROW(replica.recover_from_storage(), storage::JournalCorruptError);
}

// --- Hot standby --------------------------------------------------------

TEST(Standby, TailsThePrimaryAndPromotesSeamlessly) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  auto primary = std::make_unique<server::ShardedGroupKeyServer>(
      durable_config(91, backend), transport);
  server::StandbyServer standby(durable_config(91, backend), transport);

  for (UserId user = 1; user <= 8; ++user) primary->join(user);
  EXPECT_EQ(standby.poll(), 8u);
  EXPECT_EQ(standby.epoch(), primary->epoch());

  primary->leave(4);
  primary->batch({30, 31}, {2});
  EXPECT_EQ(standby.poll(), 2u);
  EXPECT_EQ(standby.server().snapshot(), primary->snapshot());

  const std::uint64_t at_death = primary->epoch();
  primary.reset();  // the primary dies

  server::ShardedGroupKeyServer& promoted = standby.promote();
  EXPECT_TRUE(standby.promoted());
  EXPECT_EQ(promoted.epoch(), at_death);
  // The promoted server continues the same epoch stream and journals its
  // own commits into the same backend with fresh sequences.
  promoted.join(50);
  EXPECT_EQ(promoted.epoch(), at_death + 1);

  server::ShardedGroupKeyServer replica(durable_config(91, backend), transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.snapshot(), promoted.snapshot());
}

// Standby promotion over a sharded journal: the standby tails K = 4 lanes
// (preload chunks included) merged by commit sequence, matches the
// primary's epoch and every member's keyset, continues the stitched epoch
// stream after promotion, and a cold replica rebuilds the same group.
TEST(Standby, TailsAShardedPrimaryAndPromotes) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  auto primary = std::make_unique<server::ShardedGroupKeyServer>(
      durable_config(93, backend, 4), transport);
  server::StandbyServer standby(durable_config(93, backend, 4), transport);

  std::vector<UserId> preloaded;
  for (UserId user = 1; user <= 64; ++user) preloaded.push_back(user);
  primary->preload(preloaded);
  for (UserId user = 100; user <= 111; ++user) primary->join(user);
  EXPECT_GT(standby.poll(), 0u);
  EXPECT_EQ(standby.epoch(), primary->epoch());

  primary->leave(7);
  primary->batch({200, 201, 202}, {8, 103});
  primary->leave(110);
  EXPECT_GT(standby.poll(), 0u);
  EXPECT_EQ(standby.epoch(), primary->epoch());
  EXPECT_EQ(standby.server().member_count(), primary->member_count());
  EXPECT_EQ(standby.server().group_key(), primary->group_key());
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (const UserId user : primary->shard_view(shard)->users()) {
      EXPECT_EQ(standby.server().keyset(user), primary->keyset(user))
          << "user " << user;
    }
  }

  const std::uint64_t at_death = primary->epoch();
  primary.reset();  // the primary dies

  server::ShardedGroupKeyServer& promoted = standby.promote();
  EXPECT_EQ(promoted.epoch(), at_death);
  promoted.join(300);
  promoted.leave(1);
  EXPECT_EQ(promoted.epoch(), at_death + 2);

  // A cold replica with another seed replays the dead primary's lanes and
  // the promoted server's own commits into the same group.
  server::ShardedGroupKeyServer replica(durable_config(94, backend, 4),
                                        transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.epoch(), promoted.epoch());
  EXPECT_EQ(replica.group_key(), promoted.group_key());
  EXPECT_EQ(replica.member_count(), promoted.member_count());
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(replica.shard_view(shard)->users(),
              promoted.shard_view(shard)->users());
  }
}

// A standby polling every fifth op falls behind compactions (interval 8)
// and must resume from each new snapshot rather than wait for records
// that compaction removed; after promotion the stream continues.
TEST(Standby, TailsAShardedPrimaryAcrossCompactions) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  auto primary = std::make_unique<server::ShardedGroupKeyServer>(
      compacting_config(95, backend), transport);
  server::StandbyServer standby(compacting_config(95, backend), transport);

  std::size_t ops = 0;
  std::uint64_t generation = backend->generation();
  std::size_t compactions_crossed = 0;
  sharded_churn(*primary, [&] {
    if (++ops % 5 != 0) return;
    standby.poll();
    EXPECT_EQ(standby.epoch(), primary->epoch());
    if (backend->generation() != generation) ++compactions_crossed;
    generation = backend->generation();
  });
  standby.poll();
  EXPECT_GE(compactions_crossed, 2u);
  expect_same_group(standby.server(), *primary);

  const std::uint64_t at_death = primary->epoch();
  primary.reset();  // the primary dies

  server::ShardedGroupKeyServer& promoted = standby.promote();
  EXPECT_EQ(promoted.epoch(), at_death);
  for (UserId user = 600; user < 612; ++user) promoted.join(user);
  EXPECT_EQ(promoted.epoch(), at_death + 12);

  // The promoted server compacts the same lanes; a cold replica with
  // another seed recovers its group from the snapshot plus tail.
  server::ShardedGroupKeyServer replica(compacting_config(96, backend),
                                        transport);
  replica.recover_from_storage();
  expect_same_group(replica, promoted);
}

// Two writers mutate a K = 4 primary while a third thread tails it, so
// compactions land between and during the standby's reads.
TEST(Standby, TailsConcurrentShardedWritersAcrossCompactions) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedGroupKeyServer primary(compacting_config(97, backend),
                                        transport);
  server::StandbyServer standby(compacting_config(97, backend), transport);
  std::vector<UserId> preloaded;
  for (UserId user = 1; user <= 64; ++user) preloaded.push_back(user);
  primary.preload(preloaded);

  std::atomic<bool> done{false};
  std::string tail_error;
  std::thread tailer([&] {
    try {
      while (!done.load()) standby.poll();
    } catch (const std::exception& error) {
      tail_error = error.what();
    }
  });
  std::vector<std::thread> writers;
  for (UserId base : {UserId{1000}, UserId{2000}}) {
    writers.emplace_back([&primary, base] {
      for (UserId i = 0; i < 40; ++i) {
        primary.join(base + i);
        if (i % 3 == 2) primary.leave(base + i - 1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done = true;
  tailer.join();
  EXPECT_EQ(tail_error, "");
  standby.poll();
  EXPECT_GE(backend->generation(), 4u);
  expect_same_group(standby.server(), primary);
}

TEST(Standby, RequiresStorage) {
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  EXPECT_THROW(server::StandbyServer standby(config, transport),
               storage::StorageError);
}

}  // namespace
}  // namespace keygraphs
