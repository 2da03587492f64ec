// DurableStore: the write-ahead journal of committed rekey operations.
//
// Sits between the servers and a StorageBackend. Appends assign a global
// commit sequence under the store mutex — per-shard lanes stay
// independent on disk, but the sequence gives recovery a total order to
// merge them back into. Every append is followed by a backend sync, so a
// record is durable before the server releases the operation's dispatch
// ticket (write-ahead with respect to the datagrams leaving the
// transport).
//
// Three consumers:
//   append/compact — the live server's commit hook.
//   load()         — boot-time recovery: snapshot + ordered records, with
//                    strict typed-error checking (CRC, torn tail, epoch
//                    contiguity) so a damaged journal fails loudly rather
//                    than loading partial state.
//   tail(Cursor&)  — the hot standby's incremental feed: returns newly
//                    durable records since the cursor, re-anchoring on the
//                    snapshot when a compaction bumps the generation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "storage/backend.h"
#include "storage/record.h"

namespace keygraphs::storage {

struct RecoveryOptions {
  /// A torn final frame (crash mid-append) normally throws
  /// JournalTruncatedError so tests and operators see exactly what was
  /// lost. The daemon recovers with this set: the torn record's datagrams
  /// were never sent (append + sync precede delivery), so dropping the
  /// tail is safe, and the store truncates it away before new appends.
  bool tolerate_torn_tail = false;
  /// Re-verify each replayed op's sealed digest against the journal.
  /// Mismatch -> ReplayDivergenceError. (Checked by the server's replay,
  /// not by load() itself; carried here so call sites configure recovery
  /// in one place.)
  bool verify_digests = true;
};

/// What load() hands the server: the snapshot (if any) to restore first,
/// then the records to replay in sequence order.
struct RecoveredLog {
  std::optional<Bytes> snapshot;
  std::uint64_t snapshot_epoch = 0;
  std::vector<JournalRecord> records;
};

/// Standby tailing position. Default-constructed = "never read anything";
/// the first tail() anchors it to the backend's current generation.
struct Cursor {
  std::uint64_t generation = ~0ull;
  std::vector<std::size_t> offsets;  // per-lane journal byte offsets
  /// 0 = unknown: accept the first record of epoch next_epoch (or a
  /// preload) — the state after a fresh start or a snapshot that jumped
  /// past records this cursor never read.
  std::uint64_t next_sequence = 0;
  std::uint64_t next_epoch = 1;
  /// Epoch of the last op record emitted (0 before any).
  std::uint64_t epoch = 0;
  /// Records read but held back because an earlier sequence from another
  /// lane has not surfaced yet (multi-lane appends race the reads).
  std::vector<JournalRecord> pending;
};

/// One tail() step. When `snapshot` is set the journal was compacted under
/// the reader: restore the snapshot (state as of snapshot_epoch) before
/// applying `records`.
struct Tail {
  std::optional<Bytes> snapshot;
  std::uint64_t snapshot_epoch = 0;
  std::vector<JournalRecord> records;
};

class DurableStore {
 public:
  /// Takes over an existing backend; scans it (leniently — no mutation,
  /// corruption deferred to load()) to continue the sequence counter.
  DurableStore(std::shared_ptr<StorageBackend> backend,
               std::uint32_t snapshot_interval);

  [[nodiscard]] StorageBackend& backend() noexcept { return *backend_; }
  [[nodiscard]] std::shared_ptr<StorageBackend> backend_ptr() const noexcept {
    return backend_;
  }

  /// Assigns the record's commit sequence, appends its frame to lane
  /// `record.shard`, and syncs that lane. On return the record is durable.
  void append(JournalRecord& record);

  /// True when snapshot_interval records have been committed since the
  /// last compaction, across all lanes.
  [[nodiscard]] bool snapshot_due() const;

  /// Durably replaces the snapshot with `snapshot` (state as of `epoch`)
  /// and truncates the journal. Tailing readers re-anchor via generation.
  void compact(std::uint64_t epoch, BytesView snapshot);

  /// Full recovery read: snapshot + every later record, lanes merged by
  /// sequence. Throws JournalCorruptError / JournalTruncatedError /
  /// EpochGapError as appropriate. With tolerate_torn_tail the torn bytes
  /// are truncated off the backend so later appends start clean.
  [[nodiscard]] RecoveredLog load(const RecoveryOptions& options);

  /// Incremental read since `cursor` (advanced in place). Never throws for
  /// an incomplete final frame — a live writer may be mid-append; the
  /// bytes stay unconsumed for the next call. Corrupt complete frames
  /// still throw JournalCorruptError. A compaction between two calls
  /// returns the new snapshot; when it covers records the cursor never
  /// read, the cursor resumes at the snapshot's next epoch. A compaction
  /// during the read returns no records and re-anchors on the next call.
  /// Advances this store's own sequence counter past everything observed,
  /// so a standby promoted over this store appends with fresh sequences.
  [[nodiscard]] Tail tail(Cursor& cursor);

  /// Cuts every lane back to the cursor's consumed offset, dropping a
  /// dead writer's torn tail so post-promotion appends start on a frame
  /// boundary. Call only once the writer is known dead.
  void drop_tail_after(const Cursor& cursor);

 private:
  std::shared_ptr<StorageBackend> backend_;
  std::uint32_t snapshot_interval_;
  mutable std::mutex mutex_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t ops_since_snapshot_ = 0;
};

}  // namespace keygraphs::storage
