#include "storage/durable.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "telemetry/metrics.h"

namespace keygraphs::storage {

namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct StorageMetrics {
  telemetry::Histogram& append_ns = telemetry::Registry::global().histogram(
      "storage.append_ns", "journal frame append latency (ns)");
  telemetry::Histogram& fsync_ns = telemetry::Registry::global().histogram(
      "storage.fsync_ns", "journal sync-to-durable latency (ns)");
  telemetry::Counter& records = telemetry::Registry::global().counter(
      "storage.records", "journal records committed");
  telemetry::Counter& journal_bytes = telemetry::Registry::global().counter(
      "storage.journal_bytes", "journal frame bytes appended");
  telemetry::Gauge& snapshot_bytes = telemetry::Registry::global().gauge(
      "storage.snapshot_bytes", "size of the last compacted snapshot");
  telemetry::Counter& snapshots = telemetry::Registry::global().counter(
      "storage.snapshots", "compactions performed");
};

StorageMetrics& storage_metrics() {
  static StorageMetrics metrics;
  return metrics;
}

/// Merge per-lane record batches into global commit order.
void sort_by_sequence(std::vector<JournalRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.sequence < b.sequence;
            });
}

}  // namespace

DurableStore::DurableStore(std::shared_ptr<StorageBackend> backend,
                           std::uint32_t snapshot_interval)
    : backend_(std::move(backend)), snapshot_interval_(snapshot_interval) {
  if (backend_ == nullptr) {
    throw StorageError("DurableStore: null backend");
  }
  // Lenient continuation scan: pick up the sequence counter and the
  // ops-since-snapshot count from whatever complete frames exist. No
  // mutation and no throwing here — a standby constructs a store over a
  // backend the primary is actively writing, and real corruption is
  // load()'s job to report.
  std::uint64_t max_sequence = 0;
  std::uint64_t ops = 0;
  for (std::size_t lane = 0; lane < backend_->lanes(); ++lane) {
    try {
      const FrameScan scan = scan_frames(backend_->read_journal(lane, 0));
      for (const JournalRecord& record : scan.records) {
        max_sequence = std::max(max_sequence, record.sequence);
        ++ops;
      }
    } catch (const StorageError&) {
      // Deferred to load().
    }
  }
  next_sequence_ = max_sequence + 1;
  ops_since_snapshot_ = ops;
}

void DurableStore::append(JournalRecord& record) {
  static StorageMetrics& metrics = storage_metrics();
  const std::lock_guard<std::mutex> lock(mutex_);
  record.sequence = next_sequence_++;
  const Bytes frame = record.encode_frame();
  const std::size_t lane = record.shard;
  const std::uint64_t t0 = mono_ns();
  backend_->append(lane, frame);
  const std::uint64_t t1 = mono_ns();
  backend_->sync(lane);
  const std::uint64_t t2 = mono_ns();
  ++ops_since_snapshot_;
  if (telemetry::enabled()) {
    metrics.append_ns.record(t1 - t0);
    metrics.fsync_ns.record(t2 - t1);
    metrics.records.add(1);
    metrics.journal_bytes.add(frame.size());
  }
}

bool DurableStore::snapshot_due() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_interval_ > 0 && ops_since_snapshot_ >= snapshot_interval_;
}

void DurableStore::compact(std::uint64_t epoch, BytesView snapshot) {
  static StorageMetrics& metrics = storage_metrics();
  const std::lock_guard<std::mutex> lock(mutex_);
  backend_->compact(epoch, snapshot);
  ops_since_snapshot_ = 0;
  if (telemetry::enabled()) {
    metrics.snapshot_bytes.set(static_cast<std::int64_t>(snapshot.size()));
    metrics.snapshots.add(1);
  }
}

RecoveredLog DurableStore::load(const RecoveryOptions& options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  RecoveredLog log;
  log.snapshot = backend_->read_snapshot();
  log.snapshot_epoch = log.snapshot ? backend_->snapshot_epoch() : 0;

  for (std::size_t lane = 0; lane < backend_->lanes(); ++lane) {
    const Bytes stream = backend_->read_journal(lane, 0);
    const FrameScan scan = scan_frames(stream);
    if (scan.torn_tail) {
      if (!options.tolerate_torn_tail) {
        throw JournalTruncatedError(
            "journal lane " + std::to_string(lane) + ": torn frame after " +
            std::to_string(scan.consumed) + " of " +
            std::to_string(stream.size()) + " bytes");
      }
      // The torn record's datagrams were never delivered (append + sync
      // happen before dispatch), so cutting the tail loses nothing a
      // client ever saw — and new appends must not land after torn bytes.
      backend_->truncate(lane, scan.consumed);
    }
    log.records.insert(log.records.end(), scan.records.begin(),
                       scan.records.end());
  }
  sort_by_sequence(log.records);

  // Drop records the snapshot already covers (compaction-crash overlap),
  // then check invariants on what remains: strictly increasing sequences
  // and contiguous epochs from the snapshot.
  std::vector<JournalRecord> kept;
  kept.reserve(log.records.size());
  std::uint64_t last_sequence = 0;
  std::uint64_t expected_epoch = log.snapshot_epoch + 1;
  for (JournalRecord& record : log.records) {
    if (record.sequence <= last_sequence) {
      throw JournalCorruptError(
          "journal: commit sequence " + std::to_string(record.sequence) +
          " repeats or goes backwards");
    }
    last_sequence = record.sequence;
    if (log.snapshot && record.epoch <= log.snapshot_epoch) continue;
    if (record.epoch != 0) {  // preload records advance no epoch
      if (record.epoch != expected_epoch) {
        throw EpochGapError("journal: expected epoch " +
                            std::to_string(expected_epoch) + ", found " +
                            std::to_string(record.epoch) + " (sequence " +
                            std::to_string(record.sequence) + ")");
      }
      ++expected_epoch;
    }
    kept.push_back(std::move(record));
  }
  log.records = std::move(kept);

  next_sequence_ = last_sequence + 1;
  ops_since_snapshot_ = log.records.size();
  return log;
}

Tail DurableStore::tail(Cursor& cursor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Tail result;
  const std::uint64_t generation = backend_->generation();
  if (cursor.generation != generation) {
    // Compacted (or first call): re-anchor on the snapshot and restart
    // the byte offsets. Sequences are global across generations, so
    // next_sequence stays meaningful while the snapshot covers no more
    // than the cursor already emitted. A snapshot past that replaced
    // records the cursor never read: resume at its next epoch instead.
    cursor.generation = generation;
    cursor.offsets.assign(backend_->lanes(), 0);
    cursor.pending.clear();
    result.snapshot = backend_->read_snapshot();
    result.snapshot_epoch = result.snapshot ? backend_->snapshot_epoch() : 0;
    if (result.snapshot_epoch > cursor.epoch) {
      cursor.next_sequence = 0;
      cursor.next_epoch = result.snapshot_epoch + 1;
    }
    ops_since_snapshot_ = 0;
  }
  if (cursor.offsets.size() != backend_->lanes()) {
    cursor.offsets.assign(backend_->lanes(), 0);
  }

  std::vector<JournalRecord> fresh;
  std::vector<std::size_t> offsets = cursor.offsets;
  try {
    for (std::size_t lane = 0; lane < backend_->lanes(); ++lane) {
      const Bytes stream = backend_->read_journal(lane, offsets[lane]);
      // torn_tail here just means "a writer is mid-append"; the unconsumed
      // bytes stay at the cursor for the next call.
      const FrameScan scan = scan_frames(stream, offsets[lane]);
      offsets[lane] += scan.consumed;
      fresh.insert(fresh.end(), scan.records.begin(), scan.records.end());
    }
  } catch (const JournalCorruptError&) {
    if (backend_->generation() == generation) throw;
  }
  if (backend_->generation() != generation) {
    // Compacted mid-read: the old offsets may have landed inside the new
    // generation's frames. Keep nothing from this pass; re-anchor next.
    cursor.generation = ~0ull;
    return result;
  }
  cursor.offsets = std::move(offsets);
  fresh.insert(fresh.end(), std::make_move_iterator(cursor.pending.begin()),
               std::make_move_iterator(cursor.pending.end()));
  cursor.pending.clear();
  sort_by_sequence(fresh);

  // Emit only the contiguous sequence prefix; records whose predecessors
  // (in another lane) have not surfaced yet wait in cursor.pending.
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    JournalRecord& record = fresh[i];
    if (cursor.next_sequence != 0 && record.sequence < cursor.next_sequence) {
      continue;  // already emitted (re-read after a re-anchor)
    }
    if (cursor.next_sequence == 0 && record.epoch != 0 &&
        record.epoch < cursor.next_epoch) {
      continue;  // covered by the snapshot (compaction-crash overlap)
    }
    const bool next = cursor.next_sequence != 0
                          ? record.sequence == cursor.next_sequence
                          : record.epoch == 0 ||
                                record.epoch == cursor.next_epoch;
    if (!next) {
      cursor.pending.assign(std::make_move_iterator(fresh.begin() +
                                                    static_cast<std::ptrdiff_t>(i)),
                            std::make_move_iterator(fresh.end()));
      break;
    }
    cursor.next_sequence = record.sequence + 1;
    if (record.epoch != 0) cursor.epoch = record.epoch;
    result.records.push_back(std::move(record));
  }
  // Keep this store's own counters ahead of everything observed: a
  // standby promoted over this instance must append with fresh sequences.
  if (cursor.next_sequence > next_sequence_) {
    next_sequence_ = cursor.next_sequence;
  }
  ops_since_snapshot_ += result.records.size();
  return result;
}

void DurableStore::drop_tail_after(const Cursor& cursor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t lane = 0;
       lane < backend_->lanes() && lane < cursor.offsets.size(); ++lane) {
    if (backend_->journal_size(lane) > cursor.offsets[lane]) {
      backend_->truncate(lane, cursor.offsets[lane]);
    }
  }
}

}  // namespace keygraphs::storage
