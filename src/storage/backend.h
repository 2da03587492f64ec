// StorageBackend: the pluggable persistence layer under the DurableStore.
//
// A backend owns two things per journal "lane" (one lane per shard; the
// single-shard server uses lane 0) — an append-only byte stream of CRC-framed
// journal records — plus at most one compacted snapshot blob and a
// generation counter. Compaction atomically replaces the snapshot and
// truncates every lane; the generation counter is how a tailing reader
// (the hot standby) detects that its byte offsets were invalidated and it
// must re-anchor on the new snapshot.
//
// Two implementations:
//   memory — RAM only; shareable between a primary and an in-process
//            standby via the shared_ptr, and the unit-test workhorse.
//   file   — one fsync'd segment file per (lane, generation) plus an
//            atomically-replaced snapshot file. Crash-durable.
//
// Durability contract: append() makes bytes *visible* to readers of this
// backend; sync() makes everything appended to the lane so far *durable*.
// The DurableStore calls sync after every committed record, before the
// datagrams leave the transport.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "storage/errors.h"

namespace keygraphs::storage {

/// Which backend a server journals through. Spec key `storage`.
enum class Kind : std::uint8_t {
  kNone = 0,  ///< durability disabled (the pre-PR-8 behavior)
  kMemory = 1,
  kFile = 2,
};

[[nodiscard]] const char* kind_name(Kind kind) noexcept;

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// Appends frame bytes to `lane`'s journal (visible immediately, durable
  /// after sync()).
  virtual void append(std::size_t lane, BytesView frame) = 0;
  /// Flushes `lane`'s appended bytes to stable storage.
  virtual void sync(std::size_t lane) = 0;
  /// The lane's journal bytes from byte `offset` to the committed end.
  [[nodiscard]] virtual Bytes read_journal(std::size_t lane,
                                           std::size_t offset) const = 0;
  [[nodiscard]] virtual std::size_t journal_size(std::size_t lane) const = 0;
  /// Cuts the lane's journal back to `size` bytes. Recovery uses this to
  /// drop a tolerated torn tail before new appends land after it.
  virtual void truncate(std::size_t lane, std::size_t size) = 0;

  /// Compaction: durably replaces the snapshot with `snapshot` (state as
  /// of `epoch`), advances the generation, and truncates every journal
  /// lane. Readers at an older generation must restore the snapshot and
  /// restart their offsets at zero.
  virtual void compact(std::uint64_t epoch, BytesView snapshot) = 0;
  [[nodiscard]] virtual std::optional<Bytes> read_snapshot() const = 0;
  /// Epoch of the stored snapshot; 0 when there is none.
  [[nodiscard]] virtual std::uint64_t snapshot_epoch() const = 0;
  [[nodiscard]] virtual std::uint64_t generation() const = 0;
};

/// Journal-backend selection carried in ServerConfig. `backend` (when set)
/// wins over `kind` — tests inject a shared memory backend so a primary
/// and an in-process standby see one journal; everything else builds from
/// kind + journal_dir via make_backend().
struct StorageConfig {
  Kind kind = Kind::kNone;
  /// Directory for the file backend (created if absent). Spec key
  /// `journal_dir`; required for that kind.
  std::string journal_dir;
  /// Committed records between compacted snapshots, counted across all
  /// lanes; 0 = never compact. Spec key `snapshot_interval`. At K > 1 the
  /// snapshot holds every shard's tree and the shared group key, so a
  /// journal never holds more than this many records at any K (format in
  /// docs/ARCHITECTURE.md).
  std::uint32_t snapshot_interval = 1024;
  std::shared_ptr<StorageBackend> backend;

  [[nodiscard]] bool enabled() const noexcept {
    return backend != nullptr || kind != Kind::kNone;
  }
};

/// Builds the configured backend with `lanes` journal lanes. Throws
/// StorageError for kNone, for a missing journal_dir on the file backend,
/// or when the directory cannot be created/written.
[[nodiscard]] std::shared_ptr<StorageBackend> make_backend(
    const StorageConfig& config, std::size_t lanes);

/// The RAM implementation, exposed so tests can share one instance between
/// a primary and a standby server.
[[nodiscard]] std::shared_ptr<StorageBackend> make_memory_backend(
    std::size_t lanes);
[[nodiscard]] std::shared_ptr<StorageBackend> make_file_backend(
    const std::string& dir, std::size_t lanes);

}  // namespace keygraphs::storage
