#include "storage/backend.h"

#include <mutex>
#include <vector>

namespace keygraphs::storage {

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kMemory:
      return "memory";
    case Kind::kFile:
      return "file";
  }
  return "?";
}

namespace {

/// RAM backend. Internally locked: the failover tests share one instance
/// between a primary appending and a standby tailing.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(std::size_t lanes) : lanes_(lanes) {}

  [[nodiscard]] const char* name() const noexcept override { return "memory"; }
  [[nodiscard]] std::size_t lanes() const noexcept override { return lanes_.size(); }

  void append(std::size_t lane, BytesView frame) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    Bytes& journal = lane_at(lane);
    journal.insert(journal.end(), frame.begin(), frame.end());
  }

  void sync(std::size_t) override {}  // RAM is as durable as it gets

  [[nodiscard]] Bytes read_journal(std::size_t lane,
                                   std::size_t offset) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Bytes& journal = lane_at(lane);
    if (offset >= journal.size()) return {};
    return Bytes(journal.begin() + static_cast<std::ptrdiff_t>(offset),
                 journal.end());
  }

  [[nodiscard]] std::size_t journal_size(std::size_t lane) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lane_at(lane).size();
  }

  void truncate(std::size_t lane, std::size_t size) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    Bytes& journal = lane_at(lane);
    if (size < journal.size()) journal.resize(size);
  }

  void compact(std::uint64_t epoch, BytesView snapshot) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = Bytes(snapshot.begin(), snapshot.end());
    snapshot_epoch_ = epoch;
    ++generation_;
    for (Bytes& journal : lanes_) journal.clear();
  }

  [[nodiscard]] std::optional<Bytes> read_snapshot() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_;
  }

  [[nodiscard]] std::uint64_t snapshot_epoch() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_epoch_;
  }

  [[nodiscard]] std::uint64_t generation() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
  }

 private:
  [[nodiscard]] Bytes& lane_at(std::size_t lane) {
    if (lane >= lanes_.size()) {
      throw StorageError("memory backend: lane " + std::to_string(lane) +
                         " out of range");
    }
    return lanes_[lane];
  }
  [[nodiscard]] const Bytes& lane_at(std::size_t lane) const {
    return const_cast<MemoryBackend*>(this)->lane_at(lane);
  }

  mutable std::mutex mutex_;
  std::vector<Bytes> lanes_;
  std::optional<Bytes> snapshot_;
  std::uint64_t snapshot_epoch_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace

std::shared_ptr<StorageBackend> make_memory_backend(std::size_t lanes) {
  return std::make_shared<MemoryBackend>(lanes == 0 ? 1 : lanes);
}

std::shared_ptr<StorageBackend> make_backend(const StorageConfig& config,
                                             std::size_t lanes) {
  if (config.backend != nullptr) return config.backend;
  switch (config.kind) {
    case Kind::kNone:
      throw StorageError("make_backend: storage is disabled (kind = none)");
    case Kind::kMemory:
      return make_memory_backend(lanes);
    case Kind::kFile:
      if (config.journal_dir.empty()) {
        throw StorageError(
            "make_backend: storage = file requires journal_dir");
      }
      return make_file_backend(config.journal_dir, lanes);
  }
  throw StorageError("make_backend: unknown storage kind");
}

}  // namespace keygraphs::storage
