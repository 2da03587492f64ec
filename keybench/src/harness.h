// Measurement scaffolding shared by the key server benchmark's workloads.
//
// Everything here lives outside the library: the benchmark times its own
// calls into each module's public API, and wraps the two interfaces the
// server takes from its caller (transport::ServerTransport and
// storage::StorageBackend) in decorators that time and count what passes
// through them. Spans and layer timings are recorded only while tracing is
// on; untraced, the storage decorator only forwards, and the transport
// decorator keeps its datagram and byte counters (one relaxed add per
// burst), which wire_bytes_per_op reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "keygraph/key.h"
#include "storage/backend.h"
#include "transport/transport.h"

namespace keybench {

using keygraphs::UserId;
using Clock = std::chrono::steady_clock;

/// The server's key-material seed, the same on every run: the workload seed
/// varies only the request sequence, so set-up (RSA key generation
/// included) does the same work whatever the seed.
inline constexpr std::uint64_t kServerRngSeed = 1998;

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

inline double us_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

/// Exact sample store; quantiles interpolate linearly between closest ranks.
class Samples {
 public:
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Median of a small set of repeated measurements (set-up repetitions).
double median_of(std::vector<double> values);

/// The typical membership op: the mean of the join p50 and the leave p50.
/// Joins and leaves can cost very different amounts (a group-oriented
/// leave datagram is ~3x a join one), and under a 1:1 mix the pooled
/// median sits in the gap between the two modes and jumps across it from
/// run to run.
inline double balanced_p50(const Samples& joins, const Samples& leaves) {
  return (joins.median() + leaves.median()) / 2.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (span dumps).
  std::string work_dir;
};

/// What a workload hands back: correctness verdicts, op counts, metric
/// values by name (units come from main's metric tables), and
/// workload-specific header fields (values are JSON literals).
struct Report {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> header;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void metric(const std::string& name, double value) { values[name] = value; }
  void note(std::string key, std::string json_value) {
    header.emplace_back(std::move(key), std::move(json_value));
  }
  /// A recorded metric's value; 0 when it was not recorded.
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

/// JSON string literal for `text` (quotes and backslashes escaped).
std::string json_string(const std::string& text);

/// Shortest round-trip decimal for `value`; non-finite values become 0.
std::string json_number(double value);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// --- Tracing ---------------------------------------------------------------

/// In-memory span store. A span has a name, start, end, the span open on
/// the same thread when it began (its parent), and the request id current
/// on that thread. Written out as JSON lines when the run ends.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span (returns -1 and records nothing while disabled).
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  /// Per span name: duration minus the time covered by its child spans.
  [[nodiscard]] std::map<std::string, Samples> self_us() const;
  [[nodiscard]] std::size_t size() const;
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Sets the request id stamped on spans opened by this thread.
void set_current_request(std::uint64_t request);

/// Turns span recording and the library's telemetry counters on or off
/// together.
void set_tracing(bool on);

/// One block of a traced run. A traced run alternates untraced and traced
/// blocks (and, with several writers, one-writer blocks) through its whole
/// window, so host drift falls on every kind of block alike.
inline constexpr std::int64_t kTraceBlockNs = 500'000'000;

/// The library's rekey.schedule_cache counters. They count only while
/// telemetry is on, so in a traced run only the traced blocks add to them.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  static CacheCounters read();
};

/// Hits over lookups between two readings; 0 with no lookups.
double cache_hit_ratio(const CacheCounters& before, const CacheCounters& after);

/// p50 self time of the spans named `name`; 0 when none were recorded.
double self_p50(const std::map<std::string, Samples>& self, const char* name);

/// The traced blocks' rekey p50 over the untraced blocks', minus one.
inline double tracing_overhead(double traced_p50, double plain_p50) {
  return plain_p50 > 0.0 ? traced_p50 / plain_p50 - 1.0 : 0.0;
}

/// server.unattributed_us: `rekey_p50` minus the blocking-path self times,
/// namely keygraph (the mean of the join and leave p50s), plan and seal from
/// the shadow replay already in `report`, plus the wrapped transport's and
/// storage's.
double unattributed_us(const Report& report, double rekey_p50,
                       double transport_us, double storage_us);

class SpanScope {
 public:
  explicit SpanScope(const char* name) : index_(Tracer::global().open(name)) {}
  ~SpanScope() { Tracer::global().close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t index_;
};

// --- Request generation ----------------------------------------------------

enum class OpKind : std::uint8_t { kJoin, kLeave, kResync };

struct Op {
  OpKind kind = OpKind::kJoin;
  UserId user = 0;
};

/// Seeded membership churn over a live set. Ops come in shuffled blocks
/// (`joins` joins, the same number of leaves, `resyncs` resyncs) so the
/// group size stays within one block of its start. Joins take fresh ids
/// from `fresh_base` upward; leaves and resyncs pick uniformly among live
/// members not marked busy.
class ChurnGenerator {
 public:
  ChurnGenerator(std::uint64_t seed, std::vector<UserId> initial,
                 UserId fresh_base, std::size_t joins_per_block,
                 std::size_t resyncs_per_block);

  Op next();
  /// Leaves/resyncs skip busy members (an op on them is still in flight).
  void set_busy(UserId user, bool busy);
  [[nodiscard]] const std::vector<UserId>& live() const noexcept {
    return live_;
  }
  [[nodiscard]] const std::vector<UserId>& departed() const noexcept {
    return departed_;
  }

 private:
  UserId pick_idle();
  void remove_live(UserId user);

  std::mt19937_64 rng_;
  std::vector<UserId> live_;
  std::unordered_map<UserId, std::size_t> index_;
  std::unordered_map<UserId, bool> busy_;
  std::vector<UserId> departed_;
  UserId next_fresh_;
  std::size_t joins_per_block_;
  std::size_t resyncs_per_block_;
  std::vector<OpKind> block_;
  std::size_t block_pos_ = 0;
};

/// Users 1..n: the preloaded membership every workload starts from.
std::vector<UserId> initial_members(std::size_t n);

// --- Layer decorators ------------------------------------------------------

/// ServerTransport decorator: times each burst (span transport.deliver),
/// counts the datagrams and bytes handed over, and in traced runs wraps the
/// subgroup resolvers (span keygraph.resolve) to count resolved users.
class TimedTransport final : public keygraphs::transport::ServerTransport {
 public:
  explicit TimedTransport(ServerTransport& inner) : inner_(inner) {}

  void deliver(const keygraphs::rekey::Recipient& to,
               keygraphs::BytesView datagram,
               const Resolver& resolve) override;
  void deliver_many(std::span<const OutboundDatagram> items) override;

  struct Counts {
    std::uint64_t datagrams = 0;     // handed to the transport
    std::uint64_t bytes = 0;         // handed to the transport
    std::uint64_t wire_bytes = 0;    // times recipients (traced runs only)
    std::uint64_t resolved_users = 0;
    std::uint64_t resolves = 0;
  };
  [[nodiscard]] Counts counts() const;
  /// Steady-clock ns when the last burst returned (single-writer use).
  [[nodiscard]] std::int64_t last_return_ns() const noexcept {
    return last_return_ns_.load(std::memory_order_acquire);
  }

 private:
  Resolver wrap(const keygraphs::rekey::Recipient& to, std::size_t size,
                const Resolver& resolve);

  ServerTransport& inner_;
  std::atomic<std::uint64_t> datagrams_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> resolved_users_{0};
  std::atomic<std::uint64_t> resolves_{0};
  std::atomic<std::int64_t> last_return_ns_{0};
};

/// StorageBackend decorator: while tracing is on, times append and sync
/// (spans storage.append / storage.sync plus sample stores) and counts
/// appended bytes. Untraced it only forwards.
class TimedBackend final : public keygraphs::storage::StorageBackend {
 public:
  explicit TimedBackend(std::shared_ptr<StorageBackend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t lanes() const noexcept override {
    return inner_->lanes();
  }
  void append(std::size_t lane, keygraphs::BytesView frame) override;
  void sync(std::size_t lane) override;
  [[nodiscard]] keygraphs::Bytes read_journal(std::size_t lane,
                                              std::size_t offset) const override {
    return inner_->read_journal(lane, offset);
  }
  [[nodiscard]] std::size_t journal_size(std::size_t lane) const override {
    return inner_->journal_size(lane);
  }
  void truncate(std::size_t lane, std::size_t size) override {
    inner_->truncate(lane, size);
  }
  void compact(std::uint64_t epoch, keygraphs::BytesView snapshot) override {
    inner_->compact(epoch, snapshot);
  }
  [[nodiscard]] std::optional<keygraphs::Bytes> read_snapshot() const override {
    return inner_->read_snapshot();
  }
  [[nodiscard]] std::uint64_t snapshot_epoch() const override {
    return inner_->snapshot_epoch();
  }
  [[nodiscard]] std::uint64_t generation() const override {
    return inner_->generation();
  }

  /// Traced append/sync latencies (us) and appended bytes since the last
  /// take().
  struct Totals {
    Samples append_us;
    Samples sync_us;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] Totals take();

 private:
  std::shared_ptr<StorageBackend> inner_;
  std::mutex mutex_;
  Totals totals_;
};

// --- Workloads -------------------------------------------------------------

Report run_churn(const Options& options);
Report run_fleet(const Options& options);
Report run_signed_wal(const Options& options);

}  // namespace keybench
