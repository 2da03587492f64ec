// Overload control: bounded admission, backpressure, and load shedding.
//
// The paper's immediate-rekey strategies assume the server can afford one
// rekey per request; its periodic batch rekeying exists precisely because
// real churn arrives in bursts that outrun sealing. This subsystem gives
// the server a bounded answer to a flash crowd or mass eviction instead of
// unbounded queueing on the plan mutex:
//
//   AdmissionController — per-lane token-bucket admission (a lane is one
//     shard of the key server) with a bounded coalesce queue and a
//     per-lane circuit breaker, so one slow shard sheds without stalling
//     its siblings. Requests past the bound are shed with a retry-after
//     hint, answered on the wire with kRetryLater.
//
//   HealthMonitor — healthy → degraded → shedding state machine driven by
//     queue depth, seal-stage latency, convergence-SLO pressure, and shed
//     pressure. In the degraded states individual joins/leaves stop
//     rekeying immediately and are coalesced into one batch_update per
//     degraded_batch_period_us tick — trading per-op immediacy for bounded
//     work per epoch, exactly the periodic-rekeying trade the paper
//     prescribes. The state is exported as the `server.health` gauge and
//     surfaced on /healthz.
//
// With OverloadConfig::enabled = false (the default, spec `overload=off`)
// no decision ever sheds or coalesces and no kRetryLater byte reaches the
// wire, so all pre-existing wire goldens hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "keygraph/key.h"

namespace keygraphs::server::overload {

struct OverloadConfig {
  /// Master switch (spec key `overload`). Off: every request is admitted
  /// immediately and the server behaves byte-identically to the
  /// pre-overload build.
  bool enabled = false;
  /// Bound on the per-lane coalesce queue (spec key `admission_queue`).
  /// Offers beyond it are shed with a retry-after hint.
  std::size_t admission_queue = 1024;
  /// A buffered op that waits longer than this before its flush is shed
  /// back to the client instead of silently going stale (spec key
  /// `shed_deadline_us`). 0 disables the deadline.
  std::uint64_t shed_deadline_us = 250'000;
  /// Degraded-mode flush tick: buffered joins/leaves are drained into one
  /// batch_update at most this often (spec key `degraded_batch_period_us`).
  std::uint64_t degraded_batch_period_us = 100'000;
  /// Token-bucket admission per lane: refill rate in requests/second
  /// (<= 0 disables the bucket) and burst capacity. Mirrors
  /// rekey::RecoveryLimiter semantics.
  double admission_rate = 0.0;
  double admission_burst = 64.0;
  /// HealthMonitor thresholds: queue fraction (of admission_queue) that
  /// enters degraded / shedding.
  double degrade_queue_fraction = 0.5;
  double shed_queue_fraction = 0.9;
  /// Seal-latency pressure: EWMA seal time above this enters degraded
  /// (0 = signal off). Twice this opens the lane's circuit breaker.
  std::uint64_t degrade_seal_us = 0;
  /// Convergence pressure: fleet publish/apply lag of at least this many
  /// epochs enters degraded (0 = signal off).
  std::uint64_t slo_lag_epochs = 0;
  /// The monitor steps down one health level only after this long with no
  /// pressure signal (hysteresis against flapping).
  std::uint64_t recover_dwell_us = 200'000;
  /// Per-lane circuit breaker: this many consecutive sheds opens the lane
  /// for breaker_cooldown_us, during which every offer is shed instantly.
  std::size_t breaker_threshold = 8;
  std::uint64_t breaker_cooldown_us = 500'000;
};

/// Server health, in escalation order. Exported as the `server.health`
/// gauge (0/1/2) and surfaced on /healthz.
enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,   // coalescing into periodic batches
  kShedding = 2,   // also refusing recovery traffic
};

[[nodiscard]] const char* health_name(HealthState state) noexcept;

/// What to do with one offered request.
enum class Admission : std::uint8_t {
  kAdmit = 1,     // rekey immediately (healthy path)
  kCoalesce = 2,  // buffered; will ride the next degraded batch
  kShed = 3,      // refused; answer kRetryLater with the hint
};

struct Decision {
  Admission action = Admission::kAdmit;
  /// For kShed: how long the client should wait before retrying, µs.
  std::uint64_t retry_after_us = 0;
};

/// A buffered op evicted at flush time (deadline passed or conflicting
/// op arrived); the daemon answers it with kRetryLater.
struct ShedNotice {
  UserId user = 0;
  bool join = true;
  std::uint64_t retry_after_us = 0;
};

/// Bounded per-lane admission: token bucket, queue bound, circuit
/// breaker. Internally synchronized — offer paths and the dispatch-side
/// note_seal() may run under different caller mutexes.
class AdmissionController {
 public:
  AdmissionController(const OverloadConfig& config, std::size_t lanes);

  /// Decides one offered request. `health` selects kAdmit (healthy) vs
  /// kCoalesce (degraded) for requests that pass the bucket and bound;
  /// kCoalesce increments the lane depth, which release() must return.
  Decision admit(std::size_t lane, std::uint64_t now_us, HealthState health);

  /// Returns `n` coalesced slots to the lane (flush or rejection).
  void release(std::size_t lane, std::size_t n);

  /// Feeds one seal-stage latency sample into the lane's EWMA; an EWMA
  /// above 2 × degrade_seal_us trips the lane's breaker.
  void note_seal(std::size_t lane, std::uint64_t seal_us,
                 std::uint64_t now_us);

  [[nodiscard]] std::size_t depth(std::size_t lane) const;
  /// Peak per-lane depth observed since construction (soak assertion:
  /// never exceeds admission_queue).
  [[nodiscard]] std::size_t max_depth() const;
  /// Total depth across lanes right now.
  [[nodiscard]] std::size_t total_depth() const;
  /// Sheds decided since the last call (HealthMonitor pressure input).
  [[nodiscard]] std::size_t take_sheds();
  [[nodiscard]] std::uint64_t total_sheds() const;
  [[nodiscard]] std::uint64_t seal_ewma_us(std::size_t lane) const;
  [[nodiscard]] bool breaker_open(std::size_t lane,
                                  std::uint64_t now_us) const;
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

 private:
  struct LaneState {
    std::size_t depth = 0;
    double tokens = 0.0;
    std::uint64_t refilled_us = 0;
    bool bucket_primed = false;
    std::size_t consecutive_sheds = 0;
    std::uint64_t breaker_open_until_us = 0;
    std::uint64_t seal_ewma_us = 0;
  };

  /// Opens `lane`'s breaker (idempotent). Caller holds mutex_.
  void trip_breaker(LaneState& lane, std::uint64_t now_us);
  Decision shed(LaneState& lane, std::uint64_t retry_after_us,
                std::uint64_t now_us, bool count_consecutive);

  OverloadConfig config_;
  mutable std::mutex mutex_;
  std::vector<LaneState> lanes_;
  std::size_t max_depth_ = 0;
  std::size_t total_depth_ = 0;
  std::size_t sheds_window_ = 0;
  std::uint64_t sheds_total_ = 0;
  std::size_t breakers_open_ = 0;
};

/// healthy → degraded → shedding state machine. Escalates immediately on
/// pressure, steps down one level at a time after recover_dwell_us with
/// no pressure. Writes the `server.health` gauge on every transition
/// regardless of the telemetry switch — /healthz reads it.
class HealthMonitor {
 public:
  explicit HealthMonitor(const OverloadConfig& config);

  /// Pressure inputs, accumulated until the next evaluate().
  void note_queue_depth(std::size_t depth);
  void note_seal_us(std::uint64_t seal_us);
  void note_slo_lag(std::uint64_t lag_epochs);
  void note_sheds(std::size_t count);

  /// Applies the accumulated signals; returns the (possibly new) state.
  HealthState evaluate(std::uint64_t now_us);

  [[nodiscard]] HealthState state() const;

 private:
  OverloadConfig config_;
  mutable std::mutex mutex_;
  HealthState state_ = HealthState::kHealthy;
  std::size_t peak_depth_ = 0;
  std::uint64_t seal_ewma_us_ = 0;
  std::uint64_t slo_lag_ = 0;
  std::size_t sheds_ = 0;
  std::uint64_t calm_since_us_ = 0;
  bool calm_anchor_set_ = false;
};

/// Publishes `state` to the `server.health` gauge. Called by
/// HealthMonitor on transitions and by servers at construction so the
/// gauge is correct before the first evaluate().
void publish_health(HealthState state);

}  // namespace keygraphs::server::overload
