// Deterministic network-fault injection (drop / duplicate / reorder /
// delay / corrupt) for any transport edge.
//
// The paper's prototype assumes reliable rekey delivery; the reliability
// layer (rekey/retransmit.h server-side, the GroupClient recovery state
// machine client-side) exists precisely because real networks break that
// assumption. This decorator makes those breakages reproducible: every
// fault decision is drawn from one seeded stream, so a failing churn
// scenario replays bit-for-bit from its seed, and an optional event trace
// lets a test assert that two runs injected the identical fault sequence.
//
// Two attachment points share one FaultEngine:
//   - FaultyServerTransport wraps a ServerTransport: faults apply to whole
//     deliver() calls (a dropped subgroup multicast is lost for every
//     subscriber, like a dropped multicast packet).
//   - make_faulty_inbox() wraps one client's delivery handler: faults apply
//     per receiving user (independent last-hop loss), which is what the
//     churn-under-loss soak uses.
//
// "Time" is delivery count, not a wall clock: a reordered or delayed
// datagram is released after the next `span` deliveries pass through the
// engine (or at flush()). That keeps fault schedules deterministic without
// any sleeping.
//
// Not thread-safe: the engine assumes externally serialized deliveries
// (the single-threaded harnesses and the key server's dispatch path,
// which already serializes transport sends under its dispatch mutex).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "crypto/random.h"
#include "transport/transport.h"

namespace keygraphs::transport {

/// Per-edge fault probabilities, each in [0, 1] and evaluated in the order
/// drop, duplicate, corrupt, reorder, delay (first match wins).
struct FaultRule {
  double drop = 0.0;       ///< datagram silently lost
  double duplicate = 0.0;  ///< delivered twice back to back
  double corrupt = 0.0;    ///< one random bit flipped
  double reorder = 0.0;    ///< held back past the next `reorder_span` deliveries
  double delay = 0.0;      ///< held back past the next `delay_span` deliveries
  std::size_t reorder_span = 1;
  std::size_t delay_span = 8;

  [[nodiscard]] bool active() const noexcept {
    return drop > 0 || duplicate > 0 || corrupt > 0 || reorder > 0 ||
           delay > 0;
  }
};

struct FaultConfig {
  /// Seed for the decision stream. The same seed and delivery sequence
  /// produce the same faults; there is no OS-entropy fallback on 0.
  std::uint64_t seed = 1;
  /// Applied to every delivery without a per-user override.
  FaultRule rule;
  /// Per-recipient overrides: unicast deliveries to (and inbox deliveries
  /// of) these users use their own rule instead of the global one.
  std::unordered_map<UserId, FaultRule> per_user;
  /// Record one FaultEvent per decision (tests assert trace equality
  /// between same-seed runs).
  bool record_trace = false;
};

enum class FaultAction : std::uint8_t {
  kPass = 0,
  kDrop = 1,
  kDuplicate = 2,
  kCorrupt = 3,
  kReorder = 4,
  kDelay = 5,
};

/// One decision, as recorded when FaultConfig::record_trace is set.
struct FaultEvent {
  std::uint64_t seq = 0;  // delivery sequence number (1-based)
  FaultAction action = FaultAction::kPass;
  UserId user = 0;  // addressed user; 0 for subgroup deliveries
  std::size_t size = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// The decision core shared by both decorators.
class FaultEngine {
 public:
  using Sink = std::function<void(BytesView datagram)>;

  explicit FaultEngine(FaultConfig config);

  /// Runs one datagram through the rules for `user` (0 = global rule
  /// only). `sink` is invoked zero, one or two times immediately; for
  /// reorder/delay it is copied and invoked when the hold expires on a
  /// later process()/flush() call.
  void process(UserId user, BytesView datagram, Sink sink);

  /// Releases every held datagram in delivery order (end of scenario; a
  /// harness that never flushes turns unexpired holds into drops).
  void flush();

  /// Replaces the global rule mid-scenario (per-user overrides keep
  /// precedence). Scenarios are phased with this: e.g. a lossy churn phase
  /// followed by a quiescent tail, which convergence arguments for
  /// gap-detection recovery require — a client that loses the final epoch
  /// silently can only notice once some later delivery gets through.
  void set_rule(FaultRule rule) noexcept { config_.rule = rule; }

  [[nodiscard]] const std::vector<FaultEvent>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] std::size_t held() const noexcept { return held_.size(); }
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return seq_; }

 private:
  [[nodiscard]] const FaultRule& rule_for(UserId user) const;
  [[nodiscard]] FaultAction decide(const FaultRule& rule);
  void release_due();

  struct Held {
    std::uint64_t release_after;  // released once seq_ passes this
    Bytes datagram;
    Sink sink;
  };

  FaultConfig config_;
  crypto::SecureRandom rng_;
  std::uint64_t seq_ = 0;
  std::deque<Held> held_;
  std::vector<FaultEvent> trace_;
};

/// ServerTransport decorator: every deliver() passes through the engine.
/// Subgroup deliveries use the global rule; unicast deliveries use the
/// recipient's per-user rule when present.
class FaultyServerTransport final : public ServerTransport {
 public:
  FaultyServerTransport(ServerTransport& inner, FaultConfig config)
      : inner_(inner), engine_(std::move(config)) {}

  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override;

  [[nodiscard]] FaultEngine& engine() noexcept { return engine_; }

 private:
  ServerTransport& inner_;
  FaultEngine engine_;
};

/// Wraps one client's delivery handler so its inbound datagrams pass
/// through `engine` under `user`'s rule. The engine must outlive the
/// returned handler.
[[nodiscard]] std::function<void(BytesView)> make_faulty_inbox(
    FaultEngine& engine, UserId user, std::function<void(BytesView)> handler);

}  // namespace keygraphs::transport
