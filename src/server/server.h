// Types shared by the group key server (paper Sections 3 and 5; the class
// itself is ShardedGroupKeyServer in server/sharded_server.h), the spec
// loader and the callers: the server configuration and the outcomes of the
// membership, recovery and overload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "crypto/suite.h"
#include "rekey/codec.h"
#include "rekey/strategy.h"
#include "server/overload.h"
#include "storage/backend.h"

namespace keygraphs::server {

struct ServerConfig {
  GroupId group = 1;
  /// Key tree degree d. The paper found d = 4 optimal. Use star() below
  /// for the star baseline.
  int tree_degree = 4;
  crypto::CryptoSuite suite;
  rekey::StrategyKind strategy = rekey::StrategyKind::kGroupOriented;
  rekey::SigningMode signing = rekey::SigningMode::kNone;
  /// 0 = seed from the OS; anything else gives a reproducible run (the
  /// paper replays the same request sequences across configurations).
  std::uint64_t rng_seed = 0;
  /// Master secret shared with the simulated authentication service.
  Bytes auth_master = bytes_of("keygraph");
  /// Seal-phase fan-out: 1 (default) seals serially on the calling
  /// thread; N > 1 adds N - 1 pool workers. Output bytes are identical
  /// for any value — work is index-keyed and all randomness is drawn in
  /// the plan phase.
  std::size_t seal_threads = 1;
  /// Clock for rekey message timestamps (microseconds since the Unix
  /// epoch); unset = system clock. Signatures cover the timestamp, so
  /// byte-reproducibility tests pin this. The recovery rate limiter reads
  /// the same clock, so loss-recovery tests are wall-clock free.
  std::function<std::uint64_t()> clock_us;
  /// Epochs of sealed rekey datagrams retained for NACK retransmission
  /// (rekey/retransmit.h); 0 disables the window, degrading every epoch-gap
  /// recovery to a full keyset resync. Spec key `retransmit_window`.
  std::size_t retransmit_window = 32;
  /// Per-user recovery-request budget: token-bucket refill rate in requests
  /// per second (<= 0 disables limiting) and burst capacity. Spec keys
  /// `recovery_rate` / `recovery_burst`.
  double recovery_rate = 16.0;
  double recovery_burst = 8.0;
  /// Stamp every membership operation with a telemetry::TraceContext at
  /// plan time, emit rekey.plan/seal/dispatch spans for it, and carry the
  /// context on dispatched datagrams as the optional TraceExtension so
  /// client spans correlate with the server's. Off by default: without it
  /// the wire bytes are identical to the untraced format. Spec key
  /// `trace_propagation`.
  bool trace_propagation = false;
  /// Durable-state configuration (storage/backend.h). When enabled the
  /// server journals every committed membership operation before its
  /// datagrams leave the transport, compacts snapshots on the configured
  /// interval (at every shard count), and can rebuild byte-identical
  /// state from the journal via recover_from_storage(). Spec keys
  /// `storage`, `journal_dir`, `snapshot_interval`. Default: disabled.
  storage::StorageConfig storage;
  /// Overload-control configuration (server/overload.h). Off by default:
  /// every request is admitted immediately and no kRetryLater byte ever
  /// reaches the wire, so the pre-overload goldens hold. Spec keys
  /// `overload`, `admission_queue`, `shed_deadline_us`,
  /// `degraded_batch_period_us`.
  overload::OverloadConfig overload;

  /// Star baseline: unbounded degree.
  static ServerConfig star(ServerConfig base) {
    base.tree_degree = std::numeric_limits<int>::max();
    return base;
  }
  static ServerConfig star() { return star(ServerConfig{}); }
};

/// Outcome of a join request.
enum class JoinResult : std::uint8_t {
  kGranted = 1,
  kDenied = 2,     // ACL rejection ("join-denied" in the paper)
  kDuplicate = 3,  // already a member
};

/// How the server satisfied a kNackRequest.
enum class NackOutcome : std::uint8_t {
  /// Gap inside the retransmit window: the missed datagrams were replayed
  /// unicast from the sealed-bytes ring (no plan/seal work).
  kRetransmitted = 1,
  /// Gap outside the window (or window disabled): full keyset resync.
  kResynced = 2,
  /// The user's recovery token bucket was empty; request dropped.
  kRateLimited = 3,
};

/// Outcome of offering a request to the overload gate (offer_join /
/// offer_leave). With overload disabled the gate always answers kAdmit
/// and the caller runs the normal immediate-rekey path.
struct GateResult {
  overload::Admission action = overload::Admission::kAdmit;
  /// For kShed: the retry-after hint to put on the kRetryLater reply.
  std::uint64_t retry_after_us = 0;
  /// The request failed validation (bad token, ACL rejection, leave from
  /// a non-member): rejected outright, not shed and not admitted.
  bool denied = false;
};

/// What one poll_overload() tick did.
struct OverloadTick {
  std::vector<overload::ShedNotice> shed;
  std::vector<UserId> joined;
  bool flushed = false;
};

}  // namespace keygraphs::server
