// The group key server (paper Sections 3 and 5): per-shard trees and seal
// pipelines under a thin root layer.
//
// The user population is partitioned across K subtree shards
// (keygraph/sharded_tree.h): each shard owns its own copy-on-write
// KeyTree, its own deterministic rng, its own RekeyExecutor seal lane, and
// its own mutex — a leaf join/leave locks exactly one shard and one short
// root-layer critical section, never a global tree lock. K = 1 (the
// default) is the paper's single key tree.
//
// Every membership operation runs plan, seal and dispatch on the caller's
// thread:
//
//   plan     — under the lane mutex: admission, tree mutation, symbolic
//              rekey planning (WrapOps with pre-drawn IVs), then the root
//              stitch (epoch allocation, header stamping, shared-key ops).
//   seal     — no lock: the lane's RekeyExecutor resolves the plan against
//              its immutable key snapshot (encryptions, digests,
//              signatures), fanned across ServerConfig::seal_threads.
//   dispatch — in global epoch order (ticket = epoch), under the dispatch
//              mutex: journal commit, datagram framing, transport delivery,
//              retransmit window, stats.
//
// The server measures itself the way the paper's prototype did: processing
// time per request covering tree update, key generation, encryption,
// digest/signature computation, serialization and handoff to the send path
// — but never authentication. Each entry call installs one
// telemetry::StageCollector, so every operation's OpRecord carries its
// per-stage breakdown at any K.
//
// The thin root layer holds the only cross-shard state:
//
//   root key   — at K > 1, the group key G is a flat key wrapped under
//                every shard's subtree root. A membership change in shard
//                s refreshes G, appends one G-under-new-shard-root blob to
//                shard s's own rekey messages (clients decrypt it in the
//                same fixpoint pass), and broadcasts one tiny
//                G-under-shard-root message to each other shard. At K = 1
//                the layer vanishes: the shard root IS the group key.
//   epochs     — one global epoch counter stitches the K per-shard update
//                streams into the single total order the client recovery
//                machinery and fleet convergence SLOs consume. Epochs are
//                allocated under the root mutex at plan time and dispatch
//                is sequenced by epoch, so clients see exactly one
//                contiguous epoch stream regardless of which shards
//                produced it. Resyncs replay the current epoch and are not
//                sequenced.
//   recovery   — one RetransmitWindow over the stitched stream. Stored
//                datagrams pin the view they were addressed against
//                (StoredDatagram::view), so NACK replay filters correctly
//                even though one epoch's datagrams span several shards.
//   journal    — with ServerConfig::storage enabled, every committed op
//                appends one record to its shard's journal lane (plus the
//                stitched root-layer rng tape) before its datagrams leave.
//                Recovery replays the lanes merged by global commit
//                sequence. Every snapshot_interval commits, dispatch
//                compacts every lane into one snapshot of the whole root
//                state as of the committing op's epoch (all K shard views
//                and G, captured inside stitch's root critical section):
//                `u64 epoch ‖ var_bytes(tree_0)`, followed at K > 1 by
//                `u32 K ‖ var_bytes(tree_1) … var_bytes(tree_K-1) ‖
//                var_bytes(G secret)` (G's version is the epoch).
//
// Reads (epoch(), member_count(), has_member(), keyset(), snapshot(), the
// whole resync path) answer from published views and never wait for a
// writer parked in its plan.
//
// Locking order (inner to outer acquisitions never reverse):
//   lane mutex -> root mutex, then (all dropped) sequence mutex ->
//   dispatch mutex. Seal runs with no lock held.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/random.h"
#include "crypto/rsa.h"
#include "keygraph/sharded_tree.h"
#include "rekey/executor.h"
#include "rekey/retransmit.h"
#include "server/access_control.h"
#include "server/server.h"
#include "server/stats.h"
#include "storage/durable.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "transport/transport.h"

namespace keygraphs::server {

struct ShardedServerConfig {
  ServerConfig base;
  /// Subtree shard count K. 1 = the paper's single key tree.
  std::size_t shards = 1;
};

class ShardedGroupKeyServer {
 public:
  ShardedGroupKeyServer(ShardedServerConfig config,
                        transport::ServerTransport& transport,
                        AccessControl acl = AccessControl::allow_all());
  ~ShardedGroupKeyServer();

  ShardedGroupKeyServer(const ShardedGroupKeyServer&) = delete;
  ShardedGroupKeyServer& operator=(const ShardedGroupKeyServer&) = delete;

  // --- Membership (concurrency-safe; one lane lock + root stitch each) --

  /// Grants or denies a join. On grant, runs the configured join protocol:
  /// tree update, rekey message construction, sealing, sending.
  JoinResult join(UserId user);
  /// Join with an authentication token (the datagram path). The token must
  /// verify against the auth service or the request is denied.
  JoinResult join_with_token(UserId user, BytesView token);
  /// Throws ProtocolError for non-members.
  void leave(UserId user);
  /// Authenticated leave (the paper's {leave-request}_{k_u}). False for a
  /// bad token or a non-member, also when a concurrent leave of the same
  /// user wins the race.
  bool leave_with_token(UserId user, BytesView token);
  /// Batched membership update (periodic rekeying), partitioned by shard:
  /// one batched update per affected shard, each with its own epoch,
  /// rekeying each affected k-node exactly once. Returns the users
  /// actually joined (ACL rejections and duplicates are skipped). Throws
  /// ProtocolError if a leave targets a non-member or a user appears on
  /// both lists; shards already dispatched stay applied.
  std::vector<UserId> batch(const std::vector<UserId>& join_users,
                            const std::vector<UserId>& leave_users);

  // --- Recovery ---------------------------------------------------------

  /// Replays a member's current keyset as a welcome-style unicast (its
  /// shard path keys plus, at K > 1, the shared group key, all under its
  /// individual key, at the current epoch). No epoch advance and no key
  /// change; recorded in stats as RekeyKind::kResync. Throws
  /// ProtocolError for non-members.
  void resync(UserId user);
  /// Authenticated resync. False for a bad token or a non-member; the
  /// membership check and the plan use one published view.
  bool resync_with_token(UserId user, BytesView token);
  /// Serves a negative acknowledgement from a member whose last fully
  /// applied epoch is `have_epoch`. Rate-limits per user first; then, if
  /// every missed epoch is still in the retransmit window, replays the
  /// member's datagrams unicast (already sealed — no crypto); otherwise
  /// falls back to a resync. Throws ProtocolError for non-members.
  NackOutcome handle_nack(UserId user, std::uint64_t have_epoch);
  /// Authenticated NACK (reuses the resync token). nullopt on a bad token
  /// or a non-member.
  std::optional<NackOutcome> nack_with_token(UserId user, BytesView token,
                                             std::uint64_t have_epoch);

  // --- Bulk build and configuration --------------------------------------

  /// Admits `users` (ACL-filtered, duplicates skipped) without sending a
  /// single rekey message or advancing the epoch: the build phase of an
  /// experiment. Chunks each shard's admissions through batch_update so
  /// peak record/publish memory stays bounded at million-user scale. When
  /// storage is enabled each chunk journals one kPreload record (epoch 0)
  /// so recovery can rebuild the preloaded population too. Not safe
  /// concurrently with membership operations.
  void preload(const std::vector<UserId>& users);

  /// Switches the signing mode at runtime. The experiment harness builds
  /// the initial group unsigned (the paper never measures the build phase)
  /// and then turns signing on for the measured churn. A signer that does
  /// not exist yet is drawn from the lane-0 rng at K = 1 and from the root
  /// rng at K > 1 (the construction-time streams). Requires the suite to
  /// carry an RSA algorithm if `mode` signs. Like preload(), not safe
  /// concurrently with membership operations.
  void set_signing_mode(rekey::SigningMode mode);

  // --- Overload control (server/overload.h) -----------------------------
  // One admission lane per shard: a flash crowd hashing into one shard
  // (or one slow shard's open circuit breaker) sheds there without
  // touching its siblings. The coalesce buffers live under their own
  // overload mutex — offers never take a lane or root mutex. With
  // config.overload.enabled == false every offer answers kAdmit and the
  // caller runs the usual immediate path.

  /// Gates one join request. Validates the token and ACL first (bad
  /// requests are denied without consuming a queue slot), then asks the
  /// admission controller: kAdmit = caller runs join_with_token now;
  /// kCoalesce = buffered for the next degraded batch (the welcome
  /// arrives with the flush); kShed = answer kRetryLater.
  GateResult offer_join(UserId user, BytesView token);
  /// Gates one leave request (same contract as offer_join).
  GateResult offer_leave(UserId user, BytesView token);

  /// Degraded-mode tick: feeds the pressure signals (sheds, queue depth,
  /// convergence lag) into the HealthMonitor and, when the batch tick is
  /// due (or a queue hit its bound), drains every shard's buffer into one
  /// batch() call; ops whose shed deadline passed come back in
  /// OverloadTick::shed. Call periodically (e.g. every receive-loop pass).
  OverloadTick poll_overload();

  /// Current overload health (kHealthy whenever overload is off).
  [[nodiscard]] overload::HealthState health() const {
    return health_->state();
  }
  [[nodiscard]] overload::AdmissionController& admission() noexcept {
    return *gate_;
  }
  [[nodiscard]] overload::HealthMonitor& health_monitor() noexcept {
    return *health_;
  }

  // --- Durable state (write-ahead journal) ------------------------------

  /// Boot-time crash recovery: restores the compacted snapshot, then
  /// replays every later journal record — preload chunks and
  /// committed ops, lanes merged by global commit sequence — through the
  /// real per-lane plan/seal pipeline with the journaled rng tapes (lane
  /// and root layer) injected, reproducing byte-identical keys, epochs and
  /// sealed datagrams and rehydrating the retransmit window. Call on a
  /// freshly constructed server before serving. Throws StorageError
  /// subclasses (JournalCorruptError / JournalTruncatedError /
  /// EpochGapError / ReplayDivergenceError) per storage/errors.h, also
  /// when storage is not configured; a snapshot this server cannot restore
  /// (another shard count, malformed bytes) is a JournalCorruptError.
  void recover_from_storage(const storage::RecoveryOptions& options = {});
  /// Replays one journal record (kPreload rebuilds its chunk; others
  /// re-plan, re-seal, verify the sealed digest, and refill the
  /// retransmit window) without delivering datagrams or publishing
  /// telemetry. Records must arrive in commit-sequence order. Boot
  /// recovery and the standby tail both feed records through here.
  void replay_record(const storage::JournalRecord& record,
                     const storage::RecoveryOptions& options);
  /// Null when ServerConfig::storage is not enabled.
  [[nodiscard]] storage::DurableStore* durable() noexcept {
    return durable_.get();
  }

  /// Serializes the replicable state — every shard's published view and,
  /// at K > 1, the group secret, all as of one epoch (the format in the
  /// header comment; K = 1 is `u64 epoch ‖ var_bytes(tree)`). The
  /// standby-replica path Section 6 sketches. As sensitive as the server's
  /// memory; transfer over a secure channel only.
  [[nodiscard]] Bytes snapshot() const;
  /// Replaces the group state with a snapshot taken from a server with the
  /// same configuration. Clients notice nothing: node ids, versions and
  /// key material are identical. Throws ParseError on malformed snapshots
  /// and ProtocolError when the snapshot's shard count differs; state is
  /// unchanged on failure. Also resets the delivery-side state the old
  /// timeline owned: the retransmit window and the convergence monitor's
  /// published-epoch anchor. Not safe concurrently with other calls.
  void restore(BytesView snapshot);

  // --- Introspection ----------------------------------------------------

  [[nodiscard]] std::uint64_t epoch() const;
  /// The group key's k-node id: the shard-0 tree root at K = 1, the
  /// shared root-layer key id otherwise.
  [[nodiscard]] KeyId root_id() const noexcept;
  /// Current group key.
  [[nodiscard]] SymmetricKey group_key() const;
  /// The user's full keyset for admit_snapshot: its shard path keys plus,
  /// at K > 1, the shared group key. Throws for non-members.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;
  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] bool has_member(UserId user) const;
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::size_t shard_of(UserId user) const noexcept;
  /// Shard `shard`'s current epoch view — safe to read from any thread
  /// while writers mutate. At K = 1, shard_view(0) is the whole group.
  [[nodiscard]] TreeViewPtr shard_view(std::size_t shard) const;
  /// Public verification key; null when the server does not sign.
  [[nodiscard]] const crypto::RsaPublicKey* public_key() const noexcept;
  [[nodiscard]] const AuthService& auth() const noexcept { return auth_; }
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ShardedServerConfig& config() const noexcept {
    return config_;
  }
  /// For tests/tools; read only while no operation is in flight.
  [[nodiscard]] const ShardedKeyTree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const rekey::RetransmitWindow& retransmit_window()
      const noexcept {
    return retransmit_;
  }

 private:
  /// One shard's serialization + seal pipeline.
  struct Lane {
    std::mutex mutex;
    std::unique_ptr<rekey::RekeyExecutor> executor;
    telemetry::Gauge* users = nullptr;
    telemetry::Gauge* epoch = nullptr;
    telemetry::Gauge* seal_us = nullptr;
  };

  /// One shard's published view with the global epoch and shared key it
  /// was stitched under: a consistent triple (all change under
  /// root_mutex_), so a resync planned on it never mixes epochs.
  struct ShardState {
    TreeViewPtr view;
    std::uint64_t epoch = 0;
    std::optional<SymmetricKey> shared;  // K > 1 only
  };

  /// Every shard's view and the group secret (K > 1 only) as of one
  /// epoch: what a snapshot serializes. Read under root_mutex_, where the
  /// three change together.
  struct RootState {
    std::uint64_t epoch = 0;
    std::vector<TreeViewPtr> views;
    Bytes group_secret;
  };

  /// One operation between plan and dispatch.
  struct Pending {
    rekey::RekeyPlan plan;
    /// Per plan-message addressing view (broadcast messages resolve
    /// against *other* shards' views).
    std::vector<TreeViewPtr> views;
    /// The operated shard's view (post-op for mutations).
    TreeViewPtr lane_view;
    OpRecord op;
    std::vector<rekey::SealedRekey> sealed;
    std::chrono::steady_clock::time_point started{};
    /// Header epoch. For mutations it is also the dispatch ticket;
    /// resyncs replay the current epoch and dispatch unsequenced.
    std::uint64_t epoch = 0;
    std::size_t shard = 0;
    std::size_t fleet = 0;  // total users at epoch allocation
    /// Active only with trace_propagation and telemetry on; its epoch is
    /// the header epoch, and dispatch copies it onto every datagram.
    telemetry::TraceContext trace{};
    /// Header timestamp stamped by stitch (journaled, pinned on replay).
    std::uint64_t timestamp_us = 0;
    /// Root-layer rng draws captured inside stitch's critical section.
    Bytes root_tape;
    /// Journal record built at plan time, appended at dispatch (after the
    /// sealed digest is known). Null when storage is off or replaying.
    std::unique_ptr<storage::JournalRecord> commit;
    /// The root state as of this epoch, captured by stitch whenever the op
    /// journals; dispatch compacts from it when a snapshot is due.
    RootState root;
  };

  [[nodiscard]] std::uint64_t now_us() const;
  /// Stamps a fresh trace context on `pending` when trace propagation and
  /// telemetry are both on and this is live traffic (no-op otherwise).
  void begin_trace(Pending& pending, rekey::RekeyKind kind) const;
  /// Admission + tree mutation + symbolic planning for one join; caller
  /// holds lanes_[shard]->mutex.
  JoinResult plan_join_locked(UserId user, std::size_t shard,
                              Pending& pending);
  /// Throws ProtocolError for non-members.
  void plan_leave_locked(UserId user, std::size_t shard, Pending& pending);
  /// Returns admitted joiners; pending.epoch stays 0 when the sub-batch
  /// was entirely no-op (nothing to stitch).
  std::vector<UserId> plan_batch_locked(
      std::size_t shard, const std::vector<UserId>& join_users,
      const std::vector<UserId>& leave_users, Pending& pending);
  /// Allocates the global epoch, refreshes the root layer, stamps headers
  /// and appends the shared-key ops/broadcasts. Caller holds the lane
  /// mutex; takes root_mutex_ internally. On exception the allocated
  /// epoch is retired.
  void stitch(Pending& pending, std::size_t shard, TreeViewPtr view,
              rekey::RekeyPlanner& planner,
              std::vector<rekey::PlannedRekey> messages,
              rekey::RekeyKind kind, const std::vector<KeyId>& obsolete);
  /// Builds pending.commit from the op inputs and the captured lane tape
  /// (no-op without a capture: storage off or replaying).
  void journal(Pending& pending, storage::OpKind kind,
               std::optional<crypto::RngCapture>& capture,
               std::vector<UserId> joins, std::vector<UserId> leaves);
  /// Leaves `user` if a member, checked under the lane mutex.
  bool try_leave(UserId user);
  [[nodiscard]] ShardState shard_state(std::size_t shard) const;
  /// Resyncs `user` if a member of `state`'s view, planning on that view.
  bool try_resync(UserId user, std::size_t shard, const ShardState& state);
  /// NACK service; nullopt for non-members.
  std::optional<NackOutcome> serve_nack(UserId user,
                                        std::uint64_t have_epoch);
  /// Seal on the lane executor, then dispatch (in epoch order unless a
  /// resync).
  void seal_and_dispatch(Lane& lane, Pending&& pending);
  void dispatch_locked(Lane& lane, Pending& pending, double seal_us);
  /// Skips epoch `epoch` in the dispatch sequence (failed operation).
  void retire(std::uint64_t epoch);
  std::optional<NackOutcome> try_retransmit_locked(UserId user,
                                                   std::uint64_t have_epoch);
  [[nodiscard]] SymmetricKey shared_key_locked() const;  // root_mutex_ held
  [[nodiscard]] RootState root_state_locked() const;     // root_mutex_ held
  /// Digest-checks a replayed op, advances the dispatch cursor past its
  /// epoch, and refills the retransmit window — no transport, no stats.
  void absorb_replayed(Pending&& pending,
                       const storage::JournalRecord& record,
                       const storage::RecoveryOptions& options);

  ShardedServerConfig config_;
  transport::ServerTransport& transport_;
  AccessControl acl_;
  AuthService auth_;
  std::unique_ptr<ShardedKeyTree> tree_;
  std::unique_ptr<rekey::RekeyStrategy> strategy_;  // stateless, shared
  std::unique_ptr<crypto::RsaPrivateKey> signer_;
  std::unique_ptr<rekey::RekeySealer> sealer_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Root layer: the only cross-shard mutable state.
  mutable std::mutex root_mutex_;
  std::uint64_t epoch_ = 0;
  crypto::SecureRandom root_rng_;  // G refreshes + stitch IVs (K > 1)
  Bytes group_secret_;             // current G secret (K > 1 only)
  KeyVersion group_version_ = 0;
  std::vector<SymmetricKey> shard_roots_;  // as of the last allocated epoch
  std::vector<TreeViewPtr> shard_views_;

  // Dispatch sequencing: mutations dispatch in epoch order.
  std::mutex sequence_mutex_;
  std::condition_variable sequence_cv_;
  std::uint64_t next_dispatch_ = 1;
  std::mutex dispatch_mutex_;
  rekey::RetransmitWindow retransmit_;
  rekey::RecoveryLimiter limiter_;
  ServerStats stats_;

  // Durable state: per-shard journal lanes under one commit sequence.
  std::unique_ptr<storage::DurableStore> durable_;
  /// True while replaying journal records: suppresses re-journaling,
  /// transport delivery, telemetry publishes and trace stamping, and pins
  /// now_us() to the replayed record's timestamp. The standby latches it
  /// across a whole tail batch (friend below).
  bool replaying_ = false;
  std::uint64_t pinned_clock_us_ = 0;

  telemetry::Gauge* fleet_users_ = nullptr;
  telemetry::Gauge* fleet_epoch_ = nullptr;
  telemetry::Gauge* fleet_seal_us_ = nullptr;

  // Overload control: K admission lanes plus per-shard coalesce buffers.
  // overload_mutex_ guards the buffers only and nests inside nothing —
  // poll_overload() drops it before calling batch().
  struct CoalescedOp {
    UserId user = 0;
    std::uint64_t offered_us = 0;
  };
  struct ShardBuffer {
    std::vector<CoalescedOp> joins;
    std::vector<CoalescedOp> leaves;
  };
  std::unique_ptr<overload::AdmissionController> gate_;
  std::unique_ptr<overload::HealthMonitor> health_;
  std::mutex overload_mutex_;
  std::vector<ShardBuffer> buffers_;
  /// user -> is-join; a user is buffered at most once across all shards.
  std::unordered_map<UserId, bool> buffered_;
  std::uint64_t next_flush_us_ = 0;

  friend class StandbyServer;
};

}  // namespace keygraphs::server
