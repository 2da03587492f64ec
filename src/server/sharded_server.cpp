#include "server/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/io.h"
#include "crypto/sha256.h"
#include "rekey/batch.h"
#include "telemetry/convergence.h"
#include "telemetry/stage.h"

namespace keygraphs::server {

using telemetry::Stage;
using telemetry::StageCollector;
using telemetry::StageScope;

namespace {

/// Reserved shard_seed lane for the root layer's rng, far outside any
/// realistic shard index.
constexpr std::uint64_t kRootRngLane = 999983;

/// The journal's commit digest: sha256 over the concatenated sealed wire
/// bytes, in message order — the replay-divergence check value.
Bytes sealed_digest(const std::vector<rekey::SealedRekey>& sealed) {
  crypto::Sha256 digest;
  for (const rekey::SealedRekey& message : sealed) {
    digest.update(message.wire);
  }
  return digest.finish();
}

/// The snapshot format: u64 epoch ‖ var_bytes(tree_0), then at K > 1
/// u32 K ‖ var_bytes(tree_1) … var_bytes(tree_K-1) ‖ var_bytes(G secret).
/// K = 1 bytes are the single-tree format older journals hold.
Bytes encode_snapshot(std::uint64_t epoch,
                      const std::vector<TreeViewPtr>& views,
                      BytesView group_secret) {
  ByteWriter writer;
  writer.u64(epoch);
  writer.var_bytes(views.front()->serialize());
  if (views.size() > 1) {
    writer.u32(static_cast<std::uint32_t>(views.size()));
    for (std::size_t i = 1; i < views.size(); ++i) {
      writer.var_bytes(views[i]->serialize());
    }
    writer.var_bytes(group_secret);
  }
  return writer.take();
}

/// Saves and force-sets a flag for one scope (exception-safe), restoring
/// the caller's value on exit — the standby keeps replaying_ latched
/// across many replay_record calls.
class ScopedFlag {
 public:
  explicit ScopedFlag(bool& flag) : flag_(flag), saved_(flag) { flag_ = true; }
  ~ScopedFlag() { flag_ = saved_; }
  ScopedFlag(const ScopedFlag&) = delete;
  ScopedFlag& operator=(const ScopedFlag&) = delete;

 private:
  bool& flag_;
  bool saved_;
};

/// Binds an operation's trace context to the calling thread and times one
/// rekey.* span under it; only the binding when the operation is
/// untraced.
class PhaseSpan {
 public:
  PhaseSpan(const telemetry::TraceContext& trace, const char* name)
      : binding_(trace, telemetry::kServerProcess) {
    if (trace.active()) span_.emplace(name);
  }

 private:
  telemetry::TraceBinding binding_;
  std::optional<telemetry::ScopedSpan> span_;
};

telemetry::Gauge* lane_gauge(std::size_t shard, const char* what) {
  return &telemetry::Registry::global().gauge(
      "shard." + std::to_string(shard) + "." + what);
}

struct RetransmitMetrics {
  telemetry::Counter& nacks;
  telemetry::Counter& served;
  telemetry::Counter& datagrams;
  telemetry::Counter& out_of_window;
  telemetry::Counter& rate_limited;
  telemetry::Counter& resync_fallbacks;

  static RetransmitMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static RetransmitMetrics* metrics = new RetransmitMetrics{
        registry.counter("rekey.retransmit.nacks"),
        registry.counter("rekey.retransmit.served"),
        registry.counter("rekey.retransmit.datagrams"),
        registry.counter("rekey.retransmit.out_of_window"),
        registry.counter("rekey.retransmit.rate_limited"),
        registry.counter("rekey.retransmit.resync_fallbacks"),
    };
    return *metrics;
  }
};

}  // namespace

ShardedGroupKeyServer::ShardedGroupKeyServer(
    ShardedServerConfig config, transport::ServerTransport& transport,
    AccessControl acl)
    : config_(std::move(config)),
      transport_(transport),
      acl_(std::move(acl)),
      auth_(config_.base.auth_master),
      root_rng_(shard_seed(config_.base.rng_seed, kRootRngLane) == 0
                    ? crypto::SecureRandom()
                    : crypto::SecureRandom(
                          shard_seed(config_.base.rng_seed, kRootRngLane))),
      retransmit_(config_.base.retransmit_window),
      limiter_(config_.base.recovery_rate, config_.base.recovery_burst) {
  if (config_.shards == 0) config_.shards = 1;
  const ServerConfig& base = config_.base;
  tree_ = std::make_unique<ShardedKeyTree>(base.tree_degree,
                                           base.suite.key_size(),
                                           config_.shards, base.rng_seed);
  strategy_ = rekey::make_strategy(base.strategy);

  const std::size_t shards = config_.shards;
  lanes_.reserve(shards);
  shard_roots_.reserve(shards);
  shard_views_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->executor = std::make_unique<rekey::RekeyExecutor>(
        base.suite.cipher, base.seal_threads);
    lane->users = lane_gauge(i, "users");
    lane->epoch = lane_gauge(i, "epoch");
    lane->seal_us = lane_gauge(i, "seal_us");
    lanes_.push_back(std::move(lane));
    const TreeViewPtr view = tree_->shard(i).view();
    shard_roots_.push_back(view->group_key());
    shard_views_.push_back(view);
  }
  auto& registry = telemetry::Registry::global();
  fleet_users_ = &registry.gauge("shard.users");
  fleet_epoch_ = &registry.gauge("shard.epoch");
  fleet_seal_us_ = &registry.gauge("shard.seal_us");
  registry.gauge("server.shards").set(static_cast<std::int64_t>(shards));

  // At K > 1 the root layer owns the group key G from birth (version 0,
  // refreshed on every epoch). Drawn before the signer so the root rng
  // stream layout is fixed.
  if (shards > 1) {
    group_secret_ = root_rng_.bytes(base.suite.key_size());
    group_version_ = 0;
  }
  set_signing_mode(base.signing);

  // One admission lane per shard, so a flash crowd (or slow seal) in one
  // shard sheds there while its siblings keep admitting.
  gate_ = std::make_unique<overload::AdmissionController>(base.overload,
                                                          shards);
  health_ = std::make_unique<overload::HealthMonitor>(base.overload);
  buffers_.resize(shards);

  // One journal lane per shard: lanes append independently under their
  // dispatch order, and the global commit sequence (assigned inside
  // DurableStore::append) stitches them back into total order at recovery.
  if (base.storage.enabled()) {
    durable_ = std::make_unique<storage::DurableStore>(
        storage::make_backend(base.storage, shards),
        base.storage.snapshot_interval);
  }
}

ShardedGroupKeyServer::~ShardedGroupKeyServer() = default;

std::uint64_t ShardedGroupKeyServer::now_us() const {
  // Replay pins the clock to the journaled timestamp: signatures cover it,
  // so reproducing the original sealed bytes requires the original time.
  if (replaying_) return pinned_clock_us_;
  if (config_.base.clock_us) return config_.base.clock_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void ShardedGroupKeyServer::set_signing_mode(rekey::SigningMode mode) {
  const ServerConfig& base = config_.base;
  if (mode == rekey::SigningMode::kPerMessage ||
      mode == rekey::SigningMode::kBatch) {
    if (!base.suite.signs()) {
      throw ProtocolError("server: signing mode set but suite has no RSA");
    }
    if (!signer_) {
      // K = 1 draws the signer from the lane-0 rng, right after the tree
      // root's key (the paper's single-tree stream); K > 1 from the root
      // layer's stream, after G.
      crypto::SecureRandom& signer_rng =
          shard_count() == 1 ? tree_->rng(0) : root_rng_;
      signer_ = std::make_unique<crypto::RsaPrivateKey>(
          crypto::RsaPrivateKey::generate(
              signer_rng,
              crypto::signature_modulus_bits(base.suite.signature)));
    }
  }
  config_.base.signing = mode;
  sealer_ = std::make_unique<rekey::RekeySealer>(
      mode, base.suite.signing_digest(), signer_.get());
}

void ShardedGroupKeyServer::begin_trace(Pending& pending,
                                        rekey::RekeyKind kind) const {
  // Replayed operations are reconstructions, not live traffic; emitting
  // spans for them would double-count the original dispatch.
  if (replaying_) return;
  if (!config_.base.trace_propagation || !telemetry::enabled()) return;
  pending.trace.trace_id = telemetry::next_trace_id();
  pending.trace.op_kind = static_cast<std::uint8_t>(kind);
}

SymmetricKey ShardedGroupKeyServer::shared_key_locked() const {
  return SymmetricKey{kSharedGroupKeyId, group_version_, group_secret_};
}

ShardedGroupKeyServer::RootState ShardedGroupKeyServer::root_state_locked()
    const {
  return RootState{epoch_, shard_views_, group_secret_};
}

// --- Planning -----------------------------------------------------------

JoinResult ShardedGroupKeyServer::plan_join_locked(UserId user,
                                                   std::size_t shard,
                                                   Pending& pending) {
  KeyTree& tree = tree_->shard(shard);
  Bytes individual_key;
  {
    // Authentication/admission is excluded from the measured processing
    // time, as in the paper, but attributed to the auth stage; the
    // individual key is the session key that exchange produced.
    const StageScope scope(Stage::kAuth);
    if (!acl_.authorizes(user)) return JoinResult::kDenied;
    if (tree.has_user(user)) return JoinResult::kDuplicate;
    individual_key = auth_.individual_key(user, config_.base.suite.key_size());
  }

  // Journal tape: every lane-rng byte the mutation + plan draw below (the
  // tape is what makes a replay byte-identical on any replica). Root-layer
  // draws are captured separately inside stitch.
  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(tree_->rng(shard));
  begin_trace(pending, rekey::RekeyKind::kJoin);
  const PhaseSpan span(pending.trace, "rekey.plan");
  pending.started = std::chrono::steady_clock::now();
  std::optional<JoinRecord> record;
  {
    const StageScope scope(Stage::kTreeUpdate);  // keygen nests inside
    record.emplace(tree.join(user, std::move(individual_key)));
  }
  const TreeViewPtr view = tree.view();
  rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                              view);
  {
    const StageScope scope(Stage::kEncrypt);  // wraps, IV draws, stitch
    stitch(pending, shard, view, planner,
           strategy_->plan_join(*record, planner), rekey::RekeyKind::kJoin,
           record->removed_nodes);
  }
  journal(pending, storage::OpKind::kJoin, capture, {user}, {});
  return JoinResult::kGranted;
}

void ShardedGroupKeyServer::plan_leave_locked(UserId user, std::size_t shard,
                                              Pending& pending) {
  KeyTree& tree = tree_->shard(shard);
  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(tree_->rng(shard));
  begin_trace(pending, rekey::RekeyKind::kLeave);
  const PhaseSpan span(pending.trace, "rekey.plan");
  pending.started = std::chrono::steady_clock::now();
  std::optional<LeaveRecord> record;
  {
    const StageScope scope(Stage::kTreeUpdate);
    record.emplace(tree.leave(user));  // throws for non-members
  }
  const TreeViewPtr view = tree.view();
  rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                              view);
  {
    const StageScope scope(Stage::kEncrypt);
    stitch(pending, shard, view, planner,
           strategy_->plan_leave(*record, planner), rekey::RekeyKind::kLeave,
           record->removed_nodes);
  }
  journal(pending, storage::OpKind::kLeave, capture, {}, {user});
  // A departed member no longer owes convergence; drop its lag gauge.
  // Replay skips this: the monitor belongs to the live timeline (an
  // in-process standby shares it with the primary).
  if (telemetry::enabled() && !replaying_) {
    telemetry::ConvergenceMonitor::global().forget_user(user);
  }
}

std::vector<UserId> ShardedGroupKeyServer::plan_batch_locked(
    std::size_t shard, const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users, Pending& pending) {
  KeyTree& tree = tree_->shard(shard);
  std::vector<std::pair<UserId, Bytes>> joins;
  std::vector<UserId> admitted;
  {
    const StageScope scope(Stage::kAuth);
    for (UserId user : join_users) {
      if (!acl_.authorizes(user) || tree.has_user(user)) continue;
      joins.emplace_back(
          user, auth_.individual_key(user, config_.base.suite.key_size()));
      admitted.push_back(user);
    }
  }
  // Entirely filtered out and nothing to remove: no mutation, no epoch.
  if (joins.empty() && leave_users.empty()) return admitted;

  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(tree_->rng(shard));
  begin_trace(pending, rekey::RekeyKind::kBatch);
  const PhaseSpan span(pending.trace, "rekey.plan");
  pending.started = std::chrono::steady_clock::now();
  std::optional<BatchRecord> record;
  {
    const StageScope scope(Stage::kTreeUpdate);
    record.emplace(tree.batch_update(joins, leave_users));
  }
  const TreeViewPtr view = tree.view();
  rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                              view);
  {
    const StageScope scope(Stage::kEncrypt);
    stitch(pending, shard, view, planner, rekey::plan_batch(*record, planner),
           rekey::RekeyKind::kBatch, record->removed_nodes);
  }
  // The journal stores the *admitted* joiners, not the requested list:
  // replay re-admits exactly these and checks it got the same answer.
  journal(pending, storage::OpKind::kBatch, capture, admitted, leave_users);
  if (telemetry::enabled() && !replaying_) {
    for (const UserId leaver : leave_users) {
      telemetry::ConvergenceMonitor::global().forget_user(leaver);
    }
  }
  return admitted;
}

void ShardedGroupKeyServer::journal(Pending& pending, storage::OpKind kind,
                                    std::optional<crypto::RngCapture>& capture,
                                    std::vector<UserId> joins,
                                    std::vector<UserId> leaves) {
  if (!capture) return;
  pending.commit = std::make_unique<storage::JournalRecord>();
  pending.commit->kind = kind;
  pending.commit->epoch = pending.epoch;
  pending.commit->shard = static_cast<std::uint32_t>(pending.shard);
  pending.commit->timestamp_us = pending.timestamp_us;
  pending.commit->joins = std::move(joins);
  pending.commit->leaves = std::move(leaves);
  pending.commit->rng_tape = capture->take();
  pending.commit->root_tape = std::move(pending.root_tape);
}

void ShardedGroupKeyServer::stitch(Pending& pending, std::size_t shard,
                                   TreeViewPtr view,
                                   rekey::RekeyPlanner& planner,
                                   std::vector<rekey::PlannedRekey> messages,
                                   rekey::RekeyKind kind,
                                   const std::vector<KeyId>& obsolete) {
  const std::size_t shards = shard_count();
  const std::size_t block = crypto::cipher_block_size(config_.base.suite.cipher);

  // Take the plan before the root critical section: the shared-key append
  // below needs to know each message's wrapping shape, and none of this
  // inspection needs the root lock.
  pending.plan = planner.take(std::move(messages));
  const std::size_t lane_messages = pending.plan.messages.size();
  // Classify lane messages by how their recipients decrypt:
  //   member messages (wrapped under tree keys) learn the new shard root
  //   from their own blobs, so G rides along wrapped under that root;
  //   individually-keyed messages (welcomes / keyset replays, every blob
  //   under one individual key) must stay all-individual so the client's
  //   keyset-replay jump-sync detection keeps working — G is wrapped under
  //   the same individual key instead.
  std::vector<std::size_t> member_messages;
  std::vector<std::size_t> welcome_messages;
  if (shards > 1) {
    for (std::size_t i = 0; i < lane_messages; ++i) {
      const auto& ops = pending.plan.messages[i].ops;
      if (ops.empty()) continue;
      bool individual = true;
      for (const std::uint32_t op : ops) {
        individual &= (pending.plan.ops[op].wrap.id >> 63) != 0;
      }
      (individual ? welcome_messages : member_messages).push_back(i);
    }
  }

  struct Broadcast {
    SymmetricKey root;
    TreeViewPtr view;
    Bytes iv;
  };
  std::vector<Broadcast> broadcasts;
  SymmetricKey shared;
  Bytes lane_iv;
  std::vector<Bytes> welcome_ivs;
  std::size_t fleet = 0;
  {
    // The root critical section: allocate the epoch, record this shard's
    // new root, refresh G and capture the *other* shards' roots exactly as
    // of this epoch. Because capture happens under the same lock as
    // allocation, an epoch never wraps G under a shard root newer than the
    // one its clients hold at that point of the stitched stream.
    const std::lock_guard<std::mutex> lock(root_mutex_);
    // Root-rng draws interleave across shards in epoch order, which no
    // single lane's replay could reproduce — so each record carries its
    // own slice of the root stream (G refresh + stitch IVs) as a second
    // tape, recorded under the same lock that orders the draws.
    std::optional<crypto::RngCapture> root_capture;
    if (durable_ != nullptr && !replaying_) root_capture.emplace(root_rng_);
    pending.epoch = ++epoch_;
    shard_roots_[shard] = view->group_key();
    shard_views_[shard] = view;
    for (const TreeViewPtr& v : shard_views_) fleet += v->user_count();
    if (shards > 1) {
      group_secret_ = root_rng_.bytes(config_.base.suite.key_size());
      group_version_ = static_cast<KeyVersion>(pending.epoch);
      shared = shared_key_locked();
      if (!member_messages.empty()) lane_iv = root_rng_.bytes(block);
      welcome_ivs.reserve(welcome_messages.size());
      for (std::size_t i = 0; i < welcome_messages.size(); ++i) {
        welcome_ivs.push_back(root_rng_.bytes(block));
      }
      for (std::size_t j = 0; j < shards; ++j) {
        if (j == shard || shard_views_[j]->user_count() == 0) continue;
        broadcasts.push_back(
            Broadcast{shard_roots_[j], shard_views_[j], root_rng_.bytes(block)});
      }
    }
    if (root_capture) {
      pending.root_tape = root_capture->take();
      // The only point where every shard's view and G agree on this
      // epoch; dispatch compacts from it if a snapshot falls due.
      pending.root = root_state_locked();
    }
  }

  try {
    pending.shard = shard;
    pending.fleet = fleet;
    pending.lane_view = view;
    if (pending.trace.active()) pending.trace.epoch = pending.epoch;
    const std::uint64_t timestamp = now_us();
    pending.timestamp_us = timestamp;
    for (rekey::PlannedRekey& message : pending.plan.messages) {
      message.header.group = config_.base.group;
      message.header.epoch = pending.epoch;
      message.header.timestamp_us = timestamp;
      message.header.kind = kind;
      message.header.obsolete = obsolete;
    }
    pending.views.assign(lane_messages, view);

    if (shards > 1) {
      pending.plan.keys.add(shared);
      // Ride-along blob on every member message: G_E wrapped under this
      // shard's new root. Clients unwrap it in the same fixpoint pass that
      // gives them the new root — no extra message for the mutated shard.
      if (!member_messages.empty()) {
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(rekey::WrapOp{
            view->group_key().ref(), {shared.ref()}, std::move(lane_iv)});
        pending.plan.key_encryptions += 1;
        for (const std::size_t i : member_messages) {
          pending.plan.messages[i].ops.push_back(op_index);
        }
      }
      // Welcomes stay wrapped entirely under the recipient's individual
      // key (one G wrap per welcome), preserving keyset-replay semantics.
      for (std::size_t w = 0; w < welcome_messages.size(); ++w) {
        const std::size_t i = welcome_messages[w];
        const KeyRef individual =
            pending.plan.ops[pending.plan.messages[i].ops.front()].wrap;
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(rekey::WrapOp{
            individual, {shared.ref()}, std::move(welcome_ivs[w])});
        pending.plan.key_encryptions += 1;
        pending.plan.messages[i].ops.push_back(op_index);
      }
      // One broadcast per other populated shard: G_E under that shard's
      // current root, multicast to its root's subgroup.
      for (Broadcast& b : broadcasts) {
        pending.plan.keys.add(b.root);
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(
            rekey::WrapOp{b.root.ref(), {shared.ref()}, std::move(b.iv)});
        pending.plan.key_encryptions += 1;
        rekey::PlannedRekey update;
        update.to = rekey::Recipient::to_subgroup(b.root.id);
        update.header.group = config_.base.group;
        update.header.epoch = pending.epoch;
        update.header.timestamp_us = timestamp;
        update.header.kind = kind;
        update.header.strategy = config_.base.strategy;
        update.ops.push_back(op_index);
        pending.plan.messages.push_back(std::move(update));
        pending.views.push_back(std::move(b.view));
      }
    }
    pending.op.kind = kind;
    pending.op.key_encryptions = pending.plan.key_encryptions;
  } catch (...) {
    retire(pending.epoch);
    throw;
  }
}

// --- Seal + sequenced dispatch ------------------------------------------

void ShardedGroupKeyServer::retire(std::uint64_t epoch) {
  std::unique_lock<std::mutex> order(sequence_mutex_);
  sequence_cv_.wait(order, [&] { return next_dispatch_ == epoch; });
  ++next_dispatch_;
  sequence_cv_.notify_all();
}

void ShardedGroupKeyServer::seal_and_dispatch(Lane& lane, Pending&& pending) {
  const bool sequenced = pending.op.kind != rekey::RekeyKind::kResync;
  const auto seal_started = std::chrono::steady_clock::now();
  try {
    const PhaseSpan span(pending.trace, "rekey.seal");
    pending.sealed = lane.executor->seal(pending.plan, *sealer_);
  } catch (...) {
    if (sequenced) retire(pending.epoch);
    throw;
  }
  const double seal_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - seal_started)
          .count();
  // Per-shard seal feedback: a lane whose EWMA blows past the degrade
  // threshold trips its own circuit breaker (the "one slow shard" case).
  if (config_.base.overload.enabled && !replaying_) {
    const auto sample = static_cast<std::uint64_t>(seal_us);
    health_->note_seal_us(sample);
    gate_->note_seal(pending.shard, sample, now_us());
  }

  if (!sequenced) {
    // Resync: not part of the stitched epoch stream; deliver whenever the
    // dispatch lock is free.
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_locked(lane, pending, seal_us);
    return;
  }
  std::unique_lock<std::mutex> order(sequence_mutex_);
  sequence_cv_.wait(order, [&] { return next_dispatch_ == pending.epoch; });
  try {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_locked(lane, pending, seal_us);
  } catch (...) {
    ++next_dispatch_;
    sequence_cv_.notify_all();
    throw;
  }
  ++next_dispatch_;
  sequence_cv_.notify_all();
}

void ShardedGroupKeyServer::dispatch_locked(Lane& lane, Pending& pending,
                                            double seal_us) {
  const PhaseSpan span(pending.trace, "rekey.dispatch");
  OpRecord op = pending.op;
  op.signatures = sealer_->signatures_for(pending.sealed.size());
  op.messages = pending.sealed.size();
  op.min_message = std::numeric_limits<std::size_t>::max();
  const bool resync = op.kind == rekey::RekeyKind::kResync;
  // Epoch-advancing operations park their framed datagrams in the
  // retransmit window so a later NACK replays these exact bytes. Resyncs
  // are excluded: they re-stamp the current epoch and would collide with
  // the real rekey recorded under that number.
  const bool remember =
      retransmit_.enabled() && !resync && !pending.plan.messages.empty();
  // Write-ahead commit: the record (with its sealed digest) is durable on
  // this shard's lane before any datagram leaves or the next epoch
  // dispatches, so the global commit sequence the append assigns is in
  // epoch order. A crash before this line means no client saw the epoch.
  if (durable_ != nullptr && pending.commit != nullptr) {
    pending.commit->sealed_digest = sealed_digest(pending.sealed);
    durable_->append(*pending.commit);
  }
  // The publish timestamp for fleet convergence: recorded before the first
  // delivery, because in-process transports apply on the client inside
  // deliver() and an apply must never precede its publish. Resyncs replay
  // an already-published epoch, so they never re-publish it.
  if (telemetry::enabled() && !resync && !pending.plan.messages.empty()) {
    telemetry::ConvergenceMonitor::global().note_publish(
        pending.epoch, now_us() * 1000, pending.fleet);
  }
  std::optional<rekey::TraceExtension> extension;
  if (pending.trace.active()) {
    extension = rekey::TraceExtension{
        pending.trace.trace_id, pending.trace.epoch, pending.trace.op_kind};
  }
  // Frame the whole burst, then deliver it through one deliver_many call:
  // gather-capable transports (UDP sendmmsg) amortize the per-datagram
  // syscall across the burst, and the default loops deliver() in order.
  std::vector<Bytes> datagrams(pending.sealed.size());
  {
    const StageScope scope(Stage::kSerialize);
    for (std::size_t i = 0; i < pending.sealed.size(); ++i) {
      datagrams[i] = rekey::Datagram{rekey::MessageType::kRekey,
                                     pending.sealed[i].wire, extension}
                         .encode();
      op.bytes += datagrams[i].size();
      op.min_message = std::min(op.min_message, datagrams[i].size());
      op.max_message = std::max(op.max_message, datagrams[i].size());
    }
  }
  {
    const StageScope scope(Stage::kSend);
    std::vector<transport::ServerTransport::OutboundDatagram> items;
    items.reserve(pending.sealed.size());
    for (std::size_t i = 0; i < pending.sealed.size(); ++i) {
      const rekey::Recipient to = pending.sealed[i].to;
      // Resolve fan-out on the plan-time view: immune to mutations that
      // land between plan and dispatch.
      const TreeViewPtr& view = pending.views[i];
      items.push_back({to, datagrams[i], [view, to] {
                         return to.kind == rekey::Recipient::Kind::kUser
                                    ? std::vector<UserId>{to.user}
                                    : view->resolve_subgroup(to.include,
                                                             to.exclude);
                       }});
    }
    transport_.deliver_many(items);
  }
  if (remember) {
    // Pin the per-datagram view: broadcasts address other shards, so one
    // view per epoch cannot answer their recipient filters.
    std::vector<rekey::StoredDatagram> stored;
    stored.reserve(pending.sealed.size());
    for (std::size_t i = 0; i < pending.sealed.size(); ++i) {
      stored.push_back(rekey::StoredDatagram{
          pending.sealed[i].to, std::move(datagrams[i]), pending.views[i]});
    }
    retransmit_.record(pending.epoch, std::move(stored));
  }
  if (op.messages == 0) op.min_message = 0;
  op.processing_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - pending.started)
                         .count();
  // The entry call's collector has seen every stage of this operation:
  // plan, seal and dispatch all ran on this thread.
  if (const StageCollector* stages = StageCollector::current()) {
    op.stage_us = stages->breakdown();
  }
  stats_.record(op);
  if (telemetry::enabled() && !resync) {
    lane.users->set(
        static_cast<std::int64_t>(pending.lane_view->user_count()));
    lane.epoch->set(static_cast<std::int64_t>(pending.epoch));
    lane.seal_us->set(static_cast<std::int64_t>(seal_us));
    fleet_users_->set(static_cast<std::int64_t>(pending.fleet));
    fleet_epoch_->set(static_cast<std::int64_t>(pending.epoch));
    fleet_seal_us_->set(static_cast<std::int64_t>(seal_us));
  }
  // Periodic compaction at every K, from the root state stitch captured
  // as of this op's epoch: the snapshot matches the last journaled record
  // even when later plans have already moved some shard, and appends are
  // serialized here, so no record of a later epoch is in the journal yet.
  if (durable_ != nullptr && pending.commit != nullptr &&
      durable_->snapshot_due()) {
    durable_->compact(pending.epoch,
                      encode_snapshot(pending.epoch, pending.root.views,
                                      pending.root.group_secret));
  }
}

// --- Membership entry points --------------------------------------------

JoinResult ShardedGroupKeyServer::join(UserId user) {
  const std::size_t shard = tree_->shard_of(user);
  Lane& lane = *lanes_[shard];
  const StageCollector stages;
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(lane.mutex);
    const JoinResult result = plan_join_locked(user, shard, pending);
    if (result != JoinResult::kGranted) return result;
  }
  seal_and_dispatch(lane, std::move(pending));
  return JoinResult::kGranted;
}

JoinResult ShardedGroupKeyServer::join_with_token(UserId user,
                                                  BytesView token) {
  if (!auth_.verify_join_token(user, token)) {
    if (telemetry::enabled()) {
      static auto& denied =
          telemetry::Registry::global().counter("server.auth_denied");
      denied.add(1);
    }
    return JoinResult::kDenied;
  }
  return join(user);
}

bool ShardedGroupKeyServer::try_leave(UserId user) {
  const std::size_t shard = tree_->shard_of(user);
  Lane& lane = *lanes_[shard];
  const StageCollector stages;
  Pending pending;
  {
    // Checked under the lane mutex: of two racing leaves, the loser sees
    // the winner's mutation and answers false instead of throwing.
    const std::lock_guard<std::mutex> lock(lane.mutex);
    if (!tree_->shard(shard).has_user(user)) return false;
    plan_leave_locked(user, shard, pending);
  }
  seal_and_dispatch(lane, std::move(pending));
  return true;
}

void ShardedGroupKeyServer::leave(UserId user) {
  if (!try_leave(user)) {
    throw ProtocolError("leave from non-member user " + std::to_string(user));
  }
}

bool ShardedGroupKeyServer::leave_with_token(UserId user, BytesView token) {
  return auth_.verify_leave_token(user, token) && try_leave(user);
}

std::vector<UserId> ShardedGroupKeyServer::batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users) {
  const std::size_t shards = shard_count();
  std::vector<std::vector<UserId>> joins_by_shard(shards);
  std::vector<std::vector<UserId>> leaves_by_shard(shards);
  for (UserId user : join_users) {
    joins_by_shard[tree_->shard_of(user)].push_back(user);
  }
  for (UserId user : leave_users) {
    leaves_by_shard[tree_->shard_of(user)].push_back(user);
  }
  std::vector<UserId> admitted;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (joins_by_shard[shard].empty() && leaves_by_shard[shard].empty()) {
      continue;
    }
    Lane& lane = *lanes_[shard];
    const StageCollector stages;  // one operation (and OpRecord) per shard
    Pending pending;
    std::vector<UserId> shard_admitted;
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      shard_admitted = plan_batch_locked(shard, joins_by_shard[shard],
                                         leaves_by_shard[shard], pending);
    }
    if (pending.epoch != 0) seal_and_dispatch(lane, std::move(pending));
    admitted.insert(admitted.end(), shard_admitted.begin(),
                    shard_admitted.end());
  }
  return admitted;
}

// --- Overload control ----------------------------------------------------

GateResult ShardedGroupKeyServer::offer_join(UserId user, BytesView token) {
  GateResult result;
  if (!config_.base.overload.enabled) return result;  // kAdmit: normal path
  // Validate before consuming any admission budget: a forged token or an
  // ACL reject must never shed (or displace) honest work.
  if (!auth_.verify_join_token(user, token) || !acl_.authorizes(user)) {
    result.denied = true;
    return result;
  }
  const std::size_t shard = shard_of(user);
  const std::lock_guard<std::mutex> lock(overload_mutex_);
  if (const auto it = buffered_.find(user); it != buffered_.end()) {
    if (it->second) {
      result.action = overload::Admission::kCoalesce;  // idempotent dup
      return result;
    }
    // Join while this user's leave is buffered: a rejoin needs fresh keys
    // *after* the departure rekey, so shed it past the next flush.
    result.action = overload::Admission::kShed;
    result.retry_after_us = config_.base.overload.degraded_batch_period_us;
    return result;
  }
  if (has_member(user)) return result;  // duplicate join: cheap no-op
  const overload::Decision decision =
      gate_->admit(shard, now_us(), health_->state());
  result.action = decision.action;
  result.retry_after_us = decision.retry_after_us;
  if (decision.action == overload::Admission::kCoalesce) {
    buffered_.emplace(user, true);
    buffers_[shard].joins.push_back({user, now_us()});
  }
  return result;
}

GateResult ShardedGroupKeyServer::offer_leave(UserId user, BytesView token) {
  GateResult result;
  if (!config_.base.overload.enabled) return result;
  if (!auth_.verify_leave_token(user, token)) {
    result.denied = true;
    return result;
  }
  const std::size_t shard = shard_of(user);
  const std::lock_guard<std::mutex> lock(overload_mutex_);
  if (const auto it = buffered_.find(user); it != buffered_.end()) {
    if (!it->second) {
      result.action = overload::Admission::kCoalesce;
      return result;
    }
    // Leave while the user's join is still buffered: after the flush the
    // user is a member and the retried leave succeeds.
    result.action = overload::Admission::kShed;
    result.retry_after_us = config_.base.overload.degraded_batch_period_us;
    return result;
  }
  if (!has_member(user)) {
    result.denied = true;  // matches leave_with_token's non-member answer
    return result;
  }
  const overload::Decision decision =
      gate_->admit(shard, now_us(), health_->state());
  result.action = decision.action;
  result.retry_after_us = decision.retry_after_us;
  if (decision.action == overload::Admission::kCoalesce) {
    buffered_.emplace(user, false);
    buffers_[shard].leaves.push_back({user, now_us()});
  }
  return result;
}

OverloadTick ShardedGroupKeyServer::poll_overload() {
  OverloadTick tick;
  if (!config_.base.overload.enabled) return tick;
  health_->note_sheds(gate_->take_sheds());
  health_->note_queue_depth(gate_->total_depth());
  if (config_.base.overload.slo_lag_epochs > 0) {
    health_->note_slo_lag(telemetry::ConvergenceMonitor::global().max_lag());
  }
  health_->evaluate(now_us());

  std::vector<UserId> joins;
  std::vector<UserId> leaves;
  {
    const std::lock_guard<std::mutex> lock(overload_mutex_);
    if (buffered_.empty()) return tick;
    const std::uint64_t now = now_us();
    bool full = false;
    for (const ShardBuffer& buffer : buffers_) {
      if (buffer.joins.size() + buffer.leaves.size() >=
          config_.base.overload.admission_queue) {
        full = true;
        break;
      }
    }
    if (now < next_flush_us_ && !full) return tick;
    next_flush_us_ = now + config_.base.overload.degraded_batch_period_us;

    static auto& deadline_shed = telemetry::Registry::global().counter(
        "server.overload.deadline_shed",
        "Buffered ops shed because they waited past shed_deadline_us");
    const auto expired = [&](const CoalescedOp& op) {
      return config_.base.overload.shed_deadline_us > 0 &&
             now > op.offered_us &&
             now - op.offered_us > config_.base.overload.shed_deadline_us;
    };
    const std::uint64_t period = config_.base.overload.degraded_batch_period_us;
    for (std::size_t shard = 0; shard < buffers_.size(); ++shard) {
      ShardBuffer& buffer = buffers_[shard];
      // Filter against live membership: a direct join may have raced the
      // buffer (e.g. a resumed client went around the gate).
      for (const CoalescedOp& op : buffer.joins) {
        if (expired(op)) {
          tick.shed.push_back({op.user, true, period});
          if (telemetry::enabled()) deadline_shed.add(1);
        } else if (!has_member(op.user)) {
          joins.push_back(op.user);
        }
      }
      for (const CoalescedOp& op : buffer.leaves) {
        if (expired(op)) {
          tick.shed.push_back({op.user, false, period});
          if (telemetry::enabled()) deadline_shed.add(1);
        } else if (has_member(op.user)) {
          leaves.push_back(op.user);
        }
      }
      gate_->release(shard, buffer.joins.size() + buffer.leaves.size());
      buffer.joins.clear();
      buffer.leaves.clear();
    }
    buffered_.clear();
  }
  // batch() takes lane/root/dispatch locks — run it with overload_mutex_
  // dropped so offers from other threads never wait on a flush.
  if (!joins.empty() || !leaves.empty()) {
    tick.joined = batch(joins, leaves);
    tick.flushed = true;
  }
  return tick;
}

// --- Recovery -----------------------------------------------------------

ShardedGroupKeyServer::ShardState ShardedGroupKeyServer::shard_state(
    std::size_t shard) const {
  ShardState state;
  const std::lock_guard<std::mutex> lock(root_mutex_);
  state.view = shard_views_[shard];
  state.epoch = epoch_;
  if (shard_count() > 1) state.shared = shared_key_locked();
  return state;
}

bool ShardedGroupKeyServer::try_resync(UserId user, std::size_t shard,
                                       const ShardState& state) {
  if (!state.view->has_user(user)) return false;
  const StageCollector stages;
  Pending pending;
  {
    begin_trace(pending, rekey::RekeyKind::kResync);
    const PhaseSpan span(pending.trace, "rekey.plan");
    pending.started = std::chrono::steady_clock::now();
    // The whole plan runs on the view that answered the membership check:
    // no tree access and no lane lock, so it completes while a writer is
    // parked mid-plan, and a concurrent leave cannot pull the user out
    // from under it.
    std::vector<SymmetricKey> keys;
    {
      const StageScope scope(Stage::kTreeUpdate);  // view read, no mutation
      keys = state.view->keyset(user);
    }
    rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                                state.view);
    std::vector<rekey::PlannedRekey> messages;
    {
      const StageScope scope(Stage::kEncrypt);
      rekey::PlannedRekey welcome;
      welcome.header.group = config_.base.group;
      welcome.header.epoch = state.epoch;
      welcome.header.timestamp_us = now_us();
      // A replay of current state, not a new operation: no epoch advance,
      // and the wire message stays welcome-shaped (kJoin) so clients need
      // no new message kind. Only the OpRecord says kResync.
      welcome.header.kind = rekey::RekeyKind::kJoin;
      welcome.header.strategy = config_.base.strategy;
      std::vector<SymmetricKey> path(keys.begin() + 1, keys.end());
      if (state.shared) path.push_back(*state.shared);
      if (!path.empty()) {
        welcome.ops.push_back(planner.wrap(keys.front(), path));
      }
      welcome.to = rekey::Recipient::to_user(user);
      messages.push_back(std::move(welcome));
    }
    pending.plan = planner.take(std::move(messages));
    pending.views.assign(1, state.view);
    pending.lane_view = state.view;
    pending.shard = shard;
    pending.epoch = state.epoch;
    if (pending.trace.active()) pending.trace.epoch = state.epoch;
    pending.op.kind = rekey::RekeyKind::kResync;
    pending.op.key_encryptions = pending.plan.key_encryptions;
  }
  if (telemetry::enabled()) {
    static auto& resyncs =
        telemetry::Registry::global().counter("server.resyncs");
    resyncs.add(1);
  }
  seal_and_dispatch(*lanes_[shard], std::move(pending));
  return true;
}

void ShardedGroupKeyServer::resync(UserId user) {
  const std::size_t shard = shard_of(user);
  if (!try_resync(user, shard, shard_state(shard))) {
    throw ProtocolError("resync for non-member user " + std::to_string(user));
  }
}

bool ShardedGroupKeyServer::resync_with_token(UserId user, BytesView token) {
  if (!auth_.verify_resync_token(user, token)) return false;
  const std::size_t shard = shard_of(user);
  return try_resync(user, shard, shard_state(shard));
}

std::optional<NackOutcome> ShardedGroupKeyServer::try_retransmit_locked(
    UserId user, std::uint64_t have_epoch) {
  if (telemetry::enabled()) RetransmitMetrics::get().nacks.add(1);
  if (!limiter_.admit(user, now_us())) {
    if (telemetry::enabled()) RetransmitMetrics::get().rate_limited.add(1);
    return NackOutcome::kRateLimited;
  }
  if (retransmit_.enabled()) {
    if (const auto replays = retransmit_.collect(user, have_epoch)) {
      if (telemetry::enabled()) {
        RetransmitMetrics::get().served.add(1);
        RetransmitMetrics::get().datagrams.add(replays->size());
      }
      const rekey::Recipient to = rekey::Recipient::to_user(user);
      for (const BytesView datagram : *replays) {
        // Already framed kRekey bytes; unicast them back regardless of
        // their original (subgroup) addressing.
        transport_.deliver(to, datagram,
                           [user] { return std::vector<UserId>{user}; });
      }
      return NackOutcome::kRetransmitted;
    }
    if (telemetry::enabled()) RetransmitMetrics::get().out_of_window.add(1);
  }
  if (telemetry::enabled()) RetransmitMetrics::get().resync_fallbacks.add(1);
  return std::nullopt;  // caller falls back to resync
}

std::optional<NackOutcome> ShardedGroupKeyServer::serve_nack(
    UserId user, std::uint64_t have_epoch) {
  const std::size_t shard = shard_of(user);
  const ShardState state = shard_state(shard);
  if (!state.view->has_user(user)) return std::nullopt;
  {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (const auto outcome = try_retransmit_locked(user, have_epoch)) {
      return outcome;
    }
  }
  // The fallback plans on the view that answered the membership check.
  try_resync(user, shard, state);
  return NackOutcome::kResynced;
}

NackOutcome ShardedGroupKeyServer::handle_nack(UserId user,
                                               std::uint64_t have_epoch) {
  const std::optional<NackOutcome> outcome = serve_nack(user, have_epoch);
  if (!outcome) {
    throw ProtocolError("nack from non-member user " + std::to_string(user));
  }
  return *outcome;
}

std::optional<NackOutcome> ShardedGroupKeyServer::nack_with_token(
    UserId user, BytesView token, std::uint64_t have_epoch) {
  if (!auth_.verify_resync_token(user, token)) return std::nullopt;
  return serve_nack(user, have_epoch);
}

// --- Bulk build ---------------------------------------------------------

void ShardedGroupKeyServer::preload(const std::vector<UserId>& users) {
  // Bounded batch_update chunks: BatchRecord materializes every joiner's
  // keyset, so one million-user update would hold the whole group's path
  // key material at once. 8192 keeps each record small; a publish copies
  // only page tables, so the chunk count costs little.
  constexpr std::size_t kChunk = 8192;
  const std::size_t shards = shard_count();
  std::vector<std::vector<UserId>> by_shard(shards);
  for (UserId user : users) {
    if (!acl_.authorizes(user)) continue;
    by_shard[tree_->shard_of(user)].push_back(user);
  }
  for (std::size_t shard = 0; shard < shards; ++shard) {
    KeyTree& tree = tree_->shard(shard);
    std::vector<std::pair<UserId, Bytes>> joins;
    std::vector<UserId> chunk_users;
    joins.reserve(std::min(kChunk, by_shard[shard].size()));
    // One kPreload record per chunk: epoch 0 (no rekey was sent), carrying
    // the admitted ids and the chunk's lane-rng tape so recovery rebuilds
    // the same tree bytes before replaying the epoch stream.
    const auto flush = [&] {
      if (joins.empty()) return;
      std::optional<crypto::RngCapture> capture;
      if (durable_ != nullptr && !replaying_) {
        capture.emplace(tree_->rng(shard));
      }
      tree.batch_update(joins, {});
      if (capture) {
        storage::JournalRecord record;
        record.kind = storage::OpKind::kPreload;
        record.shard = static_cast<std::uint32_t>(shard);
        record.timestamp_us = now_us();
        record.joins = chunk_users;
        record.rng_tape = capture->take();
        durable_->append(record);
      }
      joins.clear();
      chunk_users.clear();
    };
    for (UserId user : by_shard[shard]) {
      if (tree.has_user(user)) continue;
      joins.emplace_back(
          user, auth_.individual_key(user, config_.base.suite.key_size()));
      chunk_users.push_back(user);
      if (joins.size() == kChunk) flush();
    }
    flush();
  }
  const std::lock_guard<std::mutex> lock(root_mutex_);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const TreeViewPtr view = tree_->shard(shard).view();
    shard_roots_[shard] = view->group_key();
    shard_views_[shard] = view;
  }
}

// --- Durable state ------------------------------------------------------

Bytes ShardedGroupKeyServer::snapshot() const {
  // Every view and the epoch they were stitched under, taken together: a
  // snapshot taken while writers mutate is still internally consistent.
  RootState state;
  {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    state = root_state_locked();
  }
  return encode_snapshot(state.epoch, state.views, state.group_secret);
}

void ShardedGroupKeyServer::restore(BytesView snapshot) {
  const std::size_t shards = shard_count();
  ByteReader reader(snapshot);
  const std::uint64_t epoch = reader.u64();
  std::vector<Bytes> trees;
  trees.push_back(reader.var_bytes());
  Bytes group_secret;
  if (!reader.done()) {
    const std::uint32_t count = reader.u32();
    if (count != shards || count < 2) {
      throw ProtocolError("restore: snapshot has " + std::to_string(count) +
                          " shards, server has " + std::to_string(shards));
    }
    for (std::size_t i = 1; i < count; ++i) {
      trees.push_back(reader.var_bytes());
    }
    group_secret = reader.var_bytes();
    if (group_secret.size() != config_.base.suite.key_size()) {
      throw ParseError("restore: group secret has the wrong size");
    }
  }
  reader.expect_done();
  {
    std::vector<std::unique_lock<std::mutex>> lanes;
    lanes.reserve(shards);
    for (const auto& lane : lanes_) lanes.emplace_back(lane->mutex);
    tree_->restore(trees);  // throws before any change
    const std::lock_guard<std::mutex> lock(root_mutex_);
    epoch_ = epoch;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const TreeViewPtr view = tree_->shard(shard).view();
      shard_roots_[shard] = view->group_key();
      shard_views_[shard] = view;
    }
    if (shards > 1) {
      group_secret_ = std::move(group_secret);
      group_version_ = static_cast<KeyVersion>(epoch);
    }
  }
  {
    const std::lock_guard<std::mutex> order(sequence_mutex_);
    next_dispatch_ = epoch + 1;
  }
  // The old timeline's delivery state must not survive: the retransmit
  // ring holds sealed bytes for epochs that may disagree with the restored
  // tree (serving them would hand clients stale keys), and the
  // convergence monitor's publish ring carries timestamps from before the
  // restore. Journal replay (replaying_) re-anchors the monitor once, at
  // the end of recovery, rather than per restored snapshot.
  {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    retransmit_.clear();
  }
  if (telemetry::enabled() && !replaying_) {
    telemetry::ConvergenceMonitor::global().restart_from(epoch);
  }
}

void ShardedGroupKeyServer::recover_from_storage(
    const storage::RecoveryOptions& options) {
  if (durable_ == nullptr) {
    throw storage::StorageError(
        "recover_from_storage: storage is not configured");
  }
  storage::RecoveredLog log = durable_->load(options);
  if (log.snapshot) {
    // A snapshot this server cannot restore means the journal and this
    // configuration disagree (another shard count) or the bytes are bad.
    try {
      restore(*log.snapshot);
    } catch (const Error& error) {
      throw storage::JournalCorruptError(
          std::string("recover: unusable snapshot: ") + error.what());
    }
  }
  for (const storage::JournalRecord& record : log.records) {
    replay_record(record, options);
  }
  if (telemetry::enabled()) {
    static auto& replay_ops = telemetry::Registry::global().counter(
        "storage.replay_ops", "journal records replayed during recovery");
    replay_ops.add(log.records.size());
    telemetry::ConvergenceMonitor::global().restart_from(epoch());
  }
}

void ShardedGroupKeyServer::replay_record(
    const storage::JournalRecord& record,
    const storage::RecoveryOptions& options) {
  const ScopedFlag replaying(replaying_);
  pinned_clock_us_ = record.timestamp_us;
  try {
    const std::size_t shard = record.shard;
    if (shard >= shard_count()) {
      throw storage::ReplayDivergenceError(
          "replay: record names shard " + std::to_string(shard) +
          " but the server has " + std::to_string(shard_count()));
    }
    if (record.kind == storage::OpKind::kPreload) {
      if (record.epoch != 0 || !record.leaves.empty()) {
        throw storage::ReplayDivergenceError(
            "replay: malformed preload record (sequence " +
            std::to_string(record.sequence) + ")");
      }
      KeyTree& tree = tree_->shard(shard);
      {
        const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
        std::vector<std::pair<UserId, Bytes>> joins;
        joins.reserve(record.joins.size());
        for (const UserId user : record.joins) {
          joins.emplace_back(
              user,
              auth_.individual_key(user, config_.base.suite.key_size()));
        }
        tree.batch_update(joins, {});
        if (tape.remaining() != 0) {
          throw storage::ReplayDivergenceError(
              "replay: preload chunk left " +
              std::to_string(tape.remaining()) + " rng tape bytes unread");
        }
      }
      const std::lock_guard<std::mutex> lock(root_mutex_);
      const TreeViewPtr view = tree.view();
      shard_roots_[shard] = view->group_key();
      shard_views_[shard] = view;
      return;
    }

    Lane& lane = *lanes_[shard];
    Pending pending;
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      // Two tapes, two streams: the lane rng (tree mutation + plan) and
      // the root rng (G refresh + stitch IVs). Both must drain exactly; a
      // tape that runs short throws inside the drawing code.
      const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
      const crypto::RngTape root_tape(root_rng_, record.root_tape);
      switch (record.kind) {
        case storage::OpKind::kJoin: {
          if (record.joins.size() != 1 || !record.leaves.empty()) {
            throw storage::ReplayDivergenceError(
                "replay: malformed join record at epoch " +
                std::to_string(record.epoch));
          }
          const JoinResult result =
              plan_join_locked(record.joins.front(), shard, pending);
          if (result != JoinResult::kGranted) {
            throw storage::ReplayDivergenceError(
                "replay: journaled join of user " +
                std::to_string(record.joins.front()) +
                " not granted (epoch " + std::to_string(record.epoch) + ")");
          }
          break;
        }
        case storage::OpKind::kLeave: {
          if (record.leaves.size() != 1 || !record.joins.empty()) {
            throw storage::ReplayDivergenceError(
                "replay: malformed leave record at epoch " +
                std::to_string(record.epoch));
          }
          plan_leave_locked(record.leaves.front(), shard, pending);
          break;
        }
        case storage::OpKind::kBatch: {
          const std::vector<UserId> admitted = plan_batch_locked(
              shard, record.joins, record.leaves, pending);
          if (admitted != record.joins) {
            throw storage::ReplayDivergenceError(
                "replay: batch at epoch " + std::to_string(record.epoch) +
                " admitted a different join set than the journal");
          }
          break;
        }
        case storage::OpKind::kPreload:
          break;  // handled above; unreachable
      }
      if (tape.remaining() != 0 || root_tape.remaining() != 0) {
        throw storage::ReplayDivergenceError(
            "replay: epoch " + std::to_string(record.epoch) +
            " left rng tape bytes unread (lane " +
            std::to_string(tape.remaining()) + ", root " +
            std::to_string(root_tape.remaining()) + ")");
      }
    }
    if (pending.epoch != record.epoch) {
      throw storage::ReplayDivergenceError(
          "replay: operation allocated epoch " +
          std::to_string(pending.epoch) + " but the journal recorded " +
          std::to_string(record.epoch));
    }
    pending.sealed = lane.executor->seal(pending.plan, *sealer_);
    absorb_replayed(std::move(pending), record, options);
  } catch (const storage::StorageError&) {
    throw;
  } catch (const Error& error) {
    // Plan/seal failures during replay (bad auth_master, wrong config,
    // tape exhaustion) all mean the same thing: this process cannot
    // reproduce the journaled state.
    throw storage::ReplayDivergenceError(std::string("replay: ") +
                                         error.what());
  }
}

void ShardedGroupKeyServer::absorb_replayed(
    Pending&& pending, const storage::JournalRecord& record,
    const storage::RecoveryOptions& options) {
  if (options.verify_digests &&
      sealed_digest(pending.sealed) != record.sealed_digest) {
    throw storage::ReplayDivergenceError(
        "replay: epoch " + std::to_string(record.epoch) +
        " sealed bytes diverge from the journaled digest");
  }
  {
    // Release the replayed op's epoch so the next record (and, after
    // recovery, live traffic) dispatches at epoch_ + 1.
    const std::lock_guard<std::mutex> order(sequence_mutex_);
    next_dispatch_ = pending.epoch + 1;
  }
  // No transport, no stats, no publish — but the retransmit window fills
  // exactly as the original dispatch filled it (per-datagram views and
  // all), so a promoted replica serves pre-failover NACKs warm.
  if (!retransmit_.enabled() || pending.plan.messages.empty()) return;
  const std::lock_guard<std::mutex> lock(dispatch_mutex_);
  std::vector<rekey::StoredDatagram> stored;
  stored.reserve(pending.sealed.size());
  for (std::size_t i = 0; i < pending.sealed.size(); ++i) {
    const rekey::SealedRekey& sealed = pending.sealed[i];
    Bytes datagram =
        rekey::Datagram{rekey::MessageType::kRekey, sealed.wire, std::nullopt}
            .encode();
    stored.push_back(
        rekey::StoredDatagram{sealed.to, std::move(datagram),
                              pending.views[i]});
  }
  retransmit_.record(pending.epoch, std::move(stored));
}

// --- Introspection ------------------------------------------------------

std::uint64_t ShardedGroupKeyServer::epoch() const {
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return epoch_;
}

KeyId ShardedGroupKeyServer::root_id() const noexcept {
  return shard_count() == 1 ? tree_->shard(0).root_id() : kSharedGroupKeyId;
}

SymmetricKey ShardedGroupKeyServer::group_key() const {
  if (shard_count() == 1) return tree_->shard(0).view()->group_key();
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return shared_key_locked();
}

std::vector<SymmetricKey> ShardedGroupKeyServer::keyset(UserId user) const {
  std::vector<SymmetricKey> keys =
      tree_->shard(tree_->shard_of(user)).view()->keyset(user);
  if (shard_count() > 1) {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    keys.push_back(shared_key_locked());
  }
  return keys;
}

std::size_t ShardedGroupKeyServer::member_count() const {
  return tree_->user_count();
}

bool ShardedGroupKeyServer::has_member(UserId user) const {
  return tree_->has_user(user);
}

std::size_t ShardedGroupKeyServer::shard_count() const noexcept {
  return tree_->shard_count();
}

std::size_t ShardedGroupKeyServer::shard_of(UserId user) const noexcept {
  return tree_->shard_of(user);
}

TreeViewPtr ShardedGroupKeyServer::shard_view(std::size_t shard) const {
  return tree_->shard(shard).view();
}

const crypto::RsaPublicKey* ShardedGroupKeyServer::public_key()
    const noexcept {
  return signer_ ? &signer_->public_key() : nullptr;
}

}  // namespace keygraphs::server
