#include "client/client.h"

#include <algorithm>

#include "common/error.h"
#include "common/io.h"
#include "crypto/cbc.h"
#include "crypto/hmac.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace keygraphs::client {

namespace {

struct RecoveryMetrics {
  telemetry::Counter& gaps;
  telemetry::Counter& duplicates;
  telemetry::Counter& buffered;
  telemetry::Counter& nacks;
  telemetry::Counter& resyncs;
  telemetry::Counter& completed;
  telemetry::Counter& retry_later;

  static RecoveryMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static RecoveryMetrics* metrics = new RecoveryMetrics{
        registry.counter("client.recovery.gaps"),
        registry.counter("client.recovery.duplicates"),
        registry.counter("client.recovery.buffered"),
        registry.counter("client.recovery.nacks"),
        registry.counter("client.recovery.resyncs"),
        registry.counter("client.recovery.completed"),
        registry.counter("client.recovery.retry_later"),
    };
    return *metrics;
  }
};

/// splitmix64 finalizer: the deterministic per-(user, attempt) jitter
/// source — no global RNG, so two same-seed runs back off identically.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

GroupClient::GroupClient(ClientConfig config,
                         const crypto::RsaPublicKey* server_key)
    : config_(std::move(config)),
      opener_(server_key),
      has_server_key_(server_key != nullptr),
      rng_(config_.rng_seed == 0 ? crypto::SecureRandom()
                                 : crypto::SecureRandom(config_.rng_seed)) {}

void GroupClient::install_individual_key(SymmetricKey key) {
  keys_[key.id] = std::move(key);
}

void GroupClient::admit_snapshot(std::vector<SymmetricKey> keys,
                                 std::uint64_t epoch) {
  for (SymmetricKey& key : keys) keys_[key.id] = std::move(key);
  last_epoch_ = std::max(last_epoch_, epoch);
  applied_epoch_ = std::max(applied_epoch_, epoch);
}

bool GroupClient::is_keyset_replay(const rekey::RekeyMessage& message) const {
  if (message.blobs.empty()) return false;
  const KeyId own = individual_key_id(config_.user);
  for (const rekey::KeyBlob& blob : message.blobs) {
    if (blob.wrap.id != own) return false;
  }
  return true;
}

std::size_t GroupClient::apply_message(const rekey::RekeyMessage& message,
                                       RekeyOutcome& outcome) {
  const std::size_t key_size = config_.suite.key_size();
  std::size_t decrypted = 0;

  // Decrypt to a fixpoint: a blob may be wrapped under a key delivered by
  // another blob of the same message (group-oriented leave chains).
  std::vector<bool> consumed(message.blobs.size(), false);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < message.blobs.size(); ++i) {
      if (consumed[i]) continue;
      const rekey::KeyBlob& blob = message.blobs[i];
      auto held = keys_.find(blob.wrap.id);
      if (held == keys_.end() ||
          held->second.version != blob.wrap.version) {
        continue;  // not wrapped for us (or not yet unlockable)
      }
      consumed[i] = true;
      progress = true;

      // One schedule per blob, built from the key we hold and wiped when
      // it goes out of scope. decrypt_into writes into the reusable
      // scratch buffer.
      const crypto::CbcCipher cbc(
          crypto::make_cipher(config_.suite.cipher, held->second.secret));
      if (unwrap_scratch_.size() < blob.ciphertext.size()) {
        unwrap_scratch_.resize(blob.ciphertext.size());
      }
      std::size_t plain_size = 0;
      try {
        plain_size = cbc.decrypt_into(blob.ciphertext, unwrap_scratch_.data());
      } catch (const CryptoError&) {
        continue;  // corrupt blob (scratch wiped); counters untouched
      }
      if (plain_size != blob.targets.size() * key_size) {
        secure_wipe(unwrap_scratch_.data(), plain_size);
        continue;
      }
      decrypted += blob.targets.size();
      for (std::size_t t = 0; t < blob.targets.size(); ++t) {
        const KeyRef& target = blob.targets[t];
        const std::uint8_t* secret = unwrap_scratch_.data() + t * key_size;
        auto existing = keys_.find(target.id);
        if (existing == keys_.end() ||
            existing->second.version < target.version) {
          keys_[target.id] = SymmetricKey{target.id, target.version,
                                          Bytes(secret, secret + key_size)};
          ++outcome.keys_changed;
        }
      }
      secure_wipe(unwrap_scratch_.data(), plain_size);
    }
  }

  for (KeyId id : message.obsolete) keys_.erase(id);

  outcome.keys_decrypted += decrypted;
  return decrypted;
}

void GroupClient::buffer_pending(const rekey::RekeyMessage& message) {
  const std::size_t capacity = std::max<std::size_t>(
      config_.recovery.reorder_capacity, 1);
  if (pending_.contains(message.epoch)) return;  // duplicate of a parked one
  if (pending_.size() >= capacity) {
    // Keep the lowest epochs: they are the ones a gap fill unblocks first;
    // anything evicted is re-fetchable through the NACK path anyway.
    auto highest = std::prev(pending_.end());
    if (message.epoch >= highest->first) return;
    pending_.erase(highest);
  }
  pending_.emplace(message.epoch, message);
  ++recovery_stats_.buffered;
  if (telemetry::enabled()) RecoveryMetrics::get().buffered.add(1);
}

void GroupClient::drain_pending(RekeyOutcome& outcome) {
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (it->first <= applied_epoch_) {
      pending_.erase(it);  // superseded by a keyset replay
      continue;
    }
    if (it->first != applied_epoch_ + 1) break;  // gap still open
    const rekey::RekeyMessage message = std::move(it->second);
    pending_.erase(it);
    const std::size_t decrypted = apply_message(message, outcome);
    if (!message.blobs.empty() && decrypted == 0) {
      // Parked copy was undecryptable (e.g. corrupted in flight before it
      // was buffered): stay un-advanced and let recovery re-fetch it.
      outcome.needs_resync = true;
      enter_recovery();
      return;
    }
    applied_epoch_ = message.epoch;
  }
}

void GroupClient::enter_recovery() {
  if (recovery_ != RecoveryState::kSynced) return;
  recovery_ = RecoveryState::kAwaitingRetransmit;
  nacks_sent_ = 0;
  attempt_ = 0;
  // First request is due immediately; backoff applies between retries.
  next_attempt_us_ =
      config_.recovery.clock_us ? config_.recovery.clock_us() : 0;
}

void GroupClient::maybe_complete_recovery() {
  if (recovery_ == RecoveryState::kSynced) return;
  if (applied_epoch_ < last_epoch_ || !pending_.empty()) return;
  recovery_ = RecoveryState::kSynced;
  nacks_sent_ = 0;
  attempt_ = 0;
  ++recovery_stats_.completed;
  if (telemetry::enabled()) RecoveryMetrics::get().completed.add(1);
}

RekeyOutcome GroupClient::handle_rekey(BytesView wire) {
  if (!telemetry::enabled()) return process_rekey(wire);
  static auto& apply_ns = telemetry::Registry::global().histogram(
      "client.apply_ns",
      "Verify, decrypt and apply time per received rekey message");
  const std::uint64_t applied_before = applied_epoch_;
  RekeyOutcome outcome;
  {
    // A traced delivery gets a real span (ring + histogram); an untraced
    // one records the histogram alone, keeping the span ring free of
    // per-delivery churn in the large client simulations.
    std::optional<telemetry::ScopedSpan> span;
    std::uint64_t start_ns = 0;
    if (telemetry::current_trace().active()) {
      span.emplace("client.apply", &apply_ns);
    } else {
      start_ns = telemetry::steady_now_ns();
    }
    outcome = process_rekey(wire);
    if (!span.has_value()) {
      apply_ns.record(telemetry::steady_now_ns() - start_ns);
    }
  }
  if (applied_epoch_ > applied_before && config_.recovery.clock_us) {
    telemetry::ConvergenceMonitor::global().note_apply(
        config_.user, applied_epoch_, config_.recovery.clock_us() * 1000);
  }
  return outcome;
}

RekeyOutcome GroupClient::process_rekey(BytesView wire) {
  RekeyOutcome outcome;
  outcome.wire_size = wire.size();
  ++totals_.rekeys_received;
  totals_.bytes_received += wire.size();

  rekey::OpenedRekey opened;
  try {
    opened = opener_.open(wire, config_.verify);
  } catch (const ParseError&) {
    ++totals_.rejected;  // mangled on the wire; unusable regardless of auth
    return outcome;
  }
  // A verifying client that knows the server's key must see a signature:
  // accepting unsigned (or merely digested) messages would let anyone on
  // the multicast tree downgrade authentication away.
  const bool signature_required = config_.verify && has_server_key_;
  const bool properly_signed =
      opened.auth == rekey::AuthKind::kSignature ||
      opened.auth == rekey::AuthKind::kBatchSignature;
  if ((config_.verify && !opened.verified) ||
      (signature_required && !properly_signed)) {
    ++totals_.rejected;
    return outcome;  // unauthenticated: apply nothing
  }
  const rekey::RekeyMessage& message = opened.message;
  if (message.group != config_.group) {
    return outcome;  // another group's rekeying; not ours to apply
  }

  // A keyset replay (welcome or resync: everything wrapped under our own
  // individual key) carries the complete current keyset, so it may jump
  // applied_epoch_ forward over any gap. An old replay is an attacker (or
  // network) echo: suppressed like any other stale message.
  if (is_keyset_replay(message)) {
    if (message.epoch < applied_epoch_) {
      outcome.stale = true;
      outcome.duplicate = true;
      ++recovery_stats_.duplicates;
      if (telemetry::enabled()) RecoveryMetrics::get().duplicates.add(1);
      return outcome;
    }
    outcome.accepted = true;
    apply_message(message, outcome);
    applied_epoch_ = std::max(applied_epoch_, message.epoch);
    last_epoch_ = std::max(last_epoch_, message.epoch);
    drain_pending(outcome);
    maybe_complete_recovery();
    totals_.keys_changed += outcome.keys_changed;
    totals_.keys_decrypted += outcome.keys_decrypted;
    return outcome;
  }

  if (message.epoch <= applied_epoch_) {
    // Duplicate or reordered echo of an epoch already applied: suppressed
    // without touching the keyset (no rollback under any strategy).
    outcome.stale = true;
    outcome.duplicate = true;
    ++recovery_stats_.duplicates;
    if (telemetry::enabled()) RecoveryMetrics::get().duplicates.add(1);
    return outcome;
  }
  last_epoch_ = std::max(last_epoch_, message.epoch);
  outcome.accepted = true;

  if (message.epoch > applied_epoch_ + 1) {
    // Epoch gap: at least one rekey is missing (every member gets exactly
    // one message per epoch). Park this one and ask for the gap.
    buffer_pending(message);
    outcome.buffered = true;
    outcome.needs_resync = true;
    ++recovery_stats_.gaps;
    if (telemetry::enabled()) RecoveryMetrics::get().gaps.add(1);
    enter_recovery();
    return outcome;
  }

  const std::size_t decrypted = apply_message(message, outcome);
  if (!message.blobs.empty() && decrypted == 0) {
    // Fresh, authentic, contiguous — yet nothing decrypted. Either our
    // keyset diverged or the payload was corrupted in flight; recovery
    // re-fetches the pristine datagram (and escalates to resync if that
    // keeps failing). applied_epoch_ stays put so the re-fetch matches.
    outcome.needs_resync = true;
    enter_recovery();
  } else {
    applied_epoch_ = message.epoch;
    drain_pending(outcome);
    maybe_complete_recovery();
  }
  totals_.keys_changed += outcome.keys_changed;
  totals_.keys_decrypted += outcome.keys_decrypted;
  return outcome;
}

RekeyOutcome GroupClient::handle_datagram(BytesView datagram) {
  rekey::Datagram decoded;
  try {
    decoded = rekey::Datagram::decode(datagram);
  } catch (const ParseError&) {
    ++totals_.rejected;  // truncated/mangled envelope
    return RekeyOutcome{};
  }
  if (decoded.type == rekey::MessageType::kRetryLater) {
    return handle_retry_later(decoded.payload);
  }
  if (decoded.type != rekey::MessageType::kRekey) return RekeyOutcome{};
  telemetry::TraceContext context;
  if (decoded.trace.has_value()) {
    context = telemetry::TraceContext{decoded.trace->trace_id,
                                      decoded.trace->epoch,
                                      decoded.trace->op_kind};
  }
  const telemetry::TraceBinding traced(
      context, telemetry::client_process(config_.user));
  std::optional<telemetry::ScopedSpan> receive_span;
  if (context.active() && telemetry::enabled()) {
    receive_span.emplace("client.receive");
  }
  return handle_rekey(decoded.payload);
}

RekeyOutcome GroupClient::handle_retry_later(BytesView payload) {
  RekeyOutcome outcome;
  std::uint64_t hint_us = 0;
  try {
    ByteReader reader(payload);
    hint_us = reader.u64();
    reader.expect_done();
  } catch (const ParseError&) {
    ++totals_.rejected;  // mangled shed notice: ignore, backoff re-arms us
    return outcome;
  }
  outcome.retry_later = true;
  ++recovery_stats_.retry_later;
  if (telemetry::enabled()) RecoveryMetrics::get().retry_later.add(1);
  // The shed request was never processed, so the re-send after the hint is
  // a plain retry, not an escalation: refund the NACK (and the backoff
  // exponent) that poll_recovery charged when it emitted the request. A
  // shed join/resync issued outside poll_recovery leaves both at zero.
  if (recovery_ != RecoveryState::kSynced) {
    if (nacks_sent_ > 0) --nacks_sent_;
    if (attempt_ > 0) --attempt_;
  }
  // Honor the server's hint: never retry earlier than it asked, but keep
  // any later deadline our own backoff already scheduled.
  const std::uint64_t now =
      config_.recovery.clock_us ? config_.recovery.clock_us() : 0;
  next_attempt_us_ = std::max(next_attempt_us_, now + hint_us);
  return outcome;
}

std::optional<Bytes> GroupClient::poll_recovery() {
  if (recovery_ == RecoveryState::kSynced) return std::nullopt;
  const RecoveryPolicy& policy = config_.recovery;
  if (!policy.clock_us) return std::nullopt;  // passive (manual recovery)
  const std::uint64_t now = policy.clock_us();
  if (now < next_attempt_us_) return std::nullopt;

  // One recovery request is being emitted: record it in this client's lane
  // (untraced — the datagram that triggered recovery is long gone).
  const telemetry::TraceBinding traced(
      telemetry::TraceContext{}, telemetry::client_process(config_.user));
  std::optional<telemetry::ScopedSpan> recovery_span;
  if (telemetry::enabled()) recovery_span.emplace("client.recovery");

  // Re-arm: exponential backoff capped at max, plus a deterministic
  // per-user jitter in [0, delay/4] so simultaneous victims spread out.
  const std::uint64_t shift = std::min<std::uint64_t>(attempt_, 20);
  std::uint64_t delay =
      std::min(policy.base_backoff_us << shift, policy.max_backoff_us);
  delay = std::max<std::uint64_t>(delay, 1);
  delay += mix64(config_.user * 0x9e3779b97f4a7c15ull + attempt_) %
           (delay / 4 + 1);
  next_attempt_us_ = now + delay;
  ++attempt_;

  ByteWriter writer;
  writer.u64(config_.user);
  writer.var_bytes(policy.token);
  if (recovery_ == RecoveryState::kAwaitingRetransmit &&
      nacks_sent_ < policy.max_nacks) {
    ++nacks_sent_;
    ++recovery_stats_.nacks_sent;
    if (telemetry::enabled()) RecoveryMetrics::get().nacks.add(1);
    writer.u64(applied_epoch_);
    return rekey::Datagram{rekey::MessageType::kNackRequest, writer.take()}
        .encode();
  }
  // NACK budget spent (or already escalated): full keyset resync.
  recovery_ = RecoveryState::kAwaitingResync;
  ++recovery_stats_.resyncs_sent;
  if (telemetry::enabled()) RecoveryMetrics::get().resyncs.add(1);
  return rekey::Datagram{rekey::MessageType::kResyncRequest, writer.take()}
      .encode();
}

std::optional<SymmetricKey> GroupClient::group_key() const {
  auto it = keys_.find(config_.root);
  if (it == keys_.end()) return std::nullopt;
  return it->second;
}

const SymmetricKey* GroupClient::find_key(KeyId id) const {
  auto it = keys_.find(id);
  return it == keys_.end() ? nullptr : &it->second;
}

std::vector<KeyId> GroupClient::key_ids() const {
  std::vector<KeyId> out;
  out.reserve(keys_.size());
  for (const auto& [id, key] : keys_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

Bytes GroupClient::seal_application(BytesView payload) {
  const std::optional<SymmetricKey> key = group_key();
  if (!key.has_value()) {
    throw ProtocolError("client: not admitted (no group key)");
  }
  return seal_with_key(config_.suite, *key, payload, rng_);
}

Bytes GroupClient::open_application(BytesView sealed) const {
  const std::optional<SymmetricKey> key = group_key();
  if (!key.has_value()) {
    throw ProtocolError("client: not admitted (no group key)");
  }
  return open_with_key(config_.suite, *key, sealed);
}

void GroupClient::forget_keys() {
  for (auto& [id, key] : keys_) secure_wipe(key.secret);
  keys_.clear();
  secure_wipe(unwrap_scratch_);
  pending_.clear();
  recovery_ = RecoveryState::kSynced;  // a departed member owes nothing
  nacks_sent_ = 0;
  attempt_ = 0;
}

Bytes seal_with_key(const crypto::CryptoSuite& suite, const SymmetricKey& key,
                    BytesView payload, crypto::SecureRandom& rng) {
  const crypto::CbcCipher cbc(crypto::make_cipher(suite.cipher, key.secret));
  Bytes sealed = cbc.encrypt(payload, rng);
  // Encrypt-then-MAC so tampered ciphertexts are rejected before decryption.
  const crypto::Hmac hmac(suite.signing_digest(), key.secret);
  const Bytes tag = hmac.mac(sealed);
  sealed.insert(sealed.end(), tag.begin(), tag.end());
  return sealed;
}

Bytes open_with_key(const crypto::CryptoSuite& suite, const SymmetricKey& key,
                    BytesView sealed) {
  const crypto::Hmac hmac(suite.signing_digest(), key.secret);
  const std::size_t tag_size = hmac.tag_size();
  if (sealed.size() < tag_size) {
    throw CryptoError("application payload: truncated");
  }
  const BytesView body = sealed.subspan(0, sealed.size() - tag_size);
  const BytesView tag = sealed.subspan(sealed.size() - tag_size);
  if (!hmac.verify(body, tag)) {
    throw CryptoError("application payload: bad MAC");
  }
  const crypto::CbcCipher cbc(crypto::make_cipher(suite.cipher, key.secret));
  return cbc.decrypt(body);
}

}  // namespace keygraphs::client
