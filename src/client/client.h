// The client layer (paper Section 5: "a client layer ... implements
// join/leave protocols for all three rekeying strategies").
//
// A GroupClient holds its keyset (a map from k-node id to the newest key it
// knows for that node), verifies and decrypts incoming rekey messages, and
// tracks the statistics the paper reports per client: rekey messages and
// bytes received (Table 6) and the number of key changes per request
// (Figure 12). Decryption runs to a fixpoint because a group-oriented leave
// message may wrap a parent's new key under a child's new key carried in
// the same message.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/random.h"
#include "crypto/rsa.h"
#include "crypto/suite.h"
#include "rekey/codec.h"

namespace keygraphs::client {

/// Automatic loss-recovery policy: how a client that detects a missed
/// rekey escalates NACK (cheap server-side retransmit) -> repeat with
/// exponential backoff -> full keyset resync. Inert unless `clock_us` is
/// set; poll_recovery() then schedules requests on the injected clock, so
/// recovery tests run entirely wall-clock free.
struct RecoveryPolicy {
  /// Injected microsecond clock; unset leaves recovery passive (the legacy
  /// manual-resync flow).
  std::function<std::uint64_t()> clock_us;
  /// First retry delay; doubles per attempt up to max_backoff_us, plus a
  /// deterministic per-user jitter so a shared loss burst does not NACK in
  /// lockstep.
  std::uint64_t base_backoff_us = 50'000;
  std::uint64_t max_backoff_us = 1'600'000;
  /// NACK attempts before escalating to a full keyset resync.
  std::size_t max_nacks = 3;
  /// Out-of-order rekey messages parked while waiting for a gap to fill;
  /// lowest epochs are kept when full (they unblock the most).
  std::size_t reorder_capacity = 16;
  /// Authentication token for NACK/resync requests (the auth service's
  /// resync token — both are keyset-replay requests).
  Bytes token;
};

struct ClientConfig {
  UserId user = 0;
  crypto::CryptoSuite suite;
  /// The secure group this client participates in; rekey messages for
  /// other groups are ignored (a user in several groups runs one
  /// GroupClient per group — the Section 7 multi-group model).
  GroupId group = 1;
  /// The group key's k-node id (told to the client at admission).
  KeyId root = 0;
  /// Verify digests/signatures on incoming rekey messages. The large
  /// client-simulator benches turn this off, matching the paper's focus on
  /// server-side cost; the security tests turn it on.
  bool verify = true;
  /// Seed for this client's IV generator (0 = OS entropy).
  std::uint64_t rng_seed = 0;
  /// Loss-recovery escalation policy (see RecoveryPolicy).
  RecoveryPolicy recovery;
};

/// Result of processing one rekey message.
struct RekeyOutcome {
  bool accepted = false;          // verified (or verification off) and fresh
  bool stale = false;             // epoch older than one already processed
  /// Set when a fresh, authentic rekey message carrying payload could not
  /// be decrypted at all: in normal operation every delivered rekey yields
  /// at least one decryption for a member, so this means the client missed
  /// an earlier rekey (lossy transport) and should ask the server for a
  /// keyset resync (MessageType::kResyncRequest).
  bool needs_resync = false;
  /// Epoch at or below one already applied: suppressed without touching
  /// the keyset (duplicate/replay protection — keys never roll back).
  bool duplicate = false;
  /// Fresh but out of order (epoch gap): parked in the reorder buffer and
  /// applied automatically once the gap fills.
  bool buffered = false;
  std::size_t keys_changed = 0;   // new or newer keys installed (Fig. 12)
  std::size_t keys_decrypted = 0; // decryption cost (Table 2(b) unit)
  std::size_t wire_size = 0;
  /// The server shed our request (kRetryLater) and told us how long to
  /// back off. The next recovery attempt is deferred by the hint without
  /// consuming a NACK from the budget — the server never saw the request,
  /// so it is a pure re-send, not an escalation.
  bool retry_later = false;
};

/// Where the client stands in the loss-recovery escalation.
enum class RecoveryState : std::uint8_t {
  kSynced = 0,             ///< applied epoch == newest seen; nothing owed
  kAwaitingRetransmit = 1, ///< gap detected; NACKing for cheap retransmits
  kAwaitingResync = 2,     ///< NACK budget spent; full resync requested
};

/// Lifetime recovery totals (mirrors the client.recovery.* counters).
struct RecoveryStats {
  std::size_t gaps = 0;        // epoch gaps detected
  std::size_t duplicates = 0;  // stale/replayed rekeys suppressed
  std::size_t buffered = 0;    // messages parked out of order
  std::size_t nacks_sent = 0;
  std::size_t resyncs_sent = 0;
  std::size_t completed = 0;    // recoveries that caught back up
  std::size_t retry_later = 0;  // kRetryLater sheds honored (overload)
};

/// Lifetime totals (Table 6 / Figure 12 aggregates).
struct ClientTotals {
  std::size_t rekeys_received = 0;
  std::size_t bytes_received = 0;
  std::size_t keys_changed = 0;
  std::size_t keys_decrypted = 0;
  std::size_t rejected = 0;  // failed verification
};

class GroupClient {
 public:
  /// `server_key` may be null when the server does not sign.
  GroupClient(ClientConfig config, const crypto::RsaPublicKey* server_key);

  /// Installs the individual key produced by the authentication exchange.
  void install_individual_key(SymmetricKey key);

  /// Installs a complete keyset snapshot at a given epoch. The experiment
  /// harness uses this to materialize a pre-built group (the paper measures
  /// only the 1000 churn requests, not the initial group construction).
  void admit_snapshot(std::vector<SymmetricKey> keys, std::uint64_t epoch);

  /// Verifies, decrypts and applies one sealed rekey message. Records the
  /// time into the client.apply_ns histogram and, when a RecoveryPolicy
  /// clock is configured, reports the new applied high-water mark to the
  /// global ConvergenceMonitor.
  RekeyOutcome handle_rekey(BytesView wire);

  /// Datagram entry point: decodes the envelope and dispatches kRekey;
  /// other types are ignored (returns an empty outcome). When the datagram
  /// carries the server's TraceExtension, the client binds that context
  /// around processing so its receive/apply spans land in this client's
  /// lane, correlated with the server's plan/seal/dispatch spans.
  RekeyOutcome handle_datagram(BytesView datagram);

  /// Current group key, if admitted.
  [[nodiscard]] std::optional<SymmetricKey> group_key() const;

  /// Newest key known for `id`, or null.
  [[nodiscard]] const SymmetricKey* find_key(KeyId id) const;

  /// Ids of all held keys (the client's multicast subscriptions).
  [[nodiscard]] std::vector<KeyId> key_ids() const;

  [[nodiscard]] std::size_t key_count() const noexcept {
    return keys_.size();
  }
  /// Newest epoch ever seen on an authentic message for this group.
  [[nodiscard]] std::uint64_t last_epoch() const noexcept {
    return last_epoch_;
  }
  /// Contiguous high-water mark: every epoch up to and including this one
  /// has been applied. Trails last_epoch() exactly while rekeys are
  /// missing — the difference is the NACK window the client asks for.
  [[nodiscard]] std::uint64_t applied_epoch() const noexcept {
    return applied_epoch_;
  }
  [[nodiscard]] RecoveryState recovery_state() const noexcept {
    return recovery_;
  }
  [[nodiscard]] const RecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }
  /// Out-of-order messages currently parked in the reorder buffer.
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }

  /// Drives the recovery state machine: when recovery is owed and the
  /// policy clock says the backoff has elapsed, returns the next encoded
  /// request datagram to send to the server — kNackRequest while NACK
  /// attempts remain, kResyncRequest after escalation — and re-arms the
  /// (exponential, jittered) backoff. nullopt when synced, not yet due, or
  /// no clock is configured. The caller owns delivery; the machine is
  /// re-armed purely by clock reads, never by wall-clock sleeps.
  [[nodiscard]] std::optional<Bytes> poll_recovery();
  [[nodiscard]] const ClientTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] UserId user() const noexcept { return config_.user; }

  /// Confidential application payload under the current group key
  /// (CBC + HMAC over the ciphertext). Throws if not admitted.
  [[nodiscard]] Bytes seal_application(BytesView payload);
  [[nodiscard]] Bytes open_application(BytesView sealed) const;

  /// Wipes all keys (a departing member forgets its state).
  void forget_keys();

 private:
  /// All blobs wrapped under this user's individual key: the shape of a
  /// welcome/resync keyset replay, which may jump the epoch forward
  /// non-contiguously (the server vouches for the whole keyset).
  [[nodiscard]] bool is_keyset_replay(const rekey::RekeyMessage& message) const;
  /// handle_rekey minus the instrumentation wrapper.
  RekeyOutcome process_rekey(BytesView wire);
  /// Fixpoint-decrypts `message` into the keyset and prunes obsolete ids,
  /// accumulating into `outcome`. Returns the keys decrypted from this
  /// message alone (the missed-rekey detector's signal).
  std::size_t apply_message(const rekey::RekeyMessage& message,
                            RekeyOutcome& outcome);
  /// Applies buffered messages while they extend applied_epoch_
  /// contiguously; discards ones a keyset replay has superseded.
  void drain_pending(RekeyOutcome& outcome);
  /// Parks an out-of-order message (bounded; lowest epochs win).
  void buffer_pending(const rekey::RekeyMessage& message);
  void enter_recovery();
  void maybe_complete_recovery();
  /// Applies a kRetryLater shed notice: defers the next recovery attempt
  /// by the server's retry-after hint and refunds the charged attempt.
  RekeyOutcome handle_retry_later(BytesView payload);

  ClientConfig config_;
  rekey::RekeyOpener opener_;
  bool has_server_key_ = false;
  crypto::SecureRandom rng_;
  std::unordered_map<KeyId, SymmetricKey> keys_;
  Bytes unwrap_scratch_;  // decrypt_into target; wiped after each message
  std::uint64_t last_epoch_ = 0;
  std::uint64_t applied_epoch_ = 0;
  /// Reorder buffer: parsed out-of-order messages keyed by epoch, applied
  /// in order as gaps fill. Ordered map — drain walks ascending epochs.
  std::map<std::uint64_t, rekey::RekeyMessage> pending_;
  RecoveryState recovery_ = RecoveryState::kSynced;
  RecoveryStats recovery_stats_;
  std::size_t nacks_sent_ = 0;
  std::uint64_t attempt_ = 0;      // backoff exponent across the episode
  std::uint64_t next_attempt_us_ = 0;
  ClientTotals totals_;
};

/// Application sealing as free functions, so a sender that is not a client
/// (e.g. the server pushing announcements) can use the same format.
Bytes seal_with_key(const crypto::CryptoSuite& suite, const SymmetricKey& key,
                    BytesView payload, crypto::SecureRandom& rng);
Bytes open_with_key(const crypto::CryptoSuite& suite, const SymmetricKey& key,
                    BytesView sealed);

}  // namespace keygraphs::client
