// Server-side rekey delivery reliability: the retransmit window and the
// recovery rate limiter.
//
// The paper's prototype sends rekey messages over UDP and assumes they
// arrive. When one does not, the receiver's keyset silently diverges; the
// pre-existing recovery path (an authenticated keyset resync) repairs it,
// but at the cost of a full plan/seal welcome message per victim — a loss
// burst across a large group would stampede the server with expensive
// resyncs. This header adds the cheap middle path:
//
//   - RetransmitWindow keeps the last W epochs' sealed datagrams exactly
//     as they left dispatch (bytes already encrypted, signed and framed).
//     Serving a NACK is a recipient-filtered memcpy-and-send: no tree
//     access, no crypto, no re-entry into plan/seal.
//   - Each stored datagram pins the TreeView it was addressed against, so
//     "was u a recipient of this subgroup message?" is answered against
//     the membership of *that* epoch, not the current one. Memory cost is
//     the pinned views plus the sealed bytes; size the window accordingly
//     (spec key `retransmit_window`).
//   - RecoveryLimiter is a per-user token bucket over the server's
//     injected clock: a client stuck in a retry loop (or a burst of
//     simultaneous victims) drains its own bucket and gets dropped
//     requests instead of driving the server into a resync storm.
//
// Thread safety: none here. The key server records and serves under its
// dispatch mutex.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "keygraph/tree_view.h"
#include "rekey/message.h"

namespace keygraphs::rekey {

/// One datagram as it left the server: destination, framed wire bytes, and
/// the membership snapshot its subgroup recipient resolves against. The
/// view is per datagram because one epoch's datagrams may address
/// different shards (the root-layer broadcasts), so no single per-epoch
/// view could answer "was u a recipient?" for all of them.
struct StoredDatagram {
  Recipient to;
  Bytes datagram;
  TreeViewPtr view;
};

class RetransmitWindow {
 public:
  /// `capacity` = epochs retained; 0 disables the window entirely (every
  /// recovery request degrades to a resync).
  explicit RetransmitWindow(std::size_t capacity);

  /// Stores one epoch's outbound datagrams. Epochs must be recorded in
  /// increasing order (the dispatch path's epoch order); re-recording an
  /// epoch replaces it.
  void record(std::uint64_t epoch, std::vector<StoredDatagram> datagrams);

  /// The datagrams `user` should have received for every epoch in
  /// (have_epoch, newest], in epoch order. Returns nullopt when any epoch
  /// of that gap has already left the window — the caller must fall back
  /// to a full resync. The returned views alias the window; they are
  /// invalidated by the next record().
  [[nodiscard]] std::optional<std::vector<BytesView>> collect(
      UserId user, std::uint64_t have_epoch) const;

  /// Drops every stored epoch. A server whose state was replaced wholesale
  /// (snapshot restore) must not serve NACKs from the pre-restore timeline.
  void clear();

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Epochs currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Newest recorded epoch; 0 when empty.
  [[nodiscard]] std::uint64_t newest() const noexcept { return newest_; }
  /// Oldest epoch still servable; 0 when empty.
  [[nodiscard]] std::uint64_t oldest() const noexcept;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    std::vector<StoredDatagram> datagrams;
  };

  /// Whether `user` was a recipient of `stored` under `view`'s membership.
  [[nodiscard]] static bool addressed_to(const StoredDatagram& stored,
                                         const TreeView& view, UserId user);

  std::size_t capacity_;
  std::vector<Entry> ring_;  // epoch e lives at ring_[e % capacity_]
  std::uint64_t newest_ = 0;
  std::size_t count_ = 0;
};

/// Per-user token bucket on an injected microsecond clock. Deterministic:
/// refill is computed from the timestamps the caller passes in, so tests
/// drive it with a manual clock.
class RecoveryLimiter {
 public:
  /// `rate` tokens per second, bucket capped at `burst`. A non-positive
  /// rate disables limiting (admit always).
  RecoveryLimiter(double rate, double burst);

  /// Takes one token for `user` at time `now_us`; false when the bucket
  /// is empty (the request should be dropped).
  [[nodiscard]] bool admit(UserId user, std::uint64_t now_us);

  /// Drops `user`'s bucket (e.g. after a leave).
  void forget(UserId user) { buckets_.erase(user); }

 private:
  struct Bucket {
    double tokens = 0;
    std::uint64_t refilled_us = 0;
  };

  double rate_;
  double burst_;
  std::unordered_map<UserId, Bucket> buckets_;
};

}  // namespace keygraphs::rekey
