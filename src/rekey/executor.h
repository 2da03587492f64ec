// The rekey pipeline's seal phase: RekeyPlan -> sealed wire messages.
//
// The executor resolves a plan's symbolic WrapOps against the plan's own
// key snapshot — never the live tree — so it can run entirely outside the
// server lock. All heavy crypto (CBC key wrapping, per-message digests,
// batch-signature leaf hashing, envelope signing) fans out across
// `seal_threads` threads (the caller plus seal_threads - 1 pool workers);
// the Merkle tree build and its single RSA root signature stay on the
// calling thread. With seal_threads == 1 everything runs inline, and the
// output is byte-identical either way because every IV was pre-drawn at
// plan time and work is keyed by index, not by completion order.
//
// Telemetry: the calling thread wraps each parallel region in a wall-clock
// StageScope; scopes opened on pool workers find no collector and stay
// inert, so the per-op stage breakdown keeps summing to elapsed wall time
// (the invariant the observability tests assert) instead of accumulated
// CPU time.
//
// Every wrap op expands its own wrapping-key schedule (crypto::make_cipher)
// inside the batch that seals it, and the batch frees it again before the
// worker moves on: nothing keyed outlives the plan, so a (KeyId, version)
// re-issued with a new secret can never meet a stale schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "rekey/codec.h"
#include "rekey/plan.h"

namespace keygraphs::rekey {

/// One fully sealed rekey message, ready for datagram framing.
struct SealedRekey {
  Recipient to;
  Bytes wire;
};

class RekeyExecutor {
 public:
  /// `threads` >= 1; 1 means serial (no pool is created, no threads spawn).
  RekeyExecutor(crypto::CipherAlgorithm cipher, std::size_t threads);

  /// Seals every message of `plan` in plan order. Safe to call from
  /// several threads concurrently (the pool multiplexes batches); the
  /// sealer must outlive the call.
  [[nodiscard]] std::vector<SealedRekey> seal(const RekeyPlan& plan,
                                              const RekeySealer& sealer);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  /// fn(i) for i in [0, n), on the pool when it exists, inline otherwise.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Resolves the WrapOps [begin, end) of `plan` into blobs[begin..end),
  /// multi-buffer: plaintexts are gathered into one per-worker scratch
  /// buffer, each op's cipher is keyed from the plan's snapshot, and all
  /// streams of the batch go through one CbcCipher::encrypt_many_into
  /// call. The scratch and the schedules are wiped before it returns.
  void seal_wrap_batch(const RekeyPlan& plan, std::size_t begin,
                       std::size_t end, std::vector<KeyBlob>& blobs);

  crypto::CipherAlgorithm cipher_;
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace keygraphs::rekey
