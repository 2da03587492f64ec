#include "rekey/executor.h"

#include <algorithm>

#include "crypto/aes_aesni.h"
#include "telemetry/stage.h"

namespace keygraphs::rekey {

using telemetry::Stage;
using telemetry::StageScope;

namespace {

/// Wrap ops sealed per work unit: the AES-NI kernel's interleave width.
/// Output is byte-identical at any batch size or thread split (work is
/// keyed by op index).
constexpr std::size_t kSealBatch = crypto::kAesNiMaxStreams;

}  // namespace

/// Resolves the WrapOps [begin, end) of one batch. Runs on any thread:
/// reads only the immutable plan and per-worker scratch buffers; bumps the
/// (atomic) global encryption counter. The whole batch goes through one
/// encrypt_many_into call, so on the AES-NI kernel its independent CBC
/// streams pipeline; the bytes are identical to sealing each op alone.
void RekeyExecutor::seal_wrap_batch(const RekeyPlan& plan, std::size_t begin,
                                    std::size_t end,
                                    std::vector<KeyBlob>& blobs) {
  // Gather every plaintext of the batch into one scratch buffer first,
  // recording offsets — views are formed only after the buffer stops
  // growing (insert may reallocate).
  thread_local Bytes scratch;
  thread_local std::vector<std::pair<std::size_t, std::size_t>> extents;
  thread_local std::vector<crypto::CbcCipher> ciphers;
  thread_local std::vector<crypto::CbcCipher::StreamOp> streams;
  scratch.clear();
  extents.clear();
  ciphers.clear();
  streams.clear();
  ciphers.reserve(end - begin);
  std::size_t encryptions_in_batch = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const WrapOp& op = plan.ops[i];
    KeyBlob& blob = blobs[i];
    blob.wrap = op.wrap;
    blob.targets = op.targets;
    const std::size_t offset = scratch.size();
    for (const KeyRef& target : op.targets) {
      const BytesView secret = plan.keys.secret(target);
      scratch.insert(scratch.end(), secret.begin(), secret.end());
    }
    extents.emplace_back(offset, scratch.size() - offset);
    ciphers.emplace_back(
        crypto::make_cipher(cipher_, plan.keys.secret(op.wrap)));
    encryptions_in_batch += op.targets.size();
  }
  for (std::size_t i = begin; i < end; ++i) {
    const auto [offset, size] = extents[i - begin];
    const crypto::CbcCipher& cbc = ciphers[i - begin];
    blobs[i].ciphertext.resize(cbc.ciphertext_size(size));
    streams.push_back({&cbc, BytesView(scratch.data() + offset, size),
                       plan.ops[i].iv, blobs[i].ciphertext.data()});
  }
  crypto::CbcCipher::encrypt_many_into(streams);
  if (telemetry::enabled()) {
    static auto& encryptions =
        telemetry::Registry::global().counter("rekey.key_encryptions");
    encryptions.add(encryptions_in_batch);
  }
  secure_wipe(scratch.data(), scratch.size());
  // Destroying the ciphers wipes their schedules: none outlives its batch.
  streams.clear();
  ciphers.clear();
}

RekeyExecutor::RekeyExecutor(crypto::CipherAlgorithm cipher,
                             std::size_t threads)
    : cipher_(cipher), threads_(threads == 0 ? 1 : threads) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
}

void RekeyExecutor::run(std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (pool_ && n > 1) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::vector<SealedRekey> RekeyExecutor::seal(const RekeyPlan& plan,
                                             const RekeySealer& sealer) {
  const std::size_t message_count = plan.messages.size();
  std::vector<SealedRekey> out(message_count);
  if (message_count == 0) return out;

  // 1. Wrap ops -> blobs: the paper's dominant server cost, and
  //    embarrassingly parallel. Shared ops (key-oriented chains, hybrid
  //    path blobs) are computed once here and copied per message below.
  //    Fan out over batches of kSealBatch ops, not single ops: each work
  //    unit multi-buffers its streams through one encrypt_many_into call.
  std::vector<KeyBlob> blobs(plan.ops.size());
  {
    const StageScope scope(Stage::kEncrypt);
    const std::size_t batches = (plan.ops.size() + kSealBatch - 1) / kSealBatch;
    run(batches, [&](std::size_t b) {
      const StageScope op_scope(Stage::kEncrypt);  // inert on pool workers
      const std::size_t begin = b * kSealBatch;
      const std::size_t end = std::min(begin + kSealBatch, plan.ops.size());
      seal_wrap_batch(plan, begin, end, blobs);
    });
  }

  // 2. Message assembly + body serialization.
  std::vector<Bytes> bodies(message_count);
  {
    const StageScope scope(Stage::kSerialize);
    run(message_count, [&](std::size_t i) {
      const StageScope body_scope(Stage::kSerialize);
      RekeyMessage message = plan.messages[i].header;
      message.blobs.reserve(plan.messages[i].ops.size());
      for (const std::uint32_t op : plan.messages[i].ops) {
        message.blobs.push_back(blobs[op]);
      }
      bodies[i] = message.serialize_body();
    });
  }

  // 3. Batch signing: leaf digests in parallel, then the Merkle tree and
  //    its one RSA root signature serially on this thread.
  std::vector<merkle::BatchSignatureItem> batch;
  if (sealer.mode() == SigningMode::kBatch) {
    const StageScope scope(Stage::kSign);
    std::vector<Bytes> leaves(message_count);
    run(message_count, [&](std::size_t i) {
      const StageScope leaf_scope(Stage::kSign);
      leaves[i] = crypto::digest_of(sealer.digest(), bodies[i]);
    });
    batch = sealer.batch_items_from_leaves(std::move(leaves));
  }

  // 4. Envelopes. Per-message digests/signatures (kDigestOnly /
  //    kPerMessage) happen inside envelope(), in parallel.
  {
    const StageScope scope(Stage::kSerialize);
    run(message_count, [&](std::size_t i) {
      const StageScope envelope_scope(Stage::kSerialize);
      out[i].to = plan.messages[i].to;
      out[i].wire =
          sealer.envelope(bodies[i], batch.empty() ? nullptr : &batch[i]);
    });
  }

  return out;
}

}  // namespace keygraphs::rekey
