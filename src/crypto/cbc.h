// CBC mode with PKCS#7 padding over any BlockCipher.
//
// The paper encrypts new keys with DES-CBC; every rekey payload item in this
// reproduction is one CBC encryption of the new key bytes under an existing
// key, with a fresh random IV prepended to the ciphertext. Each CbcCipher
// owns the one keyed schedule it runs on; callers build one per wrapping
// key from crypto::make_cipher and drop it when done, which wipes the
// round keys (every BlockCipher kernel wipes them on destruction).
#pragma once

#include <memory>
#include <span>

#include "crypto/block_cipher.h"

namespace keygraphs::crypto {

class SecureRandom;

/// Stateless CBC helpers bound to a keyed block cipher.
class CbcCipher {
 public:
  /// Takes ownership of a keyed cipher. Throws CryptoError on null.
  explicit CbcCipher(std::unique_ptr<const BlockCipher> cipher);

  /// Encrypts `plaintext` with a random IV drawn from `rng`.
  /// Output layout: IV || ciphertext blocks. Always at least two blocks
  /// (PKCS#7 pads even exact multiples).
  [[nodiscard]] Bytes encrypt(BytesView plaintext, SecureRandom& rng) const;

  /// Encrypts with a caller-supplied IV (used by deterministic tests).
  /// IV must be exactly one block. Output layout: IV || ciphertext.
  [[nodiscard]] Bytes encrypt_with_iv(BytesView plaintext, BytesView iv) const;

  /// Zero-allocation encrypt: writes IV || ciphertext into caller-owned
  /// `out`, which must hold exactly ciphertext_size(plaintext.size())
  /// bytes. Padding is streamed straight into `out`'s final block — no
  /// padded plaintext copy is ever made, so there is nothing to wipe.
  /// `out` must not alias `plaintext` or `iv`.
  void encrypt_into(BytesView plaintext, BytesView iv, std::uint8_t* out) const;

  /// One independent encryption of a multi-buffer batch: the same
  /// contract as encrypt_into on `cbc`, with `out` sized to
  /// cbc->ciphertext_size(plaintext.size()).
  struct StreamOp {
    const CbcCipher* cbc = nullptr;
    BytesView plaintext;
    BytesView iv;
    std::uint8_t* out = nullptr;
  };

  /// Encrypts every op of a batch, byte-identical to calling
  /// op.cbc->encrypt_into(op.plaintext, op.iv, op.out) in order. Runs of
  /// consecutive ops whose ciphers share the AES-NI kernel are interleaved
  /// up to kAesNiMaxStreams at a time (the CBC chain is serial within one
  /// message but independent messages pipeline); everything else falls
  /// back to sequential encrypt_into. Outputs must not overlap inputs.
  static void encrypt_many_into(std::span<const StreamOp> ops);

  /// Inverse of encrypt(); throws CryptoError on bad length or padding.
  [[nodiscard]] Bytes decrypt(BytesView iv_and_ciphertext) const;

  /// Zero-allocation decrypt into caller-owned `out` (at least
  /// iv_and_ciphertext.size() - block_size bytes; `out` must not alias the
  /// input). Returns the unpadded plaintext length; the padding tail it
  /// wrote past that length is wiped before returning. On bad padding the
  /// whole written range is wiped before CryptoError is thrown.
  std::size_t decrypt_into(BytesView iv_and_ciphertext,
                           std::uint8_t* out) const;

  /// Ciphertext size (including IV) for a plaintext of `plaintext_size`.
  [[nodiscard]] std::size_t ciphertext_size(std::size_t plaintext_size) const;

  [[nodiscard]] const BlockCipher& cipher() const noexcept { return *cipher_; }

 private:
  std::unique_ptr<const BlockCipher> cipher_;
};

}  // namespace keygraphs::crypto
