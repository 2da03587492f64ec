// RSA signatures (PKCS#1 v1.5), replacing CryptoLib's RSA used by the paper.
//
// The paper signs rekey messages with RSA-512; we support 512..2048-bit
// moduli so the benchmarks can show how the signature cost (the dominant
// server cost in the paper's Table 4 / Figure 11) scales with key size.
// Signing uses the CRT representation for a ~4x speedup, as any production
// implementation would: two half-size exponentiations on per-prime
// Montgomery contexts (64-bit limbs, fixed 4-bit window; crypto/bigint.h).
// PKCS#1 v1.5 is deterministic, so a signature's bytes depend only on the
// key and the digest, never on the exponentiation kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "crypto/bigint.h"
#include "crypto/digest.h"

namespace keygraphs::crypto {

class SecureRandom;

/// Verification half of an RSA key pair. Cheap to copy and to serialize —
/// clients receive it out of band (in the paper, at authentication time).
class RsaPublicKey {
 public:
  RsaPublicKey() = default;
  RsaPublicKey(BigInt modulus, BigInt public_exponent);

  /// Verifies a PKCS#1 v1.5 signature over `digest` (already hashed with
  /// `algorithm`). Returns false on any mismatch; never throws on bad input.
  [[nodiscard]] bool verify_digest(DigestAlgorithm algorithm,
                                   BytesView digest,
                                   BytesView signature) const;

  /// Convenience: hash `message` with `algorithm` then verify.
  [[nodiscard]] bool verify(DigestAlgorithm algorithm, BytesView message,
                            BytesView signature) const;

  /// Modulus size in bytes == signature size.
  [[nodiscard]] std::size_t signature_size() const;

  [[nodiscard]] const BigInt& modulus() const noexcept { return n_; }
  [[nodiscard]] const BigInt& exponent() const noexcept { return e_; }

  /// Wire codec (modulus and exponent, both length-prefixed big-endian).
  [[nodiscard]] Bytes serialize() const;
  static RsaPublicKey deserialize(BytesView data);

 private:
  BigInt n_;
  BigInt e_;
};

/// Signing half. Holds the CRT parameters (p, q, dP, dQ, qInv) and one
/// Montgomery context per prime, reused across signatures.
class RsaPrivateKey {
 public:
  /// Generates a fresh key pair. `modulus_bits` must be even and >= 512.
  /// The paper used 512-bit moduli; 65537 is the default public exponent.
  static RsaPrivateKey generate(SecureRandom& rng, std::size_t modulus_bits,
                                std::uint64_t public_exponent = 65537);

  /// PKCS#1 v1.5 signature over a precomputed digest.
  [[nodiscard]] Bytes sign_digest(DigestAlgorithm algorithm,
                                  BytesView digest) const;

  /// Hash `message` with `algorithm`, then sign.
  [[nodiscard]] Bytes sign(DigestAlgorithm algorithm, BytesView message) const;

  [[nodiscard]] const RsaPublicKey& public_key() const noexcept {
    return public_;
  }

  [[nodiscard]] std::size_t signature_size() const {
    return public_.signature_size();
  }

 private:
  RsaPrivateKey() = default;

  RsaPublicKey public_;
  BigInt p_, q_;
  BigInt d_p_, d_q_;  // d mod (p-1), d mod (q-1)
  BigInt q_inv_;      // q^-1 mod p
  std::shared_ptr<const Montgomery> mont_p_;
  std::shared_ptr<const Montgomery> mont_q_;
};

/// Builds the EMSA-PKCS1-v1_5 encoded block (0x00 0x01 FF.. 0x00 DigestInfo)
/// for `digest`. Exposed for tests. Throws CryptoError if the modulus is too
/// small for the digest.
Bytes pkcs1_v15_encode(DigestAlgorithm algorithm, BytesView digest,
                       std::size_t modulus_size);

}  // namespace keygraphs::crypto
