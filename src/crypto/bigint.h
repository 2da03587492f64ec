// Arbitrary-precision unsigned integers, sized for RSA.
//
// Replaces the CryptoLib bignum package the paper's prototype used. Provides
// exactly what RSA needs: schoolbook multiply, Knuth Algorithm D division,
// Montgomery modular exponentiation, extended-GCD modular inverse, and
// Miller–Rabin primality with safe-margin round counts.
//
// BigInt stores 32-bit limbs; the Montgomery kernel, where RSA signing and
// key generation spend their time, converts to 64-bit limbs on entry and
// multiplies with 128-bit products over a fixed 4-bit window.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace keygraphs::crypto {

class SecureRandom;

/// Unsigned big integer. Value semantics; normalized representation
/// (no leading zero limbs; zero is the empty limb vector).
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine integer.
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte import (the natural wire format for RSA values).
  static BigInt from_bytes_be(BytesView bytes);

  /// Big-endian byte export, left-padded with zeros to at least `min_size`.
  [[nodiscard]] Bytes to_bytes_be(std::size_t min_size = 0) const;

  /// Hex import/export for tests and debugging.
  static BigInt from_hex(std::string_view hex);
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }

  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  /// Bit i (0 = least significant).
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  /// Low 64 bits of the value.
  [[nodiscard]] std::uint64_t to_u64() const noexcept;

  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) = default;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  /// Throws Error if b > a (values are unsigned).
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  friend BigInt operator<<(const BigInt& a, std::size_t bits);
  friend BigInt operator>>(const BigInt& a, std::size_t bits);

  /// Quotient and remainder in one pass. Throws Error on division by zero.
  static std::pair<BigInt, BigInt> divmod(const BigInt& a, const BigInt& b);

  /// (base ^ exponent) mod modulus. Montgomery windowed exponentiation for
  /// odd moduli, classic square-and-multiply otherwise. Throws on zero
  /// modulus.
  static BigInt mod_exp(const BigInt& base, const BigInt& exponent,
                        const BigInt& modulus);

  /// Multiplicative inverse of a mod m. Throws CryptoError if gcd(a,m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform value with exactly `bits` bits (top bit set).
  static BigInt random_bits(SecureRandom& rng, std::size_t bits);

  /// Uniform value in [0, bound).
  static BigInt random_below(SecureRandom& rng, const BigInt& bound);

  /// Miller–Rabin with `rounds` random bases (plus a small-prime sieve).
  [[nodiscard]] bool is_probable_prime(SecureRandom& rng,
                                       int rounds = 40) const;

  /// Random prime with exactly `bits` bits; top two bits set so the product
  /// of two such primes has exactly 2*bits bits (an RSA modulus invariant).
  static BigInt generate_prime(SecureRandom& rng, std::size_t bits);

 private:
  void trim() noexcept;
  static BigInt shift_limbs(const BigInt& a, std::size_t limbs);

  std::vector<std::uint32_t> limbs_;  // little-endian

  friend class Montgomery;
};

/// Montgomery context for repeated multiplication mod a fixed odd modulus.
/// Exposed so RSA-CRT can reuse one context per prime across many signatures.
///
/// Internally the modulus and every operand live in 64-bit limbs (CIOS
/// multiplication with unsigned __int128 products); values convert from and
/// to BigInt's 32-bit limbs at the edges of mod_exp. Exponentiation is a
/// fixed 4-bit window that multiplies once per window, by R mod N for a
/// zero window, so the multiply sequence does not depend on the exponent's
/// bits. Each call allocates one scratch buffer.
class Montgomery {
 public:
  /// Throws CryptoError unless modulus is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  /// (base ^ exponent) mod modulus. Any base, including base >= modulus.
  [[nodiscard]] BigInt mod_exp(const BigInt& base,
                               const BigInt& exponent) const;

  [[nodiscard]] const BigInt& modulus() const noexcept { return modulus_; }

 private:
  using Limb = std::uint64_t;

  // out = a * b * R^-1 mod N (CIOS), R = 2^(64k). a, b and out hold k
  // limbs (out may alias neither input); t is k + 1 limbs of scratch.
  void mont_mul(const Limb* a, const Limb* b, Limb* out, Limb* t) const;

  // value (any size) -> k limbs of value mod N, not yet in Montgomery form.
  void load(const BigInt& value, Limb* out) const;

  BigInt modulus_;
  std::size_t k_;              // 64-bit limb count of the modulus
  Limb n0_inv_;                // -N^-1 mod 2^64
  std::vector<Limb> n_;        // N
  std::vector<Limb> r_mod_n_;  // R mod N: 1 in Montgomery form
  std::vector<Limb> r2_mod_n_; // R^2 mod N: converts into Montgomery form
};

}  // namespace keygraphs::crypto
