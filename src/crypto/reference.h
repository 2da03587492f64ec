// Reference (textbook) AES-128 and DES round functions.
//
// These are the repo's original straight-from-the-standard kernels: AES as
// per-byte SubBytes/ShiftRows/MixColumns with GF(2^8) multiplies in the
// round loop, DES as bit-by-bit FIPS permutations per round. They are kept
// for two jobs:
//
//   1. the cross-check oracle — tests/test_crypto_kernels.cpp asserts the
//      table-driven production kernels (crypto/aes.h, crypto/des.h) match
//      them block-for-block on random keys and blocks, both directions;
//   2. the baseline for bench/ablation_crypto_kernels, which measures the
//      table kernels' speedup over exactly this code (the seed kernels).
//
// Nothing on a production path should construct these.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block_cipher.h"

namespace keygraphs::crypto {

/// FIPS 197 AES-128, one byte at a time. Bit-identical to Aes128, ~an order
/// of magnitude slower.
class ReferenceAes128 final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit ReferenceAes128(BytesView key);
  ~ReferenceAes128() override;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return kBlockSize;
  }
  [[nodiscard]] std::size_t key_size() const noexcept override {
    return kKeySize;
  }
  [[nodiscard]] std::string name() const override {
    return "AES-128-reference";
  }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;

 private:
  std::array<std::uint32_t, 4 * (kRounds + 1)> round_keys_{};
};

/// FIPS 46-3 DES with bit-loop permutations. Bit-identical to Des.
class ReferenceDes final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;

  explicit ReferenceDes(BytesView key);
  ~ReferenceDes() override;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return kBlockSize;
  }
  [[nodiscard]] std::size_t key_size() const noexcept override {
    return kKeySize;
  }
  [[nodiscard]] std::string name() const override { return "DES-reference"; }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;

 private:
  void crypt_block(const std::uint8_t* in, std::uint8_t* out,
                   bool decrypt) const;

  std::array<std::uint64_t, 16> round_keys_{};  // 48-bit subkeys
};

}  // namespace keygraphs::crypto
