// AES-128 (FIPS 197). The modern counterpart to DES for the cipher ablation
// benchmark; also the default cipher for the example applications.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block_cipher.h"

namespace keygraphs::crypto {

/// AES with a 128-bit key and the standard 10-round schedule.
/// Table-driven (the 32-bit Te/Td tables of crypto/aes_tables.h, which fuse
/// SubBytes and MixColumns into one lookup); constant time is not a goal
/// here — the threat model of the paper is network attackers, not local
/// cache-timing observers. The retained byte-at-a-time kernel lives in
/// crypto/reference.h and pins this one via the cross-check test.
class Aes128 final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  /// Expands the key schedule. Throws CryptoError if key size != 16.
  explicit Aes128(BytesView key);
  ~Aes128() override;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return kBlockSize;
  }
  [[nodiscard]] std::size_t key_size() const noexcept override {
    return kKeySize;
  }
  [[nodiscard]] std::string name() const override { return "AES-128"; }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;

 private:
  // Round keys as 4-byte words, 4 words per round plus the initial key.
  std::array<std::uint32_t, 4 * (kRounds + 1)> round_keys_{};
  // Equivalent-inverse-cipher keys: the encryption schedule reversed, with
  // InvMixColumns applied to the inner rounds, so decryption runs the same
  // word-oriented round shape as encryption (FIPS 197 Section 5.3.5).
  std::array<std::uint32_t, 4 * (kRounds + 1)> dec_round_keys_{};
};

}  // namespace keygraphs::crypto
