// DES (FIPS 46-3), the symmetric cipher used by the paper's prototype.
//
// The kernel runs on the fused lookup tables of crypto/des_tables.h: IP/FP
// as byte-indexed XOR tables, S-boxes combined with the P permutation, and
// the expansion E computed as bit windows of a rotated half — no per-bit
// permutation loops on the block path. The retained bit-loop kernel lives
// in crypto/reference.h and pins this one via the cross-check test.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block_cipher.h"

namespace keygraphs::crypto {

/// Single-DES with 8-byte keys and 8-byte blocks. Parity bits of the key are
/// ignored, as in FIPS 46-3. Not secure by modern standards; provided for
/// fidelity to the paper (and for the DES-vs-AES ablation benchmark).
class Des final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;

  /// Builds the 16-round key schedule. Throws CryptoError if key size != 8.
  explicit Des(BytesView key);
  ~Des() override;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return kBlockSize;
  }
  [[nodiscard]] std::size_t key_size() const noexcept override {
    return kKeySize;
  }
  [[nodiscard]] std::string name() const override { return "DES"; }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;

 private:
  void crypt_block(const std::uint8_t* in, std::uint8_t* out,
                   bool decrypt) const;

  std::array<std::uint64_t, 16> round_keys_{};  // 48-bit subkeys
};

}  // namespace keygraphs::crypto
