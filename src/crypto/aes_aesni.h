// AES-128 on the AES-NI instruction set (one AESENC per round).
//
// The hardware counterpart of the table kernel in crypto/aes.h: the key
// schedule is expanded with AESKEYGENASSIST, encryption runs ten AESENC /
// AESENCLAST rounds on an XMM register, and decryption uses the
// equivalent-inverse-cipher round keys (AESIMC on the encryption schedule)
// with AESDEC. Output is bit-identical to the table and reference kernels
// — AES is AES — which the cross-check tests pin block-for-block.
//
// The class is always declared; on builds without the kernel (non-x86, or
// a compiler rejecting -maes) supported() is false and the constructor
// throws. Callers never pick this class directly: make_cipher dispatches
// through crypto::aesni_dispatch_enabled(), and only tests/benches
// construct it explicitly (skipping when !supported()).
//
// Beyond the one-block BlockCipher interface, this unit exports the
// multi-stream CBC kernel used by CbcCipher::encrypt_many_into: up to
// kAesNiMaxStreams *independent* CBC messages advance in lockstep, one
// block from each per step, so the 4-cycle AESENC latency of one stream is
// hidden behind the others' rounds. CBC's chain dependency makes a single
// message irreducibly serial; a batch of messages is not.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/block_cipher.h"

namespace keygraphs::crypto {

/// True when this translation unit was compiled with the AES-NI kernel
/// (independent of what the CPU supports — see CpuFeatures).
[[nodiscard]] bool aesni_kernel_compiled() noexcept;

class Aes128Ni final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  /// Kernel compiled in AND the CPU reports AES-NI + SSE2.
  [[nodiscard]] static bool supported() noexcept;

  /// Expands both schedules with AESKEYGENASSIST/AESIMC. Throws
  /// CryptoError if key size != 16 or !supported().
  explicit Aes128Ni(BytesView key);
  ~Aes128Ni() override;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return kBlockSize;
  }
  [[nodiscard]] std::size_t key_size() const noexcept override {
    return kKeySize;
  }
  [[nodiscard]] std::string name() const override { return "AES-128-ni"; }
  [[nodiscard]] BlockKernel kernel() const noexcept override {
    return BlockKernel::kAesNi;
  }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override;

  /// Raw encryption round keys, 11 x 16 bytes, 16-byte aligned — the
  /// multi-stream kernel below loads them directly.
  [[nodiscard]] const std::uint8_t* enc_round_keys() const noexcept {
    return enc_keys_.data();
  }

 private:
  alignas(16) std::array<std::uint8_t, kBlockSize*(kRounds + 1)> enc_keys_{};
  alignas(16) std::array<std::uint8_t, kBlockSize*(kRounds + 1)> dec_keys_{};
};

/// Upper bound on interleaved streams per multi-stream call: eight states
/// fit the 16 XMM registers with room for the working block, and eight
/// in-flight AESENCs cover the instruction's latency on every AES-NI core.
inline constexpr std::size_t kAesNiMaxStreams = 8;

/// One independent CBC stream of a multi-buffer batch. `out` receives
/// IV || ciphertext (same layout and streamed PKCS#7 padding as
/// CbcCipher::encrypt_into) and must not alias `plaintext` or `iv`.
struct AesNiCbcStream {
  const Aes128Ni* cipher = nullptr;
  const std::uint8_t* plaintext = nullptr;
  std::size_t plaintext_size = 0;
  const std::uint8_t* iv = nullptr;
  std::uint8_t* out = nullptr;
};

/// CBC-encrypts up to kAesNiMaxStreams independent streams with the round
/// loop interleaved across them. Byte-identical to calling encrypt_into on
/// each stream in sequence. Must only be called when supported().
void aesni_cbc_encrypt_streams(const AesNiCbcStream* streams, std::size_t n);

}  // namespace keygraphs::crypto
