// Abstract block-cipher interface.
//
// The paper's prototype encrypts keys with DES-CBC from CryptoLib; we provide
// DES (for fidelity) and AES-128 (as the modern ablation) behind one
// interface so the rekeying layer and the benchmarks can swap ciphers from a
// configuration string, exactly like the paper's server specification file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"

namespace keygraphs::crypto {

/// Kernel identity, for dispatch *below* the virtual-call granularity:
/// CbcCipher::encrypt_many_into interleaves the independent streams of a
/// batch when every stream's cipher shares a fused multi-block kernel
/// (AES-NI rounds pipeline across 4-8 messages), and falls back to
/// sequential encrypt_block calls otherwise. Purely a performance hint —
/// output bytes are identical on every kernel.
enum class BlockKernel : std::uint8_t {
  kGeneric = 0,  ///< one virtual encrypt_block call per block
  kAesNi = 1,    ///< crypto/aes_aesni.h hardware kernel
};

/// A raw block cipher: fixed block and key size, one-block ECB primitives.
/// Implementations are immutable after construction (key schedule is built
/// in the constructor), so a const instance is safe to share across threads.
/// Their destructors wipe the schedule: AES round key 0 is the key itself,
/// and DES's 16 subkeys together carry all 56 key bits.
class BlockCipher {
 public:
  virtual ~BlockCipher() = default;

  /// Which fused kernel (if any) this instance can take part in.
  [[nodiscard]] virtual BlockKernel kernel() const noexcept {
    return BlockKernel::kGeneric;
  }

  /// Block size in bytes (8 for DES, 16 for AES-128).
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;

  /// Key size in bytes (8 for DES, 16 for AES-128).
  [[nodiscard]] virtual std::size_t key_size() const noexcept = 0;

  /// Human-readable algorithm name ("DES", "AES-128").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Encrypt exactly one block. `in` and `out` may alias.
  virtual void encrypt_block(const std::uint8_t* in,
                             std::uint8_t* out) const = 0;

  /// Decrypt exactly one block. `in` and `out` may alias.
  virtual void decrypt_block(const std::uint8_t* in,
                             std::uint8_t* out) const = 0;
};

/// Identifies a cipher in configuration and on the wire.
enum class CipherAlgorithm : std::uint8_t {
  kDes = 1,
  kAes128 = 2,
  kDes3 = 3,
};

/// Factory: construct a keyed cipher. Throws CryptoError on bad key size.
std::unique_ptr<BlockCipher> make_cipher(CipherAlgorithm algorithm,
                                         BytesView key);

/// Key size in bytes required by `algorithm`.
std::size_t cipher_key_size(CipherAlgorithm algorithm);

/// Block (and IV) size in bytes of `algorithm`, without keying a cipher.
std::size_t cipher_block_size(CipherAlgorithm algorithm);

/// Name for logs and bench tables.
std::string cipher_name(CipherAlgorithm algorithm);

}  // namespace keygraphs::crypto
