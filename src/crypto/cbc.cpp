#include "crypto/cbc.h"

#include <cstring>

#include "common/error.h"
#include "crypto/aes_aesni.h"
#include "crypto/random.h"

namespace keygraphs::crypto {

CbcCipher::CbcCipher(std::unique_ptr<const BlockCipher> cipher)
    : cipher_(std::move(cipher)) {
  if (!cipher_) throw CryptoError("CbcCipher: null cipher");
}

Bytes CbcCipher::encrypt(BytesView plaintext, SecureRandom& rng) const {
  return encrypt_with_iv(plaintext, rng.bytes(cipher_->block_size()));
}

Bytes CbcCipher::encrypt_with_iv(BytesView plaintext, BytesView iv) const {
  Bytes out(ciphertext_size(plaintext.size()));
  encrypt_into(plaintext, iv, out.data());
  return out;
}

void CbcCipher::encrypt_into(BytesView plaintext, BytesView iv,
                             std::uint8_t* out) const {
  const std::size_t block = cipher_->block_size();
  if (iv.size() != block) throw CryptoError("CBC: IV must be one block");

  std::memcpy(out, iv.data(), block);
  const std::uint8_t* chain = out;  // previous ciphertext block (or IV)
  std::uint8_t* dst = out + block;

  // Whole plaintext blocks, XOR-chained straight into the output.
  const std::size_t whole = plaintext.size() / block;
  for (std::size_t b = 0; b < whole; ++b) {
    const std::uint8_t* src = plaintext.data() + b * block;
    for (std::size_t i = 0; i < block; ++i) dst[i] = src[i] ^ chain[i];
    cipher_->encrypt_block(dst, dst);
    chain = dst;
    dst += block;
  }

  // Final block: remaining plaintext tail plus streamed PKCS#7 padding
  // (pad bytes of value `pad`, 1..block — a full pad block on exact
  // multiples). No padded plaintext copy is ever materialized.
  const std::size_t tail = plaintext.size() - whole * block;
  const auto pad = static_cast<std::uint8_t>(block - tail);
  for (std::size_t i = 0; i < tail; ++i) {
    dst[i] = plaintext[whole * block + i] ^ chain[i];
  }
  for (std::size_t i = tail; i < block; ++i) dst[i] = pad ^ chain[i];
  cipher_->encrypt_block(dst, dst);
}

void CbcCipher::encrypt_many_into(std::span<const StreamOp> ops) {
  std::size_t i = 0;
  while (i < ops.size()) {
    // Collect a run of consecutive AES-NI ops and hand them to the fused
    // multi-stream kernel; a batch of independent CBC messages pipelines
    // even though each one's chain is serial.
    if (ops[i].cbc->cipher().kernel() == BlockKernel::kAesNi) {
      AesNiCbcStream streams[kAesNiMaxStreams];
      std::size_t n = 0;
      while (i < ops.size() && n < kAesNiMaxStreams &&
             ops[i].cbc->cipher().kernel() == BlockKernel::kAesNi) {
        const StreamOp& op = ops[i];
        if (op.iv.size() != Aes128Ni::kBlockSize) {
          throw CryptoError("CBC: IV must be one block");
        }
        streams[n].cipher = static_cast<const Aes128Ni*>(&op.cbc->cipher());
        streams[n].plaintext = op.plaintext.data();
        streams[n].plaintext_size = op.plaintext.size();
        streams[n].iv = op.iv.data();
        streams[n].out = op.out;
        ++n;
        ++i;
      }
      aesni_cbc_encrypt_streams(streams, n);
      continue;
    }
    ops[i].cbc->encrypt_into(ops[i].plaintext, ops[i].iv, ops[i].out);
    ++i;
  }
}

Bytes CbcCipher::decrypt(BytesView iv_and_ciphertext) const {
  const std::size_t block = cipher_->block_size();
  if (iv_and_ciphertext.size() < 2 * block ||
      iv_and_ciphertext.size() % block != 0) {
    throw CryptoError("CBC: ciphertext length invalid");
  }
  Bytes plain(iv_and_ciphertext.size() - block);
  // decrypt_into has already wiped the padding tail, so shrinking the
  // vector leaves no key material past the logical end.
  plain.resize(decrypt_into(iv_and_ciphertext, plain.data()));
  return plain;
}

std::size_t CbcCipher::decrypt_into(BytesView iv_and_ciphertext,
                                    std::uint8_t* out) const {
  const std::size_t block = cipher_->block_size();
  if (iv_and_ciphertext.size() < 2 * block ||
      iv_and_ciphertext.size() % block != 0) {
    throw CryptoError("CBC: ciphertext length invalid");
  }
  const std::size_t body = iv_and_ciphertext.size() - block;
  for (std::size_t off = 0; off < body; off += block) {
    const std::uint8_t* ct = iv_and_ciphertext.data() + block + off;
    const std::uint8_t* chain = iv_and_ciphertext.data() + off;
    cipher_->decrypt_block(ct, out + off);
    for (std::size_t i = 0; i < block; ++i) {
      out[off + i] ^= chain[i];
    }
  }
  const std::uint8_t pad = out[body - 1];
  bool ok = pad != 0 && pad <= block;
  if (ok) {
    for (std::size_t i = body - pad; i < body; ++i) {
      if (out[i] != pad) ok = false;
    }
  }
  if (!ok) {
    secure_wipe(out, body);
    throw CryptoError("CBC: bad padding");
  }
  secure_wipe(out + (body - pad), pad);
  return body - pad;
}

std::size_t CbcCipher::ciphertext_size(std::size_t plaintext_size) const {
  const std::size_t block = cipher_->block_size();
  const std::size_t pad = block - plaintext_size % block;
  return block + plaintext_size + pad;
}

}  // namespace keygraphs::crypto
