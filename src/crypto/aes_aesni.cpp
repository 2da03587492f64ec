#include "crypto/aes_aesni.h"

#include <cstring>

#include "common/error.h"
#include "crypto/cpu_features.h"

// KG_AESNI_BUILD is defined (by src/CMakeLists.txt) only when the target is
// x86 and the compiler accepted -maes: this file is the single translation
// unit carrying AES-NI instructions, and nothing here executes unless the
// runtime CPUID probe confirmed the CPU has them.
#if defined(KG_AESNI_BUILD)
#include <wmmintrin.h>  // AESENC/AESDEC/AESKEYGENASSIST/AESIMC
#endif

namespace keygraphs::crypto {

bool aesni_kernel_compiled() noexcept {
#if defined(KG_AESNI_BUILD)
  return true;
#else
  return false;
#endif
}

Aes128Ni::~Aes128Ni() {
  secure_wipe(enc_keys_);
  secure_wipe(dec_keys_);
}

bool Aes128Ni::supported() noexcept {
  return cpu_features().aesni_usable();
}

#if defined(KG_AESNI_BUILD)

namespace {

/// The FIPS 197 key-expansion step in SSE form: AESKEYGENASSIST computed
/// RotWord+SubWord+rcon into the high dword of `assist`; broadcasting it
/// and folding in the three shifted copies of the previous round key yields
/// the next four schedule words at once.
inline __m128i expand_step(__m128i key, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

/// Ten AES rounds for M interleaved independent states, each with its own
/// schedule. M is a compile-time constant so the loops fully unroll and
/// the states stay in XMM registers; with 4-8 states in flight the AESENC
/// latency of each is hidden behind the others' issue slots.
template <int M>
inline void encrypt_rounds(__m128i* x, const __m128i* const* rk) {
  for (int j = 0; j < M; ++j) {
    x[j] = _mm_xor_si128(x[j], _mm_load_si128(rk[j]));
  }
  for (int round = 1; round < Aes128Ni::kRounds; ++round) {
    for (int j = 0; j < M; ++j) {
      x[j] = _mm_aesenc_si128(x[j], _mm_load_si128(rk[j] + round));
    }
  }
  for (int j = 0; j < M; ++j) {
    x[j] = _mm_aesenclast_si128(x[j], _mm_load_si128(rk[j] + Aes128Ni::kRounds));
  }
}

}  // namespace

Aes128Ni::Aes128Ni(BytesView key) {
  if (key.size() != kKeySize) {
    throw CryptoError("AES-128-ni: key must be 16 bytes");
  }
  if (!supported()) {
    throw CryptoError("AES-128-ni: CPU does not support AES-NI");
  }
  auto* enc = reinterpret_cast<__m128i*>(enc_keys_.data());
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  _mm_store_si128(enc, k);
  // AESKEYGENASSIST takes its round constant as an immediate, hence the
  // unrolled ladder (rcon doubles in GF(2^8): 0x1b, 0x36 past 0x80).
#define KG_AES_EXPAND(index, rcon)                              \
  k = expand_step(k, _mm_aeskeygenassist_si128(k, (rcon)));     \
  _mm_store_si128(enc + (index), k)
  KG_AES_EXPAND(1, 0x01);
  KG_AES_EXPAND(2, 0x02);
  KG_AES_EXPAND(3, 0x04);
  KG_AES_EXPAND(4, 0x08);
  KG_AES_EXPAND(5, 0x10);
  KG_AES_EXPAND(6, 0x20);
  KG_AES_EXPAND(7, 0x40);
  KG_AES_EXPAND(8, 0x80);
  KG_AES_EXPAND(9, 0x1b);
  KG_AES_EXPAND(10, 0x36);
#undef KG_AES_EXPAND

  // Equivalent-inverse-cipher schedule (FIPS 197 Section 5.3.5): the
  // encryption keys reversed, inner rounds through InvMixColumns (AESIMC),
  // exactly as the table kernel derives its dec_round_keys_.
  auto* dec = reinterpret_cast<__m128i*>(dec_keys_.data());
  _mm_store_si128(dec, _mm_load_si128(enc + kRounds));
  for (int round = 1; round < kRounds; ++round) {
    _mm_store_si128(dec + round,
                    _mm_aesimc_si128(_mm_load_si128(enc + kRounds - round)));
  }
  _mm_store_si128(dec + kRounds, _mm_load_si128(enc));
}

void Aes128Ni::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  const auto* rk = reinterpret_cast<const __m128i*>(enc_keys_.data());
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, _mm_load_si128(rk));
  for (int round = 1; round < kRounds; ++round) {
    s = _mm_aesenc_si128(s, _mm_load_si128(rk + round));
  }
  s = _mm_aesenclast_si128(s, _mm_load_si128(rk + kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

void Aes128Ni::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  const auto* rk = reinterpret_cast<const __m128i*>(dec_keys_.data());
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, _mm_load_si128(rk));
  for (int round = 1; round < kRounds; ++round) {
    s = _mm_aesdec_si128(s, _mm_load_si128(rk + round));
  }
  s = _mm_aesdeclast_si128(s, _mm_load_si128(rk + kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

void aesni_cbc_encrypt_streams(const AesNiCbcStream* streams, std::size_t n) {
  if (n == 0) return;
  if (n > kAesNiMaxStreams) {
    throw CryptoError("aesni_cbc_encrypt_streams: too many streams");
  }
  constexpr std::size_t kBlock = Aes128Ni::kBlockSize;
  __m128i chain[kAesNiMaxStreams];
  const __m128i* schedule[kAesNiMaxStreams];
  std::size_t whole[kAesNiMaxStreams];
  std::size_t total[kAesNiMaxStreams];
  std::size_t max_total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const AesNiCbcStream& stream = streams[s];
    whole[s] = stream.plaintext_size / kBlock;
    total[s] = whole[s] + 1;  // streamed PKCS#7 always adds a final block
    max_total = total[s] > max_total ? total[s] : max_total;
    std::memcpy(stream.out, stream.iv, kBlock);
    chain[s] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(stream.iv));
    schedule[s] =
        reinterpret_cast<const __m128i*>(stream.cipher->enc_round_keys());
  }
  // Lockstep over block positions: streams past their end drop out, the
  // rest keep interleaving. Per step, each live stream contributes its
  // next chained input block; one fused round ladder advances them all.
  for (std::size_t b = 0; b < max_total; ++b) {
    __m128i x[kAesNiMaxStreams];
    const __m128i* rk[kAesNiMaxStreams];
    std::size_t idx[kAesNiMaxStreams];
    int live = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (b >= total[s]) continue;
      __m128i input;
      if (b < whole[s]) {
        input = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            streams[s].plaintext + b * kBlock));
      } else {
        // Final block: plaintext tail + streamed PKCS#7 pad bytes, exactly
        // like CbcCipher::encrypt_into (a full pad block on exact
        // multiples). Composed in a stack temp, never in the output.
        alignas(16) std::uint8_t padded[kBlock];
        const std::size_t tail = streams[s].plaintext_size - whole[s] * kBlock;
        if (tail > 0) {  // an empty plaintext may come with a null pointer
          std::memcpy(padded, streams[s].plaintext + whole[s] * kBlock, tail);
        }
        std::memset(padded + tail, static_cast<int>(kBlock - tail),
                    kBlock - tail);
        input = _mm_load_si128(reinterpret_cast<const __m128i*>(padded));
      }
      x[live] = _mm_xor_si128(input, chain[s]);
      rk[live] = schedule[s];
      idx[live] = s;
      ++live;
    }
    switch (live) {
      case 1: encrypt_rounds<1>(x, rk); break;
      case 2: encrypt_rounds<2>(x, rk); break;
      case 3: encrypt_rounds<3>(x, rk); break;
      case 4: encrypt_rounds<4>(x, rk); break;
      case 5: encrypt_rounds<5>(x, rk); break;
      case 6: encrypt_rounds<6>(x, rk); break;
      case 7: encrypt_rounds<7>(x, rk); break;
      case 8: encrypt_rounds<8>(x, rk); break;
      default: break;
    }
    for (int j = 0; j < live; ++j) {
      const std::size_t s = idx[j];
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(streams[s].out + (b + 1) * kBlock), x[j]);
      chain[s] = x[j];
    }
  }
}

#else  // !KG_AESNI_BUILD — declaration-only stubs so the dispatch layer
       // links on every target; supported() is false, so none of these can
       // be reached through make_cipher.

Aes128Ni::Aes128Ni(BytesView key) {
  (void)key;
  throw CryptoError("AES-128-ni: kernel not compiled into this binary");
}

void Aes128Ni::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  (void)in;
  (void)out;
  throw CryptoError("AES-128-ni: kernel not compiled into this binary");
}

void Aes128Ni::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  (void)in;
  (void)out;
  throw CryptoError("AES-128-ni: kernel not compiled into this binary");
}

void aesni_cbc_encrypt_streams(const AesNiCbcStream* streams, std::size_t n) {
  (void)streams;
  (void)n;
  throw CryptoError("AES-128-ni: kernel not compiled into this binary");
}

#endif  // KG_AESNI_BUILD

}  // namespace keygraphs::crypto
