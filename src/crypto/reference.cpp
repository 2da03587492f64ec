#include "crypto/reference.h"

#include "common/error.h"
#include "crypto/aes_tables.h"
#include "crypto/des_tables.h"

namespace keygraphs::crypto {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = aes_tables().sbox;
  return static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24 |
         static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16 |
         static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8 |
         static_cast<std::uint32_t>(s[w & 0xff]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

using State = std::array<std::uint8_t, 16>;  // column-major, as in FIPS 197

void add_round_key(State& st, const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    const std::uint32_t w = rk[c];
    st[static_cast<std::size_t>(4 * c + 0)] ^=
        static_cast<std::uint8_t>(w >> 24);
    st[static_cast<std::size_t>(4 * c + 1)] ^=
        static_cast<std::uint8_t>(w >> 16);
    st[static_cast<std::size_t>(4 * c + 2)] ^= static_cast<std::uint8_t>(w >> 8);
    st[static_cast<std::size_t>(4 * c + 3)] ^= static_cast<std::uint8_t>(w);
  }
}

void sub_bytes(State& st, bool inverse) {
  const auto& table = inverse ? aes_tables().inv_sbox : aes_tables().sbox;
  for (auto& b : st) b = table[b];
}

void shift_rows(State& st, bool inverse) {
  State out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int src_col = inverse ? (c - r + 4) % 4 : (c + r) % 4;
      out[static_cast<std::size_t>(4 * c + r)] =
          st[static_cast<std::size_t>(4 * src_col + r)];
    }
  }
  st = out;
}

void mix_columns(State& st, bool inverse) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &st[static_cast<std::size_t>(4 * c)];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    if (!inverse) {
      col[0] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
      col[1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
      col[2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
      col[3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
    } else {
      col[0] = gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9);
      col[1] = gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13);
      col[2] = gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11);
      col[3] = gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14);
    }
  }
}

std::uint32_t reference_feistel(std::uint32_t half, std::uint64_t subkey) {
  const std::uint64_t expanded =
      des_permute(static_cast<std::uint64_t>(half), kDesExpansion, 48, 32) ^
      subkey;
  std::uint32_t sbox_out = 0;
  for (int box = 0; box < 8; ++box) {
    const auto six =
        static_cast<std::uint8_t>((expanded >> (42 - 6 * box)) & 0x3f);
    const int row = ((six & 0x20) >> 4) | (six & 0x01);
    const int col = (six >> 1) & 0x0f;
    sbox_out = (sbox_out << 4) | kDesSBox[box][row * 16 + col];
  }
  return static_cast<std::uint32_t>(des_permute(
      static_cast<std::uint64_t>(sbox_out), kDesPermutationP, 32, 32));
}

}  // namespace

ReferenceAes128::ReferenceAes128(BytesView key) {
  if (key.size() != kKeySize) {
    throw CryptoError("AES-128: key must be 16 bytes");
  }
  for (int i = 0; i < 4; ++i) {
    round_keys_[static_cast<std::size_t>(i)] = load_be32(key.data() + 4 * i);
  }
  std::uint8_t rcon = 0x01;
  for (std::size_t i = 4; i < round_keys_.size(); ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp)) ^
             (static_cast<std::uint32_t>(rcon) << 24);
      rcon = gf_mul(rcon, 2);
    }
    round_keys_[i] = round_keys_[i - 4] ^ temp;
  }
}

ReferenceAes128::~ReferenceAes128() { secure_wipe(round_keys_); }

void ReferenceAes128::encrypt_block(const std::uint8_t* in,
                                    std::uint8_t* out) const {
  State st;
  for (int i = 0; i < 16; ++i) st[static_cast<std::size_t>(i)] = in[i];
  add_round_key(st, &round_keys_[0]);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes(st, false);
    shift_rows(st, false);
    mix_columns(st, false);
    add_round_key(st, &round_keys_[static_cast<std::size_t>(4 * round)]);
  }
  sub_bytes(st, false);
  shift_rows(st, false);
  add_round_key(st, &round_keys_[4 * kRounds]);
  for (int i = 0; i < 16; ++i) out[i] = st[static_cast<std::size_t>(i)];
}

void ReferenceAes128::decrypt_block(const std::uint8_t* in,
                                    std::uint8_t* out) const {
  State st;
  for (int i = 0; i < 16; ++i) st[static_cast<std::size_t>(i)] = in[i];
  add_round_key(st, &round_keys_[4 * kRounds]);
  for (int round = kRounds - 1; round >= 1; --round) {
    shift_rows(st, true);
    sub_bytes(st, true);
    add_round_key(st, &round_keys_[static_cast<std::size_t>(4 * round)]);
    mix_columns(st, true);
  }
  shift_rows(st, true);
  sub_bytes(st, true);
  add_round_key(st, &round_keys_[0]);
  for (int i = 0; i < 16; ++i) out[i] = st[static_cast<std::size_t>(i)];
}

ReferenceDes::ReferenceDes(BytesView key)
    : round_keys_(des_key_schedule(key)) {}

ReferenceDes::~ReferenceDes() { secure_wipe(round_keys_); }

void ReferenceDes::crypt_block(const std::uint8_t* in, std::uint8_t* out,
                               bool decrypt) const {
  const std::uint64_t block =
      des_permute(load_be64(in), kDesInitialPermutation, 64, 64);
  auto left = static_cast<std::uint32_t>(block >> 32);
  auto right = static_cast<std::uint32_t>(block);
  for (int round = 0; round < 16; ++round) {
    const std::size_t k =
        static_cast<std::size_t>(decrypt ? 15 - round : round);
    const std::uint32_t next = left ^ reference_feistel(right, round_keys_[k]);
    left = right;
    right = next;
  }
  // Final swap: pre-output is R16 || L16.
  const std::uint64_t preout =
      (static_cast<std::uint64_t>(right) << 32) | left;
  store_be64(des_permute(preout, kDesFinalPermutation, 64, 64), out);
}

void ReferenceDes::encrypt_block(const std::uint8_t* in,
                                 std::uint8_t* out) const {
  crypt_block(in, out, /*decrypt=*/false);
}

void ReferenceDes::decrypt_block(const std::uint8_t* in,
                                 std::uint8_t* out) const {
  crypt_block(in, out, /*decrypt=*/true);
}

}  // namespace keygraphs::crypto
