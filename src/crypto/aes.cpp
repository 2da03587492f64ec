#include "crypto/aes.h"

#include "common/error.h"
#include "crypto/aes_tables.h"

namespace keygraphs::crypto {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint32_t w, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = aes_tables().sbox;
  return static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24 |
         static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16 |
         static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8 |
         static_cast<std::uint32_t>(s[w & 0xff]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

/// InvMixColumns of a round-key word: Td applied on top of the forward
/// S-box cancels the substitution and leaves the column transform.
std::uint32_t inv_mix_word(const AesTables& t, std::uint32_t w) {
  return t.td[0][t.sbox[(w >> 24) & 0xff]] ^
         t.td[1][t.sbox[(w >> 16) & 0xff]] ^
         t.td[2][t.sbox[(w >> 8) & 0xff]] ^ t.td[3][t.sbox[w & 0xff]];
}

}  // namespace

Aes128::Aes128(BytesView key) {
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

  const AesTables& t = aes_tables();
  for (int c = 0; c < 4; ++c) {
    dec_round_keys_[static_cast<std::size_t>(c)] =
        round_keys_[static_cast<std::size_t>(4 * kRounds + c)];
    dec_round_keys_[static_cast<std::size_t>(4 * kRounds + c)] =
        round_keys_[static_cast<std::size_t>(c)];
  }
  for (int round = 1; round < kRounds; ++round) {
    for (int c = 0; c < 4; ++c) {
      dec_round_keys_[static_cast<std::size_t>(4 * round + c)] = inv_mix_word(
          t, round_keys_[static_cast<std::size_t>(4 * (kRounds - round) + c)]);
    }
  }
}

Aes128::~Aes128() {
  secure_wipe(round_keys_);
  secure_wipe(dec_round_keys_);
}

void Aes128::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  const AesTables& t = aes_tables();
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    const std::uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                             t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                             rk[0];
    const std::uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                             t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                             rk[1];
    const std::uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                             t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                             rk[2];
    const std::uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                             t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                             rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // Final round: SubBytes + ShiftRows only (raw S-box bytes, no MixColumns).
  rk += 4;
  const auto& sb = t.sbox;
  const std::uint32_t o0 =
      (static_cast<std::uint32_t>(sb[s0 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s1 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s2 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s3 & 0xff])) ^
      rk[0];
  const std::uint32_t o1 =
      (static_cast<std::uint32_t>(sb[s1 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s2 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s3 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s0 & 0xff])) ^
      rk[1];
  const std::uint32_t o2 =
      (static_cast<std::uint32_t>(sb[s2 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s3 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s0 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s1 & 0xff])) ^
      rk[2];
  const std::uint32_t o3 =
      (static_cast<std::uint32_t>(sb[s3 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s0 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s1 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s2 & 0xff])) ^
      rk[3];
  store_be32(o0, out);
  store_be32(o1, out + 4);
  store_be32(o2, out + 8);
  store_be32(o3, out + 12);
}

void Aes128::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  const AesTables& t = aes_tables();
  const std::uint32_t* rk = dec_round_keys_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    // InvShiftRows walks the columns backwards.
    const std::uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                             t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^
                             rk[0];
    const std::uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                             t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^
                             rk[1];
    const std::uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                             t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^
                             rk[2];
    const std::uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                             t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^
                             rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  const auto& sb = t.inv_sbox;
  const std::uint32_t o0 =
      (static_cast<std::uint32_t>(sb[s0 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s3 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s2 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s1 & 0xff])) ^
      rk[0];
  const std::uint32_t o1 =
      (static_cast<std::uint32_t>(sb[s1 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s0 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s3 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s2 & 0xff])) ^
      rk[1];
  const std::uint32_t o2 =
      (static_cast<std::uint32_t>(sb[s2 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s1 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s0 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s3 & 0xff])) ^
      rk[2];
  const std::uint32_t o3 =
      (static_cast<std::uint32_t>(sb[s3 >> 24]) << 24 |
       static_cast<std::uint32_t>(sb[(s2 >> 16) & 0xff]) << 16 |
       static_cast<std::uint32_t>(sb[(s1 >> 8) & 0xff]) << 8 |
       static_cast<std::uint32_t>(sb[s0 & 0xff])) ^
      rk[3];
  store_be32(o0, out);
  store_be32(o1, out + 4);
  store_be32(o2, out + 8);
  store_be32(o3, out + 12);
}

}  // namespace keygraphs::crypto
