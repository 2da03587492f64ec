#include "crypto/des.h"

#include <bit>

#include "crypto/des_tables.h"

namespace keygraphs::crypto {

namespace {

/// IP/FP as eight byte-indexed lookups XORed together (see des_tables.h).
std::uint64_t permute_by_bytes(
    std::uint64_t in,
    const std::array<std::array<std::uint64_t, 256>, 8>& table) {
  std::uint64_t out = 0;
  for (int b = 0; b < 8; ++b) {
    out ^= table[static_cast<std::size_t>(b)][(in >> (8 * (7 - b))) & 0xff];
  }
  return out;
}

/// The f-function on fused tables. The expansion E maps R's 6-bit groups to
/// consecutive windows of rotr(R, 1) (group i = bits 4i+1..4i+6 of it, MSB
/// first), so each S-box input is one shift + XOR with its subkey chunk, and
/// sp[] folds the S-box and P together.
std::uint32_t feistel(const DesTables& t, std::uint32_t half,
                      std::uint64_t subkey) {
  const std::uint32_t rr = std::rotr(half, 1);
  std::uint32_t out = 0;
  for (int box = 0; box < 8; ++box) {
    const std::uint32_t six =
        ((std::rotl(rr, 4 * box) >> 26) ^
         static_cast<std::uint32_t>(subkey >> (42 - 6 * box))) &
        0x3f;
    out ^= t.sp[static_cast<std::size_t>(box)][six];
  }
  return out;
}

}  // namespace

Des::Des(BytesView key) : round_keys_(des_key_schedule(key)) {}

Des::~Des() { secure_wipe(round_keys_); }

void Des::crypt_block(const std::uint8_t* in, std::uint8_t* out,
                      bool decrypt) const {
  const DesTables& t = des_tables();
  const std::uint64_t block = permute_by_bytes(load_be64(in), t.ip);
  auto left = static_cast<std::uint32_t>(block >> 32);
  auto right = static_cast<std::uint32_t>(block);
  for (int round = 0; round < 16; ++round) {
    const std::size_t k =
        static_cast<std::size_t>(decrypt ? 15 - round : round);
    const std::uint32_t next = left ^ feistel(t, right, round_keys_[k]);
    left = right;
    right = next;
  }
  // Final swap: pre-output is R16 || L16.
  const std::uint64_t preout =
      (static_cast<std::uint64_t>(right) << 32) | left;
  store_be64(permute_by_bytes(preout, t.fp), out);
}

void Des::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  crypt_block(in, out, /*decrypt=*/false);
}

void Des::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  crypt_block(in, out, /*decrypt=*/true);
}

}  // namespace keygraphs::crypto
