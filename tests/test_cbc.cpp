// CBC mode with PKCS#7 padding: round trips across sizes and ciphers,
// deterministic-IV known answers, and padding/tamper rejection.
#include "crypto/cbc.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/random.h"

namespace keygraphs::crypto {
namespace {

CbcCipher des_cbc() {
  return CbcCipher(std::make_unique<Des>(from_hex("133457799bbcdff1")));
}

CbcCipher aes_cbc() {
  return CbcCipher(
      std::make_unique<Aes128>(from_hex("000102030405060708090a0b0c0d0e0f")));
}

TEST(Cbc, RoundTripBasic) {
  SecureRandom rng(1);
  const CbcCipher cbc = des_cbc();
  const Bytes pt = bytes_of("attack at dawn");
  EXPECT_EQ(cbc.decrypt(cbc.encrypt(pt, rng)), pt);
}

TEST(Cbc, OutputStartsWithIvAndIsBlockAligned) {
  SecureRandom rng(2);
  const CbcCipher cbc = des_cbc();
  const Bytes ct = cbc.encrypt(bytes_of("xyz"), rng);
  EXPECT_EQ(ct.size() % 8, 0u);
  EXPECT_GE(ct.size(), 16u);  // IV + at least one block
}

TEST(Cbc, CiphertextSizePredicted) {
  SecureRandom rng(3);
  const CbcCipher cbc = aes_cbc();
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    EXPECT_EQ(cbc.encrypt(Bytes(n, 0x42), rng).size(), cbc.ciphertext_size(n))
        << "plaintext size " << n;
  }
}

TEST(Cbc, ExactMultipleGetsFullPaddingBlock) {
  SecureRandom rng(4);
  const CbcCipher cbc = des_cbc();
  // 8-byte plaintext => IV + 2 blocks (PKCS#7 always pads).
  EXPECT_EQ(cbc.encrypt(Bytes(8, 0xaa), rng).size(), 24u);
}

TEST(Cbc, DeterministicIvKnownStructure) {
  // Same plaintext+IV => same ciphertext; different IV => different.
  const CbcCipher cbc = des_cbc();
  const Bytes pt = bytes_of("fixed payload!");
  const Bytes iv1 = from_hex("0000000000000000");
  const Bytes iv2 = from_hex("0000000000000001");
  EXPECT_EQ(cbc.encrypt_with_iv(pt, iv1), cbc.encrypt_with_iv(pt, iv1));
  EXPECT_NE(cbc.encrypt_with_iv(pt, iv1), cbc.encrypt_with_iv(pt, iv2));
}

TEST(Cbc, Sp80038aAesKnownAnswer) {
  // NIST SP 800-38A F.2.1 (AES-128-CBC), first block.
  const CbcCipher cbc(std::make_unique<Aes128>(
      from_hex("2b7e151628aed2a6abf7158809cf4f3c")));
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Bytes ct = cbc.encrypt_with_iv(pt, iv);
  // Layout: IV || block1 || padding block. Check block 1 against NIST.
  ASSERT_GE(ct.size(), 32u);
  EXPECT_EQ(to_hex(Bytes(ct.begin() + 16, ct.begin() + 32)),
            "7649abac8119b246cee98e9b12e9197d");
}

TEST(Cbc, RandomIvMakesEncryptionNondeterministic) {
  SecureRandom rng(5);
  const CbcCipher cbc = des_cbc();
  const Bytes pt = bytes_of("same plaintext");
  EXPECT_NE(cbc.encrypt(pt, rng), cbc.encrypt(pt, rng));
}

TEST(Cbc, RejectsBadIvSize) {
  const CbcCipher cbc = des_cbc();
  EXPECT_THROW(cbc.encrypt_with_iv(bytes_of("x"), Bytes(7, 0)), CryptoError);
  EXPECT_THROW(cbc.encrypt_with_iv(bytes_of("x"), Bytes(16, 0)), CryptoError);
}

TEST(Cbc, RejectsTruncatedCiphertext) {
  SecureRandom rng(6);
  const CbcCipher cbc = des_cbc();
  Bytes ct = cbc.encrypt(bytes_of("hello"), rng);
  ct.resize(ct.size() - 1);
  EXPECT_THROW(cbc.decrypt(ct), CryptoError);
  EXPECT_THROW(cbc.decrypt(Bytes(8, 0)), CryptoError);  // IV only, no body
  EXPECT_THROW(cbc.decrypt(Bytes{}), CryptoError);
}

TEST(Cbc, TamperedLastBlockFailsPaddingWithHighProbability) {
  SecureRandom rng(7);
  const CbcCipher cbc = aes_cbc();
  const Bytes pt = bytes_of("some secret value");
  int rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    Bytes ct = cbc.encrypt(pt, rng);
    ct[ct.size() - 1 - static_cast<std::size_t>(rng.uniform(16))] ^= 0x01;
    try {
      const Bytes out = cbc.decrypt(ct);
      EXPECT_NE(out, pt);  // silently wrong is possible but must differ
    } catch (const CryptoError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 32);  // most single-bit tampers break the padding
}

TEST(Cbc, NullCipherRejected) {
  EXPECT_THROW(CbcCipher(nullptr), CryptoError);
}

class CbcSizes
    : public ::testing::TestWithParam<std::tuple<CipherAlgorithm, int>> {};

TEST_P(CbcSizes, RoundTrips) {
  const auto [algorithm, size] = GetParam();
  SecureRandom rng(static_cast<std::uint64_t>(size) + 100);
  const CbcCipher cbc(
      make_cipher(algorithm, rng.bytes(cipher_key_size(algorithm))));
  const Bytes pt = rng.bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(cbc.decrypt(cbc.encrypt(pt, rng)), pt);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCiphers, CbcSizes,
    ::testing::Combine(::testing::Values(CipherAlgorithm::kDes,
                                         CipherAlgorithm::kAes128),
                       ::testing::Values(0, 1, 7, 8, 9, 15, 16, 17, 24, 63,
                                         64, 65, 1000)));

}  // namespace
}  // namespace keygraphs::crypto
