// RSA signatures: keygen structure, PKCS#1 v1.5 encoding, sign/verify,
// tamper rejection, cross-key rejection, and public-key serialization.
#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace keygraphs::crypto {
namespace {

const RsaPrivateKey& test_key_512() {
  static SecureRandom rng(42);
  static const RsaPrivateKey key = RsaPrivateKey::generate(rng, 512);
  return key;
}

TEST(Pkcs1Encode, StructureForMd5) {
  const Bytes digest(16, 0xaa);
  const Bytes encoded = pkcs1_v15_encode(DigestAlgorithm::kMd5, digest, 64);
  EXPECT_EQ(encoded.size(), 64u);
  EXPECT_EQ(encoded[0], 0x00);
  EXPECT_EQ(encoded[1], 0x01);
  // Padding bytes are 0xff until the 0x00 separator.
  std::size_t i = 2;
  while (encoded[i] == 0xff) ++i;
  EXPECT_GE(i - 2, 8u);  // at least 8 bytes of 0xff (RFC 8017)
  EXPECT_EQ(encoded[i], 0x00);
  // Tail is DigestInfo || digest; digest occupies the last 16 bytes.
  EXPECT_EQ(Bytes(encoded.end() - 16, encoded.end()), digest);
}

TEST(Pkcs1Encode, RejectsTooSmallModulus) {
  const Bytes digest(32, 0);
  EXPECT_THROW(pkcs1_v15_encode(DigestAlgorithm::kSha256, digest, 48),
               CryptoError);
}

TEST(Pkcs1Encode, RejectsWrongDigestLength) {
  EXPECT_THROW(pkcs1_v15_encode(DigestAlgorithm::kMd5, Bytes(20, 0), 64),
               CryptoError);
}

TEST(Rsa, GenerateRejectsBadParameters) {
  SecureRandom rng(1);
  EXPECT_THROW(RsaPrivateKey::generate(rng, 500), CryptoError);  // not even
  EXPECT_THROW(RsaPrivateKey::generate(rng, 256), CryptoError);  // too small
}

TEST(Rsa, ModulusHasExactWidth) {
  const RsaPrivateKey& key = test_key_512();
  EXPECT_EQ(key.public_key().modulus().bit_length(), 512u);
  EXPECT_EQ(key.signature_size(), 64u);
}

TEST(Rsa, SignVerifyRoundTrip) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes message = bytes_of("rekey message body");
  const Bytes signature = key.sign(DigestAlgorithm::kMd5, message);
  EXPECT_EQ(signature.size(), 64u);
  EXPECT_TRUE(
      key.public_key().verify(DigestAlgorithm::kMd5, message, signature));
}

TEST(Rsa, VerifyRejectsTamperedMessage) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes signature =
      key.sign(DigestAlgorithm::kMd5, bytes_of("original"));
  EXPECT_FALSE(key.public_key().verify(DigestAlgorithm::kMd5,
                                       bytes_of("originaL"), signature));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes message = bytes_of("message");
  Bytes signature = key.sign(DigestAlgorithm::kMd5, message);
  for (std::size_t i = 0; i < signature.size(); i += 7) {
    Bytes bad = signature;
    bad[i] ^= 0x40;
    EXPECT_FALSE(
        key.public_key().verify(DigestAlgorithm::kMd5, message, bad));
  }
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes message = bytes_of("message");
  Bytes signature = key.sign(DigestAlgorithm::kMd5, message);
  signature.pop_back();
  EXPECT_FALSE(
      key.public_key().verify(DigestAlgorithm::kMd5, message, signature));
  EXPECT_FALSE(
      key.public_key().verify(DigestAlgorithm::kMd5, message, Bytes{}));
}

TEST(Rsa, VerifyRejectsDigestAlgorithmConfusion) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes message = bytes_of("message");
  const Bytes signature = key.sign(DigestAlgorithm::kMd5, message);
  EXPECT_FALSE(
      key.public_key().verify(DigestAlgorithm::kSha1, message, signature));
}

TEST(Rsa, VerifyRejectsOtherKeysSignature) {
  SecureRandom rng(7);
  const RsaPrivateKey other = RsaPrivateKey::generate(rng, 512);
  const Bytes message = bytes_of("message");
  const Bytes signature = other.sign(DigestAlgorithm::kMd5, message);
  EXPECT_FALSE(test_key_512().public_key().verify(DigestAlgorithm::kMd5,
                                                  message, signature));
}

TEST(Rsa, SignDigestMatchesSignMessage) {
  const RsaPrivateKey& key = test_key_512();
  const Bytes message = bytes_of("two paths, one signature");
  const Bytes digest = digest_of(DigestAlgorithm::kSha256, message);
  EXPECT_EQ(key.sign(DigestAlgorithm::kSha256, message),
            key.sign_digest(DigestAlgorithm::kSha256, digest));
}

TEST(Rsa, PublicKeySerializationRoundTrip) {
  const RsaPublicKey& original = test_key_512().public_key();
  const RsaPublicKey parsed = RsaPublicKey::deserialize(original.serialize());
  EXPECT_EQ(parsed.modulus(), original.modulus());
  EXPECT_EQ(parsed.exponent(), original.exponent());

  const Bytes message = bytes_of("still verifies after round trip");
  const Bytes signature = test_key_512().sign(DigestAlgorithm::kMd5, message);
  EXPECT_TRUE(parsed.verify(DigestAlgorithm::kMd5, message, signature));
}

TEST(Rsa, DeserializeRejectsJunk) {
  EXPECT_THROW(RsaPublicKey::deserialize(bytes_of("nonsense")), Error);
}

class RsaSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaSizes, SignVerifyAcrossModulusSizes) {
  SecureRandom rng(GetParam());
  const RsaPrivateKey key = RsaPrivateKey::generate(rng, GetParam());
  const Bytes message = bytes_of("sized");
  for (auto algorithm : {DigestAlgorithm::kMd5, DigestAlgorithm::kSha1,
                         DigestAlgorithm::kSha256}) {
    const Bytes signature = key.sign(algorithm, message);
    EXPECT_EQ(signature.size(), GetParam() / 8);
    EXPECT_TRUE(key.public_key().verify(algorithm, message, signature));
    EXPECT_FALSE(
        key.public_key().verify(algorithm, bytes_of("other"), signature));
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusBits, RsaSizes,
                         ::testing::Values(512, 768, 1024));

TEST(Rsa, KeysAndSignaturesMatchRecordedDigest) {
  // SHA-256 over fixed-seed keys' public halves and signatures at four
  // modulus sizes, recorded with the 32-bit bit-serial Montgomery kernel.
  // Key generation (prime search, Miller-Rabin) and PKCS#1 v1.5 signing
  // are deterministic, so an exponentiation kernel that differs in one
  // output bit anywhere changes this digest.
  Sha256 digest;
  for (const std::size_t bits : {512u, 768u, 1024u, 2048u}) {
    SecureRandom rng(1998 + bits);
    const RsaPrivateKey key = RsaPrivateKey::generate(rng, bits);
    digest.update(key.public_key().serialize());
    for (std::size_t i = 0; i < 6; ++i) {
      const Bytes message = rng.bytes(1 + 29 * i);
      for (auto algorithm : {DigestAlgorithm::kMd5, DigestAlgorithm::kSha1,
                             DigestAlgorithm::kSha256}) {
        const Bytes signature = key.sign(algorithm, message);
        EXPECT_TRUE(key.public_key().verify(algorithm, message, signature));
        digest.update(signature);
      }
    }
  }
  EXPECT_EQ(to_hex(digest.finish()), "23cca56b1ad3126ba6ab629829eb02ab35521a36f37943f88510c976d85160ab");
}

TEST(Rsa, PublicExponentThree) {
  SecureRandom rng(3);
  const RsaPrivateKey key = RsaPrivateKey::generate(rng, 512, 3);
  const Bytes message = bytes_of("small exponent");
  EXPECT_TRUE(key.public_key().verify(
      DigestAlgorithm::kMd5, message, key.sign(DigestAlgorithm::kMd5,
                                               message)));
}

}  // namespace
}  // namespace keygraphs::crypto
