// BigInt: arithmetic identities, Knuth division edge cases, Montgomery
// exponentiation against a reference, modular inverse, and primality.
#include "crypto/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "crypto/random.h"

namespace keygraphs::crypto {
namespace {

// Reference mod-exp via plain divmod (no Montgomery), for cross-checking.
BigInt naive_mod_exp(const BigInt& base, const BigInt& exponent,
                     const BigInt& modulus) {
  BigInt acc{1};
  const BigInt b = base % modulus;
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    acc = (acc * acc) % modulus;
    if (exponent.bit(i)) acc = (acc * b) % modulus;
  }
  return acc % modulus;
}

TEST(BigInt, ConstructionAndZero) {
  EXPECT_TRUE(BigInt{}.is_zero());
  EXPECT_TRUE(BigInt{0}.is_zero());
  EXPECT_FALSE(BigInt{1}.is_zero());
  EXPECT_EQ(BigInt{42}.to_u64(), 42u);
  EXPECT_EQ(BigInt{0xffffffffffffffffull}.to_u64(), 0xffffffffffffffffull);
}

TEST(BigInt, HexRoundTrip) {
  const std::string hex = "123456789abcdef0fedcba9876543210";
  EXPECT_EQ(BigInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigInt{}.to_hex(), "0");
  EXPECT_EQ(BigInt::from_hex("0f").to_hex(), "f");
}

TEST(BigInt, BytesRoundTripWithPadding) {
  const Bytes raw = from_hex("00000123456789ab");
  const BigInt value = BigInt::from_bytes_be(raw);
  EXPECT_EQ(to_hex(value.to_bytes_be(8)), "00000123456789ab");
  EXPECT_EQ(to_hex(value.to_bytes_be()), "0123456789ab");
}

TEST(BigInt, ComparisonOrdering) {
  EXPECT_LT(BigInt{1}, BigInt{2});
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt::from_hex("ffffffff"));
  EXPECT_EQ(BigInt{7}, BigInt{7});
  EXPECT_LT(BigInt{}, BigInt{1});
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a + BigInt{1}).to_hex(), "10000000000000000");
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  const BigInt a = BigInt::from_hex("10000000000000000");
  EXPECT_EQ((a - BigInt{1}).to_hex(), "ffffffffffffffff");
}

TEST(BigInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt{1} - BigInt{2}, Error);
}

TEST(BigInt, MultiplicationKnownProduct) {
  const BigInt a = BigInt::from_hex("ffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffe00000001");
  EXPECT_TRUE((a * BigInt{}).is_zero());
}

TEST(BigInt, ShiftsInverse) {
  const BigInt a = BigInt::from_hex("deadbeefcafebabe");
  EXPECT_EQ((a << 17) >> 17, a);
  EXPECT_EQ((a >> 200).to_hex(), "0");
  EXPECT_EQ((BigInt{1} << 100).bit_length(), 101u);
}

TEST(BigInt, BitAccess) {
  const BigInt a = BigInt::from_hex("5");  // 101
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(2));
  EXPECT_FALSE(a.bit(64));
  EXPECT_EQ(a.bit_length(), 3u);
  EXPECT_EQ(BigInt{}.bit_length(), 0u);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{}, Error);
  EXPECT_THROW(BigInt{1} % BigInt{}, Error);
}

TEST(BigInt, DivmodSingleLimbDivisor) {
  const auto [q, r] =
      BigInt::divmod(BigInt::from_hex("123456789abcdef0"), BigInt{1000});
  EXPECT_EQ(q * BigInt{1000} + r, BigInt::from_hex("123456789abcdef0"));
  EXPECT_LT(r, BigInt{1000});
}

TEST(BigInt, DivmodDividendSmallerThanDivisor) {
  const auto [q, r] = BigInt::divmod(BigInt{5}, BigInt{100});
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigInt{5});
}

TEST(BigInt, DivmodKnuthAddBackCase) {
  // Divisor with a 0xffffffff-pattern top limb stresses the qhat fix-up
  // and add-back paths of Algorithm D.
  const BigInt u = BigInt::from_hex("7fffffff800000010000000000000000");
  const BigInt v = BigInt::from_hex("800000008000000200000005");
  const auto [q, r] = BigInt::divmod(u, v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigInt, GcdKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt{48}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{17}, BigInt{13}), BigInt{1});
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}), BigInt{5});
}

TEST(BigInt, ModInverseKnownValues) {
  // 3 * 4 = 12 = 1 mod 11
  EXPECT_EQ(BigInt::mod_inverse(BigInt{3}, BigInt{11}), BigInt{4});
  EXPECT_THROW(BigInt::mod_inverse(BigInt{6}, BigInt{9}), CryptoError);
  EXPECT_THROW(BigInt::mod_inverse(BigInt{0}, BigInt{7}), CryptoError);
}

TEST(BigInt, ModExpSmallKnownValues) {
  EXPECT_EQ(BigInt::mod_exp(BigInt{2}, BigInt{10}, BigInt{1000}),
            BigInt{24});
  EXPECT_EQ(BigInt::mod_exp(BigInt{5}, BigInt{0}, BigInt{7}), BigInt{1});
  EXPECT_EQ(BigInt::mod_exp(BigInt{5}, BigInt{3}, BigInt{1}), BigInt{});
  EXPECT_THROW(BigInt::mod_exp(BigInt{5}, BigInt{3}, BigInt{}), Error);
}

TEST(BigInt, ModExpEvenModulus) {
  // Exercises the non-Montgomery path.
  EXPECT_EQ(BigInt::mod_exp(BigInt{3}, BigInt{5}, BigInt{100}), BigInt{43});
}

TEST(BigInt, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
  const BigInt p = BigInt::from_hex("fffffffb");  // 4294967291, prime
  for (std::uint64_t a : {2ull, 3ull, 65537ull}) {
    EXPECT_EQ(BigInt::mod_exp(BigInt{a}, p - BigInt{1}, p), BigInt{1});
  }
}

TEST(BigInt, MillerRabinKnownPrimesAndComposites) {
  SecureRandom rng(1);
  EXPECT_TRUE(BigInt{2}.is_probable_prime(rng));
  EXPECT_TRUE(BigInt{3}.is_probable_prime(rng));
  EXPECT_TRUE(BigInt{65537}.is_probable_prime(rng));
  EXPECT_TRUE(BigInt::from_hex("fffffffb").is_probable_prime(rng));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(((BigInt{1} << 61) - BigInt{1}).is_probable_prime(rng));

  EXPECT_FALSE(BigInt{0}.is_probable_prime(rng));
  EXPECT_FALSE(BigInt{1}.is_probable_prime(rng));
  EXPECT_FALSE(BigInt{4}.is_probable_prime(rng));
  EXPECT_FALSE(BigInt{561}.is_probable_prime(rng));   // Carmichael
  EXPECT_FALSE(BigInt{6601}.is_probable_prime(rng));  // Carmichael
  // 2^67 - 1 is famously composite (193707721 * 761838257287).
  EXPECT_FALSE(((BigInt{1} << 67) - BigInt{1}).is_probable_prime(rng));
}

TEST(BigInt, GeneratePrimeHasRequestedWidth) {
  SecureRandom rng(2);
  const BigInt p = BigInt::generate_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.is_probable_prime(rng, 20));
  EXPECT_THROW(BigInt::generate_prime(rng, 8), CryptoError);
}

TEST(BigInt, RandomBitsExactWidth) {
  SecureRandom rng(3);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 257u}) {
    EXPECT_EQ(BigInt::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigInt, RandomBelowStaysBelow) {
  SecureRandom rng(4);
  const BigInt bound = BigInt::from_hex("1000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(rng, bound), bound);
  }
  EXPECT_THROW(BigInt::random_below(rng, BigInt{}), Error);
}

TEST(Montgomery, RequiresOddModulus) {
  EXPECT_THROW(Montgomery(BigInt{10}), CryptoError);
  EXPECT_THROW(Montgomery(BigInt{1}), CryptoError);
  EXPECT_THROW(Montgomery(BigInt{}), CryptoError);
}

TEST(Montgomery, MatchesSquareAndMultiplyAcrossSizes) {
  // Odd moduli from 33 to 2048 bits, including odd 32-bit limb counts
  // (96 and 544 bits, whose top 64-bit limb is half empty), against the
  // divmod oracle, through both the context and BigInt::mod_exp.
  SecureRandom rng(2048);
  std::vector<std::size_t> sizes = {33,  63,  64,  65,   96,   127,  128,
                                    160, 255, 257, 384,  511,  512,  544,
                                    768, 1023, 1024, 1536, 2047, 2048};
  for (int i = 0; i < 6; ++i) sizes.push_back(33 + rng.uniform(2016));
  for (const std::size_t bits : sizes) {
    SCOPED_TRACE(bits);
    BigInt m = BigInt::random_bits(rng, bits);
    if (!m.is_odd()) m = m + BigInt{1};
    ASSERT_EQ(m.bit_length(), bits);
    const Montgomery mont(m);
    const std::vector<BigInt> bases = {
        BigInt{}, BigInt{1}, BigInt::random_below(rng, m), m - BigInt{1}, m,
        m + BigInt{1}, BigInt::random_bits(rng, bits + 1 + rng.uniform(96))};
    const std::vector<BigInt> exponents = {
        BigInt{}, BigInt{1}, BigInt{2}, BigInt{1} << 100,
        (BigInt{1} << 67) - BigInt{1},
        BigInt::random_bits(rng, 1 + rng.uniform(std::min<std::size_t>(
                                         bits, 512)))};
    for (const BigInt& base : bases) {
      for (const BigInt& exponent : exponents) {
        const BigInt expected = naive_mod_exp(base, exponent, m);
        EXPECT_EQ(mont.mod_exp(base, exponent), expected)
            << base.to_hex() << " ^ " << exponent.to_hex();
        EXPECT_EQ(BigInt::mod_exp(base, exponent, m), expected);
      }
    }
    // One full-width exponent, as RSA verification and Fermat use.
    const BigInt base = BigInt::random_below(rng, m);
    const BigInt exponent = BigInt::random_bits(rng, bits);
    EXPECT_EQ(mont.mod_exp(base, exponent), naive_mod_exp(base, exponent, m));
  }
}

// Property sweep: algebraic identities over random operands of mixed sizes.
class BigIntProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntProperty, DivisionIdentity) {
  SecureRandom rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const BigInt a =
        BigInt::random_bits(rng, 1 + rng.uniform(512));
    const BigInt b = BigInt::random_bits(rng, 1 + rng.uniform(256));
    const auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST_P(BigIntProperty, AddSubInverse) {
  SecureRandom rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + rng.uniform(300));
    const BigInt b = BigInt::random_bits(rng, 1 + rng.uniform(300));
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BigIntProperty, MulDistributesOverAdd) {
  SecureRandom rng(GetParam() + 2000);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + rng.uniform(200));
    const BigInt b = BigInt::random_bits(rng, 1 + rng.uniform(200));
    const BigInt c = BigInt::random_bits(rng, 1 + rng.uniform(200));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST_P(BigIntProperty, MontgomeryMatchesNaive) {
  SecureRandom rng(GetParam() + 3000);
  for (int i = 0; i < 10; ++i) {
    BigInt m = BigInt::random_bits(rng, 64 + rng.uniform(192));
    if (!m.is_odd()) m = m + BigInt{1};
    const BigInt base = BigInt::random_below(rng, m);
    const BigInt exponent = BigInt::random_bits(rng, 1 + rng.uniform(96));
    EXPECT_EQ(BigInt::mod_exp(base, exponent, m),
              naive_mod_exp(base, exponent, m));
  }
}

TEST_P(BigIntProperty, ModInverseIsInverse) {
  SecureRandom rng(GetParam() + 4000);
  for (int i = 0; i < 20; ++i) {
    BigInt m = BigInt::random_bits(rng, 16 + rng.uniform(128));
    if (!m.is_odd()) m = m + BigInt{1};
    const BigInt a = BigInt::random_below(rng, m);
    if (BigInt::gcd(a, m) != BigInt{1}) continue;
    const BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt{1});
    EXPECT_LT(inv, m);
  }
}

TEST_P(BigIntProperty, BytesRoundTrip) {
  SecureRandom rng(GetParam() + 5000);
  for (int i = 0; i < 30; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + rng.uniform(400));
    EXPECT_EQ(BigInt::from_bytes_be(a.to_bytes_be()), a);
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace keygraphs::crypto
