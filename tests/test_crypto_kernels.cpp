// The table-driven AES/DES kernels, the AES-NI kernel and CBC over them.
//
// Three lines of defense pin the fast kernels to the specs:
//   1. Multi-block NIST known answers (FIPS-197, SP 800-38A, FIPS-81)
//      exercised through raw CBC chaining, free of padding concerns.
//   2. Differential cross-checks against the retained bit-loop reference
//      kernels (crypto/reference.h) over thousands of random keys/blocks.
//   3. Equivalence of the zero-alloc encrypt_into/decrypt_into paths with
//      the allocating CBC entry points, plus the bad-padding wipe contract.
// Every kernel also wipes its round keys when it is destroyed.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>

#include "common/error.h"
#include "crypto/aes.h"
#include "crypto/aes_aesni.h"
#include "crypto/cbc.h"
#include "crypto/cpu_features.h"
#include "crypto/des.h"
#include "crypto/des3.h"
#include "crypto/des_tables.h"
#include "crypto/random.h"
#include "crypto/reference.h"

namespace keygraphs::crypto {
namespace {

// CBC over whole blocks with no padding, so NIST vectors apply verbatim.
Bytes cbc_raw_encrypt(const BlockCipher& cipher, BytesView iv, BytesView pt) {
  const std::size_t block = cipher.block_size();
  EXPECT_EQ(pt.size() % block, 0u);
  Bytes out(pt.size());
  Bytes chain(iv.begin(), iv.end());
  for (std::size_t off = 0; off < pt.size(); off += block) {
    for (std::size_t i = 0; i < block; ++i) chain[i] ^= pt[off + i];
    cipher.encrypt_block(chain.data(), out.data() + off);
    std::copy(out.begin() + static_cast<std::ptrdiff_t>(off),
              out.begin() + static_cast<std::ptrdiff_t>(off + block),
              chain.begin());
  }
  return out;
}

Bytes cbc_raw_decrypt(const BlockCipher& cipher, BytesView iv, BytesView ct) {
  const std::size_t block = cipher.block_size();
  Bytes out(ct.size());
  Bytes chain(iv.begin(), iv.end());
  for (std::size_t off = 0; off < ct.size(); off += block) {
    cipher.decrypt_block(ct.data() + off, out.data() + off);
    for (std::size_t i = 0; i < block; ++i) {
      out[off + i] ^= chain[i];
      chain[i] = ct[off + i];
    }
  }
  return out;
}

TEST(AesKernel, Fips197AppendixB) {
  const Aes128 aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes pt = from_hex("3243f6a8885a308d313198a2e0370734");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "3925841d02dc09fbdc118597196a0b32");
  Bytes back(16);
  aes.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
}

TEST(AesKernel, Sp80038aCbcAllFourBlocks) {
  // NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128), the full four-block vector.
  const Aes128 aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes ct = from_hex(
      "7649abac8119b246cee98e9b12e9197d"
      "5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e22229516"
      "3ff1caa1681fac09120eca307586e1a7");
  EXPECT_EQ(cbc_raw_encrypt(aes, iv, pt), ct);
  EXPECT_EQ(cbc_raw_decrypt(aes, iv, ct), pt);
}

TEST(DesKernel, Fips81CbcExample) {
  // FIPS-81 CBC example: three blocks of "Now is the time for all ".
  const Des des(from_hex("0123456789abcdef"));
  const Bytes iv = from_hex("1234567890abcdef");
  const Bytes pt = bytes_of("Now is the time for all ");
  const Bytes ct = from_hex("e5c7cdde872bf27c43e934008c389c0f683788499a7c05f6");
  EXPECT_EQ(cbc_raw_encrypt(des, iv, pt), ct);
  EXPECT_EQ(cbc_raw_decrypt(des, iv, ct), pt);
}

TEST(Des3Kernel, DegenerateKeysCollapseToSingleDes) {
  // With k1 == k2 == k3, every EDE composition collapses to one DES
  // encryption — a structural check that the three stages really chain.
  const Bytes k = from_hex("133457799bbcdff1");
  const Des3 des3(concat(concat(k, k), k));
  const Des des(k);
  SecureRandom rng(11);
  for (int i = 0; i < 64; ++i) {
    const Bytes pt = rng.bytes(8);
    Bytes a(8), b(8);
    des3.encrypt_block(pt.data(), a.data());
    des.encrypt_block(pt.data(), b.data());
    EXPECT_EQ(a, b);
    des3.decrypt_block(a.data(), b.data());
    EXPECT_EQ(b, pt);
  }
}

TEST(CrossCheck, AesTableKernelMatchesReference) {
  SecureRandom rng(42);
  for (int k = 0; k < 100; ++k) {
    const Bytes key = rng.bytes(Aes128::kKeySize);
    const Aes128 fast(key);
    const ReferenceAes128 slow(key);
    for (int b = 0; b < 100; ++b) {
      const Bytes pt = rng.bytes(16);
      Bytes fast_ct(16), slow_ct(16), back(16);
      fast.encrypt_block(pt.data(), fast_ct.data());
      slow.encrypt_block(pt.data(), slow_ct.data());
      ASSERT_EQ(fast_ct, slow_ct) << "key " << to_hex(key);
      fast.decrypt_block(slow_ct.data(), back.data());
      ASSERT_EQ(back, pt);
      slow.decrypt_block(fast_ct.data(), back.data());
      ASSERT_EQ(back, pt);
    }
  }
}

TEST(CrossCheck, DesTableKernelMatchesReference) {
  SecureRandom rng(43);
  for (int k = 0; k < 100; ++k) {
    const Bytes key = rng.bytes(Des::kKeySize);
    const Des fast(key);
    const ReferenceDes slow(key);
    for (int b = 0; b < 100; ++b) {
      const Bytes pt = rng.bytes(8);
      Bytes fast_ct(8), slow_ct(8), back(8);
      fast.encrypt_block(pt.data(), fast_ct.data());
      slow.encrypt_block(pt.data(), slow_ct.data());
      ASSERT_EQ(fast_ct, slow_ct) << "key " << to_hex(key);
      fast.decrypt_block(slow_ct.data(), back.data());
      ASSERT_EQ(back, pt);
      slow.decrypt_block(fast_ct.data(), back.data());
      ASSERT_EQ(back, pt);
    }
  }
}

TEST(AesNiKernel, Fips197AppendixB) {
  if (!Aes128Ni::supported()) GTEST_SKIP() << "AES-NI unavailable";
  const Aes128Ni aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes pt = from_hex("3243f6a8885a308d313198a2e0370734");
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), "3925841d02dc09fbdc118597196a0b32");
  Bytes back(16);
  aes.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
}

TEST(AesNiKernel, Sp80038aCbcAllFourBlocks) {
  if (!Aes128Ni::supported()) GTEST_SKIP() << "AES-NI unavailable";
  const Aes128Ni aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes ct = from_hex(
      "7649abac8119b246cee98e9b12e9197d"
      "5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e22229516"
      "3ff1caa1681fac09120eca307586e1a7");
  EXPECT_EQ(cbc_raw_encrypt(aes, iv, pt), ct);
  EXPECT_EQ(cbc_raw_decrypt(aes, iv, ct), pt);
}

TEST(CrossCheck, AesNiMatchesTableAndReferenceTenThousandBlocks) {
  // 100 key schedules x 100 blocks: the three kernels (hardware, table,
  // bit-loop reference) must agree block-for-block in both directions.
  if (!Aes128Ni::supported()) GTEST_SKIP() << "AES-NI unavailable";
  SecureRandom rng(44);
  for (int k = 0; k < 100; ++k) {
    const Bytes key = rng.bytes(Aes128Ni::kKeySize);
    const Aes128Ni hw(key);
    const Aes128 table(key);
    const ReferenceAes128 reference(key);
    for (int b = 0; b < 100; ++b) {
      const Bytes pt = rng.bytes(16);
      Bytes hw_ct(16), table_ct(16), reference_ct(16), back(16);
      hw.encrypt_block(pt.data(), hw_ct.data());
      table.encrypt_block(pt.data(), table_ct.data());
      reference.encrypt_block(pt.data(), reference_ct.data());
      ASSERT_EQ(hw_ct, table_ct) << "key " << to_hex(key);
      ASSERT_EQ(hw_ct, reference_ct) << "key " << to_hex(key);
      hw.decrypt_block(table_ct.data(), back.data());
      ASSERT_EQ(back, pt);
      table.decrypt_block(hw_ct.data(), back.data());
      ASSERT_EQ(back, pt);
    }
  }
}

TEST(AesNiKernel, UnalignedBuffersMatchAligned) {
  // The kernel uses unaligned loads/stores; feed it buffers at every
  // misalignment (and in-place aliasing) and pin the bytes to the table
  // kernel's.
  if (!Aes128Ni::supported()) GTEST_SKIP() << "AES-NI unavailable";
  SecureRandom rng(45);
  const Bytes key = rng.bytes(16);
  const Aes128Ni hw(key);
  const Aes128 table(key);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    Bytes in_buffer(16 + offset + 8);
    Bytes out_buffer(16 + offset + 8, 0);
    std::uint8_t* in = in_buffer.data() + offset;
    std::uint8_t* out = out_buffer.data() + offset;
    const Bytes pt = rng.bytes(16);
    std::copy(pt.begin(), pt.end(), in);
    hw.encrypt_block(in, out);
    Bytes want(16);
    table.encrypt_block(pt.data(), want.data());
    EXPECT_EQ(Bytes(out, out + 16), want) << "offset " << offset;
    hw.encrypt_block(in, in);  // aliased in-place
    EXPECT_EQ(Bytes(in, in + 16), want) << "aliased, offset " << offset;
    hw.decrypt_block(in, in);
    EXPECT_EQ(Bytes(in, in + 16), pt);
  }
}

TEST(AesNiKernel, DispatchFollowsOverrideAndIsByteInvariant) {
  if (!cpu_features().aesni_usable()) {
    GTEST_SKIP() << "AES-NI unavailable";
  }
  SecureRandom rng(46);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes pt = rng.bytes(41);
  override_aesni_dispatch(true);
  auto hw = make_cipher(CipherAlgorithm::kAes128, key);
  EXPECT_EQ(hw->kernel(), BlockKernel::kAesNi);
  EXPECT_EQ(hw->name(), "AES-128-ni");
  const Bytes hw_ct = CbcCipher(std::move(hw)).encrypt_with_iv(pt, iv);
  override_aesni_dispatch(false);
  auto portable = make_cipher(CipherAlgorithm::kAes128, key);
  EXPECT_EQ(portable->kernel(), BlockKernel::kGeneric);
  EXPECT_EQ(portable->name(), "AES-128");
  const Bytes portable_ct =
      CbcCipher(std::move(portable)).encrypt_with_iv(pt, iv);
  override_aesni_dispatch(std::nullopt);
  EXPECT_EQ(hw_ct, portable_ct);  // wire bytes never depend on dispatch
}

TEST(AesNiKernel, OverrideToHardwareThrowsWhenUnusable) {
  if (cpu_features().aesni_usable()) {
    GTEST_SKIP() << "host can run the hardware kernel";
  }
  EXPECT_THROW(override_aesni_dispatch(true), CryptoError);
  EXPECT_THROW(Aes128Ni(Bytes(16, 0x01)), CryptoError);
}

TEST(CbcMany, EncryptManyMatchesSequentialAcrossKernelsAndSizes) {
  // encrypt_many_into over a mixed batch — hardware and generic ciphers
  // interleaved, sizes crossing every padding case, more ops than one
  // 8-stream group — must produce exactly the bytes of sequential
  // encrypt_into calls.
  SecureRandom rng(47);
  const std::size_t sizes[] = {0, 1, 8, 15, 16, 17, 31, 32, 33,
                               64, 100, 128, 240, 256, 257, 300,
                               512, 1000, 1024};
  std::vector<CbcCipher> cbcs;
  std::vector<Bytes> plaintexts, ivs;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const Bytes key = rng.bytes(16);
    const bool hw = Aes128Ni::supported() && i % 3 != 2;
    cbcs.emplace_back(hw ? std::unique_ptr<const BlockCipher>(
                               std::make_unique<Aes128Ni>(key))
                         : std::make_unique<Aes128>(key));
    plaintexts.push_back(rng.bytes(sizes[i]));
    ivs.push_back(rng.bytes(16));
  }
  std::vector<Bytes> want, got;
  std::vector<CbcCipher::StreamOp> ops;
  for (std::size_t i = 0; i < cbcs.size(); ++i) {
    want.emplace_back(cbcs[i].ciphertext_size(plaintexts[i].size()));
    cbcs[i].encrypt_into(plaintexts[i], ivs[i], want.back().data());
    got.emplace_back(want.back().size(), 0);
  }
  for (std::size_t i = 0; i < cbcs.size(); ++i) {
    ops.push_back({&cbcs[i], plaintexts[i], ivs[i], got[i].data()});
  }
  CbcCipher::encrypt_many_into(ops);
  for (std::size_t i = 0; i < cbcs.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "stream " << i << " size "
                               << plaintexts[i].size();
  }
}

TEST(CbcMany, EmptyBatchIsANoOp) {
  CbcCipher::encrypt_many_into({});
}

TEST(CbcInto, MatchesAllocatingPaths) {
  SecureRandom rng(7);
  for (const CipherAlgorithm algorithm :
       {CipherAlgorithm::kDes, CipherAlgorithm::kAes128}) {
    const CbcCipher cbc(
        make_cipher(algorithm, rng.bytes(cipher_key_size(algorithm))));
    const std::size_t block = cbc.cipher().block_size();
    for (const std::size_t n : {0u, 1u, 7u, 8u, 15u, 16u, 17u, 100u, 333u}) {
      const Bytes pt = rng.bytes(n);
      const Bytes iv = rng.bytes(block);
      const Bytes want = cbc.encrypt_with_iv(pt, iv);
      Bytes got(cbc.ciphertext_size(n));
      cbc.encrypt_into(pt, iv, got.data());
      EXPECT_EQ(got, want) << "size " << n;

      Bytes plain(got.size() - block, 0xee);
      const std::size_t plain_size = cbc.decrypt_into(got, plain.data());
      EXPECT_EQ(plain_size, n);
      EXPECT_EQ(Bytes(plain.begin(),
                      plain.begin() + static_cast<std::ptrdiff_t>(n)),
                pt);
      // The padding tail must be wiped, not left as decrypted pad bytes.
      for (std::size_t i = n; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], 0u) << "unwiped pad byte at " << i;
      }
    }
  }
}

TEST(CbcInto, BadPaddingWipesOutputAndThrows) {
  SecureRandom rng(8);
  const CbcCipher cbc(
      make_cipher(CipherAlgorithm::kAes128, rng.bytes(Aes128::kKeySize)));
  const Bytes pt = bytes_of("sixteen byte key");
  Bytes ct = cbc.encrypt(pt, rng);
  int rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    Bytes tampered = ct;
    tampered[tampered.size() - 1 - static_cast<std::size_t>(
                                       rng.uniform(16))] ^= 0x01;
    Bytes out(tampered.size() - 16, 0xee);
    try {
      cbc.decrypt_into(tampered, out.data());
    } catch (const CryptoError&) {
      ++rejected;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], 0u) << "plaintext residue at " << i;
      }
    }
  }
  EXPECT_GT(rejected, 32);
}

// --- Schedule wiping ----------------------------------------------------

bool contains(BytesView haystack, BytesView needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

Bytes host_bytes(const void* data, std::size_t size) {
  const auto* begin = static_cast<const std::uint8_t*>(data);
  return Bytes(begin, begin + size);
}

// AES round key 0 as the word-oriented kernels hold it: the key's four
// big-endian words, each in host byte order.
Bytes aes_word_round_key0(BytesView key) {
  std::uint32_t words[4];
  for (std::size_t i = 0; i < 4; ++i) {
    words[i] = (std::uint32_t{key[4 * i]} << 24) |
               (std::uint32_t{key[4 * i + 1]} << 16) |
               (std::uint32_t{key[4 * i + 2]} << 8) | key[4 * i + 3];
  }
  return host_bytes(words, sizeof(words));
}

// DES subkey 1 as both DES kernels hold it.
Bytes des_round_key0(BytesView key) {
  const std::uint64_t subkey = des_key_schedule(key)[0];
  return host_bytes(&subkey, sizeof(subkey));
}

// Builds a Kernel from `key` in a raw buffer, checks that the live object
// holds every one of `round_keys` (so the check below can fail), runs the
// destructor, and checks that the buffer then holds neither the key nor
// any of them.
template <typename Kernel>
void expect_wiped_on_destruction(BytesView key,
                                 const std::vector<Bytes>& round_keys) {
  alignas(Kernel) std::uint8_t storage[sizeof(Kernel)];
  const BytesView bytes(storage, sizeof(storage));
  auto* kernel = new (storage) Kernel(key);
  const std::string name = kernel->name();
  for (const Bytes& round_key : round_keys) {
    EXPECT_TRUE(contains(bytes, round_key))
        << name << ": live object does not hold the round key";
  }
  kernel->~Kernel();
  EXPECT_FALSE(contains(bytes, key)) << name << " left its key behind";
  for (const Bytes& round_key : round_keys) {
    EXPECT_FALSE(contains(bytes, round_key))
        << name << " left a round key behind";
  }
}

TEST(ScheduleWipe, EveryKernelWipesItsRoundKeys) {
  SecureRandom rng(48);
  const Bytes aes_key = rng.bytes(16);
  const Bytes des_key = rng.bytes(8);
  expect_wiped_on_destruction<Aes128>(aes_key, {aes_word_round_key0(aes_key)});
  expect_wiped_on_destruction<ReferenceAes128>(
      aes_key, {aes_word_round_key0(aes_key)});
  expect_wiped_on_destruction<Des>(des_key, {des_round_key0(des_key)});
  expect_wiped_on_destruction<ReferenceDes>(des_key,
                                            {des_round_key0(des_key)});

  // Des3 holds three Des, each of which wipes itself.
  const Bytes des3_key = rng.bytes(24);
  std::vector<Bytes> des3_round_keys;
  for (std::size_t part = 0; part < 3; ++part) {
    des3_round_keys.push_back(
        des_round_key0(BytesView(des3_key).subspan(8 * part, 8)));
  }
  expect_wiped_on_destruction<Des3>(des3_key, des3_round_keys);

  if (Aes128Ni::supported()) {
    // The hardware schedule stores round key 0 as the raw key bytes.
    expect_wiped_on_destruction<Aes128Ni>(aes_key, {aes_key});
  }
}

}  // namespace
}  // namespace keygraphs::crypto
