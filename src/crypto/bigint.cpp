#include "crypto/bigint.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "crypto/random.h"

namespace keygraphs::crypto {

namespace {

constexpr std::uint64_t kBase = std::uint64_t{1} << 32;

// Small primes for the pre-sieve in Miller–Rabin.
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

/// Packs 32-bit limbs (little-endian) into `k` 64-bit limbs, zero-padded.
void widen(const std::vector<std::uint32_t>& in, std::uint64_t* out,
           std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = 2 * i;
    out[i] = (lo < in.size() ? in[lo] : 0) |
             (lo + 1 < in.size() ? std::uint64_t{in[lo + 1]} << 32 : 0);
  }
}

}  // namespace

BigInt::BigInt(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t byte_index = bytes.size() - 1 - i;  // little-endian pos
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(bytes[byte_index])
                         << (8 * (i % 4));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes_be(std::size_t min_size) const {
  const std::size_t significant = (bit_length() + 7) / 8;
  const std::size_t size = std::max(significant, min_size);
  Bytes out(size, 0x00);
  for (std::size_t i = 0; i < significant; ++i) {
    out[size - 1 - i] = static_cast<std::uint8_t>(
        limbs_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes_be(keygraphs::from_hex(padded));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string hex = keygraphs::to_hex(to_bytes_be());
  const std::size_t nonzero = hex.find_first_not_of('0');
  return hex.substr(nonzero);
}

std::size_t BigInt::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::uint64_t BigInt::to_u64() const noexcept {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  if (a < b) throw Error("BigInt: negative result in subtraction");
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt{};
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out.limbs_[i + j]) + ai * b.limbs_[j] +
          carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry != 0) {
      const std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt operator<<(const BigInt& a, std::size_t bits) {
  if (a.is_zero() || bits == 0) {
    BigInt out = a;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(a.limbs_[i])
                            << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt operator>>(const BigInt& a, std::size_t bits) {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) return BigInt{};
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(a.limbs_[i + limb_shift]) >>
                      bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<std::uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& a, const BigInt& b) {
  if (b.is_zero()) throw Error("BigInt: division by zero");
  if (a < b) return {BigInt{}, a};

  // Single-limb divisor: simple schoolbook pass.
  if (b.limbs_.size() == 1) {
    const std::uint64_t divisor = b.limbs_[0];
    BigInt quotient;
    quotient.limbs_.resize(a.limbs_.size(), 0);
    std::uint64_t remainder = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (remainder << 32) | a.limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / divisor);
      remainder = cur % divisor;
    }
    quotient.trim();
    return {quotient, BigInt{remainder}};
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1).
  const int shift = std::countl_zero(b.limbs_.back());
  const BigInt u_norm = a << static_cast<std::size_t>(shift);
  const BigInt v_norm = b << static_cast<std::size_t>(shift);
  const std::size_t n = v_norm.limbs_.size();
  const std::size_t m = u_norm.limbs_.size() >= n
                            ? u_norm.limbs_.size() - n
                            : 0;

  std::vector<std::uint32_t> u = u_norm.limbs_;
  u.resize(u_norm.limbs_.size() + 1, 0);  // u[m+n] guard limb
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  BigInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two dividend limbs and top divisor limb.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numerator / v[n - 1];
    std::uint64_t rhat = numerator % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                                static_cast<std::int64_t>(product & 0xffffffffu) -
                                borrow;
      u[i + j] = static_cast<std::uint32_t>(diff);
      borrow = diff < 0 ? 1 : 0;
    }
    const std::int64_t top = static_cast<std::int64_t>(u[j + n]) -
                             static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(top);

    if (top < 0) {
      // qhat was one too large; add v back.
      --qhat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + add_carry);
    }
    quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  quotient.trim();
  BigInt remainder;
  remainder.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  remainder.trim();
  remainder = remainder >> static_cast<std::size_t>(shift);
  return {quotient, remainder};
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).first;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).second;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid, tracking only the coefficient of a and its
  // sign (unsigned magnitudes with an explicit sign flag).
  if (m <= BigInt{1}) throw CryptoError("mod_inverse: modulus must be > 1");
  BigInt r0 = m, r1 = a % m;
  BigInt t0{0}, t1{1};
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 with sign tracking.
    const BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != BigInt{1}) throw CryptoError("mod_inverse: not invertible");
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_bits(SecureRandom& rng, std::size_t bits) {
  if (bits == 0) return BigInt{};
  Bytes raw = rng.bytes((bits + 7) / 8);
  // Clear excess leading bits, then force the top bit so the width is exact.
  const std::size_t excess = raw.size() * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes_be(raw);
}

BigInt BigInt::random_below(SecureRandom& rng, const BigInt& bound) {
  if (bound.is_zero()) throw Error("random_below: zero bound");
  const std::size_t bits = bound.bit_length();
  for (;;) {
    Bytes raw = rng.bytes((bits + 7) / 8);
    const std::size_t excess = raw.size() * 8 - bits;
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

bool BigInt::is_probable_prime(SecureRandom& rng, int rounds) const {
  if (*this < BigInt{2}) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (*this == BigInt{p}) return true;
    if ((*this % BigInt{p}).is_zero()) return false;
  }

  // Write n-1 as d * 2^s.
  const BigInt n_minus_1 = *this - BigInt{1};
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  const Montgomery mont(*this);
  const BigInt two{2};
  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    const BigInt base = two + random_below(rng, *this - BigInt{4} + BigInt{1});
    BigInt x = mont.mod_exp(base, d);
    if (x == BigInt{1} || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = (x * x) % *this;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(SecureRandom& rng, std::size_t bits) {
  if (bits < 16) throw CryptoError("generate_prime: need at least 16 bits");
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    // Force the second-highest bit (RSA modulus width) and oddness.
    candidate.limbs_[(bits - 2) / 32] |= std::uint32_t{1} << ((bits - 2) % 32);
    candidate.limbs_[0] |= 1u;
    if (candidate.is_probable_prime(rng, 40)) return candidate;
  }
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic

Montgomery::Montgomery(const BigInt& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt{1}) {
    throw CryptoError("Montgomery: modulus must be odd and > 1");
  }
  k_ = (modulus.limbs_.size() + 1) / 2;
  n_.resize(k_);
  widen(modulus.limbs_, n_.data(), k_);

  // n0_inv = -N^-1 mod 2^64 via Newton iteration: each step doubles the
  // correct low bits, 1 -> 64 in six steps.
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_[0] * inv;
  n0_inv_ = ~inv + 1;

  const BigInt r_mod_n = (BigInt{1} << (64 * k_)) % modulus_;
  r_mod_n_.resize(k_);
  load(r_mod_n, r_mod_n_.data());
  r2_mod_n_.resize(k_);
  load((r_mod_n * r_mod_n) % modulus_, r2_mod_n_.data());
}

void Montgomery::load(const BigInt& value, Limb* out) const {
  BigInt reduced;
  const BigInt* source = &value;
  if (value >= modulus_) {
    reduced = value % modulus_;
    source = &reduced;
  }
  widen(source->limbs_, out, k_);
}

void Montgomery::mont_mul(const Limb* a, const Limb* b, Limb* out,
                          Limb* t) const {
  // CIOS with the multiply and reduce passes fused: row i adds a[i] * b
  // and m * N to t in one sweep and shifts t down one limb as it goes.
  using Wide = unsigned __int128;
  const Limb* n = n_.data();
  std::fill(t, t + k_ + 1, Limb{0});
  for (std::size_t i = 0; i < k_; ++i) {
    const Limb ai = a[i];
    Wide product = static_cast<Wide>(ai) * b[0] + t[0];
    const Limb m = static_cast<Limb>(product) * n0_inv_;
    Wide reduced = static_cast<Wide>(m) * n[0] + static_cast<Limb>(product);
    Limb carry = static_cast<Limb>(product >> 64);
    Limb reduce_carry = static_cast<Limb>(reduced >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      product = static_cast<Wide>(ai) * b[j] + t[j] + carry;
      carry = static_cast<Limb>(product >> 64);
      reduced = static_cast<Wide>(m) * n[j] + static_cast<Limb>(product) +
                reduce_carry;
      reduce_carry = static_cast<Limb>(reduced >> 64);
      t[j - 1] = static_cast<Limb>(reduced);
    }
    const Wide top = static_cast<Wide>(t[k_]) + carry + reduce_carry;
    t[k_ - 1] = static_cast<Limb>(top);
    t[k_] = static_cast<Limb>(top >> 64);
  }

  // t < 2N here; subtract N once if t >= N.
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + k_, out);
    return;
  }
  Limb borrow = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const Limb diff = t[i] - n[i];
    const Limb next = (t[i] < n[i]) | (diff < borrow);
    out[i] = diff - borrow;
    borrow = next;
  }
}

BigInt Montgomery::mod_exp(const BigInt& base, const BigInt& exponent) const {
  constexpr std::size_t kWindow = 4;  // divides 32: no window spans limbs
  constexpr std::size_t kTable = std::size_t{1} << kWindow;
  if (exponent.is_zero()) return BigInt{1};

  // One scratch buffer: the window table, the accumulator, a product
  // target and the CIOS row.
  std::vector<Limb> scratch((kTable + 2) * k_ + k_ + 1);
  Limb* const table = scratch.data();
  Limb* acc = table + kTable * k_;
  Limb* tmp = acc + k_;
  Limb* const row = tmp + k_;

  // table[w] = base^w in Montgomery form; table[0] = R mod N.
  std::copy(r_mod_n_.begin(), r_mod_n_.end(), table);
  load(base, acc);
  mont_mul(acc, r2_mod_n_.data(), table + k_, row);
  for (std::size_t w = 2; w < kTable; ++w) {
    mont_mul(table + (w - 1) * k_, table + k_, table + w * k_, row);
  }

  const auto window = [&](std::size_t index) {
    const std::size_t bit = index * kWindow;
    return (exponent.limbs_[bit / 32] >> (bit % 32)) & (kTable - 1);
  };
  std::size_t windows = (exponent.bit_length() + kWindow - 1) / kWindow;
  std::copy(table + window(windows - 1) * k_,
            table + (window(windows - 1) + 1) * k_, acc);
  while (windows-- > 1) {
    for (std::size_t s = 0; s < kWindow; ++s) {
      mont_mul(acc, acc, tmp, row);
      std::swap(acc, tmp);
    }
    mont_mul(acc, table + window(windows - 1) * k_, tmp, row);
    std::swap(acc, tmp);
  }

  // Out of Montgomery form: multiply by plain 1.
  std::fill(tmp, tmp + k_, Limb{0});
  tmp[0] = 1;
  mont_mul(acc, tmp, table, row);
  BigInt result;
  result.limbs_.resize(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    result.limbs_[2 * i] = static_cast<std::uint32_t>(table[i]);
    result.limbs_[2 * i + 1] = static_cast<std::uint32_t>(table[i] >> 32);
  }
  result.trim();
  return result;
}

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus) {
  if (modulus.is_zero()) throw Error("mod_exp: zero modulus");
  if (modulus == BigInt{1}) return BigInt{};
  if (modulus.is_odd()) {
    return Montgomery(modulus).mod_exp(base, exponent);
  }
  // Even modulus: classic left-to-right square and multiply.
  BigInt acc{1};
  const BigInt b = base % modulus;
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    acc = (acc * acc) % modulus;
    if (exponent.bit(i)) acc = (acc * b) % modulus;
  }
  return acc;
}

}  // namespace keygraphs::crypto
