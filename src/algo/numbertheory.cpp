#include "algo/numbertheory.hpp"

namespace ddsim::algo {

namespace {
// 128-bit integers are a GCC/Clang extension; __extension__ marks their
// use as deliberate under -Wpedantic.
__extension__ using Int128 = __int128;
__extension__ using UInt128 = unsigned __int128;
}  // namespace

std::uint64_t gcd(std::uint64_t a, std::uint64_t b) noexcept {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t mulMod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<UInt128>(a) * b % m);
}

std::uint64_t powMod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) noexcept {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp != 0) {
    if ((exp & 1U) != 0) {
      result = mulMod(result, base, m);
    }
    base = mulMod(base, base, m);
    exp >>= 1U;
  }
  return result;
}

std::optional<std::uint64_t> invMod(std::uint64_t a, std::uint64_t m) {
  // Extended Euclid on signed 128-bit to dodge negative-wraparound issues.
  Int128 t = 0;
  Int128 newT = 1;
  Int128 r = m;
  Int128 newR = a % m;
  while (newR != 0) {
    const Int128 q = r / newR;
    const Int128 tmpT = t - q * newT;
    t = newT;
    newT = tmpT;
    const Int128 tmpR = r - q * newR;
    r = newR;
    newR = tmpR;
  }
  if (r != 1) {
    return std::nullopt;
  }
  if (t < 0) {
    t += m;
  }
  return static_cast<std::uint64_t>(t);
}

std::optional<std::uint64_t> multiplicativeOrder(std::uint64_t a, std::uint64_t n) {
  if (n == 0 || gcd(a % n, n) != 1) {
    return std::nullopt;
  }
  std::uint64_t x = a % n;
  std::uint64_t r = 1;
  while (x != 1) {
    x = mulMod(x, a, n);
    ++r;
    if (r > n) {
      return std::nullopt;  // unreachable for valid input
    }
  }
  return r;
}

std::uint32_t bitLength(std::uint64_t n) noexcept {
  std::uint32_t bits = 0;
  while (n != 0) {
    ++bits;
    n >>= 1U;
  }
  return bits;
}

bool isPrime(std::uint64_t n) noexcept {
  if (n < 2) {
    return false;
  }
  for (std::uint64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) {
      return false;
    }
  }
  return true;
}

std::vector<Fraction> convergents(std::uint64_t x, std::uint32_t bits,
                                  std::uint64_t maxDen) {
  std::vector<Fraction> result;
  std::uint64_t num = x;
  std::uint64_t den = 1ULL << bits;
  // Continued-fraction coefficients of num/den; build convergents h_k/k_k.
  std::uint64_t h0 = 0;
  std::uint64_t h1 = 1;
  std::uint64_t k0 = 1;
  std::uint64_t k1 = 0;
  while (den != 0) {
    const std::uint64_t a = num / den;
    const std::uint64_t rem = num % den;
    const std::uint64_t h2 = a * h1 + h0;
    const std::uint64_t k2 = a * k1 + k0;
    if (k2 > maxDen) {
      break;
    }
    result.push_back({h2, k2});
    h0 = h1;
    h1 = h2;
    k0 = k1;
    k1 = k2;
    num = den;
    den = rem;
  }
  return result;
}

std::optional<std::uint64_t> orderFromPhase(std::uint64_t measured,
                                            std::uint32_t bits, std::uint64_t a,
                                            std::uint64_t n) {
  if (measured == 0) {
    return std::nullopt;
  }
  for (const auto& frac : convergents(measured, bits, n)) {
    if (frac.den == 0) {
      continue;
    }
    // The denominator may be a divisor of r when gcd(s, r) > 1; try small
    // multiples as is standard practice.
    for (std::uint64_t mult = 1; mult <= 8; ++mult) {
      const std::uint64_t r = frac.den * mult;
      if (r == 0 || r > n) {
        break;
      }
      if (powMod(a, r, n) == 1) {
        return r;
      }
    }
  }
  return std::nullopt;
}

}  // namespace ddsim::algo
