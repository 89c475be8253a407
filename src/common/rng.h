// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an explicitly
// seeded Rng so that experiments and tests are reproducible bit-for-bit.
//
// The engine and its three distributions live here rather than in the
// standard library. The standard fixes mt19937_64's output sequence but
// leaves the uniform, integer and normal distribution algorithms to the
// library, so each is an exact replica of what libstdc++ 12 runs:
//
//  - uniform():     generate_canonical<double, 53> — one draw times 2^-64,
//                   clamped to nextafter(1, 0);
//  - uniform_int(): Lemire's nearly-divisionless method on a 128-bit
//                   product (a raw draw for the full 64-bit range);
//  - gaussian():    the Marsaglia polar method, saving the second value
//                   of each accepted pair for the next call.
//
// Results are therefore bit-identical to libstdc++'s distributions and
// no longer depend on the standard library; they still depend on libm's
// log. fill_gaussian() is the block entry point for every per-sample
// noise loop: it yields exactly what repeated gaussian() calls would,
// leaving the generator in the same state.
#pragma once

#include <array>
#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace silence {

// The standard 64-bit Mersenne Twister (std::mt19937_64's parameters and
// seeding). A UniformRandomBitGenerator, so it also drives std::shuffle.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed = 5489u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ == kStateSize) refill();
    return temper(state_[index_++]);
  }

  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  friend class Rng;

  // Regenerates all kStateSize words and rewinds index_ to 0.
  void refill();

  std::array<result_type, kStateSize> state_;
  std::size_t index_ = kStateSize;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1).
  double uniform() { return canonical(engine_()); }

  // generate_canonical<double, 53> of one 64-bit draw: draw * 2^-64,
  // clamped to nextafter(1, 0). Branch-free so that fill_gaussian's loop
  // over a state block vectorizes, even without a packed uint64 -> double
  // conversion: hi * 2^32 and lo are each exact as the difference of a
  // biased-exponent double and its bias, so their sum rounds once, to
  // static_cast<double>(draw).
  static double canonical(std::uint64_t draw) {
    const double hi =
        std::bit_cast<double>((draw >> 32) | 0x4530000000000000ULL) - 0x1p84;
    const double lo =
        std::bit_cast<double>((draw & 0xffffffffULL) | 0x4330000000000000ULL) -
        0x1p52;
    // The product is at most 1.0, whose bit pattern is the only one that
    // reaches 0x3FF0...; one less is nextafter(1, 0). (A floating-point
    // compare here would keep the loop from vectorizing.)
    auto bits = std::bit_cast<std::uint64_t>((hi + lo) * 0x1p-64);
    bits -= (bits + (std::uint64_t{1} << 52)) >> 62;
    return std::bit_cast<double>(bits);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t range = hi - lo;
    if (range == Mt19937_64::max()) return engine_() + lo;
    // Lemire: the high word of draw * span, redrawing while the low word
    // falls below 2^64 mod span.
    const std::uint64_t span = range + 1;
    __extension__ using U128 = unsigned __int128;
    U128 product = U128{engine_()} * span;
    auto low = static_cast<std::uint64_t>(product);
    if (low < span) {
      const std::uint64_t threshold = -span % span;
      while (low < threshold) {
        product = U128{engine_()} * span;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64) + lo;
  }

  // Standard normal.
  double gaussian() {
    if (has_saved_) {
      has_saved_ = false;
      return saved_;
    }
    return polar_pair();
  }

  // Fills `out` with standard normals: exactly the values, and the
  // generator state afterwards, of out.size() gaussian() calls.
  void fill_gaussian(std::span<double> out);

  // Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  std::complex<double> complex_gaussian(double variance);

  // Adds complex_gaussian(variance) to every sample, in order, without
  // touching the heap.
  void add_complex_gaussian(std::span<std::complex<double>> samples,
                            double variance);

  // `count` random bits.
  std::vector<std::uint8_t> bits(std::size_t count);

  // `count` random bytes.
  std::vector<std::uint8_t> bytes(std::size_t count);

  Mt19937_64& engine() { return engine_; }

 private:
  // One accepted polar pair (x, y): returns y * mult and saves x * mult.
  double polar_pair();

  Mt19937_64 engine_;
  double saved_ = 0.0;
  bool has_saved_ = false;
};

}  // namespace silence
