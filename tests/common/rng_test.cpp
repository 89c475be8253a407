#include "common/rng.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <random>
#include <vector>

#include "dsp/fft.h"

namespace silence {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.engine()() == b.engine()()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 17);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 17u);
  }
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(7);
  const double target = 2.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += std::norm(rng.complex_gaussian(target));
  }
  EXPECT_NEAR(sum / n, target, 0.1);
}

TEST(Rng, ComplexGaussianZeroMean) {
  Rng rng(8);
  Cx sum{0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.complex_gaussian(1.0);
  EXPECT_NEAR(std::abs(sum) / n, 0.0, 0.02);
}

TEST(Rng, BitsAreBinaryAndBalanced) {
  Rng rng(9);
  const auto bits = rng.bits(10000);
  std::size_t ones = 0;
  for (auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.03);
}

TEST(Rng, GaussianMoments) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, EngineMatchesStandardTenThousandthDraw) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

// The <random> distributions are library-defined, so the in-repo replicas
// are checked against libstdc++'s; other libraries run different
// algorithms.
TEST(Rng, MatchesLibstdcxxBitForBit) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "reference distributions are libstdc++'s";
#else
  struct Reference {
    explicit Reference(std::uint64_t seed) : engine(seed) {}
    std::mt19937_64 engine;
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    std::normal_distribution<double> normal{0.0, 1.0};
    std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
      return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
    }
  };
  const auto bits_of = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::size_t draws = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + seed);
    Reference ref(seed * 0x9E3779B97F4A7C15ULL + seed);
    std::mt19937 pick(static_cast<std::uint32_t>(seed));
    for (int op = 0; op < 40000; ++op) {
      switch (pick() % 10) {
        case 0:
          ASSERT_EQ(bits_of(rng.uniform()), bits_of(ref.unit(ref.engine)));
          ++draws;
          break;
        case 1: {
          const std::uint64_t lo = pick();
          ASSERT_EQ(rng.uniform_int(lo, lo), ref.uniform_int(lo, lo));
          ASSERT_EQ(rng.uniform_int(0, kMax), ref.uniform_int(0, kMax));
          ASSERT_EQ(rng.uniform_int(3, kMax), ref.uniform_int(3, kMax));
          draws += 3;
          break;
        }
        case 2: {
          // Ranges just above a power of two reject the most often.
          const unsigned shift = pick() % 64;
          const std::uint64_t hi = (std::uint64_t{1} << shift) + pick() % 3;
          ASSERT_EQ(rng.uniform_int(0, hi), ref.uniform_int(0, hi));
          const std::uint64_t lo = pick();
          ASSERT_EQ(rng.uniform_int(lo, lo + 17), ref.uniform_int(lo, lo + 17));
          draws += 2;
          break;
        }
        case 3:
        case 4:
        case 5:
          ASSERT_EQ(bits_of(rng.gaussian()), bits_of(ref.normal(ref.engine)));
          ++draws;
          break;
        case 6: {
          const double variance = 0.25 + (pick() % 8);
          const std::complex<double> got = rng.complex_gaussian(variance);
          const double sigma = std::sqrt(variance / 2.0);
          const double re = sigma * ref.normal(ref.engine);
          const double im = sigma * ref.normal(ref.engine);
          ASSERT_EQ(bits_of(got.real()), bits_of(re));
          ASSERT_EQ(bits_of(got.imag()), bits_of(im));
          draws += 2;
          break;
        }
        case 7: {
          const std::size_t count = pick() % 40;
          const auto got = rng.bits(count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i], ref.engine() & 1U);
          }
          draws += count;
          break;
        }
        case 8: {
          const std::size_t count = pick() % 40;
          const auto got = rng.bytes(count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i], ref.engine() & 0xFFU);
          }
          draws += count;
          break;
        }
        default:
          ASSERT_EQ(rng.engine()(), ref.engine());
          ++draws;
          break;
      }
    }
  }
  EXPECT_GE(draws, 1000000u);
#endif
}

TEST(Rng, CanonicalMatchesGenerateCanonicalAtTheEdges) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the clamp at 1.0 is libstdc++'s";
#else
  // A one-shot generator that hands std::generate_canonical one word.
  struct Fixed {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() const { return word; }
    result_type word;
  };
  std::vector<std::uint64_t> words = {0, 1, 2, 0x7FF, 0x800, 0x801,
                                      std::uint64_t{1} << 53,
                                      (std::uint64_t{1} << 53) + 1,
                                      0xFFFFFFFF, 0x100000000};
  // Around 2^64: below 0xFFFFFFFFFFFFFC00 the conversion rounds down to
  // 2^64 - 2^11; from it on it rounds up to 2^64 and the result clamps.
  for (std::uint64_t d = 0; d < 0x1000; ++d) words.push_back(~d);
  Mt19937_64 engine(3);
  for (int i = 0; i < 10000; ++i) words.push_back(engine());
  for (const std::uint64_t word : words) {
    Fixed fixed{word};
    const double want = std::generate_canonical<double, 53>(fixed);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(Rng::canonical(word)),
              std::bit_cast<std::uint64_t>(want))
        << "word " << word;
  }
#endif
}

TEST(Rng, FillGaussianEqualsRepeatedGaussian) {
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const std::size_t length :
       {0, 1, 2, 3, 155, 156, 157, 311, 312, 313, 1000, 15000}) {
    for (int offset = 0; offset < 4; ++offset) {
      for (const bool saved : {false, true}) {
        SCOPED_TRACE(testing::Message() << "length " << length << " offset "
                                        << offset << " saved " << saved);
        const std::uint64_t seed = 1000 * length + 10 * offset + saved;
        Rng block(seed), scalar(seed);
        for (int i = 0; i < offset; ++i) {
          ASSERT_EQ(block.engine()(), scalar.engine()());
        }
        if (saved) {
          ASSERT_TRUE(same_bits(block.gaussian(), scalar.gaussian()));
        }
        std::vector<double> got(length);
        for (int round = 0; round < 3; ++round) {
          block.fill_gaussian(got);
          for (std::size_t i = 0; i < length; ++i) {
            ASSERT_TRUE(same_bits(got[i], scalar.gaussian())) << "index " << i;
          }
          ASSERT_TRUE(same_bits(block.uniform(), scalar.uniform()));
        }
        ASSERT_TRUE(same_bits(block.gaussian(), scalar.gaussian()));
        for (int i = 0; i < 16; ++i) {
          ASSERT_EQ(block.engine()(), scalar.engine()());
        }
      }
    }
  }
}

TEST(Rng, AddComplexGaussianEqualsPerSampleDraws) {
  for (const std::size_t length : {0, 1, 80, 255, 256, 257, 4000}) {
    SCOPED_TRACE(testing::Message() << "length " << length);
    Rng block(length + 1), scalar(length + 1);
    block.gaussian();  // leave a saved value for the first sample
    scalar.gaussian();
    std::vector<Cx> got(length, Cx{0.5, -0.25});
    block.add_complex_gaussian(got, 0.3);
    for (const Cx& x : got) {
      const Cx want = Cx{0.5, -0.25} + scalar.complex_gaussian(0.3);
      ASSERT_EQ(std::memcmp(&x, &want, sizeof(Cx)), 0);
    }
    ASSERT_EQ(block.engine()(), scalar.engine()());
  }
}

}  // namespace
}  // namespace silence
