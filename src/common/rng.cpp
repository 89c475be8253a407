#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace silence {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  // The matrix term is masked in rather than selected by a branch, so
  // both loops vectorize; each reads words at least one vector ahead of
  // (or kShift behind) the one it writes.
  const auto twist = [](result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1U)) & kMatrix);
  };
  result_type* x = state_.data();
  for (std::size_t k = 0; k < kStateSize - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = twist(x[kStateSize - 1], x[0], x[kShift - 1]);
  index_ = 0;
}

double Rng::polar_pair() {
  double x, y, r2;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  saved_ = x * mult;
  has_saved_ = true;
  return y * mult;
}

void Rng::fill_gaussian(std::span<double> out) {
  constexpr std::size_t kMaxPairs = Mt19937_64::kStateSize / 2;
  double* dst = out.data();
  double* const end = dst + out.size();
  if (dst != end && has_saved_) {
    *dst++ = saved_;
    has_saved_ = false;
  }
  while (dst != end) {
    Mt19937_64& eng = engine_;
    if (eng.index_ == Mt19937_64::kStateSize) eng.refill();
    const std::size_t words = Mt19937_64::kStateSize - eng.index_;
    if (words == 1) {
      // The pair's x is the block's last word and y the next block's
      // first: the scalar step refills in between.
      *dst++ = polar_pair();
      if (dst != end) {
        *dst++ = saved_;
        has_saved_ = false;
      }
      continue;
    }
    // Candidate pairs from the rest of this block, bounded near what the
    // remaining outputs need (acceptance is pi/4) so short fills do not
    // convert words they will never consume.
    const auto need = static_cast<std::size_t>(end - dst + 1) / 2;
    const std::size_t pairs = std::min(words / 2, need + need / 2 + 4);
    // The scratch arrays below are written before they are read and left
    // uninitialized: zeroing their 6.5 KiB would outweigh a short fill.
    std::array<double, 2 * kMaxPairs> v;
    const std::uint64_t* block = eng.state_.data() + eng.index_;
    for (std::size_t k = 0; k < 2 * pairs; ++k) {
      v[k] = 2.0 * canonical(Mt19937_64::temper(block[k])) - 1.0;
    }
    // Branch-free accept/reject: every pair is written at the next free
    // slot, which advances only when the pair is accepted.
    std::array<double, kMaxPairs> xs, ys, r2s;
    std::array<std::uint16_t, kMaxPairs> at;
    std::size_t accepted = 0;
    for (std::size_t j = 0; j < pairs; ++j) {
      const double x = v[2 * j];
      const double y = v[2 * j + 1];
      const double r2 = x * x + y * y;
      xs[accepted] = x;
      ys[accepted] = y;
      r2s[accepted] = r2;
      at[accepted] = static_cast<std::uint16_t>(j);
      accepted += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
    }
    // Consume through the last accepted pair used; when short, every
    // candidate was drawn and rejected pairs past the last acceptance
    // were consumed too.
    const std::size_t used = std::min(accepted, need);
    eng.index_ += accepted >= need ? 2 * (at[need - 1] + std::size_t{1})
                                   : 2 * pairs;
    for (std::size_t k = 0; k < used; ++k) {
      r2s[k] = std::sqrt(-2 * std::log(r2s[k]) / r2s[k]);
    }
    for (std::size_t k = 0; k < used; ++k) {
      *dst++ = ys[k] * r2s[k];
      const double second = xs[k] * r2s[k];
      if (dst == end) {
        saved_ = second;
        has_saved_ = true;
        break;
      }
      *dst++ = second;
    }
  }
}

std::complex<double> Rng::complex_gaussian(double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  return {sigma * gaussian(), sigma * gaussian()};
}

void Rng::add_complex_gaussian(std::span<std::complex<double>> samples,
                               double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  // std::complex is layout-compatible with double[2]: (re, im) per sample.
  auto* re_im = reinterpret_cast<double*>(samples.data());
  const std::size_t count = 2 * samples.size();
  std::array<double, 512> noise;  // filled before each read
  for (std::size_t base = 0; base < count; base += noise.size()) {
    const std::size_t n = std::min(noise.size(), count - base);
    fill_gaussian(std::span(noise.data(), n));
    for (std::size_t k = 0; k < n; ++k) re_im[base + k] += sigma * noise[k];
  }
}

std::vector<std::uint8_t> Rng::bits(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 1U);
  return out;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 0xFFU);
  return out;
}

}  // namespace silence
