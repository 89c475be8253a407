#include "phy/modulation.h"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace silence {
namespace {

// Gray-coded PAM levels per axis, indexed by the axis bit pattern read
// MSB-first (802.11a tables 81-84).
constexpr std::array<double, 2> kPam2 = {-1.0, 1.0};  // 0 -> -1, 1 -> +1
// index b0b1: 00,01,10,11
constexpr std::array<double, 4> kPam4 = {-3.0, -1.0, 3.0, 1.0};
// index b0b1b2: 000..111
constexpr std::array<double, 8> kPam8 = {-7.0, -5.0, -1.0, -3.0,
                                         7.0,  5.0,  1.0,  3.0};

double axis_value(std::span<const std::uint8_t> bits) {
  switch (bits.size()) {
    case 1: return kPam2[bits[0] & 1U];
    case 2: return kPam4[((bits[0] & 1U) << 1) | (bits[1] & 1U)];
    case 3:
      return kPam8[((bits[0] & 1U) << 2) | ((bits[1] & 1U) << 1) |
                   (bits[2] & 1U)];
    default: throw std::invalid_argument("axis_value: bad bit count");
  }
}

// Per-axis max-log LLRs: for each axis bit, the difference between the
// squared distance to the nearest level with that bit = 1 and the nearest
// with bit = 0.
template <std::size_t N>
void axis_llrs(double y, const std::array<double, N>& levels, int bits,
               double inv_noise, std::vector<double>& out) {
  for (int b = 0; b < bits; ++b) {
    double best0 = std::numeric_limits<double>::max();
    double best1 = std::numeric_limits<double>::max();
    for (std::size_t idx = 0; idx < N; ++idx) {
      const double d = y - levels[idx];
      const double dist = d * d;
      const bool bit_is_one = ((idx >> (bits - 1 - b)) & 1U) != 0;
      if (bit_is_one) {
        if (dist < best1) best1 = dist;
      } else {
        if (dist < best0) best0 = dist;
      }
    }
    out.push_back((best1 - best0) * inv_noise);
  }
}

template <std::size_t N>
std::size_t nearest_level(double y, const std::array<double, N>& levels) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::size_t idx = 0; idx < N; ++idx) {
    const double d = y - levels[idx];
    if (d * d < best_dist) {
      best_dist = d * d;
      best = idx;
    }
  }
  return best;
}

struct ConstellationTables {
  CxVec bpsk, qpsk, qam16, qam64;
  ConstellationTables() {
    const auto build = [](Modulation mod) {
      const int n = bits_per_symbol(mod);
      CxVec points;
      points.reserve(std::size_t{1} << n);
      for (std::uint64_t v = 0; v < (std::uint64_t{1} << n); ++v) {
        const Bits bits = uint_to_bits(v, n);
        points.push_back(map_symbol(bits, mod));
      }
      return points;
    };
    bpsk = build(Modulation::kBpsk);
    qpsk = build(Modulation::kQpsk);
    qam16 = build(Modulation::kQam16);
    qam64 = build(Modulation::kQam64);
  }
};

const ConstellationTables& tables() {
  static const ConstellationTables t;
  return t;
}

}  // namespace

double modulation_scale(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  throw std::invalid_argument("modulation_scale: bad modulation");
}

Cx map_symbol(std::span<const std::uint8_t> bits, Modulation mod) {
  const int n = bits_per_symbol(mod);
  if (bits.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("map_symbol: wrong bit count");
  }
  const double scale = modulation_scale(mod);
  if (mod == Modulation::kBpsk) {
    return {axis_value(bits.first(1)) * scale, 0.0};
  }
  const auto half = static_cast<std::size_t>(n / 2);
  const double i_axis = axis_value(bits.first(half));
  const double q_axis = axis_value(bits.subspan(half));
  return {i_axis * scale, q_axis * scale};
}

void map_bits_into(std::span<const std::uint8_t> bits, Modulation mod,
                   std::span<Cx> out) {
  const auto n = static_cast<std::size_t>(bits_per_symbol(mod));
  if (bits.size() % n != 0) {
    throw std::invalid_argument("map_bits: not a whole number of symbols");
  }
  if (out.size() != bits.size() / n) {
    throw std::invalid_argument("map_bits_into: output size mismatch");
  }
  // constellation() holds map_symbol's points, indexed by their bits MSB
  // first.
  const auto points = constellation(mod);
  const std::uint8_t* b = bits.data();
  for (Cx& point : out) {
    std::size_t index = 0;
    for (std::size_t k = 0; k < n; ++k) index = (index << 1) | (b[k] & 1U);
    point = points[index];
    b += n;
  }
}

CxVec map_bits(std::span<const std::uint8_t> bits, Modulation mod) {
  const auto n = static_cast<std::size_t>(bits_per_symbol(mod));
  if (bits.size() % n != 0) {
    throw std::invalid_argument("map_bits: not a whole number of symbols");
  }
  CxVec out(bits.size() / n);
  map_bits_into(bits, mod, out);
  return out;
}

void demod_llrs(Cx y, Modulation mod, double noise_var,
                std::vector<double>& out) {
  const double scale = modulation_scale(mod);
  const double yi = y.real() / scale;
  const double yq = y.imag() / scale;
  // Distances are computed on the unscaled grid; fold the scale into the
  // noise normalization so LLR magnitudes stay proportional to true ones.
  const double inv_noise = scale * scale / std::max(noise_var, 1e-12);
  switch (mod) {
    case Modulation::kBpsk:
      axis_llrs(yi, kPam2, 1, inv_noise, out);
      return;
    case Modulation::kQpsk:
      axis_llrs(yi, kPam2, 1, inv_noise, out);
      axis_llrs(yq, kPam2, 1, inv_noise, out);
      return;
    case Modulation::kQam16:
      axis_llrs(yi, kPam4, 2, inv_noise, out);
      axis_llrs(yq, kPam4, 2, inv_noise, out);
      return;
    case Modulation::kQam64:
      axis_llrs(yi, kPam8, 3, inv_noise, out);
      axis_llrs(yq, kPam8, 3, inv_noise, out);
      return;
  }
  throw std::invalid_argument("demod_llrs: bad modulation");
}

Bits hard_decision_bits(Cx y, Modulation mod) {
  const double scale = modulation_scale(mod);
  const double yi = y.real() / scale;
  const double yq = y.imag() / scale;
  Bits bits;
  const auto push_axis = [&bits](std::size_t index, int nbits) {
    for (int b = nbits - 1; b >= 0; --b) {
      bits.push_back(static_cast<std::uint8_t>((index >> b) & 1U));
    }
  };
  switch (mod) {
    case Modulation::kBpsk:
      push_axis(nearest_level(yi, kPam2), 1);
      return bits;
    case Modulation::kQpsk:
      push_axis(nearest_level(yi, kPam2), 1);
      push_axis(nearest_level(yq, kPam2), 1);
      return bits;
    case Modulation::kQam16:
      push_axis(nearest_level(yi, kPam4), 2);
      push_axis(nearest_level(yq, kPam4), 2);
      return bits;
    case Modulation::kQam64:
      push_axis(nearest_level(yi, kPam8), 3);
      push_axis(nearest_level(yq, kPam8), 3);
      return bits;
  }
  throw std::invalid_argument("hard_decision_bits: bad modulation");
}

Cx hard_decision(Cx y, Modulation mod) {
  return map_symbol(hard_decision_bits(y, mod), mod);
}

std::span<const Cx> constellation(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return tables().bpsk;
    case Modulation::kQpsk: return tables().qpsk;
    case Modulation::kQam16: return tables().qam16;
    case Modulation::kQam64: return tables().qam64;
  }
  throw std::invalid_argument("constellation: bad modulation");
}

double min_constellation_distance(Modulation mod) {
  // Adjacent PAM levels differ by 2 on the unscaled grid.
  return 2.0 * modulation_scale(mod);
}

double min_symbol_energy(Modulation mod) {
  // Inner points sit at (+-1, +-1) on the unscaled grid (just +-1 for
  // BPSK's real axis).
  const double scale = modulation_scale(mod);
  const double per_axis = scale * scale;
  return mod == Modulation::kBpsk ? per_axis : 2.0 * per_axis;
}

}  // namespace silence
