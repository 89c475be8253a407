#include "phy/interleaver.h"

#include <algorithm>
#include <stdexcept>

namespace silence {

std::vector<int> interleaver_permutation(int n_cbps, int n_bpsc) {
  if (n_cbps <= 0 || n_cbps % 16 != 0) {
    throw std::invalid_argument("interleaver: n_cbps must be a multiple of 16");
  }
  const int s = std::max(n_bpsc / 2, 1);
  std::vector<int> perm(static_cast<std::size_t>(n_cbps));
  for (int k = 0; k < n_cbps; ++k) {
    // First permutation: adjacent coded bits -> nonadjacent subcarriers.
    const int i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation: alternate mapping onto less/more significant
    // constellation bits.
    const int j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
    perm[static_cast<std::size_t>(k)] = j;
  }
  return perm;
}

namespace {

// Permutation lookup that keeps non-standard shapes working (tests use
// them): standard shapes hit the cache, anything else is computed into
// `local`.
std::span<const int> permutation_for(int n_cbps, int n_bpsc,
                                     std::vector<int>& local) {
  switch (n_bpsc) {
    case 1:
      if (n_cbps == 48) return interleaver_permutation_cached(n_cbps, n_bpsc);
      break;
    case 2:
      if (n_cbps == 96) return interleaver_permutation_cached(n_cbps, n_bpsc);
      break;
    case 4:
      if (n_cbps == 192) return interleaver_permutation_cached(n_cbps, n_bpsc);
      break;
    case 6:
      if (n_cbps == 288) return interleaver_permutation_cached(n_cbps, n_bpsc);
      break;
    default:
      break;
  }
  local = interleaver_permutation(n_cbps, n_bpsc);
  return local;
}

}  // namespace

std::span<const int> interleaver_permutation_cached(int n_cbps, int n_bpsc) {
  static const std::vector<int> bpsk = interleaver_permutation(48, 1);
  static const std::vector<int> qpsk = interleaver_permutation(96, 2);
  static const std::vector<int> qam16 = interleaver_permutation(192, 4);
  static const std::vector<int> qam64 = interleaver_permutation(288, 6);
  switch (n_bpsc) {
    case 1:
      if (n_cbps == 48) return bpsk;
      break;
    case 2:
      if (n_cbps == 96) return qpsk;
      break;
    case 4:
      if (n_cbps == 192) return qam16;
      break;
    case 6:
      if (n_cbps == 288) return qam64;
      break;
    default:
      break;
  }
  throw std::invalid_argument("interleaver: no cached permutation for shape");
}

Bits interleave_symbol(std::span<const std::uint8_t> bits, const Mcs& mcs) {
  if (bits.size() != static_cast<std::size_t>(mcs.n_cbps)) {
    throw std::invalid_argument("interleave_symbol: wrong bit count");
  }
  std::vector<int> local;
  const auto perm = permutation_for(mcs.n_cbps, mcs.n_bpsc, local);
  Bits out(bits.size());
  for (std::size_t k = 0; k < bits.size(); ++k) {
    out[static_cast<std::size_t>(perm[k])] = bits[k];
  }
  return out;
}

void deinterleave_symbol_llrs_into(std::span<const double> llrs,
                                   const Mcs& mcs, std::vector<double>& out) {
  if (llrs.size() != static_cast<std::size_t>(mcs.n_cbps)) {
    throw std::invalid_argument("deinterleave_symbol_llrs: wrong count");
  }
  std::vector<int> local;
  const auto perm = permutation_for(mcs.n_cbps, mcs.n_bpsc, local);
  out.resize(llrs.size());
  for (std::size_t k = 0; k < llrs.size(); ++k) {
    out[k] = llrs[static_cast<std::size_t>(perm[k])];
  }
}

std::vector<double> deinterleave_symbol_llrs(std::span<const double> llrs,
                                             const Mcs& mcs) {
  std::vector<double> out;
  deinterleave_symbol_llrs_into(llrs, mcs, out);
  return out;
}

void interleave_into(std::span<const std::uint8_t> bits, const Mcs& mcs,
                     Bits& out) {
  const auto n = static_cast<std::size_t>(mcs.n_cbps);
  if (bits.size() % n != 0) {
    throw std::invalid_argument("interleave: not a whole number of symbols");
  }
  std::vector<int> local;
  const auto perm = permutation_for(mcs.n_cbps, mcs.n_bpsc, local);
  out.resize(bits.size());
  // One symbol at a time through local pointers: a byte store may alias
  // `out` itself, and indexing from the symbol's base keeps the inner
  // loop to a load, an index load and a store.
  for (std::size_t base = 0; base < bits.size(); base += n) {
    std::uint8_t* const dst = out.data() + base;
    const std::uint8_t* const src = bits.data() + base;
    for (std::size_t k = 0; k < n; ++k) dst[perm[k]] = src[k];
  }
}

Bits interleave(std::span<const std::uint8_t> bits, const Mcs& mcs) {
  Bits out;
  interleave_into(bits, mcs, out);
  return out;
}

void deinterleave_llrs_into(std::span<const double> llrs, const Mcs& mcs,
                            std::vector<double>& out) {
  const auto n = static_cast<std::size_t>(mcs.n_cbps);
  if (llrs.size() % n != 0) {
    throw std::invalid_argument(
        "deinterleave_llrs: not a whole number of symbols");
  }
  std::vector<int> local;
  const auto perm = permutation_for(mcs.n_cbps, mcs.n_bpsc, local);
  out.resize(llrs.size());
  for (std::size_t base = 0; base < llrs.size(); base += n) {
    for (std::size_t k = 0; k < n; ++k) {
      out[base + k] = llrs[base + static_cast<std::size_t>(perm[k])];
    }
  }
}

std::vector<double> deinterleave_llrs(std::span<const double> llrs,
                                      const Mcs& mcs) {
  std::vector<double> out;
  deinterleave_llrs_into(llrs, mcs, out);
  return out;
}

}  // namespace silence
