// 802.11a block interleaver (17.3.5.7): operates on one OFDM symbol of
// N_CBPS coded bits via the standard two-permutation rule.
//
// The interleaver is what makes erasure Viterbi decoding effective: the
// N_BPSC zero-LLR bits of one silence symbol land in *adjacent* positions
// of the modulated symbol stream but are spread across the codeword after
// deinterleaving, so the convolutional code sees isolated erasures rather
// than a burst.
#pragma once

#include <span>
#include <vector>

#include "common/bits.h"
#include "phy/params.h"

namespace silence {

// Interleaving permutation for one OFDM symbol: result[k] is the output
// position of input bit k (k = 0 .. n_cbps-1).
std::vector<int> interleaver_permutation(int n_cbps, int n_bpsc);

// The same permutation served from a process-wide cache. Only the four
// standard 802.11a shapes (48/1, 96/2, 192/4, 288/6) are cached; anything
// else throws. The span stays valid for the process lifetime.
std::span<const int> interleaver_permutation_cached(int n_cbps, int n_bpsc);

// Interleaves one OFDM symbol worth of bits. `bits.size()` must equal
// n_cbps of `mcs`.
Bits interleave_symbol(std::span<const std::uint8_t> bits, const Mcs& mcs);

// Deinterleaves one OFDM symbol worth of soft values.
std::vector<double> deinterleave_symbol_llrs(std::span<const double> llrs,
                                             const Mcs& mcs);

// Whole-stream helpers: input length must be a multiple of n_cbps; each
// n_cbps block is (de)interleaved independently.
Bits interleave(std::span<const std::uint8_t> bits, const Mcs& mcs);
std::vector<double> deinterleave_llrs(std::span<const double> llrs,
                                      const Mcs& mcs);

// Allocation-free variants writing into a caller buffer (resized to the
// input length; capacity is reused across calls).
void interleave_into(std::span<const std::uint8_t> bits, const Mcs& mcs,
                     Bits& out);
void deinterleave_symbol_llrs_into(std::span<const double> llrs,
                                   const Mcs& mcs, std::vector<double>& out);
void deinterleave_llrs_into(std::span<const double> llrs, const Mcs& mcs,
                            std::vector<double>& out);

}  // namespace silence
