// Radix-2 iterative FFT used for OFDM modulation/demodulation.
//
// 802.11a works on 64-point transforms; the implementation supports any
// power-of-two size so tests can exercise it generically.
//
// Transforms run off cached FftPlan objects (precomputed twiddle factors
// and bit-reversal permutation), so the hot path does no trigonometry and
// no allocation. Plans are built once per size and shared process-wide;
// fft_plan() is thread-safe and lock-free after first use of a size.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace silence {

using Cx = std::complex<double>;
using CxVec = std::vector<Cx>;

// Precomputed tables for one transform size. The twiddle factors are
// generated with the same repeated-multiplication recurrence the butterfly
// loop historically used, so plan-driven transforms are bit-identical to
// the original per-call computation.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place transforms over exactly size() elements.
  void forward(std::span<Cx> data) const { run(data, twiddle_fwd_); }
  void inverse(std::span<Cx> data) const {
    run(data, twiddle_inv_);
    const double scale = 1.0 / static_cast<double>(n_);
    for (Cx& x : data) x *= scale;
  }

  // Table access for external kernels (the row-tiled FFTs in phy/batch.h)
  // that must replay the exact butterfly sequence on their own storage
  // layout.
  // Stage-major layout: the stage with butterfly span `len` stores its
  // len/2 factors at offset len/2 - 1.
  std::span<const Cx> forward_twiddles() const { return twiddle_fwd_; }
  std::span<const Cx> inverse_twiddles() const { return twiddle_inv_; }
  std::span<const std::uint32_t> bit_reversal() const { return bitrev_; }

 private:
  void run(std::span<Cx> data, const std::vector<Cx>& twiddle) const;

  std::size_t n_;
  // Stage-major twiddles: the stage with butterfly span `len` stores its
  // len/2 factors at offset len/2 - 1 (total n - 1 entries).
  std::vector<Cx> twiddle_fwd_;
  std::vector<Cx> twiddle_inv_;
  std::vector<std::uint32_t> bitrev_;
};

// Shared plan for `n` (must be a power of two). The returned reference is
// valid for the lifetime of the process.
const FftPlan& fft_plan(std::size_t n);

// In-place decimation-in-time FFT. `data.size()` must be a power of two.
// `inverse` selects the inverse transform, which applies the 1/N scaling
// (so ifft(fft(x)) == x).
void fft_in_place(std::span<Cx> data, bool inverse);

// Out-of-place conveniences.
CxVec fft(std::span<const Cx> data);
CxVec ifft(std::span<const Cx> data);

// Total energy sum |x|^2 of a vector.
double energy(std::span<const Cx> data);

}  // namespace silence
