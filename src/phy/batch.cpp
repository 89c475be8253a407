#include "phy/batch.h"

#include <stdexcept>
#include <utility>

namespace silence {
namespace {

constexpr std::size_t kT = FftRowTile::kRows;
constexpr auto kN = static_cast<std::size_t>(kFftSize);

// The butterfly inner loop runs over the contiguous row dimension, so the
// compiler vectorizes it with one twiddle broadcast per butterfly. The
// operation sequence per row is FftPlan::run's.
void fft64_rows(double* re, double* im, const Cx* twiddle,
                const std::uint32_t* bitrev) {
  for (std::size_t i = 1; i < kN; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) {
      double* ar = re + i * kT;
      double* br = re + j * kT;
      double* ai = im + i * kT;
      double* bi = im + j * kT;
      for (std::size_t r = 0; r < kT; ++r) {
        std::swap(ar[r], br[r]);
        std::swap(ai[r], bi[r]);
      }
    }
  }
  for (std::size_t len = 2; len <= kN; len <<= 1) {
    const Cx* w = twiddle + (len / 2 - 1);
    for (std::size_t i = 0; i < kN; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double wr = w[j].real();
        const double wi = w[j].imag();
        double* ar = re + (i + j) * kT;
        double* ai = im + (i + j) * kT;
        double* br = re + (i + j + len / 2) * kT;
        double* bi = im + (i + j + len / 2) * kT;
        for (std::size_t r = 0; r < kT; ++r) {
          const double ur = ar[r];
          const double ui = ai[r];
          const double xr = br[r];
          const double xi = bi[r];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          ar[r] = ur + vr;
          ai[r] = ui + vi;
          br[r] = ur - vr;
          bi[r] = ui - vi;
        }
      }
    }
  }
}

// Unused rows are cleared so stale values cannot grow across repeated
// transforms into infinities (rows never mix, so this is for speed only).
void zero_rows_from(FftRowTile& tile, std::size_t rows) {
  if (rows > kT) throw std::invalid_argument("tile: too many rows");
  for (std::size_t k = 0; k < kN; ++k) {
    for (std::size_t r = rows; r < kT; ++r) {
      tile.re[k * kT + r] = 0.0;
      tile.im[k * kT + r] = 0.0;
    }
  }
}

}  // namespace

void load_tile_row(FftRowTile& tile, std::size_t row,
                   std::span<const Cx> values) {
  for (std::size_t k = 0; k < kN; ++k) {
    tile.re[k * kT + row] = values[k].real();
    tile.im[k * kT + row] = values[k].imag();
  }
}

void store_tile_row(const FftRowTile& tile, std::size_t row,
                    std::span<Cx> out) {
  for (std::size_t k = 0; k < kN; ++k) {
    out[k] = Cx(tile.re[k * kT + row], tile.im[k * kT + row]);
  }
}

void fft_tile_rows(FftRowTile& tile, std::size_t rows) {
  zero_rows_from(tile, rows);
  const FftPlan& plan = fft_plan(kN);
  fft64_rows(tile.re.data(), tile.im.data(), plan.forward_twiddles().data(),
             plan.bit_reversal().data());
}

void ifft_tile_rows(FftRowTile& tile, std::size_t rows) {
  zero_rows_from(tile, rows);
  const FftPlan& plan = fft_plan(kN);
  fft64_rows(tile.re.data(), tile.im.data(), plan.inverse_twiddles().data(),
             plan.bit_reversal().data());
  // Same per-element scaling as FftPlan::inverse (operator*=(double)
  // multiplies the real and imaginary parts independently).
  const double scale = 1.0 / static_cast<double>(kN);
  for (std::size_t n = 0; n < kN * kT; ++n) {
    tile.re[n] *= scale;
    tile.im[n] *= scale;
  }
}

}  // namespace silence
