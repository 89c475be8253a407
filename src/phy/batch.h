// Row-tiled 64-point FFT/IFFT kernels for the data and trailer symbols.
//
// The receiver's data/trailer FFT loop and the transmitter's data IFFT
// loop run through these instead of one FftPlan call per symbol. A tile
// (FftRowTile, phy/workspace.h) holds up to FftRowTile::kRows symbols as
// split re/im planes, bin-major and row-minor, so each butterfly is a
// contiguous kRows-wide vector operation sharing one twiddle load.
//
// Exactness: the butterflies replay FftPlan's bit-reversal swaps, stage
// order and twiddle tables, and the textbook complex multiply
// (r = ac - bd, i = ad + bc) libstdc++ inlines, so every row is
// bit-identical to fft_plan(64) run on that symbol alone. The preamble
// and SIGNAL symbols still go through FftPlan, which is why the build
// disables FMA contraction (top-level CMakeLists.txt).
#pragma once

#include <cstddef>
#include <span>

#include "dsp/fft.h"
#include "phy/workspace.h"

namespace silence {

// Copies 64 values into row `row` of the tile.
void load_tile_row(FftRowTile& tile, std::size_t row,
                   std::span<const Cx> values);
// Copies row `row` of the tile into `out` (64 values).
void store_tile_row(const FftRowTile& tile, std::size_t row,
                    std::span<Cx> out);

// In-place forward FFT of rows [0, rows); rows from `rows` on are zeroed.
void fft_tile_rows(FftRowTile& tile, std::size_t rows);
// In-place inverse FFT with FftPlan::inverse's 1/64 scaling, same rows.
void ifft_tile_rows(FftRowTile& tile, std::size_t rows);

// Older name of the PHY workspace, kept for external call sites that
// still construct a `PhyBatch` and hand it to net::Station.
using PhyBatch = PhyWorkspace;

}  // namespace silence
