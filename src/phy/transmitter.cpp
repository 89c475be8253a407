#include "phy/transmitter.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/obs.h"
#include "phy/batch.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/scrambler.h"
#include "phy/signal_field.h"

namespace silence {

namespace {
constexpr int kServiceBits = 16;
constexpr int kTailBits = 6;
}  // namespace

double TxFrame::airtime_sec() const {
  return kPreambleDurationSec + kSignalDurationSec +
         num_symbols() * kSymbolDurationSec;
}

int symbols_for_psdu(std::size_t psdu_octets, const Mcs& mcs) {
  const std::size_t payload_bits = kServiceBits + 8 * psdu_octets + kTailBits;
  return static_cast<int>(
      (payload_bits + static_cast<std::size_t>(mcs.n_dbps) - 1) /
      static_cast<std::size_t>(mcs.n_dbps));
}

TxFrame build_frame(std::span<const std::uint8_t> psdu, const Mcs& mcs,
                    std::uint8_t scrambler_seed) {
  if (psdu.empty() || psdu.size() > 4095) {
    throw std::invalid_argument("build_frame: PSDU must be 1..4095 octets");
  }
  OBS_SPAN("phy.tx.frame");
  OBS_COUNT("phy.tx.frames");

  TxFrame frame;
  frame.mcs = McsId::of(mcs);
  frame.scrambler_seed = scrambler_seed;
  frame.psdu_octets = psdu.size();

  const int n_sym = symbols_for_psdu(psdu.size(), mcs);
  const auto total_bits =
      static_cast<std::size_t>(n_sym) * static_cast<std::size_t>(mcs.n_dbps);

  // SERVICE (16 zero bits: 7 scrambler-init + 9 reserved) + PSDU + tail +
  // pad, then scramble everything and re-zero the tail so the encoder
  // terminates in state 0 (802.11a 17.3.5.2).
  Bits plain(total_bits, 0);
  const Bits psdu_bits = bytes_to_bits(psdu);
  std::copy(psdu_bits.begin(), psdu_bits.end(),
            plain.begin() + kServiceBits);

  {
    OBS_SPAN("phy.tx.scramble");
    Scrambler scrambler(scrambler_seed);
    frame.data_bits = scrambler.apply(plain);
    OBS_COUNT_N("phy.tx.scramble.items", frame.data_bits.size());
  }
  const std::size_t tail_at = kServiceBits + psdu_bits.size();
  for (int i = 0; i < kTailBits; ++i) frame.data_bits[tail_at + static_cast<std::size_t>(i)] = 0;

  {
    OBS_SPAN("phy.tx.encode");
    const Bits mother = convolutional_encode(frame.data_bits);
    frame.coded_bits = puncture(mother, mcs.code_rate);
    OBS_COUNT_N("phy.tx.encode.items", frame.data_bits.size());
  }

  Bits interleaved;
  {
    OBS_SPAN("phy.tx.interleave");
    interleaved = interleave(frame.coded_bits, mcs);
    OBS_COUNT_N("phy.tx.interleave.items", interleaved.size());
  }
  {
    OBS_SPAN("phy.tx.map");
    // Map straight into the flat grid storage: one allocation for the
    // whole frame, no per-symbol rows.
    frame.data_grid.resize(static_cast<std::size_t>(n_sym));
    map_bits_into(interleaved, mcs.modulation, frame.data_grid.cells());
    OBS_COUNT_N("phy.tx.map.items", frame.data_grid.cells().size());
  }
  OBS_COUNT_N("phy.tx.symbols", n_sym);
  return frame;
}

namespace {

// Allocates the full burst and writes the preamble and SIGNAL symbol; the
// data-symbol region is zero.
CxVec frame_samples_prefix(const TxFrame& frame) {
  if (!frame.mcs.valid()) {
    throw std::invalid_argument("frame_to_samples: empty frame");
  }
  // The preamble is a pure function of nothing; build it once.
  static const CxVec& preamble = *new CxVec(build_preamble());

  const std::size_t total =
      static_cast<std::size_t>(kPreambleSamples) +
      static_cast<std::size_t>(kSymbolSamples) * (1 + frame.data_grid.size());
  CxVec samples(total);
  const std::span<Cx> out(samples);
  std::copy(preamble.begin(), preamble.end(), out.begin());

  // SIGNAL symbol (BPSK, rate 1/2, not scrambled), pilot index 0.
  const Mcs& bpsk = mcs_for_rate(6);
  const Bits signal_bits =
      encode_signal_bits(*frame.mcs, static_cast<int>(frame.psdu_octets));
  const Bits signal_coded = convolutional_encode(signal_bits);
  const Bits signal_inter = interleave(signal_coded, bpsk);
  std::array<Cx, kNumDataSubcarriers> signal_points;
  map_bits_into(signal_inter, Modulation::kBpsk, signal_points);
  std::array<Cx, kFftSize> bins;
  assemble_frequency_bins_into(signal_points, 0, bins);
  bins_to_time_into(bins, out.subspan(kPreambleSamples, kSymbolSamples));
  return samples;
}

}  // namespace

CxVec frame_to_samples(const TxFrame& frame) {
  return frame_to_samples(frame, default_phy_workspace());
}

CxVec frame_to_samples(const TxFrame& frame, PhyWorkspace& ws) {
  CxVec samples = frame_samples_prefix(frame);
  const std::span<Cx> out(samples);
  const auto n_sym = static_cast<std::size_t>(frame.num_symbols());

  // Data symbols: pilot indices 1..n, a tile of symbols per IFFT pass,
  // each body written into the burst followed by its cyclic prefix (the
  // body's last 16 samples, as bins_to_time_into does).
  std::array<Cx, kFftSize> bins;
  {
    OBS_SPAN("phy.tx.ifft");
    for (std::size_t s0 = 0; s0 < n_sym; s0 += FftRowTile::kRows) {
      const std::size_t rows = std::min(FftRowTile::kRows, n_sym - s0);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t s = s0 + r;
        assemble_frequency_bins_into(frame.data_grid[s],
                                     static_cast<int>(s) + 1, bins);
        load_tile_row(ws.tile, r, bins);
      }
      ifft_tile_rows(ws.tile, rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const auto symbol = out.subspan(
            static_cast<std::size_t>(kPreambleSamples) +
                static_cast<std::size_t>(kSymbolSamples) * (1 + s0 + r),
            kSymbolSamples);
        const auto body = symbol.subspan(kCpLength);
        store_tile_row(ws.tile, r, body);
        std::copy(body.end() - kCpLength, body.end(), symbol.begin());
      }
    }
  }
  OBS_COUNT_N("phy.tx.ifft.items",
              n_sym * static_cast<std::size_t>(kSymbolSamples));
  OBS_COUNT_N("phy.tx.samples", samples.size());
  return samples;
}

}  // namespace silence
