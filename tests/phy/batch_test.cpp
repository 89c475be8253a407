// Exactness suite for the row-tiled FFT/IFFT kernels (phy/batch.h) and
// the chain stages built on them.
//
// The kernels' contract is bit-identity, not closeness: every comparison
// here is on the raw IEEE-754 bytes (memcmp), never a tolerance. The
// oracle is the scalar per-symbol transform, fft_plan(64), and the
// bit-serial LFSR scrambler.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/cos_link.h"
#include "phy/batch.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/scrambler.h"
#include "phy/transmitter.h"

namespace silence {
namespace {

constexpr auto kN = static_cast<std::size_t>(kFftSize);
constexpr auto kSym = static_cast<std::size_t>(kSymbolSamples);

bool bit_equal(const Cx& a, const Cx& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

::testing::AssertionResult spans_bit_equal(std::span<const Cx> a,
                                           std::span<const Cx> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bit_equal(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Bytes random_psdu(Rng& rng, std::size_t total) {
  Bytes psdu = rng.bytes(total - 4);
  append_fcs(psdu);
  return psdu;
}

std::vector<CxVec> random_rows(Rng& rng, std::size_t rows) {
  std::vector<CxVec> out(rows, CxVec(kN));
  for (auto& row : out) {
    for (auto& x : row) x = rng.complex_gaussian(1.0);
  }
  return out;
}

// Runs `rows` inputs through one tile pass and checks every row against
// the scalar plan on that row alone. The tile starts out holding the
// previous pass's values, as it does inside the chain.
void expect_tile_matches_plan(FftRowTile& tile, bool inverse,
                              const std::vector<CxVec>& inputs) {
  const std::size_t rows = inputs.size();
  for (std::size_t r = 0; r < rows; ++r) load_tile_row(tile, r, inputs[r]);
  if (inverse) {
    ifft_tile_rows(tile, rows);
  } else {
    fft_tile_rows(tile, rows);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    CxVec expect = inputs[r];
    if (inverse) {
      fft_plan(kN).inverse(expect);
    } else {
      fft_plan(kN).forward(expect);
    }
    CxVec got(kN);
    store_tile_row(tile, r, got);
    EXPECT_TRUE(spans_bit_equal(got, expect))
        << "row " << r << " of " << rows << (inverse ? " (ifft)" : " (fft)");
  }
}

TEST(PhyBatch, TiledFftRowsMatchFftPlanBitForBit) {
  Rng rng(64);
  FftRowTile tile;
  for (std::size_t rows = 1; rows <= FftRowTile::kRows; ++rows) {
    expect_tile_matches_plan(tile, /*inverse=*/false, random_rows(rng, rows));
  }
  // Ragged tail after a full tile: stale rows must not leak in.
  expect_tile_matches_plan(tile, false, random_rows(rng, FftRowTile::kRows));
  expect_tile_matches_plan(tile, false, random_rows(rng, 3));
}

TEST(PhyBatch, TiledIfftRowsMatchFftPlanBitForBit) {
  Rng rng(46);
  FftRowTile tile;
  for (std::size_t rows = 1; rows <= FftRowTile::kRows; ++rows) {
    expect_tile_matches_plan(tile, /*inverse=*/true, random_rows(rng, rows));
  }
  expect_tile_matches_plan(tile, true, random_rows(rng, FftRowTile::kRows));
  expect_tile_matches_plan(tile, true, random_rows(rng, 5));
}

// A faded + noisy burst that still decodes: the worst realistic input
// (denormal-free but fully irregular mantissas everywhere).
CxVec faded_burst(int rate, std::size_t octets, std::uint64_t seed) {
  Rng rng(seed);
  const Mcs& mcs = mcs_for_rate(rate);
  const Bytes psdu = random_psdu(rng, octets);
  const CxVec samples = frame_to_samples(build_frame(psdu, mcs));
  MultipathProfile profile;
  FadingChannel channel(profile, seed * 7919 + 1);
  const double noise_var =
      noise_var_for_measured_snr(channel, mcs.min_required_snr_db + 8.0);
  return channel.transmit(samples, noise_var, rng);
}

TEST(PhyBatch, FrontEndMatchesScalarBitForBit) {
  // Every data and trailer row of the front end equals the scalar
  // per-symbol FFT (time_to_bins_into) of the CFO-corrected burst.
  PhyWorkspace ws;
  for (const int rate : {6, 24, 54}) {
    CxVec burst = faded_burst(rate, 700, static_cast<std::uint64_t>(rate));
    // Trailer coverage: append two whole symbols of channel-looking noise.
    Rng trailer_rng(99);
    for (std::size_t i = 0; i < 2 * kSym; ++i) {
      burst.push_back(trailer_rng.complex_gaussian(0.01));
    }
    const FrontEndResult fe = receiver_front_end(burst, ws);
    ASSERT_TRUE(fe.signal.has_value()) << "rate " << rate;
    ASSERT_EQ(fe.trailer_bins.size(), 2u);
    const std::span<const Cx> corrected(ws.corrected);
    std::array<Cx, kFftSize> bins;
    const std::size_t data_start = kPreambleSamples + kSym;
    for (std::size_t s = 0; s < fe.data_bins.size(); ++s) {
      time_to_bins_into(corrected.subspan(data_start + s * kSym, kSym), bins);
      ASSERT_TRUE(spans_bit_equal(fe.data_bins[s], bins))
          << "data symbol " << s << " rate " << rate;
    }
    const std::size_t trailer_start =
        data_start + fe.data_bins.size() * kSym;
    for (std::size_t s = 0; s < fe.trailer_bins.size(); ++s) {
      time_to_bins_into(corrected.subspan(trailer_start + s * kSym, kSym),
                        bins);
      ASSERT_TRUE(spans_bit_equal(fe.trailer_bins[s], bins))
          << "trailer symbol " << s << " rate " << rate;
    }
  }
}

// The scalar per-symbol reference for the data region of a burst: every
// symbol through bins_to_time_into (fft_plan(64) inverse plus CP).
CxVec scalar_data_region(const TxFrame& frame) {
  CxVec out(frame.data_grid.size() * kSym);
  std::array<Cx, kFftSize> bins;
  for (std::size_t s = 0; s < frame.data_grid.size(); ++s) {
    assemble_frequency_bins_into(frame.data_grid[s], static_cast<int>(s) + 1,
                                 bins);
    bins_to_time_into(bins, std::span(out).subspan(s * kSym, kSym));
  }
  return out;
}

::testing::AssertionResult data_region_matches_scalar(const TxFrame& frame,
                                                      const CxVec& samples) {
  const std::size_t data_start = kPreambleSamples + kSym;
  return spans_bit_equal(std::span(samples).subspan(data_start),
                         scalar_data_region(frame));
}

TEST(PhyBatch, TransmitMatchesScalarBitForBit) {
  PhyWorkspace ws;
  // Symbol counts around the 16-row tile boundary: below, exact multiple,
  // one over, and a large ragged count.
  for (const std::size_t octets : {40u, 120u, 340u, 1024u}) {
    Rng rng(octets);
    const Bytes psdu = random_psdu(rng, octets);
    for (const int rate : {6, 24, 54}) {
      const TxFrame frame = build_frame(psdu, mcs_for_rate(rate));
      EXPECT_TRUE(data_region_matches_scalar(frame, frame_to_samples(frame, ws)))
          << "rate " << rate << " octets " << octets;
    }
  }
}

TEST(PhyBatch, CosTransmitMatchesScalarBitForBit) {
  // Silenced grid cells go through the tiled IFFT like any other bin.
  Rng rng(808);
  for (const int rate : {6, 24, 54}) {
    const Bytes psdu = random_psdu(rng, 500);
    const Bits control = rng.bits(40);
    CosTxConfig config;
    config.mcs = McsId::for_rate(rate);
    config.control_subcarriers = {4, 9, 14, 19, 24, 29, 34, 39};
    const CosTxPacket tx = cos_transmit(psdu, control, config);
    ASSERT_GT(tx.plan.silence_count, 0u);
    EXPECT_TRUE(data_region_matches_scalar(tx.frame, tx.samples))
        << "rate " << rate;
  }
}

TEST(PhyBatch, CosReceiveMatchesScalarBitForBit) {
  // Through a faded channel with embedded silences: the CoS receiver's
  // front-end rows are the scalar per-symbol FFTs, and a decoded packet's
  // descrambled stream is the LFSR applied to the transmitted one.
  PhyWorkspace ws;
  Rng rng(70);
  for (const int rate : {9, 24, 48}) {
    const Mcs& mcs = mcs_for_rate(rate);
    CosTxConfig tx_config;
    tx_config.mcs = McsId::of(mcs);
    tx_config.control_subcarriers = {4, 9, 14, 19, 24, 29, 34, 39};
    const CosTxPacket tx =
        cos_transmit(random_psdu(rng, 800), rng.bits(24), tx_config);
    FadingChannel channel(MultipathProfile{},
                          static_cast<std::uint64_t>(rate) * 104729 + 3);
    const double noise_var =
        noise_var_for_measured_snr(channel, mcs.min_required_snr_db + 10.0);
    const CxVec burst = channel.transmit(tx.samples, noise_var, rng);

    CosRxConfig rx_config;
    rx_config.control_subcarriers = tx_config.control_subcarriers;
    const CosRxPacket rx =
        cos_receive(burst, rx_config, Modulation::kQam16, ws);
    ASSERT_TRUE(rx.data_ok) << "rate " << rate;
    const std::span<const Cx> corrected(ws.corrected);
    std::array<Cx, kFftSize> bins;
    for (std::size_t s = 0; s < rx.fe.data_bins.size(); ++s) {
      time_to_bins_into(
          corrected.subspan(kPreambleSamples + (1 + s) * kSym, kSym), bins);
      ASSERT_TRUE(spans_bit_equal(rx.fe.data_bins[s], bins))
          << "data symbol " << s << " rate " << rate;
    }
    EXPECT_EQ(rx.decode.info_bits,
              Scrambler(tx.frame.scrambler_seed).apply(tx.frame.data_bits));
  }
}

TEST(PhyBatch, FastDescrambleMatchesLfsrForEverySeed) {
  Rng rng(31337);
  const Bits plain = [&] {
    Bits b(500);
    for (auto& v : b) v = rng.uniform() < 0.5 ? 1 : 0;
    return b;
  }();
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    Scrambler reference(seed);
    const Bits expect = reference.apply(plain);
    Bits got;
    Scrambler::apply_with_seed_into(seed, plain, got);
    EXPECT_EQ(got, expect) << "seed " << static_cast<int>(seed);
  }
  EXPECT_THROW(Scrambler::period_cached(0), std::invalid_argument);
}

TEST(PhyBatch, DecodeMatchesScalarBitForBit) {
  // The decoder descrambles with the cached-period XOR; its output must be
  // the bit-serial LFSR applied to the transmitted scrambled stream.
  for (const int rate : {9, 24, 48}) {
    Rng rng(static_cast<std::uint64_t>(rate) + 10);
    const Bytes psdu = random_psdu(rng, 900);
    const TxFrame frame = build_frame(psdu, mcs_for_rate(rate), 0x2B);
    const FrontEndResult fe = receiver_front_end(frame_to_samples(frame));
    ASSERT_TRUE(fe.signal.has_value());
    const DecodeResult decode = decode_data_symbols(
        fe, *fe.signal->mcs, fe.signal->length_octets, nullptr);
    ASSERT_TRUE(decode.crc_ok) << "rate " << rate;
    EXPECT_EQ(decode.scrambler_seed, 0x2B);
    EXPECT_EQ(decode.info_bits, Scrambler(0x2B).apply(frame.data_bits));
    EXPECT_EQ(decode.psdu, psdu);
  }
}

TEST(PhyBatch, DecodeWithSilenceMaskMatchesScalar) {
  // Same oracle with EVD erasures injected on a scattering of cells: the
  // code absorbs them and the descrambled stream is still the LFSR's.
  Rng rng(42);
  const Bytes psdu = random_psdu(rng, 600);
  const TxFrame frame = build_frame(psdu, mcs_for_rate(24), 0x5D);
  const FrontEndResult fe = receiver_front_end(frame_to_samples(frame));
  ASSERT_TRUE(fe.signal.has_value());
  SilenceMask mask(fe.data_bins.size(),
                   std::vector<std::uint8_t>(kNumDataSubcarriers, 0));
  for (auto& row : mask) {
    for (int i = 0; i < 4; ++i) {
      row[rng.uniform_int(0, row.size() - 1)] = 1;
    }
  }
  const DecodeResult decode = decode_data_symbols(
      fe, *fe.signal->mcs, fe.signal->length_octets, &mask);
  ASSERT_TRUE(decode.crc_ok);
  EXPECT_EQ(decode.info_bits, Scrambler(0x5D).apply(frame.data_bits));
  EXPECT_EQ(decode.psdu, psdu);
}

}  // namespace
}  // namespace silence
