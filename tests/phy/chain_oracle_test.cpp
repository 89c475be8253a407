// Oracles for the two shortcuts the per-packet PHY takes:
//
//  - build_frame's table-driven coding chain against the bit-level
//    composition it replaces (Scrambler::apply -> convolutional_encode ->
//    puncture -> interleave -> map_symbol), for every MCS;
//  - receiver_front_end, which rotates the data region only after SIGNAL
//    parses and fits, against a reference that rotates the whole burst
//    twice up front.
//
// Both are exact: every comparison is ==, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "channel/impairments.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/puncture.h"
#include "phy/receiver.h"
#include "phy/scrambler.h"
#include "phy/sync.h"
#include "phy/transmitter.h"

namespace silence {
namespace {

constexpr std::size_t kSym = kSymbolSamples;

// --- TX: build_frame vs the bit-level composition ----------------------

struct BitLevelFrame {
  Bits data_bits;
  Bits coded_bits;
  CxVec points;
};

BitLevelFrame bit_level_frame(std::span<const std::uint8_t> psdu,
                              const Mcs& mcs, std::uint8_t seed) {
  const auto total_bits =
      static_cast<std::size_t>(symbols_for_psdu(psdu.size(), mcs)) *
      static_cast<std::size_t>(mcs.n_dbps);
  Bits plain(total_bits, 0);
  const Bits psdu_bits = bytes_to_bits(psdu);
  std::copy(psdu_bits.begin(), psdu_bits.end(), plain.begin() + 16);
  BitLevelFrame ref;
  ref.data_bits = Scrambler(seed).apply(plain);
  std::fill_n(ref.data_bits.begin() +
                  static_cast<std::ptrdiff_t>(16 + psdu_bits.size()),
              6, std::uint8_t{0});
  ref.coded_bits =
      puncture(convolutional_encode(ref.data_bits), mcs.code_rate);
  // map_symbol point by point: map_bits reads the constellation table.
  const Bits interleaved = interleave(ref.coded_bits, mcs);
  const auto n = static_cast<std::size_t>(mcs.n_bpsc);
  for (std::size_t i = 0; i < interleaved.size(); i += n) {
    ref.points.push_back(
        map_symbol(std::span(interleaved).subspan(i, n), mcs.modulation));
  }
  return ref;
}

class BuildFrameOracle : public ::testing::TestWithParam<int> {};

TEST_P(BuildFrameOracle, MatchesBitLevelChain) {
  const Mcs& mcs = mcs_for_rate(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::size_t> lengths = {1, 2, 3, 1500, 4095};
  for (int i = 0; i < 6; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(4, 4094)));
  }
  for (const std::size_t length : lengths) {
    const Bytes psdu = rng.bytes(length);
    for (const std::uint8_t seed : {std::uint8_t{1}, std::uint8_t{0x5D},
                                    std::uint8_t{127}}) {
      const TxFrame frame = build_frame(psdu, mcs, seed);
      const BitLevelFrame ref = bit_level_frame(psdu, mcs, seed);
      ASSERT_EQ(frame.data_bits, ref.data_bits)
          << "length " << length << " seed " << int{seed};
      ASSERT_EQ(frame.coded_bits, ref.coded_bits)
          << "length " << length << " seed " << int{seed};
      const auto cells = frame.data_grid.cells();
      ASSERT_TRUE(std::equal(cells.begin(), cells.end(), ref.points.begin(),
                             ref.points.end()))
          << "length " << length << " seed " << int{seed};
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRates, BuildFrameOracle,
                         ::testing::Values(6, 9, 12, 18, 24, 36, 48, 54));

// --- RX: SIGNAL-gated rotation vs rotating the whole burst twice -------

struct ReferenceFrontEnd {
  double cfo_hz = 0.0;
  double noise_var = 0.0;
  std::vector<CxVec> data_bins;
  std::vector<CxVec> trailer_bins;
};

// The front end with both CFO rotations over the whole burst first.
// `n_sym` data symbols are read when SIGNAL passes (nullopt: it did not,
// and only the SIGNAL symbol feeds the noise estimate).
ReferenceFrontEnd reference_front_end(std::span<const Cx> raw,
                                      std::optional<int> n_sym) {
  CxVec x(raw.begin(), raw.end());
  const std::span<Cx> all(x);
  const double coarse = estimate_cfo_coarse(all.first(kStfSamples));
  correct_cfo(all, coarse);
  const double fine =
      estimate_cfo_fine(all.subspan(kStfSamples, kLtfSamples));
  correct_cfo(all, fine);

  ReferenceFrontEnd ref;
  ref.cfo_hz = coarse + fine;
  const auto channel =
      estimate_channel(all.subspan(kStfSamples, kLtfSamples));
  double noise_sum = pilot_noise_estimate(
      time_to_bins(all.subspan(kPreambleSamples, kSym)), channel, 0);
  int noise_count = 1;
  if (n_sym) {
    std::size_t at = kPreambleSamples + kSym;
    for (int s = 0; s < *n_sym; ++s, at += kSym) {
      ref.data_bins.push_back(time_to_bins(all.subspan(at, kSym)));
      noise_sum += pilot_noise_estimate(ref.data_bins.back(), channel, s + 1);
      ++noise_count;
    }
    for (; at + kSym <= x.size(); at += kSym) {
      ref.trailer_bins.push_back(time_to_bins(all.subspan(at, kSym)));
    }
  }
  ref.noise_var = noise_sum / noise_count;
  return ref;
}

void expect_rows_equal(const SymbolGrid& got, const std::vector<CxVec>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_TRUE(std::equal(got[s].begin(), got[s].end(), want[s].begin(),
                           want[s].end()))
        << what << " row " << s;
  }
}

// A decodable burst under `cfo_hz` of oscillator offset plus AWGN, with
// two trailer symbols of noise after the data.
CxVec impaired_burst(const TxFrame& frame, double cfo_hz,
                     std::uint64_t seed) {
  CxVec samples = frame_to_samples(frame);
  Rng rng(seed);
  for (std::size_t i = 0; i < 2 * kSym; ++i) {
    samples.push_back(rng.complex_gaussian(0.01));
  }
  ImpairmentProfile profile;
  profile.cfo_hz = cfo_hz;
  RadioImpairments radio(profile, seed);
  CxVec impaired = radio.apply(samples);
  const double noise_var = noise_var_for_snr_db(25.0);
  for (Cx& x : impaired) x += rng.complex_gaussian(noise_var);
  return impaired;
}

TEST(FrontEndRotation, MatchesWholeBurstRotationUnderCfo) {
  Rng rng(40);
  for (const double cfo : {-40e3, 40e3}) {
    for (const int rate : {6, 24, 54}) {
      const Mcs& mcs = mcs_for_rate(rate);
      Bytes psdu = rng.bytes(600);
      append_fcs(psdu);
      const TxFrame frame = build_frame(psdu, mcs);
      const CxVec burst =
          impaired_burst(frame, cfo, static_cast<std::uint64_t>(rate));
      PhyWorkspace ws;
      const FrontEndResult fe = receiver_front_end(burst, ws);
      ASSERT_TRUE(fe.signal.has_value()) << "cfo " << cfo << " rate " << rate;
      ASSERT_EQ(fe.signal->length_octets, static_cast<int>(psdu.size()));
      const ReferenceFrontEnd ref =
          reference_front_end(burst, frame.num_symbols());
      EXPECT_EQ(fe.cfo_hz, ref.cfo_hz);
      EXPECT_EQ(fe.noise_var, ref.noise_var);
      expect_rows_equal(fe.data_bins, ref.data_bins, "data");
      expect_rows_equal(fe.trailer_bins, ref.trailer_bins, "trailer");
      EXPECT_EQ(fe.trailer_bins.size(), 2u);
      EXPECT_TRUE(receive_packet(burst, ws).ok);
    }
  }
}

TEST(FrontEndRotation, FailedSignalStopsAfterTheSignalSymbol) {
  Rng rng(41);
  Bytes psdu = rng.bytes(300);
  append_fcs(psdu);
  const TxFrame frame = build_frame(psdu, mcs_for_rate(36));
  CxVec burst = impaired_burst(frame, 40e3, 3);
  // A silent SIGNAL symbol demaps to all-zero LLRs, which decode to a
  // rate field no MCS has.
  std::fill_n(burst.begin() + kPreambleSamples, kSym, Cx{0.0, 0.0});
  const FrontEndResult fe = receiver_front_end(burst);
  ASSERT_TRUE(fe.preamble_ok);
  ASSERT_FALSE(fe.signal.has_value());
  const ReferenceFrontEnd ref = reference_front_end(burst, std::nullopt);
  EXPECT_EQ(fe.cfo_hz, ref.cfo_hz);
  EXPECT_EQ(fe.noise_var, ref.noise_var);
  EXPECT_TRUE(fe.data_bins.empty());
  EXPECT_TRUE(fe.trailer_bins.empty());
}

TEST(FrontEndRotation, BurstCutShortOfItsLengthIsRejected) {
  Rng rng(42);
  Bytes psdu = rng.bytes(300);
  append_fcs(psdu);
  const TxFrame frame = build_frame(psdu, mcs_for_rate(12));
  const CxVec full = impaired_burst(frame, -40e3, 4);
  // One sample short of the last data symbol.
  const std::size_t needed =
      kPreambleSamples + kSym * static_cast<std::size_t>(1 + frame.num_symbols());
  const std::span<const Cx> cut = std::span(full).first(needed - 1);
  const FrontEndResult fe = receiver_front_end(cut);
  ASSERT_TRUE(fe.preamble_ok);
  EXPECT_FALSE(fe.signal.has_value());
  const ReferenceFrontEnd ref = reference_front_end(cut, std::nullopt);
  EXPECT_EQ(fe.cfo_hz, ref.cfo_hz);
  EXPECT_EQ(fe.noise_var, ref.noise_var);
  EXPECT_TRUE(fe.data_bins.empty());
  // The same burst at full length decodes.
  EXPECT_TRUE(receive_packet(std::span(full).first(needed)).ok);
}

}  // namespace
}  // namespace silence
