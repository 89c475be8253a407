#include "phy/transmitter.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
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

// The encoder takes data bits six at a time. Six bits are exactly one
// encoder state (after a chunk, the state is the chunk itself), and the
// chunk's 12 mother-code bits hold a whole number of every puncturing
// period (4 at rate 2/3, 6 at rate 3/4), so the bits that survive
// puncturing depend only on (state, chunk). Every 802.11a N_DBPS is a
// multiple of six.
constexpr int kChunkBits = 6;

// Surviving coded bits of a chunk at one code rate, first bit on air in
// bit 0. The code and the puncturer are linear over GF(2): the output
// for (state, chunk) is the output for (state, zeros) XOR the output for
// (zero state, chunk). So the state x chunk table factors into two
// 64-entry tables.
struct EncodeTable {
  std::array<std::uint16_t, kNumStates> from_state{};
  std::array<std::uint16_t, kNumStates> from_chunk{};
  int n_kept = 0;

  unsigned kept(unsigned state, unsigned chunk) const {
    return from_state[state] ^ from_chunk[chunk];
  }
};

// The three rates' tables, built once from the bit-level encoder and
// puncturer they stand in for.
const EncodeTable& encode_table(CodeRate rate) {
  static const std::array<EncodeTable, 3> tables = [] {
    // Mother-code bits of a chunk: bit 2t is output A for data bit t,
    // bit 2t + 1 output B.
    const auto mother = [](int state, int chunk) {
      unsigned word = 0;
      for (int t = 0; t < kChunkBits; ++t) {
        const int bit = (chunk >> t) & 1;
        word |= static_cast<unsigned>(conv_output(state, bit)) << (2 * t);
        state = conv_next_state(state, bit);
      }
      return word;
    };
    std::array<EncodeTable, 3> out;
    for (const CodeRate rate : {CodeRate::kRate1of2, CodeRate::kRate2of3,
                                CodeRate::kRate3of4}) {
      // Puncturing the positions 0..11 themselves lists the survivors.
      Bits positions(2 * kChunkBits);
      std::iota(positions.begin(), positions.end(), std::uint8_t{0});
      const Bits survivors = puncture(positions, rate);
      const auto punctured = [&survivors](unsigned word) {
        unsigned packed = 0;
        for (std::size_t j = 0; j < survivors.size(); ++j) {
          packed |= ((word >> survivors[j]) & 1U) << j;
        }
        return static_cast<std::uint16_t>(packed);
      };
      EncodeTable& table = out[static_cast<std::size_t>(rate)];
      table.n_kept = static_cast<int>(survivors.size());
      for (int v = 0; v < kNumStates; ++v) {
        table.from_state[static_cast<std::size_t>(v)] = punctured(mother(v, 0));
        table.from_chunk[static_cast<std::size_t>(v)] = punctured(mother(0, v));
      }
    }
    return out;
  }();
  return tables[static_cast<std::size_t>(rate)];
}

// Word-level access to bit-per-byte streams. A byte's eight bits as
// eight 0/1 bytes, bit 0 first in memory:
static_assert(std::endian::native == std::endian::little,
              "the word-level TX loops assume a little-endian host");
constexpr std::array<std::uint64_t, 256> kByteBits = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t v = 0; v < 256; ++v) {
    for (int t = 0; t < 8; ++t) table[v] |= ((v >> t) & 1U) << (8 * t);
  }
  return table;
}();

std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

void store_word(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof w);
}

// The inverse of kByteBits: eight 0/1 bytes packed into one byte, first
// byte in bit 0. Byte k's bit lands on bit 56 + k of the product and on
// no other bit of its top byte, and no two terms share a bit, so nothing
// carries.
unsigned pack_bits(std::uint64_t w) {
  return static_cast<unsigned>((w * 0x0102040810204080ULL) >> 56);
}

// Encodes and punctures `data` (a whole number of chunks, at least two)
// into `out`, which holds table.n_kept coded bits per chunk. Every chunk
// but the last has eight data bytes to read and two chunks' worth (>= 16)
// of coded bytes to write ahead of it, so it moves whole words.
void encode_punctured(std::span<const std::uint8_t> data,
                      const EncodeTable& table, std::uint8_t* out) {
  const std::size_t n_chunks = data.size() / kChunkBits;
  const auto n_kept = static_cast<std::size_t>(table.n_kept);
  unsigned state = 0;
  for (std::size_t c = 0; c + 1 < n_chunks; ++c) {
    const unsigned chunk =
        pack_bits(load_word(data.data() + c * kChunkBits)) & (kNumStates - 1);
    const unsigned kept = table.kept(state, chunk);
    store_word(out, kByteBits[kept & 0xFFU]);
    store_word(out + 8, kByteBits[kept >> 8]);
    out += n_kept;
    state = chunk;
  }
  const auto last = data.last(kChunkBits);
  unsigned chunk = 0;
  for (int t = 0; t < kChunkBits; ++t) {
    chunk |= static_cast<unsigned>(last[static_cast<std::size_t>(t)]) << t;
  }
  const unsigned kept = table.kept(state, chunk);
  for (std::size_t t = 0; t < n_kept; ++t) {
    out[t] = static_cast<std::uint8_t>((kept >> t) & 1U);
  }
}

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
  PhyWorkspace& ws = default_phy_workspace();

  TxFrame frame;
  frame.mcs = McsId::of(mcs);
  frame.scrambler_seed = scrambler_seed;
  frame.psdu_octets = psdu.size();

  const int n_sym = symbols_for_psdu(psdu.size(), mcs);
  const auto total_bits =
      static_cast<std::size_t>(n_sym) * static_cast<std::size_t>(mcs.n_dbps);

  // SERVICE (16 zero bits: 7 scrambler-init + 9 reserved) + PSDU + tail +
  // pad, scrambled, with the tail re-zeroed so the encoder terminates in
  // state 0 (802.11a 17.3.5.2). The plaintext is zero outside the PSDU,
  // so the scrambled stream is the PN period repeated with the PSDU's
  // bits (LSB first) XORed in.
  {
    OBS_SPAN("phy.tx.scramble");
    const auto period = Scrambler::period_cached(scrambler_seed);
    Bits& data = frame.data_bits;
    data.resize(total_bits);
    for (std::size_t i = 0; i < total_bits; i += period.size()) {
      const std::size_t n = std::min(period.size(), total_bits - i);
      std::copy_n(period.begin(), n, data.data() + i);
    }
    std::uint8_t* bits = data.data() + kServiceBits;
    for (const std::uint8_t octet : psdu) {
      store_word(bits, load_word(bits) ^ kByteBits[octet]);
      bits += 8;
    }
    std::fill_n(bits, kTailBits, std::uint8_t{0});
    OBS_COUNT_N("phy.tx.scramble.items", data.size());
  }

  {
    OBS_SPAN("phy.tx.encode");
    const EncodeTable& table = encode_table(mcs.code_rate);
    frame.coded_bits.resize(total_bits / kChunkBits *
                            static_cast<std::size_t>(table.n_kept));
    encode_punctured(frame.data_bits, table, frame.coded_bits.data());
    OBS_COUNT_N("phy.tx.encode.items", frame.data_bits.size());
  }

  {
    OBS_SPAN("phy.tx.interleave");
    interleave_into(frame.coded_bits, mcs, ws.interleaved);
    OBS_COUNT_N("phy.tx.interleave.items", ws.interleaved.size());
  }
  {
    OBS_SPAN("phy.tx.map");
    // Map straight into the flat grid storage: one allocation for the
    // whole frame, no per-symbol rows.
    frame.data_grid.resize(static_cast<std::size_t>(n_sym));
    map_bits_into(ws.interleaved, mcs.modulation, frame.data_grid.cells());
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
