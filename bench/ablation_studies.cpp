// Ablations of the design choices DESIGN.md §4 calls out:
//   1. k — bits per interval: capacity vs per-message reliability;
//   2. EVD vs error-only decoding under silence load;
//   3. detector threshold margin: miss rate vs false alarms;
//   4. hardware impairments: how a TX EVM floor shrinks the silence
//      budget (closing part of the absolute gap to the paper's R_m).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "channel/impairments.h"
#include "common/crc32.h"
#include "core/cos_link.h"
#include "sim/link.h"
#include "sim/session.h"

using namespace silence;

namespace {

const std::vector<int> kMidControl = {8, 12, 16, 20, 24, 28, 32, 36};

// --- 1. k sweep ---------------------------------------------------------
void ablate_k() {
  std::printf("(1) bits per interval k: capacity vs delivery\n");
  std::printf("%4s %16s %16s %14s\n", "k", "bits_per_packet",
              "packets_perfect", "bit_accuracy");
  for (int k = 2; k <= 6; ++k) {
    std::size_t bits_sent = 0, bits_ok = 0;
    int perfect = 0, packets = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      LinkConfig lc;
      lc.snr_db = 16.0;
      lc.snr_is_measured = true;
      lc.channel_seed = seed;
      lc.noise_seed = seed * 31;
      Link link(lc);
      SessionConfig session_config;
      session_config.profile.bits_per_interval = k;
      CosSession session(link, session_config);
      Rng rng(seed * 100 + static_cast<std::uint64_t>(k));
      const Bytes psdu = make_test_psdu(1024, rng);
      for (int p = 0; p < 4; ++p) {
        const Bits control = rng.bits(600);
        const PacketReport report = session.send_packet(psdu, control);
        if (p == 0) continue;  // bootstrap on the default subcarrier set
        ++packets;
        bits_sent += report.control_bits_sent;
        bits_ok += report.control_bits_correct;
        perfect += report.control_ok;
      }
    }
    std::printf("%4d %16.1f %13d/%02d %14.3f\n", k,
                static_cast<double>(bits_sent) / packets, perfect, packets,
                bits_sent ? static_cast<double>(bits_ok) / bits_sent : 0.0);
  }
  std::printf(
      "  larger k carries more bits per silence symbol but needs longer\n"
      "  gaps (fewer silences fit) and loses more bits per detection slip.\n\n");
}

// --- 2. EVD vs error-only ------------------------------------------------
void ablate_evd() {
  std::printf("(2) erasure Viterbi decoding vs error-only decoding\n");
  std::printf("%8s %10s %12s %14s\n", "rate", "margin_dB", "EVD_PRR",
              "error_only_PRR");
  for (int rate : {24, 36, 54}) {
    for (double margin : {3.0, 6.0}) {
      int evd = 0, error_only = 0;
      const int trials = 25;
      for (int t = 0; t < trials; ++t) {
        Rng rng(static_cast<std::uint64_t>(t) * 13 + 7);
        const Mcs& mcs = mcs_for_rate(rate);
        Bytes psdu = rng.bytes(1020);
        append_fcs(psdu);
        const Bits control = rng.bits(400);
        CosTxConfig txc;
        txc.mcs = McsId::of(mcs);
        txc.control_subcarriers = kMidControl;
        const CosTxPacket tx = cos_transmit(psdu, control, txc);
        CxVec samples = tx.samples;
        const double nv =
            noise_var_for_snr_db(mcs.min_required_snr_db + margin);
        rng.add_complex_gaussian(samples, nv);
        const FrontEndResult fe = receiver_front_end(samples);
        if (!fe.signal) continue;
        evd += decode_data_symbols(fe, mcs, 1024, &tx.plan.mask).crc_ok;
        error_only += decode_data_symbols(fe, mcs, 1024, nullptr).crc_ok;
      }
      std::printf("%8d %10.0f %9d/25 %11d/25\n", rate, margin, evd,
                  error_only);
    }
  }
  std::printf(
      "  treating silences as erasures (bit metric 0) preserves packets\n"
      "  that confidently-wrong symbol decisions would destroy,\n"
      "  especially on the punctured 3/4-rate codes.\n\n");
}

// --- 3. threshold margin -------------------------------------------------
void ablate_margin() {
  std::printf("(3) detection threshold margin (x noise floor)\n");
  std::printf("%8s %12s %12s\n", "margin", "false_pos", "false_neg");
  for (double margin : {2.0, 4.0, 7.0, 12.0, 20.0}) {
    std::size_t active = 0, silent = 0, fp = 0, fn = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed * 997);
      MultipathProfile profile;
      profile.rician_k_linear = 10.0;
      profile.decay_taps = 1.5;
      FadingChannel channel(profile, seed);
      const double nv = noise_var_for_measured_snr(channel, 14.0);
      CosTxConfig txc;
      txc.mcs = McsId::for_rate(12);
      txc.control_subcarriers = kMidControl;
      const Bytes psdu = make_test_psdu(512, rng);
      const CosTxPacket tx = cos_transmit(psdu, rng.bits(80), txc);
      const CxVec received = channel.transmit(tx.samples, nv, rng);
      const FrontEndResult fe = receiver_front_end(received);
      if (!fe.signal) continue;
      DetectorConfig detector;
      detector.mode = ThresholdMode::kNoiseMargin;
      detector.threshold_margin = margin;
      const SilenceMask detected = detect_silences(fe, kMidControl, detector);
      if (detected.size() != tx.plan.mask.size()) continue;
      for (std::size_t s = 0; s < detected.size(); ++s) {
        for (int sc : kMidControl) {
          const auto idx = static_cast<std::size_t>(sc);
          if (tx.plan.mask[s][idx]) {
            ++silent;
            fn += !detected[s][idx];
          } else {
            ++active;
            fp += detected[s][idx];
          }
        }
      }
    }
    std::printf("%8.0f %12.5f %12.5f\n", margin,
                active ? static_cast<double>(fp) / active : 0.0,
                silent ? static_cast<double>(fn) / silent : 0.0);
  }
  std::printf("  the miss rate of true silences falls as e^-margin while\n"
              "  deep-faded active symbols start crossing the threshold.\n\n");
}

// --- 4. TX EVM floor vs silence budget ------------------------------------
void ablate_impairments() {
  std::printf("(4) TX EVM floor vs sustainable silence budget (24 Mbps)\n");
  std::printf("%12s %18s\n", "evm_floor", "max_silences/packet");
  const Mcs& mcs = mcs_for_rate(24);
  for (double floor : {0.0, 0.03, 0.06, 0.09}) {
    // Largest per-packet silence count keeping every one of 20 packets
    // decodable at a fixed 15 dB measured SNR.
    int lo = 0, hi = 600;
    const auto holds = [&](int budget) {
      const auto k = static_cast<std::size_t>(kDefaultBitsPerInterval);
      const std::size_t bits = budget > 1
                                   ? (static_cast<std::size_t>(budget) - 1) * k
                                   : 0;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 71);
        MultipathProfile profile;
        FadingChannel channel(profile, seed);
        const double nv = noise_var_for_measured_snr(channel, 15.0);
        ImpairmentProfile impairment;
        impairment.tx_evm_floor = floor;
        RadioImpairments radio(impairment, seed);

        CosTxConfig txc;
        txc.mcs = McsId::of(mcs);
        txc.control_subcarriers = {0,  2,  4,  6,  8,  10, 12, 14, 16, 18,
                                   20, 22, 24, 26, 28, 30, 32, 34, 36, 38};
        const Bytes psdu = make_test_psdu(1024, rng);
        const CosTxPacket tx = cos_transmit(psdu, rng.bits(bits), txc);
        const CxVec impaired = radio.apply(tx.samples);
        const CxVec received = channel.transmit(impaired, nv, rng);
        CosRxConfig rxc;
        rxc.control_subcarriers = txc.control_subcarriers;
        if (!cos_receive(received, rxc).data_ok) return false;
      }
      return true;
    };
    if (!holds(0)) {
      std::printf("%12.2f %18s\n", floor, "(link dead)");
      continue;
    }
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (holds(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    std::printf("%12.2f %18d\n", floor, lo);
  }
  std::printf(
      "  hardware error floors eat the very code redundancy CoS spends on\n"
      "  silences — a large part of why the paper's SDR prototype reports\n"
      "  smaller absolute R_m than this clean simulator (EXPERIMENTS.md).\n");
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice studies (DESIGN.md §4)");
  ablate_k();
  ablate_evd();
  ablate_margin();
  ablate_impairments();
  return 0;
}
