#include "sim/trial.h"

#include <algorithm>
#include <stdexcept>

#include "common/hex.h"
#include "obs/health/health.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "runner/seed.h"
#include "sim/link.h"

namespace silence {

namespace {

std::string bits_to_string(std::span<const std::uint8_t> bits) {
  std::string out;
  out.reserve(bits.size());
  for (const auto b : bits) out.push_back(b ? '1' : '0');
  return out;
}

const runner::Json& require(const runner::Json& json, std::string_view key) {
  const runner::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error("CosTrialSpec: missing field '" +
                             std::string(key) + "'");
  }
  return *value;
}

#if SILENCE_OBS_ON
// Health: label each detector score with the planned ground truth (known
// only here in the sim layer) and tally the same confusion counts
// count_confusion() derives from the masks. Uses the identical skip rule
// (symbol-count mismatch after a SIGNAL mis-decode), so the score-stream
// totals stay in 1:1 correspondence with the reported confusion counts.
void record_labeled_scores(const SilenceMask& planned,
                           std::size_t detected_symbols,
                           const DetectionScores& scores) {
  if (detected_symbols != planned.size()) return;
  for (const DetectionScore& s : scores) {
    const bool truth_silent =
        planned[s.symbol][static_cast<std::size_t>(s.subcarrier)] != 0;
    HEALTH_SCORE(truth_silent, s.subcarrier, s.score_x256);
    const bool detector_silent =
        s.score_x256 < obs::health::kScoreThreshold;
    if (truth_silent) {
      HEALTH_COUNT(kTruthSilent);
      if (!detector_silent) HEALTH_COUNT(kMisses);
    } else {
      HEALTH_COUNT(kTruthActive);
      if (detector_silent) HEALTH_COUNT(kFalseAlarms);
    }
  }
}
#endif

}  // namespace

runner::Json CosTrialSpec::to_json() const {
  runner::Json root = runner::Json::object();
  root.set("measured_snr_db", measured_snr_db);
  root.set("rate_mbps", mcs.to_json());
  root.set("psdu_octets", static_cast<std::int64_t>(psdu_octets));
  root.set("control_bits", static_cast<std::int64_t>(control_bits));
  root.set("cos_profile", cos.to_json());
  runner::Json prof = runner::Json::object();
  prof.set("num_taps", profile.num_taps);
  prof.set("decay_taps", profile.decay_taps);
  prof.set("rician_k_linear", profile.rician_k_linear);
  prof.set("doppler_hz", profile.doppler_hz);
  prof.set("k_all_taps_linear", profile.k_all_taps_linear);
  root.set("profile", std::move(prof));
  if (interferer) {
    runner::Json interf = runner::Json::object();
    interf.set("symbol_hit_probability", interferer->symbol_hit_probability);
    interf.set("pulse_power", interferer->pulse_power);
    root.set("interferer", std::move(interf));
  } else {
    root.set("interferer", nullptr);
  }
  root.set("ground_truth_framing", ground_truth_framing);
  root.set("dump_on_crc_fail", dump_on_crc_fail);
  root.set("dump_on_control_miss", dump_on_control_miss);
  root.set("dump_on_false_alarm", dump_on_false_alarm);
  return root;
}

CosTrialSpec CosTrialSpec::from_json(const runner::Json& json) {
  CosTrialSpec spec;
  spec.measured_snr_db = require(json, "measured_snr_db").as_double();
  spec.mcs = McsId::from_json(require(json, "rate_mbps"));
  spec.psdu_octets =
      static_cast<std::size_t>(require(json, "psdu_octets").as_int());
  spec.control_bits =
      static_cast<std::size_t>(require(json, "control_bits").as_int());
  if (const runner::Json* cos_profile = json.find("cos_profile")) {
    spec.cos = CosProfile::from_json(*cos_profile);
  } else {
    // Legacy flat layout (pre-CosProfile flight dumps): the profile
    // fields sat at the top level and the scrambler seed was implicit.
    runner::Json flat = runner::Json::object();
    flat.set("control_subcarriers", require(json, "control_subcarriers"));
    flat.set("bits_per_interval", require(json, "bits_per_interval"));
    flat.set("detector", require(json, "detector"));
    flat.set("scrambler_seed", static_cast<std::int64_t>(0x5D));
    flat.set("min_feedback_subcarriers", 6);
    spec.cos = CosProfile::from_json(flat);
  }
  const runner::Json& prof = require(json, "profile");
  spec.profile.num_taps = static_cast<int>(require(prof, "num_taps").as_int());
  spec.profile.decay_taps = require(prof, "decay_taps").as_double();
  spec.profile.rician_k_linear = require(prof, "rician_k_linear").as_double();
  spec.profile.doppler_hz = require(prof, "doppler_hz").as_double();
  spec.profile.k_all_taps_linear =
      require(prof, "k_all_taps_linear").as_double();
  const runner::Json& interf = require(json, "interferer");
  if (interf.is_null()) {
    spec.interferer.reset();
  } else {
    PulseInterferer pulse;
    pulse.symbol_hit_probability =
        require(interf, "symbol_hit_probability").as_double();
    pulse.pulse_power = require(interf, "pulse_power").as_double();
    spec.interferer = pulse;
  }
  spec.ground_truth_framing =
      require(json, "ground_truth_framing").as_bool();
  spec.dump_on_crc_fail = require(json, "dump_on_crc_fail").as_bool();
  spec.dump_on_control_miss = require(json, "dump_on_control_miss").as_bool();
  spec.dump_on_false_alarm = require(json, "dump_on_false_alarm").as_bool();
  return spec;
}

CosPacket simulate_cos_packet(const CosTrialSpec& spec, std::uint64_t seed) {
  return simulate_cos_packet(spec, seed, default_phy_workspace());
}

CosPacket simulate_cos_packet(const CosTrialSpec& spec, std::uint64_t seed,
                              PhyWorkspace& ws) {
  CosPacket out;
  // Substream split inherited from the original fig10 bench: stream 0 is
  // the "position" (channel realization), stream 1 drives payload, noise
  // and interference.
  const std::uint64_t channel_seed = runner::substream_seed(seed, 0);
  Rng rng(runner::substream_seed(seed, 1));
  FadingChannel channel(spec.profile, channel_seed);
  const double nv = noise_var_for_measured_snr(channel, spec.measured_snr_db);

  const CosTxConfig tx_config(spec.cos, spec.mcs);
  const Bytes psdu = make_test_psdu(spec.psdu_octets, rng);
  out.control = rng.bits(spec.control_bits);
  out.tx = cos_transmit(psdu, out.control, tx_config);

  CxVec received = channel.transmit(out.tx.samples, nv, rng);
  if (spec.interferer) spec.interferer->apply(received, rng);

  out.fe = receiver_front_end(received, ws);
  if (spec.ground_truth_framing) {
    // Rebuild the per-symbol FFTs from the known frame geometry, so a
    // SIGNAL wipe-out under heavy interference does not drop the packet.
    out.fe.channel = estimate_channel(
        std::span<const Cx>(received).subspan(kStfSamples, kLtfSamples));
    out.fe.data_bins.clear();
    out.fe.data_bins.reserve(
        static_cast<std::size_t>(out.tx.frame.num_symbols()));
    for (int s = 0; s < out.tx.frame.num_symbols(); ++s) {
      const auto offset =
          static_cast<std::size_t>(kPreambleSamples) +
          static_cast<std::size_t>(kSymbolSamples) *
              static_cast<std::size_t>(1 + s);
      time_to_bins_into(
          std::span<const Cx>(received).subspan(offset, kSymbolSamples),
          out.fe.data_bins.append());
    }
    // A deployed receiver tracks its noise floor over many packets; use
    // the long-term floor rather than this packet's pilot residuals
    // (which the pulses contaminate).
    out.fe.noise_var = freq_noise_var(nv);
    out.usable = true;
  } else {
    out.usable = static_cast<bool>(out.fe.signal);
  }
  return out;
}

DetectionCounts count_confusion(const SilenceMask& planned,
                                const SilenceMask& detected,
                                std::span<const int> control_subcarriers) {
  DetectionCounts counts;
  // A SIGNAL mis-decode (possible at very low SNR) yields the wrong
  // symbol count; skip such packets.
  if (detected.size() != planned.size()) return counts;
  for (std::size_t s = 0; s < planned.size(); ++s) {
    for (const int sc : control_subcarriers) {
      const auto idx = static_cast<std::size_t>(sc);
      if (planned[s][idx]) {
        ++counts.silent;
        if (!detected[s][idx]) ++counts.false_neg;
      } else {
        ++counts.active;
        if (detected[s][idx]) ++counts.false_pos;
      }
    }
  }
  return counts;
}

DetectionCounts count_detection(const CosPacket& packet,
                                std::span<const int> control_subcarriers,
                                const DetectorConfig& detector) {
  if (!packet.usable) return {};
#if SILENCE_OBS_ON
  DetectionScores scores;
  const SilenceMask detected =
      detect_silences(packet.fe, control_subcarriers, detector, &scores);
  record_labeled_scores(packet.tx.plan.mask, detected.size(), scores);
#else
  const SilenceMask detected =
      detect_silences(packet.fe, control_subcarriers, detector);
#endif
  return count_confusion(packet.tx.plan.mask, detected, control_subcarriers);
}

runner::Json CosTrialResult::summary() const {
  runner::Json root = runner::Json::object();
  root.set("usable", usable);
  root.set("crc_ok", crc_ok);
  root.set("psdu_hex", to_hex(psdu));
  root.set("control_bits_sent", static_cast<std::int64_t>(control_bits_sent));
  root.set("control_bits_recovered",
           static_cast<std::int64_t>(control_bits_recovered));
  root.set("control_ok", control_ok);
  root.set("control_recovered", bits_to_string(control_recovered));
  runner::Json det = runner::Json::object();
  det.set("active", static_cast<std::int64_t>(detection.active));
  det.set("silent", static_cast<std::int64_t>(detection.silent));
  det.set("false_pos", static_cast<std::int64_t>(detection.false_pos));
  det.set("false_neg", static_cast<std::int64_t>(detection.false_neg));
  root.set("detection", std::move(det));
  std::size_t detected_silences = 0;
  for (const auto& row : detected_mask) {
    for (const auto cell : row) detected_silences += cell != 0;
  }
  root.set("silences_detected", static_cast<std::int64_t>(detected_silences));
  return root;
}

CosTrialResult run_cos_trial_recorded(const CosTrialSpec& spec,
                                      std::uint64_t seed) {
  return run_cos_trial_recorded(spec, seed, default_phy_workspace());
}

CosTrialResult run_cos_trial_recorded(const CosTrialSpec& spec,
                                      std::uint64_t seed, PhyWorkspace& ws) {
  CosTrialResult result;
  const CosPacket packet = simulate_cos_packet(spec, seed, ws);
  result.usable = packet.usable;
  result.control_bits_sent = packet.tx.plan.bits_sent;

  const Mcs& mcs = *spec.mcs;
  if (packet.usable) {
    // The detector needs the packet's modulation for its per-subcarrier
    // thresholds, exactly as cos_receive sets it from SIGNAL.
    DetectorConfig detector = spec.cos.detector;
    detector.modulation = mcs.modulation;
#if SILENCE_OBS_ON
    DetectionScores scores;
    result.detected_mask = detect_silences(
        packet.fe, spec.cos.control_subcarriers, detector, &scores);
    record_labeled_scores(packet.tx.plan.mask, result.detected_mask.size(),
                          scores);
#else
    result.detected_mask =
        detect_silences(packet.fe, spec.cos.control_subcarriers, detector);
#endif
    result.detection = count_confusion(packet.tx.plan.mask,
                                       result.detected_mask,
                                       spec.cos.control_subcarriers);

    const std::vector<int> intervals =
        mask_to_intervals(result.detected_mask, spec.cos.control_subcarriers);
    result.control_recovered =
        intervals_to_bits_tolerant(intervals, spec.cos.bits_per_interval);
    result.control_bits_recovered = result.control_recovered.size();
    result.control_ok =
        result.control_recovered.size() == result.control_bits_sent &&
        std::equal(result.control_recovered.begin(),
                   result.control_recovered.end(), packet.control.begin());

    // EVD data decode over the detected mask (the full CoS receive path;
    // fig10's legacy detection-only sweep skipped this).
    const DecodeResult decode = decode_data_symbols(
        packet.fe, mcs, static_cast<int>(spec.psdu_octets),
        &result.detected_mask, ws);
    result.crc_ok = decode.crc_ok;
    if (decode.crc_ok) result.psdu = decode.psdu;
  }

#if SILENCE_OBS_ON
  if (auto* rec = obs::flight::TrialRecording::active()) {
    if (spec.dump_on_crc_fail && !result.crc_ok) rec->trigger("crc_fail");
    if (spec.dump_on_control_miss && !result.control_ok) {
      rec->trigger("control_miss");
    }
    if (spec.dump_on_false_alarm && result.detection.false_pos > 0) {
      rec->trigger("false_alarm");
    }
    rec->set_result(result.summary());
  }
#endif
  obs::health::maybe_trace_counters();
  return result;
}

CosTrialResult run_cos_trial(const CosTrialSpec& spec,
                             const obs::flight::TrialLabel& label,
                             std::uint64_t seed) {
#if SILENCE_OBS_ON
  auto& router = obs::flight::DumpRouter::global();
  if (router.enabled()) {
    obs::flight::TrialRecording rec(label, seed, spec.to_json());
    CosTrialResult result = run_cos_trial_recorded(spec, seed);
    result.dump_path = router.route(rec);
    return result;
  }
#else
  (void)label;
#endif
  return run_cos_trial_recorded(spec, seed);
}

}  // namespace silence
