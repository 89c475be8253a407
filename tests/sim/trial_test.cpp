#include "sim/trial.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "obs/flight/flight.h"
#include "obs/health/health.h"
#include "runner/sinks.h"

namespace silence {
namespace {

using obs::flight::DumpRouter;
using obs::flight::TrialLabel;
using obs::flight::TrialRecording;
using runner::Json;

CosTrialSpec test_spec() {
  CosTrialSpec spec;
  spec.measured_snr_db = 12.0;
  spec.mcs = McsId::for_rate(12);
  spec.psdu_octets = 128;
  spec.control_bits = 40;
  spec.cos.control_subcarriers = {9, 10, 11, 12, 13, 14, 15, 16};
  spec.profile.rician_k_linear = 10.0;
  spec.profile.decay_taps = 1.5;
  return spec;
}

TEST(CosTrialSpec, JsonRoundTripsEveryField) {
  CosTrialSpec spec = test_spec();
  spec.cos.detector.mode = ThresholdMode::kPerSubcarrierMidpoint;
  spec.cos.detector.threshold_margin = 6.5;
  spec.interferer = PulseInterferer{.symbol_hit_probability = 0.25,
                                    .pulse_power = 1.5};
  spec.ground_truth_framing = true;
  spec.dump_on_false_alarm = false;

  const CosTrialSpec back = CosTrialSpec::from_json(spec.to_json());
  // The serializer is deterministic, so field equality reduces to JSON
  // equality — including every double's exact bit pattern.
  EXPECT_EQ(back.to_json().dump_compact(), spec.to_json().dump_compact());
  EXPECT_EQ(back.cos.detector.mode, ThresholdMode::kPerSubcarrierMidpoint);
  ASSERT_TRUE(back.interferer.has_value());
  EXPECT_EQ(back.interferer->symbol_hit_probability, 0.25);
  EXPECT_TRUE(back.ground_truth_framing);
  EXPECT_FALSE(back.dump_on_false_alarm);
}

TEST(CosTrialSpec, JsonRoundTripsWithoutInterferer) {
  const CosTrialSpec spec = test_spec();
  const CosTrialSpec back = CosTrialSpec::from_json(spec.to_json());
  EXPECT_FALSE(back.interferer.has_value());
  EXPECT_EQ(back.to_json().dump_compact(), spec.to_json().dump_compact());
}

TEST(CosTrialSpec, FromJsonRejectsMissingFields) {
  Json broken = test_spec().to_json();
  Json pruned = Json::object();
  for (const auto& [key, value] : broken.as_object()) {
    if (key != "profile") pruned.set(key, value);
  }
  EXPECT_THROW(CosTrialSpec::from_json(pruned), std::runtime_error);
}

TEST(CosTrial, OutcomeIsAPureFunctionOfSpecAndSeed) {
  const CosTrialSpec spec = test_spec();
  const CosTrialResult first = run_cos_trial_recorded(spec, 12345);
  const CosTrialResult second = run_cos_trial_recorded(spec, 12345);
  EXPECT_EQ(first.summary().dump_compact(), second.summary().dump_compact());

  // At a healthy SNR the packet decodes and the control message lands.
  EXPECT_TRUE(first.usable);
  EXPECT_TRUE(first.crc_ok);
  EXPECT_TRUE(first.control_ok);
  EXPECT_GT(first.control_bits_sent, 0u);

  const CosTrialResult other = run_cos_trial_recorded(spec, 54321);
  EXPECT_NE(first.summary().dump_compact(), other.summary().dump_compact());
}

TEST(CosTrial, CountDetectionMatchesTrialConfusionCounts) {
  const CosTrialSpec spec = test_spec();
  const CosPacket packet = simulate_cos_packet(spec, 999);
  ASSERT_TRUE(packet.usable);
  DetectorConfig detector = spec.cos.detector;
  detector.modulation = spec.mcs->modulation;
  const DetectionCounts direct =
      count_detection(packet, spec.cos.control_subcarriers, detector);
  const CosTrialResult trial = run_cos_trial_recorded(spec, 999);
  EXPECT_EQ(direct.active, trial.detection.active);
  EXPECT_EQ(direct.silent, trial.detection.silent);
  EXPECT_EQ(direct.false_pos, trial.detection.false_pos);
  EXPECT_EQ(direct.false_neg, trial.detection.false_neg);
}

#if SILENCE_OBS_ON
TEST(CosTrialHealth, ScoreHistogramsReproduceConfusionCountsExactly) {
  // The tentpole exactness contract: the health registry's per-truth
  // score histograms and confusion counters, filled from the same score
  // walk the detector performed, must reproduce the mask-derived
  // DetectionCounts bit-for-bit — the quantization clamps the decision
  // into the score, so the bucket boundary at 256 IS the threshold.
  namespace health = obs::health;
  auto& reg = health::Registry::global();
  reg.reset();

  const CosTrialSpec spec = test_spec();
  DetectionCounts totals;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    totals += run_cos_trial_recorded(spec, seed).detection;
  }
  const health::HealthSnapshot snap = reg.snapshot();
  reg.reset();

  const auto counter = [&snap](health::Counter c) {
    return snap.counters[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(counter(health::Counter::kTruthSilent), totals.silent);
  EXPECT_EQ(counter(health::Counter::kTruthActive), totals.active);
  EXPECT_EQ(counter(health::Counter::kMisses), totals.false_neg);
  EXPECT_EQ(counter(health::Counter::kFalseAlarms), totals.false_pos);

  // Independently from the counters: buckets 0..8 hold exactly the
  // scores 0..255 (below the bucket floor 256), i.e. the declared-silent
  // cells.
  const std::size_t threshold = obs::histogram_bucket(health::kScoreThreshold);
  obs::Hist silent, active;
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    silent += snap.scores[static_cast<std::size_t>(health::Truth::kSilent)][sc];
    active += snap.scores[static_cast<std::size_t>(health::Truth::kActive)][sc];
  }
  const std::uint64_t silent_total = silent.count;
  const std::uint64_t active_total = active.count;
  const std::uint64_t silent_below = silent.count_below(threshold);
  const std::uint64_t active_below = active.count_below(threshold);
  EXPECT_EQ(silent_total, totals.silent);
  EXPECT_EQ(active_total, totals.active);
  EXPECT_EQ(silent_total - silent_below, totals.false_neg);  // misses
  EXPECT_EQ(active_below, totals.false_pos);  // false alarms
  ASSERT_GT(silent_total, 0u);
  ASSERT_GT(active_total, 0u);
}

// A detector threshold far above any active symbol's energy marks every
// control cell silent: guaranteed false alarms (and a garbage control
// message), i.e. a deterministic anomaly for the dump path.
CosTrialSpec anomalous_spec() {
  CosTrialSpec spec = test_spec();
  spec.cos.detector.fixed_threshold = 1e9;
  return spec;
}

TEST(CosTrialFlight, AnomalousTrialDumpsAndReplaysBitIdentically) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "cos_trial_flight_test";
  std::filesystem::remove_all(dir);
  auto& router = DumpRouter::global();
  router.configure(dir.string(), /*limit=*/4);

  TrialLabel label;
  label.sweep = "trial_test";
  label.point_index = 1;
  label.trial_index = 3;
  const std::uint64_t seed = 20240807;
  const CosTrialResult result = run_cos_trial(anomalous_spec(), label, seed);
  router.disable();

  ASSERT_FALSE(result.dump_path.empty());
  EXPECT_GT(result.detection.false_pos, 0u);
  EXPECT_EQ(std::filesystem::path(result.dump_path).filename().string(),
            DumpRouter::dump_name(label, seed));

  // Replay exactly as tools/silence_diag does: rebuild (spec, seed) from
  // the artifact, re-run under a fresh recording, require bit identity —
  // same events (detector scores, taps, intervals), same RX-bit digest.
  const Json dump = runner::read_json_file(result.dump_path);
  const CosTrialSpec spec = CosTrialSpec::from_json(*dump.find("spec"));
  const std::uint64_t replay_seed =
      obs::flight::seed_from_string(dump.find("seed")->as_string());
  EXPECT_EQ(replay_seed, seed);

  TrialRecording rec(label, replay_seed, spec.to_json());
  const CosTrialResult replayed = run_cos_trial_recorded(spec, replay_seed);
  rec.set_result(replayed.summary());

  std::string diff;
  EXPECT_TRUE(obs::flight::compare_artifacts(dump, rec.artifact(), &diff))
      << diff;
  EXPECT_GT(rec.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CosTrialFlight, CleanTrialsDoNotDump) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "cos_trial_clean_test";
  std::filesystem::remove_all(dir);
  auto& router = DumpRouter::global();
  router.configure(dir.string(), /*limit=*/4);
  TrialLabel label;
  label.sweep = "trial_test_clean";
  // Seed 999 at 12 dB decodes with zero detection errors (asserted by
  // CountDetectionMatchesTrialConfusionCounts above), so no predicate fires.
  const CosTrialResult result = run_cos_trial(test_spec(), label, 999);
  router.disable();
  EXPECT_TRUE(result.crc_ok);
  EXPECT_TRUE(result.dump_path.empty());
  EXPECT_FALSE(std::filesystem::exists(dir) &&
               !std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(CosTrialFlight, DisabledPredicatesSuppressTheirTriggers) {
  CosTrialSpec spec = anomalous_spec();
  spec.dump_on_false_alarm = false;
  spec.dump_on_control_miss = false;
  spec.dump_on_crc_fail = false;
  TrialRecording rec({.sweep = "trial_test_pred"}, 77, spec.to_json());
  (void)run_cos_trial_recorded(spec, 77);
  EXPECT_FALSE(rec.triggered());
}
#endif  // SILENCE_OBS_ON

// --- Figure-path golden digests ------------------------------------------
//
// Pins the exact bytes of the path every figure sweep runs: run_cos_trial
// (TX, fading channel, front end, detection, interval decode, EVD data
// decode) over rates x measured SNR x seeds, plus the raw IEEE-754 bytes
// of the same packets' front-end FFT bins and of one cos_transmit burst
// per rate. 600-octet PSDUs put 23 to 201 data symbols in each burst, so
// full and ragged FFT/IFFT tiles both occur. The digests must not move
// under any refactor of the PHY chain; ROADMAP item 3's planned
// re-baseline (owned RNG distributions) will update them.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

CosTrialSpec golden_spec(int rate, double snr_db) {
  CosTrialSpec spec;
  spec.mcs = McsId::for_rate(rate);
  spec.measured_snr_db = snr_db;
  spec.psdu_octets = 600;
  spec.control_bits = 40;
  return spec;
}

TEST(FigurePathGolden, RunCosTrialDigestsArePinned) {
  struct Point {
    int rate;
    double snr_db;
    const char* digest;
  };
  const Point points[] = {
      {6, 6.0, "f3f0de881698f030"},
      {6, 16.0, "349fc39f75174d3d"},
      {6, 26.0, "3dc4c94731764fa2"},
      {24, 6.0, "828167e073fb136f"},
      {24, 16.0, "14434dab7a14e4fb"},
      {24, 26.0, "422e0da6838d10ab"},
      {54, 6.0, "ec5cd96737c7e8ee"},
      {54, 16.0, "aba012f0b1505f7d"},
      {54, 26.0, "1a5c0f0260c3072d"},
  };
  for (const Point& p : points) {
    Fnv1a digest;
    for (const std::uint64_t seed : {1001ULL, 2002ULL}) {
      const CosTrialSpec spec = golden_spec(p.rate, p.snr_db);
      const CosTrialResult r = run_cos_trial(spec, TrialLabel{}, seed);
      digest.add(r.summary().dump_compact());
      digest.add(r.psdu.data(), r.psdu.size());
      for (const auto& row : r.detected_mask) {
        digest.add(row.data(), row.size());
      }
      digest.add(r.control_recovered.data(), r.control_recovered.size());
      const FrontEndResult fe = simulate_cos_packet(spec, seed).fe;
      const auto bins = fe.data_bins.cells();
      digest.add(bins.data(), bins.size() * sizeof(Cx));
      digest.add(&fe.noise_var, sizeof fe.noise_var);
    }
    EXPECT_EQ(digest.hex(), p.digest)
        << "rate " << p.rate << " snr " << p.snr_db;
  }
}

TEST(FigurePathGolden, CosTransmitSampleBytesArePinned) {
  const std::pair<int, const char*> expected[] = {
      {6, "15ca432f6863e4c4"},
      {24, "e07708d945bfad14"},
      {54, "701e6e8b81985ec2"},
  };
  for (const auto& [rate, want] : expected) {
    Rng rng(static_cast<std::uint64_t>(rate));
    Bytes psdu = rng.bytes(596);
    append_fcs(psdu);
    const Bits control = rng.bits(40);
    const CosTxPacket tx = cos_transmit(
        psdu, control, CosTxConfig(CosProfile{}, McsId::for_rate(rate)));
    Fnv1a digest;
    digest.add(tx.samples.data(), tx.samples.size() * sizeof(Cx));
    EXPECT_EQ(digest.hex(), want) << "rate " << rate;
  }
}

}  // namespace
}  // namespace silence
