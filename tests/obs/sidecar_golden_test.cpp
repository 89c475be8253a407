// Byte pins for the obs documents that merge across threads and fabric
// shards into a run record's sections: the health_json rendering of a
// fixed, seeded run of recorded CoS trials (and its shard merge), and the
// metrics_json rendering of a registry snapshot holding fixed counter,
// gauge and histogram values (and the merge of two such documents).
// Each document is hashed with FNV-1a 64 over its dump() bytes, the form
// the run-record writer puts on disk, so any change to a histogram codec,
// a merge rule or the per-thread cell pools shows up as a digest change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/health/health.h"
#include "obs/metrics.h"
#include "runner/json.h"
#include "runner/sinks.h"
#include "sim/trial.h"

namespace silence {
namespace {

using namespace silence::obs;
using namespace silence::runner;

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Records a fixed value set under "golden.*" names from three writer
// threads, then returns the snapshot restricted to those names (other
// tests in this binary intern names of their own, which survive reset()).
MetricsSnapshot golden_snapshot(std::uint64_t salt) {
  Registry& reg = Registry::global();
  reg.reset();
  const std::uint32_t frames = reg.counter_id("golden.frames");
  const std::uint32_t bits = reg.counter_id("golden.bits");
  const std::uint32_t wait = reg.histogram_id("golden.wait.ns");
  const std::uint32_t score = reg.histogram_id("golden.score");
  const std::uint32_t empty = reg.histogram_id("golden.never");
  (void)empty;
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = t; i < 600; i += 3) {
        reg.counter_add(frames, 1);
        reg.counter_add(bits, (i * salt) % 97);
        reg.histogram_record(wait, (i * 2654435761ULL * salt) % 5000000);
        reg.histogram_record(score, i % 300 == 0 ? 0 : (i * salt) % 1024);
      }
      // Past the last bucket floor (2^38): the open-ended last bucket.
      if (t == 0) reg.histogram_record(wait, (std::uint64_t{1} << 45) + salt);
    });
  }
  for (std::thread& w : writers) w.join();
  reg.gauge_set(reg.gauge_id("golden.depth"),
                static_cast<std::int64_t>(salt) - 40);
  MetricsSnapshot snap = reg.snapshot();
  reg.reset();
  const auto foreign = [](const auto& m) {
    return m.name.rfind("golden.", 0) != 0;
  };
  std::erase_if(snap.counters, foreign);
  std::erase_if(snap.gauges, foreign);
  std::erase_if(snap.histograms, foreign);
  return snap;
}

TEST(SidecarGolden, MetricsDocumentsArePinned) {
  const Json a = metrics_json(golden_snapshot(3));
  const Json b = metrics_json(golden_snapshot(11));
  EXPECT_EQ(digest(a.dump()), "8cbe9855c6390efc");
  EXPECT_EQ(digest(b.dump()), "9276b8785c1cdc64");
  EXPECT_EQ(digest(merge_metrics_json({a, b}).dump()), "80bf744c0a9bdacb");
}

#if SILENCE_OBS_ON
CosTrialSpec golden_spec(double snr_db, bool interfered) {
  CosTrialSpec spec;
  spec.measured_snr_db = snr_db;
  spec.mcs = McsId::for_rate(12);
  spec.psdu_octets = 128;
  spec.control_bits = 40;
  spec.cos.control_subcarriers = {9, 10, 11, 12, 13, 14, 15, 16};
  spec.profile.rician_k_linear = 10.0;
  spec.profile.decay_taps = 1.5;
  if (interfered) {
    spec.interferer = PulseInterferer{.symbol_hit_probability = 0.2,
                                      .pulse_power = 0.5};
  }
  return spec;
}

// The health snapshot of trials [first, last) over a clean and an
// interfered link.
Json health_of_trials(std::uint64_t first, std::uint64_t last) {
  health::Registry& reg = health::Registry::global();
  reg.reset();
  for (std::uint64_t seed = first; seed < last; ++seed) {
    run_cos_trial_recorded(golden_spec(12.0, false), seed);
    run_cos_trial_recorded(golden_spec(8.0, true), seed);
  }
  const Json doc = health::health_json(reg.snapshot());
  reg.reset();
  return doc;
}

TEST(SidecarGolden, HealthDocumentsArePinned) {
  const Json whole = health_of_trials(40, 46);
  EXPECT_EQ(digest(whole.dump()), "51da0b4c003523f4");
  // Shard merge: two halves plus an empty worker reproduce the bytes of
  // the single recording.
  const Json merged = health::merge_health_json(
      {health_of_trials(40, 43), health_of_trials(43, 46),
       health::health_json(health::HealthSnapshot{})});
  EXPECT_EQ(digest(merged.dump()), "51da0b4c003523f4");
}
#endif  // SILENCE_OBS_ON

}  // namespace
}  // namespace silence
