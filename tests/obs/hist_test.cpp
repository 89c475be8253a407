// obs::Hist, the one power-of-two histogram value type: recording,
// the exact merge, quantiles, whole-bucket counts and the JSON codec
// every histogram-carrying document (run-record metrics and health sections,
// NetResult station rows) goes through.
#include "obs/hist.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "runner/json.h"

namespace silence::obs {
namespace {

TEST(Hist, RecordTracksCountSumMinMax) {
  Hist h;
  EXPECT_EQ(h.count_below(kHistogramBuckets), 0u);  // no tallies yet
  h.record(5);
  h.record(100);
  h.record(1);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.count_below(kHistogramBuckets), 3u);
  EXPECT_NEAR(h.mean(), 106.0 / 3.0, 1e-12);
}

TEST(Hist, JsonRoundTripsExactly) {
  Hist h;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 63ull, 4096ull}) h.record(v);
  const Hist back = Hist::from_json(h.to_json());
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.to_json().dump_compact(), h.to_json().dump_compact());
  // Empty histograms round-trip too (no buckets array content).
  const Hist empty;
  EXPECT_EQ(Hist::from_json(empty.to_json()), empty);
  // The summary form parses back to the same histogram.
  EXPECT_EQ(Hist::from_json(h.summary_json()), h);
}

TEST(Hist, MergeMatchesRecordingEverythingIntoOne) {
  Hist a, b, all;
  for (std::uint64_t v : {3ull, 17ull, 200ull}) {
    a.record(v);
    all.record(v);
  }
  for (std::uint64_t v : {1ull, 900ull}) {
    b.record(v);
    all.record(v);
  }
  Hist merged = a;
  merged += b;
  EXPECT_EQ(merged, all);
  // Merging an empty side is the identity, both directions.
  Hist empty;
  merged += empty;
  EXPECT_EQ(merged, all);
  empty += all;
  EXPECT_EQ(empty, all);
}

TEST(Hist, QuantilesAreOrderedAndBracketed) {
  Hist h;
  for (std::uint64_t v = 1; v <= 500; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, static_cast<double>(h.min));
  EXPECT_LE(p99, static_cast<double>(h.max));
}

TEST(Hist, CountBelowIsExactAtBucketFloors) {
  Hist h;
  for (std::uint64_t v = 0; v < 1000; ++v) h.record(v);
  EXPECT_EQ(h.count_below(0), 0u);
  // Buckets 0..8 hold exactly the values 0..255.
  EXPECT_EQ(h.count_below(histogram_bucket(256)), 256u);
  EXPECT_EQ(h.count_below(histogram_bucket(512)), 512u);
  EXPECT_EQ(h.count_below(kHistogramBuckets + 5), 1000u);
}

TEST(Hist, FromJsonRejectsMalformedDocs) {
  Hist h;
  h.record(9);
  const runner::Json full = h.to_json();
  for (const auto& [key, value] : full.as_object()) {
    runner::Json pruned = runner::Json::object();
    for (const auto& [k, v] : full.as_object()) {
      if (k != key) pruned.set(k, v);
    }
    EXPECT_THROW(Hist::from_json(pruned), std::runtime_error)
        << "missing '" << key << "' was accepted";
  }
  // More buckets than the fixed layout holds.
  runner::Json too_many = runner::Json::object();
  for (const auto& [k, v] : full.as_object()) {
    if (k != "buckets") too_many.set(k, v);
  }
  runner::Json buckets = runner::Json::array();
  for (int i = 0; i < 64; ++i) buckets.push_back(1);
  too_many.set("buckets", std::move(buckets));
  EXPECT_THROW(Hist::from_json(too_many), std::runtime_error);
  // A negative field or bucket tally (a corrupt artifact) must not wrap
  // to 2^64 - 1.
  for (const char* key : {"count", "sum", "min", "max"}) {
    runner::Json negative = full;
    negative.set(key, -1);
    EXPECT_THROW(Hist::from_json(negative), std::runtime_error)
        << "negative '" << key << "' was accepted";
  }
  runner::Json negative_tally = full;
  negative_tally.set("buckets", runner::Json::array({0, 0, 0, 0, -1}));
  EXPECT_THROW(Hist::from_json(negative_tally), std::runtime_error);
}

}  // namespace
}  // namespace silence::obs
