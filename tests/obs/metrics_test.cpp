// Registry semantics: interning, counter/gauge/histogram accumulation,
// power-of-two bucket placement, and — the load-bearing property — that
// merged snapshots are bit-identical no matter how many threads recorded
// the same set of values.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace silence::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::global().reset(); }
};

TEST_F(MetricsTest, BucketPlacement) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  // The last bucket is open-ended.
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 50), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<std::uint64_t>::max()),
            kHistogramBuckets - 1);
}

TEST_F(MetricsTest, BucketFloors) {
  EXPECT_EQ(histogram_bucket_floor(0), 0u);
  EXPECT_EQ(histogram_bucket_floor(1), 1u);
  EXPECT_EQ(histogram_bucket_floor(2), 2u);
  EXPECT_EQ(histogram_bucket_floor(3), 4u);
  EXPECT_EQ(histogram_bucket_floor(4), 8u);
  // Every value lands in the bucket whose floor it is >= to.
  for (std::uint64_t v : {1u, 2u, 3u, 5u, 100u, 4096u}) {
    const std::size_t b = histogram_bucket(v);
    EXPECT_GE(v, histogram_bucket_floor(b)) << "value " << v;
    if (b + 1 < kHistogramBuckets) {
      EXPECT_LT(v, histogram_bucket_floor(b + 1)) << "value " << v;
    }
  }
}

TEST_F(MetricsTest, InterningIsIdempotent) {
  auto& reg = Registry::global();
  const std::uint32_t a = reg.counter_id("obs_test.intern");
  const std::uint32_t b = reg.counter_id("obs_test.intern");
  EXPECT_EQ(a, b);
  // Counter / histogram / gauge namespaces are independent.
  EXPECT_NO_THROW(reg.histogram_id("obs_test.intern"));
  EXPECT_NO_THROW(reg.gauge_id("obs_test.intern"));
}

TEST_F(MetricsTest, CounterAccumulates) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.counter");
  reg.counter_add(id, 1);
  reg.counter_add(id, 41);
  const MetricsSnapshot snap = reg.snapshot();
  const CounterSnapshot* c = snap.counter("obs_test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42u);
  EXPECT_EQ(snap.counter("obs_test.no_such_counter"), nullptr);
}

TEST_F(MetricsTest, HistogramRecordsCountSumMinMaxBuckets) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.histogram_id("obs_test.hist");
  for (std::uint64_t v : {5u, 0u, 100u, 7u}) reg.histogram_record(id, v);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot* h = snap.histogram("obs_test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum, 112u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 100u);
  EXPECT_DOUBLE_EQ(h->mean(), 28.0);
  ASSERT_EQ(h->buckets.size(), kHistogramBuckets);
  EXPECT_EQ(h->buckets[histogram_bucket(0)], 1u);
  EXPECT_EQ(h->buckets[histogram_bucket(5)], 2u);  // 5 and 7 share bucket 3
  EXPECT_EQ(h->buckets[histogram_bucket(100)], 1u);
  std::uint64_t total = 0;
  for (std::uint64_t b : h->buckets) total += b;
  EXPECT_EQ(total, h->count);
}

TEST_F(MetricsTest, GaugeLastWriteWinsAndUnsetGaugesAbsent) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.gauge_id("obs_test.gauge");
  reg.gauge_id("obs_test.gauge_never_set");
  reg.gauge_set(id, 3);
  reg.gauge_set(id, -8);
  const MetricsSnapshot snap = reg.snapshot();
  const GaugeSnapshot* g = snap.gauge("obs_test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -8);
  EXPECT_EQ(snap.gauge("obs_test.gauge_never_set"), nullptr);
}

TEST_F(MetricsTest, SnapshotSortedByName) {
  auto& reg = Registry::global();
  reg.counter_add(reg.counter_id("obs_test.zz"), 1);
  reg.counter_add(reg.counter_id("obs_test.aa"), 1);
  const MetricsSnapshot snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (std::size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
  }
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsNames) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.reset_me");
  reg.counter_add(id, 9);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  const CounterSnapshot* c = snap.counter("obs_test.reset_me");
  ASSERT_NE(c, nullptr);  // the name survives a reset
  EXPECT_EQ(c->value, 0u);
  reg.counter_add(id, 2);  // the interned id is still valid
  EXPECT_EQ(reg.snapshot().counter("obs_test.reset_me")->value, 2u);
}

TEST_F(MetricsTest, ThreadBlocksOutliveTheirThreads) {
  auto& reg = Registry::global();
  const std::uint32_t id = reg.counter_id("obs_test.thread_counter");
  std::thread([&] { reg.counter_add(id, 5); }).join();
  std::thread([&] { reg.counter_add(id, 7); }).join();
  reg.counter_add(id, 1);
  EXPECT_EQ(reg.snapshot().counter("obs_test.thread_counter")->value, 13u);
}

// The determinism contract: the same recorded multiset of values yields a
// byte-identical serialized snapshot regardless of how the recording work
// was split across threads.
std::string run_partitioned_workload(unsigned threads) {
  auto& reg = Registry::global();
  reg.reset();
  const std::uint32_t cid = reg.counter_id("obs_test.det.counter");
  const std::uint32_t hid = reg.histogram_id("obs_test.det.hist");
  const std::uint32_t gid = reg.gauge_id("obs_test.det.gauge");
  constexpr std::size_t kTotal = 4096;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < kTotal; i += threads) {
        reg.counter_add(cid, i % 7 + 1);
        reg.histogram_record(hid, (i * 2654435761ull) % 1000000);
      }
    });
  }
  for (auto& th : pool) th.join();
  reg.gauge_set(gid, static_cast<std::int64_t>(kTotal));
  return metrics_json(reg.snapshot()).dump();
}

TEST_F(MetricsTest, MergeIsDeterministicAcrossThreadCounts) {
  const std::string one = run_partitioned_workload(1);
  const std::string two = run_partitioned_workload(2);
  const std::string eight = run_partitioned_workload(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // Sanity: the workload actually recorded something.
  EXPECT_NE(one.find("\"obs_test.det.counter\": "), std::string::npos);
  EXPECT_NE(one.find("\"obs_test.det.hist\""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentWritersAllLand) {
  auto& reg = Registry::global();
  reg.reset();
  const std::uint32_t id = reg.counter_id("obs_test.concurrent");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.counter_add(id, 1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(reg.snapshot().counter("obs_test.concurrent")->value,
            kThreads * kPerThread);
}

Hist histogram_of(const std::vector<std::uint64_t>& values) {
  Hist h;
  for (const std::uint64_t v : values) h.record(v);
  return h;
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const Hist h = histogram_of({});
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, ExtremesAreExact) {
  const Hist h = histogram_of({3, 100, 9000});
  EXPECT_EQ(h.quantile(0.0), 3.0);
  EXPECT_EQ(h.quantile(-1.0), 3.0);
  EXPECT_EQ(h.quantile(1.0), 9000.0);
  EXPECT_EQ(h.quantile(2.0), 9000.0);
}

TEST(HistogramQuantile, InterpolatesWithinABucket) {
  // 100 samples of the same value: every quantile must clamp to it —
  // bucket interpolation cannot wander outside the observed range.
  const Hist h =
      histogram_of(std::vector<std::uint64_t>(100, 700));
  EXPECT_EQ(h.quantile(0.50), 700.0);
  EXPECT_EQ(h.quantile(0.99), 700.0);
}

TEST(HistogramQuantile, SplitsMassAcrossBuckets) {
  // 10 small samples (bucket of 1) and 10 large ones (bucket of 1500):
  // the median sits at the boundary between the two buckets, p95 inside
  // the upper one, bounded by the observed max.
  std::vector<std::uint64_t> values(10, 1);
  values.insert(values.end(), 10, 1500);
  const Hist h = histogram_of(values);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_GT(p95, 1024.0);
  EXPECT_LE(p95, 1500.0);
  // Quantiles are monotone in q and never exceed the observed range.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1500.0);
}

}  // namespace
}  // namespace silence::obs
