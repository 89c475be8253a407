// The one power-of-two histogram of the system: the value type every
// histogram is merged, rendered and parsed as (obs metrics snapshots,
// the health section's waterfall and detector cells, the net layer's
// per-station slot latencies), and the relaxed-atomic cell the per-thread
// registry blocks record into.
//
// Every field is an unsigned integer (counts, sums of integer values,
// bucket tallies, min/max), so merging is exact and order-independent:
// the same recorded values give the same Hist — and the same JSON bytes —
// at any thread, trial-merge or fabric-shard split.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runner/json.h"

namespace silence::obs {

// Power-of-two buckets: bucket 0 counts value 0, bucket b >= 1 counts
// values with bit_width b, i.e. [2^(b-1), 2^b); the last bucket is
// open-ended. 40 buckets cover every duration up to ~2^39 ns (~9 min).
inline constexpr std::size_t kHistogramBuckets = 40;

// Bucket index for a recorded value.
std::size_t histogram_bucket(std::uint64_t value);

// Inclusive lower bound of bucket `index`.
std::uint64_t histogram_bucket_floor(std::size_t index);

struct Hist {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void record(std::uint64_t value);
  // Exact merge; an empty side is the identity.
  Hist& operator+=(const Hist& o);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Bucket-interpolated quantile estimate (q in [0, 1]): finds the bucket
  // holding the q-th sample and interpolates linearly inside it, clamped
  // to the observed [min, max]. Power-of-two buckets bound the relative
  // error by the bucket width (a factor of 2); exact at q = 0 and q = 1.
  // Returns 0 for an empty histogram.
  double quantile(double q) const;

  // Samples in buckets [0, bucket), i.e. exactly the values below
  // histogram_bucket_floor(bucket) for bucket >= 1 — an exact count,
  // not an estimate, whenever the cut sits on a power of two.
  std::uint64_t count_below(std::size_t bucket) const;

  // {count, sum, min, max, buckets[]} with trailing zero buckets trimmed.
  // Integers only, so from_json(to_json()) is exact.
  runner::Json to_json() const;
  // The same fields plus mean, p50/p95/p99 and bucket_floors[] (the
  // run record's metrics form), placed before "buckets". from_json
  // ignores the derived fields.
  runner::Json summary_json() const;
  // Throws std::runtime_error on a missing or negative field, or on more
  // buckets than the fixed layout holds.
  static Hist from_json(const runner::Json& json);

  friend bool operator==(const Hist&, const Hist&) = default;
};

// Single-writer cell: one pooled thread block owns it (obs/block_pool.h),
// so a plain relaxed load+store beats fetch_add (no lock prefix) and is
// still tear-free for concurrent snapshot readers.
inline void cell_add(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

// The relaxed-atomic twin of Hist that a per-thread block records into.
class HistCells {
 public:
  // Wait-free; only the owning thread may call it.
  void record(std::uint64_t value);
  // Merges this cell into `into`; safe while the owner records (its
  // in-flight sample may or may not be included, but nothing tears).
  void add_to(Hist& into) const;
  // Not meant to run concurrently with recording.
  void clear();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

}  // namespace silence::obs
