// Low-overhead metrics registry: named counters, gauges and fixed-bucket
// histograms for the whole pipeline (phy.tx.*, phy.rx.*, cos.*, chan.*,
// sim.*, runner.*).
//
// Hot-path writes go to pooled per-thread blocks of relaxed atomics
// (obs/block_pool.h); histograms record into obs::HistCells and merge as
// obs::Hist (obs/hist.h), whose integer-only fields make a snapshot of
// the same recorded values identical at any thread count. Snapshots list
// metrics sorted by name, independent of registration order.
//
// Instrumentation sites should not call this API directly — use the
// macros in obs/obs.h, which compile to no-ops when SILENCE_OBS=OFF.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/block_pool.h"
#include "obs/hist.h"
#include "runner/json.h"

namespace silence::obs {

// Hard caps keep thread blocks fixed-size (no hot-path growth/locking).
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 512;

// Monotonic wall-time in nanoseconds (steady_clock).
std::uint64_t now_ns();

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

// One registry histogram: its merged cells under its interned name.
struct HistogramSnapshot : Hist {
  std::string name;
};

struct MetricsSnapshot {
  // Each vector is sorted by metric name.
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  const CounterSnapshot* counter(std::string_view name) const;
  const GaugeSnapshot* gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

// The snapshot as a JSON object: counters, gauges and histograms keyed
// by metric name, each histogram in Hist::summary_json() form. Sorted
// input makes the output deterministic. This is the `.metrics.json`
// sidecar and the "metrics" section of a trace file.
runner::Json metrics_json(const MetricsSnapshot& snapshot);

// Deterministic merge of several metrics_json() documents (e.g. one per
// fabric worker plus the supervisor's own snapshot): counters are summed,
// gauges take the maximum, histograms merge as Hist with mean / p50 /
// p95 / p99 recomputed from the combined buckets. Output follows the
// metrics_json() schema with every section sorted by name. Throws
// std::runtime_error on a malformed document.
runner::Json merge_metrics_json(const std::vector<runner::Json>& docs);

class Registry {
 public:
  // The process-wide registry all instrumentation macros record into.
  static Registry& global();

  // Interns `name`, returning a dense id. Idempotent; throws
  // std::length_error past the fixed capacity. Called once per site
  // (function-local static), never per event.
  std::uint32_t counter_id(std::string_view name);
  std::uint32_t gauge_id(std::string_view name);
  std::uint32_t histogram_id(std::string_view name);

  // Hot-path recording. Wait-free: one relaxed load+store per cell.
  void counter_add(std::uint32_t id, std::uint64_t delta);
  void gauge_set(std::uint32_t id, std::int64_t value);
  void histogram_record(std::uint32_t id, std::uint64_t value);

  // Deterministic merged view of every block, sorted by name. Safe to
  // call while other threads record (their in-flight deltas may or may
  // not be included, but nothing tears).
  MetricsSnapshot snapshot() const;

  // Zeroes all recorded values; registered names and ids survive. Not
  // meant to run concurrently with recording (counts written during a
  // reset may be lost, though nothing races in the UB sense).
  void reset();

 private:
  struct ThreadBlock {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<HistCells, kMaxHistograms> histograms{};
  };

  Registry() = default;

  mutable std::mutex mutex_;  // guards the name tables
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  BlockPool<ThreadBlock> blocks_;
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set_{};
};

}  // namespace silence::obs
