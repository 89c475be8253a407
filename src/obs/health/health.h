// PHY signal-health aggregation: deterministic per-subcarrier waterfalls,
// the detector score stream split by ground truth, and the silence-plan
// audit counters (paper Eq. 1/2, §III-B/C/D quantities).
//
// The obs metrics registry (obs/metrics.h) interns names dynamically and
// is capped at 512 histograms — too small for 48-wide waterfalls next to
// the per-station net.sta.* families. This layer therefore uses a fixed
// enum-indexed cell layout: 3 waterfall kinds x 48 subcarriers, 2 ground
// truths x 48 detector cells, one nabla-EVM drift cell and a small set of
// audit counters. Hot paths record through the HEALTH_* macros below;
// writes land in the same pooled per-thread blocks (obs/block_pool.h) and
// obs::HistCells as the metrics registry, and every cell merges as an
// obs::Hist, so merging blocks — or fabric shards — is order-independent
// and a snapshot of the same recorded values is byte-identical at any
// thread or worker count.
//
// All recorded values are fixed-point quantizations (scales below); the
// detector score additionally carries its decision in the quantization:
// quantize_score() clamps scores of declared-silent cells to <= 255 and
// declared-active cells to >= 256. Because 256 = 2^8 is a power-of-two
// bucket boundary, the per-truth score histograms answer "how many cells
// were declared silent at the configured threshold" EXACTLY — summing
// buckets 0..8 of the silent-truth histogram gives the detected-silence
// count, and the empirical ROC derived from the buckets reproduces
// count_confusion()'s miss/false-alarm tallies bit-for-bit at score 256.
//
// Building with SILENCE_OBS=OFF compiles every HEALTH_* macro to nothing;
// the registry class itself still exists (so the run-record plumbing
// links in both modes) but stays empty, and the run record carries no
// `health` section.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/block_pool.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "runner/json.h"

namespace silence::obs::health {

// Logical data subcarriers per OFDM symbol (== kNumDataSubcarriers; kept
// as a local constant so the obs layer does not depend on phy headers).
inline constexpr std::size_t kSubcarriers = 48;

// Fixed-point scales. Every recorded value is round-down quantized.
inline constexpr double kSnrScale = 256.0;      // linear bin SNR x 256
inline constexpr double kEvmScale = 4096.0;     // EVM (rms fraction) x 4096
inline constexpr double kChanScale = 1024.0;    // |H_k| x 1024
inline constexpr double kScoreScale = 256.0;    // energy / threshold x 256
inline constexpr double kNablaEvmScale = 4096.0;  // nabla-EVM x 4096

// The detector's decision boundary in quantized score units: scores below
// 256 were declared silent. A power-of-two, so it is also a histogram
// bucket boundary (buckets 0..8 hold exactly the values 0..255).
inline constexpr std::uint64_t kScoreThreshold = 256;

// Per-subcarrier waterfall families.
enum class Waterfall : std::size_t {
  kSnr = 0,      // raw bin SNR |H_k|^2 / noise_var, from the front end
  kEvm,          // post-CRC per-subcarrier EVM, from cos_receive
  kChanMag,      // channel-estimate magnitude |H_k|, from the front end
  kCount,
};

// Ground-truth label of a detector score (known only in simulation).
enum class Truth : std::size_t { kActive = 0, kSilent, kCount };

// Silence-plan / detection / selection audit counters. Names in
// counter_name() follow the dotted scheme of the metrics registry.
enum class Counter : std::size_t {
  // plan_silences(): messages planned into transmit grids.
  kPlans = 0,
  kIntervalsPlanned,
  kSilencesPlanned,
  kBitsPlanned,
  // Interval decode (cos_receive / run_cos_trial_recorded).
  kDecodeRounds,
  kIntervalsDetected,
  kBitsDecoded,
  // Subcarrier selection after a decoded packet (cos_receive).
  kSelectionRounds,
  kSubcarriersSelected,
  kSubcarriersDetectable,
  kSubcarriersErroneous,  // EVM > D_m/2 of the next modulation
  // Ground-truth confusion, tallied in the sim layer from the exact same
  // cell walk that feeds the per-truth score histograms (and therefore in
  // 1:1 correspondence with count_confusion()).
  kTruthActive,
  kTruthSilent,
  kFalseAlarms,  // truth active, declared silent
  kMisses,       // truth silent, declared active
  kCount,
};

const char* counter_name(Counter c);
const char* waterfall_name(Waterfall w);  // "snr_x256", "evm_x4096", ...
const char* truth_name(Truth t);          // "active", "silent"

// Deterministic merged view of every thread block. Integer-only, so
// operator+= (used for the fabric shard merge) is exact and
// order-independent.
struct HealthSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  // waterfalls[kind][subcarrier]
  std::array<std::array<Hist, kSubcarriers>,
             static_cast<std::size_t>(Waterfall::kCount)>
      waterfalls{};
  // scores[truth][subcarrier]
  std::array<std::array<Hist, kSubcarriers>,
             static_cast<std::size_t>(Truth::kCount)>
      scores{};
  Hist nabla_evm{};

  bool empty() const;
  HealthSnapshot& operator+=(const HealthSnapshot& o);
  friend bool operator==(const HealthSnapshot&,
                         const HealthSnapshot&) = default;
};

class Registry {
 public:
  static Registry& global();

  // Hot-path recording. Wait-free: relaxed load+store pairs on the
  // calling thread's block. `subcarrier` outside [0, 48) is ignored.
  void count(Counter c, std::uint64_t delta);
  void waterfall(Waterfall kind, std::size_t subcarrier, std::uint64_t value);
  void score(Truth truth, std::size_t subcarrier, std::uint64_t value);
  void record_nabla_evm(std::uint64_t value);

  // Deterministic merged view; safe to call while other threads record.
  HealthSnapshot snapshot() const;

  // Zeroes all recorded values (tests). Not meant to run concurrently
  // with recording.
  void reset();

 private:
  // 241 histogram cells (~85 KB) + counters per concurrent thread.
  struct ThreadBlock {
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(Counter::kCount)>
        counters{};
    std::array<std::array<HistCells, kSubcarriers>,
               static_cast<std::size_t>(Waterfall::kCount)>
        waterfalls{};
    std::array<std::array<HistCells, kSubcarriers>,
               static_cast<std::size_t>(Truth::kCount)>
        scores{};
    HistCells nabla_evm{};
  };

  Registry() = default;

  BlockPool<ThreadBlock> blocks_;
};

// --- Quantization helpers (pure; usable in both ON and OFF builds) -----

// Round-down fixed-point quantization, clamped to [0, 2^52] so every
// quantized value survives a double-typed JSON round trip exactly.
std::uint64_t quantize(double value, double scale);

// Detector score in units of 1/256 of the threshold, with the DECISION
// clamped into the quantization: a declared-silent cell (energy below the
// threshold) never quantizes above 255, a declared-active cell never
// below 256. This removes the floating-point edge where energy/threshold
// rounds across the boundary, making histogram-derived detection counts
// at score 256 exactly equal to the mask-derived ones.
std::uint64_t quantize_score(double energy, double threshold);

// --- Detector operating point -----------------------------------------

// One subcarrier row (a waterfall kind or a truth's score cells) folded
// into a single whole-band histogram.
Hist whole_band(const std::array<Hist, kSubcarriers>& row);

// part / whole as a rate; 0 when `whole` is 0.
inline double rate(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// The detector operating point at the configured threshold, computed two
// independent ways: from the confusion counters and from the per-truth
// score histograms. kScoreThreshold is a bucket floor, so the histogram
// side is an exact bucket sum, not an estimate; consistent() is the
// cross-check `silence_health --verify` and `silence_report` make.
struct OperatingPoint {
  // From the audit counters.
  std::uint64_t truth_silent = 0, truth_active = 0;
  std::uint64_t misses = 0, false_alarms = 0;
  // From the score histograms.
  std::uint64_t hist_silent = 0, hist_active = 0;
  std::uint64_t hist_misses = 0, hist_false_alarms = 0;

  bool consistent() const {
    return hist_silent == truth_silent && hist_active == truth_active &&
           hist_misses == misses && hist_false_alarms == false_alarms;
  }
  double miss_rate() const { return rate(misses, truth_silent); }
  double false_alarm_rate() const { return rate(false_alarms, truth_active); }
};

OperatingPoint operating_point(const HealthSnapshot& snapshot);

// --- Health document rendering / merging --------------------------------

// Renders a snapshot as the run record's `health` section
// (schema "cos.health.v1"): counters keyed by name, one histogram object
// {count,sum,min,max,buckets[]} per waterfall subcarrier and per detector
// (truth, subcarrier) cell, buckets trailing-zero trimmed. Integer-only
// and deterministically ordered, so equal snapshots render equal bytes.
runner::Json health_json(const HealthSnapshot& snapshot);

// Exact inverse of health_json (zero-count cells round-trip to empty).
// Throws std::runtime_error on a malformed document.
HealthSnapshot health_from_json(const runner::Json& doc);

// Deterministic merge of several health_json() documents (one per fabric
// worker plus the supervisor's own snapshot): every quantity is an
// integer sum (min/max combine as min/max), so the merged document is
// byte-identical to the one a single process recording the same values
// would have written.
runner::Json merge_health_json(const std::vector<runner::Json>& docs);

// --- Perfetto counter sampling -----------------------------------------

// When the tracer is active, every kTraceSampleEvery-th call emits the
// pid-3 "phy-health" counter tracks (mean EVM, mean detector margin,
// selected subcarriers per selection round) from the current snapshot.
// Cheap no-op when tracing is off; call once per trial / scenario.
inline constexpr std::uint64_t kTraceSampleEvery = 256;
void maybe_trace_counters();

}  // namespace silence::obs::health

// --- Instrumentation macros --------------------------------------------
//
// The only health API hot paths touch. Enum arguments, so there is no
// name interning; OFF builds compile each to a `(void)sizeof` no-op that
// keeps operands used but unevaluated.

#if SILENCE_OBS_ON

#define HEALTH_COUNT_N(counter, n)                                       \
  ::silence::obs::health::Registry::global().count(                      \
      ::silence::obs::health::Counter::counter,                          \
      static_cast<std::uint64_t>(n))
#define HEALTH_COUNT(counter) HEALTH_COUNT_N(counter, 1)
#define HEALTH_WATERFALL(kind, subcarrier, value)                        \
  ::silence::obs::health::Registry::global().waterfall(                  \
      ::silence::obs::health::Waterfall::kind,                           \
      static_cast<std::size_t>(subcarrier),                              \
      static_cast<std::uint64_t>(value))
#define HEALTH_SCORE(truth_silent, subcarrier, value)                    \
  ::silence::obs::health::Registry::global().score(                      \
      (truth_silent) ? ::silence::obs::health::Truth::kSilent            \
                     : ::silence::obs::health::Truth::kActive,           \
      static_cast<std::size_t>(subcarrier),                              \
      static_cast<std::uint64_t>(value))
#define HEALTH_NABLA_EVM(value)                                          \
  ::silence::obs::health::Registry::global().record_nabla_evm(           \
      static_cast<std::uint64_t>(value))

#else  // SILENCE_OBS_ON

#define HEALTH_COUNT_N(counter, n) do { (void)sizeof(n); } while (0)
#define HEALTH_COUNT(counter) do { } while (0)
#define HEALTH_WATERFALL(kind, subcarrier, value) \
  do { (void)sizeof(subcarrier); (void)sizeof(value); } while (0)
#define HEALTH_SCORE(truth_silent, subcarrier, value)                    \
  do {                                                                   \
    (void)sizeof(truth_silent);                                          \
    (void)sizeof(subcarrier);                                            \
    (void)sizeof(value);                                                 \
  } while (0)
#define HEALTH_NABLA_EVM(value) do { (void)sizeof(value); } while (0)

#endif  // SILENCE_OBS_ON
