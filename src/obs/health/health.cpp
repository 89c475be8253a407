#include "obs/health/health.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace silence::obs::health {
namespace {

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumWaterfalls =
    static_cast<std::size_t>(Waterfall::kCount);
constexpr std::size_t kNumTruths = static_cast<std::size_t>(Truth::kCount);

constexpr const char* kCounterNames[kNumCounters] = {
    "plan.calls",
    "plan.intervals",
    "plan.silences",
    "plan.bits",
    "decode.rounds",
    "decode.intervals",
    "decode.bits",
    "select.rounds",
    "select.selected",
    "select.detectable",
    "select.erroneous",
    "detector.truth_active",
    "detector.truth_silent",
    "detector.false_alarms",
    "detector.misses",
};

constexpr const char* kWaterfallNames[kNumWaterfalls] = {
    "snr_x256",
    "evm_x4096",
    "chan_mag_x1024",
};

constexpr const char* kTruthNames[kNumTruths] = {"active", "silent"};

const runner::Json& require(const runner::Json& json, std::string_view key) {
  const runner::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error("health: missing field '" + std::string(key) +
                             "'");
  }
  return *value;
}

runner::Json hist_row_json(const std::array<Hist, kSubcarriers>& row) {
  runner::Json cells = runner::Json::array();
  for (const Hist& h : row) cells.push_back(h.to_json());
  return cells;
}

void hist_row_from_json(const runner::Json& cells,
                        std::array<Hist, kSubcarriers>& row) {
  if (!cells.is_array() || cells.size() != kSubcarriers) {
    throw std::runtime_error("health: subcarrier row must have 48 cells");
  }
  for (std::size_t i = 0; i < kSubcarriers; ++i) {
    row[i] = Hist::from_json(cells.as_array()[i]);
  }
}

}  // namespace

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* waterfall_name(Waterfall w) {
  return kWaterfallNames[static_cast<std::size_t>(w)];
}

const char* truth_name(Truth t) {
  return kTruthNames[static_cast<std::size_t>(t)];
}

bool HealthSnapshot::empty() const {
  for (const std::uint64_t c : counters) {
    if (c != 0) return false;
  }
  for (const auto& kind : waterfalls) {
    for (const Hist& h : kind) {
      if (h.count != 0) return false;
    }
  }
  for (const auto& truth : scores) {
    for (const Hist& h : truth) {
      if (h.count != 0) return false;
    }
  }
  return nabla_evm.count == 0;
}

HealthSnapshot& HealthSnapshot::operator+=(const HealthSnapshot& o) {
  for (std::size_t i = 0; i < counters.size(); ++i) counters[i] += o.counters[i];
  for (std::size_t w = 0; w < waterfalls.size(); ++w) {
    for (std::size_t s = 0; s < kSubcarriers; ++s) {
      waterfalls[w][s] += o.waterfalls[w][s];
    }
  }
  for (std::size_t t = 0; t < scores.size(); ++t) {
    for (std::size_t s = 0; s < kSubcarriers; ++s) {
      scores[t][s] += o.scores[t][s];
    }
  }
  nabla_evm += o.nabla_evm;
  return *this;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked, like the metrics
  return *instance;                            // registry
}

void Registry::count(Counter c, std::uint64_t delta) {
  cell_add(blocks_.local().counters[static_cast<std::size_t>(c)], delta);
}

void Registry::waterfall(Waterfall kind, std::size_t subcarrier,
                         std::uint64_t value) {
  if (subcarrier >= kSubcarriers) return;
  blocks_.local()
      .waterfalls[static_cast<std::size_t>(kind)][subcarrier]
      .record(value);
}

void Registry::score(Truth truth, std::size_t subcarrier,
                     std::uint64_t value) {
  if (subcarrier >= kSubcarriers) return;
  blocks_.local().scores[static_cast<std::size_t>(truth)][subcarrier].record(
      value);
}

void Registry::record_nabla_evm(std::uint64_t value) {
  blocks_.local().nabla_evm.record(value);
}

HealthSnapshot Registry::snapshot() const {
  HealthSnapshot snap;
  blocks_.for_each([&snap](const ThreadBlock& block) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      snap.counters[i] += block.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t w = 0; w < kNumWaterfalls; ++w) {
      for (std::size_t s = 0; s < kSubcarriers; ++s) {
        block.waterfalls[w][s].add_to(snap.waterfalls[w][s]);
      }
    }
    for (std::size_t t = 0; t < kNumTruths; ++t) {
      for (std::size_t s = 0; s < kSubcarriers; ++s) {
        block.scores[t][s].add_to(snap.scores[t][s]);
      }
    }
    block.nabla_evm.add_to(snap.nabla_evm);
  });
  return snap;
}

void Registry::reset() {
  blocks_.for_each([](ThreadBlock& block) {
    for (auto& c : block.counters) c.store(0, std::memory_order_relaxed);
    for (auto& kind : block.waterfalls) {
      for (HistCells& cell : kind) cell.clear();
    }
    for (auto& truth : block.scores) {
      for (HistCells& cell : truth) cell.clear();
    }
    block.nabla_evm.clear();
  });
}

std::uint64_t quantize(double value, double scale) {
  if (!(value > 0.0)) return 0;  // negatives and NaN quantize to 0
  const double scaled = value * scale;
  // Cap below 2^53 so quantized values survive a double-typed JSON
  // round trip exactly.
  constexpr double kCap = 4503599627370496.0;  // 2^52
  if (!(scaled < kCap)) return static_cast<std::uint64_t>(kCap);
  return static_cast<std::uint64_t>(scaled);
}

std::uint64_t quantize_score(double energy, double threshold) {
  std::uint64_t q = 0;
  if (threshold > 0.0) {
    q = quantize(energy / threshold, kScoreScale);
  } else if (energy > 0.0) {
    q = std::uint64_t{1} << 52;
  }
  // Fold the detector's decision into the quantization so the histogram
  // boundary at 256 reproduces the mask-derived counts exactly, immune
  // to the floating-point edge where energy/threshold rounds across it.
  if (energy < threshold) {
    if (q >= kScoreThreshold) q = kScoreThreshold - 1;
  } else if (q < kScoreThreshold) {
    q = kScoreThreshold;
  }
  return q;
}

runner::Json health_json(const HealthSnapshot& snapshot) {
  runner::Json root = runner::Json::object();
  root.set("schema", "cos.health.v1");
  runner::Json counters = runner::Json::object();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.set(kCounterNames[i],
                 static_cast<std::int64_t>(snapshot.counters[i]));
  }
  root.set("counters", std::move(counters));
  runner::Json waterfalls = runner::Json::object();
  for (std::size_t w = 0; w < kNumWaterfalls; ++w) {
    runner::Json kind = runner::Json::object();
    kind.set("subcarriers", hist_row_json(snapshot.waterfalls[w]));
    waterfalls.set(kWaterfallNames[w], std::move(kind));
  }
  root.set("waterfalls", std::move(waterfalls));
  runner::Json detector = runner::Json::object();
  detector.set("scale", static_cast<std::int64_t>(kScoreScale));
  detector.set("threshold_score", static_cast<std::int64_t>(kScoreThreshold));
  for (std::size_t t = 0; t < kNumTruths; ++t) {
    detector.set(kTruthNames[t], hist_row_json(snapshot.scores[t]));
  }
  root.set("detector", std::move(detector));
  root.set("nabla_evm_x4096", snapshot.nabla_evm.to_json());
  return root;
}

HealthSnapshot health_from_json(const runner::Json& doc) {
  const runner::Json& schema = require(doc, "schema");
  if (schema.as_string() != "cos.health.v1") {
    throw std::runtime_error("health: unsupported schema '" +
                             schema.as_string() + "'");
  }
  HealthSnapshot snap;
  const runner::Json& counters = require(doc, "counters");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    snap.counters[i] =
        static_cast<std::uint64_t>(require(counters, kCounterNames[i]).as_int());
  }
  const runner::Json& waterfalls = require(doc, "waterfalls");
  for (std::size_t w = 0; w < kNumWaterfalls; ++w) {
    const runner::Json& kind = require(waterfalls, kWaterfallNames[w]);
    hist_row_from_json(require(kind, "subcarriers"), snap.waterfalls[w]);
  }
  const runner::Json& detector = require(doc, "detector");
  for (std::size_t t = 0; t < kNumTruths; ++t) {
    hist_row_from_json(require(detector, kTruthNames[t]), snap.scores[t]);
  }
  snap.nabla_evm = Hist::from_json(require(doc, "nabla_evm_x4096"));
  return snap;
}

runner::Json merge_health_json(const std::vector<runner::Json>& docs) {
  HealthSnapshot merged;
  for (const runner::Json& doc : docs) merged += health_from_json(doc);
  return health_json(merged);
}

void maybe_trace_counters() {
  auto& tracer = Tracer::global();
  if (!tracer.active()) return;
  static std::atomic<std::uint64_t> calls{0};
  if (calls.fetch_add(1, std::memory_order_relaxed) % kTraceSampleEvery != 0) {
    return;
  }
  const HealthSnapshot snap = Registry::global().snapshot();
  std::uint64_t evm_count = 0, evm_sum = 0;
  for (const Hist& h :
       snap.waterfalls[static_cast<std::size_t>(Waterfall::kEvm)]) {
    evm_count += h.count;
    evm_sum += h.sum;
  }
  if (evm_count > 0) {
    tracer.counter("health.mean_evm", static_cast<double>(evm_sum) /
                                          static_cast<double>(evm_count) /
                                          kEvmScale);
  }
  std::uint64_t score_count = 0, score_sum = 0;
  for (const auto& truth : snap.scores) {
    for (const Hist& h : truth) {
      score_count += h.count;
      score_sum += h.sum;
    }
  }
  if (score_count > 0) {
    // Mean energy/threshold ratio across all detector evaluations: the
    // margin the score stream sits at relative to the decision boundary.
    tracer.counter("health.detector_margin",
                   static_cast<double>(score_sum) /
                       static_cast<double>(score_count) / kScoreScale);
  }
  const std::uint64_t rounds =
      snap.counters[static_cast<std::size_t>(Counter::kSelectionRounds)];
  if (rounds > 0) {
    tracer.counter(
        "health.selected_subcarriers",
        static_cast<double>(
            snap.counters[static_cast<std::size_t>(
                Counter::kSubcarriersSelected)]) /
            static_cast<double>(rounds));
  }
}

}  // namespace silence::obs::health
