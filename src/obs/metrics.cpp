#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace silence::obs {
namespace {

std::uint32_t intern(std::vector<std::string>& names, std::string_view name,
                     std::size_t capacity, const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (names.size() >= capacity) {
    throw std::length_error(std::string("obs: too many ") + kind +
                            " metrics (cap " + std::to_string(capacity) +
                            ")");
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const CounterSnapshot* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // intentionally leaked:
  // instrumented code may run during static destruction of other TUs.
  return *instance;
}

std::uint32_t Registry::counter_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(counter_names_, name, kMaxCounters, "counter");
}

std::uint32_t Registry::gauge_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(gauge_names_, name, kMaxGauges, "gauge");
}

std::uint32_t Registry::histogram_id(std::string_view name) {
  std::lock_guard lock(mutex_);
  return intern(histogram_names_, name, kMaxHistograms, "histogram");
}

void Registry::counter_add(std::uint32_t id, std::uint64_t delta) {
  cell_add(blocks_.local().counters[id], delta);
}

void Registry::gauge_set(std::uint32_t id, std::int64_t value) {
  gauges_[id].store(value, std::memory_order_relaxed);
  gauge_set_[id].store(true, std::memory_order_relaxed);
}

void Registry::histogram_record(std::uint32_t id, std::uint64_t value) {
  blocks_.local().histograms[id].record(value);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;

  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
  }
  snap.histograms.resize(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    snap.histograms[i].name = histogram_names_[i];
  }
  blocks_.for_each([&snap](const ThreadBlock& block) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          block.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      block.histograms[i].add_to(snap.histograms[i]);
    }
  });
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (!gauge_set_[i].load(std::memory_order_relaxed)) continue;
    snap.gauges.push_back(
        {gauge_names_[i], gauges_[i].load(std::memory_order_relaxed)});
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  blocks_.for_each([](ThreadBlock& block) {
    for (auto& c : block.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : block.histograms) h.clear();
  });
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& s : gauge_set_) s.store(false, std::memory_order_relaxed);
}

runner::Json metrics_json(const MetricsSnapshot& snapshot) {
  runner::Json root = runner::Json::object();
  runner::Json counters = runner::Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, static_cast<std::int64_t>(c.value));
  }
  root.set("counters", std::move(counters));
  runner::Json gauges = runner::Json::object();
  for (const auto& g : snapshot.gauges) gauges.set(g.name, g.value);
  root.set("gauges", std::move(gauges));
  runner::Json histograms = runner::Json::object();
  for (const auto& h : snapshot.histograms) {
    histograms.set(h.name, h.summary_json());
  }
  root.set("histograms", std::move(histograms));
  return root;
}

runner::Json merge_metrics_json(const std::vector<runner::Json>& docs) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Hist> histograms;

  const auto section = [](const runner::Json& doc, std::string_view key) {
    static const runner::Json empty = runner::Json::object();
    const runner::Json* value = doc.find(key);
    if (value == nullptr) return &empty;
    if (!value->is_object()) {
      throw std::runtime_error("merge_metrics_json: '" + std::string(key) +
                               "' is not an object");
    }
    return value;
  };

  for (const runner::Json& doc : docs) {
    for (const auto& [name, value] : section(doc, "counters")->as_object()) {
      counters[name] += static_cast<std::uint64_t>(value.as_int());
    }
    for (const auto& [name, value] : section(doc, "gauges")->as_object()) {
      const std::int64_t v = value.as_int();
      const auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted && v > it->second) it->second = v;
    }
    for (const auto& [name, value] : section(doc, "histograms")->as_object()) {
      histograms[name] += Hist::from_json(value);
    }
  }

  MetricsSnapshot merged;
  for (auto& [name, value] : counters) merged.counters.push_back({name, value});
  for (auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  for (auto& [name, h] : histograms) merged.histograms.push_back({h, name});
  return metrics_json(merged);
}

}  // namespace silence::obs
