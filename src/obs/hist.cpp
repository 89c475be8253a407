#include "obs/hist.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <string_view>

namespace silence::obs {
namespace {

std::uint64_t non_negative(const runner::Json& value, std::string_view what) {
  const std::int64_t v = value.as_int();
  if (v < 0) {
    throw std::runtime_error("obs::Hist: negative " + std::string(what));
  }
  return static_cast<std::uint64_t>(v);
}

std::uint64_t field(const runner::Json& json, std::string_view key) {
  const runner::Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error("obs::Hist: missing field '" + std::string(key) +
                             "'");
  }
  return non_negative(*value, key);
}

// Shared body of to_json/summary_json: the summary fields sit between
// the integer quadruple and the bucket tallies.
runner::Json render(const Hist& h, bool summary) {
  runner::Json root = runner::Json::object();
  root.set("count", static_cast<std::int64_t>(h.count));
  root.set("sum", static_cast<std::int64_t>(h.sum));
  root.set("min", static_cast<std::int64_t>(h.min));
  root.set("max", static_cast<std::int64_t>(h.max));
  std::size_t used = h.buckets.size();
  while (used > 0 && h.buckets[used - 1] == 0) --used;
  if (summary) {
    root.set("mean", h.mean());
    root.set("p50", h.quantile(0.50));
    root.set("p95", h.quantile(0.95));
    root.set("p99", h.quantile(0.99));
    runner::Json floors = runner::Json::array();
    for (std::size_t b = 0; b < used; ++b) {
      floors.push_back(static_cast<std::int64_t>(histogram_bucket_floor(b)));
    }
    root.set("bucket_floors", std::move(floors));
  }
  runner::Json tallies = runner::Json::array();
  for (std::size_t b = 0; b < used; ++b) {
    tallies.push_back(static_cast<std::int64_t>(h.buckets[b]));
  }
  root.set("buckets", std::move(tallies));
  return root;
}

}  // namespace

std::size_t histogram_bucket(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
}

std::uint64_t histogram_bucket_floor(std::size_t index) {
  if (index == 0) return 0;
  return std::uint64_t{1} << (index - 1);
}

void Hist::record(std::uint64_t value) {
  if (count == 0 || value < min) min = value;
  if (count == 0 || value > max) max = value;
  ++count;
  sum += value;
  ++buckets[histogram_bucket(value)];
}

Hist& Hist::operator+=(const Hist& o) {
  if (o.count == 0) return *this;
  if (count == 0 || o.min < min) min = o.min;
  if (count == 0 || o.max > max) max = o.max;
  count += o.count;
  sum += o.sum;
  for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
  return *this;
}

double Hist::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double n = static_cast<double>(buckets[b]);
    if (n == 0.0) continue;
    if (cumulative + n >= target) {
      const double lower = static_cast<double>(histogram_bucket_floor(b));
      // The last bucket is open-ended; the observed max bounds it.
      const double upper =
          b + 1 < buckets.size()
              ? static_cast<double>(histogram_bucket_floor(b + 1))
              : static_cast<double>(max);
      const double fraction = (target - cumulative) / n;
      const double value = lower + fraction * (upper - lower);
      return std::clamp(value, static_cast<double>(min),
                        static_cast<double>(max));
    }
    cumulative += n;
  }
  return static_cast<double>(max);
}

std::uint64_t Hist::count_below(std::size_t bucket) const {
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < std::min(bucket, buckets.size()); ++b) {
    n += buckets[b];
  }
  return n;
}

runner::Json Hist::to_json() const { return render(*this, false); }

runner::Json Hist::summary_json() const { return render(*this, true); }

Hist Hist::from_json(const runner::Json& json) {
  Hist h;
  h.count = field(json, "count");
  h.sum = field(json, "sum");
  h.min = field(json, "min");
  h.max = field(json, "max");
  const runner::Json* tallies = json.find("buckets");
  if (tallies == nullptr || !tallies->is_array()) {
    throw std::runtime_error("obs::Hist: 'buckets' is missing or not an array");
  }
  if (tallies->size() > kHistogramBuckets) {
    throw std::runtime_error("obs::Hist: too many buckets");
  }
  for (std::size_t b = 0; b < tallies->size(); ++b) {
    h.buckets[b] = non_negative(tallies->as_array()[b], "bucket tally");
  }
  return h;
}

void HistCells::record(std::uint64_t value) {
  const std::uint64_t count = count_.load(std::memory_order_relaxed);
  if (count == 0 || value < min_.load(std::memory_order_relaxed)) {
    min_.store(value, std::memory_order_relaxed);
  }
  if (count == 0 || value > max_.load(std::memory_order_relaxed)) {
    max_.store(value, std::memory_order_relaxed);
  }
  count_.store(count + 1, std::memory_order_relaxed);
  cell_add(sum_, value);
  cell_add(buckets_[histogram_bucket(value)], 1);
}

void HistCells::add_to(Hist& into) const {
  Hist cell;
  cell.count = count_.load(std::memory_order_relaxed);
  if (cell.count == 0) return;
  cell.sum = sum_.load(std::memory_order_relaxed);
  cell.min = min_.load(std::memory_order_relaxed);
  cell.max = max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cell.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  into += cell;
}

void HistCells::clear() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

}  // namespace silence::obs
