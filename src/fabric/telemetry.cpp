#include "fabric/telemetry.h"

#include <algorithm>
#include <cstring>

namespace silence::fabric {

double quantile_of(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void Telemetry::record(const char* kind, const std::string& shard,
                       int attempt, double seconds,
                       const std::string& detail) {
  events_.push_back({elapsed(), kind, shard, attempt, seconds, detail});
}

std::size_t Telemetry::count(const char* kind) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (std::strcmp(e.kind, kind) == 0) ++n;
  }
  return n;
}

runner::Json Telemetry::to_json() const {
  runner::Json root = runner::Json::object();
  root.set("schema_version", static_cast<std::int64_t>(1));
  root.set("workers", static_cast<std::int64_t>(workers_));
  root.set("shards", static_cast<std::int64_t>(shards_));
  const double wall = elapsed();
  root.set("wall_seconds", wall);

  runner::Json events = runner::Json::array();
  // Attempt durations of every *finished* attempt (completed, failed,
  // rejected or killed) — the busy time the worker pool actually spent.
  std::vector<double> attempt_seconds;
  double busy = 0.0;
  for (const Event& e : events_) {
    runner::Json row = runner::Json::object();
    row.set("t", e.t);
    row.set("kind", std::string(e.kind));
    row.set("shard", e.shard);
    row.set("attempt", static_cast<std::int64_t>(e.attempt));
    row.set("seconds", e.seconds);
    if (!e.detail.empty()) row.set("detail", e.detail);
    events.push_back(std::move(row));
    if (std::strcmp(e.kind, kDispatch) != 0 &&
        std::strcmp(e.kind, kRetry) != 0) {
      attempt_seconds.push_back(e.seconds);
      busy += e.seconds;
    }
  }
  root.set("events", std::move(events));

  runner::Json summary = runner::Json::object();
  summary.set("dispatches", static_cast<std::int64_t>(count(kDispatch)));
  summary.set("completes", static_cast<std::int64_t>(count(kComplete)));
  summary.set("retries", static_cast<std::int64_t>(count(kRetry)));
  summary.set("straggler_kills",
              static_cast<std::int64_t>(count(kStragglerKill)));
  summary.set("worker_failures",
              static_cast<std::int64_t>(count(kWorkerFailure)));
  summary.set("artifact_rejects",
              static_cast<std::int64_t>(count(kArtifactReject)));
  summary.set("busy_seconds", busy);
  const double capacity = static_cast<double>(workers_) * wall;
  summary.set("worker_utilization", capacity > 0.0 ? busy / capacity : 0.0);

  std::sort(attempt_seconds.begin(), attempt_seconds.end());
  runner::Json quant = runner::Json::object();
  quant.set("count", static_cast<std::int64_t>(attempt_seconds.size()));
  quant.set("min", attempt_seconds.empty() ? 0.0 : attempt_seconds.front());
  quant.set("max", attempt_seconds.empty() ? 0.0 : attempt_seconds.back());
  quant.set("p50", quantile_of(attempt_seconds, 0.50));
  quant.set("p95", quantile_of(attempt_seconds, 0.95));
  quant.set("p99", quantile_of(attempt_seconds, 0.99));
  summary.set("attempt_seconds", std::move(quant));
  // Exact durations, so silence_campaign can re-merge quantiles across
  // sweeps instead of averaging averages.
  runner::Json list = runner::Json::array();
  for (const double s : attempt_seconds) list.push_back(s);
  summary.set("attempt_seconds_list", std::move(list));
  root.set("summary", std::move(summary));
  return root;
}

}  // namespace silence::fabric
