#include "fabric/telemetry.h"

#include <algorithm>
#include <cstring>

namespace silence::fabric {

namespace {

// Exact quantile of a sorted sample list (linear interpolation between
// order statistics); 0 for an empty list. Attempts are few, so no
// bucketing.
double quantile_of(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// {count, min, max, p50, p95, p99} of sorted attempt durations.
runner::Json attempt_quantiles(const std::vector<double>& sorted) {
  runner::Json quant = runner::Json::object();
  quant.set("count", static_cast<std::int64_t>(sorted.size()));
  quant.set("min", sorted.empty() ? 0.0 : sorted.front());
  quant.set("max", sorted.empty() ? 0.0 : sorted.back());
  quant.set("p50", quantile_of(sorted, 0.50));
  quant.set("p95", quantile_of(sorted, 0.95));
  quant.set("p99", quantile_of(sorted, 0.99));
  return quant;
}

}  // namespace

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
  summary.set("attempt_seconds", attempt_quantiles(attempt_seconds));
  // Exact durations, so silence_campaign can re-merge quantiles across
  // sweeps instead of averaging averages.
  runner::Json list = runner::Json::array();
  for (const double s : attempt_seconds) list.push_back(s);
  summary.set("attempt_seconds_list", std::move(list));
  root.set("summary", std::move(summary));
  return root;
}

runner::Json merge_telemetry_json(const std::vector<runner::Json>& docs) {
  std::int64_t shards = 0, dispatches = 0, completes = 0, retries = 0;
  std::int64_t straggler_kills = 0, worker_failures = 0, artifact_rejects = 0;
  std::int64_t max_workers = 0;
  double wall = 0.0, busy = 0.0, capacity = 0.0;
  std::vector<double> attempt_seconds;
  const auto int_field = [](const runner::Json& doc,
                            const char* key) -> std::int64_t {
    const runner::Json* v = doc.find(key);
    return v == nullptr ? 0 : v->as_int();
  };
  const auto dbl_field = [](const runner::Json& doc, const char* key) {
    const runner::Json* v = doc.find(key);
    return v == nullptr ? 0.0 : v->as_double();
  };
  for (const runner::Json& doc : docs) {
    const std::int64_t workers = int_field(doc, "workers");
    const double sweep_wall = dbl_field(doc, "wall_seconds");
    max_workers = std::max(max_workers, workers);
    shards += int_field(doc, "shards");
    wall += sweep_wall;
    capacity += static_cast<double>(workers) * sweep_wall;
    const runner::Json* summary = doc.find("summary");
    if (summary == nullptr) continue;
    dispatches += int_field(*summary, "dispatches");
    completes += int_field(*summary, "completes");
    retries += int_field(*summary, "retries");
    straggler_kills += int_field(*summary, "straggler_kills");
    worker_failures += int_field(*summary, "worker_failures");
    artifact_rejects += int_field(*summary, "artifact_rejects");
    busy += dbl_field(*summary, "busy_seconds");
    if (const runner::Json* list = summary->find("attempt_seconds_list")) {
      for (const runner::Json& s : list->as_array()) {
        attempt_seconds.push_back(s.as_double());
      }
    }
  }
  std::sort(attempt_seconds.begin(), attempt_seconds.end());

  runner::Json out = runner::Json::object();
  out.set("sweeps", static_cast<std::int64_t>(docs.size()));
  out.set("workers", max_workers);
  out.set("shards", shards);
  out.set("wall_seconds", wall);
  out.set("dispatches", dispatches);
  out.set("completes", completes);
  out.set("retries", retries);
  out.set("straggler_kills", straggler_kills);
  out.set("worker_failures", worker_failures);
  out.set("artifact_rejects", artifact_rejects);
  out.set("busy_seconds", busy);
  out.set("worker_utilization", capacity > 0.0 ? busy / capacity : 0.0);
  out.set("attempt_seconds", attempt_quantiles(attempt_seconds));
  return out;
}

}  // namespace silence::fabric
