// Structured supervisor telemetry: every shard-lifecycle transition the
// supervisor drives — dispatch, completion, worker failure, artifact
// reject, straggler kill, retry — recorded with its wall-clock offset,
// attempt number and duration, and rendered as one self-contained JSON
// document (the `.telemetry.json` sidecar next to a bench's result).
//
// This is fleet observability, not result data: timings are wall clock
// and differ run to run, which is why telemetry only ever lands in a
// sidecar — the sweep artifacts and the merged result JSON stay
// byte-identical at any worker/shard count.
//
// Single-threaded by design: run_shards polls workers from one thread,
// so recording needs no locking.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "runner/json.h"

namespace silence::fabric {

// Exact quantile of a sorted sample list (linear interpolation between
// order statistics); 0 for an empty list. Attempts are few, so no
// bucketing: Telemetry::to_json reports its attempt-duration p50/p95/p99
// with it, and silence_campaign recomputes them over the pooled samples
// of every sweep.
double quantile_of(const std::vector<double>& sorted, double q);

class Telemetry {
 public:
  // Event kinds, as they appear in the JSON "kind" field.
  static constexpr const char* kDispatch = "dispatch";
  static constexpr const char* kComplete = "complete";
  static constexpr const char* kWorkerFailure = "worker_failure";
  static constexpr const char* kArtifactReject = "artifact_reject";
  static constexpr const char* kStragglerKill = "straggler_kill";
  static constexpr const char* kRetry = "retry";

  Telemetry() : t0_(std::chrono::steady_clock::now()) {}

  // Fleet shape: worker-pool size and total shard count. A bench with
  // several sweeps accumulates shards across its run_shards calls.
  void set_workers(int workers) { workers_ = workers; }
  void add_shards(std::size_t shards) { shards_ += shards; }

  // Records one event. `attempt` is the 0-based attempt the event refers
  // to; `seconds` is the attempt's duration (or the retry's backoff
  // delay); `detail` carries the exit status / rejection reason.
  void record(const char* kind, const std::string& shard, int attempt,
              double seconds = 0.0, const std::string& detail = "");

  bool empty() const { return events_.empty(); }
  std::size_t count(const char* kind) const;

  // The telemetry document; wall_seconds measures construction → call.
  runner::Json to_json() const;

 private:
  struct Event {
    double t = 0.0;  // seconds since telemetry start
    const char* kind;
    std::string shard;
    int attempt = 0;
    double seconds = 0.0;
    std::string detail;
  };

  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_;
  int workers_ = 0;
  std::size_t shards_ = 0;
  std::vector<Event> events_;
};

}  // namespace silence::fabric
