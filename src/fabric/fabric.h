// The sweep fabric: runner::run_sweep semantics, sharded across worker
// processes.
//
// Fabric::run() is a drop-in analogue of runner::run_sweep() with three
// execution modes decided by FabricConfig:
//
//   inline     (workers <= 1, no shard spec): delegates straight to
//              runner::run_sweep — the fabric adds nothing.
//   supervisor (workers > 1): plans contiguous shards over the linear
//              (point x trial) slot space, re-execs this binary once per
//              shard with --shard-spec/--shard-out, supervises the
//              workers (timeout, bounded retry with backoff, straggler
//              re-dispatch; fabric/supervisor.h), then decodes every
//              shard's slots and reduces them in EXACTLY the order
//              runner::run_sweep uses: point by point, trial by trial.
//   worker     (shard spec present): runs only its slot range, encodes
//              each slot's result, and writes one self-contained JSON
//              artifact (fabric/transport.h) plus its run record.
//
// Byte-identity argument: every slot's seed is a pure function of its
// coordinates, each slot's result is shipped individually (integers
// exact, doubles via the shortest-round-trip writer, so decode(encode(x))
// reproduces every bit), and the merger replays the single-process
// reduction order — so the merged SweepOutcome, and any report derived
// from it, is byte-identical to the single-process run at any worker
// count, any shard count, and across any crash/retry/re-dispatch
// schedule.
//
// Fault injection for tests/CI: when SILENCE_FABRIC_CRASH_SHARD=<index>
// is set, the worker running that shard aborts mid-shard (after half its
// slots) on its first attempt; when SILENCE_FABRIC_HANG_SHARD=<index> is
// set, that shard's first attempt sleeps forever instead, so a run with
// --fabric-timeout exercises the straggler-kill + re-dispatch path. The
// supervisor exports SILENCE_FABRIC_ATTEMPT=<n> to every child, so the
// retry — attempt 1 — runs to completion and must reproduce the
// uninjected bytes.
#pragma once

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "fabric/process.h"
#include "fabric/run_record.h"
#include "fabric/shard.h"
#include "fabric/supervisor.h"
#include "fabric/telemetry.h"
#include "fabric/transport.h"
#include "obs/obs.h"
#include "runner/sinks.h"
#include "runner/sweep.h"

namespace silence::fabric {

struct FabricConfig {
  // Supervisor side.
  int workers = 0;       // > 1 enables the process fabric
  int shard_count = 0;   // shards per sweep; 0 = one per worker
  std::string spool_dir; // artifact spool; "" = per-run temp directory
  std::string self;      // executable to re-exec as a worker
  // Flags every worker needs to rebuild the identical grid
  // (--seed/--trials/--threads; built by bench::fabric_config).
  std::vector<std::string> passthrough_args;
  SupervisorOptions supervisor;
  // Worker side.
  std::optional<ShardSpec> shard;  // set => this process runs one shard
  std::string shard_out;           // where the artifact must land
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config) : config_(std::move(config)) {
    if (config_.shard && config_.shard_out.empty()) {
      throw std::invalid_argument("fabric: --shard-spec requires --shard-out");
    }
    if (fabric_mode() && config_.spool_dir.empty()) {
      config_.spool_dir =
          (std::filesystem::temp_directory_path() /
           ("silence-fabric-" + std::to_string(::getpid())))
              .string();
    }
  }

  bool worker_mode() const { return config_.shard.has_value(); }
  bool fabric_mode() const { return !worker_mode() && config_.workers > 1; }
  const FabricConfig& config() const { return config_; }

  // Worker epilogue: 0 once the process's shard ran and its artifact is
  // on disk; 2 (with a diagnostic) if the spec named a sweep this binary
  // never ran — the supervisor treats that exit as a shard failure.
  int finish_worker() const {
    if (!worker_mode()) return 0;
    if (!worker_satisfied_) {
      std::fprintf(stderr,
                   "fabric: shard spec '%s' matched no sweep in this bench\n",
                   config_.shard->to_string().c_str());
      return 2;
    }
    return 0;
  }

  // run_sweep with pluggable shard transport. `encode`/`decode` form the
  // Result codec (decode(encode(r)) must reproduce r bit-exactly);
  // `merge` has run_sweep's contract. In worker mode a call whose
  // `sweep` does not match the shard spec returns immediately with
  // default-constructed point results, so a bench with several sweeps
  // only computes the one its shard names.
  template <typename Point, typename TrialFn, typename EncodeFn,
            typename DecodeFn, typename MergeFn>
  auto run(const std::string& sweep, const runner::SweepGrid<Point>& grid,
           const runner::RunnerOptions& options, TrialFn&& trial,
           EncodeFn&& encode, DecodeFn&& decode, MergeFn&& merge)
      -> runner::SweepOutcome<std::invoke_result_t<
          TrialFn&, const Point&, const runner::TrialContext&>> {
    using Result = std::invoke_result_t<TrialFn&, const Point&,
                                        const runner::TrialContext&>;
    if (worker_mode()) {
      if (config_.shard->sweep != sweep) {
        runner::SweepOutcome<Result> outcome;
        outcome.point_results.resize(grid.points.size());
        return outcome;
      }
      return run_worker(grid, options, std::forward<TrialFn>(trial),
                        std::forward<EncodeFn>(encode));
    }
    if (!fabric_mode()) {
      return runner::run_sweep(grid, options, std::forward<TrialFn>(trial),
                               std::forward<MergeFn>(merge));
    }
    return run_supervisor<Result>(sweep, grid, std::forward<DecodeFn>(decode),
                                  std::forward<MergeFn>(merge));
  }

  // Overload merging with `into += part` (ErrorStats and friends).
  template <typename Point, typename TrialFn, typename EncodeFn,
            typename DecodeFn>
  auto run(const std::string& sweep, const runner::SweepGrid<Point>& grid,
           const runner::RunnerOptions& options, TrialFn&& trial,
           EncodeFn&& encode, DecodeFn&& decode) {
    return run(sweep, grid, options, std::forward<TrialFn>(trial),
               std::forward<EncodeFn>(encode), std::forward<DecodeFn>(decode),
               [](auto& into, auto&& part) { into += part; });
  }

  // Writes the bench's run record next to `json_path` (fabric/run_record.h):
  // `timing`, the metrics and health sections merged over every worker's
  // shard record plus this process's registries — so a fabric run reports
  // the same totals a single-process run would — and, when the supervisor
  // drove any shards, the shard-lifecycle telemetry.
  void write_run_record(const std::string& json_path,
                        const runner::RunTiming& timing) const {
    fabric::write_run_record(json_path, timing, shard_records_, &telemetry_);
  }

  const Telemetry& telemetry() const { return telemetry_; }

 private:
  // True when this worker must die mid-shard (test/CI fault injection).
  // Only ever fires on attempt 0 — the supervisor stamps every child
  // with SILENCE_FABRIC_ATTEMPT, so the retry completes.
  static bool crash_injected(std::size_t shard_index) {
    const char* target = std::getenv("SILENCE_FABRIC_CRASH_SHARD");
    if (target == nullptr) return false;
    const char* attempt = std::getenv("SILENCE_FABRIC_ATTEMPT");
    if (attempt != nullptr && std::strtol(attempt, nullptr, 10) > 0) {
      return false;
    }
    return std::strtoull(target, nullptr, 10) == shard_index;
  }

  // True when this worker must hang (straggler injection). Same attempt-0
  // rule as crash_injected; the supervisor's timeout reaps the sleeper.
  static bool hang_injected(std::size_t shard_index) {
    const char* target = std::getenv("SILENCE_FABRIC_HANG_SHARD");
    if (target == nullptr) return false;
    const char* attempt = std::getenv("SILENCE_FABRIC_ATTEMPT");
    if (attempt != nullptr && std::strtol(attempt, nullptr, 10) > 0) {
      return false;
    }
    return std::strtoull(target, nullptr, 10) == shard_index;
  }

  template <typename Point, typename TrialFn, typename EncodeFn>
  auto run_worker(const runner::SweepGrid<Point>& grid,
                  const runner::RunnerOptions& options, TrialFn&& trial,
                  EncodeFn&& encode) {
    using Result = std::invoke_result_t<TrialFn&, const Point&,
                                        const runner::TrialContext&>;
    const ShardSpec& spec = *config_.shard;
    const std::size_t trials = grid.trials == 0 ? 1 : grid.trials;
    const std::size_t total = grid.points.size() * trials;
    if (spec.end > total) {
      throw std::runtime_error("fabric: shard " + spec.to_string() +
                               " exceeds the grid's " + std::to_string(total) +
                               " slots");
    }

    if (hang_injected(spec.index)) {
      std::fprintf(stderr,
                   "fabric: SILENCE_FABRIC_HANG_SHARD=%zu — sleeping as an "
                   "injected straggler\n",
                   spec.index);
      std::this_thread::sleep_for(std::chrono::seconds(600));
    }

    const auto start = std::chrono::steady_clock::now();
    runner::SweepOutcome<Result> outcome;
    outcome.threads = runner::resolve_threads(options.threads);
    const bool crash = crash_injected(spec.index);
    // A crashing worker gets through half its slots, then dies without
    // committing an artifact — the supervisor sees a mid-shard loss.
    const std::size_t limit = crash ? spec.slots() / 2 : spec.slots();
    std::vector<Result> slots(spec.slots());
    runner::parallel_for(limit, outcome.threads, options.chunk,
                         [&](std::size_t i) {
                           OBS_SPAN("runner.trial");
                           const std::size_t slot = spec.begin + i;
                           runner::TrialContext ctx;
                           ctx.point_index = slot / trials;
                           ctx.trial_index = slot % trials;
                           ctx.seed = runner::trial_seed(
                               grid.base_seed, ctx.point_index,
                               ctx.trial_index);
                           slots[i] = trial(grid.points[ctx.point_index], ctx);
                         });
    if (crash) {
      std::fprintf(stderr,
                   "fabric: SILENCE_FABRIC_CRASH_SHARD=%zu — aborting "
                   "mid-shard after %zu/%zu slots\n",
                   spec.index, limit, spec.slots());
      std::_Exit(42);
    }
    OBS_COUNT_N("runner.trials", spec.slots());

    runner::Json encoded = runner::Json::array();
    for (const Result& result : slots) encoded.push_back(encode(result));
    // Run record first, artifact rename last: the artifact is the commit
    // point, so a validated shard always has its record alongside. The
    // record is always written, so a reused spool never feeds a stale one
    // into the merge.
    fabric::write_run_record(
        config_.shard_out,
        {spec.sweep, outcome.threads, spec.slots(),
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count()});
    write_shard_artifact(
        config_.shard_out,
        make_shard_artifact(spec, grid.base_seed, grid.points.size(), trials,
                            std::move(encoded)));
    worker_satisfied_ = true;
    outcome.trials_run = spec.slots();
    outcome.point_results.resize(grid.points.size());
    return outcome;
  }

  template <typename Result, typename Point, typename DecodeFn,
            typename MergeFn>
  runner::SweepOutcome<Result> run_supervisor(
      const std::string& sweep, const runner::SweepGrid<Point>& grid,
      DecodeFn&& decode, MergeFn&& merge) {
    const std::size_t trials = grid.trials == 0 ? 1 : grid.trials;
    const std::size_t total = grid.points.size() * trials;
    const std::size_t shard_count = static_cast<std::size_t>(
        config_.shard_count > 0 ? config_.shard_count : config_.workers);

    runner::SweepOutcome<Result> outcome;
    outcome.threads = config_.workers;  // processes; run record only
    outcome.trials_run = total;
    const auto start = std::chrono::steady_clock::now();

    const std::vector<ShardSpec> plan =
        plan_shards(sweep, total, shard_count);
    std::filesystem::create_directories(config_.spool_dir);
    SupervisorOptions sup = config_.supervisor;
    sup.max_workers = config_.workers;
    const auto command_for = [&](const ShardSpec& spec,
                                 const std::string& artifact_path) {
      std::vector<std::string> argv{config_.self};
      argv.insert(argv.end(), config_.passthrough_args.begin(),
                  config_.passthrough_args.end());
      argv.push_back("--shard-spec");
      argv.push_back(spec.to_string());
      argv.push_back("--shard-out");
      argv.push_back(artifact_path);
      return argv;
    };
    telemetry_.set_workers(config_.workers);
    const std::vector<runner::Json> artifacts =
        run_shards(plan, config_.spool_dir, grid.base_seed,
                   grid.points.size(), trials, command_for, sup,
                   &telemetry_);

    for (const ShardSpec& spec : plan) {
      shard_records_.push_back(runner::read_json_file(runner::run_record_path(
          shard_artifact_path(config_.spool_dir, spec))));
    }

    std::vector<Result> slots(total);
    for (std::size_t s = 0; s < plan.size(); ++s) {
      const runner::Json::Array& encoded =
          artifacts[s].find("slots")->as_array();
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        slots[plan[s].begin + i] = decode(encoded[i]);
      }
    }

    // The exact reduction order of runner::run_sweep — point by point,
    // trial by trial — so non-associative merges (double sums) come out
    // bit-identical to the single-process run.
    outcome.point_results.reserve(grid.points.size());
    for (std::size_t p = 0; p < grid.points.size(); ++p) {
      Result merged = std::move(slots[p * trials]);
      for (std::size_t t = 1; t < trials; ++t) {
        merge(merged, std::move(slots[p * trials + t]));
      }
      outcome.point_results.push_back(std::move(merged));
    }
    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return outcome;
  }

  FabricConfig config_;
  bool worker_satisfied_ = false;
  std::vector<runner::Json> shard_records_;
  Telemetry telemetry_;
};

}  // namespace silence::fabric
