// silence_campaign — runs a manifest of sweep benches end-to-end and
// aggregates their sidecars into one campaign dashboard JSON.
//
//   silence_campaign <manifest.json> [--workers N] [--dry-run]
//
// The manifest lists the sweeps of a campaign:
//
//   {
//     "campaign": "full_grid",
//     "output": "results/campaign.json",
//     "fabric_workers": 4,
//     "sweeps": [
//       {"name": "fig10_detection",
//        "command": ["build/bench/fig10_detection", "--trials", "200"],
//        "json": "results/fig10_detection.json"},
//       {"name": "net_scenarios",
//        "command": ["build/bench/net_scenarios"],
//        "json": "results/net_scenarios.json"}
//     ]
//   }
//
// Each sweep's command is spawned with `--json <json>` appended, plus
// `--fabric <N>` when fabric_workers > 1 — so every sweep runs through
// the sharded fabric (src/fabric/) with its fault-tolerant supervision,
// and each bench's .metrics.json sidecar already holds the merge of its
// shards' worker sidecars. A sweep that exits nonzero fails the whole
// campaign. Afterwards the dashboard aggregates across sweeps: counters
// summed, gauges maxed, histograms merged bucket-wise with p50/p95/p99
// recomputed from the combined buckets (obs::merge_metrics_json),
// plus per-sweep wall-clock/trial totals from the .timing.json sidecars
// and an exact integer merge of the .health.json PHY-health sidecars.
//
// Exit status: 0 = campaign complete and dashboard written; 1 = a sweep
// failed; 2 = usage/manifest error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/process.h"
#include "fabric/telemetry.h"
#include "obs/health/health.h"
#include "obs/metrics.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace {

using silence::runner::Json;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <manifest.json> [--workers N] [--dry-run]\n"
               "  runs every sweep in the manifest (optionally through the\n"
               "  sweep fabric) and writes the aggregated campaign dashboard\n"
               "  to the manifest's `output` path\n"
               "  --workers N  override the manifest's fabric_workers\n"
               "  --dry-run    print the commands without running anything\n",
               argv0);
  return code;
}

const Json& require(const Json& json, const char* key) {
  const Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("manifest: missing field '") + key +
                             "'");
  }
  return *value;
}

struct SweepEntry {
  std::string name;
  std::vector<std::string> command;
  std::string json_path;
};

struct Manifest {
  std::string campaign;
  std::string output;
  int fabric_workers = 0;
  std::vector<SweepEntry> sweeps;
};

Manifest parse_manifest(const Json& root) {
  Manifest m;
  m.campaign = require(root, "campaign").as_string();
  m.output = require(root, "output").as_string();
  if (const Json* workers = root.find("fabric_workers")) {
    m.fabric_workers = static_cast<int>(workers->as_int());
  }
  const Json& sweeps = require(root, "sweeps");
  if (!sweeps.is_array() || sweeps.size() == 0) {
    throw std::runtime_error("manifest: 'sweeps' must be a non-empty array");
  }
  for (const Json& entry : sweeps.as_array()) {
    SweepEntry sweep;
    sweep.name = require(entry, "name").as_string();
    const Json& command = require(entry, "command");
    if (!command.is_array() || command.size() == 0) {
      throw std::runtime_error("manifest: sweep '" + sweep.name +
                               "' needs a non-empty 'command' array");
    }
    for (const Json& arg : command.as_array()) {
      sweep.command.push_back(arg.as_string());
    }
    sweep.json_path = require(entry, "json").as_string();
    m.sweeps.push_back(std::move(sweep));
  }
  return m;
}

std::string join(const std::vector<std::string>& argv) {
  std::string line;
  for (const std::string& arg : argv) {
    if (!line.empty()) line += ' ';
    line += arg;
  }
  return line;
}

// Rolls the per-sweep fabric .telemetry.json sidecars up into one
// campaign-level view: event counts summed, attempt durations pooled
// (quantiles recomputed), utilization weighted by each sweep's
// workers × wall capacity.
Json merge_fabric_telemetry(const std::vector<Json>& docs) {
  std::int64_t shards = 0, dispatches = 0, completes = 0, retries = 0;
  std::int64_t straggler_kills = 0, worker_failures = 0, artifact_rejects = 0;
  std::int64_t max_workers = 0;
  double wall = 0.0, busy = 0.0, capacity = 0.0;
  std::vector<double> attempt_seconds;
  const auto int_field = [](const Json& doc, const char* key) -> std::int64_t {
    const Json* v = doc.find(key);
    return v == nullptr ? 0 : v->as_int();
  };
  const auto dbl_field = [](const Json& doc, const char* key) -> double {
    const Json* v = doc.find(key);
    return v == nullptr ? 0.0 : v->as_double();
  };
  for (const Json& doc : docs) {
    const std::int64_t workers = int_field(doc, "workers");
    const double sweep_wall = dbl_field(doc, "wall_seconds");
    max_workers = std::max(max_workers, workers);
    shards += int_field(doc, "shards");
    wall += sweep_wall;
    capacity += static_cast<double>(workers) * sweep_wall;
    const Json* summary = doc.find("summary");
    if (summary == nullptr) continue;
    dispatches += int_field(*summary, "dispatches");
    completes += int_field(*summary, "completes");
    retries += int_field(*summary, "retries");
    straggler_kills += int_field(*summary, "straggler_kills");
    worker_failures += int_field(*summary, "worker_failures");
    artifact_rejects += int_field(*summary, "artifact_rejects");
    busy += dbl_field(*summary, "busy_seconds");
    if (const Json* list = summary->find("attempt_seconds_list")) {
      for (const Json& s : list->as_array()) {
        attempt_seconds.push_back(s.as_double());
      }
    }
  }
  std::sort(attempt_seconds.begin(), attempt_seconds.end());

  Json out = Json::object();
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
  Json quant = Json::object();
  quant.set("count", static_cast<std::int64_t>(attempt_seconds.size()));
  quant.set("min", attempt_seconds.empty() ? 0.0 : attempt_seconds.front());
  quant.set("max", attempt_seconds.empty() ? 0.0 : attempt_seconds.back());
  quant.set("p50", silence::fabric::quantile_of(attempt_seconds, 0.50));
  quant.set("p95", silence::fabric::quantile_of(attempt_seconds, 0.95));
  quant.set("p99", silence::fabric::quantile_of(attempt_seconds, 0.99));
  out.set("attempt_seconds", std::move(quant));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  int workers_override = -1;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--workers")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      workers_override = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--dry-run")) {
      dry_run = true;
    } else if (manifest_path.empty()) {
      manifest_path = argv[i];
    } else {
      return usage(argv[0], 2);
    }
  }
  if (manifest_path.empty()) return usage(argv[0], 2);

  Manifest manifest;
  try {
    manifest = parse_manifest(silence::runner::read_json_file(manifest_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  const int workers =
      workers_override >= 0 ? workers_override : manifest.fabric_workers;

  const std::string mode = workers > 1
                               ? ", fabric x" + std::to_string(workers)
                               : std::string(" (single-process)");
  std::printf("campaign '%s': %zu sweep(s)%s\n", manifest.campaign.c_str(),
              manifest.sweeps.size(), mode.c_str());

  Json dashboard_sweeps = Json::array();
  std::vector<Json> metric_docs;
  std::vector<Json> telemetry_docs;
  std::vector<Json> health_docs;
  double total_wall = 0.0;
  std::int64_t total_trials = 0;

  for (const SweepEntry& sweep : manifest.sweeps) {
    std::vector<std::string> command = sweep.command;
    command.push_back("--json");
    command.push_back(sweep.json_path);
    if (workers > 1) {
      command.push_back("--fabric");
      command.push_back(std::to_string(workers));
    }
    std::printf("[%s] %s\n", sweep.name.c_str(), join(command).c_str());
    if (dry_run) continue;

    const pid_t pid = silence::fabric::spawn_process(command, {});
    const silence::fabric::ExitStatus status =
        silence::fabric::wait_process(pid);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: sweep '%s' failed: %s\n", argv[0],
                   sweep.name.c_str(), status.describe().c_str());
      return 1;
    }

    Json entry = Json::object();
    entry.set("name", sweep.name);
    entry.set("json", sweep.json_path);
    try {
      const Json result = silence::runner::read_json_file(sweep.json_path);
      if (const Json* bench = result.find("bench")) {
        entry.set("bench", *bench);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: sweep '%s' wrote no readable result: %s\n",
                   argv[0], sweep.name.c_str(), e.what());
      return 1;
    }
    const std::string timing_path =
        silence::runner::timing_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(timing_path)) {
      const Json timing = silence::runner::read_json_file(timing_path);
      if (const Json* wall = timing.find("wall_seconds")) {
        entry.set("wall_seconds", *wall);
        total_wall += wall->as_double();
      }
      if (const Json* trials = timing.find("trials_run")) {
        entry.set("trials_run", *trials);
        total_trials += trials->as_int();
      }
    }
    const std::string metrics_path =
        silence::runner::metrics_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(metrics_path)) {
      metric_docs.push_back(silence::runner::read_json_file(metrics_path));
      entry.set("metrics", metrics_path);
    }
    const std::string telemetry_path =
        silence::runner::telemetry_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(telemetry_path)) {
      telemetry_docs.push_back(silence::runner::read_json_file(telemetry_path));
      entry.set("telemetry", telemetry_path);
    }
    const std::string health_path =
        silence::runner::health_sidecar_path(sweep.json_path);
    if (std::filesystem::exists(health_path)) {
      health_docs.push_back(silence::runner::read_json_file(health_path));
      entry.set("health", health_path);
    }
    dashboard_sweeps.push_back(std::move(entry));
  }
  if (dry_run) return 0;

  Json dashboard = Json::object();
  dashboard.set("campaign", manifest.campaign);
  dashboard.set("schema_version", 1);
  dashboard.set("fabric_workers", workers);
  dashboard.set("sweeps", std::move(dashboard_sweeps));
  Json totals = Json::object();
  totals.set("sweeps", static_cast<std::int64_t>(manifest.sweeps.size()));
  totals.set("trials_run", total_trials);
  totals.set("wall_seconds", total_wall);
  dashboard.set("totals", std::move(totals));
  // The cross-sweep metrics rollup: counters summed, histograms merged
  // with quantiles recomputed — one place to see the whole campaign's
  // pipeline counters (built from the per-shard sidecars each fabric
  // run already merged).
  if (!metric_docs.empty()) {
    dashboard.set("metrics", silence::obs::merge_metrics_json(metric_docs));
  }
  // The fleet-health rollup from the supervisors' .telemetry.json
  // sidecars: shard lifecycle counts (dispatch/retry/straggler-kill/
  // complete), pooled attempt-duration quantiles, and worker-pool
  // utilization across every fabric run of the campaign.
  if (!telemetry_docs.empty()) {
    dashboard.set("fabric_telemetry", merge_fabric_telemetry(telemetry_docs));
  }
  // PHY signal-health rollup: the .health.json documents are integer-only
  // snapshots, so summing them across sweeps is exact — the campaign view
  // is the same document one process recording every sweep would write.
  if (!health_docs.empty()) {
    dashboard.set("health", silence::obs::health::merge_health_json(
                                health_docs));
  }
  silence::runner::write_json_file(manifest.output, dashboard);
  std::printf("campaign dashboard written to %s (%zu sweep(s), %lld trials, "
              "%.2f s total)\n",
              manifest.output.c_str(), manifest.sweeps.size(),
              static_cast<long long>(total_trials), total_wall);
  return 0;
}
