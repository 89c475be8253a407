// silence_campaign — runs a manifest of sweep benches end-to-end and
// aggregates their run records into one campaign dashboard JSON.
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
// and each bench's `<stem>.run.json` record already holds the merge of
// its shards' records. A sweep that exits nonzero, or leaves no readable
// record, fails the whole campaign. Afterwards the dashboard merges the
// records across sweeps (fabric::merge_run_records): metrics counters
// summed, gauges maxed, histograms merged bucket-wise with p50/p95/p99
// recomputed; an exact integer merge of the PHY-health sections; the
// fabric telemetry rolled up into one fleet view; plus per-sweep
// wall-clock/trial totals from each record's timing section.
//
// Exit status: 0 = campaign complete and dashboard written; 1 = a sweep
// failed; 2 = usage/manifest error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/process.h"
#include "fabric/run_record.h"
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

// `json[key]`; throws std::runtime_error naming the key if it is absent.
const Json& require(const Json& json, const char* key) {
  const Json* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("missing field '") + key + "'");
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
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], manifest_path.c_str(),
                 e.what());
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
  std::vector<Json> records;
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
    const std::string record_path =
        silence::runner::run_record_path(sweep.json_path);
    try {
      Json record = silence::runner::read_json_file(record_path);
      const Json& timing = require(record, "timing");
      const double wall = require(timing, "wall_seconds").as_double();
      const std::int64_t trials = require(timing, "trials_run").as_int();
      entry.set("run_record", record_path);
      entry.set("wall_seconds", wall);
      entry.set("trials_run", trials);
      total_wall += wall;
      total_trials += trials;
      records.push_back(std::move(record));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: sweep '%s' wrote no readable run record: %s\n",
                   argv[0], sweep.name.c_str(), e.what());
      return 1;
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
  // The cross-sweep rollup, one merge over every sweep's record: the
  // pipeline counters and histograms, the PHY signal health (integer-only,
  // so the campaign view is the document one process recording every
  // sweep would write), and the fleet health of every fabric run (shard
  // lifecycle counts, pooled attempt-duration quantiles, worker-pool
  // utilization).
  const Json merged = silence::fabric::merge_run_records(records);
  if (const Json* metrics = merged.find("metrics")) {
    dashboard.set("metrics", *metrics);
  }
  if (const Json* telemetry = merged.find("telemetry")) {
    dashboard.set("fabric_telemetry", *telemetry);
  }
  if (const Json* health = merged.find("health")) {
    dashboard.set("health", *health);
  }
  silence::runner::write_json_file(manifest.output, dashboard);
  std::printf("campaign dashboard written to %s (%zu sweep(s), %lld trials, "
              "%.2f s total)\n",
              manifest.output.c_str(), manifest.sweeps.size(),
              static_cast<long long>(total_trials), total_wall);
  return 0;
}
