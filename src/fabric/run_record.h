// The run record: one versioned `<stem>.run.json` next to every `--json`
// result, holding everything about a run that is not a result.
//
//   {"schema": "cos.run.v1",
//    "timing":    {bench, threads, trials_run, wall_seconds},
//    "metrics":   obs::metrics_json document         (when non-empty)
//    "health":    obs::health::health_json document  (when non-empty)
//    "telemetry": Telemetry::to_json document        (when non-empty)}
//
// The record is always written, so a rerun replaces all of it and no
// section of an earlier run survives. Under SILENCE_OBS=OFF the
// registries stay empty and the record carries `timing` only. A fabric
// worker writes the same record next to its shard artifact, and the
// supervisor merges those with its own registries, so a fabric run's
// metrics and health sections equal the single-process run's.
#pragma once

#include <string>
#include <vector>

#include "fabric/telemetry.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace silence::fabric {

inline constexpr const char* kRunRecordSchema = "cos.run.v1";

// Merges the metrics (obs::merge_metrics_json), health
// (obs::health::merge_health_json) and telemetry (merge_telemetry_json)
// sections of several records; a section absent from every input stays
// absent. The result has no `timing` section: callers set their own.
// Throws std::runtime_error on a malformed section.
runner::Json merge_run_records(const std::vector<runner::Json>& records);

// Writes the record for `timing` to runner::run_record_path(json_path):
// this process's metrics and health registries merged with
// `shard_records`, plus `telemetry` when non-null and non-empty.
void write_run_record(const std::string& json_path,
                      const runner::RunTiming& timing,
                      const std::vector<runner::Json>& shard_records = {},
                      const Telemetry* telemetry = nullptr);

}  // namespace silence::fabric
