#include "fabric/run_record.h"

#include "obs/health/health.h"
#include "obs/metrics.h"

namespace silence::fabric {

runner::Json merge_run_records(const std::vector<runner::Json>& records) {
  std::vector<runner::Json> metrics, health, telemetry;
  for (const runner::Json& record : records) {
    if (const runner::Json* m = record.find("metrics")) metrics.push_back(*m);
    if (const runner::Json* h = record.find("health")) health.push_back(*h);
    if (const runner::Json* t = record.find("telemetry")) {
      telemetry.push_back(*t);
    }
  }
  runner::Json merged = runner::Json::object();
  merged.set("schema", kRunRecordSchema);
  if (!metrics.empty()) merged.set("metrics", obs::merge_metrics_json(metrics));
  if (!health.empty()) {
    merged.set("health", obs::health::merge_health_json(health));
  }
  if (!telemetry.empty()) {
    merged.set("telemetry", merge_telemetry_json(telemetry));
  }
  return merged;
}

void write_run_record(const std::string& json_path,
                      const runner::RunTiming& timing,
                      const std::vector<runner::Json>& shard_records,
                      const Telemetry* telemetry) {
  runner::Json own = runner::Json::object();
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  if (!metrics.empty()) own.set("metrics", obs::metrics_json(metrics));
  const obs::health::HealthSnapshot health =
      obs::health::Registry::global().snapshot();
  if (!health.empty()) own.set("health", obs::health::health_json(health));
  std::vector<runner::Json> records = shard_records;
  records.push_back(std::move(own));

  runner::Json record = merge_run_records(records);
  record.set("timing", timing.to_json());
  if (telemetry != nullptr && !telemetry->empty()) {
    record.set("telemetry", telemetry->to_json());
  }
  runner::write_json_file(runner::run_record_path(json_path), record);
}

}  // namespace silence::fabric
