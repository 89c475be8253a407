#include "runner/sinks.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/health/health.h"
#include "obs/metrics.h"

namespace silence::runner {

namespace {

// Renders one JSON cell for the aligned console table.
std::string cell_text(const Json& cell, int precision) {
  // The table prints doubles at the column's precision; everything else
  // falls back to the compact JSON form (strings lose their quotes).
  const std::string compact = cell.dump_compact();
  if (compact == "null") return "-";
  if (!compact.empty() && compact.front() == '"' && compact.back() == '"') {
    return compact.substr(1, compact.size() - 2);
  }
  if (precision >= 0 &&
      compact.find_first_not_of("-0123456789.eE+") == std::string::npos) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, std::stod(compact));
    return buf;
  }
  return compact;
}

}  // namespace

void SweepReport::add_row(std::vector<Json> cells) {
  if (cells.size() != columns.size()) {
    throw std::invalid_argument("SweepReport::add_row: cell/column mismatch");
  }
  rows.push_back(std::move(cells));
}

void TableSink::write(const SweepReport& report) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", report.title.c_str(), report.description.c_str());
  std::printf("=============================================================\n");
  for (const auto& col : report.columns) {
    std::printf("%*s", col.width, col.name.c_str());
  }
  std::printf("\n");
  for (const auto& row : report.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%*s", report.columns[c].width,
                  cell_text(row[c], report.columns[c].precision).c_str());
    }
    std::printf("\n");
  }
  for (const auto& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("[%zu trials, %d thread%s, %.2f s]\n", report.trials_run,
              report.threads, report.threads == 1 ? "" : "s",
              report.wall_seconds);
}

Json JsonSink::payload(const SweepReport& report) {
  Json root = Json::object();
  root.set("bench", report.bench);
  root.set("title", report.title);
  root.set("description", report.description);
  root.set("schema_version", 1);
  root.set("grid", report.grid);
  Json names = Json::array();
  for (const auto& col : report.columns) names.push_back(col.name);
  root.set("columns", std::move(names));
  Json points = Json::array();
  for (const auto& row : report.rows) {
    Json point = Json::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      point.set(report.columns[c].name, row[c]);
    }
    points.push_back(std::move(point));
  }
  root.set("points", std::move(points));
  return root;
}

std::string timing_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".timing.json";
}

std::string metrics_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".metrics.json";
}

std::string telemetry_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".telemetry.json";
}

std::string health_sidecar_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".health.json";
}

void JsonSink::write(const SweepReport& report) {
  write_json_file(path_, payload(report));

  const std::string timing_path = timing_sidecar_path(path_);
  Json timing = Json::object();
  timing.set("bench", report.bench);
  timing.set("threads", report.threads);
  timing.set("trials_run", static_cast<std::int64_t>(report.trials_run));
  timing.set("wall_seconds", report.wall_seconds);
  write_json_file(timing_path, timing);

  // Metrics sidecar: the pipeline-wide obs snapshot for this run. Like
  // timing it never touches the main file — counter values are seed-
  // deterministic, but the .ns histograms are wall-clock.
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  if (!snapshot.empty()) {
    write_json_file(metrics_sidecar_path(path_), obs::metrics_json(snapshot));
  }

  // Health sidecar: every quantity seed-deterministic, so the file is
  // byte-identical at any thread count. Empty under SILENCE_OBS=OFF (the
  // macros compile away) and for benches that never touch the CoS path.
  const obs::health::HealthSnapshot health =
      obs::health::Registry::global().snapshot();
  if (!health.empty()) {
    write_json_file(health_sidecar_path(path_), obs::health::health_json(health));
  }
}

void write_json_file(const std::string& path, const Json& value) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_json_file: cannot open " + path);
  }
  out << value.dump();
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_json_file: cannot open " + path);
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("read_json_file: read error on " + path);
  }
  return Json::parse(text);
}

}  // namespace silence::runner
