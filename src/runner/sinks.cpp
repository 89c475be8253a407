#include "runner/sinks.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

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

Json RunTiming::to_json() const {
  Json timing = Json::object();
  timing.set("bench", bench);
  timing.set("threads", threads);
  timing.set("trials_run", static_cast<std::int64_t>(trials_run));
  timing.set("wall_seconds", wall_seconds);
  return timing;
}

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
  const RunTiming& t = report.timing;
  std::printf("[%zu trials, %d thread%s, %.2f s]\n", t.trials_run, t.threads,
              t.threads == 1 ? "" : "s", t.wall_seconds);
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

std::string run_record_path(const std::string& json_path) {
  std::string path = json_path;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    path.resize(path.size() - 5);
  }
  return path + ".run.json";
}

void JsonSink::write(const SweepReport& report) {
  write_json_file(path_, payload(report));
}

void write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_text_file: cannot open " + path);
  }
  out << text;
}

void write_json_file(const std::string& path, const Json& value) {
  write_text_file(path, value.dump());
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
