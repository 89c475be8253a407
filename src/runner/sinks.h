// Pluggable result sinks for sweep reports.
//
// A bench renders its merged sweep results into a SweepReport (named
// columns + one row of JSON cells per grid point) and hands it to any
// number of sinks: TableSink reproduces the human-readable console
// tables, JsonSink writes `results/<bench>.json` for machine diffing.
//
// Determinism contract: the main JSON file contains only seed-derived
// data, so two runs over the same grid are byte-identical regardless of
// thread count. Timing (wall-clock, thread count) goes to the `timing`
// section of the `<bench>.run.json` run record (fabric/run_record.h)
// precisely so it cannot perturb diffs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/json.h"

namespace silence::runner {

// The run record's `timing` section: wall clock and thread count.
struct RunTiming {
  std::string bench;
  int threads = 1;
  std::size_t trials_run = 0;
  double wall_seconds = 0.0;

  Json to_json() const;
};

struct Column {
  std::string name;
  int width = 12;      // table column width
  int precision = -1;  // decimals for doubles in the table; -1 = %g
};

struct SweepReport {
  std::string bench;        // file stem, e.g. "fig09_capacity"
  std::string title;        // e.g. "Fig. 9"
  std::string description;  // one line under the title
  Json grid = Json::object();  // grid metadata: axes, trials, base_seed
  std::vector<Column> columns;
  std::vector<std::vector<Json>> rows;  // one row per grid point
  std::vector<std::string> notes;  // trailing commentary (table only)
  // Reported via the run record, never the main result file.
  RunTiming timing;

  // Appends a row; cells must match `columns` in count and order.
  void add_row(std::vector<Json> cells);
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const SweepReport& report) = 0;
};

// Human-readable aligned table on stdout (the historical bench output).
class TableSink : public ResultSink {
 public:
  void write(const SweepReport& report) override;
};

// Structured results at `path`, and nothing else: the run record next to
// it is written by fabric::write_run_record.
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}
  void write(const SweepReport& report) override;

  // The deterministic main-file payload for `report` (exposed for the
  // determinism regression tests).
  static Json payload(const SweepReport& report);

 private:
  std::string path_;
};

// Writes `text` to `path`, creating parent directories; throws
// std::runtime_error if the file cannot be opened.
void write_text_file(const std::string& path, const std::string& text);

// Serializes `value` to `path` (dump() form), creating parent directories.
void write_json_file(const std::string& path, const Json& value);

// Reads and parses a JSON file; throws std::runtime_error on IO or parse
// failure. Round-trips write_json_file exactly.
Json read_json_file(const std::string& path);

// `results/foo.json` -> `results/foo.run.json`: the run record holding
// the timing, metrics, health and telemetry sections (fabric/run_record.h).
std::string run_record_path(const std::string& json_path);

}  // namespace silence::runner
