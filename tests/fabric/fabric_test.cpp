// Sweep-fabric tests. This binary is its own worker: the supervisor
// tests re-exec it (via /proc/self/exe) with `--fabric-test-child
// --shard-spec ... --shard-out ...`, and the custom main() at the bottom
// routes such invocations into run_test_child() instead of gtest. That
// is why this target defines its own main and must NOT link gtest_main.
//
// Fault-injection hooks (children inherit the test's environment):
//   SILENCE_FABRIC_CRASH_SHARD=<i>  the fabric's own hook — shard i dies
//                                   mid-shard on attempt 0 (fabric.h)
//   FABRIC_TEST_STALL_SHARD=<i>     shard i sleeps forever on attempt 0,
//                                   exercising the straggler timeout
//   FABRIC_TEST_CRASH_ALWAYS=1      every worker exits 7 on every
//                                   attempt, exercising retry exhaustion
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/process.h"
#include "fabric/run_record.h"
#include "fabric/shard.h"
#include "fabric/telemetry.h"
#include "fabric/transport.h"
#include "obs/health/health.h"
#include "runner/sinks.h"
#include "runner/sweep.h"

namespace silence::fabric {
namespace testsupport {

// Ships an integer and a double so byte-identity covers both the exact
// and the shortest-round-trip codec paths; += sums a double, making the
// reduction order observable (FP addition is not associative).
struct Sample {
  std::int64_t tally = 0;
  double weight = 0.0;
  Sample& operator+=(const Sample& o) {
    tally += o.tally;
    weight += o.weight;
    return *this;
  }
};

runner::SweepGrid<int> test_grid() {
  runner::SweepGrid<int> grid;
  grid.base_seed = 0x5eedULL;
  grid.trials = 5;
  grid.points = {3, 1, 4, 1, 5, 9, 2, 6};
  return grid;
}

Sample run_trial(const int& point, const runner::TrialContext& ctx) {
  Sample s;
  s.tally = static_cast<std::int64_t>(ctx.seed % 100000) + point;
  s.weight = 1.0 / (1.0 + static_cast<double>(ctx.seed % 997));
  return s;
}

runner::Json sample_to_json(const Sample& s) {
  runner::Json row = runner::Json::array();
  row.push_back(s.tally);
  row.push_back(s.weight);
  return row;
}

Sample sample_from_json(const runner::Json& row) {
  const runner::Json::Array& a = row.as_array();
  if (a.size() != 2) throw std::runtime_error("Sample: expected 2 fields");
  Sample s;
  s.tally = a[0].as_int();
  s.weight = a[1].as_double();
  return s;
}

template <typename FabricT>
auto run_test_sweep(FabricT& fab) {
  return fab.run("fabric_test", test_grid(), {.threads = 2, .chunk = 1},
                 run_trial, sample_to_json, sample_from_json);
}

// The worker entry point for `--fabric-test-child` invocations.
int run_test_child(int argc, char** argv) {
  FabricConfig config;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--shard-spec") && i + 1 < argc) {
      config.shard = ShardSpec::parse(argv[++i]);
    } else if (!std::strcmp(argv[i], "--shard-out") && i + 1 < argc) {
      config.shard_out = argv[++i];
    }
  }
  if (!config.shard) {
    std::fprintf(stderr, "fabric test child: missing --shard-spec\n");
    return 2;
  }
  if (std::getenv("FABRIC_TEST_CRASH_ALWAYS") != nullptr) std::_Exit(7);
  if (const char* stall = std::getenv("FABRIC_TEST_STALL_SHARD")) {
    const char* attempt = std::getenv("SILENCE_FABRIC_ATTEMPT");
    const bool first = attempt == nullptr || std::strtol(attempt, nullptr, 10) == 0;
    if (first &&
        std::strtoull(stall, nullptr, 10) == config.shard->index) {
      // Straggle until the supervisor's timeout kills us.
      std::this_thread::sleep_for(std::chrono::seconds(300));
    }
  }
  Fabric fab(std::move(config));
  run_test_sweep(fab);
  return fab.finish_worker();
}

}  // namespace testsupport

namespace {

using testsupport::run_test_sweep;
using testsupport::Sample;
using testsupport::sample_to_json;
using testsupport::test_grid;

TEST(ShardPlanner, CoversSlotSpaceContiguously) {
  for (const std::size_t total : {1u, 7u, 40u, 41u, 1000u}) {
    for (const std::size_t count : {1u, 2u, 3u, 8u, 64u}) {
      const std::vector<ShardSpec> plan = plan_shards("s", total, count);
      ASSERT_FALSE(plan.empty());
      EXPECT_LE(plan.size(), std::min(total, count));
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].sweep, "s");
        EXPECT_EQ(plan[i].index, i);
        EXPECT_EQ(plan[i].count, plan.size());
        EXPECT_EQ(plan[i].begin, cursor);       // contiguous, in order
        EXPECT_GT(plan[i].end, plan[i].begin);  // never empty
        cursor = plan[i].end;
      }
      EXPECT_EQ(cursor, total);  // full coverage, no overlap
    }
  }
}

TEST(ShardPlanner, SpreadsRemainderOverEarlierShards) {
  const std::vector<ShardSpec> plan = plan_shards("s", 10, 4);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].slots(), 3u);
  EXPECT_EQ(plan[1].slots(), 3u);
  EXPECT_EQ(plan[2].slots(), 2u);
  EXPECT_EQ(plan[3].slots(), 2u);
}

TEST(ShardSpec, RoundTripsThroughString) {
  const ShardSpec spec{"fig10_detection.c", 2, 7, 40, 55};
  EXPECT_EQ(spec.to_string(), "fig10_detection.c:2/7:40-55");
  EXPECT_EQ(ShardSpec::parse(spec.to_string()), spec);
}

TEST(ShardSpec, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(ShardSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep:0/2"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep:2/2:0-4"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep:0/0:0-4"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep:0/2:4-4"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse("sweep:0/2:x-4"), std::invalid_argument);
  EXPECT_THROW(ShardSpec::parse(":0/2:0-4"), std::invalid_argument);
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fabric_test_" + std::to_string(::getpid())) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Transport, ArtifactRoundTripsAndValidates) {
  const std::string dir = fresh_dir("transport");
  const ShardSpec spec{"sweep", 1, 3, 10, 14};
  runner::Json slots = runner::Json::array();
  for (int i = 0; i < 4; ++i) {
    slots.push_back(sample_to_json({i * 7, 1.0 / (i + 1)}));
  }
  const std::string path = shard_artifact_path(dir, spec);
  write_shard_artifact(path,
                       make_shard_artifact(spec, 0xfeedULL, 5, 4, slots));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // atomic rename
  const runner::Json loaded = read_shard_artifact(path, spec, 0xfeedULL, 5, 4);
  EXPECT_EQ(loaded.find("slots")->dump_compact(), slots.dump_compact());

  // Every header mismatch is rejected before any merging could happen.
  ShardSpec other = spec;
  other.begin = 11;
  other.end = 15;
  EXPECT_THROW(read_shard_artifact(path, other, 0xfeedULL, 5, 4),
               std::runtime_error);
  EXPECT_THROW(read_shard_artifact(path, spec, 0xdeadULL, 5, 4),
               std::runtime_error);
  EXPECT_THROW(read_shard_artifact(path, spec, 0xfeedULL, 6, 4),
               std::runtime_error);
}

TEST(Transport, RejectsTamperedPayload) {
  const std::string dir = fresh_dir("tamper");
  const ShardSpec spec{"sweep", 0, 1, 0, 2};
  runner::Json slots = runner::Json::array();
  slots.push_back(sample_to_json({1, 0.5}));
  slots.push_back(sample_to_json({2, 0.25}));
  runner::Json artifact = make_shard_artifact(spec, 1, 1, 2, slots);
  // Flip one slot value after the digest was computed.
  runner::Json tampered_slots = runner::Json::array();
  tampered_slots.push_back(sample_to_json({1, 0.5}));
  tampered_slots.push_back(sample_to_json({3, 0.25}));
  artifact.set("slots", std::move(tampered_slots));
  const std::string path = shard_artifact_path(dir, spec);
  write_shard_artifact(path, artifact);
  try {
    read_shard_artifact(path, spec, 1, 1, 2);
    FAIL() << "digest mismatch must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos);
  }
}

FabricConfig supervisor_config(int workers, const std::string& spool,
                               int shard_count = 0) {
  FabricConfig config;
  config.workers = workers;
  config.shard_count = shard_count;
  config.spool_dir = spool;
  config.self = self_executable_path("");
  config.passthrough_args = {"--fabric-test-child"};
  config.supervisor.backoff_seconds = 0.05;
  return config;
}

void expect_outcomes_identical(
    const runner::SweepOutcome<Sample>& single,
    const runner::SweepOutcome<Sample>& fabric) {
  ASSERT_EQ(fabric.point_results.size(), single.point_results.size());
  for (std::size_t i = 0; i < single.point_results.size(); ++i) {
    EXPECT_EQ(fabric.point_results[i].tally, single.point_results[i].tally);
    // Bit-exact double equality — the whole point of per-slot shipping
    // plus ordered reduction.
    EXPECT_EQ(fabric.point_results[i].weight, single.point_results[i].weight);
    EXPECT_EQ(sample_to_json(fabric.point_results[i]).dump_compact(),
              sample_to_json(single.point_results[i]).dump_compact());
  }
  EXPECT_EQ(fabric.trials_run, single.trials_run);
}

runner::SweepOutcome<Sample> single_process_outcome() {
  Fabric inline_fab(FabricConfig{});  // workers = 0 -> plain run_sweep
  return run_test_sweep(inline_fab);
}

TEST(FabricE2E, ByteIdenticalToSingleProcess) {
  const auto single = single_process_outcome();
  for (const int workers : {2, 3}) {
    FabricConfig config = supervisor_config(
        workers, fresh_dir("e2e_w" + std::to_string(workers)));
    Fabric fab(std::move(config));
    expect_outcomes_identical(single, run_test_sweep(fab));
  }
}

TEST(FabricE2E, MoreShardsThanWorkersStillIdentical) {
  const auto single = single_process_outcome();
  // 7 shards over 40 slots on 2 workers: uneven ranges, shard reuse.
  FabricConfig config =
      supervisor_config(2, fresh_dir("e2e_shards"), /*shard_count=*/7);
  Fabric fab(std::move(config));
  expect_outcomes_identical(single, run_test_sweep(fab));
}

TEST(FabricE2E, CrashInjectedShardRetriesByteIdentical) {
  const auto single = single_process_outcome();
  ::setenv("SILENCE_FABRIC_CRASH_SHARD", "1", 1);
  FabricConfig config = supervisor_config(3, fresh_dir("e2e_crash"));
  Fabric fab(std::move(config));
  const auto outcome = run_test_sweep(fab);
  ::unsetenv("SILENCE_FABRIC_CRASH_SHARD");
  expect_outcomes_identical(single, outcome);
}

TEST(FabricE2E, StragglerIsKilledAndRedispatchedIdentically) {
  const auto single = single_process_outcome();
  ::setenv("FABRIC_TEST_STALL_SHARD", "0", 1);
  FabricConfig config = supervisor_config(2, fresh_dir("e2e_straggler"));
  config.supervisor.timeout_seconds = 1.0;
  Fabric fab(std::move(config));
  const auto outcome = run_test_sweep(fab);
  ::unsetenv("FABRIC_TEST_STALL_SHARD");
  expect_outcomes_identical(single, outcome);
}

TEST(FabricE2E, RetryExhaustionThrowsNamingTheShard) {
  ::setenv("FABRIC_TEST_CRASH_ALWAYS", "1", 1);
  FabricConfig config = supervisor_config(2, fresh_dir("e2e_exhaust"));
  config.supervisor.max_attempts = 2;
  Fabric fab(std::move(config));
  try {
    run_test_sweep(fab);
    ::unsetenv("FABRIC_TEST_CRASH_ALWAYS");
    FAIL() << "exhausted retries must throw";
  } catch (const std::runtime_error& e) {
    ::unsetenv("FABRIC_TEST_CRASH_ALWAYS");
    const std::string what = e.what();
    EXPECT_NE(what.find("fabric_test"), std::string::npos) << what;
    EXPECT_NE(what.find("failed after 2 attempt"), std::string::npos) << what;
  }
}

TEST(FabricE2E, WorkerRefusesShardRangeBeyondGrid) {
  FabricConfig config;
  config.shard = ShardSpec{"fabric_test", 0, 1, 0, 1000};  // grid has 40
  config.shard_out = fresh_dir("e2e_badrange") + "/out.json";
  Fabric fab(std::move(config));
  EXPECT_THROW(run_test_sweep(fab), std::runtime_error);
}

// ---------------------------------------------------------------------
// Supervisor telemetry (fabric/telemetry.h): the shard-lifecycle journal
// behind the run record's telemetry section.

TEST(Telemetry, RecordsEventsAndSummarizes) {
  Telemetry t;
  EXPECT_TRUE(t.empty());
  t.set_workers(2);
  t.add_shards(2);
  t.record(Telemetry::kDispatch, "sweep:0/2:0-4", 0);
  t.record(Telemetry::kDispatch, "sweep:1/2:4-8", 0);
  t.record(Telemetry::kWorkerFailure, "sweep:0/2:0-4", 0, 0.5, "exit code 7");
  t.record(Telemetry::kRetry, "sweep:0/2:0-4", 1, 0.05, "worker exit code 7");
  t.record(Telemetry::kComplete, "sweep:1/2:4-8", 0, 1.0);
  t.record(Telemetry::kComplete, "sweep:0/2:0-4", 1, 2.0);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.count(Telemetry::kDispatch), 2u);
  EXPECT_EQ(t.count(Telemetry::kComplete), 2u);
  EXPECT_EQ(t.count(Telemetry::kRetry), 1u);

  const runner::Json doc = t.to_json();
  EXPECT_EQ(doc.find("workers")->as_int(), 2);
  EXPECT_EQ(doc.find("shards")->as_int(), 2);
  EXPECT_EQ(doc.find("events")->size(), 6u);
  const runner::Json* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("dispatches")->as_int(), 2);
  EXPECT_EQ(summary->find("completes")->as_int(), 2);
  EXPECT_EQ(summary->find("retries")->as_int(), 1);
  EXPECT_EQ(summary->find("worker_failures")->as_int(), 1);
  // Attempt durations: the failure (0.5) + both completes (1.0, 2.0);
  // the retry's backoff is not worker busy time.
  EXPECT_DOUBLE_EQ(summary->find("busy_seconds")->as_double(), 3.5);
  const runner::Json* attempts = summary->find("attempt_seconds");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->find("count")->as_int(), 3);
  EXPECT_DOUBLE_EQ(attempts->find("min")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(attempts->find("max")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(attempts->find("p50")->as_double(), 1.0);
  EXPECT_EQ(summary->find("attempt_seconds_list")->size(), 3u);
}

TEST(FabricE2E, TelemetryJournalsCleanRun) {
  FabricConfig config = supervisor_config(2, fresh_dir("telemetry_clean"));
  Fabric fab(std::move(config));
  run_test_sweep(fab);
  const Telemetry& t = fab.telemetry();
  EXPECT_EQ(t.count(Telemetry::kDispatch), 2u);
  EXPECT_EQ(t.count(Telemetry::kComplete), 2u);
  EXPECT_EQ(t.count(Telemetry::kRetry), 0u);
  EXPECT_EQ(t.count(Telemetry::kStragglerKill), 0u);
  EXPECT_EQ(t.count(Telemetry::kWorkerFailure), 0u);
}

TEST(FabricE2E, TelemetryJournalsCrashRetry) {
  ::setenv("SILENCE_FABRIC_CRASH_SHARD", "1", 1);
  FabricConfig config = supervisor_config(3, fresh_dir("telemetry_crash"));
  Fabric fab(std::move(config));
  run_test_sweep(fab);
  ::unsetenv("SILENCE_FABRIC_CRASH_SHARD");
  const Telemetry& t = fab.telemetry();
  EXPECT_EQ(t.count(Telemetry::kWorkerFailure), 1u);
  EXPECT_EQ(t.count(Telemetry::kRetry), 1u);
  EXPECT_EQ(t.count(Telemetry::kComplete), 3u);
  EXPECT_EQ(t.count(Telemetry::kDispatch), 4u);  // 3 shards + 1 redispatch
}

TEST(FabricE2E, TelemetryJournalsStragglerKill) {
  ::setenv("FABRIC_TEST_STALL_SHARD", "0", 1);
  FabricConfig config = supervisor_config(2, fresh_dir("telemetry_stall"));
  config.supervisor.timeout_seconds = 1.0;
  Fabric fab(std::move(config));
  run_test_sweep(fab);
  ::unsetenv("FABRIC_TEST_STALL_SHARD");
  const Telemetry& t = fab.telemetry();
  EXPECT_EQ(t.count(Telemetry::kStragglerKill), 1u);
  EXPECT_EQ(t.count(Telemetry::kRetry), 1u);
  EXPECT_EQ(t.count(Telemetry::kComplete), 2u);
}

TEST(Telemetry, MergeSumsCountsAndPoolsAttemptDurations) {
  Telemetry a;
  a.set_workers(2);
  a.add_shards(2);
  a.record(Telemetry::kDispatch, "a:0/2:0-4", 0);
  a.record(Telemetry::kDispatch, "a:1/2:4-8", 0);
  a.record(Telemetry::kComplete, "a:0/2:0-4", 0, 1.0);
  a.record(Telemetry::kComplete, "a:1/2:4-8", 0, 3.0);
  Telemetry b;
  b.set_workers(4);
  b.add_shards(1);
  b.record(Telemetry::kDispatch, "b:0/1:0-4", 0);
  b.record(Telemetry::kWorkerFailure, "b:0/1:0-4", 0, 0.5, "exit code 7");
  b.record(Telemetry::kRetry, "b:0/1:0-4", 1, 0.05, "worker exit code 7");
  b.record(Telemetry::kComplete, "b:0/1:0-4", 1, 2.0);

  const runner::Json merged = merge_telemetry_json({a.to_json(), b.to_json()});
  EXPECT_EQ(merged.find("sweeps")->as_int(), 2);
  EXPECT_EQ(merged.find("workers")->as_int(), 4);  // the larger pool
  EXPECT_EQ(merged.find("shards")->as_int(), 3);
  EXPECT_EQ(merged.find("dispatches")->as_int(), 3);
  EXPECT_EQ(merged.find("completes")->as_int(), 3);
  EXPECT_EQ(merged.find("retries")->as_int(), 1);
  EXPECT_EQ(merged.find("worker_failures")->as_int(), 1);
  EXPECT_EQ(merged.find("straggler_kills")->as_int(), 0);
  EXPECT_DOUBLE_EQ(merged.find("busy_seconds")->as_double(), 6.5);
  // Pooled, not averaged: 1.0 and 3.0 from a, 0.5 and 2.0 from b.
  const runner::Json* attempts = merged.find("attempt_seconds");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->find("count")->as_int(), 4);
  EXPECT_DOUBLE_EQ(attempts->find("min")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(attempts->find("max")->as_double(), 3.0);
  EXPECT_DOUBLE_EQ(attempts->find("p50")->as_double(), 1.5);
}

// ---------------------------------------------------------------------
// The run record (fabric/run_record.h).

runner::RunTiming test_timing() { return {"fabric_test", 2, 40, 0.25}; }

TEST(FabricE2E, WriteSidecarsEmitsTelemetryJson) {
  // A supervisor run's record carries the journal as its telemetry section.
  Fabric fab(supervisor_config(2, fresh_dir("telemetry_sidecar")));
  run_test_sweep(fab);
  const std::string base = fresh_dir("telemetry_sidecar_out") + "/run.json";
  fab.write_run_record(base, test_timing());
  const std::string path = runner::run_record_path(base);
  ASSERT_TRUE(std::filesystem::exists(path));
  const runner::Json record = runner::read_json_file(path);
  EXPECT_EQ(record.find("schema")->as_string(), kRunRecordSchema);
  EXPECT_EQ(record.find("timing")->find("trials_run")->as_int(), 40);
  const runner::Json* telemetry = record.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->find("schema_version")->as_int(), 1);
  EXPECT_EQ(telemetry->find("summary")->find("completes")->as_int(), 2);
}

TEST(FabricE2E, SingleProcessRunWritesNoTelemetrySidecar) {
  Fabric fab(FabricConfig{});  // workers = 0 -> no supervisor, no journal
  run_test_sweep(fab);
  EXPECT_TRUE(fab.telemetry().empty());
  const std::string dir = fresh_dir("telemetry_none");
  fab.write_run_record(dir + "/run.json", test_timing());
  const runner::Json record =
      runner::read_json_file(runner::run_record_path(dir + "/run.json"));
  ASSERT_NE(record.find("timing"), nullptr);
  EXPECT_EQ(record.find("telemetry"), nullptr);
  // The record is the only file written: no separate telemetry sidecar.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(FabricE2E, RerunReplacesTheWholeRunRecord) {
  const std::string base = fresh_dir("run_record_rerun") + "/run.json";
  const std::string path = runner::run_record_path(base);
  {
    Fabric fab(supervisor_config(2, fresh_dir("run_record_fabric")));
    run_test_sweep(fab);
    fab.write_run_record(base, test_timing());
    ASSERT_NE(runner::read_json_file(path).find("telemetry"), nullptr);
  }
  // A single-process rerun to the same path keeps no journal, and the
  // rewritten record must not inherit the fabric run's telemetry.
  Fabric fab(FabricConfig{});
  run_test_sweep(fab);
  EXPECT_TRUE(fab.telemetry().empty());
  fab.write_run_record(base, test_timing());
  const runner::Json record = runner::read_json_file(path);
  ASSERT_NE(record.find("timing"), nullptr);
  EXPECT_EQ(record.find("telemetry"), nullptr);
}

TEST(FabricE2E, ReusedSpoolNeverMergesAStaleShardRecord) {
  // A previous run left shard records whose metrics and health sections
  // carry a marker; the toy sweep records no health at all.
  const std::string spool = fresh_dir("run_record_stale");
  runner::Json stale_metrics = runner::Json::object();
  stale_metrics.set("counters",
                    runner::Json::Object{{"stale.marker", std::int64_t{777}}});
  obs::health::HealthSnapshot stale_health;
  stale_health.counters[static_cast<std::size_t>(
      obs::health::Counter::kPlans)] = 777777;
  runner::Json stale = runner::Json::object();
  stale.set("schema", kRunRecordSchema);
  stale.set("metrics", stale_metrics);
  stale.set("health", obs::health::health_json(stale_health));
  for (const ShardSpec& spec :
       plan_shards("fabric_test",
                   test_grid().points.size() * test_grid().trials, 2)) {
    runner::write_json_file(
        runner::run_record_path(shard_artifact_path(spool, spec)), stale);
  }

  Fabric fab(supervisor_config(2, spool));
  run_test_sweep(fab);
  const std::string base = fresh_dir("run_record_stale_out") + "/run.json";
  fab.write_run_record(base, test_timing());
  const runner::Json record =
      runner::read_json_file(runner::run_record_path(base));
  const std::string text = record.dump();
  EXPECT_EQ(text.find("stale.marker"), std::string::npos);
  // Search for the stale counter's key, not its value: a digit run such as
  // 777777 can also turn up inside the record's own timing doubles.
  const std::string stale_key =
      std::string("\"") +
      obs::health::counter_name(obs::health::Counter::kPlans) + "\"";
  EXPECT_EQ(text.find(stale_key), std::string::npos);
  EXPECT_EQ(record.find("health"), nullptr);
}

TEST(FabricE2E, WorkerOnForeignSweepReportsUnsatisfied) {
  FabricConfig config;
  config.shard = ShardSpec{"some_other_sweep", 0, 1, 0, 4};
  config.shard_out = fresh_dir("e2e_foreign") + "/out.json";
  Fabric fab(std::move(config));
  const auto outcome = run_test_sweep(fab);
  // The mismatched run() returns placeholder results...
  EXPECT_EQ(outcome.point_results.size(), test_grid().points.size());
  EXPECT_EQ(outcome.trials_run, 0u);
  // ...and the epilogue reports failure so the supervisor retries/aborts.
  EXPECT_NE(fab.finish_worker(), 0);
}

}  // namespace
}  // namespace silence::fabric

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--fabric-test-child")) {
      return silence::fabric::testsupport::run_test_child(argc, argv);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
