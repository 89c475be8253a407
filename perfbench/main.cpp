// perfbench: runs one workload of the whole-run benchmark (README.md) and
// prints its measurements as one JSON line on stdout. run.py builds this
// binary, launches it, and turns that line into the named metrics.
//
//   perfbench --workload net_dense|net_obss|link_trials [--seed N]
//             [--seconds S] [--trace 0|1] [--setup-only] [--t0-ns NS]
//             [--reference BENCH_net.json]
//
// Exit status: 0 when every op passed its output checks, 1 when any
// failed, 2 on a usage or set-up error.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/obs.h"
#include "runner/json.h"

namespace {

using perfbench::Layer;
using perfbench::Outcome;
using perfbench::ratio;
using silence::runner::Json;

// Per-layer counts and ratios some workloads report; every traced run
// prints all of them (0 where the workload has no such layer).
struct CountMetric {
  const char* name;
  const char* unit;
};
constexpr CountMetric kLayerCounts[] = {
    {"net.events", "1/op"},          {"net.tx_rounds", "1/op"},
    {"net.collision_rounds", "1/op"}, {"net.us_per_event", "us"},
    {"net.sim_ms_per_s", "ms/s"},    {"net.frame_delivery_ratio", "ratio"},
    {"phy.signal_ok_ratio", "ratio"}, {"phy.crc_ok_ratio", "ratio"},
    {"runner.busy_share", "ratio"}};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload net_dense|net_obss|link_trials "
               "[--seed N] [--seconds S] [--trace 0|1] [--setup-only]\n"
               "                 [--t0-ns NS] [--reference FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (flag == "--t0-ns") {
      o.t0_ns = std::strtoll(v, &end, 10);
    } else if (flag == "--reference") {
      o.reference = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad number for " + flag).c_str());
    }
  }
  if (o.workload != "net_dense" && o.workload != "net_obss" &&
      o.workload != "link_trials") {
    usage("--workload must be net_dense, net_obss or link_trials");
  }
  return o;
}

// Nearest-rank percentile: at q = 0.9 over 100 samples, ten lie beyond.
double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) +
                                       0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double sum(const std::vector<std::int64_t>& v) {
  double s = 0.0;
  for (const std::int64_t x : v) s += static_cast<double>(x);
  return s;
}

// Peak resident set of this process image, in KiB. VmHWM, unlike
// getrusage's ru_maxrss, starts afresh at exec, so it does not inherit the
// launcher's footprint.
double peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib;
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

Json end_to_end(const Outcome& out) {
  Json m = Json::object();
  const double wall_s = static_cast<double>(out.wall_ns) * 1e-9;
  m.set("ops_per_s",
        metric(ratio(static_cast<double>(out.op_ns.size()), wall_s), "1/s"));
  m.set("op_ms_p50", metric(percentile(out.op_ns, 0.50) * 1e-6, "ms"));
  m.set("op_ms_p90", metric(percentile(out.op_ns, 0.90) * 1e-6, "ms"));
  m.set("peak_rss_mb", metric(peak_rss_kib() / 1024.0, "MiB"));
  m.set("fail_ratio", metric(ratio(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted)),
                             "ratio"));
  return m;
}

Json per_layer(const Outcome& out) {
  constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);
  std::array<std::vector<std::int64_t>, kLayers> durations;
  for (const perfbench::Span& s : out.spans) {
    durations[static_cast<std::size_t>(s.layer)].push_back(s.end_ns -
                                                           s.start_ns);
  }
  const double ops = static_cast<double>(out.traced_op_ns.size());
  const double traced_ns = sum(out.traced_op_ns);
  Json m = Json::object();
  double covered_ns = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const std::string name = perfbench::kLayerNames[l];
    const double busy = sum(durations[l]);
    if (!perfbench::outside_op(static_cast<Layer>(l))) covered_ns += busy;
    m.set(name + ".calls",
          metric(ratio(static_cast<double>(durations[l].size()), ops),
                 "1/op"));
    m.set(name + ".us_p50", metric(percentile(durations[l], 0.5) * 1e-3, "us"));
    m.set(name + ".share", metric(ratio(busy, traced_ns), "ratio"));
  }
  for (const CountMetric& count : kLayerCounts) {
    double value = 0.0;
    for (const auto& [key, v] : out.layer_metrics) {
      if (key == count.name) value = v;
    }
    m.set(count.name, metric(value, count.unit));
  }
  // Mean traced op over mean untraced op, on the same ops.
  m.set("trace.overhead_ratio",
        metric(ratio(ratio(traced_ns, ops),
                     ratio(sum(out.op_ns),
                           static_cast<double>(out.op_ns.size()))),
               "ratio"));
  m.set("trace.uncovered_share",
        metric(traced_ns > 0.0 ? 1.0 - covered_ns / traced_ns : 0.0, "ratio"));
  return m;
}

Json context(const perfbench::Options& o, const Outcome& out) {
  Json c = Json::object();
  c.set("workload", o.workload);
  c.set("seed", static_cast<std::int64_t>(o.seed));
  c.set("seconds", o.seconds);
  c.set("trace", o.trace);
  c.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  c.set("compiler", "gcc " __VERSION__);
  c.set("build_type", PERFBENCH_BUILD_TYPE);
  c.set("silence_obs", SILENCE_OBS_ON ? "ON" : "OFF");
  c.set("silence_native", "OFF");  // CMakeLists.txt builds portable code
  c.set("threads", out.threads);
  c.set("ops", static_cast<std::int64_t>(out.op_ns.size()));
  c.set("percentile_samples", static_cast<std::int64_t>(out.op_ns.size()));
  c.set("traced_ops", static_cast<std::int64_t>(out.traced_op_ns.size()));
  c.set("timed_wall_s", static_cast<double>(out.wall_ns) * 1e-9);
  c.set("reference_check", out.reference_check);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = perfbench::now_ns();
  perfbench::Options options = parse(argc, argv);
  if (options.t0_ns <= 0) options.t0_ns = main_ns;

  Outcome out;
  try {
    out = options.workload == "link_trials"
              ? perfbench::run_link(options)
              : perfbench::run_net(options, options.workload == "net_dense");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 2;
  }

  Json line = Json::object();
  line.set("workload", options.workload);
  line.set("setup_s",
           static_cast<double>(out.first_op_ns - options.t0_ns) * 1e-9);
  if (!options.setup_only) {
    line.set("correct", out.failed == 0);
    line.set("attempted", static_cast<std::int64_t>(out.attempted));
    line.set("failed", static_cast<std::int64_t>(out.failed));
    line.set("metrics", options.trace ? per_layer(out) : end_to_end(out));
    line.set("context", context(options, out));
    Json failures = Json::array();
    for (const std::string& why : out.failures) failures.push_back(why);
    line.set("failures", std::move(failures));
  }
  std::printf("%s\n", line.dump_compact().c_str());
  return out.failed == 0 ? 0 : 1;
}
