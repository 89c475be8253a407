// The network workloads: closed loops of net::NetSim trials (init -> run
// -> result) on one thread. net_dense is one BSS of 256 saturated
// stations; net_obss is the committed two-AP co-channel topology. Both
// use a 20 ms horizon and the grid coordinates bench/net_scenarios gives
// them, so at the default seed the first four ops merge into the
// committed results/BENCH_net.json rows.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "net/engine.h"
#include "net/station.h"
#include "phy/batch.h"
#include "runner/json.h"
#include "runner/seed.h"
#include "runner/sinks.h"

namespace perfbench {
namespace {

namespace net = silence::net;
namespace runner = silence::runner;

// Sweep-point indices bench/net_scenarios uses: stas=256 is point 8 of
// its default 1..1024 axis, the OBSS reference its own one-point grid.
constexpr std::uint64_t kDensePoint = 8;
constexpr std::uint64_t kObssPoint = 0;
constexpr std::size_t kReferenceTrials = 4;
constexpr const char* kObssTopology =
    "bench/topologies/obss_2ap_cochannel.json";

struct NetWorkload {
  net::Scenario scenario;
  std::uint64_t point = 0;
  std::string label;  // row suffix in BENCH_net.json stage names
  bool obss = false;
};

NetWorkload dense_workload() {
  NetWorkload w;
  w.scenario.duration_us = 20e3;
  w.scenario.topology.bss[0].num_stations = 256;
  w.point = kDensePoint;
  w.label = "stas=256";
  return w;
}

NetWorkload obss_workload() {
  NetWorkload w;
  w.scenario.duration_us = 20e3;
  w.scenario.topology =
      net::Topology::from_json(runner::read_json_file(kObssTopology));
  w.scenario.topology.validate();
  w.point = kObssPoint;
  w.label = "obss=2ap_cochannel";
  w.obss = true;
  return w;
}

double events_per_sim_second(const net::NetResult& r) {
  return r.elapsed_us > 0.0
             ? static_cast<double>(r.events) / (r.elapsed_us * 1e-6)
             : 0.0;
}

// The rows bench/net_scenarios writes for a merged point (its
// net_point_row and add_stage_rows), rebuilt from the result.
runner::Json point_row(const net::NetResult& r, bool obss) {
  std::size_t mpdus = 0;
  net::SlotHist hol;
  net::SlotHist gap;
  for (const net::StaStats& s : r.stations) {
    mpdus += s.mpdus_delivered;
    hol += s.hol_wait_slots;
    gap += s.inter_tx_gap_slots;
  }
  runner::Json row = runner::Json::object();
  row.set("stas", static_cast<std::int64_t>(r.stations.size()));
  row.set("thpt_mbps", r.aggregate_throughput_mbps());
  row.set("ctrl_kbps", r.control_goodput_kbps());
  row.set("overhead", r.airtime_overhead());
  row.set("fairness", r.jain_fairness());
  row.set("coll_rate", r.collision_rate());
  row.set("mpdus", static_cast<std::int64_t>(mpdus));
  row.set("hol_wait_slots_p50", hol.quantile(0.50));
  row.set("hol_wait_slots_p95", hol.quantile(0.95));
  row.set("hol_wait_slots_p99", hol.quantile(0.99));
  row.set("inter_tx_gap_slots_p50", gap.quantile(0.50));
  row.set("inter_tx_gap_slots_p95", gap.quantile(0.95));
  row.set("events", static_cast<std::int64_t>(r.events));
  row.set("events_per_sim_second", events_per_sim_second(r));
  row.set("obss_overlap_us", r.obss_overlap_us);
  if (obss) row.set("obss", "2ap_cochannel");
  return row;
}

std::vector<std::pair<std::string, runner::Json>> stage_rows(
    const net::NetResult& r, const std::string& label) {
  return {{"NET/goodput/" + label, r.aggregate_throughput_mbps() * 1e6},
          {"NET/ctrl_goodput/" + label, r.control_goodput_kbps() * 1e3},
          {"NET/engine_events/" + label, events_per_sim_second(r)}};
}

// The committed rows for this workload, serialized for comparison.
struct Reference {
  std::string row;
  std::vector<std::pair<std::string, std::string>> stages;
};

Reference load_reference(const std::string& path, const NetWorkload& w) {
  const runner::Json root = runner::read_json_file(path);
  Reference ref;
  const runner::Json* points = root.find("net_points");
  if (points == nullptr) throw std::runtime_error(path + ": no net_points");
  for (const runner::Json& row : points->as_array()) {
    const runner::Json* obss = row.find("obss");
    const bool match =
        w.obss ? obss != nullptr && obss->as_string() == "2ap_cochannel"
               : obss == nullptr &&
                     row.find("stas")->as_int() ==
                         w.scenario.topology.total_stations();
    if (match) ref.row = row.dump_compact();
  }
  const runner::Json* stages = root.find("stages");
  if (stages == nullptr) throw std::runtime_error(path + ": no stages");
  for (const runner::Json& stage : stages->as_array()) {
    const std::string& name = stage.find("name")->as_string();
    if (name.size() > w.label.size() &&
        name.compare(name.size() - w.label.size(), w.label.size(),
                     w.label) == 0 &&
        name[name.size() - w.label.size() - 1] == '/') {
      ref.stages.emplace_back(name,
                              stage.find("items_per_second")->dump_compact());
    }
  }
  if (ref.row.empty() || ref.stages.size() != 3) {
    throw std::runtime_error(path + ": no committed rows for " + w.label);
  }
  return ref;
}

// Empty when the merged result reproduces the committed rows exactly.
std::string compare_reference(const Reference& ref, const net::NetResult& r,
                              const NetWorkload& w) {
  const std::string row = point_row(r, w.obss).dump_compact();
  if (row != ref.row) {
    return "net_points row " + w.label + " differs: got " + row +
           " want " + ref.row;
  }
  for (const auto& [name, value] : stage_rows(r, w.label)) {
    bool found = false;
    for (const auto& [ref_name, ref_value] : ref.stages) {
      if (ref_name != name) continue;
      found = true;
      if (ref_value != value.dump_compact()) {
        return "stage " + name + " differs: got " + value.dump_compact() +
               " want " + ref_value;
      }
    }
    if (!found) return "stage " + name + " missing from the reference";
  }
  return {};
}

// Cross-layer consistency of one trial's result.
std::string check_result(const net::NetResult& r, const NetWorkload& w) {
  if (static_cast<int>(r.stations.size()) !=
      w.scenario.topology.total_stations()) {
    return "station count";
  }
  if (r.elapsed_us < w.scenario.duration_us) return "run ended early";
  std::size_t tx = 0;
  std::size_t outcomes = 0;
  for (const net::StaStats& s : r.stations) {
    tx += s.tx_rounds;
    outcomes += s.frames_delivered + s.frames_lost;
  }
  if (tx != r.tx_rounds) return "per-station tx_rounds do not sum";
  if (outcomes != r.tx_rounds) return "delivered + lost != tx_rounds";
  return {};
}

std::uint64_t digest(const net::NetResult& r) {
  return fnv1a(r.to_json().dump_compact());
}

net::NetResult run_trial(const net::Scenario& s, std::uint64_t seed) {
  net::NetSim sim;
  sim.init(s, seed);
  sim.run();
  return sim.result();
}

net::NetResult run_trial_traced(const net::Scenario& s, std::uint64_t seed,
                                SpanLog& log) {
  net::NetSim sim;
  log.time(Layer::kNetInit, [&] { sim.init(s, seed); });
  log.time(Layer::kNetRun, [&] { sim.run(); });
  return log.time(Layer::kNetResult, [&] { return sim.result(); });
}

// net.station_ctor: builds the stations init() builds, with init()'s
// arguments, so the traced run can split init into station (link +
// session) construction and engine bookkeeping.
void construct_stations(const net::Scenario& s, std::uint64_t seed,
                        SpanLog& log) {
  silence::PhyBatch batch;
  std::vector<std::unique_ptr<net::Station>> stations;
  const int n = s.topology.total_stations();
  stations.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    log.time(Layer::kNetStationCtor, [&] {
      stations.push_back(std::make_unique<net::Station>(
          s, i, s.topology.station_snr_db(i), seed, &batch));
    });
  }
}

}  // namespace

Outcome run_net(const Options& options, bool dense) {
  Outcome out;
  const NetWorkload w = dense ? dense_workload() : obss_workload();
  const bool check_reference = options.seed == kDefaultSeed;
  Reference ref;
  if (check_reference) ref = load_reference(options.reference, w);
  const auto seed_of = [&](std::size_t t) {
    return runner::trial_seed(options.seed, w.point, t);
  };
  // Untimed warm-up op: fills the FFT-plan, interleaver and workspace
  // caches. Timed op 0 runs the same trial and must reproduce it.
  const std::uint64_t warm_digest = digest(run_trial(w.scenario, seed_of(0)));
  out.first_op_ns = now_ns();
  if (options.setup_only) return out;

  // Op t is trial t of the workload's grid point. A traced run follows
  // each op with a traced replay of the same trial, so the pair shares
  // the host's conditions.
  const StopRule rule{options.seconds, options.trace ? 0 : kMinOpsForP90,
                      check_reference ? kReferenceTrials : 1};
  net::NetResult merged;
  std::uint64_t events = 0;
  std::uint64_t tx_rounds = 0;
  std::uint64_t collision_rounds = 0;
  std::uint64_t frames_delivered = 0;
  double sim_us = 0.0;
  const auto replay_traced = [&](std::size_t t, std::uint64_t untraced) {
    ++out.attempted;
    try {
      SpanLog log;
      construct_stations(w.scenario, seed_of(t), log);
      const std::int64_t start = now_ns();
      const net::NetResult r = run_trial_traced(w.scenario, seed_of(t), log);
      out.traced_op_ns.push_back(now_ns() - start);
      out.spans.insert(out.spans.end(), log.spans().begin(),
                       log.spans().end());
      if (digest(r) != untraced) {
        out.fail(1, "traced op " + std::to_string(t) +
                        " differs from the untraced run");
      }
      events += r.events;
      tx_rounds += r.tx_rounds;
      collision_rounds += r.collision_rounds;
      for (const net::StaStats& s : r.stations) {
        frames_delivered += s.frames_delivered;
      }
      sim_us += r.elapsed_us;
    } catch (const std::exception& e) {
      out.fail(1, "traced op " + std::to_string(t) + " threw: " + e.what());
    }
  };

  const std::int64_t loop_start = out.first_op_ns;
  for (std::size_t t = 0; rule.more(t, now_ns() - loop_start); ++t) {
    ++out.attempted;
    std::uint64_t d = 0;
    try {
      const std::int64_t start = now_ns();
      const net::NetResult r = run_trial(w.scenario, seed_of(t));
      out.op_ns.push_back(now_ns() - start);
      d = digest(r);
      if (t == 0 && d != warm_digest) {
        out.fail(1, "op 0 differs from the warm-up run of the same trial");
      } else if (const std::string why = check_result(r, w); !why.empty()) {
        out.fail(1, "op " + std::to_string(t) + ": " + why);
      }
      if (check_reference && t < kReferenceTrials) {
        merged += r;
        if (t + 1 == kReferenceTrials) {
          const std::string why = compare_reference(ref, merged, w);
          if (!why.empty()) out.fail(kReferenceTrials, why);
          out.reference_check = why.empty() ? "matched " + w.label : "failed";
        }
      }
    } catch (const std::exception& e) {
      out.fail(1, "op " + std::to_string(t) + " threw: " + e.what());
    }
    if (options.trace) replay_traced(t, d);
  }
  out.wall_ns = now_ns() - loop_start;
  if (!check_reference) out.reference_check = "skipped (non-default seed)";
  if (!options.trace) return out;

  const auto ops = static_cast<double>(out.traced_op_ns.size());
  std::int64_t run_ns = 0;
  for (const Span& s : out.spans) {
    if (s.layer == Layer::kNetRun) run_ns += s.end_ns - s.start_ns;
  }
  std::int64_t traced_ns = 0;
  for (const std::int64_t ns : out.traced_op_ns) traced_ns += ns;
  out.layer_metrics = {
      {"net.events", ratio(static_cast<double>(events), ops)},
      {"net.tx_rounds", ratio(static_cast<double>(tx_rounds), ops)},
      {"net.collision_rounds",
       ratio(static_cast<double>(collision_rounds), ops)},
      {"net.us_per_event",
       ratio(static_cast<double>(run_ns) * 1e-3, static_cast<double>(events))},
      {"net.sim_ms_per_s",
       ratio(sim_us * 1e-3, static_cast<double>(traced_ns) * 1e-9)},
      {"net.frame_delivery_ratio",
       ratio(static_cast<double>(frames_delivered),
             static_cast<double>(tx_rounds))},
  };
  return out;
}

}  // namespace perfbench
