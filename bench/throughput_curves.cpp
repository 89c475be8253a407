// The paper's headline promise: "the transmission of free control
// messages does not harm the original data throughput". This bench
// sweeps measured SNR and compares data goodput with no CoS, with CoS at
// the calibrated control-rate table, and with CoS deliberately overdriven
// to 4x the table rate (showing why the rate controller matters).
//
// Runner-based: each Monte-Carlo trial simulates one packet seed under
// all three configurations (same channel and noise realizations), and
// trials fan out across the thread pool with (base_seed, point, trial)
// derived seeds — results are bit-identical at any --threads value.
#include <cstdio>

#include "bench_util.h"
#include "core/control_rate.h"
#include "mac/timing.h"
#include "runner/sinks.h"
#include "runner/sweep.h"
#include "sim/session.h"

using namespace silence;

namespace {

constexpr int kDefaultPacketsPerPoint = 40;

// Goodput counters for one configuration; mergeable across trials.
struct GoodputCounts {
  std::size_t packets = 0;
  std::size_t packets_ok = 0;
  double airtime_s = 0.0;
  std::size_t control_bits = 0;

  GoodputCounts& operator+=(const GoodputCounts& o) {
    packets += o.packets;
    packets_ok += o.packets_ok;
    airtime_s += o.airtime_s;
    control_bits += o.control_bits;
    return *this;
  }
  double prr() const {
    return packets ? static_cast<double>(packets_ok) / packets : 0.0;
  }
  double mbps() const {
    return airtime_s > 0.0 ? packets_ok * 1024.0 * 8.0 / (airtime_s * 1e6)
                           : 0.0;
  }
  double control_kbps() const {
    return airtime_s > 0.0 ? control_bits / airtime_s / 1000.0 : 0.0;
  }
};

struct TrialCounts {
  GoodputCounts plain;       // control rate forced to zero
  GoodputCounts calibrated;  // the paper's SNR -> R_m table
  GoodputCounts overdriven;  // 4x the table rate

  TrialCounts& operator+=(const TrialCounts& o) {
    plain += o.plain;
    calibrated += o.calibrated;
    overdriven += o.overdriven;
    return *this;
  }
};

// One measured packet under one configuration. `control_rate_multiplier`
// 0 disables CoS, 1 uses the calibrated table, >1 overdrives it.
GoodputCounts run_config(double measured_snr_db, int control_rate_multiplier,
                         std::uint64_t seed) {
  GoodputCounts counts;
  LinkConfig lc;
  lc.snr_db = measured_snr_db;
  lc.snr_is_measured = true;
  lc.channel_seed = runner::substream_seed(seed, 0);
  lc.noise_seed = runner::substream_seed(seed, 1);
  Link link(lc);

  SessionConfig config;
  if (control_rate_multiplier == 0) {
    config.control_rate_override = 0;
  } else if (control_rate_multiplier > 1) {
    config.control_rate_override =
        control_rate_multiplier * select_control_rate(measured_snr_db);
  }
  CosSession session(link, config);
  Rng rng(runner::substream_seed(seed, 2));
  const Bytes psdu = make_test_psdu(1024, rng);
  // Bootstrap the subcarrier selection, then measure one packet.
  session.send_packet(psdu, rng.bits(16));
  const PacketReport report = session.send_packet(psdu, rng.bits(4000));
  counts.packets = 1;
  counts.packets_ok = report.data_ok ? 1 : 0;
  counts.airtime_s = 1e-6 * (kSifsUs + kDifsUs) +
                     (16e-6 + 4e-6) +  // preamble + SIGNAL
                     symbols_for_psdu(psdu.size(), *report.mcs) * 4e-6;
  if (report.data_ok) {
    counts.control_bits = report.control_bits_correct;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "throughput_curves");
  const int packets =
      args.trials > 0 ? args.trials : kDefaultPacketsPerPoint;

  runner::SweepGrid<double> grid;  // points: measured SNR in dB
  grid.base_seed = args.seed;
  grid.trials = static_cast<std::size_t>(packets);
  for (double snr = 6.0; snr <= 26.0; snr += 2.0) {
    grid.points.push_back(snr);
  }

  const auto outcome = runner::run_sweep(
      grid, {.threads = args.threads, .chunk = 4},
      [](const double& snr, const runner::TrialContext& ctx) {
        TrialCounts counts;
        counts.plain = run_config(snr, 0, ctx.seed);
        counts.calibrated = run_config(snr, 1, ctx.seed);
        counts.overdriven = run_config(snr, 4, ctx.seed);
        return counts;
      });

  runner::SweepReport report;
  report.bench = "throughput_curves";
  report.title = "Throughput";
  report.description =
      "data goodput with and without CoS vs measured SNR";
  report.grid.set("snr_db", runner::Json::Object{{"start", 6.0},
                                                 {"stop", 26.0},
                                                 {"step", 2.0}});
  report.grid.set("packets_per_point", packets);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.columns = {{"snr_dB", 8, 0},     {"rate_mbps", 10, -1},
                    {"plainPRR", 10, 2},  {"plainMbps", 10, 2},
                    {"cosPRR", 8, 2},     {"cosMbps", 8, 2},
                    {"ctrl_kbps", 10, 1}, {"4x_PRR", 8, 2},
                    {"4x_Mbps", 8, 2}};
  report.timing = {report.bench, outcome.threads, outcome.trials_run,
                   outcome.wall_seconds};
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const double snr = grid.points[i];
    const TrialCounts& counts = outcome.point_results[i];
    report.add_row({snr, select_mcs_by_snr(snr).data_rate_mbps,
                    counts.plain.prr(), counts.plain.mbps(),
                    counts.calibrated.prr(), counts.calibrated.mbps(),
                    counts.calibrated.control_kbps(),
                    counts.overdriven.prr(), counts.overdriven.mbps()});
  }
  report.notes = {
      "",
      "Reading: at the calibrated control rate, CoS goodput tracks the",
      "no-CoS baseline while delivering the control stream on the side;",
      "overdriving the silence rate beyond the table eats into PRR —",
      "exactly the trade the paper's rate controller exists to manage."};

  runner::TableSink table;
  table.write(report);
  if (args.json) {
    runner::JsonSink(args.json_path).write(report);
    fabric::write_run_record(args.json_path, report.timing);
  }
  bench::finish_observability(args);
  return 0;
}
