// Reproduces paper Fig. 9: the maximum number of silence symbols per
// second (R_m) CoS can insert while keeping the packet reception rate at
// the 99.3% target, as a function of the measured SNR. Also runs the
// random-placement ablation (DESIGN.md §4.1): the same budget placed on
// random subcarriers instead of the weakest ones.
//
// Method mirrors the paper's: 1024-byte packets sent back-to-back, data
// rate chosen by the SNR-based adaptation, silence-insertion rate R
// increased until the PRR target breaks; the largest passing R is R_m.
//
// Runner-based: one sweep task per (SNR, placement) pair, fanned across
// the thread pool; all per-packet seeds derive from (base_seed, SNR
// point, packet), so output is bit-identical at any --threads value.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "channel/fading.h"
#include "core/cos_link.h"
#include "runner/sinks.h"
#include "runner/sweep.h"
#include "sim/link.h"
#include "sim/stats.h"

using namespace silence;

namespace {

constexpr int kPacketOctets = 1024;
constexpr int kDefaultPacketsPerPoint = 150;

constexpr double kSnrStartDb = 5.0;
constexpr double kSnrStopDb = 25.0;
constexpr double kSnrStepDb = 1.0;

enum class Placement { kWeakest, kRandom };

// One sweep task: a single placement policy at a single measured SNR.
struct SweepPoint {
  std::size_t snr_index = 0;  // shared by both placements of one SNR
  double measured_snr_db = 0.0;
  Placement placement = Placement::kWeakest;
};

struct PointResult {
  bool feasible = false;  // PRR target met with zero silences
  int budget = 0;         // largest passing silences-per-packet
};

// Control subcarriers for one packet: the `count` weakest (by true
// channel gain — the EVM feedback approximates this genie) or a random
// subset of the same size.
std::vector<int> pick_subcarriers(const FadingChannel& channel, int count,
                                  Placement placement, Rng& rng) {
  std::vector<int> order(kNumDataSubcarriers);
  std::iota(order.begin(), order.end(), 0);
  if (placement == Placement::kRandom) {
    std::shuffle(order.begin(), order.end(), rng.engine());
  } else {
    const auto response = channel.frequency_response();
    const auto bins = data_subcarrier_bins();
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return std::norm(response[static_cast<std::size_t>(
                 bins[static_cast<std::size_t>(a)])]) <
             std::norm(response[static_cast<std::size_t>(
                 bins[static_cast<std::size_t>(b)])]);
    });
  }
  order.resize(static_cast<std::size_t>(count));
  return order;
}

// True when `silences_per_packet` sustains the PRR target at this
// measured SNR. Each packet sees a fresh channel realization pinned to
// the same NIC-measured SNR (the paper bins results by NIC SNR); the
// realizations derive from `stream_seed` and the packet index only, so
// every budget probed by the binary search sees identical channels.
bool prr_holds(double measured_snr_db, int silences_per_packet,
               const Mcs& mcs, int num_symbols, Placement placement,
               int packets, int max_failures, std::uint64_t stream_seed) {
  const auto k = static_cast<std::size_t>(kDefaultBitsPerInterval);
  const std::size_t control_bits_count =
      silences_per_packet > 1
          ? (static_cast<std::size_t>(silences_per_packet) - 1) * k
          : 0;
  // Enough control subcarriers to host the expected interval spread.
  const int n_ctrl = std::clamp(
      static_cast<int>(silences_per_packet * 8.5 / num_symbols) + 1, 4,
      kNumDataSubcarriers);

  int failures = 0;
  for (int p = 0; p < packets; ++p) {
    const auto pu = static_cast<std::uint64_t>(p);
    const std::uint64_t channel_seed =
        runner::substream_seed(stream_seed, 2 * pu);
    Rng rng(runner::substream_seed(stream_seed, 2 * pu + 1));
    MultipathProfile profile;
    FadingChannel channel(profile, channel_seed);
    const double nv = noise_var_for_measured_snr(channel, measured_snr_db);

    CosTxConfig tx_config;
    tx_config.mcs = McsId::of(mcs);
    tx_config.control_subcarriers =
        pick_subcarriers(channel, n_ctrl, placement, rng);

    const Bytes psdu = make_test_psdu(kPacketOctets, rng);
    const Bits control = rng.bits(control_bits_count);
    const CosTxPacket tx = cos_transmit(psdu, control, tx_config);
    const CxVec received = channel.transmit(tx.samples, nv, rng);

    CosRxConfig rx_config;
    rx_config.control_subcarriers = tx_config.control_subcarriers;
    const CosRxPacket rx = cos_receive(received, rx_config);
    // The paper's PRR criterion concerns the DATA packet: R_m asks how
    // many silences the channel code can absorb without destroying data
    // (control detection accuracy is Fig. 10's separate experiment).
    if (!rx.data_ok && ++failures > max_failures) return false;
  }
  return true;
}

// Largest silence budget per packet meeting the PRR target.
PointResult run_point(const SweepPoint& point, std::uint64_t base_seed,
                      std::uint64_t task_seed, int packets,
                      int max_failures) {
  const Mcs& mcs = select_mcs_by_snr(point.measured_snr_db);
  const int n_sym = symbols_for_psdu(kPacketOctets, mcs);

  PointResult result;
  // Feasibility is a property of the SNR alone (budget 0 ignores the
  // placement), so both placement tasks of one SNR probe it with the
  // same SNR-derived seed and necessarily agree.
  const std::uint64_t feasibility_seed =
      runner::trial_seed(base_seed, point.snr_index, ~std::uint64_t{0});
  result.feasible =
      prr_holds(point.measured_snr_db, 0, mcs, n_sym, point.placement,
                packets, max_failures, feasibility_seed);
  if (!result.feasible) return result;

  // Grid ceiling: average interval spread over all 48 subcarriers.
  const int grid_cap =
      static_cast<int>(n_sym * kNumDataSubcarriers / 8.5);
  int lo = 0, hi = grid_cap;
  if (!prr_holds(point.measured_snr_db, 1, mcs, n_sym, point.placement,
                 packets, max_failures, task_seed)) {
    return result;
  }
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (prr_holds(point.measured_snr_db, mid, mcs, n_sym, point.placement,
                  packets, max_failures, task_seed)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  result.budget = lo;
  return result;
}

// Shard-artifact codec (fabric/fabric.h): both fields are integers, so
// the round trip is trivially exact.
runner::Json point_to_json(const PointResult& r) {
  runner::Json row = runner::Json::object();
  row.set("feasible", r.feasible);
  row.set("budget", r.budget);
  return row;
}

PointResult point_from_json(const runner::Json& row) {
  PointResult r;
  r.feasible = row.find("feasible")->as_bool();
  r.budget = static_cast<int>(row.find("budget")->as_int());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "fig09_capacity");
  const int packets =
      args.trials > 0 ? args.trials : kDefaultPacketsPerPoint;
  // Scale the failure allowance with the packet count so --trials keeps
  // targeting the paper's ~99.3% PRR (1 failure allowed per 150).
  const int max_failures = std::max(1, packets / kDefaultPacketsPerPoint);

  runner::SweepGrid<SweepPoint> grid;
  grid.base_seed = args.seed;
  grid.trials = 1;  // each task is one adaptive budget search
  std::size_t snr_index = 0;
  for (double snr = kSnrStartDb; snr <= kSnrStopDb; snr += kSnrStepDb) {
    for (const Placement placement : {Placement::kWeakest, Placement::kRandom}) {
      grid.points.push_back({snr_index, snr, placement});
    }
    ++snr_index;
  }

  fabric::Fabric fab(bench::fabric_config(args));
  const auto outcome = fab.run(
      "fig09_capacity", grid, {.threads = args.threads, .chunk = 1},
      [&](const SweepPoint& point, const runner::TrialContext& ctx) {
        return run_point(point, grid.base_seed, ctx.seed, packets,
                         max_failures);
      },
      point_to_json, point_from_json, [](PointResult&, PointResult&&) {});
  if (fab.worker_mode()) return fab.finish_worker();

  runner::SweepReport report;
  report.bench = "fig09_capacity";
  report.title = "Fig. 9";
  report.description =
      "max silence symbols/sec (R_m) vs measured SNR, PRR target 99.3%";
  report.grid.set("snr_db",
                  runner::Json::Object{{"start", kSnrStartDb},
                                       {"stop", kSnrStopDb},
                                       {"step", kSnrStepDb}});
  report.grid.set("packet_octets", kPacketOctets);
  report.grid.set("packets_per_point", packets);
  report.grid.set("max_failures", max_failures);
  report.grid.set("base_seed", static_cast<std::int64_t>(grid.base_seed));
  report.columns = {{"measured_dB", 12, 1}, {"rate_mbps", 10, -1},
                    {"Rm_weakest", 14, 0},  {"Rm_random", 14, 0},
                    {"ctrl_kbps", 14, 1}};
  report.timing = {report.bench, outcome.threads, outcome.trials_run,
                   outcome.wall_seconds};

  // Pair up the two placements of each SNR (adjacent grid points).
  for (std::size_t i = 0; i + 1 < grid.points.size(); i += 2) {
    const SweepPoint& point = grid.points[i];
    const PointResult& weak = outcome.point_results[i];
    const PointResult& random = outcome.point_results[i + 1];
    const Mcs& mcs = select_mcs_by_snr(point.measured_snr_db);
    const int n_sym = symbols_for_psdu(kPacketOctets, mcs);
    const double airtime = kPreambleDurationSec + kSignalDurationSec +
                           n_sym * kSymbolDurationSec;
    // Feasibility: right at a region floor even a CoS-free packet can
    // miss the 99.3% PRR target; mark such points instead of implying
    // CoS caused the failure.
    if (!weak.feasible) {
      report.add_row({point.measured_snr_db, mcs.data_rate_mbps, nullptr,
                      nullptr, nullptr});
      continue;
    }
    const double rm_weak = weak.budget / airtime;
    const double rm_random = random.budget / airtime;
    report.add_row({point.measured_snr_db, mcs.data_rate_mbps, rm_weak,
                    rm_random, rm_weak * kDefaultBitsPerInterval / 1000.0});
  }
  report.notes = {
      "('-' rows: PRR target unmet even without CoS at that region floor)",
      "",
      "Paper shape: R_m climbs with SNR inside each rate region and",
      "saturates at a redundancy bound; bounds shrink with modulation",
      "order (QPSK > 16QAM > 64QAM at equal code rate) and code rate",
      "(1/2 > 3/4 at equal modulation); weakest-subcarrier placement",
      "sustains a higher R_m than random placement near region floors."};

  runner::TableSink table;
  table.write(report);
  if (args.json) {
    runner::JsonSink(args.json_path).write(report);
    fab.write_run_record(args.json_path, report.timing);
  }
  bench::finish_observability(args);
  return 0;
}
