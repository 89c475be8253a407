// The link workload: run_cos_trial, the figure-sweep path, over 5 rates x
// 6 measured SNRs with 1500-octet PSDUs, swept through runner::run_sweep
// on two threads. An op is one packet trial. Each sweep draws fresh trial
// seeds, so no two ops in a run repeat the same work.
//
// The traced run re-composes run_cos_trial from the public functions it
// calls, with a span around each, and must reproduce every op's
// CosTrialResult::summary() bit for bit.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "channel/fading.h"
#include "core/energy_detector.h"
#include "core/interval_code.h"
#include "core/silence_plan.h"
#include "phy/receiver.h"
#include "phy/workspace.h"
#include "runner/seed.h"
#include "runner/sweep.h"
#include "sim/link.h"
#include "sim/trial.h"

namespace perfbench {
namespace {

namespace runner = silence::runner;
using silence::CosTrialResult;
using silence::CosTrialSpec;

constexpr int kRatesMbps[] = {6, 12, 24, 36, 54};
constexpr double kSnrsDb[] = {6, 10, 14, 18, 22, 26};
constexpr std::size_t kPsduOctets = 1500;
constexpr int kThreads = 2;
constexpr std::size_t kTrialsPerPoint = 4;  // 120 ops per sweep

std::vector<CosTrialSpec> sweep_points() {
  std::vector<CosTrialSpec> points;
  for (const int rate : kRatesMbps) {
    for (const double snr : kSnrsDb) {
      CosTrialSpec spec;
      spec.measured_snr_db = snr;
      spec.mcs = silence::McsId::for_rate(rate);
      spec.psdu_octets = kPsduOctets;
      points.push_back(spec);
    }
  }
  return points;
}

// The ops of one trial, or the ordered merge of a sweep's trials.
struct LinkOps {
  std::vector<std::int64_t> op_ns;
  std::vector<std::uint64_t> digests;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  std::size_t usable = 0;
  std::size_t crc_ok = 0;

  LinkOps& operator+=(LinkOps&& o) {
    op_ns.insert(op_ns.end(), o.op_ns.begin(), o.op_ns.end());
    digests.insert(digests.end(), o.digests.begin(), o.digests.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
    usable += o.usable;
    crc_ok += o.crc_ok;
    return *this;
  }
};

std::uint64_t digest(const CosTrialResult& r) {
  return fnv1a(r.summary().dump_compact());
}

// A PSDU that passed its CRC must be the one the trial's payload
// substream generated.
bool psdu_matches(const CosTrialSpec& spec, std::uint64_t seed,
                  const CosTrialResult& r) {
  if (!r.crc_ok) return r.psdu.empty();
  silence::Rng rng(runner::substream_seed(seed, 1));
  return r.psdu == silence::make_test_psdu(spec.psdu_octets, rng);
}

silence::DetectionCounts confusion(const silence::SilenceMask& planned,
                                   const silence::SilenceMask& detected,
                                   const std::vector<int>& subcarriers) {
  silence::DetectionCounts counts;
  if (detected.size() != planned.size()) return counts;
  for (std::size_t s = 0; s < planned.size(); ++s) {
    for (const int sc : subcarriers) {
      const auto idx = static_cast<std::size_t>(sc);
      if (planned[s][idx]) {
        ++counts.silent;
        if (!detected[s][idx]) ++counts.false_neg;
      } else {
        ++counts.active;
        if (detected[s][idx]) ++counts.false_pos;
      }
    }
  }
  return counts;
}

// run_cos_trial (no interferer, SIGNAL-derived framing), re-composed from
// the public calls it makes, each wrapped in a span.
CosTrialResult traced_trial(const CosTrialSpec& spec, std::uint64_t seed,
                            SpanLog& log) {
  silence::PhyWorkspace& ws = silence::default_phy_workspace();
  CosTrialResult result;
  const std::uint64_t channel_seed = runner::substream_seed(seed, 0);
  silence::Rng rng(runner::substream_seed(seed, 1));
  silence::FadingChannel channel = log.time(Layer::kChannelConstruct, [&] {
    return silence::FadingChannel(spec.profile, channel_seed);
  });
  const double nv = log.time(Layer::kChannelNoiseVar, [&] {
    return silence::noise_var_for_measured_snr(channel, spec.measured_snr_db);
  });
  const silence::CosTxConfig tx_config(spec.cos, spec.mcs);
  const silence::Bytes psdu = log.time(Layer::kSimMakePsdu, [&] {
    return silence::make_test_psdu(spec.psdu_octets, rng);
  });
  const silence::Bits control = rng.bits(spec.control_bits);
  const silence::CosTxPacket tx = log.time(Layer::kCoreCosTransmit, [&] {
    return silence::cos_transmit(psdu, control, tx_config);
  });
  const silence::CxVec received = log.time(Layer::kChannelTransmit, [&] {
    return channel.transmit(tx.samples, nv, rng);
  });
  const silence::FrontEndResult fe = log.time(Layer::kPhyFrontEnd, [&] {
    return silence::receiver_front_end(received, ws);
  });
  result.usable = static_cast<bool>(fe.signal);
  result.control_bits_sent = tx.plan.bits_sent;
  if (!result.usable) return result;

  const silence::Mcs& mcs = *spec.mcs;
  silence::DetectorConfig detector = spec.cos.detector;
  detector.modulation = mcs.modulation;
  result.detected_mask = log.time(Layer::kCoreDetect, [&] {
    return silence::detect_silences(fe, spec.cos.control_subcarriers,
                                    detector);
  });
  result.detection = confusion(tx.plan.mask, result.detected_mask,
                               spec.cos.control_subcarriers);
  result.control_recovered = log.time(Layer::kCoreIntervalDecode, [&] {
    const std::vector<int> intervals = silence::mask_to_intervals(
        result.detected_mask, spec.cos.control_subcarriers);
    return silence::intervals_to_bits_tolerant(intervals,
                                               spec.cos.bits_per_interval);
  });
  result.control_bits_recovered = result.control_recovered.size();
  result.control_ok =
      result.control_recovered.size() == result.control_bits_sent &&
      std::equal(result.control_recovered.begin(),
                 result.control_recovered.end(), control.begin());
  const silence::DecodeResult decode = log.time(Layer::kPhyDecode, [&] {
    return silence::decode_data_symbols(fe, mcs,
                                        static_cast<int>(spec.psdu_octets),
                                        &result.detected_mask, ws);
  });
  result.crc_ok = decode.crc_ok;
  if (decode.crc_ok) result.psdu = decode.psdu;
  return result;
}

std::string where(const runner::TrialContext& ctx) {
  return "point " + std::to_string(ctx.point_index) + " trial " +
         std::to_string(ctx.trial_index);
}

LinkOps run_op(const CosTrialSpec& spec, const runner::TrialContext& ctx,
               bool traced) {
  LinkOps ops;
  try {
    CosTrialResult r;
    if (traced) {
      SpanLog log;
      const std::int64_t start = now_ns();
      r = traced_trial(spec, ctx.seed, log);
      ops.op_ns.push_back(now_ns() - start);
      ops.spans = std::move(log.spans());
    } else {
      const silence::obs::flight::TrialLabel label{
          "perfbench.link_trials", ctx.point_index, ctx.trial_index};
      const std::int64_t start = now_ns();
      r = silence::run_cos_trial(spec, label, ctx.seed);
      ops.op_ns.push_back(now_ns() - start);
    }
    ops.digests.push_back(digest(r));
    ops.usable = r.usable;
    ops.crc_ok = r.crc_ok;
    if (!psdu_matches(spec, ctx.seed, r)) {
      ops.failures.push_back(where(ctx) + ": decoded PSDU is not the sent one");
    }
  } catch (const std::exception& e) {
    ops.digests.push_back(0);
    ops.failures.push_back(where(ctx) + " threw: " + e.what());
  }
  return ops;
}

// One sweep of every point; sweep k draws its trial seeds from base seed
// substream_seed(seed, k).
struct Sweep {
  LinkOps ops;
  std::int64_t wall_ns = 0;
};

Sweep run_one_sweep(const std::vector<CosTrialSpec>& points,
                    std::uint64_t seed, std::size_t k, bool traced) {
  runner::SweepGrid<CosTrialSpec> grid;
  grid.points = points;
  grid.trials = kTrialsPerPoint;
  grid.base_seed = runner::substream_seed(seed, k);
  Sweep sweep;
  const std::int64_t start = now_ns();
  auto outcome = runner::run_sweep(
      grid, {.threads = kThreads, .chunk = 1},
      [traced](const CosTrialSpec& spec, const runner::TrialContext& ctx) {
        return run_op(spec, ctx, traced);
      },
      [](LinkOps& into, LinkOps&& part) { into += std::move(part); });
  sweep.wall_ns = now_ns() - start;
  for (LinkOps& p : outcome.point_results) sweep.ops += std::move(p);
  return sweep;
}

}  // namespace

Outcome run_link(const Options& options) {
  Outcome out;
  out.threads = kThreads;
  out.reference_check = "none (no committed link rows)";
  const std::vector<CosTrialSpec> points = sweep_points();
  // Untimed warm-up op (point 0, trial 0 of sweep 0): fills the FFT-plan,
  // interleaver and workspace caches; sweep 0 must reproduce it.
  const runner::TrialContext warm_ctx{
      0, 0, runner::trial_seed(runner::substream_seed(options.seed, 0), 0, 0)};
  const LinkOps warm = run_op(points[0], warm_ctx, false);
  for (const std::string& why : warm.failures) out.fail(1, "warm-up " + why);
  out.first_op_ns = now_ns();
  if (options.setup_only) return out;

  // A traced run follows each sweep with a traced replay of the same
  // sweep, so the pair shares the host's conditions.
  const StopRule rule{options.seconds, options.trace ? 0 : kMinOpsForP90, 1};
  std::int64_t busy_ns = 0;
  std::size_t usable = 0;
  std::size_t crc_ok = 0;
  const std::int64_t loop_start = out.first_op_ns;
  for (std::size_t k = 0; rule.more(out.op_ns.size(), now_ns() - loop_start);
       ++k) {
    Sweep sweep = run_one_sweep(points, options.seed, k, false);
    out.wall_ns += sweep.wall_ns;
    out.attempted += sweep.ops.digests.size();
    for (std::string& why : sweep.ops.failures) out.fail(1, std::move(why));
    for (const std::int64_t ns : sweep.ops.op_ns) busy_ns += ns;
    out.op_ns.insert(out.op_ns.end(), sweep.ops.op_ns.begin(),
                     sweep.ops.op_ns.end());
    if (k == 0 && sweep.ops.digests.front() != warm.digests.front()) {
      out.fail(1, "sweep 0 op 0 differs from the warm-up run of it");
    }
    if (!options.trace) continue;

    Sweep traced = run_one_sweep(points, options.seed, k, true);
    out.attempted += traced.ops.digests.size();
    for (std::string& why : traced.ops.failures) out.fail(1, std::move(why));
    for (std::size_t i = 0; i < traced.ops.digests.size(); ++i) {
      if (traced.ops.digests[i] != sweep.ops.digests[i]) {
        out.fail(1, "sweep " + std::to_string(k) + " op " +
                        std::to_string(i) +
                        ": traced re-composition differs from run_cos_trial");
      }
    }
    out.traced_op_ns.insert(out.traced_op_ns.end(),
                            traced.ops.op_ns.begin(), traced.ops.op_ns.end());
    out.spans.insert(out.spans.end(), traced.ops.spans.begin(),
                     traced.ops.spans.end());
    usable += traced.ops.usable;
    crc_ok += traced.ops.crc_ok;
  }
  if (!options.trace) return out;

  out.layer_metrics = {
      {"phy.signal_ok_ratio",
       ratio(static_cast<double>(usable),
             static_cast<double>(out.traced_op_ns.size()))},
      {"phy.crc_ok_ratio",
       ratio(static_cast<double>(crc_ok), static_cast<double>(usable))},
      {"runner.busy_share",
       ratio(static_cast<double>(busy_ns),
             static_cast<double>(kThreads) *
                 static_cast<double>(out.wall_ns))},
  };
  return out;
}

}  // namespace perfbench
