// silence_health — renders a `.health.json` PHY signal-health sidecar
// (obs/health) into human-readable tables.
//
//   silence_health <file.health.json> [--md FILE] [--csv FILE] [--verify]
//
//   (default)     markdown digest to stdout: audit counters, the
//                 per-subcarrier waterfall table (SNR / EVM / |H| means
//                 plus detector counts), an empirical ROC sweep, and the
//                 nabla-EVM drift summary
//   --md FILE     write the same markdown to FILE instead of stdout
//   --csv FILE    write the per-subcarrier waterfall as CSV
//   --verify      cross-check the histogram-derived detection counts at
//                 the configured threshold (score 256) against the
//                 confusion counters recorded by the sim layer
//
// The ROC sweep is exact, not interpolated: scores are quantized into
// power-of-two histogram buckets, so "declared silent at threshold 2^b"
// is a plain bucket sum. At the configured threshold (score 256 = the
// detector's actual decision, clamped into the quantization) the sweep
// row must reproduce the kMisses/kFalseAlarms counters bit-for-bit —
// that is what --verify asserts.
//
// Exit status: 0 = ok, 1 = --verify mismatch, 2 = usage error or
// unreadable/malformed input.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/health/health.h"
#include "runner/json.h"
#include "runner/sinks.h"

namespace {

namespace health = silence::obs::health;
using health::HealthSnapshot;
using silence::obs::Hist;

int usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s <file.health.json> [--md FILE] [--csv FILE] [--verify]\n"
      "  renders a PHY signal-health sidecar as markdown (stdout or\n"
      "  --md FILE) and optionally CSV; --verify cross-checks the\n"
      "  histogram-derived ROC at the configured threshold against the\n"
      "  recorded confusion counters (exit 1 on mismatch)\n",
      argv0);
  return code;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::uint64_t counter(const HealthSnapshot& h, health::Counter c) {
  return h.counters[static_cast<std::size_t>(c)];
}

const std::array<Hist, health::kSubcarriers>& waterfall_row(
    const HealthSnapshot& h, health::Waterfall w) {
  return h.waterfalls[static_cast<std::size_t>(w)];
}

const std::array<Hist, health::kSubcarriers>& score_row(
    const HealthSnapshot& h, health::Truth t) {
  return h.scores[static_cast<std::size_t>(t)];
}

// One subcarrier row folded into a single whole-band histogram.
Hist band(const std::array<Hist, health::kSubcarriers>& row) {
  Hist all;
  for (const Hist& h : row) all += h;
  return all;
}

// The configured threshold (256 = 2^8) is the floor of this bucket, so
// count_below(kThresholdBucket) is exactly the declared-silent count.
const std::size_t kThresholdBucket =
    silence::obs::histogram_bucket(health::kScoreThreshold);

std::string md_render(const HealthSnapshot& h) {
  std::string md;
  md += "# PHY signal health\n\n## Audit counters\n\n"
        "| counter | value |\n| --- | --- |\n";
  for (std::size_t c = 0; c < static_cast<std::size_t>(health::Counter::kCount);
       ++c) {
    md += std::string("| ") +
          health::counter_name(static_cast<health::Counter>(c)) + " | " +
          std::to_string(h.counters[c]) + " |\n";
  }

  md += "\n## Per-subcarrier waterfalls\n\n"
        "Means in physical units (SNR linear, EVM rms fraction, |H| "
        "magnitude); `-` = no samples.\n\n"
        "| sc | SNR n | SNR mean | EVM n | EVM mean | \\|H\\| n | "
        "\\|H\\| mean | silent n | active n |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n";
  const auto& snr = waterfall_row(h, health::Waterfall::kSnr);
  const auto& evm = waterfall_row(h, health::Waterfall::kEvm);
  const auto& mag = waterfall_row(h, health::Waterfall::kChanMag);
  const auto& silent = score_row(h, health::Truth::kSilent);
  const auto& active = score_row(h, health::Truth::kActive);
  const auto cell = [](const Hist& hist, double scale) {
    return std::to_string(hist.count) + " | " +
           (hist.count == 0 ? std::string("-") : fmt(hist.mean() / scale));
  };
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    md += "| " + std::to_string(sc) + " | " +
          cell(snr[sc], health::kSnrScale) + " | " +
          cell(evm[sc], health::kEvmScale) + " | " +
          cell(mag[sc], health::kChanScale) + " | " +
          std::to_string(silent[sc].count) + " | " +
          std::to_string(active[sc].count) + " |\n";
  }

  md += "\n## Empirical ROC\n\n";
  const Hist silent_band = band(silent);
  const Hist active_band = band(active);
  if (silent_band.count + active_band.count == 0) {
    md += "_no ground-truth labelled detector scores (network runs don't "
          "label; run fig10)_\n";
  } else {
    md += "Exact bucket sums at power-of-two score thresholds (score "
          "256 = the configured detector threshold).\n\n"
          "| threshold (x256) | misses | miss rate | false alarms | "
          "false-alarm rate |\n| --- | --- | --- | --- | --- |\n";
    // Stop at the highest non-empty bucket: past it every score is below
    // the threshold.
    const std::size_t top = silence::obs::histogram_bucket(
        std::max(silent_band.max, active_band.max));
    for (std::size_t b = 0; b <= top; ++b) {
      // The operating point "declare silent when score < 2^b".
      const std::uint64_t misses =
          silent_band.count - silent_band.count_below(b + 1);
      const std::uint64_t false_alarms = active_band.count_below(b + 1);
      const std::uint64_t threshold = std::uint64_t{1} << b;
      md += "| " + std::to_string(threshold) +
            (threshold == health::kScoreThreshold ? " (configured)" : "") +
            " | " + std::to_string(misses) + " | " +
            fmt(silent_band.count == 0
                    ? 0.0
                    : static_cast<double>(misses) /
                          static_cast<double>(silent_band.count)) +
            " | " + std::to_string(false_alarms) + " | " +
            fmt(active_band.count == 0
                    ? 0.0
                    : static_cast<double>(false_alarms) /
                          static_cast<double>(active_band.count)) +
            " |\n";
    }
  }

  md += "\n## nabla-EVM drift\n\n";
  if (h.nabla_evm.count == 0) {
    md += "_no drift samples (needs >= 2 decoded feedback rounds per "
          "session)_\n";
  } else {
    md += std::to_string(h.nabla_evm.count) + " sample(s), mean " +
          fmt(h.nabla_evm.mean() / health::kNablaEvmScale) + ", max " +
          fmt(static_cast<double>(h.nabla_evm.max) /
              health::kNablaEvmScale) +
          "\n";
  }
  return md;
}

std::string csv_render(const HealthSnapshot& h) {
  std::string csv =
      "subcarrier,snr_count,snr_mean,evm_count,evm_mean,chan_mag_count,"
      "chan_mag_mean,silent_scores,silent_detected,active_scores,"
      "active_declared_silent\n";
  const auto& snr = waterfall_row(h, health::Waterfall::kSnr);
  const auto& evm = waterfall_row(h, health::Waterfall::kEvm);
  const auto& mag = waterfall_row(h, health::Waterfall::kChanMag);
  const auto& silent = score_row(h, health::Truth::kSilent);
  const auto& active = score_row(h, health::Truth::kActive);
  for (std::size_t sc = 0; sc < health::kSubcarriers; ++sc) {
    csv += std::to_string(sc) + "," + std::to_string(snr[sc].count) + "," +
           fmt(snr[sc].mean() / health::kSnrScale) + "," +
           std::to_string(evm[sc].count) + "," +
           fmt(evm[sc].mean() / health::kEvmScale) + "," +
           std::to_string(mag[sc].count) + "," +
           fmt(mag[sc].mean() / health::kChanScale) + "," +
           std::to_string(silent[sc].count) + "," +
           std::to_string(silent[sc].count_below(kThresholdBucket)) + "," +
           std::to_string(active[sc].count) + "," +
           std::to_string(active[sc].count_below(kThresholdBucket)) + "\n";
  }
  return csv;
}

// The cross-check --verify asserts: the quantization clamps the decision
// into the score, so the bucket sums at the configured threshold must
// reproduce the sim layer's confusion counters exactly.
int verify(const HealthSnapshot& h) {
  const Hist silent = band(score_row(h, health::Truth::kSilent));
  const Hist active = band(score_row(h, health::Truth::kActive));
  const std::uint64_t hist_misses =
      silent.count - silent.count_below(kThresholdBucket);
  const std::uint64_t hist_false_alarms =
      active.count_below(kThresholdBucket);

  struct Check {
    const char* what;
    std::uint64_t histogram;
    std::uint64_t counters;
  };
  const Check checks[] = {
      {"truth-silent cells", silent.count,
       counter(h, health::Counter::kTruthSilent)},
      {"truth-active cells", active.count,
       counter(h, health::Counter::kTruthActive)},
      {"misses @256", hist_misses, counter(h, health::Counter::kMisses)},
      {"false alarms @256", hist_false_alarms,
       counter(h, health::Counter::kFalseAlarms)},
  };
  int bad = 0;
  for (const Check& c : checks) {
    if (c.histogram == c.counters) {
      std::printf("verify: %-18s %llu == %llu  OK\n", c.what,
                  static_cast<unsigned long long>(c.histogram),
                  static_cast<unsigned long long>(c.counters));
    } else {
      std::printf("verify: %-18s histogram %llu != counter %llu  MISMATCH\n",
                  c.what, static_cast<unsigned long long>(c.histogram),
                  static_cast<unsigned long long>(c.counters));
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

bool write_text(const std::string& path, const std::string& text,
                const char* argv0) {
  try {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
      std::filesystem::create_directories(p.parent_path());
    }
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << text;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv0, e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path, md_path, csv_path;
  bool do_verify = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      return usage(argv[0], 0);
    } else if (!std::strcmp(argv[i], "--md")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      md_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--csv")) {
      if (i + 1 >= argc) return usage(argv[0], 2);
      csv_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--verify")) {
      do_verify = true;
    } else if (input_path.empty()) {
      input_path = argv[i];
    } else {
      return usage(argv[0], 2);
    }
  }
  if (input_path.empty()) return usage(argv[0], 2);

  HealthSnapshot snapshot;
  try {
    snapshot =
        health::health_from_json(silence::runner::read_json_file(input_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], input_path.c_str(),
                 e.what());
    return 2;
  }

  const std::string md = md_render(snapshot);
  if (md_path.empty()) {
    if (!do_verify) std::fputs(md.c_str(), stdout);
  } else if (!write_text(md_path, md, argv[0])) {
    return 2;
  }
  if (!csv_path.empty() && !write_text(csv_path, csv_render(snapshot),
                                       argv[0])) {
    return 2;
  }
  return do_verify ? verify(snapshot) : 0;
}
