// Shared pieces of the whole-run benchmark (see README.md): options, the
// op clock, the benchmark-side span log, and the outcome each workload
// hands back to main.cpp for reporting.
//
// Spans are recorded only here, in the benchmark's own code, around
// calls into the library's public functions. The untraced run records op
// boundaries and nothing else.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The base seed bench/net_scenarios used for the committed
// results/BENCH_net.json rows; other seeds skip the row comparison.
inline constexpr std::uint64_t kDefaultSeed = 1;

// A p90 needs at least ten samples beyond it.
inline constexpr std::size_t kMinOpsForP90 = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  // Stop after set-up: report set-up time only.
  bool setup_only = false;
  // Process start on the steady clock (the launcher's time just before it
  // spawned us); 0 = use the moment main() was entered.
  std::int64_t t0_ns = 0;
  std::string reference = "results/BENCH_net.json";
};

// The traced run's spans. Each wraps calls into one public library
// function; the name is "<module>.<call>".
enum class Layer : int {
  kNetStationCtor,  // net::Station ctor, outside the op (see README.md)
  kNetInit,         // net::NetSim::init
  kNetRun,          // net::NetSim::run
  kNetResult,       // net::NetSim::result
  kSimMakePsdu,     // make_test_psdu
  kChannelConstruct,    // FadingChannel ctor
  kChannelNoiseVar,     // noise_var_for_measured_snr
  kCoreCosTransmit,     // cos_transmit
  kChannelTransmit,     // FadingChannel::transmit
  kPhyFrontEnd,         // receiver_front_end
  kCoreDetect,          // detect_silences
  kCoreIntervalDecode,  // mask_to_intervals + intervals_to_bits_tolerant
  kPhyDecode,           // decode_data_symbols
  kCount
};

inline constexpr const char* kLayerNames[] = {
    "net.station_ctor", "net.init",          "net.run",
    "net.result",       "sim.make_psdu",     "channel.construct",
    "channel.noise_var", "core.cos_transmit", "channel.transmit",
    "phy.front_end",    "core.detect",       "core.interval_decode",
    "phy.decode"};
static_assert(std::size(kLayerNames) == static_cast<std::size_t>(Layer::kCount));

// Layers timed outside an op's boundaries (extra work the traced run adds
// to split a call it cannot see into); they count toward neither the op
// time nor the covered share.
inline bool outside_op(Layer layer) { return layer == Layer::kNetStationCtor; }

struct Span {
  Layer layer = Layer::kCount;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// The spans of one op, in call order.
class SpanLog {
 public:
  template <typename Fn>
  decltype(auto) time(Layer layer, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      spans_.push_back({layer, start, now_ns()});
    } else {
      auto out = fn();
      spans_.push_back({layer, start, now_ns()});
      return out;
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Runs timed ops until `seconds` have passed and at least `min_ops` are
// done; past `seconds` only up to twice that. `hard_min_ops` must finish
// however long they take (the committed-row check needs them).
struct StopRule {
  double seconds = 0.0;
  std::size_t min_ops = 0;
  std::size_t hard_min_ops = 1;

  bool more(std::size_t ops, std::int64_t elapsed_ns) const {
    const double elapsed = static_cast<double>(elapsed_ns) * 1e-9;
    if (ops < hard_min_ops || elapsed < seconds) return true;
    return ops < min_ops && elapsed < 2.0 * seconds;
  }
};

// What one workload measured.
struct Outcome {
  int threads = 1;
  std::int64_t first_op_ns = 0;  // start of the first timed op
  // End-to-end run: one host time per completed op, and the loop's wall.
  std::vector<std::int64_t> op_ns;
  std::int64_t wall_ns = 0;
  // Traced re-run of the same ops (trace mode only).
  std::vector<std::int64_t> traced_op_ns;
  std::vector<Span> spans;
  // Workload-specific per-layer counts and ratios (names in main.cpp).
  std::vector<std::pair<std::string, double>> layer_metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::string reference_check = "none";

  void fail(std::size_t ops, std::string why) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// 64-bit FNV-1a: the per-op output digest the determinism checks compare.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Outcome run_net(const Options& options, bool dense);
Outcome run_link(const Options& options);

}  // namespace perfbench
