// The single CoS configuration record (paper Fig. 8's shared TX/RX
// state): which data subcarriers carry the control channel, how many
// bits each silence interval encodes, how the receiver's energy detector
// is tuned, and the scrambler seed of the data frames.
//
// One CosProfile value is shared — by value, never by pointer — across
// every layer that used to carry its own copy of these fields:
// cos_transmit/cos_receive (core/cos_link.h, via thin per-side views),
// the closed-loop CosSession (sim/session.h), the replayable
// CosTrialSpec (sim/trial.h) and the network-scale net::Scenario
// (net/scenario.h). It round-trips through the strict JSON parser
// (runner/json.h), so flight-recorder specs and scenario files embed it
// verbatim and replay bit-identically.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/energy_detector.h"
#include "core/interval_code.h"
#include "runner/json.h"

namespace silence {

struct CosProfile {
  // Logical data-subcarrier indices (0..47) carrying the control
  // channel, in logical numbering order. Before any selection feedback
  // arrives this is the bootstrap set; the paper's Fig. 10(a) uses the
  // contiguous block [10..17], filled rather than brace-listed: GCC 12
  // reports a false -Wmaybe-uninitialized on a vector built from an
  // initializer_list.
  std::vector<int> control_subcarriers = [] {
    std::vector<int> indices(8);
    std::iota(indices.begin(), indices.end(), 10);
    return indices;
  }();
  // Bits per silence interval (k in the paper's interval code).
  int bits_per_interval = kDefaultBitsPerInterval;
  // Energy-detector tuning. `detector.modulation` is transient RX state
  // (it follows the packet's SIGNAL field) and is not serialized.
  DetectorConfig detector;
  // Scrambler seed of the data frames (802.11a SERVICE field).
  std::uint8_t scrambler_seed = 0x5D;
  // Minimum control subcarriers the receiver requests for the next
  // packet when computing selection feedback.
  int min_feedback_subcarriers = 6;

  // Strict-JSON round trip: from_json(to_json(p)) == p.
  runner::Json to_json() const;
  static CosProfile from_json(const runner::Json& json);

  friend bool operator==(const CosProfile&, const CosProfile&) = default;
};

}  // namespace silence
