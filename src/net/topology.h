// Network geometry and offered load as first-class value types, split
// out of net::Scenario so a scenario file reads as "where everyone is"
// (Topology) plus "what everyone sends" (TrafficModel) plus the shared
// PHY/CoS knobs (the remaining Scenario fields).
//
// Topology describes one or more BSSs (AP + its stations) on 802.11a
// channels. Stations get *global* indices: BSS 0's stations first, then
// BSS 1's, in declaration order — these indices key the seed substreams,
// the NetResult::stations vector and the carrier-sense matrix. Within a
// BSS, SNR interpolates linearly from `snr_db_near` (first station) to
// `snr_db_far` (last), the same expression the legacy flat scenario
// used, so a single-BSS topology reproduces legacy SNRs bit-for-bit.
//
// The carrier-sense matrix models hidden terminals: hears(i, j) == false
// means station i cannot detect station j's transmission and may blind-
// fire into it. Empty matrix = everyone hears everyone (the legacy
// assumption). Cross-BSS interference (OBSS) is governed by channel
// distance instead: co-channel PPDUs overlap at full weight,
// adjacent-channel at `adjacent_leak`, farther apart not at all.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/json.h"

namespace silence::net {

struct Topology {
  struct Bss {
    int channel = 36;  // 802.11a channel number (adjacency = |delta| of 1)
    int num_stations = 4;
    double snr_db_near = 24.0;
    double snr_db_far = 12.0;

    friend bool operator==(const Bss&, const Bss&) = default;
  };

  // One default BSS, sized rather than brace-listed: GCC 12 reports a
  // false -Wmaybe-uninitialized on an aggregate in an initializer_list.
  std::vector<Bss> bss = std::vector<Bss>(1);
  // N*N row-major sensing matrix over global station indices (N =
  // total_stations()); entry [i*N + j] != 0 means station i hears
  // station j. Empty = full sensing. The diagonal is ignored.
  std::vector<std::uint8_t> carrier_sense;
  // Per-sample power of the pulse interference an overlapping PPDU
  // injects into a victim receiver (channel/interference.h).
  double obss_pulse_power = 1.0;
  // Overlap weight for BSSs one channel apart (co-channel = 1, two or
  // more apart = 0).
  double adjacent_leak = 0.25;

  int total_stations() const {
    int n = 0;
    for (const Bss& b : bss) n += b.num_stations;
    return n;
  }
  // BSS owning global station `index`.
  int station_bss(int index) const;
  // Global index of BSS b's first station.
  int first_station(int bss_index) const;
  // Measured-SNR assignment for global station `index`: the legacy
  // near->far interpolation, applied within the station's own BSS.
  double station_snr_db(int index) const;
  // Whether station i senses station j's transmissions (same-BSS
  // carrier sense; OBSS audibility is modelled via channel overlap,
  // not this matrix).
  bool hears(int i, int j) const {
    if (carrier_sense.empty() || i == j) return true;
    const std::size_t n = static_cast<std::size_t>(total_stations());
    return carrier_sense[static_cast<std::size_t>(i) * n +
                         static_cast<std::size_t>(j)] != 0;
  }
  // Overlap weight between two channels: 1, adjacent_leak, or 0.
  double channel_weight(int ch_a, int ch_b) const {
    const int d = ch_a > ch_b ? ch_a - ch_b : ch_b - ch_a;
    if (d == 0) return 1.0;
    if (d == 1) return adjacent_leak;
    return 0.0;
  }

  // Throws std::invalid_argument on an inconsistent topology (no BSSs,
  // a BSS without stations, a carrier-sense matrix of the wrong size).
  void validate() const;

  // Strict-JSON round trip: from_json(to_json(t)) == t, including every
  // double's bit pattern.
  runner::Json to_json() const;
  static Topology from_json(const runner::Json& json);

  friend bool operator==(const Topology&, const Topology&) = default;
};

// Per-station offered load. A tagged union in spirit: `kind` selects the
// model, the rate/burst fields apply to the kinds that use them (all
// fields always serialize, so the JSON round trip is field-exact
// regardless of kind).
struct TrafficModel {
  enum class Kind : std::uint8_t {
    kSaturated = 0,  // always backlogged (the legacy closed loop)
    kPoisson = 1,    // exponential inter-arrival frames
    kOnOff = 2,      // exponential ON/OFF bursts, Poisson arrivals in ON
  };

  Kind kind = Kind::kSaturated;
  // Frame arrival rate while generating (poisson: always; on_off:
  // during ON periods).
  double arrival_rate_fps = 2000.0;
  // Mean ON / OFF period lengths for kOnOff.
  double mean_on_us = 4000.0;
  double mean_off_us = 4000.0;

  bool saturated() const { return kind == Kind::kSaturated; }

  void validate() const;  // throws std::invalid_argument

  runner::Json to_json() const;
  static TrafficModel from_json(const runner::Json& json);

  friend bool operator==(const TrafficModel&, const TrafficModel&) = default;
};

}  // namespace silence::net
