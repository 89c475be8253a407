// AP-coordinated uplink access — the paper's "access coordination"
// application, quantified.
//
// An AP runs a saturated downlink stream to N stations and wants to
// schedule their uplink transmissions without collisions. Three designs:
//
//  * kDcfContention — no coordination: the AP and the stations all
//    contend with DCF (collisions waste airtime). This arm is one
//    run_scenario() call: a saturated BSS of N+1 stations at the
//    measured SNR, in which station 0 plays the AP, each frame is one
//    downlink_octets MPDU and no control message rides along;
//  * kExplicitPoll — the AP transmits an explicit CF-POLL-style control
//    frame before each uplink grant (airtime cost per grant);
//  * kCosGrant — the grant rides for free inside the AP's next downlink
//    data frame as a CoS control message (zero extra airtime; a lost
//    grant just skips that uplink opportunity).
//
// The two scheduled arms run a round-robin loop over per-station
// downlink/uplink Links. As in NetSim, every link's fading moves with
// the medium, and every frame goes out at the MCS its link's current
// measured SNR selects. The run reports throughput and the airtime spent
// on coordination, which is the quantity CoS eliminates.
#pragma once

#include <cstdint>

#include "net/scenario.h"

namespace silence::net {

enum class CoordinationMode { kDcfContention, kExplicitPoll, kCosGrant };

struct CoordinationConfig {
  CoordinationMode mode = CoordinationMode::kCosGrant;
  int num_stations = 4;
  std::size_t downlink_octets = 1024;
  std::size_t uplink_octets = 1024;  // scheduled arms only
  double duration_us = 200e3;
  double measured_snr_db = 18.0;
  std::uint64_t seed = 1;
};

struct CoordinationResult {
  std::size_t downlink_bits = 0;
  std::size_t uplink_bits = 0;
  std::size_t grants_issued = 0;
  std::size_t grants_lost = 0;  // CoS grant not decoded -> uplink skipped
  AirtimeBreakdown airtime;
  double elapsed_us = 0.0;

  double total_throughput_mbps() const {
    return elapsed_us > 0.0
               ? static_cast<double>(downlink_bits + uplink_bits) /
                     elapsed_us
               : 0.0;
  }
  // Fraction of airtime spent on explicit coordination frames.
  double control_overhead() const {
    const double total = airtime.total_us();
    return total > 0.0 ? airtime.control_us / total : 0.0;
  }
};

// Pure in `config` (including its seed). Throws std::invalid_argument
// when num_stations < 1.
CoordinationResult run_coordination(const CoordinationConfig& config);

}  // namespace silence::net
