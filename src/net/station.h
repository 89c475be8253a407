// One contending station of a net::Scenario: its own fading link to the
// AP, its own closed-loop CosSession, its own DCF backoff state and its
// own traffic source. All randomness comes from the station's private
// substreams of the scenario seed, so the scheduler never owns an RNG
// and station behaviour is independent of evaluation order.
//
// Catch-up before read: the scheduler hands every station the medium
// time that passes while others hold it (advance()), but the station
// only queues those intervals. It replays them through its fading
// process, in order, right before the channel is next read — by
// nominal_airtime_us() under rate adaptation, or by transmit(). The
// fading process draws from the station's own substream, so the replay
// makes the same draws in the same order as advancing eagerly would;
// intervals still queued when the run ends are never executed.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/backoff.h"
#include "net/scenario.h"
#include "sim/link.h"
#include "sim/session.h"

namespace silence::net {

class Station {
 public:
  // `index` is the station's global position across the scenario's BSSs
  // (0-based); it selects the seed substreams. `snr_db` is the station's
  // measured-SNR placement (Topology::station_snr_db). `phy_workspace`
  // is the PHY scratch the station's session runs in (null: the thread's
  // default). NetSim shares one across all stations, which is safe
  // because frame exchanges are processed strictly sequentially in event
  // order even when their simulated intervals overlap across BSSs.
  Station(const Scenario& scenario, int index, double snr_db,
          std::uint64_t seed, PhyWorkspace* phy_workspace = nullptr);

  // Outcome of one solo medium acquisition. The per-MPDU/control fields
  // let the scheduler narrate the exchange on the MAC timeline without
  // re-deriving them from the station's cumulative stats.
  struct TxOutcome {
    double data_airtime_us = 0.0;
    bool data_ok = false;
    std::size_t mpdus_sent = 0;
    std::size_t mpdus_delivered = 0;
    std::size_t data_bits = 0;  // payload bits delivered by this frame
    std::size_t control_bits_sent = 0;
    std::size_t control_bits_correct = 0;
  };

  // Builds this round's A-MPDU (fresh payloads + the next control
  // chunk), sends it through the CosSession and updates the station's
  // tallies and backoff. The link first catches up on the queued
  // advances; the session then advances it by the frame airtime itself.
  // `interferer`, when set, injects pulse interference (OBSS overlap or
  // a hidden terminal's blind fire) into this one exchange; the link is
  // restored to interference-free afterwards. When unset, the RNG
  // streams are untouched relative to the interference-free path.
  TxOutcome transmit(const std::optional<PulseInterferer>& interferer);
  TxOutcome transmit() { return transmit(std::nullopt); }

  // This station collided this round: tally it and double the window.
  void on_collision();

  // Scheduler-computed latency samples (whole slots), recorded into the
  // station's deterministic stats at each winning TX start.
  void record_hol_wait(std::uint64_t slots) {
    stats_.hol_wait_slots.record(slots);
  }
  void record_tx_gap(std::uint64_t slots) {
    stats_.inter_tx_gap_slots.record(slots);
  }

  // Airtime its next PPDU would occupy, at the rate the session would
  // pick right now. Collisions are charged this much medium time without
  // running the PHY. Under rate adaptation this reads the channel, so
  // it catches up first.
  double nominal_airtime_us();

  // Queues `seconds` of other-station airtime for the fading process;
  // see the catch-up contract at the top of this file.
  void advance(double seconds);

  Backoff& backoff() { return backoff_; }
  const Backoff& backoff() const { return backoff_; }
  Rng& rng() { return traffic_rng_; }
  const StaStats& stats() const { return stats_; }

 private:
  std::size_t mpdus_per_frame_;
  std::size_t mpdu_payload_octets_;
  std::size_t aggregate_octets_;  // constant: payload sizes never vary
  std::size_t control_bits_per_frame_;
  std::optional<int> fixed_rate_mbps_;
  std::uint8_t address_;
  std::uint16_t seq_ = 0;

  Rng traffic_rng_;
  Link link_;
  std::vector<double> pending_advance_s_;  // queued, not yet applied
  CosSession session_;
  Backoff backoff_;
  StaStats stats_;

  // Replays the queued advances through the link, oldest first.
  void catch_up();
};

}  // namespace silence::net
