// Saturated single-BSS DCF contention on net::NetSim: the baseline the
// coordination study's DCF arm runs (net/coordination.h).
#include <gtest/gtest.h>

#include <stdexcept>

#include "net/scenario.h"

namespace silence::net {
namespace {

// Real PHY at 20 dB measured SNR, single 512-octet MPDUs, no control
// message: plain DCF.
Scenario quick_config(int stations) {
  Scenario sc;
  Topology::Bss& bss = sc.topology.bss.front();
  bss.num_stations = stations;
  bss.snr_db_near = 20.0;
  bss.snr_db_far = 20.0;
  sc.mpdu_octets = 512;
  sc.max_mpdus_per_frame = 1;
  sc.control_bits_per_frame = 0;
  sc.duration_us = 20e3;
  return sc;
}

std::size_t frames_delivered(const NetResult& r) {
  std::size_t n = 0;
  for (const StaStats& s : r.stations) n += s.frames_delivered;
  return n;
}

TEST(Contention, SingleStationNeverCollides) {
  const NetResult result = run_scenario(quick_config(1), 1);
  EXPECT_EQ(result.collision_rounds, 0u);
  EXPECT_GT(frames_delivered(result), 0u);
  EXPECT_EQ(result.tx_rounds, result.contention_rounds);
}

TEST(Contention, CollisionsGrowWithStations) {
  const NetResult few = run_scenario(quick_config(2), 1);
  const NetResult many = run_scenario(quick_config(20), 1);
  EXPECT_GT(many.collision_rate(), few.collision_rate());
}

TEST(Contention, ThroughputDegradesUnderHeavyContention) {
  const NetResult light = run_scenario(quick_config(2), 1);
  const NetResult heavy = run_scenario(quick_config(30), 1);
  EXPECT_GT(light.aggregate_throughput_mbps(),
            heavy.aggregate_throughput_mbps());
}

TEST(Contention, AirtimeAccountingAddsUp) {
  const NetResult result = run_scenario(quick_config(5), 1);
  EXPECT_NEAR(result.airtime.total_us(), result.elapsed_us,
              result.elapsed_us * 1e-9);
  EXPECT_EQ(result.airtime.control_us, 0.0);  // plain DCF has no polls
}

TEST(Contention, PhyPathDeliversAtGoodSnr) {
  const NetResult result = run_scenario(quick_config(3), 1);
  std::size_t lost = 0;
  for (const StaStats& s : result.stations) lost += s.frames_lost;
  const std::size_t delivered = frames_delivered(result);
  EXPECT_GT(delivered, 0u);
  // At 20 dB measured SNR the PHY loses almost nothing.
  EXPECT_LE(lost, delivered / 10 + 1);
}

TEST(Contention, DeterministicForSeed) {
  const NetResult a = run_scenario(quick_config(5), 1);
  const NetResult b = run_scenario(quick_config(5), 1);
  EXPECT_EQ(a.to_json().dump_compact(), b.to_json().dump_compact());
}

TEST(Contention, RejectsZeroStations) {
  EXPECT_THROW(run_scenario(quick_config(0), 1), std::invalid_argument);
}

}  // namespace
}  // namespace silence::net
