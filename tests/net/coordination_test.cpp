#include "net/coordination.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace silence::net {
namespace {

CoordinationConfig quick(CoordinationMode mode) {
  CoordinationConfig config;
  config.mode = mode;
  config.num_stations = 4;
  config.duration_us = 60e3;
  config.measured_snr_db = 18.0;
  return config;
}

TEST(Coordination, CosGrantsEliminateControlAirtime) {
  const CoordinationResult poll =
      run_coordination(quick(CoordinationMode::kExplicitPoll));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(poll.airtime.control_us, 0.0);
  EXPECT_EQ(cos.airtime.control_us, 0.0);
  EXPECT_GT(poll.control_overhead(), 0.0);
  EXPECT_EQ(cos.control_overhead(), 0.0);
}

TEST(Coordination, CosThroughputAtLeastMatchesPolling) {
  const CoordinationResult poll =
      run_coordination(quick(CoordinationMode::kExplicitPoll));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  // CoS spends no airtime on grants; unless too many grants are lost,
  // total throughput must be at least polling's.
  EXPECT_GE(cos.total_throughput_mbps(), poll.total_throughput_mbps() * 0.97);
}

TEST(Coordination, CoordinatedModesBeatContention) {
  const CoordinationResult dcf =
      run_coordination(quick(CoordinationMode::kDcfContention));
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(cos.total_throughput_mbps(), dcf.total_throughput_mbps() * 0.9);
}

TEST(Coordination, GrantAccounting) {
  const CoordinationResult cos =
      run_coordination(quick(CoordinationMode::kCosGrant));
  EXPECT_GT(cos.grants_issued, 0u);
  EXPECT_LE(cos.grants_lost, cos.grants_issued);
  // Most grants arrive (per-message accuracy of short CoS messages).
  EXPECT_LE(cos.grants_lost * 4, cos.grants_issued);
}

TEST(Coordination, UplinkFlowsOnlyThroughGrants) {
  CoordinationConfig config = quick(CoordinationMode::kCosGrant);
  const CoordinationResult result = run_coordination(config);
  const std::size_t delivered_grants =
      result.grants_issued - result.grants_lost;
  // Uplink bits cannot exceed one uplink frame per delivered grant.
  EXPECT_LE(result.uplink_bits,
            delivered_grants * 8 * config.uplink_octets);
}

// The DCF arm is exactly one run_scenario call: a saturated BSS of N+1
// stations (station 0 the AP) at the measured SNR, single
// downlink_octets MPDUs, no control message.
TEST(Coordination, DcfArmIsTheNetSimRun) {
  const CoordinationConfig config = quick(CoordinationMode::kDcfContention);
  const CoordinationResult arm = run_coordination(config);

  Scenario sc;
  Topology::Bss& bss = sc.topology.bss.front();
  bss.num_stations = config.num_stations + 1;
  bss.snr_db_near = config.measured_snr_db;
  bss.snr_db_far = config.measured_snr_db;
  sc.mpdu_octets = config.downlink_octets;
  sc.max_mpdus_per_frame = 1;
  sc.control_bits_per_frame = 0;
  sc.duration_us = config.duration_us;
  const NetResult direct = run_scenario(sc, config.seed);

  EXPECT_EQ(arm.airtime.data_us, direct.airtime.data_us);
  EXPECT_EQ(arm.airtime.ack_us, direct.airtime.ack_us);
  EXPECT_EQ(arm.airtime.control_us, direct.airtime.control_us);
  EXPECT_EQ(arm.airtime.idle_us, direct.airtime.idle_us);
  EXPECT_EQ(arm.airtime.collision_us, direct.airtime.collision_us);
  EXPECT_EQ(arm.elapsed_us, direct.elapsed_us);
  std::size_t uplink_bits = 0;
  for (std::size_t i = 1; i < direct.stations.size(); ++i) {
    uplink_bits += direct.stations[i].data_bits;
  }
  EXPECT_EQ(arm.downlink_bits, direct.stations.front().data_bits);
  EXPECT_EQ(arm.uplink_bits, uplink_bits);
  EXPECT_GT(arm.downlink_bits, 0u);
  EXPECT_EQ(arm.grants_issued, 0u);
}

TEST(Coordination, RejectsBadConfig) {
  CoordinationConfig config = quick(CoordinationMode::kCosGrant);
  config.num_stations = 0;
  EXPECT_THROW(run_coordination(config), std::invalid_argument);
}

}  // namespace
}  // namespace silence::net
