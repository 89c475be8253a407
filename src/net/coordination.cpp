#include "net/coordination.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/cos_link.h"
#include "mac/frame.h"
#include "mac/timing.h"
#include "phy/receiver.h"
#include "sim/session.h"

namespace silence::net {
namespace {

// The grant message the AP embeds (or polls with): 4-bit station id plus
// 8-bit backlog hint, padded to whole k=4 intervals.
Bits encode_grant(int station_id, int backlog) {
  Bits bits = uint_to_bits(static_cast<std::uint64_t>(station_id), 4);
  const Bits extra = uint_to_bits(
      static_cast<std::uint64_t>(std::min(backlog, 255)), 8);
  bits.insert(bits.end(), extra.begin(), extra.end());
  return bits;
}

std::optional<int> decode_grant(const Bits& bits, int num_stations) {
  if (bits.size() < 12) return std::nullopt;
  const int id = static_cast<int>(bits_to_uint(std::span(bits).first(4)));
  if (id < 0 || id >= num_stations) return std::nullopt;
  return id;
}

struct StationState {
  std::unique_ptr<Link> downlink;   // AP -> station (CoS rides here)
  std::unique_ptr<Link> uplink;     // station -> AP
  std::unique_ptr<CosSession> cos;  // AP's CoS sender toward this station
};

// The MCS a plain frame goes out at: the one the link's current measured
// SNR selects, the same rule CosSession and NetSim's stations apply.
const Mcs& mcs_now(const Link& link) {
  return select_mcs_by_snr(link.measured_snr_db());
}

// A serialized data frame with a fresh random payload.
Bytes data_psdu(std::uint8_t src, std::uint8_t dst, std::size_t octets,
                Rng& rng) {
  MacFrame frame;
  frame.type = FrameType::kData;
  frame.src = src;
  frame.dst = dst;
  frame.payload = rng.bytes(octets);
  return serialize_frame(frame);
}

// Sends a plain (no-CoS) frame over `link`; true when it decodes.
bool send_plain(Link& link, const Bytes& psdu, const Mcs& mcs) {
  return receive_packet(link.send(frame_to_samples(build_frame(psdu, mcs))))
      .ok;
}

CoordinationResult run_dcf(const CoordinationConfig& config) {
  Scenario scenario;
  Topology::Bss& bss = scenario.topology.bss.front();
  bss.num_stations = config.num_stations + 1;  // station 0 is the AP
  bss.snr_db_near = config.measured_snr_db;
  bss.snr_db_far = config.measured_snr_db;
  scenario.mpdu_octets = config.downlink_octets;
  scenario.max_mpdus_per_frame = 1;
  scenario.control_bits_per_frame = 0;  // plain DCF carries no control
  scenario.duration_us = config.duration_us;
  const NetResult dcf = run_scenario(scenario, config.seed);

  CoordinationResult result;
  result.airtime = dcf.airtime;
  result.elapsed_us = dcf.elapsed_us;
  result.downlink_bits = dcf.stations.front().data_bits;
  for (std::size_t i = 1; i < dcf.stations.size(); ++i) {
    result.uplink_bits += dcf.stations[i].data_bits;
  }
  return result;
}

}  // namespace

CoordinationResult run_coordination(const CoordinationConfig& config) {
  if (config.num_stations < 1) {
    throw std::invalid_argument("run_coordination: need >= 1 station");
  }
  if (config.mode == CoordinationMode::kDcfContention) return run_dcf(config);

  Rng rng(config.seed);
  std::vector<StationState> stations(
      static_cast<std::size_t>(config.num_stations));
  for (std::size_t i = 0; i < stations.size(); ++i) {
    LinkConfig down;
    down.snr_db = config.measured_snr_db;
    down.snr_is_measured = true;
    down.channel_seed = config.seed * 211 + i;
    down.noise_seed = config.seed * 223 + i;
    stations[i].downlink = std::make_unique<Link>(down);
    LinkConfig up = down;
    up.channel_seed = config.seed * 227 + i;  // independent uplink fading
    up.noise_seed = config.seed * 229 + i;
    stations[i].uplink = std::make_unique<Link>(up);
    SessionConfig session_config;
    stations[i].cos = std::make_unique<CosSession>(*stations[i].downlink,
                                                   session_config);
  }

  CoordinationResult result;
  double now_us = 0.0;
  int round_robin = 0;

  while (now_us < config.duration_us) {
    const double round_start_us = now_us;
    const int grantee = round_robin;
    round_robin = (round_robin + 1) % config.num_stations;
    StationState& station =
        stations[static_cast<std::size_t>(grantee)];
    const auto sta_addr = static_cast<std::uint8_t>(grantee + 1);

    // --- downlink data frame (carries the CoS grant in kCosGrant) ---
    now_us += kDifsUs;
    result.airtime.idle_us += kDifsUs;

    bool downlink_ok = false;
    bool grant_delivered = false;
    double down_us = 0.0;
    ++result.grants_issued;

    const Bytes down_psdu =
        data_psdu(0, sta_addr, config.downlink_octets, rng);
    if (config.mode == CoordinationMode::kCosGrant) {
      const Bits grant = encode_grant(grantee, config.num_stations);
      const PacketReport report = station.cos->send_packet(down_psdu, grant);
      down_us = psdu_airtime_us(down_psdu.size(), *report.mcs);
      downlink_ok = report.data_ok;
      grant_delivered =
          report.data_ok && report.control_ok && report.control_bits_sent >= 12 &&
          decode_grant(report.rx.control_bits, config.num_stations) == grantee;
    } else {
      const Mcs& mcs = mcs_now(*station.downlink);
      down_us = psdu_airtime_us(down_psdu.size(), mcs);
      downlink_ok = send_plain(*station.downlink, down_psdu, mcs);
    }
    now_us += down_us + kSifsUs + ack_airtime_us();
    result.airtime.data_us += down_us;
    result.airtime.ack_us += ack_airtime_us();
    result.airtime.idle_us += kSifsUs;
    if (downlink_ok) result.downlink_bits += 8 * config.downlink_octets;

    // --- coordination step ---
    if (config.mode == CoordinationMode::kExplicitPoll) {
      // An explicit poll frame buys the grant with airtime.
      now_us += kSifsUs + poll_airtime_us();
      result.airtime.idle_us += kSifsUs;
      result.airtime.control_us += poll_airtime_us();
      grant_delivered = downlink_ok;  // poll assumed robust (basic rate)
    }

    // --- granted uplink ---
    if (grant_delivered) {
      const Bytes up_psdu = data_psdu(sta_addr, 0, config.uplink_octets, rng);
      const Mcs& mcs = mcs_now(*station.uplink);
      const double up_us = psdu_airtime_us(up_psdu.size(), mcs);
      const bool uplink_ok = send_plain(*station.uplink, up_psdu, mcs);
      now_us += kSifsUs + up_us + kSifsUs + ack_airtime_us();
      result.airtime.idle_us += 2.0 * kSifsUs;
      result.airtime.data_us += up_us;
      result.airtime.ack_us += ack_airtime_us();
      if (uplink_ok) result.uplink_bits += 8 * config.uplink_octets;
    } else {
      ++result.grants_lost;
    }

    // Every station's fading moves with the medium, as NetSim's members'
    // does: each link is handed the round's whole medium time, less the
    // downlink frame a CoS session already advanced its own link by.
    const double round_us = now_us - round_start_us;
    for (StationState& s : stations) {
      const bool carried =
          &s == &station && config.mode == CoordinationMode::kCosGrant;
      s.downlink->advance(1e-6 * (carried ? round_us - down_us : round_us));
      s.uplink->advance(1e-6 * round_us);
    }
  }

  result.elapsed_us = now_us;
  return result;
}

}  // namespace silence::net
