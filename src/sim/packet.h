// The unit of transmission in the simulator.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace libra {

struct Packet {
  int flow_id = 0;
  // Explicit congestion notification (RFC 3168 wire contract, collapsed to
  // two bits): the sender stamps ecn_capable (ECT); an ECN-enabled queue sets
  // ce_marked (CE) instead of dropping. The receiver echoes CE on the ACK —
  // the ACK carries this packet back, so no separate echo field is needed.
  bool ecn_capable = false;
  bool ce_marked = false;
  std::uint64_t seq = 0;       // per-flow packet number (QUIC-style, monotonic)
  std::int64_t bytes = kDefaultPacketBytes;
  SimTime enqueue_time = 0;    // when it entered the bottleneck queue
  // The send time and rate-sampling snapshot stay with the sender, in its
  // outstanding window, so they do not travel with every copy of the packet.
};
static_assert(sizeof(Packet) == 32);

}  // namespace libra
