// Append-only per-flow run log: the compact record a finished run is read
// back from (throughput, mean RTT and loss over a window, and throughput
// over time in fixed bins — Figs. 2a, 8, 15, 18 and every summary).
//
// Record format, per event:
//   - ACK:      (time, rtt) in integer microseconds, 16 B. The acked bytes
//               are not stored: every packet of a flow is `packet_bytes` long.
//   - loss:     the detection time, 8 B.
//   - delivery: the arrival time at the receiver, 8 B.
// Each stream is a chunked array, so appending never moves a record and
// the slack is at most one partly filled chunk per stream.
//
// Times must be appended in nondecreasing order (they come from the event
// loop's clock), so each window [t0, t1) is a contiguous index range found
// by binary search. Byte totals are `packet_bytes × count`, an exact integer
// in a double; the RTT mean sums to_msec(rtt) in append order. The queries
// therefore return bit-for-bit what a per-packet (time, value) series fed
// the same events returns (tests/property_test.cc checks this against
// TimeSeries).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.h"

namespace libra {

struct AckRecord {
  SimTime time;
  SimDuration rtt;
};

inline SimTime time_of(const AckRecord& r) { return r.time; }
inline SimTime time_of(SimTime t) { return t; }

/// Append-only array stored in fixed-size chunks. `Rec` exposes its
/// timestamp through time_of().
template <class Rec>
class ChunkedLog {
  // Trivial records are left uninitialised in a new chunk, so the pages a
  // run never reaches stay untouched.
  static_assert(std::is_trivial_v<Rec>);

 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kChunkRecords = kChunkBytes / sizeof(Rec);

  void push_back(const Rec& rec) {
    if (size_ == chunks_.size() * kChunkRecords) add_chunk();
    chunks_.back()[size_ % kChunkRecords] = rec;
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Rec& operator[](std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  const Rec& back() const { return (*this)[size_ - 1]; }

  /// Heap allocations made so far: one per chunk, plus each regrowth of the
  /// chunk index.
  std::size_t allocations() const { return chunks_.size() + index_growths_; }

  /// First index whose time is >= t (size() if none).
  std::size_t lower_bound(SimTime t) const {
    std::size_t lo = 0, hi = size_;
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (time_of((*this)[mid]) < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Index range [first, last) of the records with time in [t0, t1); empty
  /// (first == last) for an empty or inverted window.
  std::pair<std::size_t, std::size_t> range(SimTime t0, SimTime t1) const {
    if (t1 <= t0) return {0, 0};
    return {lower_bound(t0), lower_bound(t1)};
  }

 private:
  void add_chunk() {
    if (chunks_.size() == chunks_.capacity()) {
      chunks_.reserve(chunks_.empty() ? 8 : 2 * chunks_.size());
      ++index_growths_;
    }
    chunks_.push_back(std::make_unique_for_overwrite<Rec[]>(kChunkRecords));
  }

  std::vector<std::unique_ptr<Rec[]>> chunks_;
  std::size_t size_ = 0;
  std::size_t index_growths_ = 0;
};

class FlowLog {
 public:
  explicit FlowLog(std::int64_t packet_bytes) : packet_bytes_(packet_bytes) {
    if (packet_bytes <= 0) throw std::invalid_argument("FlowLog: bad packet size");
  }

  void add_ack(SimTime t, SimDuration rtt) {
    check_order(acks_, t);
    acks_.push_back({t, rtt});
  }
  void add_loss(SimTime t) {
    check_order(losses_, t);
    losses_.push_back(t);
  }
  void add_delivery(SimTime t) {
    check_order(deliveries_, t);
    deliveries_.push_back(t);
  }

  std::int64_t packet_bytes() const { return packet_bytes_; }
  const ChunkedLog<AckRecord>& acks() const { return acks_; }
  const ChunkedLog<SimTime>& losses() const { return losses_; }
  const ChunkedLog<SimTime>& deliveries() const { return deliveries_; }

  /// Bytes acked / declared lost / delivered to the receiver in [t0, t1).
  double acked_bytes_in(SimTime t0, SimTime t1) const { return bytes_in(acks_, t0, t1); }
  double lost_bytes_in(SimTime t0, SimTime t1) const { return bytes_in(losses_, t0, t1); }
  double delivered_bytes_in(SimTime t0, SimTime t1) const {
    return bytes_in(deliveries_, t0, t1);
  }

  /// Mean RTT (ms) over ACKs in [t0, t1); 0 if there are none.
  double mean_rtt_ms_in(SimTime t0, SimTime t1) const {
    auto [first, last] = acks_.range(t0, t1);
    double s = 0.0;
    for (std::size_t i = first; i < last; ++i) s += to_msec(acks_[i].rtt);
    return last > first ? s / static_cast<double>(last - first) : 0.0;
  }

  /// Goodput in bits/s per `bin` over [origin, origin + horizon): bin k
  /// covers ACKs in [origin + k·bin, origin + (k+1)·bin).
  std::vector<double> ack_rate_bins(SimDuration bin, SimDuration horizon,
                                    SimTime origin = 0) const {
    if (bin <= 0 || horizon <= 0) throw std::invalid_argument("ack_rate_bins: bad args");
    std::vector<double> bits(static_cast<std::size_t>((horizon + bin - 1) / bin), 0.0);
    auto [first, last] = acks_.range(origin, origin + horizon);
    for (std::size_t i = first; i < last; ++i)
      bits[static_cast<std::size_t>((acks_[i].time - origin) / bin)] += 1.0;
    const double packet_bits = static_cast<double>(packet_bytes_) * 8.0;
    for (double& b : bits) b = b * packet_bits / to_seconds(bin);
    return bits;
  }

 private:
  template <class Rec>
  static void check_order(const ChunkedLog<Rec>& log, SimTime t) {
    if (!log.empty() && t < time_of(log.back()))
      throw std::logic_error("FlowLog: time went backwards");
  }

  template <class Rec>
  double bytes_in(const ChunkedLog<Rec>& log, SimTime t0, SimTime t1) const {
    auto [first, last] = log.range(t0, t1);
    return static_cast<double>(packet_bytes_) * static_cast<double>(last - first);
  }

  std::int64_t packet_bytes_;
  ChunkedLog<AckRecord> acks_;
  ChunkedLog<SimTime> losses_;
  ChunkedLog<SimTime> deliveries_;
};

}  // namespace libra
