// Append-only per-flow run log: the compact record a finished run is read
// back from (throughput, mean RTT and loss over a window, and throughput
// over time in fixed bins — Figs. 2a, 8, 15, 18 and every summary).
//
// Each stream is a list of 64 KiB chunks of 32-bit words. A chunk stores the
// time of its first record as its base; a record stores its time as an
// offset from that base, in integer microseconds:
//   - ACK:      (time offset, rtt), 8 B. The acked bytes are not stored:
//               every packet of a flow is `packet_bytes` long.
//   - loss:     the detection time offset, 4 B.
//   - delivery: the arrival time offset at the receiver, 4 B.
// Within a chunk each field is its own array (all time offsets, then all
// RTTs), so a window's binary search reads only offsets. A record whose
// offset would not fit in 32 bits (gaps of 2^32 µs ≈ 71.6 min) starts a new
// chunk early, so a chunk may end partly full; an RTT that does not fit
// throws std::out_of_range rather than being clamped. Appending never moves
// a record, and the slack is one partly filled chunk per stream plus any
// closed early.
//
// Times must be appended in nondecreasing order (they come from the event
// loop's clock), so each window [t0, t1) is a contiguous record range found
// by binary search, first over the chunk bases and then within one chunk.
// Every record reads back the exact integers appended, so byte totals
// (`packet_bytes × count`, an exact integer in a double), the RTT mean
// (to_msec(rtt) summed in append order) and the rate bins are bit-for-bit
// what a per-packet (time, value) series fed the same events returns
// (tests/property_test.cc checks this against TimeSeries).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.h"

namespace libra {

/// Append-only stream of time-stamped records of `kFields` 32-bit words:
/// the time offset, then (for two-field streams) one value.
template <int kFields>
class PackedLog {
  static_assert(kFields == 1 || kFields == 2);

 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kChunkRecords =
      kChunkBytes / (kFields * sizeof(std::uint32_t));

  /// Appends a record; throws std::logic_error if `t` precedes the last
  /// appended time.
  void push_back(SimTime t, std::uint32_t value = 0) {
    if (t < last_) throw std::logic_error("FlowLog: time went backwards");
    // Unsigned arithmetic: t >= base_, so the difference is exact.
    std::uint64_t offset = static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(base_);
    if (next_ == end_ || offset > kMaxOffset) {
      add_chunk(t);
      offset = 0;
    }
    next_[0] = static_cast<std::uint32_t>(offset);
    if constexpr (kFields == 2) next_[kChunkRecords] = value;
    ++next_;
    last_ = t;
  }

  std::size_t size() const {
    return chunks_.empty() ? 0
                           : chunks_.back().first +
                                 static_cast<std::size_t>(next_ - chunks_.back().data.get());
  }
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Heap allocations made so far: one per chunk, plus each regrowth of the
  /// chunk index.
  std::size_t allocations() const { return chunks_.size() + index_growths_; }

  /// Number of records with time in [t0, t1); 0 for an inverted window.
  std::size_t count_in(SimTime t0, SimTime t1) const {
    if (t1 <= t0) return 0;
    return index_of(seek(t1)) - index_of(seek(t0));
  }

  /// Calls f(time, value) for each record with time in [t0, t1), in append
  /// order.
  template <class F>
  void for_each_in(SimTime t0, SimTime t1, F&& f) const {
    static_assert(kFields == 2, "one-field streams have no value to visit");
    if (t1 <= t0) return;
    const Pos from = seek(t0), to = seek(t1);
    for (std::size_t c = from.chunk; c < chunks_.size() && c <= to.chunk; ++c) {
      const Chunk& ch = chunks_[c];
      const std::uint32_t* offsets = ch.data.get();
      const std::uint32_t* values = offsets + kChunkRecords;
      const std::size_t stop = c == to.chunk ? to.slot : records_in(c);
      for (std::size_t j = c == from.chunk ? from.slot : 0; j < stop; ++j)
        f(ch.base + static_cast<SimTime>(offsets[j]), values[j]);
    }
  }

 private:
  static constexpr std::uint64_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

  struct Chunk {
    std::unique_ptr<std::uint32_t[]> data;  // kChunkRecords offsets, then values
    SimTime base;       // time of the chunk's first record
    std::size_t first;  // index of that record in the stream
  };
  // A record position; slot may equal the chunk's record count (one past
  // its last record).
  struct Pos {
    std::size_t chunk, slot;
  };

  std::size_t records_in(std::size_t c) const {
    return (c + 1 < chunks_.size() ? chunks_[c + 1].first : size()) - chunks_[c].first;
  }
  std::size_t index_of(Pos p) const {
    return chunks_.empty() ? 0 : chunks_[p.chunk].first + p.slot;
  }

  /// Position of the first record whose time is >= t. Every record of a
  /// chunk is >= its base, so the answer lies in the last chunk whose base
  /// is < t (or at its end, which is where the next chunk starts).
  Pos seek(SimTime t) const {
    auto it = std::partition_point(chunks_.begin(), chunks_.end(),
                                   [t](const Chunk& ch) { return ch.base < t; });
    if (it == chunks_.begin()) return {0, 0};
    const auto c = static_cast<std::size_t>(it - chunks_.begin()) - 1;
    const std::size_t n = records_in(c);
    const std::uint64_t d =
        static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(chunks_[c].base);
    if (d > kMaxOffset) return {c, n};
    const std::uint32_t* offsets = chunks_[c].data.get();
    return {c, static_cast<std::size_t>(
                   std::lower_bound(offsets, offsets + n, static_cast<std::uint32_t>(d)) -
                   offsets)};
  }

  void add_chunk(SimTime base) {
    const std::size_t first = size();
    if (chunks_.size() == chunks_.capacity()) {
      chunks_.reserve(chunks_.empty() ? 8 : 2 * chunks_.size());
      ++index_growths_;
    }
    // Left uninitialised, so the pages a run never reaches stay untouched.
    chunks_.push_back(
        {std::make_unique_for_overwrite<std::uint32_t[]>(kFields * kChunkRecords), base, first});
    next_ = chunks_.back().data.get();
    end_ = next_ + kChunkRecords;
    base_ = base;
  }

  std::vector<Chunk> chunks_;
  // The append path's cache of the current chunk.
  SimTime base_ = 0;
  std::uint32_t* next_ = nullptr;
  std::uint32_t* end_ = nullptr;
  SimTime last_ = std::numeric_limits<SimTime>::min();
  std::size_t index_growths_ = 0;
};

class FlowLog {
 public:
  explicit FlowLog(std::int64_t packet_bytes) : packet_bytes_(packet_bytes) {
    if (packet_bytes <= 0) throw std::invalid_argument("FlowLog: bad packet size");
  }

  /// Throws std::out_of_range if `rtt` is negative or beyond the 32-bit µs
  /// field (about 71.6 min).
  void add_ack(SimTime t, SimDuration rtt) {
    if (rtt < 0 || static_cast<std::uint64_t>(rtt) > std::numeric_limits<std::uint32_t>::max())
      throw std::out_of_range("FlowLog: RTT " + std::to_string(rtt) +
                              " us does not fit the 32-bit microsecond field");
    acks_.push_back(t, static_cast<std::uint32_t>(rtt));
  }
  void add_loss(SimTime t) { losses_.push_back(t); }
  void add_delivery(SimTime t) { deliveries_.push_back(t); }

  std::int64_t packet_bytes() const { return packet_bytes_; }
  const PackedLog<2>& acks() const { return acks_; }
  const PackedLog<1>& losses() const { return losses_; }
  const PackedLog<1>& deliveries() const { return deliveries_; }

  /// Bytes acked / declared lost / delivered to the receiver in [t0, t1).
  double acked_bytes_in(SimTime t0, SimTime t1) const { return bytes(acks_.count_in(t0, t1)); }
  double lost_bytes_in(SimTime t0, SimTime t1) const { return bytes(losses_.count_in(t0, t1)); }
  double delivered_bytes_in(SimTime t0, SimTime t1) const {
    return bytes(deliveries_.count_in(t0, t1));
  }

  /// Mean RTT (ms) over ACKs in [t0, t1); 0 if there are none.
  double mean_rtt_ms_in(SimTime t0, SimTime t1) const {
    double s = 0.0;
    std::size_t n = 0;
    acks_.for_each_in(t0, t1, [&](SimTime, std::uint32_t rtt) {
      s += to_msec(static_cast<SimDuration>(rtt));
      ++n;
    });
    return n > 0 ? s / static_cast<double>(n) : 0.0;
  }

  /// Goodput in bits/s per `bin` over [origin, origin + horizon): bin k
  /// covers ACKs in [origin + k·bin, origin + (k+1)·bin).
  std::vector<double> ack_rate_bins(SimDuration bin, SimDuration horizon,
                                    SimTime origin = 0) const {
    if (bin <= 0 || horizon <= 0) throw std::invalid_argument("ack_rate_bins: bad args");
    std::vector<double> bits(static_cast<std::size_t>((horizon + bin - 1) / bin), 0.0);
    acks_.for_each_in(origin, origin + horizon, [&](SimTime t, std::uint32_t) {
      bits[static_cast<std::size_t>((t - origin) / bin)] += 1.0;
    });
    const double packet_bits = static_cast<double>(packet_bytes_) * 8.0;
    for (double& b : bits) b = b * packet_bits / to_seconds(bin);
    return bits;
  }

 private:
  double bytes(std::size_t count) const {
    return static_cast<double>(packet_bytes_) * static_cast<double>(count);
  }

  std::int64_t packet_bytes_;
  PackedLog<2> acks_;
  PackedLog<1> losses_;
  PackedLog<1> deliveries_;
};

}  // namespace libra
