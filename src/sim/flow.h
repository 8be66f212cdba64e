// A flow couples a Sender with the measurement the evaluation needs: a
// compact per-flow run log (ACK times and RTTs, loss and delivery times)
// and windowed queries over it.
#pragma once

#include <memory>
#include <vector>

#include "sim/sender.h"
#include "stats/flow_log.h"

namespace libra {

/// Whole-run packet counters: a snapshot of the Sender's own counts.
struct FlowMetrics {
  std::int64_t packets_sent = 0;
  std::int64_t packets_acked = 0;
  std::int64_t packets_lost = 0;
  std::int64_t bytes_acked = 0;

  double loss_rate() const {
    return packets_sent > 0
               ? static_cast<double>(packets_lost) / static_cast<double>(packets_sent)
               : 0.0;
  }

  /// Goodput over a window (bits/s).
  static double throughput_bps(std::int64_t bytes, SimDuration window) {
    return window > 0 ? static_cast<double>(bytes) * 8.0 / to_seconds(window) : 0.0;
  }
};

class Flow {
 public:
  Flow(EventQueue& events, SenderConfig config,
       std::unique_ptr<CongestionControl> cca)
      : sender_(std::make_unique<Sender>(events, config, std::move(cca))),
        log_(config.packet_bytes) {
    sender_->set_log(&log_);
  }
  Flow(const Flow&) = delete;  // the sender holds a pointer to log_
  Flow& operator=(const Flow&) = delete;

  Sender& sender() { return *sender_; }
  const Sender& sender() const { return *sender_; }
  FlowMetrics metrics() const {
    return {sender_->packets_sent(), sender_->packets_acked(),
            sender_->packets_lost(), sender_->delivered_bytes()};
  }

  /// Every ACK (time, RTT), loss and receiver delivery of the run.
  const FlowLog& log() const { return log_; }
  /// Called by the network when one of this flow's packets reaches the
  /// receiver.
  void record_delivery(SimTime t) { log_.add_delivery(t); }

  /// Goodput over [t0, t1) in bits/s.
  double throughput_in(SimTime t0, SimTime t1) const {
    return FlowMetrics::throughput_bps(
        static_cast<std::int64_t>(log_.acked_bytes_in(t0, t1)), t1 - t0);
  }

  /// Mean RTT (ms) over acks in [t0, t1).
  double mean_rtt_in(SimTime t0, SimTime t1) const {
    return log_.mean_rtt_ms_in(t0, t1);
  }

  /// Lost / (acked + lost) packets, counted in MTU-sized packets, over
  /// [t0, t1) — the loss rate of every run summary.
  double loss_rate_in(SimTime t0, SimTime t1) const {
    double lost = log_.lost_bytes_in(t0, t1) / kDefaultPacketBytes;
    double acked = log_.acked_bytes_in(t0, t1) / kDefaultPacketBytes;
    return (lost + acked) > 0 ? lost / (lost + acked) : 0.0;
  }

  /// Goodput timeline (bits/s per `bin`) over [origin, origin + horizon).
  std::vector<double> rate_bins(SimDuration bin, SimDuration horizon,
                                SimTime origin = 0) const {
    return log_.ack_rate_bins(bin, horizon, origin);
  }

 private:
  std::unique_ptr<Sender> sender_;
  FlowLog log_;
};

/// Bytes delivered to the receivers of `flows` in [t0, t1).
inline double delivered_bytes_in(const std::vector<std::unique_ptr<Flow>>& flows,
                                 SimTime t0, SimTime t1) {
  double bytes = 0.0;
  for (const auto& f : flows) bytes += f->log().delivered_bytes_in(t0, t1);
  return bytes;
}

}  // namespace libra
