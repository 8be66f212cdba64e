// CoDel active queue management (Nichols & Jacobson, CACM 2012).
//
// The paper motivates Libra by noting CUBIC can only keep queueing delay low
// with AQM support like CoDel, "which requires changes in the network devices
// and incurs extra costs" (Sec. 2). This queue discipline implements CoDel so
// that claim can be tested: bench/ablation runs compare CUBIC-under-CoDel
// with Libra-under-droptail.
//
// Algorithm: track each packet's sojourn time; once the sojourn stays above
// `target` for an `interval`, enter dropping state and drop head packets at
// intervals shrinking with the square root of the drop count (the control
// law), until the sojourn falls below target.
#pragma once

#include <cmath>
#include <deque>
#include <functional>
#include <memory>

#include "obs/profiler.h"
#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "trace/rate_trace.h"
#include "util/rng.h"

namespace libra {

struct CodelConfig {
  std::shared_ptr<RateTrace> capacity;       // required
  std::int64_t buffer_bytes = 1'000'000;     // hard cap behind CoDel
  SimDuration propagation_delay = msec(15);
  SimDuration target = msec(5);              // acceptable standing sojourn
  SimDuration interval = msec(100);          // sliding window (~worst-case RTT)
  double stochastic_loss = 0.0;
  std::uint64_t seed = 1;
  /// RFC 8289 §4.1: when set, a control-law firing CE-marks an ECT head
  /// packet (which is then forwarded) instead of dropping it. The dropping
  /// state machine — count escalation, drop_next_ scheduling, re-entry
  /// memory — is shared verbatim between the two modes; only the action
  /// taken on a firing differs. Non-ECT packets are still dropped.
  bool ecn_mark = false;
};

class CodelQueue {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  using DropFn = std::function<void(const Packet&)>;

  CodelQueue(EventQueue& events, CodelConfig config)
      : events_(events),
        propagation_(events.add_line(&CodelQueue::deliver_from_line, this)),
        config_(std::move(config)),
        rng_(config_.seed) {
    if (!config_.capacity) throw std::invalid_argument("CodelQueue: capacity required");
  }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_drop(DropFn fn) { drop_ = std::move(fn); }
  void set_recorder(FlightRecorder* rec) { recorder_ = rec; }

  void send(Packet pkt) {
    PROF_SCOPE("aqm.enqueue");
    if (config_.stochastic_loss > 0 && rng_.chance(config_.stochastic_loss)) {
      if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq,
                                     pkt.bytes, queue_bytes_, DropReason::kWire);
      if (drop_) drop_(pkt);
      return;
    }
    if (queue_bytes_ + pkt.bytes > config_.buffer_bytes) {
      if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq,
                                     pkt.bytes, queue_bytes_, DropReason::kOverflow);
      if (drop_) drop_(pkt);
      return;
    }
    pkt.enqueue_time = events_.now();
    queue_bytes_ += pkt.bytes;
    queue_.push_back(pkt);
    if (recorder_) recorder_->enqueue(pkt.enqueue_time, pkt.flow_id, pkt.seq,
                                      pkt.bytes, queue_bytes_, queue_.size());
    if (!transmitting_) schedule_dequeue();
  }

  std::int64_t queue_bytes() const { return queue_bytes_; }
  std::size_t queue_packets() const { return queue_.size(); }
  /// Sojourn time of the current head packet (exact — CoDel timestamps every
  /// packet at enqueue); 0 when the queue is empty. Telemetry read point.
  SimDuration head_sojourn(SimTime now) const {
    return queue_.empty() ? 0 : now - queue_.front().enqueue_time;
  }
  std::int64_t codel_drops() const { return codel_drops_; }
  /// Control-law firings resolved as CE marks (ecn_mark mode only).
  std::int64_t codel_marks() const { return codel_marks_; }
  /// Current control-law count (observability for the RFC 8289 §4.2
  /// re-entry tests); 0 until the first dropping episode.
  std::int64_t codel_drop_count() const { return drop_count_; }
  bool codel_dropping() const { return dropping_; }

 private:
  void schedule_dequeue() {
    if (queue_.empty()) {
      transmitting_ = false;
      return;
    }
    transmitting_ = true;
    RateBps rate = config_.capacity->rate_at(events_.now());
    if (rate < 1000.0) {
      events_.schedule_in(msec(5), [this] { schedule_dequeue(); });
      return;
    }
    SimDuration tx = transmission_time(queue_.front().bytes, rate);
    events_.schedule_in(tx, [this] { dequeue_head(); });
  }

  /// CoDel's decision point is at *dequeue*: examine the head's sojourn time
  /// and possibly drop it (repeatedly) before forwarding the survivor.
  void dequeue_head() {
    PROF_SCOPE("aqm.dequeue");
    while (!queue_.empty()) {
      Packet pkt = queue_.front();
      queue_.pop_front();
      queue_bytes_ -= pkt.bytes;
      const bool fired = should_drop(pkt);
      if (fired && config_.ecn_mark && pkt.ecn_capable) {
        // Mark mode: the firing CE-marks the head, which is then forwarded.
        // should_drop() already advanced count/drop_next_ exactly as it
        // would for a drop, so the control-law schedule is mode-invariant.
        pkt.ce_marked = true;
        ++codel_marks_;
        if (recorder_) recorder_->ecn_mark(events_.now(), pkt.flow_id, pkt.seq,
                                           pkt.bytes, queue_bytes_);
      } else if (fired) {
        ++codel_drops_;
        if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq,
                                       pkt.bytes, queue_bytes_, DropReason::kCodel);
        if (drop_) drop_(pkt);
        continue;
      }
      if (recorder_) recorder_->deliver(events_.now(), pkt.flow_id, pkt.seq,
                                        pkt.bytes, queue_bytes_);
      if (deliver_) events_.schedule_line_in(propagation_, config_.propagation_delay, pkt);
      break;
    }
    schedule_dequeue();
  }

  static void deliver_from_line(void* self, const Packet& pkt) {
    static_cast<CodelQueue*>(self)->deliver_(pkt);
  }

  bool should_drop(const Packet& pkt) {
    const SimTime now = events_.now();
    SimDuration sojourn = now - pkt.enqueue_time;

    if (sojourn < config_.target || queue_bytes_ < 2 * kDefaultPacketBytes) {
      // Sojourn dipped below target: leave dropping state.
      first_above_ = 0;
      dropping_ = false;
      return false;
    }

    if (!dropping_) {
      if (first_above_ == 0) {
        first_above_ = now + config_.interval;
        return false;
      }
      if (now < first_above_) return false;
      // Sojourn exceeded target for a full interval: start dropping.
      dropping_ = true;
      // Control-law memory (RFC 8289 §4.2 / Appendix A): if dropping stopped
      // only recently, restart from the drop *rate added by the previous
      // dropping episode* (count - lastcount), not from the stale absolute
      // count; after a long non-dropping interval restart from 1.
      std::int64_t delta = drop_count_ - last_count_;
      drop_count_ = (delta > 1 && now - drop_next_ < 16 * config_.interval)
                        ? delta
                        : 1;
      drop_next_ = now + control_law(config_.interval, drop_count_);
      last_count_ = drop_count_;
      return true;
    }

    if (now >= drop_next_) {
      ++drop_count_;
      // Schedule from the previous deadline, not from now: late dequeues must
      // not stretch the drop cadence below what the control law demands
      // (RFC 8289 Appendix A re-runs the law on drop_next_).
      drop_next_ += control_law(config_.interval, drop_count_);
      return true;
    }
    return false;
  }

  static SimDuration control_law(SimDuration interval, std::int64_t count) {
    return static_cast<SimDuration>(
        static_cast<double>(interval) / std::sqrt(static_cast<double>(count)));
  }

  EventQueue& events_;
  EventQueue::LineId propagation_;  // forwarded packets, to deliver_
  CodelConfig config_;
  Rng rng_;
  std::deque<Packet> queue_;
  std::int64_t queue_bytes_ = 0;
  bool transmitting_ = false;
  DeliverFn deliver_;
  DropFn drop_;
  FlightRecorder* recorder_ = nullptr;

  // CoDel state.
  bool dropping_ = false;
  SimTime first_above_ = 0;
  SimTime drop_next_ = 0;
  std::int64_t drop_count_ = 0;
  std::int64_t last_count_ = 0;  // count at the last dropping-state entry
  std::int64_t codel_drops_ = 0;
  std::int64_t codel_marks_ = 0;
};

}  // namespace libra
