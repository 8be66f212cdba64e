#include "sim/link.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.h"

namespace libra {

namespace {
// When the trace momentarily reports (near-)zero capacity, poll again instead
// of computing an infinite serialization time.
constexpr RateBps kMinServiceRate = 1000.0;  // 1 kbps
constexpr SimDuration kStallRetry = msec(5);
}  // namespace

DropTailLink::DropTailLink(EventQueue& events, LinkConfig config)
    : events_(events),
      propagation_(events.add_line(&DropTailLink::deliver_from_line, this)),
      config_(std::move(config)),
      rng_(config_.seed) {
  if (!config_.capacity) throw std::invalid_argument("DropTailLink: capacity trace required");
  if (config_.buffer_bytes <= 0) throw std::invalid_argument("DropTailLink: buffer must be > 0");
}

bool DropTailLink::policer_admits(Packet& pkt) {
  const SimTime now = events_.now();
  if (config_.policer_rate <= 0 || now < config_.policer_start ||
      now >= config_.policer_stop)
    return true;
  // Lazy refill: the bucket starts full the first time the active window is
  // exercised and accrues rate * elapsed between arrivals, capped at burst.
  const double burst = static_cast<double>(config_.policer_burst_bytes);
  if (policer_refill_ < 0) {
    policer_tokens_ = burst;
  } else {
    policer_tokens_ = std::min(
        burst, policer_tokens_ + config_.policer_rate / 8.0 *
                                     to_seconds(now - policer_refill_));
  }
  policer_refill_ = now;
  if (static_cast<double>(pkt.bytes) <= policer_tokens_) {
    policer_tokens_ -= static_cast<double>(pkt.bytes);
    return true;
  }
  // Non-conforming: mark-if-able when configured, else drop. Marked packets
  // proceed to the queue (they still consume link capacity, like a policer
  // deployed in ECN-marking mode); tokens are not consumed either way.
  if (config_.policer_marks && pkt.ecn_capable) {
    pkt.ce_marked = true;
    ++policer_marks_;
    if (recorder_) recorder_->policer(now, pkt.flow_id, pkt.seq, pkt.bytes,
                                      policer_tokens_, /*marked=*/true);
    return true;
  }
  ++drops_policer_;
  if (recorder_) {
    recorder_->policer(now, pkt.flow_id, pkt.seq, pkt.bytes, policer_tokens_,
                       /*marked=*/false);
    recorder_->drop(now, pkt.flow_id, pkt.seq, pkt.bytes, queue_bytes_,
                    DropReason::kPolicer);
  }
  if (drop_) drop_(pkt);
  return false;
}

void DropTailLink::send(Packet pkt) {
  PROF_SCOPE("link.enqueue");
  if (!policer_admits(pkt)) return;
  // Stochastic wire loss models random (non-congestive) drops; it happens
  // before queueing, exactly like Mahimahi's --uplink-loss.
  if (config_.stochastic_loss > 0 && rng_.chance(config_.stochastic_loss)) {
    ++drops_wire_;
    if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                   queue_bytes_, DropReason::kWire);
    if (drop_) drop_(pkt);
    return;
  }
  if (queue_bytes_ + pkt.bytes > config_.buffer_bytes) {
    ++drops_overflow_;
    if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                   queue_bytes_, DropReason::kOverflow);
    if (drop_) drop_(pkt);
    return;
  }
  // DCTCP-style step marking: an ECT packet arriving to a standing queue of
  // at least K bytes is CE-marked on admission (instantaneous occupancy, per
  // the DCTCP paper's switch model).
  if (config_.ecn_threshold_bytes > 0 && pkt.ecn_capable && !pkt.ce_marked &&
      queue_bytes_ >= config_.ecn_threshold_bytes) {
    pkt.ce_marked = true;
    ++ecn_marks_;
    if (recorder_) recorder_->ecn_mark(events_.now(), pkt.flow_id, pkt.seq,
                                       pkt.bytes, queue_bytes_);
  }
  pkt.enqueue_time = events_.now();
  queue_bytes_ += pkt.bytes;
  if (queue_bytes_ > max_queue_bytes_) max_queue_bytes_ = queue_bytes_;
  queue_.push_back(pkt);
  if (recorder_) recorder_->enqueue(pkt.enqueue_time, pkt.flow_id, pkt.seq,
                                    pkt.bytes, queue_bytes_, queue_.size());
  if (!transmitting_) schedule_dequeue();
}

void DropTailLink::schedule_dequeue() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  RateBps rate = config_.capacity->rate_at(events_.now());
  if (rate < kMinServiceRate) {
    // Capacity outage: re-check shortly; the head packet stays queued.
    events_.schedule_in(kStallRetry, [this] { schedule_dequeue(); });
    return;
  }
  SimDuration tx = transmission_time(queue_.front().bytes, rate);
  events_.schedule_in(tx, [this] { dequeue_head(); });
}

void DropTailLink::dequeue_head() {
  Packet pkt = queue_.front();
  queue_.pop_front();
  queue_bytes_ -= pkt.bytes;
  delivered_bytes_ += pkt.bytes;
  if (recorder_) recorder_->deliver(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                    queue_bytes_);
  // Propagation happens after serialization; delivery of this packet and the
  // start of the next transmission are independent events.
  if (deliver_) events_.schedule_line_in(propagation_, config_.propagation_delay, pkt);
  schedule_dequeue();
}

}  // namespace libra
