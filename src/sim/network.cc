#include "sim/network.h"

#include <chrono>
#include <stdexcept>

#include "obs/profiler.h"

namespace libra {

Network::Network(LinkConfig link_config) {
  link_ = std::make_unique<DropTailLink>(events_, std::move(link_config));
  link_->set_recorder(&recorder_);
  link_->set_deliver([this](const Packet& pkt) {
    deliveries_.add(events_.now(), static_cast<double>(pkt.bytes));
    auto idx = static_cast<std::size_t>(pkt.flow_id);
    if (idx >= flows_.size()) return;
    // Receiver immediately acks; the ACK crosses the (uncongested) return
    // path and reaches the sender after this flow's ack delay.
    const AckPath& ack = ack_paths_[idx];
    events_.schedule_line_in(ack.line, ack.delay, pkt);
  });
  // Drops are silent at the sender until loss detection notices the gap,
  // exactly as on a real path.
}

int Network::add_flow(std::unique_ptr<CongestionControl> cca, SimTime start_time,
                      SimTime stop_time, SimDuration extra_ack_delay,
                      SenderConfig base_config) {
  if (started_) throw std::logic_error("Network: add_flow after run started");
  int id = static_cast<int>(flows_.size());
  SenderConfig cfg = base_config;
  cfg.flow_id = id;
  cfg.start_time = start_time;
  cfg.stop_time = stop_time;
  auto flow = std::make_unique<Flow>(events_, cfg, std::move(cca));
  flow->sender().set_transmit([this](Packet pkt) { link_->send(std::move(pkt)); });
  flow->sender().set_recorder(&recorder_);
  flow->sender().set_telemetry(&telemetry_);
  ack_paths_.push_back(
      AckPath{link_->config().propagation_delay + extra_ack_delay,
              events_.add_line(&Sender::ack_from_line, &flow->sender())});
  flows_.push_back(std::move(flow));
  return id;
}

void Network::finalize_metrics() {
  if (metrics_finalized_) return;
  metrics_finalized_ = true;
  metrics_.counter("sim.events_processed")
      .inc(static_cast<std::int64_t>(events_.processed()));
  metrics_.gauge("sim.event_queue_max_pending")
      .set(static_cast<double>(events_.max_pending()));
  metrics_.counter("link.drops_overflow").inc(link_->drops_overflow());
  metrics_.counter("link.drops_wire").inc(link_->drops_wire());
  metrics_.counter("link.delivered_bytes").inc(link_->delivered_bytes());
  metrics_.gauge("link.max_queue_bytes")
      .set(static_cast<double>(link_->max_queue_bytes()));
  for (const auto& f : flows_) {
    const Sender& s = f->sender();
    metrics_.counter("flows").inc();
    metrics_.counter("flow.packets_sent").inc(s.packets_sent());
    metrics_.counter("flow.packets_acked").inc(s.packets_acked());
    metrics_.counter("flow.packets_lost").inc(s.packets_lost());
    if (s.smoothed_rtt() > 0)
      metrics_.gauge("flow.srtt_ms").set(to_msec(s.smoothed_rtt()));
    if (s.min_rtt() > 0)
      metrics_.gauge("flow.min_rtt_ms").set(to_msec(s.min_rtt()));
  }
  metrics_.counter("trace.recorded")
      .inc(static_cast<std::int64_t>(recorder_.recorded()));
  metrics_.counter("trace.overwritten")
      .inc(static_cast<std::int64_t>(recorder_.overwritten()));
  if (telemetry_.enabled()) {
    metrics_.counter("telemetry.samples")
        .inc(static_cast<std::int64_t>(telemetry_.samples()));
    metrics_.counter("telemetry.stage_events")
        .inc(static_cast<std::int64_t>(telemetry_.stage_events().size()));
    metrics_.gauge("telemetry.bucket_width_ms")
        .set(to_msec(telemetry_.bucket_width()));
  }
}

// One sampling event covers every flow plus the bottleneck queue, so the
// event-queue cost of telemetry is one timer per interval regardless of flow
// count. The callback only *reads* simulator state, which keeps results
// bitwise identical with telemetry on vs off.
void Network::telemetry_tick() {
  const SimTime now = events_.now();
  TelemetryFlowSample fs;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i]->sender().fill_telemetry(fs);
    fs.acked_bytes = static_cast<double>(flows_[i]->metrics().bytes_acked);
    telemetry_.sample_flow(static_cast<int>(i), fs);
  }
  TelemetryQueueSample qs;
  qs.depth_bytes = static_cast<double>(link_->queue_bytes());
  qs.depth_packets = static_cast<double>(link_->queue_packets());
  // Droptail has no per-packet sojourn state; estimate the head sojourn as
  // the time to drain the standing queue at the current capacity.
  RateBps rate = link_->capacity().rate_at(now);
  qs.sojourn_ms =
      rate > 0 ? to_msec(transmission_time(link_->queue_bytes(), rate)) : 0.0;
  qs.drops = static_cast<double>(link_->drops_overflow() + link_->drops_wire());
  telemetry_.sample_queue(0, qs);
  events_.schedule_in(telemetry_.config().sample_interval,
                      [this] { telemetry_tick(); });
}

void Network::run_until(SimTime t) {
  PROF_SCOPE("sim.run");
  const auto t0 = std::chrono::steady_clock::now();
  if (!started_) {
    started_ = true;
    for (auto& f : flows_) f->sender().start();
    if (telemetry_.enabled()) telemetry_tick();
  }
  events_.run_until(t);
  wall_time_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

double Network::link_utilization(SimTime t0, SimTime t1) const {
  if (t1 <= t0) return 0.0;
  double delivered_bits = deliveries_.sum_in(t0, t1) * 8.0;
  double capacity_bits = link_->capacity().average_rate(t0, t1) * to_seconds(t1 - t0);
  if (capacity_bits <= 0) return 0.0;
  return std::min(1.0, delivered_bits / capacity_bits);
}

}  // namespace libra
