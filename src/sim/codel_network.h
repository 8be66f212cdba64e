// Dumbbell network over a CoDel bottleneck — the AQM counterpart of Network,
// used by the CoDel ablation (Sec. 2's "CUBIC needs CoDel in the network to
// get low delay; Libra gets it at the endpoint").
#pragma once

#include <memory>
#include <vector>

#include "obs/telemetry.h"
#include "sim/codel_queue.h"
#include "sim/event_queue.h"
#include "sim/flow.h"

namespace libra {

class CodelNetwork {
 public:
  explicit CodelNetwork(CodelConfig config)
      : link_(std::make_unique<CodelQueue>(events_, std::move(config))) {
    link_->set_recorder(&recorder_);
    link_->set_deliver([this](const Packet& pkt) {
      deliveries_.add(events_.now(), static_cast<double>(pkt.bytes));
      auto idx = static_cast<std::size_t>(pkt.flow_id);
      if (idx >= flows_.size()) return;
      events_.schedule_line_in(ack_lines_[idx], ack_delay_, pkt);
    });
  }

  int add_flow(std::unique_ptr<CongestionControl> cca, SimTime start_time = 0) {
    int id = static_cast<int>(flows_.size());
    SenderConfig cfg;
    cfg.flow_id = id;
    cfg.start_time = start_time;
    auto flow = std::make_unique<Flow>(events_, cfg, std::move(cca));
    flow->sender().set_transmit([this](Packet pkt) { link_->send(std::move(pkt)); });
    flow->sender().set_recorder(&recorder_);
    flow->sender().set_telemetry(&telemetry_);
    ack_lines_.push_back(events_.add_line(&Sender::ack_from_line, &flow->sender()));
    flows_.push_back(std::move(flow));
    return id;
  }

  void run_until(SimTime t) {
    if (!started_) {
      started_ = true;
      for (auto& f : flows_) f->sender().start();
      if (telemetry_.enabled()) telemetry_tick();
    }
    events_.run_until(t);
  }

  Flow& flow(int i) { return *flows_.at(static_cast<std::size_t>(i)); }
  CodelQueue& link() { return *link_; }
  EventQueue& events() { return events_; }
  FlightRecorder& recorder() { return recorder_; }
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }

  double delivered_bytes_in(SimTime t0, SimTime t1) const {
    return deliveries_.sum_in(t0, t1);
  }

 private:
  // Mirrors Network::telemetry_tick, but the sojourn column is *exact* here:
  // CoDel already timestamps every packet at enqueue.
  void telemetry_tick() {
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
    qs.sojourn_ms = to_msec(link_->head_sojourn(now));
    qs.drops = static_cast<double>(link_->codel_drops());
    telemetry_.sample_queue(0, qs);
    events_.schedule_in(telemetry_.config().sample_interval,
                        [this] { telemetry_tick(); });
  }

  EventQueue events_;
  FlightRecorder recorder_;
  Telemetry telemetry_;
  std::unique_ptr<CodelQueue> link_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<EventQueue::LineId> ack_lines_;  // per flow
  SimDuration ack_delay_ = msec(15);
  TimeSeries deliveries_;
  bool started_ = false;
};

}  // namespace libra
