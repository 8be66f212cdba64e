#include "sim/fleet.h"

#include <algorithm>
#include <chrono>

#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace libra {

FleetNetwork::FleetNetwork(std::vector<FleetLink> hops, FleetOptions options)
    : mode_(options.mode), opts_(std::move(options)), hop_specs_(std::move(hops)) {
  if (hop_specs_.empty())
    throw std::invalid_argument("FleetNetwork: at least one hop required");
  if (opts_.sender_shards < 0)
    throw std::invalid_argument("FleetNetwork: sender_shards must be >= 0");
  if (opts_.sender.tick_interval <= 0)
    throw std::invalid_argument("FleetNetwork: tick interval must be > 0");

  const std::size_t nshards =
      hop_specs_.size() + static_cast<std::size_t>(opts_.sender_shards);
  if (nshards >= (std::size_t{1} << 15))
    throw std::invalid_argument("FleetNetwork: too many shards");
  shards_.resize(nshards);
  seq_.resize(nshards);
  for (std::size_t s = 0; s < nshards; ++s)
    seq_[s] = static_cast<std::uint64_t>(s) << kShardShift;

  if (mode_ == FleetMode::kSerial) {
    shard_events_.assign(nshards, 0);
    queues_.push_back(std::make_unique<EventQueue>());
    queues_[0]->set_pop_hook(&FleetNetwork::pop_hook, this);
    for (Shard& sh : shards_) sh.queue = queues_[0].get();
    set_context(0);
  } else {
    queues_.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
      queues_.push_back(std::make_unique<EventQueue>());
      queues_[s]->set_seq_source(&seq_[s]);
      shards_[s].queue = queues_[s].get();
    }
    outbox_.resize(nshards);
    for (auto& row : outbox_) row.resize(nshards);
  }

  links_.reserve(hop_specs_.size());
  for (std::size_t h = 0; h < hop_specs_.size(); ++h) {
    LinkConfig cfg;
    cfg.capacity = hop_specs_[h].capacity
                       ? hop_specs_[h].capacity
                       : std::make_shared<ConstantTrace>(hop_specs_[h].rate);
    cfg.buffer_bytes = hop_specs_[h].buffer_bytes;
    // Hop-to-hop propagation is the engine's cross-shard edge (see
    // on_hop_deliver); the link itself delivers at serialization end.
    cfg.propagation_delay = 0;
    cfg.stochastic_loss = hop_specs_[h].stochastic_loss;
    cfg.ecn_threshold_bytes = hop_specs_[h].ecn_threshold_bytes;
    cfg.policer_rate = hop_specs_[h].policer_rate;
    cfg.policer_burst_bytes = hop_specs_[h].policer_burst_bytes;
    cfg.policer_marks = hop_specs_[h].policer_marks;
    cfg.policer_start = hop_specs_[h].policer_start;
    cfg.policer_stop = hop_specs_[h].policer_stop;
    cfg.seed = opts_.seed ^ (0xF1EE7u + 0x9E3779B9u * static_cast<std::uint64_t>(h));
    auto link = std::make_unique<DropTailLink>(*shards_[h].queue, std::move(cfg));
    const int hop = static_cast<int>(h);
    link->set_deliver([this, hop](const Packet& pkt) { on_hop_deliver(hop, pkt); });
    shards_[h].hops.push_back(hop);
    links_.push_back(std::move(link));
  }
  next_hop_wire_.assign(links_.size(), nullptr);

  if (opts_.warmup <= 0) {
    window_start_ = 0;
  } else {
    const SimDuration tick = opts_.sender.tick_interval;
    const SimTime k = (opts_.warmup + tick - 1) / tick;
    window_start_ = std::max<SimTime>(k, 1) * tick;
  }
  hop_delivered_w0_.assign(hop_specs_.size(), 0);
}

FleetNetwork::~FleetNetwork() = default;

int FleetNetwork::add_flow(FleetFlowDef def) {
  if (started_) throw std::logic_error("FleetNetwork: add_flow after run started");
  if (!def.cca)
    throw std::invalid_argument("FleetNetwork: flow needs a controller");
  const int nhops = hop_count();
  const int enter = def.enter_hop;
  const int exit = def.exit_hop < 0 ? enter : def.exit_hop;
  if (enter < 0 || enter >= nhops || exit < enter || exit >= nhops)
    throw std::invalid_argument("FleetNetwork: bad hop span");

  const int id = flow_count();
  const std::size_t sender_shard =
      opts_.sender_shards > 0
          ? links_.size() + static_cast<std::size_t>(id % opts_.sender_shards)
          : shard_of_hop(enter);
  // Forward path past the exit hop's serialization: the remaining one-way
  // propagation to the receiver plus the whole uncongested return path
  // (mirroring the forward propagation and the sender's access link).
  SimDuration return_path = opts_.access_delay + def.extra_ack_delay;
  for (int h = enter; h <= exit; ++h) return_path += hop_specs_[h].to_next_delay;
  const SimDuration ack_delay =
      hop_specs_[static_cast<std::size_t>(exit)].to_next_delay + return_path;

  SenderConfig cfg = opts_.sender;
  cfg.flow_id = id;
  cfg.start_time = def.start;
  cfg.stop_time = def.stop;
  cfg.byte_budget = def.byte_budget;
  cfg.external_tick = opts_.soa_scan;
  auto snd = std::make_unique<Sender>(*shards_[sender_shard].queue, cfg,
                                      std::move(def.cca));

  Wire* access = wire(sender_shard, shard_of_hop(enter),
                      links_[static_cast<std::size_t>(enter)].get(), opts_.access_delay);
  for (int h = enter; h < exit; ++h) {
    const auto hop = static_cast<std::size_t>(h);
    next_hop_wire_[hop] = wire(shard_of_hop(h), shard_of_hop(h + 1),
                               links_[hop + 1].get(), hop_specs_[hop].to_next_delay);
  }
  const Route r{exit, wire(shard_of_hop(exit), sender_shard, nullptr, ack_delay)};
  snd->set_transmit([this, access](Packet pkt) { send(*access, pkt); });
  snd->ack_observer = [this, id](const AckEvent& ev) {
    const auto i = static_cast<std::size_t>(id);
    acked_bytes_[i] += ev.acked_bytes;
    rtt_sum_us_[i] += ev.rtt;
    ++rtt_samples_[i];
    if (health_on_) {
      if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
      health_->on_ack(id, ev.acked_bytes, ev.rtt);
    }
  };

  shards_[sender_shard].flows.push_back(id);
  routes_.push_back(r);
  senders_.push_back(std::move(snd));
  acked_bytes_.push_back(0);
  rtt_sum_us_.push_back(0);
  rtt_samples_.push_back(0);
  acked_bytes_w0_.push_back(0);
  rtt_sum_us_w0_.push_back(0);
  rtt_samples_w0_.push_back(0);
  sent_w0_.push_back(0);
  lost_w0_.push_back(0);
  return id;
}

void FleetNetwork::compute_lookahead() {
  // Wires exist only for edges some flow uses, so this is the minimum
  // cross-shard delay any packet can be sent with.
  SimDuration min_cross = kSimTimeMax;
  for (const Wire& w : wires_)
    if (w.src != w.dst) min_cross = std::min(min_cross, w.delay);
  if (min_cross == kSimTimeMax) {
    // Single-shard topology: one window covers the whole run.
    lookahead_ = std::max<SimDuration>(opts_.duration, 1);
    return;
  }
  if (min_cross <= 0)
    throw std::invalid_argument(
        "FleetNetwork: cross-shard delays (hop/access/ack) must be > 0");
  lookahead_ = min_cross;
}

void FleetNetwork::setup() {
  hot_.resize(senders_.size());
  health_on_ = health_ && health_->enabled();
  if (health_on_) {
    std::vector<FleetFlowMeta> metas(senders_.size());
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      const SenderConfig& cfg = senders_[i]->config();
      metas[i].start = cfg.start_time;
      metas[i].stop = cfg.stop_time;
      metas[i].byte_budget = cfg.byte_budget;
    }
    health_->prepare(opts_.duration, std::move(metas));
    // Loss/send observers are wired only when health is on, so a health-off
    // run keeps the sender's plain null-observer checks on those paths.
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      const int id = static_cast<int>(i);
      senders_[i]->loss_observer = [this, id](const LossEvent& ev) {
        if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
        health_->on_loss(id);
      };
      senders_[i]->send_observer = [this, id](const SendEvent& ev) {
        if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
        health_->on_send(id);
      };
    }
  }
  if (recorder_) {
    for (auto& snd : senders_) snd->set_recorder(recorder_.get());
    for (auto& link : links_) link->set_recorder(recorder_.get());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (mode_ == FleetMode::kSerial) set_context(s);
    Shard& sh = shards_[s];
    if (window_start_ <= 0) sh.window_snapped = true;
    for (int f : sh.flows) {
      const auto i = static_cast<std::size_t>(f);
      if (telemetry_) senders_[i]->set_telemetry(telemetry_.get());
      if (opts_.soa_scan) senders_[i]->bind_fleet_slot(&hot_, i);
      senders_[i]->start();
    }
    sh.queue->schedule_in(opts_.sender.tick_interval,
                          [this, s] { shard_tick(s); });
  }
  if (telemetry_ && telemetry_->enabled()) {
    set_context(0);
    shards_[0].queue->schedule_in(telemetry_->config().sample_interval,
                                  [this] { telemetry_tick(); });
  }
}

FleetNetwork::Wire* FleetNetwork::wire(std::size_t src, std::size_t dst,
                                       DropTailLink* link, SimDuration delay) {
  for (Wire& w : wires_)
    if (w.src == src && w.dst == dst && w.link == link && w.delay == delay) return &w;
  Wire& w = wires_.emplace_back(
      Wire{this, src, dst, link, delay, 0, mode_ == FleetMode::kSerial && src != dst});
  w.line = shards_[dst].queue->add_line(&FleetNetwork::arrive, &w);
  return &w;
}

void FleetNetwork::send(const Wire& w, const Packet& pkt) {
  EventQueue& q = *shards_[w.src].queue;
  if (w.src == w.dst) {
    q.schedule_line_in(w.line, w.delay, pkt);
    return;
  }
  const SimTime t = q.now() + w.delay;
  const std::uint64_t key = seq_[w.src]++;
  if (mode_ == FleetMode::kSerial) {
    q.schedule_line_keyed(w.line, t, key, pkt);
  } else {
    outbox_[w.src][w.dst].push_back(PostedPacket{t, key, w.line, pkt});
  }
}

void FleetNetwork::arrive(void* ctx, const Packet& pkt) {
  const Wire& w = *static_cast<const Wire*>(ctx);
  FleetNetwork& net = *w.net;
  if (w.switches_context) {
    // Executing a cross-shard packet means executing *as* the destination:
    // switch the context the pop hook set from the key's source shard to dst
    // before the payload runs, so follow-on scheduling draws from dst's
    // counter — exactly as it does under kSharded, where dst's queue always
    // draws from dst's counter. The event count moves with it (the pop hook
    // charged the key's source shard), keeping shard_event_counts()
    // identical to the sharded engine's per-queue tallies.
    --net.shard_events_[w.src];
    ++net.shard_events_[w.dst];
    net.set_context(w.dst);
  }
  if (w.link) {
    w.link->send(pkt);
  } else {
    net.senders_[static_cast<std::size_t>(pkt.flow_id)]->on_ack_packet(pkt);
  }
}

void FleetNetwork::on_hop_deliver(int hop, const Packet& pkt) {
  const Route& r = routes_[static_cast<std::size_t>(pkt.flow_id)];
  // Past the exit hop the receiver acks immediately; the ACK rides the
  // uncongested return path.
  send(hop < r.exit ? *next_hop_wire_[static_cast<std::size_t>(hop)] : *r.ack, pkt);
}

void FleetNetwork::shard_tick(std::size_t s) {
  Shard& sh = shards_[s];
  const SimTime now = sh.queue->now();
  if (!sh.window_snapped && now >= window_start_) {
    sh.window_snapped = true;
    for (int f : sh.flows) {
      const auto i = static_cast<std::size_t>(f);
      acked_bytes_w0_[i] = acked_bytes_[i];
      rtt_sum_us_w0_[i] = rtt_sum_us_[i];
      rtt_samples_w0_[i] = rtt_samples_[i];
      sent_w0_[i] = senders_[i]->packets_sent();
      lost_w0_[i] = senders_[i]->packets_lost();
    }
    for (int h : sh.hops)
      hop_delivered_w0_[static_cast<std::size_t>(h)] =
          links_[static_cast<std::size_t>(h)]->delivered_bytes();
  }
  if (health_on_) {
    // Window rolls for flows with no recent events: the tick grid is global,
    // so roll points interleave identically under both engines.
    for (int f : sh.flows)
      if (health_->needs_roll(f, now)) health_roll(f, now);
  }
  if (opts_.soa_scan) {
    PROF_SCOPE("fleet.scan");
    const std::int64_t pkt = opts_.sender.packet_bytes;
    for (int f : sh.flows) {
      const auto i = static_cast<std::size_t>(f);
      const std::uint8_t bits = hot_.flags[i];
      if (!(bits & FleetFlowHot::kActive)) continue;
      if (now >= hot_.stop_time[i]) {
        hot_.flags[i] = bits & static_cast<std::uint8_t>(~FleetFlowHot::kActive);
        continue;
      }
      if ((bits & FleetFlowHot::kWantsTick) || now >= hot_.rto_deadline[i] ||
          hot_.send_headroom[i] >= pkt) {
        senders_[i]->run_tick(now);
      }
    }
  }
  sh.queue->schedule_in(opts_.sender.tick_interval, [this, s] { shard_tick(s); });
}

void FleetNetwork::health_roll(int flow, SimTime now) {
  const Sender& snd = *senders_[static_cast<std::size_t>(flow)];
  health_->roll(flow, now, snd.cca().cwnd_bytes(),
                static_cast<double>(snd.current_pacing_rate()));
}

// Flushes the (possibly partial) final windows and stamps per-flow outcomes;
// everything read here is post-run state, identical under both engines.
void FleetNetwork::finalize_health() {
  if (!health_on_ || health_finalized_) return;
  health_finalized_ = true;
  for (int f = 0; f < flow_count(); ++f) {
    const Sender& snd = *senders_[static_cast<std::size_t>(f)];
    health_->flush_all(f, snd.cca().cwnd_bytes(),
                       static_cast<double>(snd.current_pacing_rate()));
    health_->set_flow_outcome(f, snd.finished() ? snd.finished_time() : -1,
                              snd.min_rtt());
  }
}

// One sampling event covers every flow and every hop queue (O(flows) work per
// interval, one timer regardless of flow count). Read-only, so sampling does
// not perturb the run. Serial mode only: the sampler reads across shards.
void FleetNetwork::telemetry_tick() {
  const SimTime now = queues_[0]->now();
  TelemetryFlowSample fs;
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    senders_[i]->fill_telemetry(fs);
    fs.acked_bytes = static_cast<double>(acked_bytes_[i]);
    telemetry_->sample_flow(static_cast<int>(i), fs);
  }
  TelemetryQueueSample qs;
  for (std::size_t h = 0; h < links_.size(); ++h) {
    const DropTailLink& link = *links_[h];
    qs.depth_bytes = static_cast<double>(link.queue_bytes());
    qs.depth_packets = static_cast<double>(link.queue_packets());
    RateBps rate = link.capacity().rate_at(now);
    qs.sojourn_ms =
        rate > 0 ? to_msec(transmission_time(link.queue_bytes(), rate)) : 0.0;
    qs.drops = static_cast<double>(link.drops_overflow() + link.drops_wire());
    telemetry_->sample_queue(static_cast<int>(h), qs);
  }
  queues_[0]->schedule_in(telemetry_->config().sample_interval,
                          [this] { telemetry_tick(); });
}

void FleetNetwork::process_window(SimTime bound, bool inclusive) {
  struct Window {
    FleetNetwork* net;
    SimTime bound;
    bool inclusive;
  } window{this, bound, inclusive};
  auto work = [](void* ctx, std::size_t s) {
    PROF_SCOPE("fleet.shard");
    const Window& w = *static_cast<const Window*>(ctx);
    EventQueue& q = *w.net->shards_[s].queue;
    if (w.inclusive) {
      q.run_until(w.bound);
    } else {
      q.run_before(w.bound);
    }
  };
  const std::size_t n = shards_.size();
  if (n <= 1 || pool_->thread_count() <= 1) {
    for (std::size_t s = 0; s < n; ++s) work(&window, s);
    return;
  }
  pool_->fork_join(n, work, &window);
}

void FleetNetwork::merge_outboxes() {
  PROF_SCOPE("fleet.merge");
  const std::size_t n = shards_.size();
  for (std::size_t dst = 0; dst < n; ++dst) {
    EventQueue& q = *shards_[dst].queue;
    for (std::size_t src = 0; src < n; ++src) {
      auto& box = outbox_[src][dst];
      for (const PostedPacket& m : box) q.schedule_line_keyed(m.line, m.t, m.key, m.pkt);
      box.clear();
    }
  }
}

void FleetNetwork::run() {
  PROF_SCOPE("fleet.run");
  const auto t0 = std::chrono::steady_clock::now();
  if (!started_) {
    started_ = true;
    compute_lookahead();
    setup();
  }
  const SimTime end = opts_.duration;
  if (mode_ == FleetMode::kSerial) {
    queues_[0]->run_until(end);
  } else {
    if (!pool_) {
      std::size_t want = opts_.threads ? opts_.threads : shards_.size();
      pool_ = std::make_unique<ThreadPool>(
          std::max<std::size_t>(1, std::min(want, shards_.size())));
    }
    SimTime t = 0;
    while (t < end) {
      const SimTime bound = std::min<SimTime>(end, t + lookahead_);
      process_window(bound, /*inclusive=*/false);
      merge_outboxes();
      t = bound;
    }
    // Events at exactly t == end (including messages merged at the final
    // barrier). Anything they generate lands at > end in both modes.
    process_window(end, /*inclusive=*/true);
  }
  finalize_health();
  wall_time_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::uint64_t FleetNetwork::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q->processed();
  return total;
}

FleetFlowRef FleetNetwork::flow(int id) const {
  const auto i = static_cast<std::size_t>(id);
  const std::uint8_t bits = i < hot_.size() ? hot_.flags[i] : 0;
  return FleetFlowRef{*senders_[i],
                      (bits & FleetFlowHot::kActive) != 0,
                      (bits & FleetFlowHot::kWantsTick) != 0,
                      i < hot_.size() ? hot_.rto_deadline[i] : 0,
                      i < hot_.size() ? hot_.send_headroom[i] : 0};
}

void FleetNetwork::enable_telemetry(const TelemetryConfig& config) {
  if (mode_ != FleetMode::kSerial)
    throw std::logic_error("FleetNetwork: telemetry requires serial mode");
  if (started_)
    throw std::logic_error("FleetNetwork: enable_telemetry before run");
  if (!telemetry_) telemetry_ = std::make_unique<Telemetry>();
  telemetry_->enable(config);
}

void FleetNetwork::enable_health(const FleetStatsConfig& config) {
  if (started_)
    throw std::logic_error("FleetNetwork: enable_health before run");
  if (!health_) health_ = std::make_unique<FleetHealth>();
  health_->enable(config);
}

void FleetNetwork::enable_recording(std::size_t ring_capacity) {
  if (mode_ != FleetMode::kSerial)
    throw std::logic_error("FleetNetwork: recording requires serial mode");
  if (started_)
    throw std::logic_error("FleetNetwork: enable_recording before run");
  if (!recorder_) recorder_ = std::make_unique<FlightRecorder>();
  recorder_->enable(ring_capacity);
}

std::vector<std::uint64_t> FleetNetwork::shard_event_counts() const {
  if (mode_ == FleetMode::kSerial) return shard_events_;
  std::vector<std::uint64_t> out;
  out.reserve(queues_.size());
  for (const auto& q : queues_) out.push_back(q->processed());
  return out;
}

FleetSummary FleetNetwork::summarize() const {
  FleetSummary out;
  out.sim_time_s = to_seconds(opts_.duration);
  out.wall_time_s = wall_time_s_;
  out.events_processed = events_processed();
  const SimTime w0 = std::min<SimTime>(window_start_, opts_.duration);
  const double win = to_seconds(opts_.duration - w0);
  out.window_s = win;

  std::int64_t rtt_sum = 0, rtt_n = 0;
  double sum_x = 0, sum_x2 = 0;
  std::size_t fair_n = 0;
  out.flows.reserve(senders_.size());
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    FleetFlowSummary fs;
    const std::int64_t bytes = acked_bytes_[i] - acked_bytes_w0_[i];
    fs.throughput_bps = win > 0 ? static_cast<double>(bytes) * 8.0 / win : 0.0;
    const std::int64_t n = rtt_samples_[i] - rtt_samples_w0_[i];
    fs.avg_rtt_ms =
        n > 0 ? static_cast<double>(rtt_sum_us_[i] - rtt_sum_us_w0_[i]) /
                    (1000.0 * static_cast<double>(n))
              : 0.0;
    const std::int64_t sent = senders_[i]->packets_sent() - sent_w0_[i];
    const std::int64_t lost = senders_[i]->packets_lost() - lost_w0_[i];
    fs.loss_rate =
        sent > 0 ? static_cast<double>(lost) / static_cast<double>(sent) : 0.0;
    fs.completion_s = senders_[i]->finished()
                          ? to_seconds(senders_[i]->finished_time())
                          : -1.0;
    rtt_sum += rtt_sum_us_[i] - rtt_sum_us_w0_[i];
    rtt_n += n;
    out.total_throughput_bps += fs.throughput_bps;
    if (fs.throughput_bps > 0) {
      sum_x += fs.throughput_bps;
      sum_x2 += fs.throughput_bps * fs.throughput_bps;
      ++fair_n;
    }
    out.flows.push_back(fs);
  }
  out.avg_delay_ms =
      rtt_n > 0 ? static_cast<double>(rtt_sum) / (1000.0 * static_cast<double>(rtt_n))
                : 0.0;
  out.jain_fairness = fair_n > 0 && sum_x2 > 0
                          ? (sum_x * sum_x) / (static_cast<double>(fair_n) * sum_x2)
                          : 0.0;

  out.hop_utilization.reserve(links_.size());
  for (std::size_t h = 0; h < links_.size(); ++h) {
    const std::int64_t delivered =
        links_[h]->delivered_bytes() - hop_delivered_w0_[h];
    const double cap_bits =
        links_[h]->capacity().average_rate(w0, opts_.duration) * win;
    out.hop_utilization.push_back(
        cap_bits > 0
            ? std::min(1.0, static_cast<double>(delivered) * 8.0 / cap_bits)
            : 0.0);
  }
  return out;
}

bool deterministically_equal(const FleetSummary& a, const FleetSummary& b) {
  if (a.sim_time_s != b.sim_time_s || a.window_s != b.window_s ||
      a.total_throughput_bps != b.total_throughput_bps ||
      a.avg_delay_ms != b.avg_delay_ms || a.jain_fairness != b.jain_fairness ||
      a.events_processed != b.events_processed ||
      a.hop_utilization != b.hop_utilization || a.flows.size() != b.flows.size())
    return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const FleetFlowSummary& x = a.flows[i];
    const FleetFlowSummary& y = b.flows[i];
    if (x.throughput_bps != y.throughput_bps || x.avg_rtt_ms != y.avg_rtt_ms ||
        x.loss_rate != y.loss_rate || x.completion_s != y.completion_s)
      return false;
  }
  return true;
}

}  // namespace libra
