// Fleet-scale simulation engine: hundreds-to-thousands of flows over chains
// of bottleneck hops, with a struct-of-arrays hot path and optional sharded
// event processing.
//
// Topology model: a path of `FleetLink` hops (each a DropTailLink with its
// own buffer, capacity and egress propagation delay). A flow enters at hop
// `enter_hop`, traverses contiguous hops through `exit_hop`, and its ACKs
// return over an uncongested path whose delay mirrors the forward
// propagation. Senders sit an `access_delay` in front of their first hop.
// Incast is N flows into one hop; a parking lot is several hops with per-hop
// cross traffic plus long flows spanning the chain.
//
// Execution modes, bitwise identical by construction:
//
//  - kSerial: one EventQueue holds every component's events. Each event's
//    ordering key is (shard << 48) | per-shard sequence, where a shard is a
//    bottleneck hop (plus optional sender groups) and the per-shard counters
//    advance exactly as they would under sharded execution (the queue's pop
//    hook switches the active counter to the executing event's shard).
//  - kSharded: each shard runs its own EventQueue, processed in conservative
//    lookahead windows of width L = the minimum cross-shard propagation
//    delay. Within a window shards run independently (in parallel); events a
//    shard schedules onto another shard carry at least L of delay, are
//    buffered in per-(src,dst) outboxes, and are merged into the destination
//    queues in fixed shard order at the window barrier — before the
//    destination has processed any event at or past the message's time.
//
// Because per-shard keys and per-shard execution order are identical in both
// modes, every simulated quantity — flow counters, queue evolution, RNG
// streams, learned-CCA decisions — is bitwise identical between kSerial and
// kSharded at any thread count. tests/fleet_test.cc asserts this for classic
// and learned controllers.
//
// Hot path: senders run in external-tick mode — instead of one timer event
// per flow per tick (the naive engine's dominant cost at 1000 flows), each
// shard runs a single periodic scan over the FleetFlowHot SoA rows of its
// flows and only calls into Sender objects that have actual work (RTO hit,
// tick-driven controller, window headroom). See sim/flow_soa.h.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/fleet_stats.h"
#include "sim/congestion_control.h"
#include "sim/event_queue.h"
#include "sim/flow_soa.h"
#include "sim/link.h"
#include "sim/sender.h"
#include "trace/rate_trace.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace libra {

class Telemetry;
struct TelemetryConfig;

enum class FleetMode { kSerial, kSharded };

/// One bottleneck hop of the chain.
struct FleetLink {
  /// Fixed capacity; used when `capacity` is null.
  RateBps rate = mbps(96);
  /// Optional trace-driven capacity (overrides `rate`).
  std::shared_ptr<RateTrace> capacity;
  std::int64_t buffer_bytes = 150 * 1000;
  /// One-way propagation from this hop's egress to the next hop (or to the
  /// receiver, for the exit hop). This is the cross-shard edge, so it bounds
  /// the sharded engine's lookahead; must be > 0 for sharded topologies.
  SimDuration to_next_delay = msec(5);
  double stochastic_loss = 0.0;
  /// ECN marking threshold and ingress token-bucket policer, passed straight
  /// through to LinkConfig (see sim/link.h for semantics). All processing
  /// happens on the hop's owning shard, so the serial==sharded bitwise
  /// identity contract holds for every marking/policing combination.
  std::int64_t ecn_threshold_bytes = 0;
  RateBps policer_rate = 0;
  std::int64_t policer_burst_bytes = 30 * 1000;
  bool policer_marks = false;
  SimTime policer_start = 0;
  SimTime policer_stop = kSimTimeMax;
};

struct FleetOptions {
  FleetMode mode = FleetMode::kSerial;
  /// Worker threads for kSharded (capped at the shard count); 0 = one per
  /// shard. Has no effect on results — only on wall time.
  std::size_t threads = 0;
  /// Extra shards that split senders off their first hop's shard (incast
  /// parallelism); 0 keeps each sender co-located with its first hop.
  int sender_shards = 0;
  /// One-way sender <-> first-hop delay. With sender_shards > 0 this is a
  /// cross-shard edge and must be > 0.
  SimDuration access_delay = msec(2);
  SimDuration duration = sec(10);
  /// Measurement-window warmup; the window opens at the first shard tick at
  /// or after this instant (identical across shards and modes).
  SimTime warmup = sec(1);
  std::uint64_t seed = 1;
  /// When true (default) flows run under the SoA shard scan (one periodic
  /// event per shard, skipping flows with no work). When false every sender
  /// self-schedules its own tick timer — the naive engine, kept as the
  /// baseline bench_fleet measures the scan against. Results are equivalent
  /// but not bitwise identical across this switch (event keys differ).
  bool soa_scan = true;
  /// Base per-flow sender config (tick interval, packet size, RTO floor...).
  SenderConfig sender;
};

struct FleetFlowDef {
  std::unique_ptr<CongestionControl> cca;
  SimTime start = 0;
  SimTime stop = kSimTimeMax;
  /// Total bytes to send; negative = backlogged for the whole run.
  std::int64_t byte_budget = -1;
  int enter_hop = 0;
  /// Last hop traversed; -1 means enter_hop (single-bottleneck flow).
  int exit_hop = -1;
  SimDuration extra_ack_delay = 0;
};

struct FleetFlowSummary {
  double throughput_bps = 0;  // acked bytes over the measurement window
  double avg_rtt_ms = 0;      // mean per-ACK RTT in the window
  double loss_rate = 0;       // window losses / window sends
  double completion_s = -1;   // finite flows: finish instant; -1 if unfinished
};

struct FleetSummary {
  double sim_time_s = 0;
  double window_s = 0;  // measurement window (duration minus effective warmup)
  double total_throughput_bps = 0;
  double avg_delay_ms = 0;
  /// Jain index over the window throughputs of flows that moved bytes.
  double jain_fairness = 0;
  std::uint64_t events_processed = 0;
  /// Host-dependent; the only field excluded from bitwise-equality checks.
  double wall_time_s = 0;
  std::vector<double> hop_utilization;
  std::vector<FleetFlowSummary> flows;

  double events_per_wall_s() const {
    return wall_time_s > 0 ? static_cast<double>(events_processed) / wall_time_s
                           : 0.0;
  }
};

/// Exact equality over every deterministic field (everything but wall time).
bool deterministically_equal(const FleetSummary& a, const FleetSummary& b);

/// Thin per-flow object view over the engine's SoA state.
struct FleetFlowRef {
  const Sender& sender;
  bool active = false;
  bool wants_tick = false;
  SimTime rto_deadline = 0;
  std::int64_t send_headroom = 0;
};

class FleetNetwork {
 public:
  FleetNetwork(std::vector<FleetLink> hops, FleetOptions options);
  ~FleetNetwork();
  FleetNetwork(const FleetNetwork&) = delete;
  FleetNetwork& operator=(const FleetNetwork&) = delete;

  /// Adds a flow before run(); returns its id (dense, in insertion order).
  int add_flow(FleetFlowDef def);

  /// Runs the whole scenario to options.duration.
  void run();

  FleetSummary summarize() const;

  int flow_count() const { return static_cast<int>(senders_.size()); }
  int hop_count() const { return static_cast<int>(links_.size()); }
  std::size_t shard_count() const { return shards_.size(); }
  /// Conservative window width (valid after run() starts).
  SimDuration lookahead() const { return lookahead_; }
  std::uint64_t events_processed() const;

  Sender& sender(int flow) { return *senders_[static_cast<std::size_t>(flow)]; }
  const Sender& sender(int flow) const {
    return *senders_[static_cast<std::size_t>(flow)];
  }
  const DropTailLink& hop(int h) const {
    return *links_[static_cast<std::size_t>(h)];
  }
  FleetFlowRef flow(int id) const;

  /// Sampling telemetry; one O(flows) sampling event per interval, exactly
  /// like the single-bottleneck Network. Serial mode only (the sampler is a
  /// cross-shard reader and would break shard isolation).
  void enable_telemetry(const TelemetryConfig& config);
  Telemetry* telemetry() { return telemetry_.get(); }

  /// Streaming windowed health stats (obs/fleet_stats.h). Unlike telemetry
  /// this works under BOTH engines: every hook for a flow fires on the flow's
  /// owning sender shard, so accumulation is race-free and the finished
  /// timeline is bitwise identical serial vs. sharded at any thread count.
  /// Call before run(); read timeline() via health() after run() returns
  /// (run() flushes the final windows and stamps flow outcomes).
  void enable_health(const FleetStatsConfig& config = {});
  const FleetHealth* health() const { return health_.get(); }

  /// Black-box flight recording: a fixed ring of the most recent trace
  /// events (no sink, oldest overwritten), so tracing a 1000-flow run is
  /// memory-bounded. Serial mode only — the ring is a cross-shard writer.
  void enable_recording(std::size_t ring_capacity);
  const FlightRecorder* recorder() const { return recorder_.get(); }

  /// Events executed per shard (valid after run()). Deterministic — identical
  /// serial vs. sharded — because both engines process the same per-shard
  /// event sequences; feeds fleet_run's shard-imbalance wall stats.
  std::vector<std::uint64_t> shard_event_counts() const;

 private:
  static constexpr unsigned kShardShift = 48;

  /// A fixed-delay packet hop from shard `src` to shard `dst`, carried by
  /// one packet line on dst's queue (in serial mode, the single queue). With
  /// a `link` the packet enters that hop's queue; without, it is the ACK for
  /// the sender of pkt.flow_id. One wire per (src, dst, target, delay), so a
  /// wire's items arrive in key order and never take the line fallback.
  struct Wire {
    FleetNetwork* net;
    std::size_t src;
    std::size_t dst;
    DropTailLink* link;
    SimDuration delay;
    EventQueue::LineId line;
    /// Serial mode, src != dst: arriving means running *as* dst (see arrive).
    bool switches_context;
  };

  struct Route {
    int exit;
    Wire* ack;  // exit hop -> sender
  };

  struct Shard {
    EventQueue* queue = nullptr;  // owned by queues_
    std::vector<int> flows;       // ascending flow ids
    std::vector<int> hops;
    bool window_snapped = false;
  };

  /// Sharded mode: a cross-shard packet waiting for the next barrier.
  struct PostedPacket {
    SimTime t = 0;
    std::uint64_t key = 0;
    EventQueue::LineId line = 0;
    Packet pkt;
  };

  std::size_t shard_of_hop(int h) const { return static_cast<std::size_t>(h); }

  /// Serial mode: makes `shard` the executing context so every key drawn by
  /// component-internal scheduling comes from that shard's counter.
  void set_context(std::size_t shard) {
    current_ = shard;
    queues_[0]->set_seq_source(&seq_[shard]);
  }
  static void pop_hook(void* ctx, std::uint64_t key) {
    auto* self = static_cast<FleetNetwork*>(ctx);
    const auto s = static_cast<std::size_t>(key >> kShardShift);
    ++self->shard_events_[s];
    self->set_context(s);
  }

  /// The wire for (src, dst, link, delay), created on first use; only
  /// edges some flow uses get one (compute_lookahead relies on it).
  Wire* wire(std::size_t src, std::size_t dst, DropTailLink* link, SimDuration delay);
  /// Sends `pkt` over `w`, `w.delay` after src's current time. Intra-shard
  /// items go straight onto the line; cross-shard items carry a (src,
  /// src-sequence) key and, under kSharded, ride the outbox to the next
  /// barrier. The lookahead is the minimum cross-shard wire delay, so an
  /// outbox item always lands at or past the next barrier.
  void send(const Wire& w, const Packet& pkt);
  /// Line handler of every wire.
  static void arrive(void* wire, const Packet& pkt);

  void compute_lookahead();
  void setup();
  void on_hop_deliver(int hop, const Packet& pkt);
  void shard_tick(std::size_t s);
  /// Flushes `flow`'s completed health windows with a fresh cwnd/pacing
  /// snapshot; called only when FleetHealth::needs_roll fired.
  void health_roll(int flow, SimTime now);
  void finalize_health();
  void telemetry_tick();
  void process_window(SimTime bound, bool inclusive);
  void merge_outboxes();

  FleetMode mode_;
  FleetOptions opts_;
  std::vector<FleetLink> hop_specs_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<DropTailLink>> links_;
  std::vector<std::unique_ptr<Sender>> senders_;
  std::vector<Route> routes_;
  std::deque<Wire> wires_;           // stable addresses: line handler contexts
  std::vector<Wire*> next_hop_wire_;  // [h]: hop h -> hop h + 1, if used
  FleetFlowHot hot_;

  // Per-flow measurement accumulators. Integer sums in event order, so the
  // derived summary doubles are an exact function of the simulated run.
  std::vector<std::int64_t> acked_bytes_, rtt_sum_us_, rtt_samples_;
  std::vector<std::int64_t> acked_bytes_w0_, rtt_sum_us_w0_, rtt_samples_w0_;
  std::vector<std::int64_t> sent_w0_, lost_w0_;
  std::vector<std::int64_t> hop_delivered_w0_;
  SimTime window_start_ = 0;

  std::vector<std::uint64_t> seq_;  // per-shard key counters, pre-shifted
  std::size_t current_ = 0;         // serial mode: executing shard
  std::vector<std::uint64_t> shard_events_;  // serial: events per shard
  std::vector<std::vector<std::vector<PostedPacket>>> outbox_;  // [src][dst]
  SimDuration lookahead_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<FleetHealth> health_;
  std::unique_ptr<FlightRecorder> recorder_;
  bool health_on_ = false;  // cached health_->enabled() for the hot hooks
  bool health_finalized_ = false;
  bool started_ = false;
  double wall_time_s_ = 0;
};

}  // namespace libra
