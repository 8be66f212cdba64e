// Allocation audits, in one binary because it replaces the global operator
// new with a counting wrapper:
//   - PPO training path: after the first (warm-up) update, Ppo::update must
//     perform zero heap allocations — every workspace is sized at
//     construction;
//   - profiler spans: a disabled PROF_SCOPE allocates nothing (the zero-cost
//     hot-path claim), and an enabled span over an already-seen tree path
//     allocates nothing either (steady-state profiling doesn't perturb the
//     allocator);
//   - telemetry: disabled hooks allocate nothing, and enabled steady-state
//     sampling (including M4 compactions) allocates nothing after the first
//     sample sized the columnar store;
//   - fleet health: disabled hooks allocate nothing, and an enabled
//     accumulate/roll steady state allocates nothing after prepare() sized
//     the timeline.
//   - simulator packet path: past warm-up, a further simulated second of a
//     100-flow fleet incast (serial, and sharded on 2 threads) allocates
//     nothing, and a 2-flow Network allocates only to grow its recorded
//     time series — packet hops ride packet lines, and the sharded window
//     barrier forks without task objects.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "classic/cubic.h"
#include "harness/fleet_scenario.h"
#include "obs/fleet_stats.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "rl/matrix.h"
#include "rl/ppo.h"
#include "rl/simd.h"
#include "sim/fleet.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace libra {
namespace {

void fill_buffer(PpoAgent& agent, Rng& rng) {
  const PpoConfig& cfg = agent.config();
  Vector state(cfg.state_dim);
  while (agent.buffered_transitions() < cfg.horizon) {
    for (double& v : state) v = rng.uniform(-1.0, 1.0);
    double a = agent.act(state);
    agent.give_reward(-std::abs(a - state[0]));
  }
}

TEST(PpoAllocation, UpdateIsAllocationFreeAfterWarmup) {
  PpoConfig cfg;
  cfg.state_dim = 8;
  cfg.hidden = {32, 32};
  cfg.horizon = 256;
  cfg.minibatch = 64;
  cfg.seed = 3;
  cfg.collect_only = true;  // fill without auto-triggered updates
  PpoAgent agent(cfg);
  Rng rng(4);

  fill_buffer(agent, rng);
  agent.flush_update(0.0);  // warm-up
  ASSERT_EQ(agent.update_count(), 1);

  fill_buffer(agent, rng);
  g_allocations.store(0);
  g_counting.store(true);
  agent.flush_update(0.0);
  g_counting.store(false);

  EXPECT_EQ(agent.update_count(), 2);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "Ppo::update allocated after warm-up; a workspace is being resized "
         "past its reserved capacity";
}

TEST(PpoAllocation, UpdateIsAllocationFreeOnBothKernelPaths) {
  // Same audit as above, once per dispatch decision: the AVX2 kernels write
  // into the same caller-owned buffers as the scalar ones, and the dispatch
  // itself is a relaxed atomic load — neither path may touch the heap.
  const simd::Isa before = simd::active();
  PpoConfig cfg;
  cfg.state_dim = 8;
  cfg.hidden = {32, 32};
  cfg.horizon = 256;
  cfg.minibatch = 64;
  cfg.seed = 3;
  cfg.collect_only = true;
  PpoAgent agent(cfg);
  Rng rng(4);
  fill_buffer(agent, rng);
  agent.flush_update(0.0);  // warm-up

  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::avx2_supported()) isas.push_back(simd::Isa::kAvx2);
  for (simd::Isa isa : isas) {
    simd::force(isa);
    fill_buffer(agent, rng);
    g_allocations.store(0);
    g_counting.store(true);
    agent.flush_update(0.0);
    g_counting.store(false);
    EXPECT_EQ(g_allocations.load(), 0u)
        << "Ppo::update allocated on the " << simd::isa_name(isa)
        << " kernel path";
  }
  simd::force(before);
}

TEST(SimdDispatchAllocation, DispatchAndKernelsAllocateNothing) {
  const simd::Isa before = simd::active();
  Matrix w(16, 16);
  Vector x(16, 0.25), y(16);
  g_allocations.store(0);
  g_counting.store(true);
  // The dispatch decision (force + the relaxed-load predicate) and a kernel
  // run into pre-sized buffers: zero heap traffic end to end.
  simd::force(simd::Isa::kScalar);
  (void)simd::use_avx2();
  w.multiply_into(x, y);
  if (simd::avx2_supported()) {
    simd::force(simd::Isa::kAvx2);
    w.multiply_into(x, y);
  }
  simd::force(before);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "the kernel dispatch layer must not allocate";
}

TEST(TelemetryAllocation, DisabledHooksAllocateNothing) {
  Telemetry t;
  TelemetryFlowSample fs;
  TelemetryQueueSample qs;
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    t.stage_event(msec(i), 0, i % 4);
    t.sample_flow(0, fs);
    t.sample_queue(0, qs);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "disabled telemetry hooks must be a branch on enabled_, nothing else";
}

TEST(TelemetryAllocation, EnabledSteadyStateSamplingAllocatesNothing) {
  Telemetry t;
  TelemetryConfig cfg;
  cfg.max_buckets = 16;
  t.enable(cfg);
  TelemetryFlowSample fs;
  TelemetryQueueSample qs;
  // Warm-up: first samples create the flow/queue series (columns reserved to
  // max_buckets) and the stage-event buffer was reserved by enable().
  t.sample_flow(0, fs);
  t.sample_queue(0, qs);

  g_allocations.store(0);
  g_counting.store(true);
  // 10k samples into 16 buckets: many pairwise compactions, all in place.
  for (int i = 0; i < 10000; ++i) {
    fs.cwnd_bytes = static_cast<double>(i);
    t.sample_flow(0, fs);
    t.sample_queue(0, qs);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state sampling or compaction touched the heap; a column "
         "outgrew its reserved capacity";
}

TEST(FleetHealthAllocation, DisabledHooksAllocateNothing) {
  FleetHealth h;
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    h.on_ack(0, 1500, msec(10));
    h.on_send(0);
    h.on_loss(0);
    (void)h.needs_roll(0, msec(i));
    h.roll(0, msec(i), 0, 0.0);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "disabled fleet-health hooks must be a branch on enabled_, nothing "
         "else";
}

TEST(FleetHealthAllocation, EnabledSteadyStateAllocatesNothing) {
  FleetHealth h;
  h.enable({});  // 100 ms windows
  std::vector<FleetFlowMeta> metas(4);
  h.prepare(sec(2), std::move(metas));

  g_allocations.store(0);
  g_counting.store(true);
  // 20 windows x 4 flows x 50 events: accumulate, per-event roll checks,
  // window flushes, and the final inclusive flush — all into storage sized
  // by prepare().
  for (int w = 0; w < 20; ++w) {
    for (int f = 0; f < 4; ++f) {
      for (int i = 0; i < 50; ++i) {
        const SimTime now = static_cast<SimTime>(w) * msec(100) +
                            static_cast<SimTime>(i) * msec(2);
        if (h.needs_roll(f, now)) h.roll(f, now, 10'000, 1e7);
        h.on_send(f);
        h.on_ack(f, 1500, msec(10) + i);
        if (i % 10 == 0) h.on_loss(f);
      }
    }
  }
  for (int f = 0; f < 4; ++f) {
    h.flush_all(f, 10'000, 1e7);
    h.set_flow_outcome(f, -1, msec(10));
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state fleet-health accumulation touched the heap; prepare() "
         "must size every accumulator and row up front";
}

// Heap allocations made inside FleetNetwork::run() by a 100-flow incast run
// to `duration`. Two sender shards put the access and ACK hops across shards.
std::size_t fleet_run_allocations(FleetMode mode, SimDuration duration) {
  FleetSpec spec = incast_fleet(100);
  spec.sender_shards = 2;
  spec.duration = duration;
  FleetRunOptions run;
  run.mode = mode;
  run.threads = 2;
  FleetNetwork net(fleet_links(spec), fleet_options(spec, 1, run));
  for (const FleetFlowPlan& plan : plan_fleet_flows(spec, 1)) {
    FleetFlowDef def;
    def.cca = std::make_unique<Cubic>();
    def.start = plan.start;
    def.stop = plan.stop;
    def.byte_budget = plan.byte_budget;
    def.enter_hop = plan.enter_hop;
    def.exit_hop = plan.exit_hop;
    net.add_flow(std::move(def));
  }
  g_allocations.store(0);
  g_counting.store(true);
  net.run();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(SimulatorAllocation, FleetIncastSteadyStateAllocatesNothing) {
  // The same run to 2 s (past the 1 s warm-up and the 1 s start stagger) and
  // to 3 s allocates identically up to 2 s, so the difference is exactly what
  // the further simulated second allocated.
  for (FleetMode mode : {FleetMode::kSerial, FleetMode::kSharded}) {
    const std::size_t warm = fleet_run_allocations(mode, sec(2));
    const std::size_t longer = fleet_run_allocations(mode, sec(3));
    EXPECT_EQ(longer, warm)
        << (mode == FleetMode::kSerial ? "serial" : "sharded")
        << " fleet allocated " << longer - warm
        << " times in a steady-state simulated second";
  }
}

// Heap allocations std::vector makes while growing from capacity `from` to
// `to` by push_back (libstdc++ doubles, starting at 1).
std::size_t vector_growths(std::size_t from, std::size_t to) {
  std::size_t n = 0;
  for (std::size_t c = from; c < to; c = c ? 2 * c : 1) ++n;
  return n;
}

TEST(SimulatorAllocation, TwoFlowNetworkPacketPathAllocatesNothing) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Cubic>());
  net.add_flow(std::make_unique<Cubic>(), msec(100));
  net.run_until(sec(2));
  // The Network keeps every delivery, ACK and loss in growing time series
  // (the results are computed from them). Their amortized doublings are the
  // only allocations allowed; the packet path itself must make none.
  std::vector<const TimeSeries*> series = {&net.deliveries()};
  for (int i = 0; i < net.flow_count(); ++i) {
    series.push_back(&net.flow(i).acked_bytes_series());
    series.push_back(&net.flow(i).rtt_series());
    series.push_back(&net.flow(i).loss_series());
  }
  std::vector<std::size_t> capacity;
  for (const TimeSeries* ts : series) capacity.push_back(ts->points().capacity());
  g_allocations.store(0);
  g_counting.store(true);
  net.run_until(sec(3));
  g_counting.store(false);
  std::size_t growths = 0;
  for (std::size_t i = 0; i < series.size(); ++i)
    growths += vector_growths(capacity[i], series[i]->points().capacity());
  EXPECT_EQ(g_allocations.load(), growths)
      << "the Network packet path allocated in a steady-state simulated second";
}

TEST(ProfilerAllocation, DisabledSpanAllocatesNothing) {
  Profiler::instance().disable();
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    PROF_SCOPE("alloc_test.disabled");
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "a disabled PROF_SCOPE must be a relaxed load + branch, nothing else";
}

TEST(ProfilerAllocation, EnabledSteadyStateSpanAllocatesNothing) {
  Profiler::instance().disable();
  Profiler::instance().reset();
  Profiler::instance().enable();
  {
    // Warm-up: creates the thread's tree and the nodes for this path.
    PROF_SCOPE("alloc_test.outer");
    PROF_SCOPE("alloc_test.inner");
  }
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    PROF_SCOPE("alloc_test.outer");
    PROF_SCOPE("alloc_test.inner");
  }
  g_counting.store(false);
  Profiler::instance().disable();
  Profiler::instance().reset();
  EXPECT_EQ(g_allocations.load(), 0u)
      << "re-entering an existing tree path must not allocate";
}

}  // namespace
}  // namespace libra
