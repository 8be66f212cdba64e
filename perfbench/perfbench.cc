// The repo benchmark: one workload per process, driven through the public
// harness entry points only (run_many, run_fleet, CcaZoo), so it keeps
// working while the engines underneath are rewritten.
//
//   perfbench --workload paper_mix|fleet_incast --seed N --seconds S
//             --trace 0|1 [--git-sha SHA]
//
// Each workload is a short list of cases generated from --seed. Setup runs
// three times (median reported as setup_s); then the cases are visited round
// robin until --seconds have elapsed, every output is checked, and timings
// are taken as per-case medians so one descheduled repeat cannot move them.
//
// Untraced (--trace 0) prints the end-to-end metrics. Traced (--trace 1)
// spends half the time untraced and half with per-layer instrumentation
// attached from outside (MeteredCca, RunRequest::inspect, Libra::rl_overhead,
// FleetObsResult::shard_events), runs the layer probes (event queue, PPO
// update, greedy inference), and prints the per-layer metrics with
// the tracing overhead and the closure residual.
//
// Every visit of a case must reproduce that case's simulated-output digest,
// and the traced pass must reproduce the untraced one. The last stdout line
// is one JSON object {"correct","attempted","failed","metrics"}; the lines
// before it are for people. README.md says why each workload exists.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "classic/cubic.h"
#include "core/libra.h"
#include "harness/fleet_scenario.h"
#include "harness/metered.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "harness/zoo.h"
#include "learned/libra_rl.h"
#include "obs/json.h"
#include "rl/simd.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "trace/lte_model.h"
#include "util/rng.h"

namespace libra {
namespace {

// --- Workload shapes ---------------------------------------------------------
// Fixed here, not by flags: results are only comparable between runs made
// from the same shapes.

// paper_mix: the CCA field of the paper's figures over its path families, at
// each scenario's own duration. One case: the whole batch.
const char* const kMixCcas[] = {"cubic", "bbr",     "copa",    "vivace",
                                "orca",  "c-libra", "b-libra", "cl-libra"};
constexpr int kMixSeedsPerCell = 6;  // 8 CCAs x 5 paths x 6 = 240 runs per batch
// run_many's workers. With every vCPU of a shared host busy, run walls
// followed the host's load (README.md, "Host and steadiness"); two workers
// leave headroom and still show pool packing and stragglers.
constexpr std::size_t kMixWorkers = 2;
constexpr int kMixSetupEpisodes = 16;  // two rollout rounds per brain

// fleet_incast: ROADMAP item 3's target shape; cases are churn plans.
constexpr int kFleetFlows = 1000;
constexpr int kFleetSenderShards = 3;
constexpr SimDuration kFleetDuration = sec(10);  // the 10 ms stagger fills 1000 flows
constexpr SimDuration kFleetWarmupRun = sec(2);  // setup's warm-up run
constexpr int kFleetCases = 4;

constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kWarmupSeed = 1;
constexpr double kUtilizationSlack = 1e-3;

/// The end-to-end metrics, printed on every workload (README.md defines each
/// one per workload).
const char* const kEndToEnd[][2] = {{"setup_s", "s"},
                                    {"sim_s_per_s", "s/s"},
                                    {"run_ms_p50", "ms"},
                                    {"run_ms_p90", "ms"},
                                    {"peak_rss_mb", "MB"}};

/// The per-layer metrics of the traced run; a layer a workload does not
/// exercise reads 0 there.
const char* const kPerLayer[][2] = {
    {"harness.pack_eff", "ratio"},
    {"harness.run_ms_max", "ms"},
    {"harness.setup.brains_s", "s"},
    {"harness.setup.inputs_s", "s"},
    {"sim.events", "count"},
    {"sim.engine_ns_per_event", "ns"},
    {"sim.event_queue_ns_per_item", "ns"},
    {"sim.acked_per_sent", "ratio"},
    {"sim.link.drops", "count"},
    {"sim.link.max_queue_bytes", "bytes"},
    {"sim.fleet.max_shard_share", "ratio"},
    {"sim.fleet.shard_overhead_s", "s"},
    {"sim.fleet.speedup", "ratio"},
    {"sim.fleet.sharded_sim_s_per_s", "s/s"},
    {"classic.cubic.ns_per_call", "ns"},
    {"classic.cubic.calls", "count"},
    {"classic.bbr.ns_per_call", "ns"},
    {"classic.bbr.calls", "count"},
    {"classic.copa.ns_per_call", "ns"},
    {"classic.copa.calls", "count"},
    {"core.libra.ns_per_call", "ns"},
    {"core.libra.cycles", "count"},
    {"core.libra.rl_share", "ratio"},
    {"learned.rl_ns_per_decision", "ns"},
    {"learned.orca.ns_per_call", "ns"},
    {"learned.vivace.ns_per_call", "ns"},
    {"rl.ppo_update_ms", "ms"},
    {"rl.updates", "count"},
    {"rl.update_share", "ratio"},
    {"rl.act_greedy_ns", "ns"},
    {"rl.episodes_per_s", "1/s"},
    {"obs.health_overhead_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
    {"closure.residual_frac", "ratio"},
};

using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Sum over cases of each case's median: one typical round of all cases.
double sum_of_medians(const std::vector<std::vector<double>>& per_case) {
  double s = 0;
  for (const std::vector<double>& v : per_case) s += median(v);
  return s;
}

/// FNV-1a over the bit patterns of deterministic simulated fields.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Operation accounting shared by every workload. An operation fails when it
/// throws or any of its output checks fails. A case whose digest changes
/// between visits is a determinism failure no single operation owns; it
/// clears `consistent`.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool consistent = true;
  std::vector<std::string> case_digests;  // first visit of each case

  void fail(const std::string& what) {
    if (failed < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    ++failed;
  }
  void visit_digest(std::size_t c, const std::string& d) {
    if (case_digests.size() <= c) case_digests.resize(c + 1);
    if (case_digests[c].empty()) {
      case_digests[c] = d;
    } else if (d != case_digests[c]) {
      std::fprintf(stderr, "perfbench: case %zu digest %s differs from its first visit %s\n",
                   c, d.c_str(), case_digests[c].c_str());
      consistent = false;
    }
  }
  std::string digest() const {
    Digest d;
    for (const std::string& c : case_digests) d.add(c);
    return d.hex();
  }
};

/// Peak resident set size since the previous call, in MB: reads VmHWM, then
/// returns freed heap to the OS (so one visit's allocator slack does not
/// carry into the next) and resets the mark through /proc/self/clear_refs.
/// Where the reset is refused the value is the process-lifetime peak.
double take_peak_rss_mb() {
  double kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) kb = std::strtod(line.c_str() + 6, nullptr);
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return kb / 1024.0;
}

/// Visits cases round robin until `seconds` have passed and every case has
/// run at least once; stops early when `op` returns false (a failed case).
/// Returns each visit's peak resident set size in MB.
template <typename Op>
std::vector<double> visit_cases(std::size_t cases, double seconds, Op&& op) {
  std::vector<double> peak_mb;
  take_peak_rss_mb();
  auto start = Clock::now();
  for (std::size_t v = 0; v < cases || seconds_since(start) < seconds; ++v) {
    const bool ok = op(v % cases);
    peak_mb.push_back(take_peak_rss_mb());
    if (!ok) break;
  }
  return peak_mb;
}

/// Each case's median over its visits.
std::vector<double> case_medians(const std::vector<std::vector<double>>& per_case,
                                 double scale) {
  std::vector<double> out;
  for (const std::vector<double>& v : per_case)
    if (!v.empty()) out.push_back(median(v) * scale);
  return out;
}

std::size_t workers() { return default_pool().thread_count(); }

/// paper_mix's run_many workers: kMixWorkers, capped by the process pool's
/// size (LIBRA_THREADS).
std::size_t mix_workers() { return std::min(kMixWorkers, workers()); }

std::string brain_text(const RlBrain& brain) {
  std::ostringstream out;
  brain.agent.save(out);
  brain.normalizer.save(out);
  return out.str();
}

// --- Layer probes (traced run only) ------------------------------------------

/// ns per schedule+run of an ACK-sized closure (a Packet plus two words), the
/// shape the data path schedules per delivery.
double probe_event_queue_ns() {
  struct AckContext {
    Packet pkt;
    void* owner = nullptr;
    std::size_t idx = 0;
  };
  constexpr int kCycles = 200, kEvents = 1000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    for (int c = 0; c < kCycles; ++c) {
      EventQueue q;
      for (int i = 0; i < kEvents; ++i) {
        AckContext ctx;
        ctx.pkt.seq = static_cast<std::uint64_t>(i);
        ctx.owner = &sink;
        ctx.idx = static_cast<std::size_t>(i);
        q.schedule_at(i, [ctx, &sink] { sink += ctx.pkt.seq + ctx.idx; });
      }
      q.run_until(2 * kEvents);
    }
    samples.push_back(seconds_since(t0) * 1e9 / (kCycles * kEvents));
    if (sink == 0) throw std::runtime_error("event queue probe ran nothing");
  }
  return median(samples);
}

/// The zoo's PPO shape (libra-rl features, ZooConfig::hidden_width).
PpoConfig zoo_ppo_config(std::uint64_t seed) {
  const std::size_t h = ZooConfig{}.hidden_width;
  return make_ppo_config(libra_rl_config(), seed, {h, h});
}

/// ms per PpoAgent::flush_update on a full horizon (refilled off the clock).
double probe_ppo_update_ms() {
  PpoConfig cfg = zoo_ppo_config(3);
  cfg.collect_only = true;
  PpoAgent agent(cfg);
  Rng rng(5);
  Vector s(cfg.state_dim);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    while (agent.buffered_transitions() < cfg.horizon) {
      for (double& v : s) v = rng.uniform(-1.0, 1.0);
      agent.give_reward(-std::abs(agent.act(s) - s[0]));
    }
    auto t0 = Clock::now();
    agent.flush_update(0.0);
    samples.push_back(seconds_since(t0) * 1e3);
  }
  return median(samples);
}

/// ns per PpoAgent::act_greedy, the frozen-policy inference paper_mix runs.
double probe_act_greedy_ns() {
  PpoAgent agent(zoo_ppo_config(3));
  Vector s(agent.config().state_dim, 0.1);
  constexpr int kIters = 20000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    double acc = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      s[0] = 1e-5 * i;
      acc += agent.act_greedy(s);
    }
    samples.push_back(seconds_since(t0) * 1e9 / kIters);
    if (!std::isfinite(acc)) throw std::runtime_error("act_greedy probe not finite");
  }
  return median(samples);
}

// --- Output ------------------------------------------------------------------

struct Report {
  Values end_to_end;
  Values per_layer;
  std::vector<std::string> notes;  // human-readable extras
  Tally tally;
  bool traced_digest_matches = true;
};

/// Runs `setup` kSetupRepeats times; returns the median wall time.
template <typename Fn>
double setup_median(Fn&& setup) {
  std::vector<double> t;
  for (int r = 0; r < kSetupRepeats; ++r) {
    auto t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// --- paper_mix ---------------------------------------------------------------

struct MixSetup {
  std::unique_ptr<CcaZoo> zoo;
  std::vector<RunRequest> requests;
  std::vector<int> cca_of;  // kMixCcas index per request
  double brains_s = 0, inputs_s = 0;
  int brain_updates = 0;
  std::string brains_digest;
};

MixSetup mix_setup(std::uint64_t seed) {
  MixSetup m;
  auto t0 = Clock::now();
  // The brains are the paper's offline-trained agents: a fixed artifact of
  // the zoo's own seed, so --seed varies the paths, not the policies.
  ZooConfig cfg;
  cfg.brain_dir = "";
  cfg.train_episodes = kMixSetupEpisodes;
  m.zoo = std::make_unique<CcaZoo>(cfg);
  Digest d;
  for (const char* family : {"libra-rl", "orca"}) {
    auto brain = m.zoo->brain(family);
    d.add(brain_text(*brain));
    m.brain_updates += brain->agent.update_count();
  }
  m.brains_digest = d.hex();
  m.brains_s = seconds_since(t0);

  t0 = Clock::now();
  const std::vector<Scenario> scenarios = {
      wired_scenario(24), wired_scenario(96), lte_scenario(LteProfile::kDriving, "lte-driving"),
      wan_inter_continental(), step_scenario()};
  std::uint64_t run_seed = seed * 1000003ull;
  for (const Scenario& sc : scenarios) {
    for (int c = 0; c < static_cast<int>(std::size(kMixCcas)); ++c) {
      CcaFactory f = m.zoo->factory(kMixCcas[c]);
      for (int k = 0; k < kMixSeedsPerCell; ++k) {
        m.requests.push_back(RunRequest::single(sc, f, ++run_seed));
        m.cca_of.push_back(c);
      }
    }
  }
  m.inputs_s = seconds_since(t0);
  return m;
}

/// Output checks for one run; returns "" when the summary is plausible.
std::string check_run(const RunSummary& s, const Scenario& sc) {
  for (double v : {s.link_utilization, s.avg_delay_ms, s.total_throughput_bps, s.sim_time_s})
    if (!std::isfinite(v)) return "non-finite summary";
  if (s.flows.empty()) return "no flows";
  if (s.total_throughput_bps <= 0) return "throughput <= 0";
  if (s.link_utilization > 1 + kUtilizationSlack) return "utilization > 1";
  if (s.avg_delay_ms < to_msec(sc.min_rtt)) return "delay below min RTT";
  return "";
}

void digest_run(Digest& d, const RunSummary& s) {
  for (double v : {s.link_utilization, s.avg_delay_ms, s.total_throughput_bps, s.sim_time_s})
    d.add(v);
  for (const FlowSummary& f : s.flows)
    for (double v : {f.throughput_bps, f.avg_rtt_ms, f.loss_rate}) d.add(v);
}

/// Per-run instrumentation, filled on the worker that executes the run.
struct RunProbe {
  std::shared_ptr<OverheadMeter> meter = std::make_shared<OverheadMeter>();
  Libra* libra = nullptr;  // owned by the run's network; read in inspect
  std::int64_t rl_busy_ns = 0, rl_calls = 0, cycles = 0;
  std::uint64_t events = 0;
  std::int64_t sent = 0, acked = 0, drops = 0;
  double max_queue_bytes = 0;
};

std::vector<RunRequest> instrument(const std::vector<RunRequest>& plain,
                                   std::vector<RunProbe>& probes) {
  probes = std::vector<RunProbe>(plain.size());  // one meter per run
  std::vector<RunRequest> out = plain;
  for (std::size_t i = 0; i < out.size(); ++i) {
    RunProbe* p = &probes[i];
    CcaFactory inner = out[i].flows.at(0).make_cca;
    out[i].flows[0].make_cca = [inner, p]() -> std::unique_ptr<CongestionControl> {
      std::unique_ptr<CongestionControl> cca = inner();
      p->libra = dynamic_cast<Libra*>(cca.get());
      return std::make_unique<MeteredCca>(std::move(cca), p->meter);
    };
    out[i].inspect = [p](const Network& net) {
      p->events = net.events().processed();
      const MetricsRegistry& m = net.metrics();
      auto counter = [&m](const char* name) -> std::int64_t {
        auto it = m.counters().find(name);
        return it == m.counters().end() ? 0 : it->second.value();
      };
      p->sent = counter("flow.packets_sent");
      p->acked = counter("flow.packets_acked");
      p->drops = counter("link.drops_overflow") + counter("link.drops_wire");
      if (auto it = m.gauges().find("link.max_queue_bytes"); it != m.gauges().end())
        p->max_queue_bytes = it->second.max();
      if (p->libra) {
        p->rl_busy_ns = p->libra->rl_overhead().busy_nanoseconds();
        p->rl_calls = p->libra->rl_overhead().invocations();
        p->cycles = p->libra->decision_counts().total();
      }
    };
  }
  return out;
}

struct MixPass {
  double batch_sim_s = 0;
  std::vector<double> batch_wall_s;     // per batch, around run_many
  std::vector<double> batch_busy_s;     // per batch, sum of run walls
  std::vector<std::vector<double>> run_wall_s;  // per request, per batch
  std::vector<RunProbe> probes;         // last batch (traced pass only)
  std::vector<double> peak_mb;          // per batch
};

MixPass mix_pass(const MixSetup& m, ThreadPool& pool, double seconds, Tally& tally,
                 bool traced) {
  MixPass pass;
  pass.run_wall_s.resize(m.requests.size());
  pass.peak_mb = visit_cases(1, seconds, [&](std::size_t) {
    std::vector<RunRequest> instrumented;
    if (traced) instrumented = instrument(m.requests, pass.probes);
    const std::vector<RunRequest>& batch = traced ? instrumented : m.requests;
    tally.attempted += static_cast<std::int64_t>(batch.size());
    std::vector<RunSummary> out;
    auto t0 = Clock::now();
    try {
      out = run_many(batch, pool);
    } catch (const std::exception& e) {
      // run_many rethrows after the batch drains; its runs are not reported.
      tally.fail(std::string("paper_mix batch: ") + e.what());
      tally.failed += static_cast<std::int64_t>(batch.size()) - 1;
      return false;
    }
    pass.batch_wall_s.push_back(seconds_since(t0));
    Digest d;
    d.add(m.brains_digest);
    double busy = 0, sim = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const RunSummary& s = out[i];
      const std::string why = check_run(s, m.requests[i].scenario);
      if (!why.empty())
        tally.fail(m.requests[i].scenario.name + "/" + kMixCcas[m.cca_of[i]] + ": " + why);
      digest_run(d, s);
      sim += s.sim_time_s;
      busy += s.wall_time_s;
      pass.run_wall_s[i].push_back(s.wall_time_s);
    }
    pass.batch_sim_s = sim;
    pass.batch_busy_s.push_back(busy);
    tally.visit_digest(0, d.hex());
    return true;
  });
  return pass;
}

Report run_paper_mix(std::uint64_t seed, double seconds, bool trace) {
  Report r;
  MixSetup m;
  std::string first_brains;
  const double setup_s = setup_median([&] {
    m = mix_setup(seed);
    if (first_brains.empty()) first_brains = m.brains_digest;
    if (m.brains_digest != first_brains) {
      std::fprintf(stderr, "perfbench: setup brains differ between repeats\n");
      r.tally.consistent = false;
    }
  });
  ThreadPool pool(mix_workers());
  const double untraced_s = trace ? seconds / 2 : seconds;
  const MixPass plain = mix_pass(m, pool, untraced_s, r.tally, false);
  if (plain.batch_wall_s.empty()) return r;
  const std::vector<double> run_ms = case_medians(plain.run_wall_s, 1e3);
  const double batch_wall = median(plain.batch_wall_s);

  r.end_to_end = {{"setup_s", setup_s},
                  {"sim_s_per_s", ratio(plain.batch_sim_s, batch_wall)},
                  {"run_ms_p50", median(run_ms)},
                  {"run_ms_p90", percentile(run_ms, 0.9)},
                  {"peak_rss_mb", median(plain.peak_mb)}};
  r.notes.push_back(std::to_string(plain.batch_wall_s.size()) + " batches of " +
                    std::to_string(m.requests.size()) + " runs on " +
                    std::to_string(pool.thread_count()) + " workers; run_ms over " +
                    std::to_string(run_ms.size()) + " per-run medians");
  if (!trace) return r;

  const std::string plain_digest = r.tally.digest();
  const MixPass traced = mix_pass(m, pool, seconds - untraced_s, r.tally, true);
  r.traced_digest_matches = r.tally.consistent && r.tally.digest() == plain_digest;
  if (traced.batch_wall_s.empty()) return r;

  // Aggregate the last traced batch per CCA and per layer.
  struct Agg {
    double busy_ns = 0, calls = 0;
    double per_call() const { return ratio(busy_ns, calls); }
  };
  std::vector<Agg> by_cca(std::size(kMixCcas));
  Agg libra, rl, all;
  double cycles = 0, sent = 0, acked = 0, drops = 0, events = 0, max_q = 0;
  for (std::size_t i = 0; i < traced.probes.size(); ++i) {
    const RunProbe& p = traced.probes[i];
    const Agg run{static_cast<double>(p.meter->busy_nanoseconds()),
                  static_cast<double>(p.meter->invocations())};
    for (Agg* a : {&by_cca[m.cca_of[i]], &all}) {
      a->busy_ns += run.busy_ns;
      a->calls += run.calls;
    }
    if (p.libra) {
      libra.busy_ns += run.busy_ns;
      libra.calls += run.calls;
      rl.busy_ns += static_cast<double>(p.rl_busy_ns);
      rl.calls += static_cast<double>(p.rl_calls);
      cycles += static_cast<double>(p.cycles);
    }
    events += static_cast<double>(p.events);
    sent += static_cast<double>(p.sent);
    acked += static_cast<double>(p.acked);
    drops += static_cast<double>(p.drops);
    max_q = std::max(max_q, p.max_queue_bytes);
  }
  const double busy_ns = traced.batch_busy_s.back() * 1e9;
  const double eq_ns = probe_event_queue_ns();
  const double update_ms = probe_ppo_update_ms();
  std::vector<double> pack;
  for (std::size_t b = 0; b < plain.batch_wall_s.size(); ++b)
    pack.push_back(ratio(plain.batch_busy_s[b],
                         static_cast<double>(pool.thread_count()) * plain.batch_wall_s[b]));
  // Closure: the simulations' busy time vs the counted layers, i.e. the CCA
  // callbacks (metered) plus one event-queue item per processed event.
  const double counted_ns = all.busy_ns + events * eq_ns;
  r.per_layer = {
      {"harness.pack_eff", median(pack)},
      {"harness.run_ms_max", *std::max_element(run_ms.begin(), run_ms.end())},
      {"harness.setup.brains_s", m.brains_s},
      {"harness.setup.inputs_s", m.inputs_s},
      {"sim.events", events},
      {"sim.engine_ns_per_event", ratio(busy_ns - all.busy_ns, events)},
      {"sim.event_queue_ns_per_item", eq_ns},
      {"sim.acked_per_sent", ratio(acked, sent)},
      {"sim.link.drops", drops},
      {"sim.link.max_queue_bytes", max_q},
      {"classic.cubic.ns_per_call", by_cca[0].per_call()},
      {"classic.cubic.calls", by_cca[0].calls},
      {"classic.bbr.ns_per_call", by_cca[1].per_call()},
      {"classic.bbr.calls", by_cca[1].calls},
      {"classic.copa.ns_per_call", by_cca[2].per_call()},
      {"classic.copa.calls", by_cca[2].calls},
      {"learned.vivace.ns_per_call", by_cca[3].per_call()},
      {"learned.orca.ns_per_call", by_cca[4].per_call()},
      {"core.libra.ns_per_call", libra.per_call()},
      {"core.libra.cycles", cycles},
      {"core.libra.rl_share", ratio(rl.busy_ns, libra.busy_ns)},
      {"learned.rl_ns_per_decision", rl.per_call()},
      {"rl.ppo_update_ms", update_ms},
      {"rl.updates", static_cast<double>(m.brain_updates)},
      {"rl.update_share", ratio(m.brain_updates * update_ms / 1e3,
                                static_cast<double>(workers()) * m.brains_s)},
      {"rl.act_greedy_ns", probe_act_greedy_ns()},
      {"rl.episodes_per_s", ratio(2.0 * kMixSetupEpisodes, m.brains_s)},
      {"bench.trace_overhead_frac", ratio(median(traced.batch_wall_s), batch_wall) - 1},
      {"closure.residual_frac", 1 - ratio(counted_ns, busy_ns)},
  };
  return r;
}

// --- fleet_incast ------------------------------------------------------------

FleetSpec fleet_spec(SimDuration duration) {
  FleetSpec spec = incast_fleet(kFleetFlows);
  spec.churn.enabled = true;
  spec.sender_shards = kFleetSenderShards;
  spec.duration = duration;
  return spec;
}

std::string check_fleet(const FleetSummary& s, const FleetObsResult& obs) {
  for (double v : {s.sim_time_s, s.total_throughput_bps, s.avg_delay_ms, s.jain_fairness})
    if (!std::isfinite(v)) return "non-finite summary";
  if (s.total_throughput_bps <= 0) return "throughput <= 0";
  if (s.jain_fairness <= 0 || s.jain_fairness > 1 + 1e-9) return "jain outside (0, 1]";
  for (double u : s.hop_utilization)
    if (!std::isfinite(u) || u > 1 + kUtilizationSlack) return "hop utilization > 1";
  if (s.avg_delay_ms < obs.health.path_floor_rtt_ms) return "delay below path floor RTT";
  if (s.events_processed == 0) return "no events";
  return "";
}

std::string fleet_digest(const FleetSummary& s, const FleetObsResult& obs) {
  Digest d;
  for (double v : {s.sim_time_s, s.window_s, s.total_throughput_bps, s.avg_delay_ms,
                   s.jain_fairness})
    d.add(v);
  d.add(s.events_processed);
  for (double u : s.hop_utilization) d.add(u);
  for (const FleetFlowSummary& f : s.flows)
    for (double v : {f.throughput_bps, f.avg_rtt_ms, f.loss_rate, f.completion_s}) d.add(v);
  d.add(health_report_json(obs.health));
  for (std::uint64_t e : obs.shard_events) d.add(e);
  return d.hex();
}

struct FleetRun {
  FleetSummary summary;
  FleetObsResult obs;
  double wall_s = 0;  // around run_fleet: planning + build + run + summarize
};

/// One fleet run of CUBIC flows. A non-null `meter` wraps every flow in
/// MeteredCca; the flows share it, so metered runs must be serial.
FleetRun fleet_once(const FleetSpec& spec, std::uint64_t seed, FleetMode mode,
                    std::size_t threads, bool health,
                    const std::shared_ptr<OverheadMeter>& meter = nullptr) {
  FleetRunOptions opts;
  opts.mode = mode;
  opts.threads = threads;
  opts.health = health;
  CcaFactory make_cca = [meter]() -> std::unique_ptr<CongestionControl> {
    auto cubic = std::make_unique<Cubic>();
    if (!meter) return cubic;
    return std::make_unique<MeteredCca>(std::move(cubic), meter);
  };
  FleetRun r;
  auto t0 = Clock::now();
  r.summary = run_fleet(spec, make_cca, seed, opts, &r.obs);
  r.wall_s = seconds_since(t0);
  return r;
}

std::uint64_t case_seed(std::uint64_t seed, std::size_t c) {
  return seed * 1000003ull + c + 1;
}

struct FleetPass {
  // Per case, one entry per visit.
  std::vector<std::vector<double>> serial_s, sharded_s, serial_engine_s, sharded_engine_s;
  std::vector<double> sim_s;  // per case
  std::vector<double> peak_mb;  // per visit
  // Traced pass: totals over every visit's serial run.
  double visits = 0, busy_ns = 0, calls = 0, events = 0, engine_s = 0, sent = 0, lost = 0;
  std::vector<double> shard_events;

  explicit FleetPass(std::size_t cases)
      : serial_s(cases), sharded_s(cases), serial_engine_s(cases),
        sharded_engine_s(cases), sim_s(cases) {}
};

FleetPass fleet_pass(std::uint64_t seed, std::size_t threads, double seconds, Tally& tally,
                     bool traced) {
  const FleetSpec spec = fleet_spec(kFleetDuration);
  FleetPass pass(kFleetCases);
  pass.peak_mb = visit_cases(kFleetCases, seconds, [&](std::size_t c) {
    ++tally.attempted;
    const std::uint64_t s = case_seed(seed, c);
    try {
      auto meter = traced ? std::make_shared<OverheadMeter>() : nullptr;
      FleetRun serial = fleet_once(spec, s, FleetMode::kSerial, 0, true, meter);
      FleetRun sharded = fleet_once(spec, s, FleetMode::kSharded, threads, true);
      std::string why = check_fleet(serial.summary, serial.obs);
      if (why.empty() && !deterministically_equal(serial.summary, sharded.summary))
        why = "serial and sharded summaries differ";
      if (why.empty() &&
          health_report_json(serial.obs.health) != health_report_json(sharded.obs.health))
        why = "serial and sharded health reports differ";
      if (why.empty() && serial.obs.shard_events != sharded.obs.shard_events)
        why = "serial and sharded shard event counts differ";
      if (why.empty()) tally.visit_digest(c, fleet_digest(serial.summary, serial.obs));
      else tally.fail("fleet_incast case " + std::to_string(c) + ": " + why);
      pass.serial_s[c].push_back(serial.wall_s);
      pass.sharded_s[c].push_back(sharded.wall_s);
      pass.serial_engine_s[c].push_back(serial.summary.wall_time_s);
      pass.sharded_engine_s[c].push_back(sharded.summary.wall_time_s);
      pass.sim_s[c] = serial.summary.sim_time_s;
      if (traced) {
        ++pass.visits;
        pass.busy_ns += static_cast<double>(meter->busy_nanoseconds());
        pass.calls += static_cast<double>(meter->invocations());
        pass.events += static_cast<double>(serial.summary.events_processed);
        pass.engine_s += serial.summary.wall_time_s;
        for (const FleetWindowAgg& w : serial.obs.health.fleet) {
          pass.sent += static_cast<double>(w.sent);
          pass.lost += static_cast<double>(w.lost);
        }
        pass.shard_events.resize(serial.obs.shard_events.size());
        for (std::size_t i = 0; i < serial.obs.shard_events.size(); ++i)
          pass.shard_events[i] += static_cast<double>(serial.obs.shard_events[i]);
      }
      return true;
    } catch (const std::exception& e) {
      tally.fail(std::string("fleet_incast: ") + e.what());
      return false;
    }
  });
  return pass;
}

Report run_fleet_incast(std::uint64_t seed, double seconds, bool trace) {
  Report r;
  std::size_t threads = 0;
  double inputs_s = 0;
  const double setup_s = setup_median([&] {
    auto t0 = Clock::now();
    for (std::size_t c = 0; c < kFleetCases; ++c)
      if (plan_fleet_flows(fleet_spec(kFleetDuration), case_seed(seed, c)).size() <
          static_cast<std::size_t>(kFleetFlows))
        throw std::runtime_error("fleet plan has fewer flows than the spec");
    inputs_s = seconds_since(t0);
    // Warm-up run on a fixed plan, so setup cost does not vary with --seed:
    // allocator arenas, page faults, and the shard count that sizes the
    // sharded runs' threads.
    FleetRun w = fleet_once(fleet_spec(kFleetWarmupRun), kWarmupSeed, FleetMode::kSerial, 0, true);
    threads = std::min<std::size_t>(workers(), w.obs.shard_events.size());
  });
  const double untraced_s = trace ? seconds / 2 : seconds;
  const FleetPass plain = fleet_pass(seed, threads, untraced_s, r.tally, false);
  if (plain.serial_s[0].empty()) return r;
  const std::vector<double> serial_ms = case_medians(plain.serial_s, 1e3);
  const double serial_round = sum_of_medians(plain.serial_s);

  r.end_to_end = {{"setup_s", setup_s},
                  {"sim_s_per_s", ratio(sum(plain.sim_s), serial_round)},
                  {"run_ms_p50", median(serial_ms)},
                  {"run_ms_p90", percentile(serial_ms, 0.9)},
                  {"peak_rss_mb", median(plain.peak_mb)}};
  r.notes.push_back(std::to_string(plain.peak_mb.size()) + " serial + sharded fleet runs over " +
                    std::to_string(kFleetCases) + " churn plans; sharded at " +
                    std::to_string(threads) + " threads");
  if (!trace) return r;

  const std::string plain_digest = r.tally.digest();
  const FleetPass traced = fleet_pass(seed, threads, seconds - untraced_s, r.tally, true);
  r.traced_digest_matches = r.tally.consistent && r.tally.digest() == plain_digest;
  if (traced.events <= 0) return r;

  // Health cost: case 0's serial run again with health off (untraced).
  std::vector<double> no_health;
  for (int i = 0; i < 2; ++i)
    no_health.push_back(fleet_once(fleet_spec(kFleetDuration), case_seed(seed, 0),
                                   FleetMode::kSerial, 0, false)
                            .summary.wall_time_s);
  double shard_max = 0;
  for (double e : traced.shard_events) shard_max = std::max(shard_max, e);
  const double max_share = ratio(shard_max, sum(traced.shard_events));
  const double serial_engine = sum_of_medians(plain.serial_engine_s);
  const double sharded_engine = sum_of_medians(plain.sharded_engine_s);
  const double eq_ns = probe_event_queue_ns();
  // Closure: the serial engine's time vs CUBIC's callbacks (metered) plus
  // one event-queue item per processed event.
  const double counted_ns = traced.busy_ns + traced.events * eq_ns;
  r.per_layer = {
      {"harness.run_ms_max", *std::max_element(serial_ms.begin(), serial_ms.end())},
      {"harness.setup.inputs_s", inputs_s},
      {"sim.events", traced.events / traced.visits},
      {"sim.engine_ns_per_event", ratio(traced.engine_s * 1e9 - traced.busy_ns, traced.events)},
      {"sim.event_queue_ns_per_item", eq_ns},
      {"sim.acked_per_sent", ratio(traced.sent - traced.lost, traced.sent)},
      {"sim.link.drops", traced.lost / traced.visits},
      {"sim.fleet.max_shard_share", max_share},
      {"sim.fleet.shard_overhead_s", sharded_engine - serial_engine * max_share},
      {"sim.fleet.speedup", ratio(serial_engine, sharded_engine)},
      {"sim.fleet.sharded_sim_s_per_s",
       ratio(sum(plain.sim_s), sum_of_medians(plain.sharded_s))},
      {"classic.cubic.ns_per_call", ratio(traced.busy_ns, traced.calls)},
      {"classic.cubic.calls", traced.calls / traced.visits},
      {"rl.ppo_update_ms", probe_ppo_update_ms()},
      {"rl.act_greedy_ns", probe_act_greedy_ns()},
      {"obs.health_overhead_frac", ratio(median(plain.serial_engine_s[0]), median(no_health)) - 1},
      {"bench.trace_overhead_frac",
       ratio(sum_of_medians(traced.serial_s), serial_round) - 1},
      {"closure.residual_frac", 1 - ratio(counted_ns, traced.engine_s * 1e9)},
  };
  return r;
}

// --- Command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_mix|fleet_incast --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v, std::uint64_t max) {
  if (v.empty() || v.size() > 18 || v.find_first_not_of("0123456789") != std::string::npos)
    usage_error(flag + " needs a non-negative integer, got '" + v + "'");
  const std::uint64_t x = std::stoull(v);
  if (x > max) usage_error(flag + " out of range: " + v);
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string v;
    if (auto eq = a.find('='); eq != std::string::npos) {
      v = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      v = argv[++i];
    } else {
      usage_error("missing value for " + a);
    }
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = parse_uint(a, v, 1ull << 40);
    else if (a == "--seconds") o.seconds = static_cast<double>(parse_uint(a, v, 3600));
    else if (a == "--trace") o.trace = static_cast<int>(parse_uint(a, v, 1));
    else if (a == "--git-sha") o.git_sha = v;
    else usage_error("unknown flag " + a);
  }
  if (o.workload != "paper_mix" && o.workload != "fleet_incast")
    usage_error("unknown or missing --workload '" + o.workload + "'");
  if (o.seconds < 1) usage_error("--seconds must be at least 1");
  if (o.trace < 0) usage_error("--trace is required");
  return o;
}

/// CPUs this process may run on, as `nproc` counts them.
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      if (c != std::string::npos && c + 2 <= line.size()) return line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string label_json(const Options& o) {
  std::string doc;
  JsonWriter w(doc);
  const char* env_simd = std::getenv("LIBRA_SIMD");
  w.begin_object();
  w.key("nproc").value(static_cast<std::int64_t>(nproc()));
  w.key("threads").value(static_cast<std::int64_t>(
      o.workload == "paper_mix" ? mix_workers() : workers()));
  w.key("cpu_model").value(cpu_model());
  w.key("simd").value(simd::isa_name(simd::active()));
  w.key("libra_simd").value(env_simd ? env_simd : "");
  w.key("compiler").value(std::string("g++ ") + __VERSION__);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("git_sha").value(o.git_sha);
  w.end_object();
  return doc;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it rises
  // after the first large free, large buffers then stay in the heaps, and the
  // peak RSS of identical paper_mix batches depends on which runs each worker
  // held before (README.md, "Host and steadiness").
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const bool trace = o.trace == 1;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace);
  std::printf("label %s\n", label_json(o).c_str());
  std::fflush(stdout);

  Report r;
  try {
    if (o.workload == "paper_mix") r = run_paper_mix(o.seed, o.seconds, trace);
    else r = run_fleet_incast(o.seed, o.seconds, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
    return 1;
  }

  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  auto print = [](const auto& table, const Values& values) {
    for (const auto& [name, unit] : table) {
      auto it = values.find(name);
      std::printf("  %-32s %14.6g %s\n", name, it == values.end() ? 0.0 : it->second, unit);
    }
  };
  print(kEndToEnd, r.end_to_end);
  if (trace) print(kPerLayer, r.per_layer);
  std::printf("  %-32s %14.6g (%lld of %lld operations failed)\n", "error_rate",
              ratio(static_cast<double>(r.tally.failed), static_cast<double>(r.tally.attempted)),
              static_cast<long long>(r.tally.failed), static_cast<long long>(r.tally.attempted));
  std::printf("digest %s\n", r.tally.digest().c_str());
  if (trace)
    std::printf("traced digest %s the untraced one\n",
                r.traced_digest_matches ? "matches" : "DIFFERS FROM");

  const bool correct = r.tally.attempted > 0 && r.tally.failed == 0 && r.tally.consistent &&
                       r.traced_digest_matches;
  std::string doc;
  JsonWriter w(doc);
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(r.tally.attempted);
  w.key("failed").value(r.tally.failed);
  w.key("metrics");
  w.begin_object();
  auto emit = [&w](const auto& table, const Values& values) {
    for (const auto& [name, unit] : table) {
      auto it = values.find(name);
      w.key(name);
      w.begin_object();
      w.key("value").value(it == values.end() ? 0.0 : it->second);
      w.key("unit").value(unit);
      w.end_object();
    }
  };
  if (trace) emit(kPerLayer, r.per_layer);
  else emit(kEndToEnd, r.end_to_end);
  w.end_object();
  w.end_object();
  std::printf("%s\n", doc.c_str());
  return 0;
}

}  // namespace
}  // namespace libra

int main(int argc, char** argv) { return libra::run(argc, argv); }
