// Fleet-scale scenario runner CLI.
//
// Runs one fleet topology (incast or parking lot) under the serial or the
// sharded engine and prints a deterministic JSON summary: every field is an
// exact function of the simulated run (wall time is reported separately on
// stderr), so `fleet_run --mode=serial ...` and `fleet_run --mode=sharded
// --threads=N ...` must emit byte-identical documents — check.sh diffs them.
//
//   fleet_run --topo=incast --flows=100 --cca=cubic --mode=sharded --threads=4
//   fleet_run --topo=parking_lot --hops=4 --flows=64 --duration=5 --churn
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/fleet_scenario.h"
#include "harness/zoo.h"
#include "obs/json.h"
#include "util/parse_number.h"

namespace libra {
namespace {

struct Options {
  std::string topo = "incast";
  std::string cca = "cubic";
  int flows = 100;
  int hops = 4;
  int long_flows = 4;
  double rate_mbps = 0;  // 0 (unset): topology default
  double duration_s = 10;
  double warmup_s = 1;
  std::string mode = "serial";
  std::size_t threads = 0;
  int sender_shards = 0;
  bool churn = false;
  std::uint64_t seed = 1;
  bool events_only = false;
  bool soa = true;
  double stagger_ms = -1;  // <0: topology default
  std::int64_t buffer_bytes = 0;  // 0 (unset): topology default
  bool health = false;
  std::size_t record = 0;  // >0: black-box ring capacity (events)
  std::int64_t ecn_bytes = 0;      // >0: ECN marking threshold (+ ECT senders)
  double policer_rate_mbps = 0;    // >0: token-bucket policer on every hop
  std::int64_t policer_burst = 30 * 1000;
  bool policer_mark = false;       // policer CE-marks instead of dropping
  double policer_start_s = 0;
  double policer_stop_s = -1;      // <0: policer active to end of run
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--topo=incast|parking_lot] [--flows=N] [--hops=H]\n"
         "       [--long-flows=N] [--cca=NAME] [--rate=MBPS] [--duration=S]\n"
         "       [--warmup=S] [--mode=serial|sharded] [--threads=N]\n"
         "       [--sender-shards=N] [--churn] [--seed=N] [--events-only]\n"
         "       [--soa=0|1] [--stagger=MS] [--buffer=BYTES] [--health]\n"
         "       [--record=EVENTS] [--ecn=BYTES] [--policer-rate=MBPS]\n"
         "       [--policer-burst=BYTES] [--policer-mark]\n"
         "       [--policer-start=S] [--policer-stop=S]\n\n"
         "Prints a deterministic JSON summary of the run on stdout (identical\n"
         "for serial and sharded modes at any thread count) and the\n"
         "host-dependent wall-clock stats on stderr.\n\n"
         "--health adds a \"health\" object: the windowed fleet timeline plus\n"
         "severity-ranked anomaly incidents (also mode-invariant).\n"
         "--record=N keeps a black-box ring of the last N trace events\n"
         "(bounded memory; serial mode only); ring stats go to stderr.\n";
  return 2;
}

// Returns false on an unknown flag; throws std::invalid_argument on a bad
// value.
bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--topo=")) {
      o.topo = v;
    } else if (const char* v = value("--cca=")) {
      o.cca = v;
    } else if (const char* v = value("--flows=")) {
      o.flows = number<int>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--hops=")) {
      o.hops = number<int>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--long-flows=")) {
      o.long_flows = number<int>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--rate=")) {
      o.rate_mbps = number<double>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--duration=")) {
      o.duration_s = number<double>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--warmup=")) {
      o.warmup_s = number<double>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--mode=")) {
      o.mode = v;
    } else if (const char* v = value("--threads=")) {
      o.threads = number<std::size_t>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--sender-shards=")) {
      o.sender_shards = number<int>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--seed=")) {
      o.seed = number<std::uint64_t>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--soa=")) {
      const int soa = number<int>(arg, v, NumberRange::kNonNegative);
      if (soa > 1) throw std::invalid_argument(arg + ": expected 0 or 1");
      o.soa = soa == 1;
    } else if (const char* v = value("--stagger=")) {
      o.stagger_ms = number<double>(arg, v);
    } else if (const char* v = value("--buffer=")) {
      o.buffer_bytes = number<std::int64_t>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--record=")) {
      o.record = number<std::size_t>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--ecn=")) {
      o.ecn_bytes = number<std::int64_t>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--policer-rate=")) {
      o.policer_rate_mbps = number<double>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--policer-burst=")) {
      o.policer_burst = number<std::int64_t>(arg, v, NumberRange::kPositive);
    } else if (const char* v = value("--policer-start=")) {
      o.policer_start_s = number<double>(arg, v, NumberRange::kNonNegative);
    } else if (const char* v = value("--policer-stop=")) {
      o.policer_stop_s = number<double>(arg, v);
    } else if (arg == "--policer-mark") {
      o.policer_mark = true;
    } else if (arg == "--health") {
      o.health = true;
    } else if (arg == "--churn") {
      o.churn = true;
    } else if (arg == "--events-only") {
      o.events_only = true;
    } else {
      return false;
    }
  }
  return true;
}

int run(const Options& o) {
  FleetSpec spec;
  if (o.topo == "incast") {
    spec = incast_fleet(o.flows, o.rate_mbps > 0 ? o.rate_mbps : 960.0);
  } else if (o.topo == "parking_lot") {
    const int cross = std::max(1, o.flows / std::max(1, o.hops));
    spec = parking_lot_fleet(o.hops, cross, o.long_flows,
                             o.rate_mbps > 0 ? o.rate_mbps : 96.0);
  } else {
    std::cerr << "unknown --topo=" << o.topo << "\n";
    return 2;
  }
  if (o.duration_s >= to_seconds(kSimTimeMax) / 2)
    throw std::invalid_argument("--duration is beyond the simulator clock");
  spec.duration = static_cast<SimDuration>(o.duration_s * 1e6);
  spec.warmup = static_cast<SimDuration>(o.warmup_s * 1e6);
  // The summary measures [warmup, duration); an empty window reads as zeros.
  if (!o.events_only && spec.warmup >= spec.duration)
    throw std::invalid_argument("--warmup must be below --duration");
  if (o.stagger_ms >= 0)
    spec.stagger = static_cast<SimDuration>(o.stagger_ms * 1e3);
  spec.sender_shards = o.sender_shards;
  spec.churn.enabled = o.churn;
  if (o.buffer_bytes > 0) spec.buffer_bytes = o.buffer_bytes;
  spec.ecn_threshold_bytes = o.ecn_bytes;
  spec.policer_rate_mbps = o.policer_rate_mbps;
  spec.policer_burst_bytes = o.policer_burst;
  spec.policer_marks = o.policer_mark;
  spec.policer_start = static_cast<SimTime>(o.policer_start_s * 1e6);
  spec.policer_stop = o.policer_stop_s < 0
                          ? kSimTimeMax
                          : static_cast<SimTime>(o.policer_stop_s * 1e6);

  FleetRunOptions run_opts;
  if (o.mode == "sharded") {
    run_opts.mode = FleetMode::kSharded;
  } else if (o.mode != "serial") {
    std::cerr << "unknown --mode=" << o.mode << "\n";
    return 2;
  }
  run_opts.threads = o.threads;
  run_opts.soa_scan = o.soa;
  run_opts.health = o.health;
  run_opts.record_capacity = o.record;

  CcaZoo zoo;
  FleetObsResult obs;
  const FleetSummary s =
      run_fleet(spec, zoo.factory(o.cca), o.seed, run_opts, &obs);

  if (o.events_only) {
    std::printf("%llu\n", static_cast<unsigned long long>(s.events_processed));
  } else {
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.key("scenario").value(spec.name);
    w.key("cca").value(o.cca);
    w.key("seed").value(o.seed);
    w.key("flows").value(static_cast<std::uint64_t>(s.flows.size()));
    w.key("sim_time_s").value(s.sim_time_s);
    w.key("window_s").value(s.window_s);
    w.key("events").value(s.events_processed);
    w.key("total_throughput_bps").value(s.total_throughput_bps);
    w.key("avg_delay_ms").value(s.avg_delay_ms);
    w.key("jain_fairness").value(s.jain_fairness);
    w.key("hop_utilization");
    w.begin_array();
    for (double u : s.hop_utilization) w.value(u);
    w.end_array();
    w.key("per_flow");
    w.begin_array();
    for (const FleetFlowSummary& f : s.flows) {
      w.begin_object();
      w.key("throughput_bps").value(f.throughput_bps);
      w.key("avg_rtt_ms").value(f.avg_rtt_ms);
      w.key("loss_rate").value(f.loss_rate);
      w.key("completion_s").value(f.completion_s);
      w.end_object();
    }
    w.end_array();
    if (o.health) {
      w.key("health");
      write_health_json(w, obs.health);
    }
    w.end_object();
    std::printf("%s\n", out.c_str());
  }
  std::fprintf(stderr, "wall_s=%.3f events_per_wall_s=%.0f mode=%s threads=%zu\n",
               s.wall_time_s, s.events_per_wall_s(), o.mode.c_str(), o.threads);
  // Per-shard event counts + imbalance (max/mean): the data sharded-speedup
  // investigations need to tell skew from overhead. Deterministic, but kept
  // on stderr with the wall stats so stdout stays the byte-diffed summary.
  if (!obs.shard_events.empty()) {
    std::uint64_t total = 0, max_ev = 0;
    std::string list;
    for (std::size_t i = 0; i < obs.shard_events.size(); ++i) {
      const std::uint64_t n = obs.shard_events[i];
      total += n;
      if (n > max_ev) max_ev = n;
      if (i) list += ',';
      list += std::to_string(n);
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(obs.shard_events.size());
    std::fprintf(stderr, "shards=%zu shard_events=%s imbalance=%.3f\n",
                 obs.shard_events.size(), list.c_str(),
                 mean > 0 ? static_cast<double>(max_ev) / mean : 0.0);
  }
  if (o.record > 0) {
    std::fprintf(stderr,
                 "trace recorded=%llu overwritten=%llu buffered=%llu cap=%zu\n",
                 static_cast<unsigned long long>(obs.trace_recorded),
                 static_cast<unsigned long long>(obs.trace_overwritten),
                 static_cast<unsigned long long>(obs.trace_buffered), o.record);
  }
  return 0;
}

}  // namespace
}  // namespace libra

int main(int argc, char** argv) {
  // Bad input (a malformed or out-of-range value, or a spec the fleet
  // rejects) exits 2 with a message, like an unknown flag.
  try {
    libra::Options opts;
    if (!libra::parse_args(argc, argv, opts)) return libra::usage(argv[0]);
    return libra::run(opts);
  } catch (const std::logic_error& e) {
    std::cerr << "fleet_run: " << e.what() << "\n";
    return 2;
  }
}
