// record_run: records a short simulator run with the flight recorder
// streaming JSONL to a file, then prints the run summary as JSON. Uses
// inference-mode CCAs only (no RL training), so it runs in well under a
// second — the CI trace round-trip smoke test (scripts/check.sh) pipes its
// output through trace_summarize, and the telemetry smoke leg feeds its
// telemetry dumps to report_html.
//
//   record_run [--out=trace.jsonl] [--cca=cubic|bbr|libra] [--rate=MBPS]
//              [--duration=SECS] [--seed=N] [--flows=N] [--meta] [--profile]
//              [--no-trace] [--telemetry=FILE.jsonl] [--telemetry-bin=FILE.bin]
//              [--sample-ms=MS]
//
// --meta appends the end-of-run "run" metadata event (wall/sim time) to the
// trace; off by default so default traces stay byte-identical per seed.
// --profile enables the in-process profiler and prints its call-tree report
// to stderr after the run.
// --no-trace disables the flight recorder entirely (telemetry-only runs and
// clean overhead measurements). --telemetry/--telemetry-bin enable the
// columnar sampler and dump it post-run; --sample-ms sets its interval.
// stderr always reports events processed and events/s, so overhead of the
// sampler is measurable by diffing two invocations.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "core/factory.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/profiler.h"
#include "util/parse_number.h"

namespace {

constexpr const char* kUsage =
    "usage: record_run [--out=trace.jsonl] [--cca=cubic|bbr|libra] "
    "[--rate=MBPS] [--duration=SECS] [--seed=N] [--flows=N] [--meta] "
    "[--profile] [--no-trace] [--telemetry=FILE.jsonl] "
    "[--telemetry-bin=FILE.bin] [--sample-ms=MS]\n";

// The summary measures [kWarmup, duration).
constexpr libra::SimDuration kWarmup = libra::sec(1);

int run(int argc, char** argv) {
  using namespace libra;
  std::string out_path = "trace.jsonl";
  std::string telemetry_path;
  std::string telemetry_bin_path;
  std::string cca = "cubic";
  double rate_mbps = 48;
  double duration_s = 5;
  double sample_ms = 1.0;
  std::uint64_t seed = 1;
  int n_flows = 1;
  bool meta = false;
  bool profile = false;
  bool trace = true;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    const std::string flag(a.substr(0, a.find('=')));
    const char* v = argv[i] + std::min(a.size(), flag.size() + 1);  // after '='
    if (a.rfind("--out=", 0) == 0) {
      out_path = v;
    } else if (a.rfind("--cca=", 0) == 0) {
      cca = v;
    } else if (a.rfind("--rate=", 0) == 0) {
      rate_mbps = number<double>(flag, v, NumberRange::kPositive);
    } else if (a.rfind("--duration=", 0) == 0) {
      duration_s = number<double>(flag, v, NumberRange::kPositive);
    } else if (a.rfind("--seed=", 0) == 0) {
      seed = number<std::uint64_t>(flag, v);
    } else if (a.rfind("--flows=", 0) == 0) {
      n_flows = number<int>(flag, v, NumberRange::kPositive);
    } else if (a.rfind("--telemetry=", 0) == 0) {
      telemetry_path = v;
    } else if (a.rfind("--telemetry-bin=", 0) == 0) {
      telemetry_bin_path = v;
    } else if (a.rfind("--sample-ms=", 0) == 0) {
      sample_ms = number<double>(flag, v, NumberRange::kPositive);
    } else if (a == "--meta") {
      meta = true;
    } else if (a == "--no-trace") {
      trace = false;
    } else if (a == "--profile") {
      profile = true;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (duration_s <= to_seconds(kWarmup))
    throw std::invalid_argument("--duration must exceed the 1 s warm-up");
  if (duration_s >= to_seconds(kSimTimeMax) / 2)
    throw std::invalid_argument("--duration is beyond the simulator clock");
  if (sample_ms * 1000.0 < 1)
    throw std::invalid_argument("--sample-ms must be at least 0.001 (1 us)");

  CcaFactory factory;
  if (cca == "cubic") {
    factory = [] { return std::make_unique<Cubic>(); };
  } else if (cca == "bbr") {
    factory = [] { return std::make_unique<Bbr>(); };
  } else if (cca == "libra") {
    // Inference-mode C-Libra over an untrained brain: the control cycle (and
    // its telemetry stage events) runs fine; decisions are just naive.
    auto brain = make_libra_rl_brain(seed);
    factory = [brain] { return make_c_libra(brain, /*training=*/false); };
  } else {
    std::cerr << "error: unknown --cca=" << cca << " (cubic|bbr|libra)\n";
    return 2;
  }

  Scenario s = wired_scenario(rate_mbps);
  s.duration = seconds(duration_s);

  ObsOptions obs;
  obs.record = trace;
  if (trace) obs.trace_path = out_path;
  obs.trace_meta = meta;
  if (!telemetry_path.empty() || !telemetry_bin_path.empty()) {
    obs.telemetry.enabled = true;
    obs.telemetry.config.sample_interval = static_cast<SimDuration>(sample_ms * 1000.0);
    obs.telemetry.jsonl_path = telemetry_path;
    obs.telemetry.binary_path = telemetry_bin_path;
  }

  std::vector<FlowSpec> flows;
  for (int i = 0; i < n_flows; ++i) flows.push_back({factory});

  if (profile) Profiler::instance().enable();
  auto net = run_scenario(s, flows, seed, obs);
  RunSummary summary = summarize(*net, kWarmup, s.duration);

  if (trace) {
    std::cerr << "recorded " << net->recorder().recorded() << " events to "
              << out_path << "\n";
  }
  if (obs.telemetry.enabled) {
    std::cerr << "telemetry: " << net->telemetry().samples() << " samples, "
              << net->telemetry().stage_events().size() << " stage events, "
              << "bucket width " << to_msec(net->telemetry().bucket_width())
              << " ms\n";
  }
  const double wall = net->wall_time_s();
  const auto events = net->events().processed();
  std::cerr << "events " << events << " wall_s " << wall << " events_per_s "
            << (wall > 0 ? static_cast<double>(events) / wall : 0.0) << "\n";
  std::cout << to_json(summary) << "\n";
  if (profile) {
    Profiler::instance().disable();
    std::cerr << "\n" << Profiler::instance().text_report();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value exits 2 with a message, like an
  // unknown flag.
  try {
    return run(argc, argv);
  } catch (const std::logic_error& e) {
    std::cerr << "record_run: " << e.what() << "\n";
    return 2;
  }
}
