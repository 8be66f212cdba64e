// Golden-output pins: FNV-1a digests of the deterministic simulated fields of
// a few canonical runs (droptail single bottleneck, CoDel, fleet incast, a
// churned sharded fleet with health), recorded once and checked on every
// build. The other determinism tests compare two runs of the same tree
// (serial vs sharded, thread counts, seeds); these catch an engine change
// that shifts results across commits. A digest may change only together
// with a deliberate, documented change of simulated behaviour.
//
// Classic CCAs only, so the pins hold under both LIBRA_SIMD dispatch modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "harness/fleet_scenario.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "sim/codel_network.h"

namespace libra {
namespace {

class Fnv1a {
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
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string scenario_digest(const Scenario& scenario, const CcaFactory& make_cca) {
  auto net = run_scenario(scenario, {FlowSpec{make_cca}}, /*seed=*/1);
  const RunSummary s = summarize(*net, sec(2), scenario.duration);
  Fnv1a d;
  for (double v : {s.link_utilization, s.avg_delay_ms, s.total_throughput_bps, s.sim_time_s})
    d.add(v);
  for (const FlowSummary& f : s.flows)
    for (double v : {f.throughput_bps, f.avg_rtt_ms, f.loss_rate}) d.add(v);
  d.add(static_cast<std::uint64_t>(net->events().processed()));
  return d.hex();
}

std::string fleet_digest(const FleetSpec& spec, const CcaFactory& make_cca,
                         const FleetRunOptions& run = {}) {
  FleetObsResult obs;
  const FleetSummary s = run_fleet(spec, make_cca, /*seed=*/1, run, &obs);
  Fnv1a d;
  for (double v : {s.sim_time_s, s.window_s, s.total_throughput_bps, s.avg_delay_ms,
                   s.jain_fairness})
    d.add(v);
  d.add(s.events_processed);
  for (double u : s.hop_utilization) d.add(u);
  for (const FleetFlowSummary& f : s.flows)
    for (double v : {f.throughput_bps, f.avg_rtt_ms, f.loss_rate, f.completion_s}) d.add(v);
  if (run.health) d.add(health_report_json(obs.health));
  for (std::uint64_t e : obs.shard_events) d.add(e);
  return d.hex();
}

std::string incast_digest(const CcaFactory& make_cca, std::int64_t ecn_bytes) {
  FleetSpec spec = incast_fleet(100);
  spec.duration = sec(3);
  spec.ecn_threshold_bytes = ecn_bytes;
  return fleet_digest(spec, make_cca);
}

CcaFactory cubic() {
  return [] { return std::make_unique<Cubic>(); };
}
CcaFactory bbr() {
  return [] { return std::make_unique<Bbr>(); };
}

TEST(Golden, WiredCubic) {
  EXPECT_EQ(scenario_digest(wired_scenario(24), cubic()), "47594fb46fd179b4");
}

TEST(Golden, WiredBbr) {
  EXPECT_EQ(scenario_digest(wired_scenario(24), bbr()), "1a7aa751e4188223");
}

TEST(Golden, LteDrivingCubic) {
  EXPECT_EQ(scenario_digest(lte_scenario(LteProfile::kDriving, "lte-driving"), cubic()),
            "76b712ed5b1dd89d");
}

TEST(Golden, LteDrivingBbr) {
  EXPECT_EQ(scenario_digest(lte_scenario(LteProfile::kDriving, "lte-driving"), bbr()),
            "cd9c0df2f3a56ecb");
}

TEST(Golden, IncastCubic) {
  EXPECT_EQ(incast_digest(cubic(), 0), "560e18703f2c4f0a");
}

TEST(Golden, IncastDctcpEcn) {
  EXPECT_EQ(incast_digest([] { return std::make_unique<Dctcp>(); }, 45 * 1000),
            "700601375a2940e7");
}

// The benchmark's fleet shape, scaled down: churn schedules most flow starts
// seconds ahead, and sender shards give cross-shard explicit keys. Serial and
// sharded runs must both reproduce the pin.
TEST(Golden, ChurnedIncastShardedHealth) {
  FleetSpec spec = incast_fleet(200);
  spec.churn.enabled = true;
  spec.sender_shards = 3;
  spec.duration = sec(3);
  FleetRunOptions run;
  run.health = true;
  EXPECT_EQ(fleet_digest(spec, cubic(), run), "6384b1252119d307");
  run.mode = FleetMode::kSharded;
  run.threads = 2;
  EXPECT_EQ(fleet_digest(spec, cubic(), run), "6384b1252119d307");
}

TEST(Golden, CodelTwoCubic) {
  CodelConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  CodelNetwork net(cfg);
  net.add_flow(std::make_unique<Cubic>());
  net.add_flow(std::make_unique<Cubic>(), sec(1));
  net.run_until(sec(20));
  Fnv1a d;
  for (int i = 0; i < 2; ++i) {
    const Sender& s = net.flow(i).sender();
    for (std::int64_t v : {s.packets_sent(), s.packets_acked(), s.packets_lost(),
                           s.smoothed_rtt(), s.min_rtt()})
      d.add(static_cast<std::uint64_t>(v));
  }
  d.add(net.delivered_bytes_in(sec(2), sec(20)));
  d.add(static_cast<std::uint64_t>(net.link().codel_drops()));
  d.add(static_cast<std::uint64_t>(net.events().processed()));
  EXPECT_EQ(d.hex(), "85dce5ca831318bb");
}

}  // namespace
}  // namespace libra
