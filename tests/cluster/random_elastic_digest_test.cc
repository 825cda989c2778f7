// Random-config digest pins for the elastic cluster loop: 48 seeded small
// configs, each drawing a random fault plan (crashes, recoveries, slow and
// partition windows, detection delay, rerouting on or off), autoscaler bounds
// and rates, a registry redundancy policy (or none), an engine and a
// placement policy. Each run hashes its merged records, the merged metrics
// (ToJsonLine), the per-worker metrics, the router's events and the elastic
// ledger against the table at the bottom, and checks every merged record's
// timestamp order and cost-model latency lower bounds (latency_bounds.h). CTest runs the pins twice: at the default pool size and on
// a one-thread pool (DZ_THREADS=1).
//
// The table was recorded before the epoch loop routed through one shared
// ring, ran each worker's engine start and record scan in its pool task and
// observed finishes without a heap. A change that moves one double, one event
// or one record of any run breaks it. One field was re-pinned since: config
// 36's ledger, when the peak worker count started counting a recovery that
// lifts the active count above the autoscaler's max_workers.
//
// A second, traced pass replays each run's crash, recovery and scale events
// per worker id and checks the ledger's peak and final worker counts against
// the replay, a source that shares none of the loop's bookkeeping.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/registry/registry.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"
#include "tests/cluster/random_fault_plan.h"
#include "tests/serving/latency_bounds.h"
#include "tests/serving/record_order.h"

namespace dz {
namespace {

constexpr int kConfigs = 48;

// FNV-1a, fed field by field.
class Fnv {
 public:
  void Add(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  void Add(double v) { Add(&v, sizeof v); }
  void Add(long long v) { Add(&v, sizeof v); }
  void Add(int v) { Add(&v, sizeof v); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

struct Digest {
  uint64_t records;
  uint64_t metrics;
  uint64_t ledger;
};

Digest DigestOf(const ClusterReport& r) {
  Fnv records;
  for (const RequestRecord& rec : r.merged.records) {
    for (int v : {rec.id, rec.model_id, rec.tenant_id, static_cast<int>(rec.slo),
                  rec.prompt_tokens, rec.output_tokens, rec.preemptions}) {
      records.Add(v);
    }
    for (double v :
         {rec.arrival_s, rec.sched_attempt_s, rec.start_s, rec.first_token_s, rec.finish_s}) {
      records.Add(v);
    }
  }
  records.Add(r.merged.makespan_s);
  for (const ServeReport& worker : r.per_gpu) {
    records.Add(static_cast<int>(worker.records.size()));
  }
  Fnv metrics;
  metrics.Add(r.merged.metrics.ToJsonLine());
  for (const ServeReport& worker : r.per_gpu) {
    metrics.Add(worker.metrics.ToJsonLine());
  }
  Fnv ledger;
  const ElasticStats& e = r.elastic;
  for (long long v : {e.offered, e.completed, e.shed, e.failed, e.retried, e.rewarm_loads,
                      e.unavailable, e.repair_jobs}) {
    ledger.Add(v);
  }
  for (int v : {static_cast<int>(e.active), e.crashes, e.recoveries, e.scale_ups,
                e.scale_downs, e.peak_workers, e.final_workers}) {
    ledger.Add(v);
  }
  ledger.Add(e.rewarm_s);
  ledger.Add(e.repair_bytes);
  ledger.Add(e.fault_spec);
  for (const TraceEvent& ev : r.router_events) {
    for (int v : {static_cast<int>(ev.type), ev.request_id, ev.model_id, ev.gpu, ev.aux}) {
      ledger.Add(v);
    }
    for (double v : {ev.ts_s, ev.dur_s, ev.bytes}) {
      ledger.Add(v);
    }
  }
  return {records.value(), metrics.value(), ledger.value()};
}

template <typename T>
T Pick(Rng& rng, std::initializer_list<T> options) {
  return options.begin()[rng.NextBelow(options.size())];
}

bool Coin(Rng& rng, double p) { return rng.NextDouble() < p; }

struct RandomElasticConfig {
  TraceConfig trace;
  ClusterConfig cluster;
};

RandomElasticConfig MakeRandomConfig(uint64_t seed) {
  Rng rng(seed);
  RandomElasticConfig rc;
  TraceConfig& tc = rc.trace;
  tc.n_models = static_cast<int>(4 + rng.NextBelow(28));
  tc.dist = Pick(rng, {PopularityDist::kUniform, PopularityDist::kZipf, PopularityDist::kAzure});
  tc.duration_s = rng.Uniform(60.0, 180.0);
  tc.arrival_rate = rng.Uniform(1.0, 6.0);
  tc.output_mean_tokens = rng.Uniform(20.0, 120.0);
  tc.output_max_tokens = 256;
  tc.seed = rng.NextU64();
  if (Coin(rng, 0.7)) {
    tc.tenants.n_tenants = static_cast<int>(1 + rng.NextBelow(8));
    tc.tenants.scenario = Pick(rng, {TenantScenario::kSteady, TenantScenario::kDiurnal,
                                     TenantScenario::kFlashCrowd, TenantScenario::kHeavyTail});
    tc.tenants.diurnal_period_s = tc.duration_s;
    tc.tenants.interactive_frac = rng.Uniform(0.0, 0.5);
    tc.tenants.batch_frac = rng.Uniform(0.0, 0.3);
  }

  ClusterConfig& cc = rc.cluster;
  cc.placer.n_gpus = static_cast<int>(2 + rng.NextBelow(5));
  cc.placer.policy =
      Pick(rng, {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
                 PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity});
  cc.placer.bounded_load_factor = Pick(rng, {1.0, 1.25, 2.0});
  cc.placer.drain_tokens_per_s = Pick(rng, {0.0, 500.0, 2000.0});
  EngineConfig& ec = cc.engine;
  ec.exec.shape = Pick(rng, {ModelShape::Llama7B(), ModelShape::Llama13B()});
  ec.exec.gpu = GpuSpec::A800();
  ec.exec.tp = static_cast<int>(Pick(rng, {1, 2, 4}));
  ec.max_batch = static_cast<int>(Pick(rng, {8, 16, 32}));
  ec.max_concurrent_deltas = static_cast<int>(1 + rng.NextBelow(8));
  ec.scheduler.policy = Pick(rng, {SchedPolicy::kFcfs, SchedPolicy::kPriority, SchedPolicy::kDwfq});
  ec.scheduler.admission_control = Coin(rng, 0.3);
  ec.prefetch.enabled = Coin(rng, 0.6);
  ec.tracing.enabled = Coin(rng, 0.5);
  cc.vllm_baseline = Coin(rng, 0.25);

  const bool autoscale = Coin(rng, 0.6);
  if (autoscale) {
    cc.autoscale.enabled = true;
    cc.autoscale.min_workers = static_cast<int>(1 + rng.NextBelow(cc.placer.n_gpus));
    cc.autoscale.max_workers = cc.autoscale.min_workers + static_cast<int>(rng.NextBelow(6));
    cc.autoscale.decision_interval_s = rng.Uniform(2.0, 15.0);
    cc.autoscale.cooldown_s = rng.Uniform(0.0, 20.0);
    cc.autoscale.target_ttft_p99_s = rng.Uniform(0.5, 5.0);
    cc.autoscale.scale_up_backlog_per_worker = rng.Uniform(1.0, 8.0);
    cc.autoscale.scale_down_backlog_per_worker =
        rng.Uniform(0.0, cc.autoscale.scale_up_backlog_per_worker);
  }
  // Without the autoscaler the plan must add a boundary: the run is elastic.
  const int n_events = static_cast<int>((autoscale ? 0 : 1) + rng.NextBelow(8));
  const int fault_workers =
      autoscale ? std::max(cc.placer.n_gpus, cc.autoscale.max_workers) : cc.placer.n_gpus;
  cc.faults = RandomFaultPlan(rng.NextU64(), fault_workers, tc.duration_s, n_events);
  cc.faults.detection_delay_s = rng.Uniform(0.0, 5.0);
  cc.faults.reroute = Coin(rng, 0.8);

  if (Coin(rng, 0.5)) {
    cc.registry.enabled = true;
    const std::string spec =
        cc.placer.n_gpus >= 6
            ? Pick<std::string>(rng, {"none", "replicate(2)", "erasure(2,1)", "erasure(4,2)"})
        : cc.placer.n_gpus >= 3 ? Pick<std::string>(rng, {"none", "replicate(2)", "erasure(2,1)"})
                                : Pick<std::string>(rng, {"none", "replicate(2)"});
    EXPECT_TRUE(ParseRedundancyPolicy(spec, cc.registry.redundancy)) << spec;
  }
  return rc;
}

// Per config: the pinned digest.
extern const Digest kPins[kConfigs];

std::string PinLine(const Digest& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(d.records),
                static_cast<unsigned long long>(d.metrics),
                static_cast<unsigned long long>(d.ledger));
  return buf;
}

bool SameDigest(const Digest& a, const Digest& b) {
  return a.records == b.records && a.metrics == b.metrics && a.ledger == b.ledger;
}

TEST(RandomElasticDigestTest, EveryConfigMatchesItsPin) {
  int mismatches = 0;
  for (int i = 0; i < kConfigs; ++i) {
    RandomElasticConfig rc = MakeRandomConfig(0xe1a50000u + static_cast<uint64_t>(i));
    ASSERT_TRUE(rc.cluster.faults.Enabled() || rc.cluster.autoscale.Enabled()) << i;
    const Trace trace = GenerateTrace(rc.trace);
    const ClusterReport report = Cluster(rc.cluster).Serve(trace);
    ASSERT_TRUE(report.elastic.active) << i;
    ExpectRecordsOrdered(report.merged, "config " + std::to_string(i));
    ExpectLatencyLowerBounds(report.merged, rc.cluster.engine, rc.cluster.vllm_baseline,
                             "config " + std::to_string(i));
    const Digest got = DigestOf(report);
    if (!SameDigest(got, kPins[i])) {
      ++mismatches;
      ADD_FAILURE() << "config " << i << ": got " << PinLine(got) << ", pinned "
                    << PinLine(kPins[i]);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Config 36's peak is set by a recovery: w2 crashes, the autoscaler replaces
// it with w3, and w2 then recovers, so 4 workers are active under a
// max_workers of 3.
TEST(RandomElasticDigestTest, WorkerCountsMatchAReplayOfTheEvents) {
  for (int i = 0; i < kConfigs; ++i) {
    RandomElasticConfig rc = MakeRandomConfig(0xe1a50000u + static_cast<uint64_t>(i));
    rc.cluster.engine.tracing.enabled = true;
    const Trace trace = GenerateTrace(rc.trace);
    const ClusterReport report = Cluster(rc.cluster).Serve(trace);
    std::set<int> active;
    for (int w = 0; w < rc.cluster.placer.n_gpus; ++w) {
      active.insert(w);
    }
    size_t peak = active.size();
    for (const TraceEvent& ev : report.router_events) {
      if (ev.type == TraceEventType::kFaultCrash || ev.type == TraceEventType::kScaleDown) {
        active.erase(ev.gpu);
      } else if (ev.type == TraceEventType::kFaultRecover ||
                 ev.type == TraceEventType::kScaleUp) {
        active.insert(ev.gpu);
        peak = std::max(peak, active.size());
      }
    }
    EXPECT_EQ(static_cast<size_t>(report.elastic.peak_workers), peak) << "config " << i;
    EXPECT_EQ(static_cast<size_t>(report.elastic.final_workers), active.size())
        << "config " << i;
  }
}

const Digest kPins[kConfigs] = {
    {0x32ad18d4d5a90dcaull, 0x5e754fa37351fa45ull, 0x819e085cfd771027ull},  // 0
    {0x64d39aa756ad0c67ull, 0xb66f490e44fc0c52ull, 0x4d61367e555d7240ull},  // 1
    {0xd14de9516d024fa3ull, 0x3e1863301a710f70ull, 0x59158b50122feec0ull},  // 2
    {0xe92410598d5ccc55ull, 0x24fef5b5f820899dull, 0xbd2002db1db7e7a0ull},  // 3
    {0x69921b23ce74d659ull, 0xbc257acd60d6252dull, 0x16ce66f238448e76ull},  // 4
    {0xa4d37a5c3ea9634aull, 0xe99bfed0c5ff96e3ull, 0x5a6c460730feb28bull},  // 5
    {0x52a1f8f030de7407ull, 0x8c6cde80f4b1f18full, 0xa047ca10ca6434acull},  // 6
    {0xb4f976586c1423a4ull, 0x7e1a71709f631d70ull, 0x84ce51128440ced1ull},  // 7
    {0x7e1ea878aad8bb2eull, 0x8788c3f6539094e4ull, 0x944674e05bb35f95ull},  // 8
    {0xfd734d62293c240bull, 0xd8c0ce50f2756130ull, 0x5b49e1cd9d3d51dcull},  // 9
    {0x72872c9b8b80ae79ull, 0xb984cce05cbf430eull, 0x920f36dfc15bcee3ull},  // 10
    {0xaaf7bf2a9583d448ull, 0x01163801051bb2f1ull, 0x182e1b39bbede08bull},  // 11
    {0xb7b8a8f46c17fb3eull, 0x6d2dcf6e75d71fd0ull, 0x47a6ee7a74c775e6ull},  // 12
    {0x4f291883e282a0dcull, 0xebfb4d09f29440f6ull, 0x88f3440ed362e41full},  // 13
    {0x4b27cd25ca38411eull, 0x0b4b20f07c78d14cull, 0x5665398a9fe662d8ull},  // 14
    {0x21bf537a4a950a3full, 0x252fc2ae32a926ccull, 0x48570710af732c15ull},  // 15
    {0x8237cc0d47c08861ull, 0xcedfb972e893ecfdull, 0x0cabf0bae660de56ull},  // 16
    {0x1c6f48b35883facbull, 0x9ba5e9f3c96dbfdcull, 0xc3c162e56dbeef67ull},  // 17
    {0xb3e7bd6a6c550818ull, 0xb8e6d003af7f7a4aull, 0x75f12c18f596301aull},  // 18
    {0xa3d2295f39686ec3ull, 0x9910a60d9b0b18cfull, 0xa04c999a35851808ull},  // 19
    {0xefe153ea00d557caull, 0x8811abd958efce19ull, 0x87bb1536dffc2877ull},  // 20
    {0xbd08b9a4ef9e1fa1ull, 0x8ef65c93f7346351ull, 0x733115ebc2bf7268ull},  // 21
    {0xe3aed332d086e327ull, 0x233a34894c11917eull, 0x07232e716f241166ull},  // 22
    {0x5d52064af9353b27ull, 0xc9d9cce17f5e1929ull, 0xeb4929a848c91482ull},  // 23
    {0x97a8e5511e6db7d3ull, 0x993ce59897d032efull, 0xde8984dbad7a0ef9ull},  // 24
    {0x33852394bab58d2aull, 0xf62f707c9c0d4f36ull, 0x102e7da0a9c891beull},  // 25
    {0x4cb0b55451a27ea3ull, 0x9eb672072f5e20d1ull, 0xa16e1e65918162efull},  // 26
    {0x6a75d663a773440eull, 0xe7208d33eed7e785ull, 0xcfd62d51d55fd8caull},  // 27
    {0x71bd38259d0c827eull, 0x7a0d3c3505ed2ffcull, 0x7a240a71b050a6c9ull},  // 28
    {0x87be45cc9210aeafull, 0xfc1888bece3dce75ull, 0xe1dbaff7eb805dc5ull},  // 29
    {0xb2c5355cc6f421f3ull, 0xa75fab7e9e9efc5cull, 0x292e150b2dfcc96cull},  // 30
    {0x1e23edfaf3ebadb2ull, 0x00d67a696b6ab87eull, 0xa23a2290d2a9f100ull},  // 31
    {0xb8d36dfa860d349dull, 0x2352507955b9fa57ull, 0xdbb1712251f98723ull},  // 32
    {0x6cb89fd2b24b4f92ull, 0x60314c236a4134e7ull, 0x06c5c9111a2c3905ull},  // 33
    {0x84cffdf12779c6d1ull, 0xb4ee0191e8871828ull, 0x7c55f42525cf646aull},  // 34
    {0x95b7f9fc877d1a83ull, 0x96687e5b6ba98e3full, 0xd54302c7898c64f6ull},  // 35
    {0x063caffeab9eedb0ull, 0x5a426204dd20f732ull, 0x138bf20a46ec823aull},  // 36
    {0x29b4ba54fc05f791ull, 0x617a1c3a368899a4ull, 0x36c2412b9a2cf778ull},  // 37
    {0xa4f9effd71ec2b7dull, 0x88d79cd86d936385ull, 0xd547fb3dce9c6260ull},  // 38
    {0xcb3afe17bd98ab76ull, 0x6f29730f1317279bull, 0xd75b963e29e246a2ull},  // 39
    {0xcf7a593e9fe181cdull, 0x6743ae0f997d1a41ull, 0x9c691425f6f051d3ull},  // 40
    {0xe5e8223a463001faull, 0xa4f1cbfdca271af4ull, 0x68148d8d229c89a0ull},  // 41
    {0x0e259dfb338ee51full, 0x5e2b566b4d7bb427ull, 0xd19293bf3c2bed74ull},  // 42
    {0x7507677d0a6bb588ull, 0x3fcbd71cddf6e167ull, 0x9b38238d01a6805aull},  // 43
    {0x2eadbf3d2efce051ull, 0x090ad012329ccad2ull, 0xe109ffbd5e12fa5eull},  // 44
    {0x6334ae994438635aull, 0xc322dc512ba7ad86ull, 0x8ba084f17a7a1f93ull},  // 45
    {0x3846b3a31ac90688ull, 0xea1c1fb01a6704edull, 0x00d4ba98efec61f1ull},  // 46
    {0xf4f4962986543620ull, 0x015ce8887ed2442eull, 0xfbfeefcef7578120ull},  // 47
};

}  // namespace
}  // namespace dz
