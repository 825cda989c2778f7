// Random-config digest pins for the serve loop: 200 seeded small configs, each
// served by both engines (DeltaZip, with a compressed delta or a LoRA adapter,
// and vLLM-SCB), hash their records, final metrics (ToJsonLine, plus the
// timeline when one is sampled) and traced event stream against the table at
// the bottom, and check every record's timestamp order and its cost-model
// latency lower bounds (latency_bounds.h). The configs vary
// everything the loop's fast paths depend on: the scheduler policy, admission
// control, class preemption, skip-the-line, parent-finish preemption, prefetch
// (lookahead, staging slots, warm hints), max_batch, N, the prefill budget, a
// tight KV pool, SLO deadlines, registry outages that park and unpark
// requests, channel partitions, RunUntil cuts with arrivals offered only up to
// each cut, and SetSpeed between cuts.
//
// The table was recorded before the loop kept a shed bound, a running set, a
// parent map and queued counts across rounds, when every full round walked
// the whole queue and the whole batch. A change that moves one double, one
// event or one record of any run breaks it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/registry/registry.h"
#include "src/serving/engine.h"
#include "src/serving/serve_loop.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"
#include "tests/serving/latency_bounds.h"
#include "tests/serving/record_order.h"

namespace dz {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kConfigs = 200;

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
  void Add(int v) { Add(&v, sizeof v); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

struct Digest {
  uint64_t records;
  uint64_t metrics;
  uint64_t events;
};

Digest DigestOf(const ServeReport& r) {
  Fnv records;
  for (const RequestRecord& rec : r.records) {
    for (int v : {rec.id, rec.model_id, rec.tenant_id, static_cast<int>(rec.slo),
                  rec.prompt_tokens, rec.output_tokens, rec.preemptions}) {
      records.Add(v);
    }
    for (double v :
         {rec.arrival_s, rec.sched_attempt_s, rec.start_s, rec.first_token_s, rec.finish_s}) {
      records.Add(v);
    }
  }
  records.Add(r.makespan_s);
  for (const TraceRequest& req : r.unavailable) {
    records.Add(req.id);
  }
  Fnv metrics;
  metrics.Add(r.metrics.ToJsonLine());
  for (const MetricsSnapshot& snap : r.timeline) {
    metrics.Add(snap.ToJsonLine());
  }
  Fnv events;
  for (const TraceEvent& e : r.trace_events) {
    for (int v : {static_cast<int>(e.type), e.request_id, e.model_id, e.tenant_id,
                  static_cast<int>(e.slo), e.gpu, static_cast<int>(e.channel), e.aux}) {
      events.Add(v);
    }
    for (double v : {e.ts_s, e.dur_s, e.bytes}) {
      events.Add(v);
    }
  }
  return {records.value(), metrics.value(), events.value()};
}

// What happens to a live loop at a cut, once it has run up to it.
enum class CutAction { kNone, kSpeed, kRegistryFlip, kPartition };

struct Cut {
  double t = 0.0;
  CutAction action = CutAction::kNone;
  double speed = 1.0;                          // kSpeed
  int node = 0;                                // kRegistryFlip: the node whose liveness flips
  TraceChannel channel = TraceChannel::kNone;  // kPartition
  double outage_s = 0.0;                       // kPartition
};

struct RandomConfig {
  TraceConfig trace;
  EngineConfig engine;  // the DeltaZip run's; vLLM-SCB differs only in artifact
  bool registry = false;
  RegistryConfig registry_config;
  int registry_nodes = 0;
  std::vector<int> down_at_start;  // registry nodes dead when the run starts
  std::vector<Cut> cuts;
};

template <typename T>
T Pick(Rng& rng, std::initializer_list<T> options) {
  return options.begin()[rng.NextBelow(options.size())];
}

bool Coin(Rng& rng, double p) { return rng.NextDouble() < p; }

RandomConfig MakeRandomConfig(uint64_t seed) {
  Rng rng(seed);
  RandomConfig rc;
  TraceConfig& tc = rc.trace;
  tc.n_models = static_cast<int>(2 + rng.NextBelow(20));
  tc.dist = Pick(rng, {PopularityDist::kUniform, PopularityDist::kZipf, PopularityDist::kAzure});
  tc.zipf_alpha = rng.Uniform(0.6, 1.8);
  tc.burst_on_mean_s = rng.Uniform(2.0, 10.0);
  tc.burst_off_mean_s = rng.Uniform(5.0, 20.0);
  tc.duration_s = rng.Uniform(8.0, 40.0);
  tc.arrival_rate = rng.Uniform(0.5, 16.0);
  tc.prompt_mean_tokens = rng.Uniform(60.0, 500.0);
  tc.prompt_max_tokens = static_cast<int>(Pick(rng, {256, 1024, 2048}));
  tc.output_mean_tokens = rng.Uniform(10.0, 200.0);
  tc.output_max_tokens = static_cast<int>(Pick(rng, {64, 400, 768}));
  tc.seed = rng.NextU64();
  if (Coin(rng, 0.7)) {
    tc.tenants.n_tenants = static_cast<int>(1 + rng.NextBelow(4));
    tc.tenants.scenario = Pick(rng, {TenantScenario::kSteady, TenantScenario::kDiurnal,
                                     TenantScenario::kFlashCrowd, TenantScenario::kHeavyTail});
    tc.tenants.diurnal_period_s = tc.duration_s;
    tc.tenants.flash_boost = rng.Uniform(2.0, 12.0);
    tc.tenants.interactive_frac = rng.Uniform(0.0, 0.5);
    tc.tenants.batch_frac = rng.Uniform(0.0, 0.5);
  }

  EngineConfig& cfg = rc.engine;
  if (Coin(rng, 0.25)) {
    // A tight KV pool: a 7B model on one GPU with little memory to spare.
    cfg.exec.shape = ModelShape::Llama7B();
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.gpu.mem_gb = Pick(rng, {30.0, 36.0, 44.0});
    cfg.exec.tp = 1;
  } else {
    cfg.exec.shape = Pick(rng, {ModelShape::Llama7B(), ModelShape::Llama13B()});
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.tp = static_cast<int>(Pick(rng, {1, 2, 4}));
  }
  cfg.exec.lora_rank = Coin(rng, 0.3) ? 16 : 0;
  cfg.max_batch = static_cast<int>(Pick(rng, {2, 4, 8, 16, 32}));
  cfg.max_concurrent_deltas = static_cast<int>(1 + rng.NextBelow(8));
  cfg.skip_the_line = Coin(rng, 0.75);
  cfg.preemption = Coin(rng, 0.75);
  cfg.max_prefill_tokens = Pick(rng, {256LL, 512LL, 2048LL});
  cfg.scheduler.policy =
      Pick(rng, {SchedPolicy::kFcfs, SchedPolicy::kPriority, SchedPolicy::kDwfq});
  cfg.scheduler.admission_control = Coin(rng, 0.5);
  cfg.scheduler.class_preemption = Coin(rng, 0.5);
  const double tightness = rng.Uniform(0.1, 1.5);
  for (SloSpec& spec : cfg.scheduler.slo.per_class) {
    spec.ttft_s *= tightness;
    spec.e2e_s *= tightness;
  }
  if (Coin(rng, 0.6)) {
    cfg.prefetch.enabled = true;
    cfg.prefetch.lookahead = static_cast<int>(1 + rng.NextBelow(6));
    cfg.prefetch.staging_slots = static_cast<int>(rng.NextBelow(3));
    for (int k = static_cast<int>(rng.NextBelow(4)); k > 0; --k) {
      cfg.prefetch.warm_hints.push_back(static_cast<int>(rng.NextBelow(tc.n_models + 2)));
    }
  }
  if (Coin(rng, 0.3)) {
    cfg.metrics.interval_s = rng.Uniform(0.5, 5.0);
  }
  cfg.tracing.enabled = true;

  if (Coin(rng, 0.35)) {
    rc.registry = true;
    rc.registry_config.enabled = true;
    rc.registry_nodes = static_cast<int>(Pick(rng, {2, 3, 6}));
    const std::string spec =
        rc.registry_nodes == 6 ? Pick<std::string>(rng, {"none", "replicate(2)", "erasure(4,2)"})
                               : Pick<std::string>(rng, {"none", "replicate(2)"});
    EXPECT_TRUE(ParseRedundancyPolicy(spec, rc.registry_config.redundancy)) << spec;
    // The worker's node holds nothing unless it is one of the registry's.
    cfg.registry.node = static_cast<int>(rng.NextBelow(rc.registry_nodes + 1));
    for (int node = 0; node < rc.registry_nodes; ++node) {
      if (Coin(rng, 0.3)) {
        rc.down_at_start.push_back(node);
      }
    }
  }

  const int n_cuts = static_cast<int>(rng.NextBelow(7));
  double t = 0.0;
  for (int c = 0; c < n_cuts; ++c) {
    t += rng.Uniform(0.0, 1.5 * tc.duration_s / (n_cuts + 1));
    Cut cut;
    cut.t = t;
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      cut.action = CutAction::kSpeed;
      cut.speed = Pick(rng, {0.5, 0.8, 1.0, 1.7});
    } else if (roll < 0.5 && rc.registry) {
      cut.action = CutAction::kRegistryFlip;
      cut.node = static_cast<int>(rng.NextBelow(rc.registry_nodes));
    } else if (roll < 0.65) {
      cut.action = CutAction::kPartition;
      cut.channel = Pick(rng, {TraceChannel::kDisk, TraceChannel::kPcie, TraceChannel::kNet});
      cut.outage_s = rng.Uniform(0.1, 4.0);
    }
    rc.cuts.push_back(cut);
  }
  return rc;
}

// Serves `trace` on a live loop cut at rc.cuts, arrivals offered only up to
// each cut, then the rest and RunUntil(inf).
ServeReport ServeCut(const RandomConfig& rc, const Trace& trace, bool vllm) {
  std::unique_ptr<ArtifactRegistry> registry;
  EngineConfig run_cfg = rc.engine;
  if (rc.registry) {
    registry = std::make_unique<ArtifactRegistry>(rc.registry_config, trace.n_models,
                                                  rc.registry_nodes);
    for (int node : rc.down_at_start) {
      registry->SetNodeLive(node, false);
    }
    run_cfg.registry.source = registry.get();
  }
  const std::unique_ptr<ServeLoop> loop =
      MakeEngine(run_cfg, vllm)->Start(trace.n_models, trace.n_tenants);
  std::vector<char> live(static_cast<size_t>(rc.registry_nodes), 1);
  for (int node : rc.down_at_start) {
    live[static_cast<size_t>(node)] = 0;
  }
  size_t offered = 0;
  for (const Cut& cut : rc.cuts) {
    while (offered < trace.requests.size() && trace.requests[offered].arrival_s < cut.t) {
      loop->Offer(trace.requests[offered++]);
    }
    loop->RunUntil(cut.t);
    switch (cut.action) {
      case CutAction::kNone:
        break;
      case CutAction::kSpeed:
        loop->SetSpeed(cut.speed);
        break;
      case CutAction::kRegistryFlip: {
        char& is_live = live[static_cast<size_t>(cut.node)];
        is_live = is_live != 0 ? 0 : 1;
        registry->SetNodeLive(cut.node, is_live != 0);
        loop->OnRegistryChange(cut.t);
        break;
      }
      case CutAction::kPartition:
        loop->store().AddOutage({cut.channel, cut.t, cut.t + cut.outage_s});
        break;
    }
  }
  while (offered < trace.requests.size()) {
    loop->Offer(trace.requests[offered++]);
  }
  loop->RunUntil(kInf);
  return loop->Finish();
}

// Per config: the DeltaZip digest, then the vLLM-SCB digest.
extern const Digest kPins[kConfigs][2];

std::string PinLine(const Digest& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(d.records),
                static_cast<unsigned long long>(d.metrics),
                static_cast<unsigned long long>(d.events));
  return buf;
}

TEST(RandomConfigDigestTest, EveryConfigMatchesItsPin) {
  int mismatches = 0;
  for (int i = 0; i < kConfigs; ++i) {
    const RandomConfig rc = MakeRandomConfig(0x5eed0000u + static_cast<uint64_t>(i));
    const Trace trace = GenerateTrace(rc.trace);
    const ServeReport reports[2] = {ServeCut(rc, trace, /*vllm=*/false),
                                    ServeCut(rc, trace, /*vllm=*/true)};
    const Digest got[2] = {DigestOf(reports[0]), DigestOf(reports[1])};
    double max_speed = 1.0;  // the cuts may speed a loop up past 1
    for (const Cut& cut : rc.cuts) {
      if (cut.action == CutAction::kSpeed) {
        max_speed = std::max(max_speed, cut.speed);
      }
    }
    for (int e = 0; e < 2; ++e) {
      const std::string run = "config " + std::to_string(i) + (e == 0 ? " deltazip" : " vllm-scb");
      ExpectRecordsOrdered(reports[e], run);
      ExpectLatencyLowerBounds(reports[e], rc.engine, /*vllm_baseline=*/e == 1, run, max_speed);
      const Digest& want = kPins[i][e];
      if (got[e].records != want.records || got[e].metrics != want.metrics ||
          got[e].events != want.events) {
        ++mismatches;
        ADD_FAILURE() << "config " << i << (e == 0 ? " deltazip" : " vllm-scb") << ": got "
                      << PinLine(got[e]) << ", pinned " << PinLine(want);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

const Digest kPins[kConfigs][2] = {
    {{0xabed18900024328bull, 0xe8dafa4d29b63865ull, 0xce87c724c1571543ull},
     {0x4a47cae0c47ebce8ull, 0x6aae8ea12a431741ull, 0xa7df0a99c566c0daull}},  // 0
    {{0x6c13fa121973523bull, 0xd5a6e5031c176284ull, 0x85edfd044114f7e6ull},
     {0xcc1ee1c56ffb65f4ull, 0x35d4f64a22da7252ull, 0x6750041f5e89b587ull}},  // 1
    {{0x897c6d3e4275ffd1ull, 0x8bf5c6fde9b6a5e3ull, 0x7e56cc8e75e03cbbull},
     {0x45f6c5f2d461c456ull, 0xc9eddaeaecf91a6aull, 0x1c166ba470b9a9d0ull}},  // 2
    {{0xc8888859c2ea708full, 0xaae2609ec8e5d474ull, 0xa8b25b6f7dbfa59aull},
     {0x4719ac48776f2f56ull, 0x32fe61eb7abb8e7cull, 0x98241a4d4dd6fd42ull}},  // 3
    {{0xdc0333dff4c44045ull, 0x58e8b144092aa670ull, 0x4752017203685a5aull},
     {0x678ae0945f275a91ull, 0x138aacb154208de0ull, 0xe4d713c9cade0085ull}},  // 4
    {{0x77746b3eedfb840bull, 0x1f5903ecf3d4fc95ull, 0x75322c365277292full},
     {0x0e5cf137b3536b9dull, 0x697308283df4eb4dull, 0x233253aa25596dbbull}},  // 5
    {{0xa9eb0dc6e9c19acbull, 0x607f9170f2a0d332ull, 0x15b1ecd7a6278fafull},
     {0x12fb57cc67a5a748ull, 0x3b1ae58a4705c66dull, 0xf64685105292c24dull}},  // 6
    {{0x96613c35c0ecbf4dull, 0x0e4a347eaef73a69ull, 0x8c306916a1b44ee0ull},
     {0x17ef0ebf16907cdfull, 0x3b6adcdc3464f5bcull, 0xb473206e2ee965ffull}},  // 7
    {{0x09aa365b25863dc2ull, 0x4316f80f9ffc388full, 0x76333b18bbe21186ull},
     {0xef33176e89662f0full, 0xf979f8b9b68a4bbaull, 0x76497c86310d2ef8ull}},  // 8
    {{0x886173a348711f98ull, 0x2d35c017fbf8332bull, 0xd23a7d8f186bcd08ull},
     {0x539cc3ef3f0c0f04ull, 0x1c72fdef4ae30428ull, 0xc6939d419be3f1caull}},  // 9
    {{0x2d15b142ab6d13e7ull, 0xa58c63e5bdcb9991ull, 0xa36843069a3833b2ull},
     {0x076ba83938726099ull, 0x889b2d7e753eb56dull, 0x457d6311381c20cdull}},  // 10
    {{0x2aac3f15bd976a1dull, 0x08d273e56996e042ull, 0x2ecf7395b1675b27ull},
     {0x5368fca6de08f7cbull, 0x2b61b7afb76ee16cull, 0xf1f0b8fa826b5898ull}},  // 11
    {{0x7716151e096c3d66ull, 0xec8efd0fe8b8d061ull, 0x23a01a6e026a3e15ull},
     {0x3e8db138c3c9b2e0ull, 0x1d97a740f013d834ull, 0x47fb8cf88a7de4d7ull}},  // 12
    {{0xec911057fabe8e85ull, 0x07395be614ea0cf3ull, 0x9f344d575ba8883bull},
     {0xc73f5df65a9f006eull, 0x3e62a076d151ee95ull, 0x34e242a97e42b9d1ull}},  // 13
    {{0x406d8557a0d1b176ull, 0x516645de1e443a9eull, 0x394840ffef71495dull},
     {0x8c592a64bb01c02bull, 0x447aed4f5758e4d1ull, 0xc8322ce33b32f752ull}},  // 14
    {{0xce6ccf5fde679dc8ull, 0x398d27ae578c2f45ull, 0xd8f5a3d211623367ull},
     {0x4fde07dc07d977f9ull, 0xf80a2208854087b9ull, 0xded50821bce92018ull}},  // 15
    {{0x92ce6a3c116a7780ull, 0x039ef6fec87a3722ull, 0x3ead72cbe0bb45f7ull},
     {0xd3689959b57bc180ull, 0xea9473929f59cbd7ull, 0x93978935f6605acdull}},  // 16
    {{0xd5f8c59a385c36e4ull, 0x3e282b1858b7594dull, 0xd1fb2366f4c70724ull},
     {0xb0bf43a4ec61b591ull, 0xec22ef923efdbb7aull, 0xa761b00b87620f40ull}},  // 17
    {{0xe08b1054eaabd5fdull, 0x68c9c1c848801070ull, 0x488f5437d50fe57eull},
     {0x7351bed91a6769c4ull, 0x9776e23f5fbe3a03ull, 0xb11eae5324aea709ull}},  // 18
    {{0x714a20cce7b092f3ull, 0x4b599df0648d7e23ull, 0xadd636a262ec2883ull},
     {0xb72a91c1bf434c29ull, 0xa7ff209d37480d3eull, 0x8a0e87a99cae4c6aull}},  // 19
    {{0x4ecc9682e3edfde6ull, 0x9bf530e7e48bbaf9ull, 0x7950fe7a171ba658ull},
     {0xc824a3444ca8cfacull, 0x72c367792e7d7396ull, 0x86be3f16e1793573ull}},  // 20
    {{0x870f3fbeadbdd65full, 0xab18217e194c299dull, 0xc57c15b82232d4c7ull},
     {0x0ee3ac7f2a25c6a0ull, 0x7c98ea1461d9b613ull, 0xd3d3d759a8f9250aull}},  // 21
    {{0x24952ce006b5ba46ull, 0xfa52454d69520faaull, 0xff166d1fe425e67cull},
     {0x3a386440a0824703ull, 0x1428e1ec9278b848ull, 0x278b3a62788cc995ull}},  // 22
    {{0x20289054e368f82cull, 0xd0f1fd6e579d2f11ull, 0x73267ccc74553ac4ull},
     {0xeecd9dbd69d96d32ull, 0x006b823df8d48156ull, 0xe2881fcb96bef3d0ull}},  // 23
    {{0x96984a8c952ab701ull, 0x9a52efbe363af441ull, 0xac7624809fbe4bbbull},
     {0xbae1581eaffb86ccull, 0x4587f3a2e26be1b8ull, 0xffc480f1fea45063ull}},  // 24
    {{0x087f4e3745fd7a36ull, 0x1bd5bc75a59d4dd5ull, 0xfa4188421b1c4b18ull},
     {0x1c0025ee58116a6eull, 0x0ca347443f96b003ull, 0x236c6862ace03e82ull}},  // 25
    {{0xba9e8f213c85bdbaull, 0xd5ad482c93700711ull, 0x76fa602489775ca9ull},
     {0x47fe0d7eaf8e51e3ull, 0xfda2163cead009f3ull, 0xdde8552ad434505dull}},  // 26
    {{0x72b87aa62e97b73dull, 0x3762ca895658d79dull, 0xd2d18afa2e36df35ull},
     {0x99858e2527b73cf9ull, 0xe21d2d8905f13fa0ull, 0x3a351463de54e13eull}},  // 27
    {{0x907746c6103a567bull, 0x1e0c5e45450701a2ull, 0x49de7ec6a404062cull},
     {0x1e314d598fbff2f6ull, 0x64418c23c90f42f6ull, 0x2a55201f254df2f8ull}},  // 28
    {{0x0095771362e661bdull, 0x7704ca42b1352d2cull, 0x0f472c7194d8ace2ull},
     {0xae7777dc1b74f27dull, 0x9d2c8a71724eac01ull, 0x240f5bb7fcfab2baull}},  // 29
    {{0xd4db5b681e923ae7ull, 0x6fd9a8f980c0d52full, 0x39321359ea72b45eull},
     {0xbab8921dca0f2d51ull, 0x557afea4c2b3acc2ull, 0x6a485cfda9bf1fcdull}},  // 30
    {{0x17a0e3bd5885eaaaull, 0x40d1f29f5531a442ull, 0xabcb54a6665db59dull},
     {0xa4876c6ce3e511ecull, 0x6445043715bc5b93ull, 0xc57191951f70db68ull}},  // 31
    {{0x0b809cd62097d53cull, 0x79fbab2ac77d6ef0ull, 0x36080e0a99a6a75eull},
     {0x6d0c983afb9cbf3bull, 0xc17804c34af7d1e5ull, 0x73b416a84a0b1a34ull}},  // 32
    {{0x6c6ce943eb707fc6ull, 0x574084c54af3aef8ull, 0x9b8b09384b8c8b7aull},
     {0x01cc244ef2adb7daull, 0xdcbb9e28453e95d0ull, 0x978f34b2cdf04a23ull}},  // 33
    {{0x51547403234c04f4ull, 0x8139691d349bcf33ull, 0xd407a517c5bd593full},
     {0x4db4e7a1f4b3fcc7ull, 0x74e0ea5ea66e6d70ull, 0xfe42a791c8e891daull}},  // 34
    {{0xda3bba59a67b3a64ull, 0x7e6713f17d060381ull, 0xb0c8b5dccb9fea91ull},
     {0x10eb39ab199c0166ull, 0xc5dabbde3011fb5full, 0x7c15b6adb61177f9ull}},  // 35
    {{0x8dbf045db487a665ull, 0x8acd5d033212c3f8ull, 0x39fc52bcac72d268ull},
     {0xce1347403f94643eull, 0x3eecc3fd7569d503ull, 0xfa055e3536d74492ull}},  // 36
    {{0x03420cb407646695ull, 0x7bdb02d3f842a374ull, 0xefff99bc71c52254ull},
     {0x2cb05e4b4544807eull, 0x276c5b6bb8a401eeull, 0xb8f68f8334ed9664ull}},  // 37
    {{0x9b6f747a297cd9b6ull, 0xd92f0ef35e761518ull, 0xd2544c7b95575fe1ull},
     {0x3cbd5954e02ee73aull, 0xa92435369120e728ull, 0x3a73b688e3f609e6ull}},  // 38
    {{0xf8f17da4d2023741ull, 0x26c5c58e4087b206ull, 0x16891da4c90a9f40ull},
     {0xfc2d0214ed7497cdull, 0xeded26f3e26412b7ull, 0x2e82de32de7e363full}},  // 39
    {{0x06b4deb702d5c75bull, 0x7a7861c7dbc49c09ull, 0xa44d2323eaa9f6c2ull},
     {0xc2593e84cf8d7e09ull, 0x424bee2fb02cb177ull, 0xc38a40aba725893dull}},  // 40
    {{0xfdc9c4fb87ad89daull, 0x3b1ab1c6cee511f8ull, 0xaf7404da6e0a661cull},
     {0x9484b69f70d956ffull, 0x964ee23daf7ee097ull, 0xf6a7eaf5068b5f03ull}},  // 41
    {{0xc324c2411ed43816ull, 0xf7add3e88d499492ull, 0x7d3ab2179e44ffa3ull},
     {0x6337d3740dd33ae7ull, 0x4a2def340d0f7c9full, 0x8981cd00ecbeccb3ull}},  // 42
    {{0xc2a1be300fd81d22ull, 0xfdec2aa268c80c57ull, 0x9d85e24276a1acd8ull},
     {0x7fff050b3ef34902ull, 0x8d7b415eea0a7ee5ull, 0x5ac4a210b4d214d9ull}},  // 43
    {{0xb42272e608af218bull, 0xf41bb787120e1fa8ull, 0xce7deb9189a1b9c9ull},
     {0xb42272e608af218bull, 0x1110e8fe0fc781c2ull, 0xce7deb9189a1b9c9ull}},  // 44
    {{0x9dd18b70aa9b19f1ull, 0xae93bd57eaf01b2bull, 0x0ba3878a17402855ull},
     {0x8aa92c3f23a473e3ull, 0xa8a388ea9e20b5a3ull, 0x0e16036846651c33ull}},  // 45
    {{0x16e2799f5897aebcull, 0x32f40b5572d314e2ull, 0x582b2fe3fe8690e7ull},
     {0xe2b5ba41ce8f13f5ull, 0x630d4cf5f23f10b2ull, 0xc22aa3b49063d097ull}},  // 46
    {{0xad4a2f4697c3231full, 0x2d716bcfe8d80cadull, 0x42b7073c6f1ddfc1ull},
     {0x1f18a403b9ef8a27ull, 0xb32d1b878a15a7bcull, 0x282e14215270b4baull}},  // 47
    {{0x7d81959107204b85ull, 0xdbf9804cc7a0b2bdull, 0xe7890888973f203dull},
     {0x93d7680033b2b56bull, 0x1ef1ccd7741dc394ull, 0xb1ab98723b4da5b1ull}},  // 48
    {{0xc926078d98697f1eull, 0xc0ba57e13982ec9full, 0x39045bf34362d602ull},
     {0x9225dd22be45513aull, 0x94cbdab1c3bae9a6ull, 0xbb4740eda0d07c85ull}},  // 49
    {{0x6a85a645e9de00a6ull, 0xbe7e74adffc4e730ull, 0x7504f858e2a90099ull},
     {0x9fb057b8987c5ef8ull, 0x5c69927a374671beull, 0xd771aeeb4ee5faf1ull}},  // 50
    {{0x77a81482fa06467dull, 0x352f187615b56797ull, 0xfb76536080cfeaccull},
     {0xd9706effb72e1813ull, 0x50b70d67698611faull, 0x17aa576639d9c31dull}},  // 51
    {{0xc01fcba38a6d4b2bull, 0x260fd3e159a30988ull, 0xaac38252eeed8cadull},
     {0x727285bbc713d5a8ull, 0x7d831f23eab99c93ull, 0xb7aead5ec5784136ull}},  // 52
    {{0x1ab89bb4aff022ecull, 0xed45dcb130dd6c08ull, 0xad1067109c5af429ull},
     {0xb6dd2d4a86e8b228ull, 0xbde44cf803fade4cull, 0x0f30cea9d6016f16ull}},  // 53
    {{0xf892f7bba9fb635aull, 0xab8834c31a8293a9ull, 0xe532f6d1dd0ea6a2ull},
     {0xb5c518617dc20806ull, 0xf55f74c01ebaed10ull, 0x32ed8f7edd8ad018ull}},  // 54
    {{0xb045ae84012bd0e5ull, 0xc355c44022688103ull, 0xe3d0b9421eebc72aull},
     {0x00f91fa2a454050eull, 0x238887adec8289d3ull, 0x4e59bb11e54ae687ull}},  // 55
    {{0xb85b6bda0d250703ull, 0xdd5375794b2c6941ull, 0xa0ab7d45e96a5c9eull},
     {0x363ece56edba38f4ull, 0xf4174a163f79ffb4ull, 0x564cdf1d917e00e0ull}},  // 56
    {{0x502da4447038a641ull, 0xb8b9f57a2779e9c8ull, 0xa3f8614da3fd6c2cull},
     {0x42e5ba226d76c82bull, 0x366403e44b062a1dull, 0x147c76cd3a926accull}},  // 57
    {{0x55933ef27ef592c8ull, 0x7a6d6c11cde0291bull, 0x8b4ac0320f101fbbull},
     {0xecb3ddf0ed40bddfull, 0xbae1ccdedb299ce8ull, 0x30816a671861b7b2ull}},  // 58
    {{0x265a3a8fb35439caull, 0xe7e2f7f4f4b2e265ull, 0x0cb15290c31cf2c3ull},
     {0x4908c9c442a0967bull, 0xb795205194ce56f9ull, 0x0ffd1b12bcb02093ull}},  // 59
    {{0xe1a4056f2b21228dull, 0x142736c6fab4a8e9ull, 0x8647cf5d1ec92047ull},
     {0x10609499a9853eb1ull, 0x1d5e5b8c49a39e29ull, 0xbc744539741531abull}},  // 60
    {{0x291513dc545180eaull, 0x51dd570cf2e25bd2ull, 0xeb3265b5cfed9810ull},
     {0x22cac35d15679942ull, 0xccdfeb533c64e838ull, 0xc2a2aa09256fe3ccull}},  // 61
    {{0xc518232a2a5f2613ull, 0xa932ba91b8e7a88eull, 0x5bdb764d5012c3c9ull},
     {0xf7a23cc8e2469ba0ull, 0x779d5de5d9ba781aull, 0xcb53521de13d9325ull}},  // 62
    {{0x391fb5de0a534401ull, 0x785932c0cf70d81bull, 0x52b2efb0977b1f18ull},
     {0x223bb47fbceed11full, 0x8e2b4188985bbee9ull, 0x69c1b55ad12f7be8ull}},  // 63
    {{0x607173453070dc3eull, 0xafe310345b9898bdull, 0x67687113e4209de3ull},
     {0x47270d7d9122ca24ull, 0x7d2e0b2c774e8330ull, 0xb4054a0c8ffee127ull}},  // 64
    {{0xc454a4913fff2e3dull, 0xa97e49298ed83c52ull, 0x778e07b54957b45aull},
     {0xd045a367a3c5a763ull, 0x92519179ce90998bull, 0x267f4e663da430abull}},  // 65
    {{0x9615c84cc037bb00ull, 0xa39f6a202c2bd7ddull, 0x8538aec8e6c2c471ull},
     {0x18e66c7120d0257dull, 0x69d016070c363d73ull, 0xaa21239880ee78c3ull}},  // 66
    {{0xa68b829ccfe24061ull, 0x661a6d351354414full, 0xe9affd8420958202ull},
     {0xf00fc44330310078ull, 0x0b6e7b1077b83f78ull, 0x4380552984af04ebull}},  // 67
    {{0xa921c8b26e906e28ull, 0xd9d956e7b865fa35ull, 0xc3f7f5404966234eull},
     {0x16c2f06bb1065863ull, 0x7d6a045cd547796dull, 0xede56f6cfe12a133ull}},  // 68
    {{0x367c51d842366553ull, 0x2a6fe586a149ef80ull, 0x122317e1561b44d9ull},
     {0xa2a91a90251a6f5dull, 0xa878a8f911be6e89ull, 0x33ebccf2c9861e8bull}},  // 69
    {{0xf0730e8c54980971ull, 0xe2db08dbc293d54full, 0xc845c582e654056cull},
     {0xe3c0d4094c5c6a17ull, 0x01f43f35800daf11ull, 0x4fb326ee27c7c22full}},  // 70
    {{0xc13ec91d8809bf22ull, 0x017b663160358368ull, 0xa7eaa57d6b0cb4edull},
     {0xec61f77bef9ec493ull, 0x297c9523530aaf65ull, 0x265c6c7d90dbf7c4ull}},  // 71
    {{0xe9e551b125e81e98ull, 0xf3c72a9fb1028883ull, 0x174f4c382060aa44ull},
     {0xc4886c7e89c8f481ull, 0xc2894db50878a282ull, 0xecd661559e8a3729ull}},  // 72
    {{0x0548e56f3929fe04ull, 0x5a2f3cfbafced9a3ull, 0xd70f3be8dba32d81ull},
     {0xbc86db2b0d14fe1cull, 0xbd0453765ce608faull, 0x5819ed5981308170ull}},  // 73
    {{0xc3410e17544d8583ull, 0x9e12c579fefce771ull, 0xad712555ae48f27eull},
     {0x6c41fb5418e8e4e0ull, 0xf7e98728a65de076ull, 0x8d65aef60ebddc23ull}},  // 74
    {{0xeec1b2042fbc0c50ull, 0xa585ec27db1bc3e7ull, 0x85ace40142a7921aull},
     {0xff2eccc3c9a68194ull, 0x5a23ab324f69e8d6ull, 0xb806800408210cd9ull}},  // 75
    {{0x385e703887f0277eull, 0xdef6032b52d4e0a9ull, 0xfd04d29a3cd6fd13ull},
     {0x01dbb88217f2c0dcull, 0x106000584d55bdbcull, 0xccfb4e6f473c5ec1ull}},  // 76
    {{0x3df3ccb730867e97ull, 0xfb9b251b39999e15ull, 0x601870c8e0cb98d9ull},
     {0x80cc2349873bc942ull, 0x8130bdcbe1b9b702ull, 0x60c24a4f39c8462eull}},  // 77
    {{0xd19639e23e1eabf9ull, 0x32e2a7e9369e7f5aull, 0xc4c5571914b8bcebull},
     {0xb731ff2853a76ce4ull, 0x5519803f01ebd584ull, 0x2f571ccdd7207132ull}},  // 78
    {{0xc44811fa03b3d42bull, 0x736e4a15544ae95full, 0xff3f367a3bb838fdull},
     {0x6751f1e3854a896eull, 0x7f9a34acb831b408ull, 0x2475fae2f3cfa092ull}},  // 79
    {{0x8f9532d19fe7829bull, 0xa31cc29ac590a051ull, 0xe41801843f74e217ull},
     {0x768feadb6d421aa4ull, 0xd76b199c63df0822ull, 0x75ff436f6b715b05ull}},  // 80
    {{0x82d87fa33db7e812ull, 0xdc8f6ee2e3f567aaull, 0xffb1d8e112ac9f1aull},
     {0xc6826356465d8f30ull, 0x9fcdca029bbb4588ull, 0x0947558e34c10ce4ull}},  // 81
    {{0x666522df84ee8525ull, 0x934e5cd62a1e79c2ull, 0x2363180bcbddfa0bull},
     {0x7be1bc8c45608093ull, 0x1ea623fb6f1a1483ull, 0xac51c753517589b2ull}},  // 82
    {{0x303fc923708081a5ull, 0xaff5737ecd13559dull, 0x5b6f87503a873626ull},
     {0x97c4a7130274de65ull, 0xe54115497816f73cull, 0x34a9b558ea7a5b50ull}},  // 83
    {{0xd69ff0a00c4b1de0ull, 0xbb0946aca1b7bc32ull, 0x4648d93298c716b1ull},
     {0x9d1c4ac4b0a17cc2ull, 0x49dbbe62c2ae77bbull, 0xecd96c6e1c7c0f13ull}},  // 84
    {{0x4723261808cb37c4ull, 0x9952a9ce5b9b92e5ull, 0x450650fec2325752ull},
     {0x42b6f1441f9f587aull, 0x8990ed987fe3e64eull, 0x1e5a0fe7206b42c8ull}},  // 85
    {{0xf0311ff21594556eull, 0xdd78ad07b475a38eull, 0x35b5a14fa19c6d52ull},
     {0x95591d58ee38f828ull, 0x26a729ecbdfe3064ull, 0xb9d4aa60105ffb2bull}},  // 86
    {{0x5464d45d118d178dull, 0x018cd3d738b19a06ull, 0xd66c489e155ed63bull},
     {0x1b5328b9a8a368fbull, 0x663cbfb4dc0f55edull, 0x51862e5e4d051219ull}},  // 87
    {{0x50db14ca7698869bull, 0x90c6965e127ea63eull, 0xdfbacce885429234ull},
     {0x586ae03bce465cc3ull, 0xd6c6e92b433ec01dull, 0x6613226540d2837full}},  // 88
    {{0x44e8f4b758ceb2a3ull, 0x11cc4c402a98eb89ull, 0x01b09c1105839b66ull},
     {0xa6b6ad37c2db09c2ull, 0xdc740f9e1de0c93cull, 0x4731e000bfc02c84ull}},  // 89
    {{0x1fea43764e31ac73ull, 0x0167e1f94ad1cde6ull, 0xf49ce780d7499da7ull},
     {0xed0214b577b91de1ull, 0xa3e7ebce33d9ee73ull, 0xee5096ab08677fbcull}},  // 90
    {{0x6cc19d0f9adaf36dull, 0x020c8c28378380a7ull, 0xe43e6b621cdf7082ull},
     {0x8c16e4877d25f6caull, 0x7f5e329ca21476eaull, 0x3b6562e9b1209f3aull}},  // 91
    {{0xe8bce4ecd002fff5ull, 0x507ef85fd4931d86ull, 0x494be62000f6c745ull},
     {0x54dfb88ca744e20dull, 0x063547867d6bc005ull, 0x691bc906fe6ec0ecull}},  // 92
    {{0x4009705b4bcce3eeull, 0x505753842b2d64cbull, 0xd9b616621c175542ull},
     {0x4b3f01c71b4c616full, 0x1bb5782818f92e3eull, 0x5ec09802f5230465ull}},  // 93
    {{0xebf410d378bc888eull, 0x38d95869482222d6ull, 0xccb4a05c8df9a560ull},
     {0x87c36c1ba1df9bfdull, 0x1dfbc1b7536abe0eull, 0xb8b8a482db6bc52cull}},  // 94
    {{0xe77c7bdad29fd23dull, 0x347027008334407full, 0xbcf983c10c6ebca1ull},
     {0x0810f1790c388f7dull, 0x425dc0549a4b332dull, 0xca1cd6f0990ca081ull}},  // 95
    {{0xc76f43ed9a2bcd56ull, 0xe987e51c36786632ull, 0x5ee7dd27d4f86477ull},
     {0x4c4de331373447b4ull, 0xf16d58b4558c7746ull, 0x453fb461e8fcb61full}},  // 96
    {{0x9698d10e7ea5c60bull, 0xac536cf93589b818ull, 0x57c0e90320e43aaaull},
     {0x437be5c2d50b12dcull, 0x18174389f2d3dcf7ull, 0xb9a423f817a7fb4dull}},  // 97
    {{0x4455c5d29d3d9a5full, 0x82ddffa6f05e97c3ull, 0x0fcef42fd95fb164ull},
     {0xb00270f5d3fce9c6ull, 0x22c5e0a56913041full, 0xf4bd6ab13e79de43ull}},  // 98
    {{0xcc2f2fc901a5055cull, 0xfca0585860836888ull, 0x7592eb40a5a88f0eull},
     {0x8a1f76e53bcb9f56ull, 0xc6d2ffb44e7ceae9ull, 0x004970f1829187c9ull}},  // 99
    {{0x9cc2eabeb286aa4eull, 0xff2c8beea77a67aaull, 0x98a4044da5708bd6ull},
     {0x526366794d4a2345ull, 0xf9e2b12e6b8f9d50ull, 0xa799e6e0fb59b210ull}},  // 100
    {{0x260f7ab72e5d5517ull, 0xffb64406816c7ea9ull, 0x54e71da26cf8c870ull},
     {0xc1379a2225d34640ull, 0xa0c930b3aae59855ull, 0x98453245cb434968ull}},  // 101
    {{0xf4f6ee38dbce4a02ull, 0x258ef58e071e6600ull, 0x70e2b5586774751bull},
     {0xee1d8b308819c899ull, 0x6d599ddda28aa756ull, 0x0f257bf55fb94ab5ull}},  // 102
    {{0x8e1cee3dfb895169ull, 0x0ee5f7cb25fae4ffull, 0xcb2bc069d04d96baull},
     {0xad1a5641244b713cull, 0xc9a08c8528523ab7ull, 0xe4fb8460977ff61full}},  // 103
    {{0x31cf96ef28277af7ull, 0x3e64fcfb97d925e5ull, 0xd8eec5ea7217e53dull},
     {0x92384e05c251b0e6ull, 0xf8735ff9dde58dd3ull, 0x7b38b8385017ad9dull}},  // 104
    {{0xa295b8a845624b0dull, 0x02140921600fa1afull, 0xa38ba20c6443ff17ull},
     {0x528b184bc3fcbe99ull, 0x488e2cc0f82607e1ull, 0x257d996833946fb7ull}},  // 105
    {{0x784c550df1a9a51eull, 0xdeb090220c615aaeull, 0xb54d7610c0a590ddull},
     {0xd0dbd3fee09d796full, 0xb34bdfbe52c6e04dull, 0xf9c0872cadf8451full}},  // 106
    {{0x6e9f3067e1fe7adbull, 0xcedc572f32985a67ull, 0xf1e9a9c4421fa952ull},
     {0x9144bd18d3fe2ec3ull, 0xe99bb0066b8c3091ull, 0xb653c1589654f43dull}},  // 107
    {{0xd7da4d5b52fa2a91ull, 0x213e80c144e011dcull, 0xa6ae72e423321045ull},
     {0x7ae7cd774660de3full, 0xfc65ed38d297969cull, 0xe3cb3fefed932af2ull}},  // 108
    {{0x2691c246f5204dbfull, 0x91a0024d72b6f549ull, 0xc6c89ff87f85f7b8ull},
     {0x135087a003928378ull, 0xa418b9a12719ccc3ull, 0x46c6f12dac9a4d27ull}},  // 109
    {{0x46343ba8d3723b99ull, 0x67d12a3e3cbaf93cull, 0x2daeff728bed0595ull},
     {0x831ac9675e608f19ull, 0xf6363b482675e057ull, 0xecfc8b13ef294ea1ull}},  // 110
    {{0x2934a19f8bcc035bull, 0x0ee0fa099f1f3723ull, 0x1dccf5029970356eull},
     {0xc9298934c4fd1edbull, 0xf00b80819edc2144ull, 0x43d0b6756175ab45ull}},  // 111
    {{0x3c4663e796e85593ull, 0x66d589f7ec3261eaull, 0x7527db35d0cf6b84ull},
     {0xb135cc960f9d6bbfull, 0xd34c689b79d8c161ull, 0x0865b90e2e1f609aull}},  // 112
    {{0x2a0ec7a2c2bb9806ull, 0xb709944dd2d67891ull, 0xacaf003ec46bf6d4ull},
     {0xcfea81391b5ea9fdull, 0x99637131552913ebull, 0x037cdedc61a95759ull}},  // 113
    {{0x47d45cb126d3dc60ull, 0xec1b6705ae483fc9ull, 0x83f15f0d6e8015f6ull},
     {0x96751bc1848ac9d3ull, 0x5983aed2fe805049ull, 0x7712a604d43fc7b5ull}},  // 114
    {{0x42e8ca9ab0bc969cull, 0x5de64ab335f54fa9ull, 0x02d1ee6e27e9c375ull},
     {0x6825564e92668d14ull, 0x303d6101854814b7ull, 0x29782c023ce7648bull}},  // 115
    {{0x9cc5cf66429deb6bull, 0x6f3623566a52eb45ull, 0x14ddef4ea1420c6eull},
     {0x96cebdbecb243c61ull, 0xd97a1b0f163a0b35ull, 0x9ebaec207648222eull}},  // 116
    {{0x4fd837d75875985aull, 0xbe3e6b44217027baull, 0x199413ac50a60ae2ull},
     {0x06d85be09df4fd25ull, 0x039946901564d275ull, 0x9ed355e7c0003842ull}},  // 117
    {{0xe1e682e9e1ea809dull, 0xaebc7d1414f69752ull, 0xff0e12aa81bad92eull},
     {0xcad07d2a11390abeull, 0xac515ae654f4fb1bull, 0x6ce75bd8112e4799ull}},  // 118
    {{0xf110ac18f986caacull, 0x3ce80ceac37fee3aull, 0x5da79dc9dde165d1ull},
     {0xf1f16a9382e45a76ull, 0x9aab06e666cd4bd0ull, 0x513f7a431c05f2a1ull}},  // 119
    {{0xb5dd8a6c5f214df4ull, 0x486b8dbf946d3647ull, 0x9e0e07160dce3d84ull},
     {0x92ea2e46bdd9881full, 0xcb7c8edab5b0970full, 0xb64a262e600c5da9ull}},  // 120
    {{0x64e36aa1a9f990d6ull, 0x44896bde6bc294e3ull, 0x6ee05b7fe4219ea2ull},
     {0x8f950c771e3360e5ull, 0x180c9c202a8675d3ull, 0xa40c676242d557fcull}},  // 121
    {{0x3601dd1de07686c1ull, 0x5ccb7743ad2c0ad7ull, 0x57a36d04f4be1435ull},
     {0x470dc0216e4138f7ull, 0xcc3971f691bbdac6ull, 0xad28a35f280bb3adull}},  // 122
    {{0x38c1a29b90fdf09full, 0x5f13ae6a4a75ecdaull, 0x9ac5de42da3744bbull},
     {0xe32912d245b9ca09ull, 0xf15697051483d957ull, 0x9388b2eb62e1646bull}},  // 123
    {{0x2a97702a3e1b1c81ull, 0x09c5ffb7e06d71dbull, 0x734bc519feb82a82ull},
     {0x858a132cbd8f4f35ull, 0xac776ab4b6848294ull, 0x8144eefc972e40c2ull}},  // 124
    {{0x4fc028aa4af34993ull, 0xac3f067541aff5adull, 0x20b48cd1a92fd661ull},
     {0xaea47d82d708696dull, 0x2be451cd50009112ull, 0xd28264b2c0d66f93ull}},  // 125
    {{0x60918a6f293f71f4ull, 0x26a9201d334e317eull, 0x73e1b389656f76bdull},
     {0x1b370b2f7881acb6ull, 0x4590affa6a5224e6ull, 0x686b0ee0ac90be96ull}},  // 126
    {{0x4de2b665af6ccdaaull, 0x1d00998c0a5c8dbaull, 0x28b747df29734023ull},
     {0xe4786ba6addc61ffull, 0x9fb673d5bcb39ad8ull, 0x8d7d39665925546full}},  // 127
    {{0x653af9c1a69cffd5ull, 0xa682e29be5037639ull, 0x45ba03334009c61bull},
     {0x261e713cf15136b5ull, 0xa54ee13468d178a3ull, 0x6edbda2bd197b319ull}},  // 128
    {{0xe12e0fdc148b432dull, 0x9a6b9e82011453b0ull, 0xadb911480f030668ull},
     {0xf790c0d96ee7c996ull, 0xb71293bbcd349d72ull, 0xc3dd96c5bd655944ull}},  // 129
    {{0x374a641fea3b2a78ull, 0xc77a4f26a35a6d46ull, 0x41bef1be6ac365e1ull},
     {0xd23ec5d0162b5b8aull, 0x4d62f049704759a6ull, 0x21f4115ed618a934ull}},  // 130
    {{0xe0ea839356ad8b94ull, 0x81075343dc310719ull, 0x579eadf2fadede88ull},
     {0x514a5d274cbf5cddull, 0x69126f47a2f87493ull, 0xf6477358483ce5b4ull}},  // 131
    {{0xc8889ce3f5dcd7c1ull, 0xc1ea47aaffb8e6ceull, 0x4815aa1733366f22ull},
     {0xe4021089e25d1ac2ull, 0x329e2fd9474aa48full, 0xa9f10e6029c11634ull}},  // 132
    {{0x1a959a450a8b5df4ull, 0xcad0d92e5a38d522ull, 0x38d2c4e61b28a73bull},
     {0xce91414c8064cb80ull, 0xa5d163854edbe220ull, 0x96e54105cb43e83eull}},  // 133
    {{0x138b348bd130e3b1ull, 0x4df0073eb36812b5ull, 0xf15c0d481f2b8c4dull},
     {0x1545be27c7dbc2f3ull, 0x759327465f9d33ebull, 0x03c53dd7e06a266eull}},  // 134
    {{0xd5539e189379b4a3ull, 0x28efd05410665043ull, 0x57c547332fd8573dull},
     {0x327dfad9451d7c5bull, 0xca23837126dce39eull, 0x7224fffa41dc0469ull}},  // 135
    {{0xc94c4b4e6f03abe3ull, 0xb164ef7a4b028585ull, 0x0d51cb52c4d2e40full},
     {0xe2b3795f4ceb4fc1ull, 0x6686551d7b5eb729ull, 0xce49d7d7815c531cull}},  // 136
    {{0xc8fe82d030d66ffeull, 0xf8ab99d211e7503bull, 0x97f9499f28a16568ull},
     {0x8c2934f13a6294e7ull, 0x93b841b34d80113dull, 0x687f505fe73d33d7ull}},  // 137
    {{0xcca6bc229b72c671ull, 0xce5a6ce8d4a37679ull, 0x055571edc6d1f099ull},
     {0x953201cf9a61a595ull, 0x1d593ab84baf9022ull, 0x987082e41a55719eull}},  // 138
    {{0xf29bff905c48fa72ull, 0x80d67910e36ae7dfull, 0x622f470bd6f09042ull},
     {0xcb53ff4a3a2617abull, 0xf987c33708dc9743ull, 0xaffdc3afc5dbc8f1ull}},  // 139
    {{0xb895b725df2455a3ull, 0xc79df01b80717c34ull, 0x3d537d7e58189eb7ull},
     {0x7a7e19f9672c8680ull, 0x27b3417028e19607ull, 0xf5eb588f7c14ccfaull}},  // 140
    {{0x19193a5b73e7723aull, 0x0f57912a4abeceb3ull, 0x14995ce01c35fff8ull},
     {0x3c74ffe4702db30bull, 0xaedfb5f8d8d342a9ull, 0x9de155cf2132f27full}},  // 141
    {{0xe9aa259b881bf79eull, 0xc0a491f3d504b558ull, 0x849b1e8d6bb07e24ull},
     {0x2605ef995d01d934ull, 0xe6a82bbe6446df5full, 0x931f5bb2ef018309ull}},  // 142
    {{0x1e88579ef8b95391ull, 0x0e594de35f4e3763ull, 0x56fb595e6f29df94ull},
     {0x458e843d97b221afull, 0xba52fd07b83e53a9ull, 0xdd87f979682f186dull}},  // 143
    {{0xd55cc64660cfc4c9ull, 0x1e50363cb38a470bull, 0x6d691ccab49e470bull},
     {0xa2ab00d853863f4eull, 0xfb767cffbc83d1f7ull, 0x66068a0f80735aa1ull}},  // 144
    {{0xfadc7900cbf3de6dull, 0x9535780daa42c78full, 0x7cd1f81af8d33063ull},
     {0xbb29b1828a3b4dafull, 0xf9ed6edb565f587dull, 0x14358edbf95cca7bull}},  // 145
    {{0x6fd0d24d5c3d8538ull, 0xe594097ea3065bb4ull, 0x79b854d55c413437ull},
     {0xb42e8d3385a4d414ull, 0x09cd555faad08e24ull, 0xe94f500934ccac49ull}},  // 146
    {{0xee5c71e1d3fd7bf7ull, 0x34da9f109d467624ull, 0xb831733d80c9f91full},
     {0xde65987b4ae83943ull, 0x4edec80c20415d5aull, 0x73c6e2ed9eac5d5bull}},  // 147
    {{0x1dda2e1bcc39e348ull, 0x2206ab71f50976b9ull, 0x8837533176024370ull},
     {0x6c97fb1f6ce0c08bull, 0xe5560d846bad1051ull, 0x33fdaf35e797fb1dull}},  // 148
    {{0xf27b8b18daf06565ull, 0x5bb0003726371d88ull, 0xdf0d9ef82dc98722ull},
     {0x7fbce4a85ddfd08full, 0x1056450aff7a809dull, 0x34dd6a71caeb3dc3ull}},  // 149
    {{0x8fff6b47ada069a8ull, 0xd350be4938a8bd1eull, 0x692c448deb80d22full},
     {0x6cb421d117cec15eull, 0xe14cdfd49707970dull, 0x20c893767455ed30ull}},  // 150
    {{0xbc0b8b73830858e6ull, 0x9e6916aa9c737b78ull, 0x440818bbac7398fbull},
     {0x3424b843ab8f3805ull, 0xcdaeb3f65f39c7adull, 0x57baebac8ca5de66ull}},  // 151
    {{0x9e271b511f99828bull, 0x2203504762cbb7b3ull, 0x60d818bab5eb204cull},
     {0x2b67c98890bb8676ull, 0x46e6f631fd10f154ull, 0xe02f1b51b24e1e4bull}},  // 152
    {{0x46cb3a484e32a359ull, 0x8a5d85d49b206191ull, 0x1ac6372c459c1012ull},
     {0x404c748bdccd1522ull, 0xae4cc9afe4831b73ull, 0xedc3e656b6accf46ull}},  // 153
    {{0x42f8f94a3a94cb07ull, 0x8970200ba58252a0ull, 0x7b2b9bd2315ef006ull},
     {0x5a509b45c0cb40a9ull, 0x6bef190027e32ae8ull, 0x23770aeb0dcdbab1ull}},  // 154
    {{0x6cc98c696a4f805dull, 0x38bd059763384ec0ull, 0xd95ee9cc82ada21aull},
     {0xb15964fd3d92fba3ull, 0xa259194178de6b69ull, 0xdc246221d08c9259ull}},  // 155
    {{0x8c5653750f7f3505ull, 0xe8b7bf70e1cfe024ull, 0x910dd3ccedbd760eull},
     {0xdd5a907c5d8a4c29ull, 0x383833f8614c4a04ull, 0x52149f8c5c7e4447ull}},  // 156
    {{0x5387c57f10bc8c38ull, 0x6bbcdd17ad42b78bull, 0x9f3e0beaa20aa03full},
     {0xac10b22399f14acbull, 0x13f6badfc7ecc2bfull, 0x4a00b8e3222d2836ull}},  // 157
    {{0x6aec44adf319fc51ull, 0x973bb4516c41b5c2ull, 0xf807ff67acaa56cdull},
     {0x37d3351e38fd437dull, 0x01d70690ecf153e4ull, 0x09079f3b4acf7c09ull}},  // 158
    {{0xf6652ef0433a7443ull, 0x55988e3bbe80d476ull, 0x6b59f325555a5040ull},
     {0xf1b7cd11c19a0d6bull, 0x9db2d83e573ab545ull, 0x7d44f0c3398d7eb5ull}},  // 159
    {{0xe57c1091ac1aabb5ull, 0xdfbca235296800b8ull, 0x22da487224f1f54cull},
     {0xaa63b231d12cd9ebull, 0x002ea09fbdb0d729ull, 0xfbe9a2c2728ef33dull}},  // 160
    {{0x82dc13bc85657423ull, 0x9ab18156fa4c3a16ull, 0x2d77e1f710d1b6f8ull},
     {0x7a0d4272687f1d06ull, 0xcbfbef65840590deull, 0xfd07d4ef70dfb1ffull}},  // 161
    {{0xf8525c218cc210c1ull, 0xee72492a8dc31b02ull, 0xff888f1e322af89full},
     {0x368a9963cf92c280ull, 0x16495f988b80a353ull, 0x58339b6ca1b564dfull}},  // 162
    {{0x02be8ba7db53ef8cull, 0xc9d7a46dcb3d141bull, 0xb48f4fd9674840ccull},
     {0x8caf481b301ca8f3ull, 0x30904b028a7a7cdaull, 0xfaa9be44812c4648ull}},  // 163
    {{0x512522ee4d9a3369ull, 0x581b81e296c6cdc4ull, 0xa7f5e6ab313a307full},
     {0x7a6d153f88ad08fdull, 0xbf59c2b84edb2960ull, 0xd03c97d118d3b48bull}},  // 164
    {{0xf16afb4b29bffa31ull, 0xb6f1822c597f7feaull, 0x0d3981a0c58f3b4bull},
     {0xaf29c80d7eab7892ull, 0x2158b23dfdf860c8ull, 0x8b7b151cd8d1f09cull}},  // 165
    {{0x14b7d602c94f732eull, 0x0270402ab23f65e6ull, 0x9160e50df5d253fcull},
     {0x96d1c5a1f87a0f5aull, 0xa8310ebe662ccf5full, 0x42fdb1e134d904a9ull}},  // 166
    {{0x3047d5c0741a1f25ull, 0x30f5deb06bbd8501ull, 0x65e044af42b24094ull},
     {0x4f6b14abe5400fadull, 0x35772695cd2f305full, 0x564d71caeb4c06f7ull}},  // 167
    {{0xd426274a22c5a6feull, 0xe56984e4c66b2bc3ull, 0x74486671f7a6b83cull},
     {0x4aa82c3b20ca63efull, 0xcac891d283891d52ull, 0x9a2a8d0c684cf856ull}},  // 168
    {{0x8e142dedbdb9dadeull, 0x0dd76e06ae13774dull, 0x708e313c2d2dd263ull},
     {0x1b7a1efed68dedf9ull, 0xf717e07691f02c80ull, 0xb346383fd96be590ull}},  // 169
    {{0xd3e3f934a736b700ull, 0x9bab1f302c2379b1ull, 0xb067ed133afb01baull},
     {0x40dd16a8d33986f1ull, 0xb149b4d2eb06491cull, 0x53b49c119b2f7486ull}},  // 170
    {{0xa1997b0e1d8aa4fdull, 0xbef3358394375684ull, 0x3c04acda53f30dd0ull},
     {0xd1dd8df749c0a693ull, 0xabda8a27d974e822ull, 0x23793e31e80d2ad1ull}},  // 171
    {{0x422ba2fabfbfad7full, 0x4a0a78cab9eca0abull, 0xa7df9c418f035dbaull},
     {0x9b59411a64d88374ull, 0x96323011c8dcca58ull, 0x177ba439d2067ba7ull}},  // 172
    {{0xf8b66fd5e5388bb6ull, 0x5b89993446ad18f3ull, 0xcd746d19b0ee6f0bull},
     {0xa5ad87ee0a266b65ull, 0xab32fe112843dba5ull, 0x588e698de9208f17ull}},  // 173
    {{0x7f116c7822aaed34ull, 0x3b52f7eee843a10cull, 0x217e8195489059b9ull},
     {0xa2e3111bdc541c98ull, 0x6896e2e9e6aa58afull, 0xf6ea7433719d5989ull}},  // 174
    {{0xbe71685ca777169bull, 0xcfbed15da23f7fafull, 0xbae520d339968fc5ull},
     {0xe090aef25b4d2c63ull, 0xafc52608eda1147eull, 0x717b08dea5681f72ull}},  // 175
    {{0xbe17f22606fa21a9ull, 0xc2790bed9bc5aca4ull, 0x8870415bedf428bbull},
     {0x4f7003a0c9ab6d1eull, 0x91e08ca22f798632ull, 0x5b94cdb3db556706ull}},  // 176
    {{0x3440496578a39bdfull, 0xa8a8fa0d5e3667c0ull, 0xf50a4645d0d65a04ull},
     {0x15abbf6253aedd7eull, 0x3bde7e5e60ab7e81ull, 0xdbb39c3d2a9bde21ull}},  // 177
    {{0x49fe82cf25d1ee42ull, 0xd8074b3f9861fa46ull, 0xc5476c76190a2f7full},
     {0x37a298270e994404ull, 0xdc748659c4b1257eull, 0x33d7da5ef18091eeull}},  // 178
    {{0x6fd844f17dbf229dull, 0x897a5ae51a2d0eeaull, 0x6052b99527db20a7ull},
     {0xc8aea97f54f111ceull, 0xa1ea6e41c969e33dull, 0xd7a4d38ed0272604ull}},  // 179
    {{0xae39574f4b1f275aull, 0x27f820703092e6bbull, 0xe16f3fb14b23f8b7ull},
     {0x3a5ab3a2527d69abull, 0xa1f56b63290de424ull, 0x1dd0333585195a73ull}},  // 180
    {{0x6de4428f17f9beb8ull, 0xb6460fc1d834d24dull, 0xb405c7d4458d6f4bull},
     {0xe8efda118552618aull, 0x33e27b5602b9d0caull, 0x84fa617027de1281ull}},  // 181
    {{0x854d57006cbcfd8bull, 0x9117ffde8816b8dfull, 0xd9687f0b88f676f5ull},
     {0x7126540158d264cdull, 0x4df721e6321fe3bcull, 0xd5f182091e95b0dfull}},  // 182
    {{0xf3a1e3ff072848dcull, 0x7038120c39928747ull, 0x68892ced3cfc844full},
     {0xa8e73c1999d18f8cull, 0xb5bd7b81f3200051ull, 0x6921bbbf1b4e9206ull}},  // 183
    {{0xf6feba34fd2e2caaull, 0x9ec7f46f3201afadull, 0x7acbe344215ee84cull},
     {0x6d2a2c13755008d8ull, 0xba52ef1156dc9a97ull, 0xf89d038daf449d1aull}},  // 184
    {{0x1fbfc75b78a71841ull, 0xa62d3dcf5c15c366ull, 0x4d9ff3771ff7fa04ull},
     {0x28180b568569155bull, 0x2500ab70eacf3c14ull, 0x4825e7b31f941e33ull}},  // 185
    {{0x80d993c142c4c766ull, 0x61ed70d89a11402dull, 0xf64c817f1aeb5f95ull},
     {0x8428806b0b37d58bull, 0x34b56a1e5c2f5450ull, 0xaa07d533e2a1894aull}},  // 186
    {{0x4a38f198a5119967ull, 0x1d3b761d8cf97992ull, 0x797b23148720bde2ull},
     {0x8dc3d470e195a262ull, 0x29c6baca753b9828ull, 0x5d9576301899f51full}},  // 187
    {{0x6fbc589a8c29a1f8ull, 0x27be15841992a9fcull, 0x0fad5ace202c48d4ull},
     {0x8ff7dcb669c633a6ull, 0xc4c134ac3197293eull, 0xdc6b9547ad06204full}},  // 188
    {{0x83470330b6ffbee2ull, 0x1a067236f6dee3dbull, 0x930a949070ca36afull},
     {0x0520ce183d21cc9eull, 0xf211743a827573fbull, 0x34a2b0300c955da2ull}},  // 189
    {{0xd2e7483d56c724e7ull, 0xd27224fc2a78a5abull, 0x28349dc57e321dcbull},
     {0xc1ed4a78e4708249ull, 0xcdc6826078c3cfd5ull, 0x0da061ea4d1aa19full}},  // 190
    {{0x22f5d8c43eb1837aull, 0x1e40c524afcd2b16ull, 0x42a0046a326d3681ull},
     {0x01c6da1590b75eeeull, 0x7db83fe29648d87cull, 0xa41b6316f0f1b203ull}},  // 191
    {{0xcf02deb021c91268ull, 0xb503233faf21bcbaull, 0xf503933bfb480fe8ull},
     {0x70dfdd35bbab58eaull, 0x8b4c919277d4a579ull, 0xd25996dda2499871ull}},  // 192
    {{0xf7b6a69b0fc61eb8ull, 0x1b01d7ff3e84e6feull, 0xe577662c672b9583ull},
     {0x03ee3da295a09170ull, 0x5566c4920b2484f5ull, 0x1ba8a9242646b8b7ull}},  // 193
    {{0x536578b9e9331dc6ull, 0x2ce96c42daecc0a0ull, 0x180033657b4f099eull},
     {0x5956d2d0dcbfab7aull, 0x357bf209745ed9c4ull, 0xf703bb78b0fda2f0ull}},  // 194
    {{0xce843977c3f617a1ull, 0x256912c6fd93f612ull, 0xc1aa17d2c49b68d2ull},
     {0x73e0567eadd2b3afull, 0x415ab4fd0c2b5c24ull, 0x4f4fb5d59069dca9ull}},  // 195
    {{0x81f0e42efe913ec9ull, 0x578b6d793779129bull, 0x3bf5d2f0c60829d6ull},
     {0x63dbc9859b85a50eull, 0xfddb76ab18e900bfull, 0x977c68c6511fa9dbull}},  // 196
    {{0x3a29a887f791c300ull, 0x3b0485458820d4cdull, 0x3e782aeb300ad5d7ull},
     {0xa105e770af02a22aull, 0xb22253f241d7fa5eull, 0x49b91fdcea2fe524ull}},  // 197
    {{0xd90ff8c00dc780a4ull, 0x4a7e941973525a1aull, 0xa59e8bf4dcb625c1ull},
     {0x8e31272beefbc30aull, 0x6e612e70d7e5bd8bull, 0xb76f51fe4e38a88eull}},  // 198
    {{0x39454058559e9777ull, 0xbdfcf4f90d007d4bull, 0xea31cacf1870d6baull},
     {0x92c5f02db9f6fa80ull, 0x8c6d4494bf35c807ull, 0x9e1434a2eb1a680bull}},  // 199
};

}  // namespace
}  // namespace dz
