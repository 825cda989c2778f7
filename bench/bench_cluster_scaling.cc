// Cluster scaling sweep (beyond the paper: §5.4 "Scalability" scaled out to a
// multi-GPU serving cluster). Sweeps 1→8 worker GPUs × placement policies
// {round-robin, least-outstanding, delta-affinity} × {Zipf, Azure} traces and
// reports aggregate token throughput, SLO attainment, load imbalance, and
// artifact-swap traffic. Expected shape: delta-affinity routing keeps each
// variant's compressed delta hot on few GPUs, so at high GPU counts it moves far
// fewer artifacts and sustains higher aggregate throughput than round-robin.
//
// `--quick 1` (CI smoke mode) shrinks the sweep to {1,2} GPUs × one trace.
#include <cstring>

#include "bench/bench_common.h"
#include "src/cluster/router.h"

namespace dz {
namespace {

Trace MakeTrace(PopularityDist dist, double rate, double duration, uint64_t seed) {
  TraceConfig tc;
  tc.n_models = 48;
  tc.arrival_rate = rate;
  tc.duration_s = duration;
  tc.dist = dist;
  tc.zipf_alpha = 1.5;
  tc.output_mean_tokens = 120.0;
  tc.output_max_tokens = 400;
  tc.seed = seed;
  return GenerateTrace(tc);
}

void Run(bool quick) {
  const uint64_t seed = 2025;
  Banner("Cluster scaling — GPUs x placement policy x trace", "beyond Fig. 18", seed);

  const std::vector<int> gpu_counts = quick ? std::vector<int>{1, 2}
                                            : std::vector<int>{1, 2, 4, 8};
  const std::vector<PopularityDist> dists =
      quick ? std::vector<PopularityDist>{PopularityDist::kZipf}
            : std::vector<PopularityDist>{PopularityDist::kZipf, PopularityDist::kAzure};
  const double duration = quick ? 40.0 : 120.0;
  // Aggregate arrival rate sized to overload a single worker (~12 req/s) several
  // times over, so small clusters drain a backlog long after the trace ends and
  // aggregate throughput genuinely scales with GPU count.
  const double rate = quick ? 8.0 : 48.0;

  Table table({"trace", "GPUs", "policy", "tok/s", "req/s", "SLO-E2E<=120s",
               "SLO-TTFT<=30s", "imbalance", "loads", "disk loads"});
  for (PopularityDist dist : dists) {
    const Trace trace = MakeTrace(dist, rate, duration, seed);
    for (int n_gpus : gpu_counts) {
      for (PlacementPolicy policy :
           {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
            PlacementPolicy::kDeltaAffinity}) {
        ClusterConfig cfg;
        cfg.placer.n_gpus = n_gpus;
        cfg.placer.policy = policy;
        cfg.engine.exec.shape = ModelShape::Llama13B();
        cfg.engine.exec.gpu = GpuSpec::A800();
        cfg.engine.exec.tp = 4;
        cfg.engine.max_concurrent_deltas = 8;
        const ClusterReport r = Cluster(cfg).Serve(trace);
        const ServeReport& m = r.merged;
        table.AddRow({PopularityDistName(dist), std::to_string(n_gpus),
                      PlacementPolicyName(policy), Table::Num(m.TokenThroughput(), 1),
                      Table::Num(m.ThroughputRps(), 3),
                      Table::Num(m.SloAttainmentE2e(120.0), 3),
                      Table::Num(m.SloAttainmentTtft(30.0), 3),
                      Table::Num(r.LoadImbalance(), 2), std::to_string(m.TotalLoads()),
                      std::to_string(m.DiskLoads())});
      }
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("csv:\n%s\n", table.ToCsv().c_str());

  // Prefetch ablation at the largest cluster size: delta-affinity routing feeds
  // each worker its ring-predicted tenants as warm hints, and the engines overlap
  // artifact movement with compute (ISSUE 3 tentpole).
  {
    const int n_gpus = gpu_counts.back();
    const Trace trace = MakeTrace(dists.front(), rate, duration, seed);
    Table pf({"prefetch", "stall (s)", "hidden (s)", "issued/hits/wasted",
              "SLO-E2E<=120s", "tok/s"});
    for (int on : {0, 1}) {
      ClusterConfig cfg;
      cfg.placer.n_gpus = n_gpus;
      cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
      cfg.engine.exec.shape = ModelShape::Llama13B();
      cfg.engine.exec.gpu = GpuSpec::A800();
      cfg.engine.exec.tp = 4;
      cfg.engine.max_concurrent_deltas = 8;
      cfg.engine.prefetch.enabled = on != 0;
      const ServeReport m = Cluster(cfg).Serve(trace).merged;
      pf.AddRow({on ? "on" : "off", Table::Num(m.TotalLoadingTime(), 2),
                 Table::Num(m.StallHiddenS(), 2),
                 std::to_string(m.PrefetchIssued()) + "/" + std::to_string(m.PrefetchHits()) +
                     "/" + std::to_string(m.PrefetchWasted()),
                 Table::Num(m.SloAttainmentE2e(120.0), 3),
                 Table::Num(m.TokenThroughput(), 1)});
    }
    std::printf("Prefetch ablation (%d GPUs, delta-affinity, %s trace):\n%s\n", n_gpus,
                PopularityDistName(dists.front()), pf.ToAscii().c_str());
  }

  std::printf(
      "Expected shape: aggregate throughput scales with GPU count; at 8 GPUs\n"
      "delta-affinity beats round-robin on tok/s and moves far fewer artifacts,\n"
      "because each variant's delta stays hot on few GPUs instead of thrashing\n"
      "every ArtifactStore (bounded load still spills bursting variants). With\n"
      "prefetch on, ring-driven warm hints hide cold-start stalls on top.\n");
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) {
  dz::Run(dz::ParseQuickFlag(argc, argv));
  return 0;
}
