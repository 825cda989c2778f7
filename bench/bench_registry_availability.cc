// Availability and cold-start cost of the replicated / erasure-coded artifact
// registry under node loss (beyond-paper robustness bench).
//
// An 8-worker cluster serves the same Zipf trace under four redundancy
// policies — none, replicate(2), replicate(3), erasure(4,2) — across three
// scenarios: fault-free (cold-start TTFT comparison), losing 1 of 8 nodes,
// and losing 2 of 8 nodes (crashes land early, while most artifacts are still
// cold, so the registry really is the only source of non-local bytes).
//
// Gates (exit code 1 on failure, so CI runs this directly):
//   * every faulted run satisfies the conservation ledger;
//   * under 1-of-8 loss, `none` loses requests (its single copies die with
//     the node) while replicate(2), replicate(3), and erasure(4,2) lose ZERO;
//   * under 2-of-8 loss, replicate(3) and erasure(4,2) still lose zero
//     (replicate(2) may legitimately lose doubly-unlucky artifacts);
//   * background repair actually runs (replicate(2), 1-of-8: repair jobs and
//     bytes > 0 on spare net bandwidth).
//
// `--metrics-out` (default registry_metrics.jsonl) writes every run's merged
// snapshot — including the registry.* instrument family — as a JSONL time
// series; `--json` writes the dz-bench-v1 summary; on a gate failure the
// first failing run's flight-recorder ring dumps to `--flightrec-out`
// (default registry_flightrec.json). `--quick` shortens the trace for CI.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/router.h"
#include "src/metrics/metrics.h"
#include "src/obs/trace_export.h"
#include "src/registry/registry.h"

namespace dz {
namespace {

TraceConfig BaseTraffic(double duration_s, uint64_t seed) {
  TraceConfig tc;
  tc.n_models = 32;
  // Comfortably under the 8-worker knee (~80 req/s) AND the 6-worker knee, so
  // losing nodes costs availability, not capacity — failures in this bench
  // mean "no live holder", never "backlog divergence".
  tc.arrival_rate = 40.0;
  tc.duration_s = duration_s;
  tc.dist = PopularityDist::kZipf;
  tc.seed = seed;
  return tc;
}

ClusterConfig BaseCluster(const RedundancyPolicy& redundancy) {
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine.exec.shape = ModelShape::Llama13B();
  cfg.engine.exec.gpu = GpuSpec::A800();
  cfg.engine.exec.tp = 4;
  cfg.engine.max_concurrent_deltas = 8;
  cfg.engine.tracing.enabled = true;
  cfg.engine.tracing.ring_capacity = 4096;  // bounded flight recorder
  cfg.registry.enabled = true;
  cfg.registry.redundancy = redundancy;
  cfg.registry.net_gbps = 25.0;
  return cfg;
}

struct RunResult {
  std::string policy;
  std::string scenario;
  ClusterReport report;
  double mean_ttft = 0.0;
  long long failed = 0;
  long long remote_reads = 0;
  long long degraded_reads = 0;
};

struct GateState {
  bool ok = true;
  std::vector<TraceEvent> failing_flight;

  void Check(bool cond, const std::string& what, const ClusterReport& report) {
    if (cond) {
      return;
    }
    std::fprintf(stderr, "bench_registry_availability: FAIL %s\n", what.c_str());
    if (ok) {
      failing_flight = report.MergedTraceEvents();
    }
    ok = false;
  }
};

void Run(int argc, char** argv) {
  const bool quick = ParseQuickFlag(argc, argv);
  const uint64_t seed = 2121;
  Banner("Registry availability under node loss (none/R2/R3/EC)",
         "artifact registry (beyond paper scope)", seed);

  const char* metrics_flag = ParseStringFlag(argc, argv, "--metrics-out");
  const std::string metrics_path =
      metrics_flag != nullptr ? metrics_flag : "registry_metrics.jsonl";
  const char* flightrec_flag = ParseStringFlag(argc, argv, "--flightrec-out");
  const std::string flightrec_path =
      flightrec_flag != nullptr ? flightrec_flag : "registry_flightrec.json";
  MetricsJsonlWriter writer(metrics_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "bench_registry_availability: cannot open %s\n",
                 metrics_path.c_str());
  }
  GateState gate;
  const SteadyTimer total_timer;

  const double duration = quick ? 120.0 : 240.0;
  const Trace trace = GenerateTrace(BaseTraffic(duration, seed));

  // Crashes land at 6s/10s — early enough that most Zipf-tail artifacts are
  // still cold everywhere except their registry holders, which is exactly when
  // redundancy earns its keep. Neither node recovers.
  const struct {
    const char* name;
    const char* faults;
  } kScenarios[] = {
      {"fault-free", ""},
      {"1-of-8 loss", "crash@6:w2,detect=2"},
      {"2-of-8 loss", "crash@6:w2,crash@10:w5,detect=2"},
  };
  const struct {
    const char* name;
    const char* spec;
  } kPolicies[] = {
      {"none", "none"},
      {"replicate(2)", "replicate(2)"},
      {"replicate(3)", "replicate(3)"},
      {"erasure(4,2)", "erasure(4,2)"},
  };

  // No-registry reference: the PR 8 infinite-local-disk store, fault-free.
  ClusterConfig base_cfg = BaseCluster(RedundancyPolicy());
  base_cfg.registry.enabled = false;
  const ClusterReport base_run = Cluster(base_cfg).Serve(trace);
  std::printf("  no registry  fault-free   mean TTFT %6.3fs  (reference)\n",
              base_run.merged.MeanTtft());

  std::vector<RunResult> results;
  for (const auto& pol : kPolicies) {
    RedundancyPolicy redundancy;
    if (!ParseRedundancyPolicy(pol.spec, redundancy)) {
      std::fprintf(stderr, "bench_registry_availability: bad policy spec %s\n",
                   pol.spec);
      std::exit(1);
    }
    for (const auto& sc : kScenarios) {
      ClusterConfig cfg = BaseCluster(redundancy);
      if (sc.faults[0] != '\0' && !ParseFaultPlan(sc.faults, cfg.faults)) {
        std::fprintf(stderr,
                     "bench_registry_availability: internal fault spec "
                     "rejected\n");
        std::exit(1);
      }
      RunResult r;
      r.policy = pol.name;
      r.scenario = sc.name;
      r.report = Cluster(cfg).Serve(trace);
      r.mean_ttft = r.report.merged.MeanTtft();
      r.failed = r.report.elastic.failed;
      r.remote_reads = static_cast<long long>(
          r.report.merged.metrics.Value("registry.reads.remote"));
      r.degraded_reads = static_cast<long long>(
          r.report.merged.metrics.Value("registry.reads.degraded"));
      std::printf(
          "  %-12s %-12s mean TTFT %6.3fs  remote %4lld  degraded %3lld  "
          "failed %3lld  repairs %lld\n",
          r.policy.c_str(), r.scenario.c_str(), r.mean_ttft, r.remote_reads,
          r.degraded_reads, r.failed, r.report.elastic.repair_jobs);
      if (writer.ok()) {
        writer.Append(r.report.merged.metrics,
                      {{"policy", r.policy}, {"scenario", r.scenario}});
      }
      results.push_back(std::move(r));
    }
  }
  auto find = [&](const char* policy, const char* scenario) -> const RunResult& {
    for (const RunResult& r : results) {
      if (r.policy == policy && r.scenario == scenario) {
        return r;
      }
    }
    std::fprintf(stderr, "bench_registry_availability: missing run %s/%s\n",
                 policy, scenario);
    std::exit(1);
  };

  // Fault-free sanity: every policy serves the whole trace (the registry only
  // adds transfer cost, never loses anything when all nodes are live).
  for (const auto& pol : kPolicies) {
    const RunResult& r = find(pol.name, "fault-free");
    gate.Check(r.report.completed() == trace.requests.size(),
               std::string(pol.name) + " fault-free dropped requests",
               r.report);
  }
  // Conservation for every faulted run.
  for (const RunResult& r : results) {
    if (r.scenario == "fault-free") {
      continue;
    }
    gate.Check(r.report.elastic.active &&
                   r.report.elastic.completed + r.report.elastic.shed +
                           r.report.elastic.failed ==
                       r.report.elastic.offered,
               r.policy + " " + r.scenario + " conservation", r.report);
  }
  // The availability gates: redundancy keeps every request servable where
  // single copies strand them.
  const RunResult& none_1 = find("none", "1-of-8 loss");
  gate.Check(none_1.failed > 0,
             "none/1-of-8: expected lost requests (single copies died with "
             "the node) — scenario too easy to gate redundancy",
             none_1.report);
  for (const char* p : {"replicate(2)", "replicate(3)", "erasure(4,2)"}) {
    const RunResult& r = find(p, "1-of-8 loss");
    gate.Check(r.failed == 0, std::string(p) + "/1-of-8: lost requests",
               r.report);
  }
  for (const char* p : {"replicate(3)", "erasure(4,2)"}) {
    const RunResult& r = find(p, "2-of-8 loss");
    gate.Check(r.failed == 0, std::string(p) + "/2-of-8: lost requests",
               r.report);
  }
  // Degraded reads must actually happen for erasure under loss (parity was
  // exercised, not just lucky data-fragment survival).
  const RunResult& ec_2 = find("erasure(4,2)", "2-of-8 loss");
  gate.Check(ec_2.degraded_reads > 0 || ec_2.remote_reads == 0,
             "erasure(4,2)/2-of-8: no degraded read ever happened", ec_2.report);
  // Background repair ran on spare bandwidth.
  const RunResult& r2_1 = find("replicate(2)", "1-of-8 loss");
  gate.Check(r2_1.report.elastic.repair_jobs > 0,
             "replicate(2)/1-of-8: background repair never completed a job",
             r2_1.report);

  const double total_wall = total_timer.Seconds();
  Table summary({"metric", "value"});
  summary.AddRow({"cold-start mean TTFT, no registry (s)",
                  Table::Num(base_run.merged.MeanTtft(), 3)});
  for (const auto& pol : kPolicies) {
    summary.AddRow({"cold-start mean TTFT, " + std::string(pol.name) + " (s)",
                    Table::Num(find(pol.name, "fault-free").mean_ttft, 3)});
  }
  summary.AddRow({"none lost (1-of-8)", std::to_string(none_1.failed)});
  summary.AddRow({"replicate(2) lost (1-of-8)", std::to_string(r2_1.failed)});
  summary.AddRow(
      {"replicate(3) lost (2-of-8)",
       std::to_string(find("replicate(3)", "2-of-8 loss").failed)});
  summary.AddRow({"erasure(4,2) lost (2-of-8)", std::to_string(ec_2.failed)});
  summary.AddRow({"erasure(4,2) degraded reads (2-of-8)",
                  std::to_string(ec_2.degraded_reads)});
  summary.AddRow({"repair jobs (R2, 1-of-8)",
                  std::to_string(r2_1.report.elastic.repair_jobs)});
  summary.AddRow({"repair GB (R2, 1-of-8)",
                  Table::Num(r2_1.report.elastic.repair_bytes / 1e9, 2)});
  summary.AddRow({"metrics JSONL lines", std::to_string(writer.lines_written())});
  summary.AddRow({"wall time (s)", Table::Num(total_wall, 1)});
  summary.AddRow({"availability gates", gate.ok ? "PASS" : "FAIL"});
  std::printf("\n%s\n", summary.ToAscii().c_str());

  if (const char* json_path = ParseStringFlag(argc, argv, "--json")) {
    BenchJson json("bench_registry_availability");
    json.Add("ttft_no_registry", base_run.merged.MeanTtft(), "s",
             /*higher_is_better=*/false);
    json.Add("ttft_replicate2", find("replicate(2)", "fault-free").mean_ttft,
             "s", /*higher_is_better=*/false);
    json.Add("lost_none_1of8", static_cast<double>(none_1.failed), "req");
    json.Add("lost_replicate2_1of8", static_cast<double>(r2_1.failed), "req",
             /*higher_is_better=*/false);
    json.Add("lost_erasure42_2of8", static_cast<double>(ec_2.failed), "req",
             /*higher_is_better=*/false);
    json.Add("degraded_erasure42_2of8", static_cast<double>(ec_2.degraded_reads),
             "req");
    json.Add("repair_jobs_replicate2_1of8",
             static_cast<double>(r2_1.report.elastic.repair_jobs), "jobs");
    json.Add("gates_ok", gate.ok ? 1.0 : 0.0, "bool");
    json.WriteFile(json_path);
  }

  if (!gate.ok) {
    if (WriteChromeTrace(flightrec_path, gate.failing_flight)) {
      std::fprintf(stderr,
                   "bench_registry_availability: dumped %zu flight-recorder "
                   "events (first failing run) to %s\n",
                   gate.failing_flight.size(), flightrec_path.c_str());
    } else {
      std::fprintf(stderr,
                   "bench_registry_availability: cannot write flight recorder "
                   "dump to %s\n",
                   flightrec_path.c_str());
    }
    std::exit(1);
  }
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) {
  dz::Run(argc, argv);
  return 0;
}
