// dzip — operator command-line tool for the DeltaZip reproduction.
//
// Subcommands (each prints its own usage on --help; see README "dzip_cli
// reference" for the full table):
//   dzip trace    — generate a multi-variant serving trace as JSONL
//   dzip simulate — replay a trace against one worker serving engine
//   dzip cluster  — route a trace across a simulated multi-GPU cluster
//   dzip inspect  — summarize an on-disk compressed-delta artifact
//
// Exit status: 0 on success and on explicit --help; 1 on usage errors (unknown
// subcommand/flag, missing required flag, bad value) or I/O failures.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cluster/router.h"
#include "src/compress/serialize.h"
#include "src/metrics/metrics.h"
#include "src/obs/trace_export.h"
#include "src/serving/engine.h"
#include "src/tensor/backend.h"
#include "src/util/parse.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/trace_io.h"

namespace dz {
namespace {

using ArgMap = std::map<std::string, std::string>;

// Per-subcommand usage text and flag allowlist. `keys` are the accepted --flag
// names (without the leading dashes); anything else is a usage error.
struct SubcommandSpec {
  const char* name;
  const char* usage;
  std::vector<std::string> keys;
};

const std::vector<SubcommandSpec>& Subcommands() {
  static const std::vector<SubcommandSpec> specs = {
      {"trace",
       "usage: dzip trace --out t.jsonl [--models 32] [--rate 1.0] [--duration 300]\n"
       "                  [--dist uniform|zipf|azure] [--alpha 1.5] [--seed 7]\n"
       "                  [--tenants 1] [--scenario steady|diurnal|flash-crowd|heavy-tail]\n"
       "                  [--interactive-frac 0] [--batch-frac 0] [--flash-boost 8]\n"
       "  Generates a multi-variant serving trace and writes it as JSONL.\n"
       "  --tenants > 1 (or a non-steady --scenario / non-zero class fractions)\n"
       "  layers multi-tenant traffic with per-request SLO classes on top of the\n"
       "  model-popularity distribution.\n",
       {"out", "models", "rate", "duration", "dist", "alpha", "seed", "tenants",
        "scenario", "interactive-frac", "batch-frac", "flash-boost"}},
      {"simulate",
       "usage: dzip simulate --trace t.jsonl [--engine deltazip|vllm-scb|lora]\n"
       "                     [--model 7b|13b|70b|pythia] [--gpu a800|3090] [--tp 4]\n"
       "                     [--n 8] [--bits 4|2] [--rank 16] [--prefetch 0|1]\n"
       "                     [--lookahead 4] [--sched fcfs|priority|dwfq]\n"
       "                     [--admission 0|1] [--class-preempt 0|1]\n"
       "                     [--metrics-out m.jsonl] [--metrics-interval 10]\n"
       "                     [--trace-out trace.json] [--isa scalar|avx2|avx512]\n"
       "  Replays the trace against the serving simulator and prints the report.\n"
       "  --isa forces a compiled-in kernel backend instead of the CPU-probed\n"
       "  one (the report header shows which backend ran); unknown or\n"
       "  unsupported names fail with the compiled list.\n"
       "  --prefetch 1 enables the async artifact-prefetch pipeline (--lookahead\n"
       "  sets W, the number of waiting variants warmed ahead of admission).\n"
       "  --sched picks the scheduler policy (priority = strict by SLO class,\n"
       "  dwfq = fair queueing across tenants); --admission 1 sheds requests whose\n"
       "  class deadline is already unmeetable; --class-preempt 1 lets interactive\n"
       "  requests preempt running batch-class skippers (deltazip engine, takes\n"
       "  effect with --sched priority|dwfq).\n"
       "  --metrics-out writes the run's metrics registry as a JSONL time series\n"
       "  (counters, gauges, latency histograms with p50/p99/p999);\n"
       "  --metrics-interval <secs> adds in-run snapshots every that many\n"
       "  simulated seconds (0 = final snapshot only).\n"
       "  --trace-out enables per-request tracing and writes a Chrome\n"
       "  trace_event JSON (load in Perfetto or chrome://tracing); the report\n"
       "  additionally shows per-class TTFT/E2E critical-path breakdowns.\n",
       {"trace", "engine", "model", "gpu", "tp", "n", "bits", "rank", "prefetch",
        "lookahead", "sched", "admission", "class-preempt", "metrics-out",
        "metrics-interval", "trace-out", "isa"}},
      {"cluster",
       "usage: dzip cluster --trace t.jsonl --gpus 4\n"
       "                    [--policy round-robin|least-outstanding|delta-affinity|\n"
       "                     tenant-affinity]\n"
       "                    [--engine deltazip|vllm-scb|lora] [--model 7b|13b|70b|pythia]\n"
       "                    [--gpu a800|3090] [--tp 4] [--n 8] [--bits 4|2] [--rank 16]\n"
       "                    [--prefetch 0|1] [--lookahead 4] [--slo-e2e 120]\n"
       "                    [--slo-ttft 30] [--sched fcfs|priority|dwfq]\n"
       "                    [--admission 0|1] [--class-preempt 0|1]\n"
       "                    [--metrics-out m.jsonl] [--metrics-interval 10]\n"
       "                    [--trace-out trace.json]\n"
       "                    [--faults spec] [--autoscale 0|1]\n"
       "                    [--min-workers 1] [--max-workers 8]\n"
       "                    [--replication N | --erasure k,m] [--net-gbps 25]\n"
       "                    [--isa scalar|avx2|avx512]\n"
       "  Routes the trace across a simulated multi-GPU cluster and prints the\n"
       "  merged cluster report plus the per-GPU breakdown. With --prefetch 1 the\n"
       "  router feeds each worker ring-predicted warm hints. tenant-affinity\n"
       "  routes each tenant's whole traffic to its ring home GPU; the scheduler\n"
       "  flags configure every worker engine.\n"
       "  --metrics-out writes a JSONL time series: each worker's snapshots\n"
       "  (tagged gpu=<i>) followed by the merged cluster snapshot (gpu=merged);\n"
       "  --metrics-interval <secs> adds per-worker in-run snapshots on the\n"
       "  simulated clock (0 = final snapshots only).\n"
       "  --trace-out enables per-request tracing on every worker and the router\n"
       "  and writes one merged Chrome trace_event JSON (one process per GPU;\n"
       "  load in Perfetto or chrome://tracing).\n"
       "  --faults injects a comma-separated fault schedule on the simulated\n"
       "  clock, e.g. 'crash@30:w1,recover@60:w1,slow@20-50:w0x0.5,\n"
       "  part@40-70:w3,detect=5,reroute=1'. --autoscale 1 enables the elastic\n"
       "  autoscaler between --min-workers and --max-workers (drain before\n"
       "  remove); either flag switches the router onto the epoch-based elastic\n"
       "  path, which re-routes around dead workers and re-enqueues their\n"
       "  in-flight requests on survivors.\n"
       "  --replication N / --erasure k,m (mutually exclusive) enable the\n"
       "  cluster-shared artifact registry: chunks placed across the workers by\n"
       "  rendezvous hashing, non-local reads over a --net-gbps NIC, degraded\n"
       "  reads when holders die, and background repair on spare bandwidth in\n"
       "  elastic runs.\n",
       {"trace", "gpus", "policy", "engine", "model", "gpu", "tp", "n", "bits", "rank",
        "prefetch", "lookahead", "slo-e2e", "slo-ttft", "sched", "admission",
        "class-preempt", "metrics-out", "metrics-interval", "trace-out",
        "faults", "autoscale", "min-workers", "max-workers",
        "replication", "erasure", "net-gbps", "isa"}},
      {"inspect",
       "usage: dzip inspect --artifact delta.bin\n"
       "  Prints a summary of an on-disk compressed-delta artifact.\n",
       {"artifact"}},
  };
  return specs;
}

const SubcommandSpec* FindSubcommand(const std::string& name) {
  for (const SubcommandSpec& spec : Subcommands()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// Parses "--key value" pairs after the subcommand, validating every key against
// the subcommand's allowlist. Returns false (after printing the subcommand's
// usage to stderr) on stray tokens, missing values, or unknown flags. Sets
// `help` instead when --help / -h / help is present anywhere.
bool ParseArgs(int argc, char** argv, int start, const SubcommandSpec& spec,
               ArgMap& args, bool& help) {
  help = false;
  for (int i = start; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h" || key == "help") {
      help = true;
      return true;
    }
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: expected --key value pairs, got '%s'\n%s",
                   key.c_str(), spec.usage);
      return false;
    }
    const std::string name = key.substr(2);
    if (std::find(spec.keys.begin(), spec.keys.end(), name) == spec.keys.end()) {
      std::fprintf(stderr, "error: unknown flag '%s' for 'dzip %s'\n%s", key.c_str(),
                   spec.name, spec.usage);
      return false;
    }
    // A following token that is itself a flag means the value is missing — do
    // not swallow it (otherwise e.g. "--prefetch --help" would silently parse
    // "--help" as the value of --prefetch).
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      std::fprintf(stderr, "error: flag '%s' is missing its value\n%s", key.c_str(),
                   spec.usage);
      return false;
    }
    args[name] = argv[i + 1];
  }
  return true;
}

std::string Get(const ArgMap& args, const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

constexpr double kIntMax = std::numeric_limits<int>::max();
// Simulated seconds and rates past these are typos, not configurations.
constexpr double kMaxSeconds = 1e9;
constexpr double kMaxRate = 1e6;

// Reads numeric flag --key into `out`, which keeps its value when the flag is
// absent. A value ParseNumber rejects prints an error naming the flag and
// returns false.
template <typename T>
bool GetNum(const ArgMap& args, const std::string& key, NumberBounds b, T& out) {
  const auto it = args.find(key);
  if (it == args.end() || ParseNumber(it->second, b, out)) {
    return true;
  }
  std::fprintf(stderr, "error: --%s needs %s %s %.17g and <= %.17g, got '%s'\n",
               key.c_str(),
               std::is_floating_point_v<T> ? "a finite number" : "an integer",
               b.above ? ">" : ">=", b.lo, b.hi, it->second.c_str());
  return false;
}

// Reads enum flag --key into `out` with ParseName; `out` keeps its value when
// the flag is absent. An unknown name prints an error listing every accepted
// one and returns false.
template <typename E, size_t N>
bool GetName(const ArgMap& args, const std::string& key, const E (&values)[N],
             const char* (*name_of)(E), E& out) {
  const auto it = args.find(key);
  if (it == args.end() || ParseName(it->second, values, name_of, out)) {
    return true;
  }
  std::fprintf(stderr, "error: unknown --%s '%s' (%s)\n", key.c_str(), it->second.c_str(),
               NameList(values, name_of).c_str());
  return false;
}

// --trace-out: an explicitly passed empty path would silently disable tracing;
// reject it instead. Returns false only on that usage error; `out` is empty
// when the flag is absent (tracing off).
bool GetTraceOut(const ArgMap& args, std::string& out) {
  const auto it = args.find("trace-out");
  if (it == args.end()) {
    out.clear();
    return true;
  }
  if (it->second.empty()) {
    std::fprintf(stderr, "error: --trace-out needs a non-empty path\n");
    return false;
  }
  out = it->second;
  return true;
}

int CmdTrace(const ArgMap& args) {
  const std::string out = Get(args, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: trace requires --out <file.jsonl>\n");
    return 1;
  }
  TraceConfig cfg;
  cfg.seed = 7;  // the usage text's default, not TraceConfig's
  if (!GetNum(args, "models", {1, kMaxModels}, cfg.n_models) ||
      !GetNum(args, "rate", {0, kMaxRate, true}, cfg.arrival_rate) ||
      !GetNum(args, "duration", {0, kMaxSeconds, true}, cfg.duration_s) ||
      !GetNum(args, "alpha", {0, 100}, cfg.zipf_alpha) ||
      !GetNum(args, "seed", {0, kIntMax}, cfg.seed) ||
      !GetNum(args, "tenants", {1, kMaxTenants}, cfg.tenants.n_tenants) ||
      !GetNum(args, "interactive-frac", {0, 1}, cfg.tenants.interactive_frac) ||
      !GetNum(args, "batch-frac", {0, 1}, cfg.tenants.batch_frac) ||
      !GetNum(args, "flash-boost", {0, kMaxRate, true}, cfg.tenants.flash_boost)) {
    return 1;
  }
  if (!GetName(args, "dist", kPopularityDists, PopularityDistName, cfg.dist) ||
      !GetName(args, "scenario", kTenantScenarios, TenantScenarioName,
               cfg.tenants.scenario)) {
    return 1;
  }
  if (cfg.tenants.interactive_frac + cfg.tenants.batch_frac > 1.0) {
    std::fprintf(stderr, "error: --interactive-frac and --batch-frac must sum to <= 1\n");
    return 1;
  }
  const Trace trace = GenerateTrace(cfg);
  if (!WriteTraceFile(out, trace)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu requests over %.0f s (%d models, %d tenants, %s, %s) to %s\n",
              trace.requests.size(), trace.duration_s, trace.n_models, trace.n_tenants,
              PopularityDistName(cfg.dist), TenantScenarioName(cfg.tenants.scenario),
              out.c_str());
  return 0;
}

// Shared --model/--gpu/--tp/--n/--rank/--bits/--engine parsing for the simulate
// and cluster subcommands. On success `vllm_baseline` says which engine family
// the name selected ("lora" also sets cfg.exec.lora_rank to --rank), and a worker
// of `cfg` fits its GPU memory: a model or adapter too large for it is a usage
// error naming the flags to change.
bool ParseEngineArgs(const ArgMap& args, EngineConfig& cfg, bool& vllm_baseline) {
  const std::string model = Get(args, "model", "13b");
  if (model == "7b") {
    cfg.exec.shape = ModelShape::Llama7B();
  } else if (model == "13b") {
    cfg.exec.shape = ModelShape::Llama13B();
  } else if (model == "70b") {
    cfg.exec.shape = ModelShape::Llama70B();
  } else if (model == "pythia") {
    cfg.exec.shape = ModelShape::Pythia2p8B();
  } else {
    std::fprintf(stderr, "error: unknown --model '%s'\n", model.c_str());
    return false;
  }
  const std::string gpu = Get(args, "gpu", "a800");
  if (gpu == "a800") {
    cfg.exec.gpu = GpuSpec::A800();
  } else if (gpu == "3090") {
    cfg.exec.gpu = GpuSpec::Rtx3090();
  } else {
    std::fprintf(stderr, "error: unknown --gpu '%s'\n", gpu.c_str());
    return false;
  }
  cfg.exec.tp = 4;  // the usage text's default, not ExecModelConfig's
  int bits = 4;
  int rank = 16;
  if (!GetNum(args, "tp", {1, kIntMax}, cfg.exec.tp) ||
      !GetNum(args, "n", {1, kIntMax}, cfg.max_concurrent_deltas) ||
      !GetNum(args, "rank", {1, kIntMax}, rank) ||
      !GetNum(args, "bits", {2, 4}, bits) ||
      !GetNum(args, "prefetch", {0, 1}, cfg.prefetch.enabled) ||
      !GetNum(args, "lookahead", {0, kIntMax}, cfg.prefetch.lookahead) ||
      !GetNum(args, "admission", {0, 1}, cfg.scheduler.admission_control) ||
      !GetNum(args, "class-preempt", {0, 1}, cfg.scheduler.class_preemption)) {
    return false;
  }
  if (bits == 3) {
    std::fprintf(stderr, "error: --bits must be 2 or 4\n");
    return false;
  }
  if (bits == 2) {
    cfg.exec.delta_format = WeightFormat::kSparseInt2;
  }
  const std::string engine_name = Get(args, "engine", "deltazip");
  vllm_baseline = false;
  if (engine_name == "lora") {
    cfg.exec.lora_rank = rank;
  } else if (engine_name == "vllm-scb") {
    vllm_baseline = true;
  } else if (engine_name != "deltazip") {
    std::fprintf(stderr, "error: unknown --engine '%s'\n", engine_name.c_str());
    return false;
  }
  if (!GetName(args, "sched", kSchedPolicies, SchedPolicyName, cfg.scheduler.policy)) {
    return false;
  }
  const WorkerMemory mem = PlanWorkerMemory(cfg, ExecModel(cfg.exec), vllm_baseline);
  if (mem.fit == WorkerFit::kNoArtifactSlot && cfg.exec.lora_rank > 0) {
    std::fprintf(stderr,
                 "error: a --rank %d adapter (%.1f GB) does not fit beside --model %s on "
                 "--tp %d x --gpu %s; lower --rank\n",
                 rank, mem.slot_bytes / 1e9, model.c_str(), cfg.exec.tp, gpu.c_str());
    return false;
  }
  if (mem.fit != WorkerFit::kFits) {
    std::fprintf(stderr,
                 "error: --model %s with its memory reserve and one artifact does not fit "
                 "in --tp %d x --gpu %s (%.0f GB); raise --tp, or pick a smaller --model "
                 "or a larger --gpu\n",
                 model.c_str(), cfg.exec.tp, gpu.c_str(), mem.total / 1e9);
    return false;
  }
  return true;
}

// Applies --isa by forcing the named kernel backend before any work runs.
// Fails (usage error, exit 1) when the name is not compiled into this binary
// or this CPU cannot run it; the error lists what is available.
bool ApplyIsaFlag(const ArgMap& args) {
  const std::string isa = Get(args, "isa", "");
  if (isa.empty()) {
    return true;
  }
  if (!kernels::ForceBackend(isa)) {
    std::string available;
    for (const std::string& name : kernels::CompiledBackends()) {
      if (!available.empty()) {
        available += ", ";
      }
      available += name;
      if (!kernels::BackendSupported(name)) {
        available += " (unsupported on this CPU)";
      }
    }
    std::fprintf(stderr, "error: unknown or unsupported --isa '%s' (compiled: %s)\n",
                 isa.c_str(), available.c_str());
    return false;
  }
  return true;
}

// Report-header line naming the kernel backend this process is dispatched to.
std::string KernelBackendLine() {
  const kernels::Backend& b = kernels::ActiveBackend();
  char buf[128];
  std::snprintf(buf, sizeof(buf), "kernel backend: %s (%s, %d-wide fp32)",
                b.name, b.isa, b.vector_width);
  return buf;
}

bool LoadTraceArg(const ArgMap& args, const char* subcommand, Trace& trace) {
  const std::string trace_path = Get(args, "trace", "");
  if (trace_path.empty()) {
    std::fprintf(stderr, "error: %s requires --trace <file.jsonl>\n", subcommand);
    return false;
  }
  if (!ReadTraceFile(trace_path, trace)) {
    std::fprintf(stderr, "error: cannot read trace %s\n", trace_path.c_str());
    return false;
  }
  return true;
}

// One run's JSONL export: every in-run timeline snapshot, then the final
// snapshot (tagged phase=final), all with the caller's context labels.
bool AppendRunMetrics(MetricsJsonlWriter& writer, const ServeReport& report,
                      std::vector<std::pair<std::string, std::string>> context) {
  context.emplace_back("phase", "timeline");
  for (const MetricsSnapshot& snap : report.timeline) {
    if (!writer.Append(snap, context)) {
      return false;
    }
  }
  context.back().second = "final";
  return writer.Append(report.metrics, context);
}

int CmdSimulate(const ArgMap& args) {
  if (!ApplyIsaFlag(args)) {
    return 1;
  }
  Trace trace;
  if (!LoadTraceArg(args, "simulate", trace)) {
    return 1;
  }
  EngineConfig cfg;
  bool vllm_baseline = false;
  if (!ParseEngineArgs(args, cfg, vllm_baseline)) {
    return 1;
  }
  const std::string metrics_out = Get(args, "metrics-out", "");
  if (!GetNum(args, "metrics-interval", {0, kMaxSeconds, true}, cfg.metrics.interval_s)) {
    return 1;
  }
  std::string trace_out;
  if (!GetTraceOut(args, trace_out)) {
    return 1;
  }
  cfg.tracing.enabled = !trace_out.empty();
  const ServeReport report = MakeEngine(cfg, vllm_baseline)->Serve(trace);
  if (!trace_out.empty()) {
    if (!WriteChromeTrace(trace_out, report.trace_events)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", report.trace_events.size(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    MetricsJsonlWriter writer(metrics_out);
    if (!writer.ok() ||
        !AppendRunMetrics(writer, report,
                          {{"cmd", "simulate"}, {"engine", report.engine_name}})) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %d metrics snapshots to %s\n", writer.lines_written(),
                metrics_out.c_str());
  }
  std::printf("%s\n", KernelBackendLine().c_str());
  Table table({"metric", "value"});
  table.AddRow({"engine", report.engine_name});
  table.AddRow({"requests", std::to_string(report.completed())});
  table.AddRow({"makespan (s)", Table::Num(report.makespan_s, 1)});
  table.AddRow({"throughput (req/s)", Table::Num(report.ThroughputRps(), 3)});
  table.AddRow({"token throughput (tok/s)", Table::Num(report.TokenThroughput(), 1)});
  table.AddRow({"mean E2E (s)", Table::Num(report.MeanE2e(), 2)});
  table.AddRow({"P90 E2E (s)", Table::Num(Percentile(report.E2es(), 90), 2)});
  table.AddRow({"mean TTFT (s)", Table::Num(report.MeanTtft(), 3)});
  table.AddRow({"P90 TTFT (s)", Table::Num(Percentile(report.Ttfts(), 90), 3)});
  table.AddRow({"artifact loads (PCIe/disk)", std::to_string(report.TotalLoads()) + "/" +
                                                  std::to_string(report.DiskLoads())});
  if (cfg.prefetch.enabled) {
    table.AddRow({"prefetch issued/hits/wasted",
                  std::to_string(report.PrefetchIssued()) + "/" +
                      std::to_string(report.PrefetchHits()) + "/" +
                      std::to_string(report.PrefetchWasted())});
    table.AddRow({"stall hidden by prefetch (s)", Table::Num(report.StallHiddenS(), 3)});
  }
  // Tenant/class rows only for multi-tenant traffic or actual sheds, matching
  // the pre-tenant rendering otherwise (AppendTenantRows gates internally).
  AppendTenantRows(table, report);
  // Critical-path breakdown rows only for traced runs (gated internally).
  AppendAttributionRows(table, report);
  std::printf("%s", table.ToAscii().c_str());
  return 0;
}

int CmdCluster(const ArgMap& args) {
  if (!ApplyIsaFlag(args)) {
    return 1;
  }
  Trace trace;
  if (!LoadTraceArg(args, "cluster", trace)) {
    return 1;
  }
  ClusterConfig cfg;
  if (!ParseEngineArgs(args, cfg.engine, cfg.vllm_baseline)) {
    return 1;
  }
  if (args.find("gpus") == args.end()) {
    std::fprintf(stderr, "error: cluster requires --gpus <n>\n");
    return 1;
  }
  if (!GetNum(args, "gpus", {1, kMaxWorkers}, cfg.placer.n_gpus)) {
    return 1;
  }
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;  // the usage text's, not PlacerConfig's
  if (!GetName(args, "policy", kPlacementPolicies, PlacementPolicyName, cfg.placer.policy)) {
    return 1;
  }
  const std::string fault_spec = Get(args, "faults", "");
  if (!fault_spec.empty() && !ParseFaultPlan(fault_spec, cfg.faults)) {
    std::fprintf(stderr,
                 "error: bad --faults spec '%s' (tokens: crash@T:wI, "
                 "recover@T:wI, slow@A-B:wIxF, part@A-B:wI, detect=S, "
                 "reroute=0|1)\n",
                 fault_spec.c_str());
    return 1;
  }
  if (!GetNum(args, "autoscale", {0, 1}, cfg.autoscale.enabled) ||
      !GetNum(args, "min-workers", {1, kMaxWorkers}, cfg.autoscale.min_workers) ||
      !GetNum(args, "max-workers", {1, kMaxWorkers}, cfg.autoscale.max_workers)) {
    return 1;
  }
  if (cfg.autoscale.enabled && cfg.autoscale.max_workers < cfg.autoscale.min_workers) {
    std::fprintf(stderr,
                 "error: need --min-workers <= --max-workers (got %d..%d)\n",
                 cfg.autoscale.min_workers, cfg.autoscale.max_workers);
    return 1;
  }
  const std::string replication = Get(args, "replication", "");
  const std::string erasure = Get(args, "erasure", "");
  if (!replication.empty() && !erasure.empty()) {
    std::fprintf(stderr,
                 "error: --replication and --erasure are mutually exclusive\n");
    return 1;
  }
  if (!replication.empty() || !erasure.empty()) {
    // Both become a "replicate(N)" or "erasure(k,m)" spec for the registry's
    // own parser, so the flags accept exactly the counts it does.
    const std::string spec = !replication.empty()
                                 ? "replicate(" + replication + ")"
                                 : "erasure(" + erasure + ")";
    if (!ParseRedundancyPolicy(spec, cfg.registry.redundancy)) {
      std::fprintf(stderr,
                   "error: bad redundancy spec '%s' (--replication N>=1 or "
                   "--erasure k,m with k>=1, m>=0)\n",
                   spec.c_str());
      return 1;
    }
    // Each fragment needs its own worker (ArtifactRegistry checks it).
    if (cfg.registry.redundancy.FragmentCount() > cfg.placer.n_gpus) {
      std::fprintf(stderr,
                   "error: --%s needs %d workers, one per fragment; --gpus is %d\n",
                   !replication.empty() ? "replication" : "erasure",
                   cfg.registry.redundancy.FragmentCount(), cfg.placer.n_gpus);
      return 1;
    }
    cfg.registry.enabled = true;
  }
  if (!GetNum(args, "net-gbps", {0, kMaxRate, true}, cfg.registry.net_gbps)) {
    return 1;
  }
  const std::string metrics_out = Get(args, "metrics-out", "");
  double slo_e2e_s = 120.0;
  double slo_ttft_s = 30.0;
  if (!GetNum(args, "metrics-interval", {0, kMaxSeconds, true},
              cfg.engine.metrics.interval_s) ||
      !GetNum(args, "slo-e2e", {0, kMaxSeconds, true}, slo_e2e_s) ||
      !GetNum(args, "slo-ttft", {0, kMaxSeconds, true}, slo_ttft_s)) {
    return 1;
  }
  std::string trace_out;
  if (!GetTraceOut(args, trace_out)) {
    return 1;
  }
  cfg.engine.tracing.enabled = !trace_out.empty();
  const ClusterReport report = Cluster(cfg).Serve(trace);
  if (!trace_out.empty()) {
    const std::vector<TraceEvent> events = report.MergedTraceEvents();
    if (!WriteChromeTrace(trace_out, events)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", events.size(), trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    MetricsJsonlWriter writer(metrics_out);
    bool ok = writer.ok();
    for (size_t g = 0; ok && g < report.per_gpu.size(); ++g) {
      ok = AppendRunMetrics(writer, report.per_gpu[g],
                            {{"cmd", "cluster"}, {"gpu", std::to_string(g)}});
    }
    ok = ok && writer.Append(report.merged.metrics,
                             {{"cmd", "cluster"}, {"gpu", "merged"},
                              {"phase", "final"}});
    if (!ok) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %d metrics snapshots to %s\n", writer.lines_written(),
                metrics_out.c_str());
  }
  std::printf("%s\n", KernelBackendLine().c_str());
  std::printf("%s", report.Summary(slo_e2e_s, slo_ttft_s).c_str());
  return 0;
}

int CmdInspect(const ArgMap& args) {
  const std::string path = Get(args, "artifact", "");
  if (path.empty()) {
    std::fprintf(stderr, "error: inspect requires --artifact <file.bin>\n");
    return 1;
  }
  CompressedDelta delta;
  if (!ReadDeltaFile(path, delta)) {
    std::fprintf(stderr, "error: %s is not a valid DeltaZip artifact\n", path.c_str());
    return 1;
  }
  std::printf("artifact: %s\n", path.c_str());
  std::printf("config: %d-bit, %s, group %d, lossless=%s, solver=%s\n", delta.config.bits,
              delta.config.sparse24 ? "2:4 sparse" : "dense", delta.config.group_size,
              delta.config.lossless ? "on" : "off",
              delta.config.use_obs ? "OBS" : "RTN");
  std::printf("layers: %zu compressed linear deltas\n", delta.layers.size());
  size_t layer_bytes = 0;
  for (const auto& layer : delta.layers) {
    layer_bytes += layer.ByteSize();
  }
  std::printf("payload: %zu B linear deltas, %zu B total packed\n", layer_bytes,
              delta.PackedByteSize());
  std::printf("embedding delta: %s\n",
              delta.embedding_delta.FrobeniusNorm() == 0.0 ? "unchanged (elided)"
                                                           : "stored fp16");
  return 0;
}

void PrintGlobalUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dzip <trace|simulate|cluster|inspect> [--key value ...]\n"
               "       dzip <subcommand> --help   (per-subcommand usage)\n\n");
  for (const SubcommandSpec& spec : Subcommands()) {
    std::fprintf(out, "%s\n", spec.usage);
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintGlobalUsage(stderr);
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    // `dzip help <subcommand>` narrows to one usage block.
    if (argc >= 3) {
      if (const SubcommandSpec* spec = FindSubcommand(argv[2])) {
        std::fprintf(stdout, "%s", spec->usage);
        return 0;
      }
      std::fprintf(stderr, "error: unknown subcommand '%s'\n", argv[2]);
      PrintGlobalUsage(stderr);
      return 1;
    }
    PrintGlobalUsage(stdout);
    return 0;
  }
  const SubcommandSpec* spec = FindSubcommand(cmd);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", cmd.c_str());
    PrintGlobalUsage(stderr);
    return 1;
  }
  ArgMap args;
  bool help = false;
  if (!ParseArgs(argc, argv, 2, *spec, args, help)) {
    return 1;
  }
  if (help) {
    std::fprintf(stdout, "%s", spec->usage);
    return 0;
  }
  if (cmd == "trace") {
    return CmdTrace(args);
  }
  if (cmd == "simulate") {
    return CmdSimulate(args);
  }
  if (cmd == "cluster") {
    return CmdCluster(args);
  }
  if (cmd == "inspect") {
    return CmdInspect(args);
  }
  // A subcommand in Subcommands() without a dispatch branch is a programming
  // error, not a user error.
  std::fprintf(stderr, "internal error: no handler for subcommand '%s'\n", cmd.c_str());
  return 1;
}

}  // namespace
}  // namespace dz

int main(int argc, char** argv) { return dz::Main(argc, argv); }
