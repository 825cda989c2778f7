// Serving-engine interface and shared configuration.
//
// Engines execute a Trace in simulated time against an ExecModel (iteration-level GPU
// cost model) and an ArtifactStore (GPU/CPU/disk placement), producing a ServeReport.
// Two engines implement the paper's comparison (§6.3), both as a ServePolicy on the
// one shared ServeLoop (src/serving/serve_loop.h):
//   * MakeDeltaZipEngine — decoupled base+delta serving with SBMM, skip-the-line
//     continuous batching, and parent-finish preemption (§5). Also serves LoRA
//     adapters (Punica-style) for the §6.4 experiments.
//   * MakeVllmScbEngine — the vLLM+SCB baseline: full-model swapping with per-model
//     continuous batching.
// The cluster layer (src/cluster/) composes N such engines behind a router; an
// EngineConfig therefore describes ONE worker, which may itself span multiple GPUs
// via `exec.tp` (paper Fig. 18).
#ifndef SRC_SERVING_ENGINE_H_
#define SRC_SERVING_ENGINE_H_

#include <memory>
#include <vector>

#include "src/obs/trace_recorder.h"
#include "src/serving/artifact_store.h"
#include "src/serving/report.h"
#include "src/serving/scheduler.h"
#include "src/simgpu/exec_model.h"
#include "src/workload/trace.h"

namespace dz {

// Asynchronous artifact prefetch (beyond the paper, §8 future work; MetaSys-style
// cross-layer pipelining): each scheduling round the engine scans its waiting queue
// and warms the artifacts of the next `lookahead` distinct variants on the
// ArtifactStore's transfer channels, so a cold tenant's delta travels
// disk→CPU→GPU while the current batch computes instead of stalling admission.
struct PrefetchConfig {
  // Off by default; when false the engine issues no prefetches and its behavior is
  // bit-identical to the pre-prefetch engines (test-enforced).
  bool enabled = false;
  // W: how many distinct waiting variants (beyond the running batch) to warm ahead
  // of admission each scheduling round.
  int lookahead = 4;
  // Extra ArtifactStore slots reserved for in-flight prefetches, carved out of the
  // KV pool (double-buffering costs real GPU memory). Without headroom a prefetch
  // could never proceed: all N artifact slots are pinned by the running batch.
  // DeltaZip engine only — the vLLM baseline's full-model slots are far too large
  // to double-buffer, so it prefetches into whatever slots are free or evictable.
  int staging_slots = 1;
  // Placement-aware warm hints, typically injected by the cluster Router (variant
  // ids, most likely first): starting at t = 0, the engine drains them one
  // low-priority transfer at a time as the channels go idle, so a worker warms
  // the artifacts the placement policy will route to it before their requests
  // land. Capped at the store's GPU capacity; out-of-range ids are ignored, as is
  // the whole list when `enabled` is false.
  std::vector<int> warm_hints;
};

// In-run metrics export (the unified metrics layer). Every engine run always
// keeps a registry and returns its final snapshot in ServeReport::metrics;
// this config additionally samples the registry DURING the run on the
// simulated clock, producing the ServeReport::timeline JSONL time series
// (`dzip_cli --metrics-out/--metrics-interval`, bench_soak).
struct MetricsExportConfig {
  // Simulated seconds between in-run snapshots; 0 (default) disables the
  // timeline (final snapshot only). Snapshots never perturb scheduling, so any
  // interval is bit-identical to interval 0 (golden-enforced).
  double interval_s = 0.0;
};

// One worker's configuration. Units: times in (simulated) seconds, sizes in GB
// where named so, token budgets in tokens.
struct EngineConfig {
  // Model shape × GPU spec × tensor-parallel degree, and the per-variant artifact
  // (`exec.lora_rank`); the vLLM-SCB baseline swaps whole fp16 models (§6.1) instead.
  ExecModelConfig exec;
  int max_batch = 32;             // K concurrently served requests (§5.4)
  int max_concurrent_deltas = 8;  // N artifacts co-resident per batch (§5.4, Fig. 10)
  bool skip_the_line = true;      // admit later requests of resident variants (§5.4)
  bool preemption = true;  // preempt skippers when their parent finishes (§5.4)
  long long max_prefill_tokens = 2048;  // per-iteration prompt-token budget
  PrefetchConfig prefetch;              // async artifact prefetch (off by default)
  MetricsExportConfig metrics;          // in-run snapshot timeline (off by default)
  // Per-request tracing (src/obs/): off by default and bit-identical to the
  // untraced engines; on, it is pure observation — no report scalar changes
  // (both golden-enforced). ring_capacity > 0 selects flight-recorder mode.
  TracingConfig tracing;
  // Multi-tenant scheduling policy + admission control. Defaults (FCFS, no
  // shedding, no class preemption) are bit-identical to the pre-scheduler
  // engines (golden-enforced).
  SchedulerConfig scheduler;
  // Simulated time the engine's clock starts at (default bit-identical,
  // golden-enforced). An elastic cluster starts a worker that joins mid-run
  // (scale-up, recovery) at the join time. The other fault hooks act on a
  // running loop (serve_loop.h): halting is the RunUntil argument, a slow node
  // ServeLoop::SetSpeed, a partition ArtifactStore::AddOutage.
  double start_s = 0.0;
  // Artifact-registry attachment (artifact_store.h); detached by default.
  RegistryAttachment registry;
};

class ServeLoop;
class ServePolicy;
// Builds an engine's policy over the config and cost model its loop owns.
using PolicyFactory = std::unique_ptr<ServePolicy> (*)(const EngineConfig&,
                                                        const ExecModel&);

// Serves requests in simulated time and returns per-request records + aggregates.
class ServingEngine {
 public:
  ServingEngine(const EngineConfig& config, const char* name, PolicyFactory make_policy)
      : config_(config), name_(name), make_policy_(make_policy) {}
  // Opens a live run over `n_models` variants and `n_tenants` tenants: a
  // ServeLoop (serve_loop.h) that is offered requests and stepped over time.
  std::unique_ptr<ServeLoop> Start(int n_models, int n_tenants) const;
  // Replays a whole trace: Start, offer every request, run to the end, finish.
  ServeReport Serve(const Trace& trace) const;
  // Stable engine identifier ("deltazip", "deltazip-lora", "vllm-scb").
  const char* name() const { return name_; }

 private:
  EngineConfig config_;
  const char* name_;
  PolicyFactory make_policy_;
};

std::unique_ptr<ServingEngine> MakeDeltaZipEngine(const EngineConfig& config);
std::unique_ptr<ServingEngine> MakeVllmScbEngine(const EngineConfig& config);
// The one choice between the two: the vLLM-SCB baseline when `vllm_baseline`,
// else DeltaZip ("deltazip", or "deltazip-lora" when `config.exec.lora_rank` > 0).
std::unique_ptr<ServingEngine> MakeEngine(const EngineConfig& config, bool vllm_baseline);

// Whether a worker's GPU memory holds what its engine needs before it can serve:
// the resident weights plus their reserve leave memory over, and one artifact fits
// in the share left for artifacts.
enum class WorkerFit { kFits, kBaseTooLarge, kNoArtifactSlot };

// One worker's GPU memory over all its TP shards, as its engine divides it: resident
// weights plus a reserve (DeltaZip: the base model and an activation reserve; the
// vLLM-SCB baseline, `full_model`, whose models are all artifacts: the KV pool),
// then at most `slot_cap` bytes of the rest for artifact slots of `slot_bytes`: a
// whole fp16 model on vLLM-SCB, else the ExecModel's artifact. The engines' stores
// hold artifacts of that size, and the cluster meters registry repair against it.
struct WorkerMemory {
  size_t total = 0;
  size_t reserved = 0;
  size_t slot_bytes = 0;
  size_t slot_cap = 0;
  WorkerFit fit = WorkerFit::kFits;
};
WorkerMemory PlanWorkerMemory(const EngineConfig& config, const ExecModel& exec,
                              bool full_model);

}  // namespace dz

#endif  // SRC_SERVING_ENGINE_H_
