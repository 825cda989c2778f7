// DeltaZip serving engine (paper §5): keeps the base model resident, swaps compact
// per-variant artifacts (compressed deltas or LoRA adapters), batches requests across
// variants for the shared base-model GEMMs, and runs the variant-specific computation
// through the SBMM execution model. Scheduling is iteration-level FCFS with
// skip-the-line admission and parent-finish preemption (§5.4). This file holds only
// the policy; the loop around it lives in serve_loop.cc.
#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/serving/serve_loop.h"
#include "src/util/check.h"

namespace dz {

namespace {

// Host cache for artifacts (GB; the §5.4 disk → host → GPU hierarchy).
constexpr double kCpuCacheGb = 256.0;

class DeltaZipPolicy : public ServePolicy {
 public:
  DeltaZipPolicy(const EngineConfig& config, const ExecModel& exec)
      : config_(config), exec_(exec) {}

  ArtifactStoreConfig StoreConfig() override {
    const WorkerMemory mem = PlanWorkerMemory(config_, exec_, /*full_model=*/false);
    DZ_CHECK(mem.fit == WorkerFit::kFits);
    const size_t after_base = mem.total - mem.reserved;
    // Artifact budget: up to N slots, but always leave a KV floor, so on small GPUs
    // the effective N is capacity-clamped (the pressure paper Fig. 10 explores).
    // Prefetch staging slots add double-buffering headroom on top of N, paid for
    // out of the KV pool; when the slot cap already clamps the budget the staging
    // request is (partially) denied, and only granted slots leave scheduling.
    const int staging_slots =
        config_.prefetch.enabled ? std::max(0, config_.prefetch.staging_slots) : 0;
    const int n = config_.max_concurrent_deltas;
    const size_t slot_bytes = mem.slot_bytes;
    const size_t demand_budget = std::min(mem.slot_cap, static_cast<size_t>(n) * slot_bytes);
    const size_t staging_cap =
        std::min(mem.slot_cap, static_cast<size_t>(n + staging_slots) * slot_bytes);
    // Whole slots only: a fractional remainder would never fit an artifact.
    granted_staging_ = static_cast<int>((staging_cap - demand_budget) / slot_bytes);
    const size_t artifact_budget =
        demand_budget + static_cast<size_t>(granted_staging_) * slot_bytes;
    kv_capacity_tokens_ = static_cast<long long>(
        (after_base - artifact_budget) /
        std::max<size_t>(1, exec_.KvBytesPerTokenPerGpu() * config_.exec.tp));

    ArtifactStoreConfig store;
    store.artifact_bytes = slot_bytes;
    store.gpu_budget_bytes = artifact_budget;
    store.cpu_budget_bytes = static_cast<size_t>(kCpuCacheGb * 1e9);
    store.disk_read_s = exec_.LoadArtifactFromDisk();
    store.h2d_s = exec_.LoadArtifactFromHost();
    return store;
  }

  PrefetchConfig Setup(const ArtifactStore& store) override {
    // The batch spans at most N variants; granted staging slots stay free for
    // in-flight prefetches. Without them every prefetch would evict working-set
    // artifacts, so speculation is off rather than thrashing.
    effective_n_ = std::min(config_.max_concurrent_deltas,
                            std::max(1, store.GpuCapacity() - granted_staging_));
    PrefetchConfig prefetch = config_.prefetch;
    prefetch.enabled = prefetch.enabled && granted_staging_ > 0;
    return prefetch;
  }

  bool CanPreempt() const override { return true; }
  long long KvCapacityTokens() const override { return kv_capacity_tokens_; }

  double ArtifactPrefillS(long long tokens) const override {
    return exec_.ArtifactPrefillTime(tokens);
  }

  void Admit(ServeLoop& loop, double now, Admission& admission) override;

  // Base-model GEMMs shared by the whole batch plus the variant path (SBMM for
  // deltas, SGMV for LoRA), summed as: overhead + swaps, prefill, decode,
  // variant path. Only the decode term changes from round to round.
  void IterationCosts(const ServeLoop& loop, long long prefill_tokens, double iter_s,
                      int rounds, double* out) override {
    iter_s += exec_.PrefillTime(prefill_tokens) + ArtifactPrefillS(prefill_tokens);
    std::fill_n(out, rounds, iter_s);
    const BatchLedger& batch = loop.batch();
    if (batch.total > 0) {
      const int active = static_cast<int>(batch.ids.size());
      exec_.AddDecodeIterTimes(batch.total, batch.ctx_total, rounds, out);
      const double variant_s = exec_.ArtifactDecodeIterTime(batch.total, active);
      for (int j = 0; j < rounds; ++j) {
        out[j] += variant_s;
      }
    }
  }

  // Starvation control: preempt skippers whose parent finished (§5.4). A
  // skipper runs the variant of its parent, so with no request of a finished
  // parent's variant left running there is none to preempt.
  void AfterIteration(ServeLoop& loop, double now,
                      const std::vector<TraceRequest>& finished_parents) override {
    for (const TraceRequest& parent : finished_parents) {
      parent_of_variant_[static_cast<size_t>(parent.model_id)] = kNoParent;
    }
    const std::vector<int>& running_count = loop.running_variants().count;
    if (!config_.preemption ||
        std::none_of(finished_parents.begin(), finished_parents.end(),
                     [&running_count](const TraceRequest& parent) {
                       return running_count[static_cast<size_t>(parent.model_id)] > 0;
                     })) {
      return;
    }
    std::vector<int>& running = loop.running();
    for (auto it = running.begin(); it != running.end();) {
      const RunningReq& r = loop.req(*it);
      const bool orphaned =
          r.is_skipper &&
          std::any_of(finished_parents.begin(), finished_parents.end(),
                      [&r](const TraceRequest& parent) { return parent.id == r.parent_id; });
      const int remaining = r.state.req.output_tokens - r.state.decoded;
      if (orphaned && remaining > 0) {
        it = loop.Preempt(it, now, /*swap_out=*/true);
      } else {
        ++it;
      }
    }
  }

 private:
  static constexpr int kNoParent = std::numeric_limits<int>::min();

  const EngineConfig& config_;
  const ExecModel& exec_;
  // Variant → request id of its running parent, or kNoParent. A request is
  // its variant's parent when it was dispatched with none running, and stays
  // so until it completes: only skippers are ever preempted.
  std::vector<int> parent_of_variant_;
  // Admission scratch, reused every round: the variants no load may evict,
  // and the round in which each variant was last claimed for loading.
  std::vector<int> pinned_;
  std::vector<uint64_t> claimed_round_;
  uint64_t round_ = 0;
  long long kv_capacity_tokens_ = 0;
  int granted_staging_ = 0;
  int effective_n_ = 0;
};

// Policy order + skip-the-line over at most N variants, then class preemption.
// The batch's variants are `admission`'s active set.
void DeltaZipPolicy::Admit(ServeLoop& loop, double now, Admission& admission) {
  const size_t n_models = static_cast<size_t>(loop.n_models());
  parent_of_variant_.resize(n_models, kNoParent);
  claimed_round_.resize(n_models, 0);
  ++round_;
  const std::vector<int>& running_ids = loop.running_variants().ids;
  pinned_.assign(running_ids.begin(), running_ids.end());
  for (int variant : running_ids) {
    admission.Activate(variant);
  }
  std::vector<int>& running = loop.running();
  ArtifactStore& store = loop.store();
  std::vector<int>& queue = loop.queue();
  for (auto it = queue.begin();
       it != queue.end() && static_cast<int>(running.size()) < config_.max_batch;) {
    PendingReq& p = loop.pending(*it);
    const int variant = p.req.model_id;
    const bool new_variant = !admission.IsActive(variant);
    // Blocked by the N-variant cap or by KV space: strict FCFS stops at the
    // head of the line, skip-the-line looks further back.
    if ((new_variant && admission.ActiveCount() >= effective_n_) ||
        loop.KvTokensInUse() + KvTokens(p) > kv_capacity_tokens_) {
      if (!config_.skip_the_line) {
        break;
      }
      ++it;
      continue;
    }
    if (p.sched_attempt_s < 0.0) {
      p.sched_attempt_s = now;
    }
    if (!store.IsResident(variant, now)) {
      // A variant claimed earlier this round is pinned and loading: asking
      // again would change nothing.
      if (claimed_round_[static_cast<size_t>(variant)] != round_) {
        const ArtifactStore::LoadResult load = store.RequestLoad(variant, now, pinned_);
        if (load.unavailable) {
          it = loop.Park(it);  // no live holder can source this artifact
          continue;
        }
        if (load.ok) {
          admission.Activate(variant);  // the slot is claimed while loading
          pinned_.push_back(variant);
          claimed_round_[static_cast<size_t>(variant)] = round_;
        }
      }
      ++it;  // admitted once the artifact lands (or a slot frees up)
      continue;
    }
    // Dispatched variants join the active set but not `pinned_`, so a later
    // load this round may still evict one.
    it = loop.Dispatch(it, now);
    RunningReq& r = loop.req(running.back());
    int& parent = parent_of_variant_[static_cast<size_t>(variant)];
    if (parent == kNoParent) {
      parent = r.state.req.id;
    } else {
      r.is_skipper = true;
      r.parent_id = parent;
    }
    admission.Activate(variant);
  }
  // Class preemption: each queued interactive request evicts one running
  // batch-class skipper (KV swap to host, re-queue, resume later); parents stay.
  // It needs a class-aware order: under FCFS the evicted skipper would re-sort
  // ahead and reclaim the slot next round (an admit/evict livelock).
  if (!config_.scheduler.class_preemption ||
      config_.scheduler.policy == SchedPolicy::kFcfs) {
    return;
  }
  // Only interactive requests blocked on KV space or batch slots count: one
  // blocked on the N-variant cap gains nothing from evicting a skipper, whose
  // variant slot stays pinned by its parent. The queue is in policy order, so
  // under kPriority the interactive requests lead it.
  const bool batch_full = static_cast<int>(running.size()) >= config_.max_batch;
  int blocked_interactive = 0;
  double min_blocked_tag = std::numeric_limits<double>::infinity();
  for (const int h : queue) {
    const PendingReq& p = loop.pending(h);
    if (p.req.slo != SloClass::kInteractive) {
      if (config_.scheduler.policy == SchedPolicy::kPriority) {
        break;
      }
      continue;
    }
    if (batch_full || admission.IsActive(p.req.model_id)) {
      ++blocked_interactive;
      min_blocked_tag = std::min(min_blocked_tag, p.fair_tag);
    }
  }
  for (auto it = running.begin(); blocked_interactive > 0 && it != running.end();) {
    const RunningReq& r = loop.req(*it);
    const int remaining = r.state.req.output_tokens - r.state.decoded;
    // An evicted skipper keeps its DWFQ tag, so under kDwfq only skippers that
    // re-sort behind the blocked request yield (else they reclaim the slot).
    const bool yields = config_.scheduler.policy != SchedPolicy::kDwfq ||
                        r.state.fair_tag > min_blocked_tag;
    if (r.is_skipper && r.state.req.slo == SloClass::kBatch && yields && remaining > 0) {
      // Only KV materialized on the GPU costs a swap-out: a skipper admitted
      // this round has none, a resumed one not yet restored is still on host.
      it = loop.Preempt(it, now, /*swap_out=*/r.prefilled && !r.needs_kv_restore);
      --blocked_interactive;
    } else {
      ++it;
    }
  }
}

}  // namespace

std::unique_ptr<ServingEngine> MakeDeltaZipEngine(const EngineConfig& config) {
  const char* name = config.exec.lora_rank > 0 ? "deltazip-lora" : "deltazip";
  return std::make_unique<ServingEngine>(config, name, &MakePolicy<DeltaZipPolicy>);
}

}  // namespace dz
