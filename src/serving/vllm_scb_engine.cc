// vLLM+SCB baseline (paper §6.1 "Baselines"): serves each fine-tuned model as an
// independent full-precision model. Supports (S)wapping whole models in and out of GPU
// memory, (C)ontinuous batching across the models resident in memory by looping through
// them each iteration, and (B)atching available requests for the same model. It cannot
// batch across variants and must move full fp16 checkpoints on every swap — the two
// costs DeltaZip removes. This file holds only the policy (which never preempts); the
// loop around it lives in serve_loop.cc.
#include <algorithm>
#include <limits>
#include <utility>

#include "src/serving/serve_loop.h"
#include "src/util/check.h"

namespace dz {

namespace {

class VllmScbPolicy : public ServePolicy {
 public:
  VllmScbPolicy(const EngineConfig& config, const ExecModel& exec)
      : config_(config), exec_(exec) {}

  ArtifactStoreConfig StoreConfig() override {
    // The reserve is the KV pool; every other byte holds whole models.
    const WorkerMemory mem = PlanWorkerMemory(config_, exec_, /*full_model=*/true);
    DZ_CHECK(mem.fit == WorkerFit::kFits);
    kv_capacity_tokens_ = static_cast<long long>(
        mem.reserved / std::max<size_t>(1, exec_.KvBytesPerTokenPerGpu() * config_.exec.tp));

    ArtifactStoreConfig store;
    store.artifact_bytes = mem.slot_bytes;
    store.gpu_budget_bytes = mem.slot_cap;
    // No host-side weight cache: every swap re-runs the checkpoint load path.
    store.cpu_budget_bytes = 0;
    store.disk_read_s = exec_.LoadFullModelFromDisk();
    store.h2d_s = exec_.LoadFullModelFromHost();
    return store;
  }

  // Warm hints and lookahead prefetches land asynchronously, off the critical
  // path: they never trigger the blocking demand swap.
  PrefetchConfig Setup(const ArtifactStore&) override { return config_.prefetch; }

  long long KvCapacityTokens() const override { return kv_capacity_tokens_; }

  void Admit(ServeLoop& loop, double now, Admission& admission) override;

  // One full-precision pass per resident model, in model-id order: per-model
  // prefill terms, then per-model decode terms.
  void IterationCosts(const ServeLoop& loop, long long prefill_tokens, double iter_s,
                      int rounds, double* out) override {
    if (prefill_tokens > 0) {
      prefills_.clear();
      for (const int h : loop.running()) {
        const RunningReq& r = loop.req(h);
        if (r.prefilling) {
          prefills_.emplace_back(r.state.req.model_id, r.state.req.prompt_tokens);
        }
      }
      std::sort(prefills_.begin(), prefills_.end());
      for (size_t i = 0; i < prefills_.size();) {
        const int model = prefills_[i].first;
        long long tokens = 0;
        for (; i < prefills_.size() && prefills_[i].first == model; ++i) {
          tokens += prefills_[i].second;
        }
        iter_s += exec_.PrefillTime(tokens);
      }
    }
    std::fill_n(out, rounds, iter_s);
    const BatchLedger& batch = loop.batch();
    for (int model : batch.ids) {
      exec_.AddDecodeIterTimes(batch.count[static_cast<size_t>(model)],
                               batch.ctx[static_cast<size_t>(model)], rounds, out);
    }
  }

 private:
  const EngineConfig& config_;
  const ExecModel& exec_;
  std::vector<std::pair<int, long long>> prefills_;  // (model, prompt) scratch
  long long kv_capacity_tokens_ = 0;
  // Completion of the in-flight *demand* swap (-inf when none): it sits on the
  // worker's critical path, prefetch transfers do not.
  double demand_ready_ = -std::numeric_limits<double>::infinity();
};

// Policy order; a request runs only once its model is resident, and the head
// of the line blocks on KV space. The models in use are `admission`'s active
// set, which is also what no demand swap may evict.
void VllmScbPolicy::Admit(ServeLoop& loop, double now, Admission& admission) {
  for (int model : loop.running_variants().ids) {
    admission.Activate(model);
  }
  const std::vector<int>& running = loop.running();
  const std::vector<int>& pinned = admission.active_ids;
  ArtifactStore& store = loop.store();
  std::vector<int>& queue = loop.queue();
  bool load_in_flight = demand_ready_ > now;
  for (auto it = queue.begin();
       it != queue.end() && static_cast<int>(running.size()) < config_.max_batch;) {
    PendingReq& p = loop.pending(*it);
    const int model = p.req.model_id;
    if (loop.KvTokensInUse() + KvTokens(p) > kv_capacity_tokens_) {
      break;
    }
    if (p.sched_attempt_s < 0.0) {
      p.sched_attempt_s = now;
    }
    if (!store.IsResident(model, now)) {
      // vLLM loads checkpoints synchronously in the serving process, so at most
      // one demand swap is in flight and it stalls every running request
      // (paper §2.2 "Swapping incurs high latency"). A model already arriving
      // via prefetch needs no swap: RequestLoad just registers the hit.
      if (store.IsLoading(model, now)) {
        store.RequestLoad(model, now, pinned);
      } else if (!load_in_flight) {
        if (store.GpuCount() >= store.GpuCapacity() &&
            admission.ActiveCount() >= store.GpuCapacity()) {
          ++it;  // every slot is actively serving; wait for one to drain
          continue;
        }
        const ArtifactStore::LoadResult load = store.RequestLoad(model, now, pinned);
        if (load.unavailable) {
          it = loop.Park(it);  // no live holder can source this model
          continue;
        }
        if (load.ok) {
          demand_ready_ = load.ready_at;
          load_in_flight = true;
        }
      }
      ++it;
      continue;
    }
    it = loop.Dispatch(it, now);
    admission.Activate(model);
  }
  admission.stall_until_s = demand_ready_;  // the worker waits for the swap
}

}  // namespace

std::unique_ptr<ServingEngine> MakeVllmScbEngine(const EngineConfig& config) {
  return std::make_unique<ServingEngine>(config, "vllm-scb", &MakePolicy<VllmScbPolicy>);
}

}  // namespace dz
