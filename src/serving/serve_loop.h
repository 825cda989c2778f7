// The one serving loop both engines run (paper §5 vs. the §6.1 vLLM+SCB
// baseline). It owns everything they share: the per-run Observer (metrics and
// trace, observer.h) and ArtifactStore, ingest, shedding, the halt check,
// parking, dispatch, prefetch, the idle fast-forward, progress, records, and
// the report tail, which checks records + shed + unavailable + unfinished ==
// offered on every run. Each engine plugs in a ServePolicy: set-up plus
// admit, iteration-cost and post-iteration-preemption hooks.
#ifndef SRC_SERVING_SERVE_LOOP_H_
#define SRC_SERVING_SERVE_LOOP_H_

#include <deque>
#include <limits>
#include <vector>

#include "src/serving/artifact_store.h"
#include "src/serving/engine.h"
#include "src/serving/observer.h"
#include "src/serving/scheduler.h"

namespace dz {

// A waiting request. Progress survives preemption: a re-queued request keeps
// its decoded tokens, first-token time, admission time and fair tag.
struct PendingReq {
  TraceRequest req;
  double sched_attempt_s = -1.0;  // first time the scheduler considered it
  double fair_tag = -1.0;         // DWFQ virtual finish tag
  double min_service_s = -1.0;    // cached optimistic service estimate (admission)
  int decoded = 0;                // > 0 for resumed (preempted) requests
  bool has_first_token = false;
  double first_token_s = 0.0;
  double start_s = -1.0;
  int preemptions = 0;
};

// KV tokens a request reserves while it runs: its prompt plus its full output.
inline long long KvTokens(const PendingReq& p) {
  return p.req.prompt_tokens + p.req.output_tokens;
}

struct RunningReq {
  PendingReq state;
  bool prefilled = false;   // resumed requests skip prefill (KV restored instead)
  bool prefilling = false;  // prefills in the iteration being simulated
  bool needs_kv_restore = false;
  bool is_skipper = false;  // admitted behind a running request of its variant
  int parent_id = -1;       // request id of the skipper's parent (for preemption)
};

// What one admission pass hands back to the loop. The loop owns one and resets
// it each round, so its per-variant arrays are allocated once per run.
struct Admission {
  // Per-variant mask of the variants the batch owns this round (running,
  // loading for it, just admitted): never prefetch targets, never evicted by a
  // prefetch. `active_ids` lists the set entries in the order they were set.
  std::vector<char> active;
  std::vector<int> active_ids;
  // The worker generates nothing until then (a synchronous transfer).
  double stall_until_s = -std::numeric_limits<double>::infinity();

  bool IsActive(int variant) const { return active[static_cast<size_t>(variant)] != 0; }
  int ActiveCount() const { return static_cast<int>(active_ids.size()); }
  // Marks `variant` active; false when it already was.
  bool Activate(int variant) {
    char& bit = active[static_cast<size_t>(variant)];
    if (bit != 0) {
      return false;
    }
    bit = 1;
    active_ids.push_back(variant);
    return true;
  }
  // Starts a round over `n_variants` variants with nothing active: O(active).
  void Reset(int n_variants) {
    if (active.size() != static_cast<size_t>(n_variants)) {
      active.assign(static_cast<size_t>(n_variants), 0);
    }
    for (int variant : active_ids) {
      active[static_cast<size_t>(variant)] = 0;
    }
    active_ids.clear();
    stall_until_s = -std::numeric_limits<double>::infinity();
  }
};

// The lists RunPrefetchPass (prefetcher.h) rebuilds each round; the loop keeps
// one instance so they are allocated once per run.
struct PrefetchScratch {
  std::vector<int> window;   // the round's prefetch targets
  std::vector<int> protect;  // active variants + window: a prefetch evicts none
};

class ServeLoop;

// One engine's policy; a fresh instance serves each run.
class ServePolicy {
 public:
  virtual ~ServePolicy() = default;
  // Set-up, before the store exists: its geometry (and the policy's KV pool).
  virtual ArtifactStoreConfig StoreConfig() = 0;
  // Set-up, once the store exists: the prefetch settings the run uses.
  virtual PrefetchConfig Setup(const ArtifactStore& store) = 0;
  // Only a policy that can preempt gets a preemption counter (and may call
  // ServeLoop::Preempt).
  virtual bool CanPreempt() const { return false; }
  // Variant-path prefill seconds on top of the base model's.
  virtual double ArtifactPrefillS(long long /*tokens*/) const { return 0.0; }
  // Admit: moves queued requests into the batch via ServeLoop::Dispatch and
  // fills `admission`, which the loop has reset for this round.
  virtual void Admit(ServeLoop& loop, double now, Admission& admission) = 0;
  // Iteration cost: adds the iteration's compute to `iter_s` (overhead plus
  // pending KV swaps) in the engine's own summation order. The requests
  // marked `prefilling` hold `prefill_tokens` prompt tokens between them.
  virtual double IterationCost(const ServeLoop& loop, long long prefill_tokens,
                               double iter_s) = 0;
  // Post-iteration preemption, given the ids of finished non-skippers.
  virtual void AfterIteration(ServeLoop& /*loop*/, double /*now*/,
                              const std::vector<int>& /*finished_parents*/) {}
};

class ServeLoop {
 public:
  using QueueIt = std::deque<PendingReq>::iterator;
  using RunIt = std::vector<RunningReq>::iterator;

  ServeLoop(const EngineConfig& config, const ExecModel& exec, const Trace& trace,
            ServePolicy& policy);
  // Serves the trace (up to config.halt_s). Call once.
  ServeReport Run(const char* engine_name);

  // ---- what policies read and do ----
  const Trace& trace() const { return trace_; }
  ArtifactStore& store() { return store_; }
  // The waiting queue, in policy order (see Ingest) except for requests
  // preempted since the last ingest, which wait at the back.
  std::deque<PendingReq>& queue() { return queue_; }
  std::vector<RunningReq>& running() { return running_; }
  const std::vector<RunningReq>& running() const { return running_; }
  // KV tokens the running batch reserves (prompt + full output per request).
  long long KvTokensInUse() const { return kv_in_use_; }
  // Admits *it (Touch, dispatch event, DWFQ OnAdmit) to the back of the
  // running batch; returns the next queue position.
  QueueIt Dispatch(QueueIt it, double now);
  // Parks *it on a typed-unavailable artifact: registry liveness is constant
  // within a run, so retrying would spin. Parked requests end `unavailable` on
  // a natural run and `unfinished` on a halted one.
  QueueIt Park(QueueIt it);
  // Re-queues *it with its progress banked; `swap_out` charges the KV swap to
  // host to the next iteration. Returns the next running position.
  RunIt Preempt(RunIt it, double now, bool swap_out);

 private:
  // Re-inserts the preempted tail, then inserts the arrivals due by `now`.
  void Ingest(double now);
  double MinServiceS(PendingReq& p) const;
  void Shed(double now);
  double Iterate(double now);  // returns the iteration's duration
  void Complete(const PendingReq& s, double now);
  ServeReport Finish();

  const EngineConfig& config_;
  const ExecModel& exec_;
  const Trace& trace_;
  ServePolicy& policy_;
  ServeReport report_;
  // Observer before store: the store reports its transfer segments to it.
  // Pure observation — nothing reported feeds back into scheduling.
  Observer observer_;
  ArtifactStore store_;
  PrefetchConfig prefetch_;
  std::deque<int> warm_hints_;
  FairQueue fair_queue_;

  Counter* rounds_count_;

  std::deque<PendingReq> queue_;
  size_t requeued_ = 0;  // preempted requests at the back of queue_
  std::vector<PendingReq> requeue_scratch_;
  std::vector<RunningReq> running_;
  long long kv_in_use_ = 0;  // KvTokensInUse(), kept as running_ changes
  std::vector<TraceRequest> parked_;
  std::vector<int> finished_parents_;
  Admission admission_;
  PrefetchScratch prefetch_scratch_;
  size_t next_arrival_ = 0;
  size_t shed_total_ = 0;
  double pending_swap_s_ = 0.0;  // KV swap work charged to the next iteration
};

// A ServingEngine that serves each trace with a fresh `Policy` on the loop.
template <typename Policy>
class LoopEngine final : public ServingEngine {
 public:
  LoopEngine(const EngineConfig& config, const char* name)
      : config_(config), exec_(config.exec), name_(name) {}
  const char* name() const override { return name_; }
  ServeReport Serve(const Trace& trace) override {
    Policy policy(config_, exec_);
    return ServeLoop(config_, exec_, trace, policy).Run(name_);
  }

 private:
  EngineConfig config_;
  ExecModel exec_;
  const char* name_;
};

}  // namespace dz

#endif  // SRC_SERVING_SERVE_LOOP_H_
