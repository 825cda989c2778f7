// The one serving loop both engines run (paper §5 vs. the §6.1 vLLM+SCB
// baseline). It owns everything they share: the per-run Observer (metrics and
// trace, observer.h) and ArtifactStore, ingest, shedding, the pause check,
// parking, dispatch, prefetch, the idle fast-forward, progress, records, and
// the report tail, which checks records + shed + unavailable + unfinished ==
// offered on every run. Each engine plugs in a ServePolicy: set-up plus
// admit, iteration-costs and post-iteration-preemption hooks. A loop is live:
// requests are offered to it over time and RunUntil steps it, so one loop
// serves a cluster worker for its whole lifetime (src/cluster/elastic.h).
//
// Every queued, running or parked request lives in one loop-owned slab of
// RunningReq slots, and the queue, the running batch and the parked list are
// vectors of int handles into it (queue(), running(), pending(h), req(h)).
// Ingest takes a slot (from a free list, else a new one) when it queues an
// arrival; completion and shedding return it; a preempted or parked request
// keeps its slot. Inserting, dispatching, parking, preempting and completing
// thus move a handle, never the request. The slab grows only in Ingest, so no
// reference into it is held across an Ingest.
//
// One round per decode iteration: ingest, shed, admit, prefetch, iterate,
// advance and complete. After Iterate prices a full round, one walk over the
// batch advances every request (a landing prefill joins the ledger with its
// first token and emits its first-token event, any other request decodes one
// more) and keeps the unfinished handles in order; the finished then complete
// in batch order, so every first-token event of a round precedes every
// request.done.
//
// Most rounds change nothing but the decoded tokens, so a full round whose
// admission onwards emitted no event besides its batch.round and moved no
// store state starts a quiet stretch (what else a round changes, a park, a
// warm-hint pop or a first sched_attempt_s, leaves the next round's walk the
// same; what its ingest and shed changed, its own admission already saw). The
// rounds after it only price, emit their batch.round and advance the clock,
// which is exactly what full rounds would do until the first of these bounds
// (each checked before a quiet round):
//   * an offered arrival is due (offers come between calls);
//   * the RunUntil target is reached (the loop pauses as usual);
//   * the next timeline snapshot is due (it reads the counters the stretch
//     folds in at its end);
//   * a load lands or a disk, PCIe or net channel goes idle, measured at the
//     round's admission time: admission and prefetch read exactly these;
//   * a queued request's shed deadline nears (MeetableUntil: a margin keeps
//     the exact DeadlineUnmeetable test in full rounds);
//   * the next round would complete a request (and so could preempt);
//   * the store changed (ArtifactStore::version: an outage or a registry
//     change between calls; the latter also re-queues parked requests).
// A SetSpeed needs no bound: it comes between calls, and each call divides
// by the speed it finds.
//
// A quiet stretch runs as one tight loop (QuietStretch). The policy prices up
// to kChunkRounds rounds at a time into a loop-owned array, round j with the
// batch advanced j tokens per request; under a slow-node speed the loop
// divides the chunk by it once. Then a bare loop adds each cost to a local
// clock while the bound allows, and one Observer::OnBatchRounds call reports
// the rounds that ran: it adds them to events() and, only when tracing is on,
// records one batch.round each, stamped with the same running sum. After each
// chunk the ledger advances by the rounds that ran; at the end of the stretch
// engine.rounds and every running request's decoded tokens take them in one
// step. The operations and their order are those of rounds run one at a time,
// so every output stays bit for bit the same. The stretch's start is cheap
// too: once every load issued has landed, ArtifactStore::NextLoadReady (and so
// NextChange) answers without scanning the artifacts.
//
// Pricing a round reads the batch ledger (BatchLedger), not the running batch:
// the loop keeps it wherever running_ changes, as it keeps KvTokensInUse, so a
// decode-only round costs O(variants in the batch). Iterate scans the running
// requests only while one waits for its prefill or a KV restore.
//
// A full round's other walks cost what changed since the last one:
//   * Shed walks the queue only once the clock reaches the shed bound, a
//     lower bound on every queued request's MeetableUntil that each request
//     lowers as it enters the queue and each walk resets; before it no
//     deadline can be unmeetable;
//   * the policies seed the round's active variants from the running set the
//     loop keeps (running_variants(), per-variant counts updated wherever
//     running_ changes), not from a scan of the batch, and DeltaZip keeps its
//     variant → parent map across rounds (set at dispatch, cleared when the
//     parent completes: only skippers are ever preempted);
//   * the prefetch window stops walking the queue once it holds
//     min(lookahead, distinct queued variants not active), counted from the
//     per-variant queued counts the loop keeps (queued_variants()).
#ifndef SRC_SERVING_SERVE_LOOP_H_
#define SRC_SERVING_SERVE_LOOP_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
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
  return static_cast<long long>(p.req.prompt_tokens) + p.req.output_tokens;
}

// A slab slot: a request's progress plus its batch-only fields, which
// ServeLoop::Dispatch resets each time the request enters the batch.
struct RunningReq {
  PendingReq state;
  bool prefilled = false;   // resumed requests skip prefill (KV restored instead)
  bool prefilling = false;  // prefills in the iteration being simulated
  bool needs_kv_restore = false;
  bool is_skipper = false;  // admitted behind a running request of its variant
  int parent_id = -1;       // request id of the skipper's parent (for preemption)
};

// Context tokens a running request streams per iteration: prompt + decoded.
inline long long ContextTokens(const PendingReq& p) {
  return static_cast<long long>(p.req.prompt_tokens) + p.decoded;
}

// Per-variant request counts, with the variants whose count is positive. The
// loop keeps one for the running batch and one for the waiting queue.
struct VariantCounts {
  explicit VariantCounts(int n_variants) : count(static_cast<size_t>(n_variants), 0) {}

  std::vector<int> count;  // per variant: its requests
  std::vector<int> ids;    // the variants with a request, ascending

  void Add(int variant);
  void Remove(int variant);
};

// The decoding requests of the running batch (those past prefill), by variant:
// what the policies price a round from. The loop updates it wherever running_
// changes: a landing prefill joins with prompt + 1 tokens, a resumed dispatch
// with prompt + decoded, each decoded round adds a token per member, and
// completion and preemption leave. The token sums are integers, so they equal
// bit for bit the double sums a scan of the batch would add up (exact below
// 2^53).
struct BatchLedger : VariantCounts {
  explicit BatchLedger(int n_variants)
      : VariantCounts(n_variants), ctx(static_cast<size_t>(n_variants), 0) {}

  std::vector<long long> ctx;  // per variant: their context tokens
  int total = 0;               // decoding requests
  long long ctx_total = 0;     // their context tokens

  void Join(int variant, long long tokens);
  void Leave(int variant, long long tokens);
  // Every member decoded `rounds` more tokens.
  void Advance(long long rounds);
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

// One engine's policy; a fresh instance serves each loop.
class ServePolicy {
 public:
  virtual ~ServePolicy() = default;
  // Set-up, before the store exists: its geometry and timings (and the
  // policy's KV pool). The loop attaches the engine's registry.
  virtual ArtifactStoreConfig StoreConfig() = 0;
  // Set-up, once the store exists: the prefetch settings the run uses.
  virtual PrefetchConfig Setup(const ArtifactStore& store) = 0;
  // Only a policy that can preempt gets a preemption counter (and may call
  // ServeLoop::Preempt).
  virtual bool CanPreempt() const { return false; }
  // The KV pool, in tokens: a request reserving more (KvTokens) could never
  // run, so ingest sheds it.
  virtual long long KvCapacityTokens() const = 0;
  // Variant-path prefill seconds on top of the base model's.
  virtual double ArtifactPrefillS(long long /*tokens*/) const { return 0.0; }
  // Admit: moves queued requests into the batch via ServeLoop::Dispatch and
  // fills `admission`, which the loop has reset for this round.
  virtual void Admit(ServeLoop& loop, double now, Admission& admission) = 0;
  // Iteration costs of `rounds` rounds in a row: out[j] is `iter_s` (overhead
  // plus pending KV swaps) plus round j's compute, in the engine's own
  // summation order, with the decoding requests (ServeLoop::batch()) advanced
  // j tokens each. The requests marked `prefilling` hold `prefill_tokens`
  // prompt tokens between them, which is 0 unless rounds == 1.
  virtual void IterationCosts(const ServeLoop& loop, long long prefill_tokens, double iter_s,
                              int rounds, double* out) = 0;
  // Post-iteration preemption, given the finished non-skippers.
  virtual void AfterIteration(ServeLoop& /*loop*/, double /*now*/,
                              const std::vector<TraceRequest>& /*finished_parents*/) {}
};

class ServeLoop {
 public:
  // The most rounds of a quiet stretch priced in one IterationCosts call.
  static constexpr int kChunkRounds = 64;

  using QueueIt = std::vector<int>::iterator;
  using RunIt = std::vector<int>::iterator;

  // A loop over `n_models` variants and `n_tenants` tenants whose clock starts
  // at config.start_s.
  ServeLoop(const EngineConfig& config, const char* engine_name,
            PolicyFactory make_policy, int n_models, int n_tenants);

  // Offers come in arrival order; every arrival before t precedes RunUntil(t).
  void Offer(const TraceRequest& req);
  // Runs until the clock reaches t at the top of the loop, or pauses sooner,
  // without starting a round, when nothing offered is outstanding or when the
  // loop idles and its next known event is at or after t. It resumes where it
  // paused, so a run cut into RunUntil calls, with arrivals offered only up to
  // each cut, equals one RunUntil(inf) bit for bit.
  void RunUntil(double t);
  // Ends the run: queued, running and unarrived requests are `unfinished`;
  // parked ones are `unavailable` after RunUntil(inf) (a natural finish) and
  // `unfinished` after a finite one (a halted finish). Call once.
  ServeReport Finish();

  // Between RunUntil calls. Slow-node fault: iterations take 1/factor times
  // as long from now on.
  void SetSpeed(double factor) { speed_ = factor; }
  // The registry's liveness or holders changed at `now`: fetches are planned
  // afresh and parked requests queue again.
  void OnRegistryChange(double now);
  const std::vector<RequestRecord>& records() const { return report_.records; }
  // Some request is outstanding and the loop knows an event that moves it on.
  bool Busy() const;
  // Every offered request completed or was shed (none queued or parked).
  bool Drained() const { return report_.records.size() + shed_total_ == offered_; }
  Observer& observer() { return observer_; }

  // ---- what policies read and do ----
  int n_models() const { return n_models_; }
  ArtifactStore& store() { return store_; }
  // The waiting queue's handles, in policy order (see Ingest) except for
  // requests preempted or unparked since the last ingest, which wait at the
  // back. The round's ingest re-inserts those first, so the queue is fully in
  // policy order when Admit starts.
  std::vector<int>& queue() { return queue_; }
  const std::vector<int>& queue() const { return queue_; }
  // The running batch's handles, in batch order.
  std::vector<int>& running() { return running_; }
  const std::vector<int>& running() const { return running_; }
  // The slot a queued, running or parked request's handle names. A reference
  // stays valid until the next ingest, which may grow the slab.
  PendingReq& pending(int h) { return slab_[static_cast<size_t>(h)].state; }
  const PendingReq& pending(int h) const { return slab_[static_cast<size_t>(h)].state; }
  RunningReq& req(int h) { return slab_[static_cast<size_t>(h)]; }
  const RunningReq& req(int h) const { return slab_[static_cast<size_t>(h)]; }
  // The waiting queue's and the running batch's requests, by variant. The
  // running set is running_variants().ids.
  const VariantCounts& queued_variants() const { return queued_; }
  const VariantCounts& running_variants() const { return running_set_; }
  // KV tokens the running batch reserves (prompt + full output per request).
  long long KvTokensInUse() const { return kv_in_use_; }
  // The running batch's decoding requests, by variant.
  const BatchLedger& batch() const { return batch_; }
  // Admits *it (Touch, dispatch event, DWFQ OnAdmit) to the back of the
  // running batch, its batch-only fields reset; returns the next queue
  // position.
  QueueIt Dispatch(QueueIt it, double now);
  // Parks *it on a typed-unavailable artifact until the registry changes
  // (OnRegistryChange): until then retrying would spin.
  QueueIt Park(QueueIt it);
  // Re-queues *it with its progress banked; `swap_out` charges the KV swap to
  // host to the next iteration. Returns the next running position.
  RunIt Preempt(RunIt it, double now, bool swap_out);

 private:
  friend struct ServeLoopTestPeer;

  // Where RunUntil resumes: the loop top, admission (after an ingest that left
  // nothing outstanding), or the idle fast-forward.
  enum class Step { kTop, kAdmit, kIdle };

  // Requests with a terminal outcome, or parked on one.
  size_t Retired() const {
    return report_.records.size() + shed_total_ + parked_.size();
  }
  // Moves on every event and every store change.
  uint64_t ChangeStamp() const { return observer_.events() + store_.version(); }
  // The clock a quiet round must start below: the stretch's own bound and
  // the next offered arrival.
  double QuietUntilS() const {
    return arrivals_.empty() ? quiet_until_s_
                             : std::min(quiet_until_s_, arrivals_.front().arrival_s);
  }
  // The next round may be quiet (see the file comment).
  bool QuietRound() const {
    return quiet_rounds_ > 0 && now_ < QuietUntilS() && store_.version() == quiet_version_;
  }
  // The idle fast-forward's target: the next load landing or offered arrival.
  double NextEventS() const;
  // Re-inserts the preempted tail, then inserts the arrivals due by `now`.
  void Ingest(double now);
  double MinServiceS(PendingReq& p) const;
  // Counts `p`, about to enter the queue, and lowers the shed bound to its
  // MeetableUntil.
  void OnQueued(PendingReq& p);
  void Shed(double now);
  double Iterate(double now);  // returns the iteration's duration
  // The batch walk after Iterate: advances every request by the round's
  // token and completes the finished; returns the fewest tokens any kept
  // decoding request has left.
  int AdvanceAndComplete();
  // Runs the quiet rounds the bounds allow before RunUntil's target t.
  void QuietStretch(double t);
  void Complete(const PendingReq& s, double now);

  const EngineConfig config_;
  const ExecModel exec_;
  const char* name_;
  const int n_models_;
  const int n_tenants_;
  std::unique_ptr<ServePolicy> policy_;
  ServeReport report_;
  // Observer before store: the store reports its transfer segments to it.
  // Pure observation — nothing reported feeds back into scheduling.
  Observer observer_;
  ArtifactStore store_;
  PrefetchConfig prefetch_;
  std::deque<int> warm_hints_;
  FairQueue fair_queue_;

  Counter* rounds_count_;

  // Every queued, running or parked request, by handle; free_ lists the
  // unused slots.
  std::vector<RunningReq> slab_;
  std::vector<int> free_;
  std::vector<int> queue_;
  size_t requeued_ = 0;  // preempted or unparked requests at the back of queue_
  std::vector<int> requeue_scratch_;
  VariantCounts queued_;  // queued_variants(), kept as queue_ changes
  // A lower bound on every queued request's MeetableUntil under admission
  // control (infinity otherwise): before it, Shed would shed nothing.
  double shed_until_s_ = std::numeric_limits<double>::infinity();
  std::vector<int> running_;
  VariantCounts running_set_;  // running_variants(), kept as running_ changes
  long long kv_in_use_ = 0;  // KvTokensInUse(), kept as running_ changes
  BatchLedger batch_;        // batch(), kept as running_ changes
  int kv_restores_ = 0;      // running requests with needs_kv_restore set
  std::vector<int> parked_;
  std::vector<int> finished_;  // the round's completed handles, in batch order
  std::vector<TraceRequest> finished_parents_;
  Admission admission_;
  PrefetchScratch prefetch_scratch_;
  std::deque<TraceRequest> arrivals_;  // offered, not yet ingested
  size_t offered_ = 0;
  size_t shed_total_ = 0;
  double pending_swap_s_ = 0.0;  // KV swap work charged to the next iteration
  double now_;
  double next_snapshot_s_;
  double until_ = 0.0;  // the last RunUntil target
  double speed_ = 1.0;
  Step step_ = Step::kTop;
  // The quiet stretch: rounds left before one completes a request, the clock
  // bound of the shed deadlines (set by Shed), loads and channels, and the
  // store version it was planned at.
  int quiet_rounds_ = 0;
  double quiet_until_s_ = 0.0;
  uint64_t quiet_version_ = 0;
  std::array<double, kChunkRounds> quiet_costs_{};  // one chunk's round costs
};

// The PolicyFactory of a policy type.
template <typename Policy>
std::unique_ptr<ServePolicy> MakePolicy(const EngineConfig& config, const ExecModel& exec) {
  return std::make_unique<Policy>(config, exec);
}

}  // namespace dz

#endif  // SRC_SERVING_SERVE_LOOP_H_
