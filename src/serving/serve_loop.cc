#include "src/serving/serve_loop.h"

#include <algorithm>
#include <utility>

#include "src/serving/prefetcher.h"
#include "src/util/check.h"

namespace dz {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Per-round scheduler/runner overhead (simulated seconds).
constexpr double kSchedOverheadS = 0.002;
// DeltaZip: GPU memory fraction reserved for activations, outside the KV pool, and
// the most of what the base model and reserve leave that artifact slots may take
// (the rest is the KV floor).
constexpr double kActivationReserveFraction = 0.05;
constexpr double kArtifactShare = 0.9;
// vLLM-SCB: the KV pool's least share of GPU memory (and at least half a model).
constexpr double kKvPoolFraction = 0.15;

// The policy's store geometry and timings, attached as the engine is.
ArtifactStoreConfig WithRegistry(ArtifactStoreConfig store, const EngineConfig& config) {
  store.registry = config.registry;
  return store;
}
}  // namespace

void VariantCounts::Add(int variant) {
  if (count[static_cast<size_t>(variant)]++ == 0) {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), variant), variant);
  }
}

void VariantCounts::Remove(int variant) {
  DZ_CHECK_GT(count[static_cast<size_t>(variant)], 0);
  if (--count[static_cast<size_t>(variant)] == 0) {
    ids.erase(std::lower_bound(ids.begin(), ids.end(), variant));
  }
}

void BatchLedger::Join(int variant, long long tokens) {
  Add(variant);
  ctx[static_cast<size_t>(variant)] += tokens;
  ++total;
  ctx_total += tokens;
}

void BatchLedger::Leave(int variant, long long tokens) {
  Remove(variant);
  ctx[static_cast<size_t>(variant)] -= tokens;
  --total;
  ctx_total -= tokens;
}

void BatchLedger::Advance(long long rounds) {
  for (int variant : ids) {
    ctx[static_cast<size_t>(variant)] += rounds * count[static_cast<size_t>(variant)];
  }
  ctx_total += rounds * total;
}

WorkerMemory PlanWorkerMemory(const EngineConfig& config, const ExecModel& exec,
                              bool full_model) {
  WorkerMemory mem;
  const size_t tp = static_cast<size_t>(config.exec.tp);
  mem.total = tp * config.exec.gpu.mem_bytes();
  mem.slot_bytes =
      (full_model ? exec.BaseWeightBytesPerGpu() : exec.ArtifactBytesPerGpu()) * tp;
  mem.reserved =
      full_model ? std::max(mem.slot_bytes / 2, static_cast<size_t>(mem.total * kKvPoolFraction))
                 : exec.BaseWeightBytesPerGpu() * tp +
                       static_cast<size_t>(mem.total * kActivationReserveFraction);
  if (mem.total <= mem.reserved) {
    mem.fit = WorkerFit::kBaseTooLarge;
    return mem;
  }
  const size_t rest = mem.total - mem.reserved;
  mem.slot_cap = full_model ? rest : static_cast<size_t>(rest * kArtifactShare);
  if (mem.slot_cap < mem.slot_bytes) {
    mem.fit = WorkerFit::kNoArtifactSlot;
  }
  return mem;
}

std::unique_ptr<ServeLoop> ServingEngine::Start(int n_models, int n_tenants) const {
  return std::make_unique<ServeLoop>(config_, name_, make_policy_, n_models, n_tenants);
}

std::unique_ptr<ServingEngine> MakeEngine(const EngineConfig& config, bool vllm_baseline) {
  return vllm_baseline ? MakeVllmScbEngine(config) : MakeDeltaZipEngine(config);
}

ServeReport ServingEngine::Serve(const Trace& trace) const {
  const std::unique_ptr<ServeLoop> loop = Start(trace.n_models, trace.n_tenants);
  for (const TraceRequest& req : trace.requests) {
    loop->Offer(req);
  }
  loop->RunUntil(kInf);
  return loop->Finish();
}

ServeLoop::ServeLoop(const EngineConfig& config, const char* engine_name,
                     PolicyFactory make_policy, int n_models, int n_tenants)
    : config_(config),
      exec_(config.exec),
      name_(engine_name),
      n_models_(n_models),
      n_tenants_(n_tenants),
      policy_(make_policy(config_, exec_)),
      observer_(config.tracing),
      store_(WithRegistry(policy_->StoreConfig(), config_), n_models, observer_),
      queued_(n_models),
      running_set_(n_models),
      batch_(n_models),
      now_(config.start_s),
      next_snapshot_s_(config.start_s + config.metrics.interval_s) {
  DZ_CHECK_GE(store_.GpuCapacity(), 1);
  prefetch_ = policy_->Setup(store_);
  // Placement-aware warm-up: the router's predicted variants, drained one
  // low-priority transfer at a time as channels go idle, starting at t = 0.
  warm_hints_ = PendingWarmHints(prefetch_, n_models, store_.GpuCapacity());
  // One observer per run (share-nothing: cluster workers serve on parallel
  // threads, and snapshots merge at the cluster layer instead).
  observer_.RegisterServe(policy_->CanPreempt());
  rounds_count_ = observer_.metrics().GetCounter("engine.rounds");
}

void ServeLoop::Offer(const TraceRequest& req) {
  DZ_CHECK(arrivals_.empty() || arrivals_.back().arrival_s <= req.arrival_s);
  arrivals_.push_back(req);
  ++offered_;
}

// The queue stays in policy order between rounds; only the requests preempted
// or unparked since the last ingest wait unsorted at the back. Re-inserting
// them first, then each arrival (DWFQ-stamped in arrival order), lands every
// request behind its equal keys: exactly the stable sort of queue + preempted
// + arrivals. A request the KV pool could never hold is shed on arrival.
void ServeLoop::Ingest(double now) {
  const SchedPolicy policy = config_.scheduler.policy;
  const auto lookup = [this](int h) -> const PendingReq& { return pending(h); };
  if (requeued_ > 0) {
    const auto tail = queue_.end() - static_cast<std::ptrdiff_t>(requeued_);
    requeue_scratch_.assign(tail, queue_.end());
    queue_.erase(tail, queue_.end());
    requeued_ = 0;
    for (int h : requeue_scratch_) {
      InsertInPolicyOrder(policy, queue_, h, lookup);
    }
  }
  while (!arrivals_.empty() && arrivals_.front().arrival_s <= now) {
    // A free slot, else a new one: the only place the slab grows.
    int h = static_cast<int>(slab_.size());
    if (free_.empty()) {
      slab_.emplace_back();
    } else {
      h = free_.back();
      free_.pop_back();
      slab_[static_cast<size_t>(h)] = RunningReq();
    }
    PendingReq& p = pending(h);
    p.req = arrivals_.front();
    arrivals_.pop_front();
    observer_.On(RequestEvent(TraceEventType::kRequestQueued, p.req.arrival_s, p.req));
    if (KvTokens(p) > policy_->KvCapacityTokens()) {
      ++shed_total_;
      observer_.On(RequestEvent(TraceEventType::kAdmissionShed, now, p.req));
      free_.push_back(h);
      continue;
    }
    if (policy == SchedPolicy::kDwfq) {
      p.fair_tag = fair_queue_.TagFor(p.req);
    }
    OnQueued(p);
    InsertInPolicyOrder(policy, queue_, h, lookup);
  }
}

// Optimistic (lower-bound) service time for admission control: immediate
// prefill plus every decode step at batch-1 iteration latency, so a deadline
// this cannot meet is truly unmeetable. A resumed (preempted) request restores
// its KV instead of prefilling and owes only its remaining tokens.
double ServeLoop::MinServiceS(PendingReq& p) const {
  if (p.min_service_s < 0.0) {
    const double ctx = static_cast<double>(ContextTokens(p));
    const int steps = std::max(0, p.req.output_tokens - std::max(p.decoded, 1));
    const double decode_s = static_cast<double>(steps) * exec_.DecodeIterTime(1, ctx);
    p.min_service_s = p.decoded > 0 ? decode_s
                                    : exec_.PrefillTime(p.req.prompt_tokens) +
                                          policy_->ArtifactPrefillS(p.req.prompt_tokens) +
                                          decode_s;
  }
  return p.min_service_s;
}

void ServeLoop::OnQueued(PendingReq& p) {
  queued_.Add(p.req.model_id);
  if (config_.scheduler.admission_control) {
    shed_until_s_ =
        std::min(shed_until_s_, MeetableUntil(config_.scheduler, p.req, MinServiceS(p)));
  }
}

// Admission control (off by default): sheds every queued request whose class
// deadline is already unmeetable and refunds its tenant's DWFQ virtual time
// for the tokens it will never receive. Before the shed bound no deadline is
// unmeetable, so the walk waits for it; a walk resets the bound to the kept
// requests' least MeetableUntil (a dispatch or park since then leaves it low,
// which costs one early walk). The bound caps the quiet stretch this round
// may start.
void ServeLoop::Shed(double now) {
  if (!config_.scheduler.admission_control) {
    return;
  }
  if (now < shed_until_s_) {
    quiet_until_s_ = std::min(quiet_until_s_, shed_until_s_);
    return;
  }
  shed_until_s_ = kInf;
  for (auto it = queue_.begin(); it != queue_.end();) {
    PendingReq& p = pending(*it);
    const double service_s = MinServiceS(p);
    if (!DeadlineUnmeetable(config_.scheduler, p.req, now, service_s)) {
      shed_until_s_ =
          std::min(shed_until_s_, MeetableUntil(config_.scheduler, p.req, service_s));
      ++it;
      continue;
    }
    if (config_.scheduler.policy == SchedPolicy::kDwfq && p.fair_tag >= 0.0) {
      // A resumed request already received prefill + `decoded` tokens.
      const TraceRequest& r = p.req;
      fair_queue_.OnShed(r, p.decoded > 0 ? r.output_tokens - p.decoded : KvTokens(p));
    }
    ++shed_total_;
    observer_.On(RequestEvent(TraceEventType::kAdmissionShed, now, p.req));
    queued_.Remove(p.req.model_id);
    free_.push_back(*it);
    it = queue_.erase(it);
  }
  quiet_until_s_ = std::min(quiet_until_s_, shed_until_s_);
}

ServeLoop::QueueIt ServeLoop::Dispatch(QueueIt it, double now) {
  RunningReq& r = req(*it);
  PendingReq& s = r.state;
  store_.Touch(s.req.model_id, now);
  observer_.On(RequestEvent(TraceEventType::kSchedDispatch, now, s.req));
  if (config_.scheduler.policy == SchedPolicy::kDwfq) {
    fair_queue_.OnAdmit(s.fair_tag);
  }
  queued_.Remove(s.req.model_id);
  running_set_.Add(s.req.model_id);
  s.start_s = s.start_s < 0.0 ? now : s.start_s;
  r.prefilled = s.decoded > 0;  // resumed requests keep their progress
  r.prefilling = false;
  r.needs_kv_restore = s.decoded > 0;
  r.is_skipper = false;
  r.parent_id = -1;
  kv_in_use_ += KvTokens(s);
  if (r.prefilled) {
    batch_.Join(s.req.model_id, ContextTokens(s));
    ++kv_restores_;
  }
  running_.push_back(*it);
  return queue_.erase(it);
}

ServeLoop::QueueIt ServeLoop::Park(QueueIt it) {
  queued_.Remove(pending(*it).req.model_id);
  parked_.push_back(*it);
  return queue_.erase(it);
}

void ServeLoop::OnRegistryChange(double now) {
  store_.OnRegistryChange();
  for (int h : parked_) {
    OnQueued(pending(h));
    queue_.push_back(h);  // re-inserted in policy order next ingest
    ++requeued_;
  }
  parked_.clear();
  // Resume with a fresh round at the change, not inside a pause taken before it.
  now_ = std::max(now_, now);
  step_ = Step::kTop;
}

ServeLoop::RunIt ServeLoop::Preempt(RunIt it, double now, bool swap_out) {
  DZ_CHECK(policy_->CanPreempt());
  const RunningReq& r = req(*it);
  PendingReq& back = pending(*it);
  ++back.preemptions;
  kv_in_use_ -= KvTokens(back);
  running_set_.Remove(back.req.model_id);
  if (r.prefilled) {
    batch_.Leave(back.req.model_id, ContextTokens(back));
  }
  if (r.needs_kv_restore) {
    --kv_restores_;
  }
  observer_.On(RequestEvent(TraceEventType::kKvPreempt, now, back.req));
  back.min_service_s = -1.0;  // re-estimate from the banked progress
  if (swap_out) {
    const double swap_s = exec_.KvSwapTime(ContextTokens(back));
    pending_swap_s_ += swap_s;
    observer_.On(RequestEvent(TraceEventType::kKvSwap, now, back.req, swap_s, /*aux=*/0));
  }
  OnQueued(back);
  queue_.push_back(*it);  // keeps its fair_tag; re-inserted next ingest
  ++requeued_;
  return running_.erase(it);
}

double ServeLoop::Iterate(double now) {
  long long prefill_tokens = 0;
  // Only a request awaiting its prefill or a KV restore needs the scan.
  if (batch_.total < static_cast<int>(running_.size()) || kv_restores_ > 0) {
    for (int h : running_) {
      RunningReq& r = req(h);
      // Prompts fill the budget in batch order; one larger than the whole
      // budget prefills alone, as its round's first.
      const long long prompt = r.state.req.prompt_tokens;
      if (!r.prefilled &&
          (prefill_tokens == 0 || prefill_tokens + prompt <= config_.max_prefill_tokens)) {
        prefill_tokens += prompt;
        r.prefilling = true;
      }
      if (r.needs_kv_restore) {
        const double swap_s = exec_.KvSwapTime(ContextTokens(r.state));
        pending_swap_s_ += swap_s;
        observer_.On(
            RequestEvent(TraceEventType::kKvSwap, now, r.state.req, swap_s, /*aux=*/1));
        r.needs_kv_restore = false;
        --kv_restores_;
      }
    }
  }
  double iter = 0.0;
  policy_->IterationCosts(*this, prefill_tokens, kSchedOverheadS + pending_swap_s_,
                          /*rounds=*/1, &iter);
  pending_swap_s_ = 0.0;
  if (speed_ != 1.0) {
    iter /= speed_;  // slow-node fault: everything stretches
  }
  observer_.OnBatchRounds(now, &iter, /*n=*/1, static_cast<int>(running_.size()));
  return iter;
}

// Completing after the walk, not in it, keeps every first-token event of the
// round ahead of every request.done.
int ServeLoop::AdvanceAndComplete() {
  batch_.Advance(1);
  finished_.clear();
  int fewest_left = std::numeric_limits<int>::max();  // tokens, over the kept
  size_t kept = 0;
  for (const int h : running_) {
    RunningReq& r = req(h);
    PendingReq& s = r.state;
    if (r.prefilling) {
      r.prefilling = false;
      r.prefilled = true;
      s.decoded = 1;  // prefill emits the first output token
      batch_.Join(s.req.model_id, ContextTokens(s));
      if (!s.has_first_token) {
        s.has_first_token = true;
        s.first_token_s = now_;
        observer_.On(RequestEvent(TraceEventType::kRequestFirstToken, now_, s.req));
      }
    } else if (r.prefilled) {
      s.decoded += 1;
    }
    if (r.prefilled && s.decoded >= s.req.output_tokens) {
      finished_.push_back(h);
      continue;
    }
    if (r.prefilled) {
      fewest_left = std::min(fewest_left, s.req.output_tokens - s.decoded);
    }
    running_[kept++] = h;
  }
  running_.resize(kept);
  finished_parents_.clear();
  for (const int h : finished_) {
    const RunningReq& r = req(h);
    const PendingReq& s = r.state;
    kv_in_use_ -= KvTokens(s);
    running_set_.Remove(s.req.model_id);
    batch_.Leave(s.req.model_id, ContextTokens(s));
    Complete(s, now_);
    if (!r.is_skipper) {
      finished_parents_.push_back(s.req);
    }
    free_.push_back(h);
  }
  return fewest_left;
}

// Every running request decodes, none prefills or restores KV, and nothing is
// owed for swaps: the quiet start condition implies all three. So round j of
// the stretch costs what Iterate would price with the ledger advanced j rounds,
// and the batch walk would only add a token to every request.
void ServeLoop::QuietStretch(double t) {
  DZ_CHECK_EQ(batch_.total, static_cast<int>(running_.size()));
  DZ_CHECK_EQ(kv_restores_, 0);
  DZ_CHECK(pending_swap_s_ == 0.0);
  // QuietRound's clock bound, the target and the next snapshot, which reads
  // the counters folded in below.
  double bound = std::min(t, QuietUntilS());
  if (config_.metrics.interval_s > 0.0) {
    bound = std::min(bound, next_snapshot_s_);
  }
  const int batch_size = static_cast<int>(running_.size());
  double* const costs = quiet_costs_.data();
  double now = now_;
  int ran = 0;
  while (ran < quiet_rounds_ && now < bound) {
    const int chunk = std::min(quiet_rounds_ - ran, kChunkRounds);
    policy_->IterationCosts(*this, /*prefill_tokens=*/0, kSchedOverheadS, chunk, costs);
    if (speed_ != 1.0) {
      for (int j = 0; j < chunk; ++j) {
        costs[j] /= speed_;
      }
    }
    const double start = now;
    int j = 0;
    for (; j < chunk && now < bound; ++j) {
      now += costs[j];
    }
    observer_.OnBatchRounds(start, costs, j, batch_size);
    batch_.Advance(j);
    ran += j;
  }
  now_ = now;
  quiet_rounds_ -= ran;
  rounds_count_->Inc(ran);
  for (const int h : running_) {
    pending(h).decoded += ran;
  }
}

void ServeLoop::Complete(const PendingReq& s, double now) {
  // Latency/SLO clocks run from the original arrival for re-enqueued
  // (crash-rerouted) requests; identical to arrival_s on plain traces.
  const RequestRecord rec = {
      s.req.id, s.req.model_id, s.req.tenant_id, s.req.slo,
      s.req.prompt_tokens, s.req.output_tokens, /*arrival_s=*/s.req.SloArrival(),
      /*sched_attempt_s=*/s.sched_attempt_s < 0 ? s.req.arrival_s : s.sched_attempt_s,
      s.start_s, s.first_token_s, /*finish_s=*/now, s.preemptions};
  observer_.On(rec);
  report_.records.push_back(rec);
  report_.makespan_s = std::max(report_.makespan_s, now);
}

double ServeLoop::NextEventS() const {
  double next_t = store_.NextLoadReady(now_);
  if (!arrivals_.empty()) {
    next_t = std::min(next_t, arrivals_.front().arrival_s);
  }
  return next_t;
}

bool ServeLoop::Busy() const {
  return Retired() < offered_ && !(step_ == Step::kIdle && NextEventS() == kInf);
}

void ServeLoop::RunUntil(double t) {
  until_ = t;
  for (;;) {
    switch (step_) {
      case Step::kTop:
        // With every offered request resolved the run is over unless more is
        // offered; no round starts, so a later offer resumes right here.
        if (Retired() == offered_ || now_ >= t) {
          return;
        }
        // In-run timeline: pure reads, so any interval stays bit-identical.
        while (config_.metrics.interval_s > 0.0 && now_ >= next_snapshot_s_) {
          report_.timeline.push_back(observer_.metrics().Snapshot(next_snapshot_s_));
          next_snapshot_s_ += config_.metrics.interval_s;
        }
        if (QuietRound()) {
          QuietStretch(t);
          break;
        }
        rounds_count_->Inc();
        quiet_rounds_ = 0;
        quiet_until_s_ = kInf;
        Ingest(now_);
        Shed(now_);
        if (Retired() == offered_) {
          step_ = Step::kAdmit;  // shedding resolved the rest
          return;
        }
        [[fallthrough]];
      case Step::kAdmit: {
        step_ = Step::kTop;
        // Ingest and shed change what this admission sees, not what the next
        // one would: only changes from here on end a quiet stretch.
        const uint64_t stamp = ChangeStamp();
        DZ_CHECK_EQ(requeued_, 0u);  // Admit sees the queue fully in policy order
        admission_.Reset(n_models_);
        policy_->Admit(*this, now_, admission_);
        // Lookahead prefetch (§8): warm the next W distinct waiting variants
        // while the batch computes; the batch's own variants are never evicted
        // for it.
        RunPrefetchPass(store_, prefetch_, now_, *this, admission_, warm_hints_,
                        prefetch_scratch_);
        if (admission_.stall_until_s > now_) {
          now_ = admission_.stall_until_s;
          break;
        }
        if (!running_.empty()) {
          const double admitted_s = now_;
          now_ += Iterate(now_);
          const int fewest_left = AdvanceAndComplete();
          policy_->AfterIteration(*this, now_, finished_parents_);
          if (ChangeStamp() == stamp + 1) {  // its batch.round alone
            quiet_rounds_ = fewest_left - 1;
            quiet_until_s_ = std::min(quiet_until_s_, store_.NextChange(admitted_s));
            quiet_version_ = store_.version();
          }
          break;
        }
        [[fallthrough]];
      }
      case Step::kIdle: {
        // Idle: jump to the next load completion or arrival, pausing here
        // instead when it lies at or past t (a later offer may come first).
        const double next_t = NextEventS();
        if (next_t >= t) {
          // Finishing naturally with requests and nothing to wait for: stuck.
          DZ_CHECK(t < kInf || Retired() == offered_);
          step_ = Step::kIdle;
          return;
        }
        step_ = Step::kTop;
        now_ = std::max(now_, next_t);
        break;
      }
    }
  }
}

ServeReport ServeLoop::Finish() {
  report_.engine_name = name_;
  // Requests the run did not resolve: queued, running (a crashed worker's are
  // re-served from scratch) and never arrived. All are empty on a natural run.
  for (const int h : queue_) {
    report_.unfinished.push_back(pending(h).req);
  }
  for (const int h : running_) {
    report_.unfinished.push_back(pending(h).req);
  }
  report_.unfinished.insert(report_.unfinished.end(), arrivals_.begin(), arrivals_.end());
  // A halted run hands parked requests on (holders may recover or be
  // repaired); a natural run declares them unavailable.
  std::vector<TraceRequest>& parked_to =
      until_ < kInf ? report_.unfinished : report_.unavailable;
  for (const int h : parked_) {
    parked_to.push_back(pending(h).req);
  }
  // The conservation ledger: every offered request ends in exactly one bucket.
  DZ_CHECK_EQ(report_.records.size() + shed_total_ + report_.unavailable.size() +
                  report_.unfinished.size(),
              offered_);
  // The slab's: every slot is free, queued, running or parked, on one list.
  DZ_CHECK_EQ(slab_.size(), free_.size() + queue_.size() + running_.size() + parked_.size());
  std::vector<char> listed(slab_.size(), 0);
  for (const std::vector<int>* handles : {&free_, &queue_, &running_, &parked_}) {
    for (const int h : *handles) {
      DZ_CHECK_LT(static_cast<size_t>(h), slab_.size());
      DZ_CHECK(!listed[static_cast<size_t>(h)]);
      listed[static_cast<size_t>(h)] = 1;
    }
  }

  if (config_.registry.source != nullptr) {
    report_.cached_artifacts = store_.LocallyCached();
  }
  report_.n_tenants = std::max(1, n_tenants_);
  report_.slo_spec = config_.scheduler.slo;
  report_.metrics = observer_.metrics().Snapshot(report_.makespan_s);
  if (observer_.recorder().enabled()) {
    report_.trace_events = observer_.recorder().Drain();
    report_.trace_events_dropped = observer_.recorder().dropped();
    report_.path_by_class = BuildClassAttribution(
        AttributeRequests(report_.records, report_.trace_events));
  }
  return std::move(report_);
}

}  // namespace dz
