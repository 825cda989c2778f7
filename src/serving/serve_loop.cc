#include "src/serving/serve_loop.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/serving/prefetcher.h"
#include "src/util/check.h"

namespace dz {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Per-round scheduler/runner overhead (simulated seconds).
constexpr double kSchedOverheadS = 0.002;
}  // namespace

void VariantCounts::Add(int variant) {
  if (count[static_cast<size_t>(variant)]++ == 0) {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), variant), variant);
  }
}

void VariantCounts::Remove(int variant) {
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

size_t WorkerArtifactBytes(const EngineConfig& config, const ExecModel& exec,
                           bool full_model) {
  const size_t per_gpu = full_model ? exec.BaseWeightBytesPerGpu()
                         : config.artifact == ArtifactKind::kLoraAdapter
                             ? exec.LoraBytesPerGpu(config.lora_rank)
                             : exec.DeltaBytesPerGpu();
  return per_gpu * static_cast<size_t>(config.exec.tp);
}

std::unique_ptr<ServeLoop> ServingEngine::Start(int n_models, int n_tenants) const {
  return std::make_unique<ServeLoop>(config_, name_, make_policy_, n_models, n_tenants);
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
      store_(policy_->StoreConfig(), n_models, &observer_),
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
  if (requeued_ > 0) {
    const auto tail = queue_.end() - static_cast<std::ptrdiff_t>(requeued_);
    requeue_scratch_.assign(std::make_move_iterator(tail),
                            std::make_move_iterator(queue_.end()));
    queue_.erase(tail, queue_.end());
    requeued_ = 0;
    for (PendingReq& p : requeue_scratch_) {
      InsertInPolicyOrder(policy, queue_, std::move(p));
    }
  }
  while (!arrivals_.empty() && arrivals_.front().arrival_s <= now) {
    PendingReq p;
    p.req = arrivals_.front();
    arrivals_.pop_front();
    observer_.On(RequestEvent(TraceEventType::kRequestQueued, p.req.arrival_s, p.req));
    if (KvTokens(p) > policy_->KvCapacityTokens()) {
      ++shed_total_;
      observer_.On(RequestEvent(TraceEventType::kAdmissionShed, now, p.req));
      continue;
    }
    if (policy == SchedPolicy::kDwfq) {
      p.fair_tag = fair_queue_.TagFor(p.req);
    }
    OnQueued(p);
    InsertInPolicyOrder(policy, queue_, std::move(p));
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
    const double service_s = MinServiceS(*it);
    if (!DeadlineUnmeetable(config_.scheduler, it->req, now, service_s)) {
      shed_until_s_ =
          std::min(shed_until_s_, MeetableUntil(config_.scheduler, it->req, service_s));
      ++it;
      continue;
    }
    if (config_.scheduler.policy == SchedPolicy::kDwfq && it->fair_tag >= 0.0) {
      // A resumed request already received prefill + `decoded` tokens.
      const TraceRequest& r = it->req;
      fair_queue_.OnShed(r, it->decoded > 0 ? r.output_tokens - it->decoded
                                            : KvTokens(*it));
    }
    ++shed_total_;
    observer_.On(RequestEvent(TraceEventType::kAdmissionShed, now, it->req));
    queued_.Remove(it->req.model_id);
    it = queue_.erase(it);
  }
  quiet_until_s_ = std::min(quiet_until_s_, shed_until_s_);
}

ServeLoop::QueueIt ServeLoop::Dispatch(QueueIt it, double now) {
  store_.Touch(it->req.model_id, now);
  observer_.On(RequestEvent(TraceEventType::kSchedDispatch, now, it->req));
  if (config_.scheduler.policy == SchedPolicy::kDwfq) {
    fair_queue_.OnAdmit(it->fair_tag);
  }
  queued_.Remove(it->req.model_id);
  running_set_.Add(it->req.model_id);
  RunningReq r;
  r.state = std::move(*it);
  r.state.start_s = r.state.start_s < 0.0 ? now : r.state.start_s;
  r.prefilled = r.state.decoded > 0;  // resumed requests keep their progress
  r.needs_kv_restore = r.state.decoded > 0;
  kv_in_use_ += KvTokens(r.state);
  if (r.prefilled) {
    batch_.Join(r.state.req.model_id, ContextTokens(r.state));
    ++kv_restores_;
  }
  running_.push_back(std::move(r));
  return queue_.erase(it);
}

ServeLoop::QueueIt ServeLoop::Park(QueueIt it) {
  queued_.Remove(it->req.model_id);
  parked_.push_back(std::move(*it));
  return queue_.erase(it);
}

void ServeLoop::OnRegistryChange(double now) {
  store_.OnRegistryChange();
  for (PendingReq& p : parked_) {
    OnQueued(p);
    queue_.push_back(std::move(p));  // re-inserted in policy order next ingest
    ++requeued_;
  }
  parked_.clear();
  // Resume with a fresh round at the change, not inside a pause taken before it.
  now_ = std::max(now_, now);
  step_ = Step::kTop;
}

ServeLoop::RunIt ServeLoop::Preempt(RunIt it, double now, bool swap_out) {
  DZ_CHECK(policy_->CanPreempt());
  PendingReq back = it->state;
  ++back.preemptions;
  kv_in_use_ -= KvTokens(back);
  running_set_.Remove(back.req.model_id);
  if (it->prefilled) {
    batch_.Leave(back.req.model_id, ContextTokens(back));
  }
  if (it->needs_kv_restore) {
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
  queue_.push_back(std::move(back));  // keeps its fair_tag; re-inserted next ingest
  ++requeued_;
  return running_.erase(it);
}

double ServeLoop::Iterate(double now) {
  long long prefill_tokens = 0;
  // Only a request awaiting its prefill or a KV restore needs the scan.
  if (batch_.total < static_cast<int>(running_.size()) || kv_restores_ > 0) {
    for (RunningReq& r : running_) {
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

void ServeLoop::Decode() {
  batch_.Advance(1);
  for (RunningReq& r : running_) {
    if (r.prefilling) {
      r.prefilling = false;
      r.prefilled = true;
      r.state.decoded = 1;  // prefill emits the first output token
      batch_.Join(r.state.req.model_id, ContextTokens(r.state));
      if (!r.state.has_first_token) {
        r.state.has_first_token = true;
        r.state.first_token_s = now_;
        observer_.On(RequestEvent(TraceEventType::kRequestFirstToken, now_, r.state.req));
      }
    } else if (r.prefilled) {
      r.state.decoded += 1;
    }
  }
}

// Every running request decodes, none prefills or restores KV, and nothing is
// owed for swaps: the quiet start condition implies all three. So round j of
// the stretch costs what Iterate would price with the ledger advanced j rounds,
// and Decode would only add a token to every request.
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
  for (RunningReq& r : running_) {
    r.state.decoded += ran;
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
        RunPrefetchPass(store_, prefetch_, now_, queue_, queued_, admission_, warm_hints_,
                        prefetch_scratch_);
        if (admission_.stall_until_s > now_) {
          now_ = admission_.stall_until_s;
          break;
        }
        if (!running_.empty()) {
          const double admitted_s = now_;
          now_ += Iterate(now_);
          Decode();
          finished_parents_.clear();
          int fewest_left = std::numeric_limits<int>::max();  // tokens, over the kept
          size_t kept = 0;
          for (RunningReq& r : running_) {
            if (r.prefilled && r.state.decoded >= r.state.req.output_tokens) {
              kv_in_use_ -= KvTokens(r.state);
              running_set_.Remove(r.state.req.model_id);
              batch_.Leave(r.state.req.model_id, ContextTokens(r.state));
              Complete(r.state, now_);
              if (!r.is_skipper) {
                finished_parents_.push_back(r.state.req);
              }
            } else {
              if (r.prefilled) {
                fewest_left = std::min(fewest_left, r.state.req.output_tokens - r.state.decoded);
              }
              running_[kept++] = std::move(r);
            }
          }
          running_.resize(kept);
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
  for (const PendingReq& p : queue_) {
    report_.unfinished.push_back(p.req);
  }
  for (const RunningReq& r : running_) {
    report_.unfinished.push_back(r.state.req);
  }
  report_.unfinished.insert(report_.unfinished.end(), arrivals_.begin(), arrivals_.end());
  // A halted run hands parked requests on (holders may recover or be
  // repaired); a natural run declares them unavailable.
  std::vector<TraceRequest>& parked_to =
      until_ < kInf ? report_.unfinished : report_.unavailable;
  for (const PendingReq& p : parked_) {
    parked_to.push_back(p.req);
  }
  // The conservation ledger: every offered request ends in exactly one bucket.
  DZ_CHECK_EQ(report_.records.size() + shed_total_ + report_.unavailable.size() +
                  report_.unfinished.size(),
              offered_);

  if (config_.registry != nullptr) {
    report_.cached_artifacts = store_.LocallyCached();
  }
  report_.n_tenants = std::max(1, n_tenants_);
  report_.slo_spec = config_.scheduler.slo;
  report_.metrics = observer_.metrics().Snapshot(report_.makespan_s);
  if (observer_.recorder().enabled()) {
    report_.trace_events = observer_.recorder().Drain();
    report_.trace_events_dropped = observer_.recorder().dropped();
    report_.path_by_class = BuildClassAttribution(ComputeCriticalPaths(report_));
  }
  return std::move(report_);
}

}  // namespace dz
