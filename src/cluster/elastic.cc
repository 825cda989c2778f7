#include "src/cluster/elastic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/registry/registry.h"
#include "src/serving/observer.h"
#include "src/serving/serve_loop.h"
#include "src/simgpu/exec_model.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace dz {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lifecycle of one worker slot. Global ids are stable forever; a retired slot
// can be reactivated by a later scale-up (lowest retired id first). Every
// change goes through ElasticRun::SetState, which keeps the active count.
enum class WState {
  kActive,          // serving and routable
  kDeadUndetected,  // crashed, router unaware: routable, NOT serving
  kDeadDetected,    // crashed, router aware. reroute=true: out of the ring,
                    // backlog re-enqueued. reroute=false: keeps its ring arcs,
                    // backlog waits for a recover event.
  kDraining,        // scale-down victim: serving its backlog, not routable
  kRetired,         // removed; may be reactivated by a scale-up
};

struct WorkerSlot {
  int id = 0;
  WState s = WState::kRetired;  // until SetState activates it
  double speed = 1.0;        // slow-node throughput factor (1 = healthy)
  bool partitioned = false;  // disk+PCIe+net blackout; serving but not routable
  double partition_end_s = 0.0;
  double detect_at = kInf;   // when the router notices a crash
  bool joined_mid_run = false;  // the engine started cold after t = 0
  // The live engine while serving (one per serving lifetime) and how many of
  // its records the worker's pool task has read.
  std::unique_ptr<ServeLoop> loop;
  size_t seen = 0;
  // Requests homed here that no engine holds yet: a crashed engine's
  // unfinished ones and arrivals routed while the worker had no engine.
  std::vector<TraceRequest> carry;
  // Arrivals routed to the live engine in this step; its pool task offers them.
  std::vector<TraceRequest> inbox;
  // What the worker's pool task read off its engine in the last step, for the
  // serial part to sum in id order: the engine's net busy time before and
  // after RunUntil (when repairs meter it), the latest finish among its new
  // records, their autoscaler samples (as ElasticRun::unobserved holds them),
  // and whether the engine has drained.
  double net_busy_before = 0.0;
  double net_busy_after = 0.0;
  double step_max_finish = 0.0;
  std::vector<std::pair<double, double>> samples;
  bool drained = false;
  // An engine the pool task ended (the final step, or a drained drain victim)
  // is dropped: its report waits here for EndEngine, and `drained` is its
  // drain state.
  std::optional<ServeReport> ended;
  double drain_start_t = 0.0;  // scale-down time
  // The reports of this worker's ended engines. Its `cached_artifacts`
  // (registry runs only) is the node-local cache tier when the last engine
  // ended, carried into the next; it survives crashes — it models durable
  // node-local disk, not GPU/host state.
  ServeReport acc;
};

bool Serving(const WorkerSlot& w) {
  return w.s == WState::kActive || w.s == WState::kDraining;
}

// A live engine, or a finished one whose report EndEngine has not taken yet.
bool HasEngine(const WorkerSlot& w) { return w.loop != nullptr || w.ended.has_value(); }

bool Routable(const WorkerSlot& w, bool reroute) {
  if (w.partitioned) {
    return false;
  }
  return w.s == WState::kActive || w.s == WState::kDeadUndetected ||
         (w.s == WState::kDeadDetected && !reroute);
}

// Warm hints from an engine's first input, most-frequent variant first.
std::vector<int> InputHints(const std::vector<TraceRequest>& input) {
  std::map<int, int> counts;
  std::vector<int> order;
  for (const TraceRequest& r : input) {
    if (counts[r.model_id]++ == 0) {
      order.push_back(r.model_id);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return counts[x] > counts[y]; });
  return order;
}

// Folds an ended engine's report into a worker's accumulated report. The
// first one moves in whole, so a worker with one engine lifetime reports
// exactly what its engine returned. Later ones merge their records and
// scalars as one more run (MergeReports: the earlier lifetime first at ties);
// the timeline, trace events and unavailable requests append in lifetime
// order, and the node-local cache is the later lifetime's.
void Accumulate(ServeReport& acc, ServeReport&& r) {
  if (acc.engine_name.empty()) {
    acc = std::move(r);
    return;
  }
  MergeReports(acc, {&r});
  acc.timeline.insert(acc.timeline.end(), r.timeline.begin(), r.timeline.end());
  acc.trace_events.insert(acc.trace_events.end(), r.trace_events.begin(),
                          r.trace_events.end());
  acc.unavailable.insert(acc.unavailable.end(), r.unavailable.begin(),
                         r.unavailable.end());
  acc.cached_artifacts = std::move(r.cached_artifacts);
}

// Blacks out a live worker's disk, PCIe and net channels over [start, end).
void BlackOut(ServeLoop& loop, double start, double end) {
  for (TraceChannel channel : {TraceChannel::kDisk, TraceChannel::kPcie, TraceChannel::kNet}) {
    loop.store().AddOutage({channel, start, end});
  }
}

// The time of the first `end_type` event of `worker` at or after evs[from]
// (the end of a slow or partition window); `t` when there is none.
double WindowEnd(const std::vector<FaultEvent>& evs, size_t from, FaultType end_type,
                 int worker, double t) {
  for (size_t j = from; j < evs.size(); ++j) {
    if (evs[j].type == end_type && evs[j].worker == worker) {
      return evs[j].t_s;
    }
  }
  return t;
}

// One queued background rebuild of a fragment/replica lost to a crash. FIFO
// byte-metered against each step's spare net bandwidth (AdvanceRepairs).
struct RepairJob {
  int artifact = 0;
  int frag = 0;
  int target = 0;     // live node receiving the rebuilt copy
  int dead_node = 0;  // holder whose detected death triggered the job
  double bytes_needed = 0.0;
  double bytes_done = 0.0;
};

struct ElasticRun {
  const ClusterConfig& cfg;
  const Trace& trace;
  // Without faults or autoscaling, prefetch hints are the router's
  // trace-wide prediction over the one step's placements (`shard_of`).
  const bool trace_hints;
  std::vector<int> shard_of;
  std::vector<WorkerSlot> workers;
  // Routes across the current routable set (none: `routable` is false). Its
  // ring covers every worker id the run can use, so a membership change only
  // narrows the placer to the new set (Placer::SetMembers).
  Placer placer;
  bool routable = false;
  size_t next_arrival = 0;
  std::vector<TraceRequest> retry_pool;  // routed at the next boundary
  // Router, fault, scale and repair events, and the cluster.* counters they
  // back (registered only for elastic runs).
  Observer obs;
  ElasticStats stats;
  int active = 0;  // workers in WState::kActive (SetState keeps it)
  double max_finish = 0.0;
  // Autoscaler inputs, kept incrementally: trace arrivals and finished records
  // counted so far, and the records not yet counted as (finish_s, TTFT of an
  // interactive request or -1), in no particular order: ObserveAt counts
  // those finished by its tick and keeps the rest.
  size_t arrived = 0;
  size_t finished = 0;
  std::vector<std::pair<double, double>> unobserved;
  // Artifact registry (null unless cfg.registry.enabled). Mutated ONLY
  // between steps; live stores hear of a change at the next boundary.
  std::unique_ptr<ArtifactRegistry> registry;
  bool registry_changed = false;
  double artifact_bytes = 0.0;    // per-worker artifact payload (repair meter)
  std::vector<RepairJob> repairs;  // FIFO repair queue

  ElasticRun(const ClusterConfig& c, const Trace& t, bool elastic)
      : cfg(c), trace(t), trace_hints(!elastic && c.engine.prefetch.enabled),
        placer(RingConfig(c)), obs(c.engine.tracing) {}

  // The placer over every id the run can use: the initial workers and, with
  // the autoscaler, up to max_workers active ones (a scale-up while workers
  // are dead or draining takes a higher id; the placer then grows its ring).
  static PlacerConfig RingConfig(const ClusterConfig& c) {
    PlacerConfig pc = c.placer;
    if (c.autoscale.enabled) {
      pc.n_gpus = std::max(pc.n_gpus, c.autoscale.max_workers);
    }
    return pc;
  }

  // Moves `w` to state `s`, keeping the count of kActive workers and its
  // peak: every rise of the count (start, scale-up or recovery) can be one.
  void SetState(WorkerSlot& w, WState s) {
    active += (s == WState::kActive ? 1 : 0) - (w.s == WState::kActive ? 1 : 0);
    w.s = s;
    stats.peak_workers = std::max(stats.peak_workers, active);
  }

  // Narrows the placer to the routable membership iff it changed (after a
  // stretch with none routable, any membership is a change). Backlogs reset
  // then, as in a fresh placer — accepted: a membership change invalidates the
  // old load picture anyway, and ring arcs (the part that matters for
  // affinity) are keyed by global id so they survive (bounded churn). The
  // ring and its cached walks stay.
  void SyncPlacer() {
    std::vector<int> ids;
    for (const WorkerSlot& w : workers) {
      if (Routable(w, cfg.faults.reroute)) {
        ids.push_back(w.id);
      }
    }
    if (!ids.empty() && (!routable || placer.worker_ids() != ids)) {
      placer.SetMembers(ids);
    }
    routable = !ids.empty();
  }

  // A request waits for routing or an engine, or a live engine can progress.
  bool Busy() const {
    bool busy = !retry_pool.empty() && routable;
    for (const WorkerSlot& w : workers) {
      busy = busy || (w.loop != nullptr ? w.loop->Busy() : Serving(w) && !w.carry.empty());
    }
    return busy;
  }

  // Starts a serving worker's engine, clocked from `t`, and offers it the
  // carry, which also seeds its warm hints unless `hints` is given.
  void StartEngine(WorkerSlot& w, double t, const std::vector<int>* hints) {
    const auto by_arrival = [](const TraceRequest& x, const TraceRequest& y) {
      return x.arrival_s < y.arrival_s;
    };
    // Routing appends in arrival order; only a crashed engine's leftovers can
    // break it.
    if (!std::is_sorted(w.carry.begin(), w.carry.end(), by_arrival)) {
      std::stable_sort(w.carry.begin(), w.carry.end(), by_arrival);
    }
    EngineConfig ec = cfg.engine;
    ec.start_s = t;
    if (registry != nullptr) {
      ec.registry = {registry.get(), w.id, w.acc.cached_artifacts};
    }
    if (ec.prefetch.enabled) {
      ec.prefetch.warm_hints = hints != nullptr ? *hints : InputHints(w.carry);
    }
    w.loop = MakeEngine(ec, cfg.vllm_baseline)->Start(trace.n_models, trace.n_tenants);
    w.loop->SetSpeed(w.speed);
    if (w.partitioned) {
      BlackOut(*w.loop, t, std::max(t, w.partition_end_s));
    }
    w.seen = 0;
    w.joined_mid_run = t > 0.0;
    for (const TraceRequest& r : std::exchange(w.carry, {})) {
      w.loop->Offer(r);
    }
  }

  // Ends a worker's engine: its report joins the worker's, and what it left
  // unfinished (a halted finish: the worker crashed) waits in the carry.
  void EndEngine(WorkerSlot& w) {
    ServeReport r = w.ended ? std::move(*w.ended) : w.loop->Finish();
    w.ended.reset();
    w.loop.reset();
    stats.shed += r.TotalShed();
    if (w.joined_mid_run) {  // a recovered or scaled-up worker warming from cold
      stats.rewarm_loads += r.PrefetchIssued();
      stats.rewarm_s += r.StallHiddenS();
    }
    // Typed registry unavailability is terminal: only a natural finish lists
    // it; a halted one hands parked requests on as unfinished.
    stats.failed += static_cast<long long>(r.unavailable.size());
    stats.unavailable += static_cast<long long>(r.unavailable.size());
    w.carry.insert(w.carry.end(), r.unfinished.begin(), r.unfinished.end());
    r.unfinished.clear();
    Accumulate(w.acc, std::move(r));
  }

  // One step [t, next): route the retries and the trace's arrivals before
  // `next`, then run each serving worker's part of the step as one pool task
  // (StepWorker) and sum what the tasks read in id order.
  void Step(double t, double next) {
    // Tokens routed to each worker (by id) in this step: the pool's job sizes.
    std::vector<long long> routed(workers.size(), 0);
    // Routing only picks the worker: a request waits in its inbox for the
    // worker's pool task, or in its carry while it has no engine.
    const auto route = [&](TraceRequest r) {
      if (routable) {
        const int gpu = placer.Assign(r);
        routed[static_cast<size_t>(gpu)] +=
            static_cast<long long>(r.prompt_tokens) + r.output_tokens;
        WorkerSlot& w = workers[static_cast<size_t>(gpu)];
        (w.loop != nullptr ? w.inbox : w.carry).push_back(r);
        obs.On(RequestEvent(TraceEventType::kRouterPlace, r.arrival_s, r,
                            /*dur=*/0.0, /*aux=*/0, gpu));
        if (trace_hints) {
          shard_of.push_back(gpu);
        }
        return;
      }
      // Every worker is dead or partitioned: retry at the next boundary, with
      // the SLO clock still running from the original arrival.
      r.first_arrival_s = r.SloArrival();
      if (next < kInf) {
        r.arrival_s = next;
      }
      retry_pool.push_back(r);
    };
    for (const TraceRequest& r : std::exchange(retry_pool, {})) {
      route(r);
    }
    while (next_arrival < trace.requests.size() &&
           trace.requests[next_arrival].arrival_s < next) {
      route(trace.requests[next_arrival++]);
    }
    std::vector<std::vector<int>> hints;
    if (trace_hints) {  // the static run's one step routed the whole trace
      hints = Router(cfg.placer).WarmHints(trace, shard_of);
      for (size_t gpu = 0; gpu < hints.size(); ++gpu) {
        for (size_t rank = 0; rank < hints[gpu].size(); ++rank) {
          // Hints are computed before serving: t = 0.
          obs.On(ArtifactEvent(TraceEventType::kRouterWarmHint, /*ts=*/0.0, /*dur=*/0.0,
                               hints[gpu][rank], TraceChannel::kNone,
                               /*bytes=*/0.0, /*aux=*/static_cast<int>(rank),
                               static_cast<int>(gpu)));
        }
      }
    }
    // Every serving worker steps; one without an engine starts it first.
    std::vector<WorkerSlot*> live;
    for (WorkerSlot& w : workers) {
      if (w.loop != nullptr || Serving(w)) {
        live.push_back(&w);
      }
    }
    // The foreground net time over the step, which repairs must leave alone.
    const bool meter_net = registry != nullptr && !repairs.empty();
    // The pool takes the workers longest-first, by tokens routed in this step
    // (ties in id order), so the biggest job does not start last. Only the
    // run order changes: `live` and every sum over it stay in id order.
    std::vector<size_t> order(live.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return routed[static_cast<size_t>(live[a]->id)] >
             routed[static_cast<size_t>(live[b]->id)];
    });
    const auto run_one = [&](size_t k) {
      WorkerSlot& w = *live[order[k]];
      StepWorker(w, t, next, meter_net,
                 hints.empty() ? nullptr : &hints[static_cast<size_t>(w.id)]);
    };
    ThreadPool::Global().ForEachTask(live.size(), run_one);
    double net_busy_s = 0.0;
    for (WorkerSlot* w : live) {
      net_busy_s -= w->net_busy_before;
    }
    for (WorkerSlot* w : live) {
      net_busy_s += w->net_busy_after;
      max_finish = std::max(max_finish, w->step_max_finish);
      unobserved.insert(unobserved.end(), w->samples.begin(), w->samples.end());
    }
    FinishDrains();
    AdvanceRepairs(t, next, net_busy_s);
  }

  // One worker's part of step [t, next), run as its pool task: it touches only
  // `w` and reads the run's config, trace and registry, which change only
  // between steps. Starts the engine if the worker has none (`hints` as in
  // StartEngine), offers the inbox, runs the engine until `next` and reads
  // its new records; on the final step (next = inf), or once a draining
  // worker has drained, it also ends the engine.
  void StepWorker(WorkerSlot& w, double t, double next, bool meter_net,
                  const std::vector<int>* hints) {
    if (w.loop == nullptr) {
      StartEngine(w, t, hints);
    }
    for (const TraceRequest& r : w.inbox) {
      w.loop->Offer(r);
    }
    w.inbox.clear();
    const auto net_busy = [&] {
      return meter_net ? w.loop->observer().metrics().GetCounter(metric::kNetBusyS)->value()
                       : 0.0;
    };
    w.net_busy_before = net_busy();
    w.loop->RunUntil(next);
    w.net_busy_after = net_busy();
    w.step_max_finish = 0.0;
    w.samples.clear();
    const std::vector<RequestRecord>& recs = w.loop->records();
    for (; w.seen < recs.size(); ++w.seen) {
      const RequestRecord& rec = recs[w.seen];
      w.step_max_finish = std::max(w.step_max_finish, rec.finish_s);
      if (cfg.autoscale.enabled) {
        w.samples.emplace_back(rec.finish_s,
                               rec.slo == SloClass::kInteractive ? rec.Ttft() : -1.0);
      }
    }
    w.drained = w.loop->Drained();
    // The serial part ends the engine right after the step when the run ends
    // or a draining worker has served its backlog (FinishDrains): finish it
    // here.
    if (next == kInf || (w.s == WState::kDraining && w.drained)) {
      w.ended = w.loop->Finish();
      w.loop.reset();
    }
  }

  // Retires every draining worker whose backlog is fully served, emitting the
  // drain protocol's completion events (drain start ≤ done ≤ remove — the
  // ordering the autoscaler property test enforces).
  void FinishDrains() {
    for (WorkerSlot& w : workers) {
      if (w.s != WState::kDraining || (HasEngine(w) && !w.drained)) {
        continue;
      }
      if (HasEngine(w)) {
        EndEngine(w);
      }
      // Records come in finish order: the last one is the engine's last finish.
      const double done_t = std::max(
          w.drain_start_t, w.acc.records.empty() ? 0.0 : w.acc.records.back().finish_s);
      obs.On(WorkerEvent(TraceEventType::kScaleDrainDone, done_t, w.id));
      obs.On(WorkerEvent(TraceEventType::kScaleRemove, done_t, w.id));
      SetState(w, WState::kRetired);
    }
  }

  // Pushes worker liveness into the registry at boundary `t` — a node is a
  // usable chunk source iff it is serving and not partitioned — and, after any
  // change (repaired holders included), has live stores plan fetches afresh
  // and retry their parked requests.
  void SyncRegistry(double t) {
    if (registry == nullptr) {
      return;
    }
    for (const WorkerSlot& w : workers) {
      if (w.id >= registry->n_nodes()) {
        continue;  // late scale-ups hold no fragments; default-live is right
      }
      const bool live = Serving(w) && !w.partitioned;
      registry_changed = registry_changed || registry->IsNodeLive(w.id) != live;
      registry->SetNodeLive(w.id, live);
    }
    for (WorkerSlot& w : workers) {
      if (registry_changed && w.loop != nullptr) {
        w.loop->OnRegistryChange(t);
      }
    }
    registry_changed = false;
  }

  // Queues a rebuild for every fragment the detected-dead node held that is
  // still reconstructible. Target: the best-ranked live node not already
  // holding the fragment. Rebuilding reads one full artifact's worth of bytes
  // either way (a surviving full copy, or any k erasure fragments of B/k).
  void EnqueueRepairs(int dead_id) {
    if (registry == nullptr) {
      return;
    }
    const int frags = registry->config().redundancy.FragmentCount();
    for (int a = 0; a < registry->n_artifacts(); ++a) {
      for (int f = 0; f < frags; ++f) {
        if (!registry->NodeHoldsFragment(a, f, dead_id) ||
            !registry->CanRepair(a, f, dead_id) ||
            std::any_of(repairs.begin(), repairs.end(), [&](const RepairJob& j) {
              return j.artifact == a && j.frag == f;  // already pending
            })) {
          continue;
        }
        int target = -1;
        for (int n : registry->RankedNodes(a)) {
          if (n != dead_id && registry->IsNodeLive(n) &&
              !registry->NodeHoldsFragment(a, f, n)) {
            target = n;
            break;
          }
        }
        if (target < 0) {
          continue;  // every live node already holds it: nothing to rebuild
        }
        repairs.push_back({a, f, target, dead_id, artifact_bytes, /*bytes_done=*/0.0});
      }
    }
  }

  // Low-priority background repair: spends the step's spare net bandwidth
  // (live NIC-seconds minus the `busy_s` foreground remote reads used) on the
  // FIFO queue, byte-metered with partial progress across steps. A finished
  // rebuild installs its extra holder and emits a repair trace event at the
  // step's end (completion times inside a step are not resolved — a
  // documented approximation). The final (t1 = inf) step meters up to the
  // last finish.
  void AdvanceRepairs(double t0, double t1, double busy_s) {
    if (registry == nullptr || repairs.empty()) {
      return;
    }
    const double t_end = t1 == kInf ? std::max(t0, max_finish) : t1;
    int live = 0;
    for (const WorkerSlot& w : workers) {
      live += (Serving(w) && !w.partitioned) ? 1 : 0;
    }
    const double spare_s =
        std::max(0.0, static_cast<double>(live) * (t_end - t0) - busy_s);
    double budget = spare_s * registry->config().net_gbps * 1e9 / 8.0;
    size_t done = 0;
    for (RepairJob& j : repairs) {
      if (budget <= 0.0) {
        break;
      }
      const double take = std::min(budget, j.bytes_needed - j.bytes_done);
      j.bytes_done += take;
      budget -= take;
      stats.repair_bytes += take;
      if (j.bytes_done < j.bytes_needed) {
        break;  // FIFO: only the queue head makes partial progress
      }
      registry->AddHolder(j.artifact, j.frag, j.target);
      registry_changed = true;
      ++done;
      obs.On(ArtifactEvent(TraceEventType::kRepair, t_end, /*dur=*/0.0, j.artifact,
                           TraceChannel::kNone, j.bytes_needed, /*aux=*/j.frag,
                           j.target));
    }
    repairs.erase(repairs.begin(),
                  repairs.begin() + static_cast<std::ptrdiff_t>(done));
  }

  // Applies every fault event and crash detection due at or before `t`, with
  // every worker already stepped to `t`.
  void ProcessBoundary(double t, size_t& fault_idx) {
    const std::vector<FaultEvent>& evs = cfg.faults.events;
    while (fault_idx < evs.size() && evs[fault_idx].t_s <= t) {
      const FaultEvent& ev = evs[fault_idx++];
      if (ev.worker < 0 || ev.worker >= static_cast<int>(workers.size())) {
        continue;  // plans may address workers the run never created
      }
      WorkerSlot& w = workers[static_cast<size_t>(ev.worker)];
      switch (ev.type) {
        case FaultType::kCrash:
          // Killing a draining victim is legal chaos: the death path wins
          // (no drain-done; its backlog fails or re-routes like any crash).
          if (w.s == WState::kActive || w.s == WState::kDraining) {
            SetState(w, WState::kDeadUndetected);
            obs.On(WorkerEvent(TraceEventType::kFaultCrash, ev.t_s, w.id));
            if (w.loop != nullptr) {  // null when it (re)joined at this very boundary
              EndEngine(w);
            }
            w.detect_at = ev.t_s + cfg.faults.detection_delay_s;
          }
          break;
        case FaultType::kRecover:
          if (w.s == WState::kDeadUndetected || w.s == WState::kDeadDetected) {
            SetState(w, WState::kActive);
            obs.On(WorkerEvent(TraceEventType::kFaultRecover, ev.t_s, w.id));
            // Repair-vs-recovery race: the recovered node still has its chunks
            // (node-local disk survives a process crash), so rebuilds queued
            // against its death are moot — cancel the pending ones. Already
            // completed rebuilds stay: an extra holder is harmless redundancy.
            repairs.erase(
                std::remove_if(repairs.begin(), repairs.end(),
                               [&](const RepairJob& j) {
                                 return j.dead_node == w.id;
                               }),
                repairs.end());
          }
          break;
        case FaultType::kSlowStart:
        case FaultType::kSlowEnd:
          w.speed = ev.type == FaultType::kSlowStart ? ev.multiplier : 1.0;
          if (w.loop != nullptr) {
            w.loop->SetSpeed(w.speed);
          }
          if (ev.type == FaultType::kSlowStart) {
            // The whole span is emitted now so the trace viewer shows the
            // degraded region.
            const double end = WindowEnd(evs, fault_idx, FaultType::kSlowEnd, w.id, ev.t_s);
            obs.On(WorkerEvent(TraceEventType::kFaultSlow, ev.t_s, w.id, end - ev.t_s));
          }
          break;
        case FaultType::kPartitionStart: {
          w.partitioned = true;
          w.partition_end_s =
              WindowEnd(evs, fault_idx, FaultType::kPartitionEnd, w.id, ev.t_s);
          if (w.loop != nullptr) {
            BlackOut(*w.loop, ev.t_s, w.partition_end_s);
          }
          obs.On(WorkerEvent(TraceEventType::kFaultPartition, ev.t_s, w.id,
                             w.partition_end_s - ev.t_s));
          break;
        }
        case FaultType::kPartitionEnd:
          w.partitioned = false;
          break;
      }
    }
    // Crash detections due now: the router notices the death, and with
    // rerouting the dead worker's whole backlog is re-enqueued across the
    // survivors (SLO clocks keep the original arrivals — re-served requests
    // still answer for their full wait).
    for (WorkerSlot& w : workers) {
      if (w.detect_at > t) {
        continue;
      }
      w.detect_at = kInf;
      if (w.s != WState::kDeadUndetected) {
        continue;  // recovered before detection: nothing to do
      }
      SetState(w, WState::kDeadDetected);
      obs.On(WorkerEvent(TraceEventType::kFaultDetect, t, w.id));
      // Detection is also when repair planning starts: queue rebuilds for the
      // dead node's fragments (partitions never enqueue — the data is intact
      // behind the partition and comes back with it).
      EnqueueRepairs(w.id);
      if (cfg.faults.reroute) {
        obs.On(WorkerEvent(TraceEventType::kRouterReroute, t, w.id, /*dur=*/0.0,
                           /*aux=*/static_cast<int>(w.carry.size())));
        for (TraceRequest r : w.carry) {
          r.first_arrival_s = r.SloArrival();
          r.arrival_s = t;
          retry_pool.push_back(r);
        }
        w.carry.clear();
      }
    }
  }

  // Autoscaler observation at grid tick t, every worker stepped to t: the
  // offered-but-unfinished backlog per active worker (admission sheds are
  // invisible here — the backlog reads conservatively high on shedding
  // clusters) and the interactive TTFT p99 over the trailing decision window.
  AutoscalerStats ObserveAt(double t) {
    AutoscalerStats s;
    s.t = t;
    s.active_workers = std::max(1, active);
    while (arrived < trace.requests.size() && trace.requests[arrived].arrival_s <= t) {
      ++arrived;
    }
    // Percentile sorts its input, so the samples' order cannot matter.
    std::vector<double> ttfts;
    const double window = cfg.autoscale.decision_interval_s;
    size_t kept = 0;
    for (size_t i = 0; i < unobserved.size(); ++i) {
      const auto [finish_s, ttft] = unobserved[i];
      if (finish_s > t) {
        unobserved[kept++] = unobserved[i];
        continue;
      }
      ++finished;
      if (ttft >= 0.0 && finish_s > t - window) {
        ttfts.push_back(ttft);
      }
    }
    unobserved.resize(kept);
    const double backlog = static_cast<double>(arrived) - static_cast<double>(finished);
    s.backlog_per_worker = std::max(0.0, backlog) / static_cast<double>(s.active_workers);
    s.interactive_ttft_p99_s = ttfts.empty() ? 0.0 : Percentile(ttfts, 99);
    return s;
  }

  // Applies a scale decision at `t`.
  void Scale(ScaleDecision d, double t) {
    if (d == ScaleDecision::kUp) {
      WorkerSlot* slot = nullptr;
      for (WorkerSlot& w : workers) {  // lowest retired id first
        if (w.s == WState::kRetired) {
          slot = &w;
          break;
        }
      }
      if (slot == nullptr) {
        workers.emplace_back();
        slot = &workers.back();
        slot->id = static_cast<int>(workers.size()) - 1;
      }
      SetState(*slot, WState::kActive);
      slot->speed = 1.0;
      slot->partitioned = false;
      obs.On(WorkerEvent(TraceEventType::kScaleUp, t, slot->id,
                         /*dur=*/0.0, /*aux=*/active));
    } else if (d == ScaleDecision::kDown) {
      WorkerSlot* victim = nullptr;  // highest-id active worker
      for (WorkerSlot& w : workers) {
        if (w.s == WState::kActive) {
          victim = &w;
        }
      }
      DZ_CHECK(victim != nullptr);
      SetState(*victim, WState::kDraining);
      victim->drain_start_t = t;
      obs.On(WorkerEvent(TraceEventType::kScaleDown, t, victim->id,
                         /*dur=*/0.0, /*aux=*/active));
      obs.On(WorkerEvent(TraceEventType::kScaleDrainStart, t, victim->id));
    }
  }
};

}  // namespace

ClusterReport ServeElastic(const ClusterConfig& cfg, const Trace& trace) {
  DZ_CHECK_GT(cfg.placer.n_gpus, 0);
  // Without faults or autoscaling the loop runs one step [0, inf): the static
  // cluster. Its warm hints are the router's trace-wide prediction and its
  // report carries no elastic ledger.
  const bool elastic = cfg.faults.Enabled() || cfg.autoscale.Enabled();
  if (cfg.autoscale.enabled) {
    DZ_CHECK_GE(cfg.autoscale.min_workers, 1);
    DZ_CHECK_GE(cfg.autoscale.max_workers, cfg.autoscale.min_workers);
    DZ_CHECK_LE(cfg.autoscale.max_workers, kMaxWorkers);
    DZ_CHECK_GT(cfg.autoscale.decision_interval_s, 0.0);
  }

  ElasticRun run(cfg, trace, elastic);
  if (elastic) {
    run.obs.RegisterCluster(cfg.registry.enabled);
  }
  run.stats.active = true;
  run.stats.offered = static_cast<long long>(trace.requests.size());
  run.workers.resize(static_cast<size_t>(cfg.placer.n_gpus));
  for (size_t i = 0; i < run.workers.size(); ++i) {
    run.workers[i].id = static_cast<int>(i);
    run.SetState(run.workers[i], WState::kActive);
  }
  if (cfg.faults.Enabled()) {
    run.stats.fault_spec = FaultPlanToSpec(cfg.faults);
  }
  if (cfg.registry.enabled) {
    run.registry = std::make_unique<ArtifactRegistry>(
        cfg.registry, trace.n_models, cfg.placer.n_gpus);
    // Per-worker artifact payload (repair jobs meter against it).
    run.artifact_bytes = static_cast<double>(
        PlanWorkerMemory(cfg.engine, ExecModel(cfg.engine.exec), cfg.vllm_baseline)
            .slot_bytes);
  }

  ClusterAutoscaler autoscaler(cfg.autoscale);
  const double interval = cfg.autoscale.decision_interval_s;
  const double last_arrival =
      trace.requests.empty() ? 0.0 : trace.requests.back().arrival_s;

  size_t fault_idx = 0;
  double t = 0.0;
  double tick = kInf;  // the autoscaler grid point the last step ended at
  for (;;) {
    if (t == tick) {
      run.Scale(autoscaler.Decide(run.ObserveAt(t)), t);
    }
    run.ProcessBoundary(t, fault_idx);
    // Every state change above feeds the registry before the next step runs.
    run.SyncRegistry(t);
    run.SyncPlacer();

    // The next boundary: a fault event, a crash detection, or a grid tick
    // while the autoscaler still has something to watch. The grid extends
    // past the last activity by one cooldown + interval so trailing
    // scale-downs can chain all the way back to min_workers.
    double next = fault_idx < cfg.faults.events.size() ? cfg.faults.events[fault_idx].t_s
                                                       : kInf;
    for (const WorkerSlot& w : run.workers) {
      next = std::min(next, w.detect_at);
    }
    tick = kInf;
    if (cfg.autoscale.enabled) {
      double tk = (std::floor(t / interval) + 1.0) * interval;
      if (tk <= t) {
        tk += interval;  // rounding put t's own grid point ahead of it
      }
      const double activity = std::max(
          {last_arrival, run.max_finish, autoscaler.last_action_t() + cfg.autoscale.cooldown_s});
      if (tk <= next && (tk <= activity + interval || run.Busy())) {
        tick = next = tk;
      }
    }
    run.Step(t, next);
    if (next == kInf) {
      break;
    }
    t = next;
  }

  // Terminal accounting: every engine still live finished naturally in the
  // final step; whatever is still stranded on never-recovered dead workers
  // (reroute=false) or was unroutable while every worker was down has failed —
  // it will never be served.
  for (WorkerSlot& w : run.workers) {
    if (HasEngine(w)) {
      run.EndEngine(w);
    }
  }
  run.FinishDrains();
  for (WorkerSlot& w : run.workers) {
    if (!Serving(w)) {
      run.stats.failed += static_cast<long long>(w.carry.size());
      w.carry.clear();
    } else {
      // A serving worker's engine ran to the end: nothing may remain.
      DZ_CHECK_EQ(w.carry.size(), 0u);
    }
  }
  run.stats.failed += static_cast<long long>(run.retry_pool.size());
  run.retry_pool.clear();
  for (const WorkerSlot& w : run.workers) {
    run.stats.completed += static_cast<long long>(w.acc.records.size());
  }
  run.stats.final_workers = run.active;
  DZ_CHECK_EQ(run.stats.completed + run.stats.shed + run.stats.failed,
              run.stats.offered);

  // Assemble the cluster report: per-worker accumulated reports in global-id
  // order (BuildClusterReport stamps gpu = index, which equals the id here).
  // A worker that never ran gets the header fields its engine would have set.
  std::vector<ServeReport> per_gpu;
  per_gpu.reserve(run.workers.size());
  for (WorkerSlot& w : run.workers) {
    if (w.acc.engine_name.empty()) {
      w.acc.engine_name = MakeEngine(cfg.engine, cfg.vllm_baseline)->name();
      w.acc.n_tenants = std::max(1, trace.n_tenants);
      w.acc.slo_spec = cfg.engine.scheduler.slo;
    }
    per_gpu.push_back(std::move(w.acc));
  }
  ClusterReport report =
      BuildClusterReport(Cluster(cfg).name(), cfg.placer.policy, std::move(per_gpu));
  if (run.obs.recorder().enabled()) {
    report.router_events = run.obs.recorder().Drain();
  }
  if (!elastic) {
    return report;
  }

  // The fault/elasticity ledger joins the merged snapshot so the metrics layer
  // (JSONL export, bench gates) sees it. Facts without an event are plain
  // updates here; the event-backed ledger fields are read back from the
  // Observer's counters.
  MetricsRegistry& reg = run.obs.metrics();
  ElasticStats& stats = run.stats;
  reg.GetCounter("cluster.failed")->Inc(static_cast<double>(stats.failed));
  reg.GetCounter("cluster.rewarm.loads")->Inc(static_cast<double>(stats.rewarm_loads));
  reg.GetCounter("cluster.rewarm.stall_hidden_s")->Inc(stats.rewarm_s);
  // Registry-run-only keys: a registry-off elastic snapshot keeps the PR 8
  // key set exactly.
  if (run.registry != nullptr) {
    reg.GetCounter("cluster.unavailable")->Inc(static_cast<double>(stats.unavailable));
    reg.GetCounter("registry.repair.bytes")->Inc(stats.repair_bytes);
  }
  stats.crashes = static_cast<int>(run.obs.Count(TraceEventType::kFaultCrash));
  stats.recoveries = static_cast<int>(run.obs.Count(TraceEventType::kFaultRecover));
  stats.scale_ups = static_cast<int>(run.obs.Count(TraceEventType::kScaleUp));
  stats.scale_downs = static_cast<int>(run.obs.Count(TraceEventType::kScaleDown));
  stats.retried = static_cast<long long>(run.obs.Count(TraceEventType::kRouterReroute));
  stats.repair_jobs = static_cast<long long>(run.obs.Count(TraceEventType::kRepair));
  report.elastic = stats;
  report.merged.metrics.MergeFrom(reg.Snapshot(report.merged.makespan_s));
  return report;
}

}  // namespace dz
