#include "src/cluster/elastic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/registry/registry.h"
#include "src/serving/observer.h"
#include "src/simgpu/exec_model.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace dz {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lifecycle of one worker slot. Global ids are stable forever; a retired slot
// can be reactivated by a later scale-up (lowest retired id first).
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
  WState s = WState::kActive;
  double speed = 1.0;        // slow-node throughput factor (1 = healthy)
  bool partitioned = false;  // disk+PCIe blackout; serving but not routable
  // Requests currently homed on this worker and not yet resolved: carried
  // engine-unfinished work plus arrivals routed while it was not serving.
  std::vector<TraceRequest> carry;
  // Scale-down drain bookkeeping.
  double drain_start_t = 0.0;
  double drain_last_finish = -1.0;
  // Committed results accumulated across this worker's epochs. Its
  // `cached_artifacts` (registry runs only) is the node-local cache tier at
  // the last committed epoch end, carried into the next epoch; it survives
  // crashes — it models durable node-local disk, not GPU/host state.
  ServeReport acc;
};

bool Serving(const WorkerSlot& w) {
  return w.s == WState::kActive || w.s == WState::kDraining;
}

bool Routable(const WorkerSlot& w, bool reroute) {
  if (w.partitioned) {
    return false;
  }
  return w.s == WState::kActive || w.s == WState::kDeadUndetected ||
         (w.s == WState::kDeadDetected && !reroute);
}

// Where a prefetching worker's warm hints come from (see elastic.h).
enum class HintSource {
  kTrace,       // Router::WarmHints over the whole trace's placements
  kEpochInput,  // the epoch's own input, most-frequent variant first
};

std::vector<int> EpochInputHints(const std::vector<TraceRequest>& input) {
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

std::unique_ptr<ServingEngine> MakeWorkerEngine(const ClusterConfig& cfg,
                                                const EngineConfig& ec) {
  return cfg.vllm_baseline ? MakeVllmScbEngine(ec) : MakeDeltaZipEngine(ec);
}

// Folds one committed epoch report into a worker's accumulated report. The
// first one moves in whole, so a worker that ran a single epoch reports
// exactly what its engine returned.
void Accumulate(ServeReport& acc, ServeReport&& r) {
  if (acc.engine_name.empty()) {
    acc = std::move(r);
    return;
  }
  acc.records.insert(acc.records.end(), r.records.begin(), r.records.end());
  acc.metrics.MergeFrom(r.metrics);
  acc.makespan_s = std::max(acc.makespan_s, r.makespan_s);
  acc.trace_events.insert(acc.trace_events.end(), r.trace_events.begin(),
                          r.trace_events.end());
  acc.trace_events_dropped += r.trace_events_dropped;
  acc.unavailable.insert(acc.unavailable.end(), r.unavailable.begin(),
                         r.unavailable.end());
  acc.cached_artifacts = std::move(r.cached_artifacts);
  for (int c = 0; c < kNumSloClasses; ++c) {
    acc.path_by_class[static_cast<size_t>(c)].Merge(
        r.path_by_class[static_cast<size_t>(c)]);
  }
}

// Result of running one epoch [t0, t1) against a snapshot of the cluster
// state. Pure: computing an attempt mutates nothing, so the autoscaler can
// discard an optimistic run and re-run a shorter prefix (see elastic.h).
struct Attempt {
  Attempt(size_t n_workers, const Placer& placer_copy)
      : reports(n_workers), carry(n_workers), placer(placer_copy) {}

  std::vector<ServeReport> reports;                  // indexed like workers
  std::vector<std::vector<TraceRequest>> carry;      // post-epoch carry
  std::vector<std::pair<TraceRequest, int>> placed;  // routed (request, worker)
  std::vector<std::vector<int>> warm_hints;  // per worker; HintSource::kTrace only
  std::vector<TraceRequest> unrouted;  // nobody routable: held for later
  Placer placer;                       // post-routing placer state
  bool routable = false;               // whether `placer` is meaningful
  size_t next_arrival = 0;             // global trace cursor after the epoch
};

// One queued background rebuild of a fragment/replica lost to a crash. FIFO
// byte-metered against each epoch's spare net bandwidth (AdvanceRepairs).
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
  std::vector<WorkerSlot> workers;
  std::unique_ptr<Placer> placer;  // routes across the current routable set
  size_t next_arrival = 0;
  std::vector<TraceRequest> retry_pool;  // re-enqueue at the next epoch start
  // Router, fault, scale and repair events, and the cluster.* counters they
  // back (registered only for elastic runs).
  Observer obs;
  ElasticStats stats;
  std::vector<double> committed_finishes;  // sorted finish_s of all records
  double max_finish = 0.0;
  // Artifact registry (null unless cfg.registry.enabled). Mutated ONLY between
  // epochs: liveness at boundaries, extra holders after committed repairs —
  // RunEpoch (and any rollback re-run) sees one constant registry state.
  std::unique_ptr<ArtifactRegistry> registry;
  double artifact_bytes = 0.0;    // per-worker artifact payload (repair meter)
  std::vector<RepairJob> repairs;  // FIFO repair queue

  ElasticRun(const ClusterConfig& c, const Trace& t)
      : cfg(c), trace(t), obs(c.engine.tracing) {}

  std::vector<int> RoutableIds() const {
    std::vector<int> ids;
    for (const WorkerSlot& w : workers) {
      if (Routable(w, cfg.faults.reroute)) {
        ids.push_back(w.id);
      }
    }
    return ids;
  }

  int ActiveCount() const {
    int n = 0;
    for (const WorkerSlot& w : workers) {
      n += w.s == WState::kActive ? 1 : 0;
    }
    return n;
  }

  // Rebuilds the placer iff the routable membership changed. Backlogs reset on
  // a rebuild — accepted: a membership change invalidates the old load picture
  // anyway, and ring arcs (the part that matters for affinity) are keyed by
  // global id so they survive (bounded churn). Returns true on a rebuild,
  // which marks the following epoch as a re-warm epoch for the attribution
  // counters.
  bool SyncPlacer() {
    const std::vector<int> ids = RoutableIds();
    if (ids.empty()) {
      placer.reset();
      return false;
    }
    if (placer != nullptr && placer->worker_ids() == ids) {
      return false;
    }
    placer = std::make_unique<Placer>(cfg.placer, ids);
    return true;
  }

  // One epoch [t0, t1) against the current state: route retries + window
  // arrivals, run every serving worker on carry + routed input, collect each
  // engine's unfinished requests as next-epoch carry. Mutates nothing.
  Attempt RunEpoch(double t0, double t1, HintSource hints) const {
    Attempt a(workers.size(),
              placer != nullptr ? *placer : Placer(cfg.placer));
    a.routable = placer != nullptr;
    a.next_arrival = next_arrival;
    // Each worker's input: its carry, then what is routed to it below.
    for (size_t i = 0; i < workers.size(); ++i) {
      a.carry[i] = workers[i].carry;
    }
    auto route = [&](const TraceRequest& req) {
      if (!a.routable) {
        a.unrouted.push_back(req);
        return;
      }
      const int gpu = a.placer.Assign(req);
      a.carry[static_cast<size_t>(gpu)].push_back(req);
      a.placed.emplace_back(req, gpu);
    };
    for (const TraceRequest& r : retry_pool) {
      route(r);
    }
    while (a.next_arrival < trace.requests.size() &&
           trace.requests[a.next_arrival].arrival_s < t1) {
      route(trace.requests[a.next_arrival++]);
    }
    if (hints == HintSource::kTrace && cfg.engine.prefetch.enabled) {
      // Only ever the run's single epoch, which placed the trace in order.
      std::vector<int> shard_of;
      shard_of.reserve(a.placed.size());
      for (const auto& pr : a.placed) {
        shard_of.push_back(pr.second);
      }
      a.warm_hints = Router(cfg.placer).WarmHints(trace, shard_of);
    }

    // The whole run as one epoch: every serving worker runs, even on an empty
    // input, and keeps its metrics timeline.
    const bool whole_run = t0 == 0.0 && t1 == kInf;
    std::vector<size_t> to_run;
    for (size_t i = 0; i < workers.size(); ++i) {
      std::vector<TraceRequest>& input = a.carry[i];
      if (!Serving(workers[i]) || (input.empty() && !whole_run)) {
        continue;  // non-serving workers just accumulate their input
      }
      // Engines require arrival order; re-stamped carry and fresh arrivals
      // interleave.
      std::stable_sort(input.begin(), input.end(),
                       [](const TraceRequest& x, const TraceRequest& y) {
                         return x.arrival_s < y.arrival_s;
                       });
      to_run.push_back(i);
    }
    auto run_one = [&](size_t k) {
      const size_t i = to_run[k];
      const WorkerSlot& w = workers[i];
      Trace shard;
      shard.requests = std::move(a.carry[i]);
      shard.n_models = trace.n_models;
      shard.n_tenants = trace.n_tenants;
      shard.duration_s = trace.duration_s;
      EngineConfig ec = cfg.engine;
      ec.start_s = t0;
      ec.halt_s = t1;
      ec.speed_factor = w.speed;
      if (!whole_run) {
        ec.metrics.interval_s = 0.0;  // epoch timelines would not stitch
      }
      if (w.partitioned) {
        ChannelOutage disk;
        disk.channel = TraceChannel::kDisk;
        disk.start_s = t0;
        disk.end_s = t1;
        ChannelOutage pcie = disk;
        pcie.channel = TraceChannel::kPcie;
        ChannelOutage net = disk;
        net.channel = TraceChannel::kNet;
        ec.outages.push_back(disk);
        ec.outages.push_back(pcie);
        ec.outages.push_back(net);
      }
      if (registry != nullptr) {
        ec.registry = registry.get();
        ec.registry_node = w.id;
        ec.registry_warm = w.acc.cached_artifacts;
      }
      if (ec.prefetch.enabled) {
        ec.prefetch.warm_hints = hints == HintSource::kTrace
                                     ? a.warm_hints[i]
                                     : EpochInputHints(shard.requests);
      }
      a.reports[i] = MakeWorkerEngine(cfg, ec)->Serve(shard);
      a.carry[i] = std::exchange(a.reports[i].unfinished, {});
    };
    if (cfg.parallel_workers && to_run.size() > 1) {
      ThreadPool::Global().ForEachTask(to_run.size(), run_one);
    } else {
      for (size_t k = 0; k < to_run.size(); ++k) {
        run_one(k);
      }
    }
    return a;
  }

  // Applies an epoch's results: accumulate per-worker reports, swap in the
  // new carries, advance the cursors, emit router.place (then router.warm_hint)
  // events. `boundary_t` is the committed epoch end (re-stamps unrouted
  // requests so the next epoch's placer sees non-decreasing arrivals).
  void Commit(Attempt& a, double boundary_t, bool rewarm_epoch) {
    const size_t committed_before = committed_finishes.size();
    for (size_t i = 0; i < workers.size(); ++i) {
      WorkerSlot& w = workers[i];
      ServeReport& r = a.reports[i];
      if (!r.engine_name.empty()) {  // this worker actually ran
        stats.shed += r.TotalShed();
        if (rewarm_epoch) {
          stats.rewarm_loads += r.PrefetchIssued();
          stats.rewarm_s += r.StallHiddenS();
        }
        // Typed registry unavailability is terminal: engines only fill this on
        // a natural (final-epoch) run — earlier epochs carry parked requests
        // forward as `unfinished` so repairs/recoveries can still save them.
        stats.failed += static_cast<long long>(r.unavailable.size());
        stats.unavailable += static_cast<long long>(r.unavailable.size());
        for (const RequestRecord& rec : r.records) {
          if (cfg.autoscale.enabled) {  // only the autoscaler observes these
            committed_finishes.push_back(rec.finish_s);
          }
          max_finish = std::max(max_finish, rec.finish_s);
          if (w.s == WState::kDraining) {
            w.drain_last_finish = std::max(w.drain_last_finish, rec.finish_s);
          }
        }
        Accumulate(w.acc, std::move(r));
      }
      w.carry = std::move(a.carry[i]);
    }
    // Sort only this epoch's finishes, then merge them into the sorted rest.
    const auto fresh =
        committed_finishes.begin() + static_cast<std::ptrdiff_t>(committed_before);
    std::sort(fresh, committed_finishes.end());
    std::inplace_merge(committed_finishes.begin(), fresh, committed_finishes.end());
    if (placer != nullptr && a.routable) {
      *placer = std::move(a.placer);
    }
    next_arrival = a.next_arrival;
    retry_pool.clear();
    for (TraceRequest r : a.unrouted) {
      // Never routed this epoch — every worker was dead or partitioned.
      // Preserve the SLO clock, re-enqueue at the boundary.
      r.first_arrival_s = r.SloArrival();
      if (boundary_t < kInf) {
        r.arrival_s = boundary_t;
      }
      retry_pool.push_back(r);
    }
    for (const auto& [req, gpu] : a.placed) {
      obs.On(RequestEvent(TraceEventType::kRouterPlace, req.arrival_s, req,
                          /*dur=*/0.0, /*aux=*/0, gpu));
    }
    for (size_t gpu = 0; gpu < a.warm_hints.size(); ++gpu) {
      for (size_t rank = 0; rank < a.warm_hints[gpu].size(); ++rank) {
        // Hints are computed before serving: t = 0.
        obs.On(ArtifactEvent(TraceEventType::kRouterWarmHint, /*ts=*/0.0, /*dur=*/0.0,
                             a.warm_hints[gpu][rank], TraceChannel::kNone,
                             /*bytes=*/0.0, /*aux=*/static_cast<int>(rank),
                             static_cast<int>(gpu)));
      }
    }
  }

  // Retires every draining worker whose backlog is fully served, emitting the
  // drain protocol's completion events (drain start ≤ done ≤ remove — the
  // ordering the autoscaler property test enforces).
  void FinishDrains() {
    for (WorkerSlot& w : workers) {
      if (w.s != WState::kDraining || !w.carry.empty()) {
        continue;
      }
      const double done_t = std::max(w.drain_start_t, w.drain_last_finish);
      obs.On(WorkerEvent(TraceEventType::kScaleDrainDone, done_t, w.id));
      obs.On(WorkerEvent(TraceEventType::kScaleRemove, done_t, w.id));
      w.s = WState::kRetired;
    }
  }

  // Pushes worker liveness into the registry: a node is a usable chunk source
  // iff it is serving and not partitioned. Boundary-only mutation.
  void SyncRegistryLiveness() {
    if (registry == nullptr) {
      return;
    }
    for (const WorkerSlot& w : workers) {
      if (w.id >= registry->n_nodes()) {
        continue;  // late scale-ups hold no fragments; default-live is right
      }
      registry->SetNodeLive(w.id, Serving(w) && !w.partitioned);
    }
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
            !registry->CanRepair(a, f, dead_id)) {
          continue;
        }
        bool pending = false;
        for (const RepairJob& j : repairs) {
          pending = pending || (j.artifact == a && j.frag == f);
        }
        if (pending) {
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
        RepairJob j;
        j.artifact = a;
        j.frag = f;
        j.target = target;
        j.dead_node = dead_id;
        j.bytes_needed = artifact_bytes;
        repairs.push_back(j);
      }
    }
  }

  // Low-priority background repair: spends the committed epoch's spare net
  // bandwidth (live NIC-seconds minus what foreground remote reads used) on
  // the FIFO queue, byte-metered with partial progress across epochs. A
  // finished rebuild installs its extra holder for subsequent epochs and emits
  // a repair trace event at the epoch boundary (completion times inside the
  // epoch are not resolved — a documented approximation). The final (t1 = inf)
  // epoch meters up to the last committed finish.
  void AdvanceRepairs(double t0, double t1, const Attempt& a) {
    if (registry == nullptr || repairs.empty()) {
      return;
    }
    const double t_end = t1 == kInf ? std::max(t0, max_finish) : t1;
    int live = 0;
    for (const WorkerSlot& w : workers) {
      live += (Serving(w) && !w.partitioned) ? 1 : 0;
    }
    double busy_s = 0.0;
    for (const ServeReport& r : a.reports) {
      busy_s += r.metrics.Value(metric::kNetBusyS);
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
      ++done;
      obs.On(ArtifactEvent(TraceEventType::kRepair, t_end, /*dur=*/0.0, j.artifact,
                           TraceChannel::kNone, j.bytes_needed, /*aux=*/j.frag,
                           j.target));
    }
    repairs.erase(repairs.begin(),
                  repairs.begin() + static_cast<std::ptrdiff_t>(done));
  }

  // Applies every fault event and crash detection due at or before `t0`.
  void ProcessBoundary(double t0, size_t& fault_idx,
                       std::vector<double>& detections,
                       std::vector<int>& detect_worker) {
    const std::vector<FaultEvent>& evs = cfg.faults.events;
    while (fault_idx < evs.size() && evs[fault_idx].t_s <= t0) {
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
            w.s = WState::kDeadUndetected;
            obs.On(WorkerEvent(TraceEventType::kFaultCrash, ev.t_s, w.id));
            detections.push_back(ev.t_s + cfg.faults.detection_delay_s);
            detect_worker.push_back(w.id);
          }
          break;
        case FaultType::kRecover:
          if (w.s == WState::kDeadUndetected || w.s == WState::kDeadDetected) {
            w.s = WState::kActive;
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
        case FaultType::kSlowStart: {
          w.speed = ev.multiplier;
          // The window length is known from the matching end event; emit the
          // whole span now so the trace viewer shows the degraded region.
          double end = ev.t_s;
          for (size_t j = fault_idx; j < evs.size(); ++j) {
            if (evs[j].type == FaultType::kSlowEnd &&
                evs[j].worker == ev.worker) {
              end = evs[j].t_s;
              break;
            }
          }
          obs.On(WorkerEvent(TraceEventType::kFaultSlow, ev.t_s, w.id, end - ev.t_s));
          break;
        }
        case FaultType::kSlowEnd:
          w.speed = 1.0;
          break;
        case FaultType::kPartitionStart: {
          w.partitioned = true;
          double end = ev.t_s;
          for (size_t j = fault_idx; j < evs.size(); ++j) {
            if (evs[j].type == FaultType::kPartitionEnd &&
                evs[j].worker == ev.worker) {
              end = evs[j].t_s;
              break;
            }
          }
          obs.On(WorkerEvent(TraceEventType::kFaultPartition, ev.t_s, w.id,
                             end - ev.t_s));
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
    for (size_t d = 0; d < detections.size();) {
      if (detections[d] > t0) {
        ++d;
        continue;
      }
      const int id = detect_worker[d];
      detections.erase(detections.begin() + static_cast<std::ptrdiff_t>(d));
      detect_worker.erase(detect_worker.begin() +
                          static_cast<std::ptrdiff_t>(d));
      WorkerSlot& w = workers[static_cast<size_t>(id)];
      if (w.s != WState::kDeadUndetected) {
        continue;  // recovered before detection: nothing to do
      }
      w.s = WState::kDeadDetected;
      obs.On(WorkerEvent(TraceEventType::kFaultDetect, t0, w.id));
      // Detection is also when repair planning starts: queue rebuilds for the
      // dead node's fragments (partitions never enqueue — the data is intact
      // behind the partition and comes back with it).
      EnqueueRepairs(w.id);
      if (cfg.faults.reroute) {
        obs.On(WorkerEvent(TraceEventType::kRouterReroute, t0, w.id, /*dur=*/0.0,
                           /*aux=*/static_cast<int>(w.carry.size())));
        for (TraceRequest r : w.carry) {
          r.first_arrival_s = r.SloArrival();
          r.arrival_s = t0;
          retry_pool.push_back(r);
        }
        w.carry.clear();
      }
    }
    // Every state change above feeds the registry's source-liveness view
    // before the next epoch runs.
    SyncRegistryLiveness();
  }

  // Autoscaler observation at time t over committed state + the optimistic
  // attempt: offered-but-unfinished backlog per active worker (admission sheds
  // are invisible here — the backlog reads conservatively high on shedding
  // clusters) and the interactive TTFT p99 over the trailing decision window.
  AutoscalerStats ObserveAt(double t, const Attempt& a) const {
    AutoscalerStats s;
    s.t = t;
    s.active_workers = std::max(1, ActiveCount());
    const auto arrived_after = [](double x, const TraceRequest& r) {
      return x < r.arrival_s;
    };
    const long long arrived = static_cast<long long>(
        std::upper_bound(trace.requests.begin(), trace.requests.end(), t,
                         arrived_after) -
        trace.requests.begin());  // arrival-sorted
    long long finished = static_cast<long long>(
        std::upper_bound(committed_finishes.begin(), committed_finishes.end(),
                         t) -
        committed_finishes.begin());
    std::vector<double> ttfts;
    const double window = cfg.autoscale.decision_interval_s;
    auto scan_window = [&](const std::vector<RequestRecord>& recs) {
      for (const RequestRecord& rec : recs) {
        if (rec.slo == SloClass::kInteractive && rec.finish_s <= t &&
            rec.finish_s > t - window) {
          ttfts.push_back(rec.Ttft());
        }
      }
    };
    for (const ServeReport& r : a.reports) {
      for (const RequestRecord& rec : r.records) {
        if (rec.finish_s <= t) {
          ++finished;
        }
      }
      scan_window(r.records);
    }
    for (const WorkerSlot& w : workers) {
      scan_window(w.acc.records);
    }
    const double backlog = static_cast<double>(arrived - finished);
    s.backlog_per_worker =
        std::max(0.0, backlog) / static_cast<double>(s.active_workers);
    s.interactive_ttft_p99_s = ttfts.empty() ? 0.0 : Percentile(ttfts, 99);
    return s;
  }
};

}  // namespace

ClusterReport ServeElastic(const ClusterConfig& cfg, const Trace& trace) {
  DZ_CHECK_GT(cfg.placer.n_gpus, 0);
  // Without faults or autoscaling the loop runs one epoch [0, inf): the
  // static cluster. Its warm hints are the router's trace-wide prediction and
  // its report carries no elastic ledger.
  const bool elastic = cfg.faults.Enabled() || cfg.autoscale.Enabled();
  const HintSource hints = elastic ? HintSource::kEpochInput : HintSource::kTrace;
  if (cfg.autoscale.enabled) {
    DZ_CHECK_GE(cfg.autoscale.min_workers, 1);
    DZ_CHECK_GE(cfg.autoscale.max_workers, cfg.autoscale.min_workers);
    DZ_CHECK_GT(cfg.autoscale.decision_interval_s, 0.0);
  }

  ElasticRun run(cfg, trace);
  if (elastic) {
    run.obs.RegisterCluster(cfg.registry.enabled);
  }
  run.stats.active = true;
  run.stats.offered = static_cast<long long>(trace.requests.size());
  run.workers.resize(static_cast<size_t>(cfg.placer.n_gpus));
  for (size_t i = 0; i < run.workers.size(); ++i) {
    run.workers[i].id = static_cast<int>(i);
  }
  run.stats.peak_workers = run.ActiveCount();
  run.SyncPlacer();  // initial build; not a re-warm epoch
  if (cfg.faults.Enabled()) {
    run.stats.fault_spec = FaultPlanToSpec(cfg.faults);
  }
  if (cfg.registry.enabled) {
    run.registry = std::make_unique<ArtifactRegistry>(
        cfg.registry, trace.n_models, cfg.placer.n_gpus);
    // Per-worker artifact payload, mirroring the engines' own
    // store_config.artifact_bytes computation (repair jobs meter against it).
    const ExecModel exec(cfg.engine.exec);
    const size_t per_gpu =
        cfg.vllm_baseline
            ? exec.BaseWeightBytesPerGpu()
            : (cfg.engine.artifact == ArtifactKind::kLoraAdapter
                   ? exec.LoraBytesPerGpu(cfg.engine.lora_rank)
                   : exec.DeltaBytesPerGpu());
    run.artifact_bytes = static_cast<double>(
        per_gpu * static_cast<size_t>(cfg.engine.exec.tp));
  }

  ClusterAutoscaler autoscaler(cfg.autoscale);
  const double interval = cfg.autoscale.decision_interval_s;
  const double last_arrival =
      trace.requests.empty() ? 0.0 : trace.requests.back().arrival_s;

  size_t fault_idx = 0;
  std::vector<double> detections;
  std::vector<int> detect_worker;
  double t0 = 0.0;
  bool done = false;
  while (!done) {
    run.ProcessBoundary(t0, fault_idx, detections, detect_worker);
    const bool rewarm_epoch = run.SyncPlacer();

    // Next externally scheduled boundary (fault event or crash detection).
    double t_fault = kInf;
    if (fault_idx < cfg.faults.events.size()) {
      t_fault = cfg.faults.events[fault_idx].t_s;
    }
    for (double d : detections) {
      t_fault = std::min(t_fault, d);
    }

    Attempt a = run.RunEpoch(t0, t_fault, hints);
    if (cfg.autoscale.enabled) {
      // Replay the decision rule over the optimistic run. The grid extends
      // past the last activity by one cooldown + interval so trailing
      // scale-downs can chain all the way back to min_workers.
      double attempt_max_finish = run.max_finish;
      for (const ServeReport& r : a.reports) {
        for (const RequestRecord& rec : r.records) {
          attempt_max_finish = std::max(attempt_max_finish, rec.finish_s);
        }
      }
      const double activity = std::max(last_arrival, attempt_max_finish);
      const double bound = std::min(
          t_fault, std::max(activity, autoscaler.last_action_t() +
                                          cfg.autoscale.cooldown_s) +
                       interval);
      double action_t = -1.0;
      ScaleDecision action = ScaleDecision::kHold;
      for (double tk = (std::floor(t0 / interval) + 1.0) * interval;
           tk <= bound; tk += interval) {
        const ScaleDecision d = autoscaler.Decide(run.ObserveAt(tk, a));
        if (d != ScaleDecision::kHold) {
          action = d;
          action_t = tk;
          break;
        }
      }
      if (action != ScaleDecision::kHold) {
        // Roll back: re-run the (deterministic) prefix and commit the action
        // as a new boundary at the decision time.
        a = run.RunEpoch(t0, action_t, hints);
        run.Commit(a, action_t, rewarm_epoch);
        run.FinishDrains();
        run.AdvanceRepairs(t0, action_t, a);
        if (action == ScaleDecision::kUp) {
          WorkerSlot* slot = nullptr;
          for (WorkerSlot& w : run.workers) {  // lowest retired id first
            if (w.s == WState::kRetired) {
              slot = &w;
              break;
            }
          }
          if (slot == nullptr) {
            WorkerSlot fresh;
            fresh.id = static_cast<int>(run.workers.size());
            run.workers.push_back(fresh);
            slot = &run.workers.back();
          }
          slot->s = WState::kActive;
          slot->speed = 1.0;
          slot->partitioned = false;
          run.stats.peak_workers =
              std::max(run.stats.peak_workers, run.ActiveCount());
          run.obs.On(WorkerEvent(TraceEventType::kScaleUp, action_t, slot->id,
                                 /*dur=*/0.0, /*aux=*/run.ActiveCount()));
        } else {
          WorkerSlot* victim = nullptr;  // highest-id active worker
          for (WorkerSlot& w : run.workers) {
            if (w.s == WState::kActive) {
              victim = &w;
            }
          }
          DZ_CHECK(victim != nullptr);
          victim->s = WState::kDraining;
          victim->drain_start_t = action_t;
          victim->drain_last_finish = -1.0;
          run.obs.On(WorkerEvent(TraceEventType::kScaleDown, action_t, victim->id,
                                 /*dur=*/0.0, /*aux=*/run.ActiveCount()));
          run.obs.On(WorkerEvent(TraceEventType::kScaleDrainStart, action_t, victim->id));
        }
        t0 = action_t;
        continue;
      }
    }
    run.Commit(a, t_fault, rewarm_epoch);
    run.FinishDrains();
    run.AdvanceRepairs(t0, t_fault, a);
    if (t_fault == kInf) {
      done = true;
    } else {
      t0 = t_fault;
    }
  }

  // Terminal accounting: whatever is still stranded on never-recovered dead
  // workers (reroute=false) or was unroutable while every worker was down has
  // failed — it will never be served.
  for (WorkerSlot& w : run.workers) {
    if (!Serving(w)) {
      run.stats.failed += static_cast<long long>(w.carry.size());
      w.carry.clear();
    } else {
      // A serving worker's final epoch ran to halt = inf: nothing may remain.
      DZ_CHECK_EQ(w.carry.size(), 0u);
    }
  }
  run.stats.failed += static_cast<long long>(run.retry_pool.size());
  run.retry_pool.clear();
  for (const WorkerSlot& w : run.workers) {
    run.stats.completed += static_cast<long long>(w.acc.records.size());
  }
  run.stats.final_workers = run.ActiveCount();
  DZ_CHECK_EQ(run.stats.completed + run.stats.shed + run.stats.failed,
              run.stats.offered);

  // Assemble the cluster report: per-worker accumulated reports in global-id
  // order (BuildClusterReport stamps gpu = index, which equals the id here).
  // A worker that never ran gets the header fields its engine would have set.
  std::vector<ServeReport> per_gpu;
  per_gpu.reserve(run.workers.size());
  for (WorkerSlot& w : run.workers) {
    if (w.acc.engine_name.empty()) {
      w.acc.engine_name = MakeWorkerEngine(cfg, cfg.engine)->name();
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
