// One emission point per run. The Observer owns a run's MetricsRegistry and
// TraceRecorder, and every fact that has a trace event type is reported to it
// once, through On(): it derives the counters and histograms the event backs
// (the Register* calls and the switch in On are the only event-to-instrument
// mapping), then records the event, a single branch when tracing is off. So a
// run's metrics and its trace cannot disagree. Batch rounds, which back no
// instrument, may come in bulk through OnBatchRounds. Facts without an event
// type (engine.rounds, prefetch hits, registry.unavailable, ...) stay plain
// updates on metrics().
//
// Share-nothing like what it owns: one Observer per engine run (the
// ServeLoop's, shared with its ArtifactStore) and one per cluster run (the
// cluster loop's: router, fault, scale and repair events).
#ifndef SRC_SERVING_OBSERVER_H_
#define SRC_SERVING_OBSERVER_H_

#include <cstdint>

#include "src/metrics/metrics.h"
#include "src/obs/trace_recorder.h"
#include "src/serving/report.h"

namespace dz {

class Observer {
 public:
  explicit Observer(const TracingConfig& tracing = {}) : recorder_(tracing) {}

  // Each component registers the instruments its events feed before it
  // reports any, so a run's snapshot has exactly the keys of what it can
  // report, zeros included.
  void RegisterServe(bool can_preempt);  // engine.preemptions only when it can
  void RegisterStore(bool registry);     // registry.* only with a registry
  void RegisterCluster(bool registry);   // registry.repair.jobs likewise

  void On(const TraceEvent& event);
  // Completion: the request's latencies and tokens, then its request.done.
  void On(const RequestRecord& record);
  // `n` batch rounds of `batch` requests back to back from `t0`, round j
  // lasting durs[j]: the same as On(batch.round) for each, with the clock
  // summed in the same order, but a single add to events() when tracing is
  // off.
  void OnBatchRounds(double t0, const double* durs, int n, int batch);

  // What the events of `type` have added to the one counter they feed
  // (kv.preempt, fault.crash/recover, scale.up/down, router.reroute, repair);
  // 0 when this run registered none.
  double Count(TraceEventType type) const {
    const Counter* c = count_[static_cast<int>(type)];
    return c == nullptr ? 0.0 : c->value();
  }

  // Events reported so far, traced or not. Every event-backed state change
  // moves it, which is how the serve loop tells a round that changed nothing.
  uint64_t events() const { return events_; }

  MetricsRegistry& metrics() { return metrics_; }
  TraceRecorder& recorder() { return recorder_; }

 private:
  Counter*& CountOf(TraceEventType type) { return count_[static_cast<int>(type)]; }

  MetricsRegistry metrics_;
  TraceRecorder recorder_;
  uint64_t events_ = 0;
  Counter* count_[kNumTraceEventTypes] = {};
  Counter* shed_[kNumSloClasses] = {};
  Counter* completed_[kNumSloClasses] = {};
  LogHistogram* e2e_[kNumSloClasses] = {};
  LogHistogram* ttft_[kNumSloClasses] = {};
  LogHistogram* queue_ = nullptr;
  LogHistogram* load_ = nullptr;
  Counter* tokens_output_ = nullptr;
  Counter* tokens_prompt_ = nullptr;
  // Transfer segments, by TraceChannel: busy seconds and segment counts.
  static constexpr int kChannels = static_cast<int>(TraceChannel::kNet) + 1;
  Counter* busy_s_[kChannels] = {};
  Counter* segments_[kChannels] = {};
  Counter* prefetch_issued_ = nullptr;
  Counter* reads_local_ = nullptr;
  Counter* reads_degraded_ = nullptr;
  Counter* net_bytes_ = nullptr;
};

// Inline, so that where the event type is known the switch folds away and an
// event without instruments costs only the recorder's enabled check.
inline void Observer::On(const TraceEvent& e) {
  ++events_;
  switch (e.type) {
    case TraceEventType::kAdmissionShed:
      shed_[static_cast<int>(e.slo)]->Inc();
      break;
    case TraceEventType::kStoreLoad:
    case TraceEventType::kStorePrefetch:
    case TraceEventType::kStoreRemote:
      busy_s_[static_cast<int>(e.channel)]->Inc(e.dur_s);
      segments_[static_cast<int>(e.channel)]->Inc();
      if (e.channel == TraceChannel::kNet) {
        net_bytes_->Inc(e.bytes);
        reads_degraded_->Inc(e.aux);  // aux = 1 for a degraded read
      } else if (e.channel == TraceChannel::kDisk) {
        if (reads_local_ != nullptr) {  // registry runs: a local read
          reads_local_->Inc();
        }
      } else if (e.type == TraceEventType::kStorePrefetch) {
        prefetch_issued_->Inc();
      }
      break;
    case TraceEventType::kRouterReroute:
      CountOf(e.type)->Inc(e.aux);  // aux = requests re-enqueued
      break;
    case TraceEventType::kKvPreempt:
    case TraceEventType::kFaultCrash:
    case TraceEventType::kFaultRecover:
    case TraceEventType::kScaleUp:
    case TraceEventType::kScaleDown:
    case TraceEventType::kRepair:
      CountOf(e.type)->Inc();
      break;
    default:
      break;
  }
  recorder_.Emit(e);
}

// Event builders, one per attribution shape; fields they do not take stay
// "not applicable" (trace_recorder.h gives each type's dur and aux).
// A request's event; kv.swap occupies the PCIe channel. Only router.place
// carries a gpu: the cluster merge stamps worker events.
inline TraceEvent RequestEvent(TraceEventType type, double ts, const TraceRequest& req,
                               double dur = 0.0, int aux = 0, int gpu = -1) {
  return {type, ts, dur, req.id, req.model_id, req.tenant_id, req.slo, gpu,
          type == TraceEventType::kKvSwap ? TraceChannel::kPcie : TraceChannel::kNone,
          /*bytes=*/0.0, aux};
}
// A batch round (gpu -1) or a fault, scale or reroute event of worker `gpu`.
inline TraceEvent WorkerEvent(TraceEventType type, double ts, int gpu,
                              double dur = 0.0, int aux = 0) {
  return {type, ts, dur, -1, -1, -1, SloClass::kStandard, gpu, TraceChannel::kNone,
          /*bytes=*/0.0, aux};
}
// An event of artifact `model`: a transfer segment on `channel`, or (kNone) a
// warm hint or finished repair on worker `gpu`.
inline TraceEvent ArtifactEvent(TraceEventType type, double ts, double dur, int model,
                                TraceChannel channel, double bytes, int aux = 0,
                                int gpu = -1) {
  return {type, ts, dur, -1, model, -1, SloClass::kStandard, gpu, channel, bytes, aux};
}

inline void Observer::OnBatchRounds(double t0, const double* durs, int n, int batch) {
  events_ += static_cast<uint64_t>(n);
  if (!recorder_.enabled()) {
    return;
  }
  double ts = t0;
  for (int j = 0; j < n; ++j) {
    recorder_.Emit(
        WorkerEvent(TraceEventType::kBatchRound, ts, /*gpu=*/-1, durs[j], /*aux=*/batch));
    ts += durs[j];
  }
}

}  // namespace dz

#endif  // SRC_SERVING_OBSERVER_H_
