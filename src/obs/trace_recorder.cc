#include "src/obs/trace_recorder.h"

#include <algorithm>

namespace dz {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kRequestQueued:
      return "request.queued";
    case TraceEventType::kAdmissionShed:
      return "admission.shed";
    case TraceEventType::kSchedDispatch:
      return "sched.dispatch";
    case TraceEventType::kStoreLoad:
      return "store.load";
    case TraceEventType::kStorePrefetch:
      return "store.prefetch";
    case TraceEventType::kBatchRound:
      return "batch.round";
    case TraceEventType::kKvPreempt:
      return "kv.preempt";
    case TraceEventType::kKvSwap:
      return "kv.swap";
    case TraceEventType::kRequestFirstToken:
      return "request.first_token";
    case TraceEventType::kRequestDone:
      return "request.done";
    case TraceEventType::kRouterPlace:
      return "router.place";
    case TraceEventType::kRouterWarmHint:
      return "router.warm_hint";
    case TraceEventType::kFaultCrash:
      return "fault.crash";
    case TraceEventType::kFaultDetect:
      return "fault.detect";
    case TraceEventType::kFaultRecover:
      return "fault.recover";
    case TraceEventType::kFaultSlow:
      return "fault.slow";
    case TraceEventType::kFaultPartition:
      return "fault.partition";
    case TraceEventType::kRouterReroute:
      return "router.reroute";
    case TraceEventType::kScaleUp:
      return "scale.up";
    case TraceEventType::kScaleDown:
      return "scale.down";
    case TraceEventType::kScaleDrainStart:
      return "scale.drain.start";
    case TraceEventType::kScaleDrainDone:
      return "scale.drain.done";
    case TraceEventType::kScaleRemove:
      return "scale.remove";
    case TraceEventType::kStoreRemote:
      return "store.remote";
    case TraceEventType::kRepair:
      return "repair";
  }
  return "unknown";
}


TraceRecorder::TraceRecorder(const TracingConfig& config)
    : enabled_(config.enabled), ring_capacity_(config.ring_capacity) {
  if (enabled_ && ring_capacity_ > 0) {
    events_.reserve(ring_capacity_);
  }
}

void TraceRecorder::EmitEnabled(const TraceEvent& event) {
  if (ring_capacity_ == 0 || events_.size() < ring_capacity_) {
    events_.push_back(event);
    return;
  }
  // Ring full: overwrite the oldest-emitted slot, which sits at ring_next_.
  // (Emission order tracks simulated time up to in-flight transfer spans
  // stamped slightly ahead; Drain() re-sorts by timestamp.)
  events_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % ring_capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::Drain() {
  std::vector<TraceEvent> out;
  out.swap(events_);
  // Unwrap the ring: entries [ring_next_, end) are older than [0, ring_next_).
  if (ring_next_ > 0 && ring_next_ < out.size()) {
    std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(ring_next_),
                out.end());
  }
  ring_next_ = 0;
  // Stable by timestamp: engines emit in time order already, but cluster-
  // tagged merges and ring unwraps rely on the invariant being re-established
  // here, and stability keeps same-instant events in emission order (e.g. a
  // dispatch followed by a same-round preempt).
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_s < b.ts_s;
                   });
  return out;
}

}  // namespace dz
