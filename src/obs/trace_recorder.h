// Per-request tracing substrate (dz_obs): typed lifecycle events on the
// simulated clock, collected by a low-overhead per-worker recorder.
//
// The serve loop, the ArtifactStore and the cluster loop (elastic.cc)
// report a TraceEvent at every decision point of a request's life — queued,
// shed, dispatched, artifact transfers with channel + bytes, batch rounds, KV
// preemptions/swaps, first token, done — each stamped with request / model /
// tenant / SLO-class / GPU attribution. They report to their run's Observer
// (src/serving/observer.h), which derives the metrics each event backs and
// records the event here. Aggregates (src/metrics/) answer "how much"; these
// events answer "why did THIS request stall", and they feed the Chrome-trace
// exporter (trace_export.h) and the critical-path analyzer (critical_path.h).
//
// Recorders are share-nothing like the metrics registries: one per Serve()
// call (and one per cluster run), merged at the cluster layer in GPU order.
// Two modes:
//   * full trace (ring_capacity == 0): every event is kept, for --trace-out
//     exports and the critical-path attribution;
//   * flight recorder (ring_capacity > 0): a fixed-size ring of the most
//     recent events — bounded memory, cheap enough to leave always-on in long
//     soaks, dumped as a postmortem when a health gate trips.
// Disabled (the default) every Emit is a single predicted branch, and engine
// behavior is bit-identical to a build without tracing (golden-enforced).
#ifndef SRC_OBS_TRACE_RECORDER_H_
#define SRC_OBS_TRACE_RECORDER_H_

#include <cstddef>
#include <vector>

#include "src/workload/trace.h"

namespace dz {

// Span/event taxonomy of the request path. Names (TraceEventTypeName) are the
// stable strings documented in ARCHITECTURE.md and emitted into trace JSON.
enum class TraceEventType {
  kRequestQueued,      // request entered a worker's waiting queue (ts = arrival)
  kAdmissionShed,      // admission control dropped the request (unmeetable SLO)
  kSchedDispatch,      // scheduler admitted the request into the running batch
  kStoreLoad,          // demand artifact transfer on a channel (span, bytes)
  kStorePrefetch,      // speculative artifact transfer on a channel (span, bytes)
  kBatchRound,         // one continuous-batching iteration (span; aux = batch size)
  kKvPreempt,          // request evicted from the running batch (class or
                       // parent-finish preemption); re-queued for resume
  kKvSwap,             // KV state moved across PCIe (span; aux: 0 = out, 1 = restore)
  kRequestFirstToken,  // end of the request's prefill iteration
  kRequestDone,        // request completed; record finalized
  kRouterPlace,        // cluster router assigned the request to a GPU shard
  kRouterWarmHint,     // router predicted a variant home; hint sent to a worker
  // Fault-injection / elasticity events (cluster layer, gpu = worker id):
  kFaultCrash,         // worker died (instant, at the injected crash time)
  kFaultDetect,        // router detected the death (crash + detection delay)
  kFaultRecover,       // worker came back and rejoined the routable set
  kFaultSlow,          // degraded-throughput window (span; dur = window length)
  kFaultPartition,     // disk/PCIe partition window (span; dur = window length)
  kRouterReroute,      // dead worker's backlog re-enqueued (aux = request count)
  kScaleUp,            // autoscaler added a worker (aux = new active count)
  kScaleDown,          // autoscaler chose a victim to remove (aux = new count)
  kScaleDrainStart,    // victim stopped receiving new requests
  kScaleDrainDone,     // victim's last in-flight request finished
  kScaleRemove,        // victim retired from the cluster
  // Artifact-registry events (replication / erasure coding, PR 9):
  kStoreRemote,        // remote registry fetch over the net channel (span, bytes;
                       // aux = 1 when the read was degraded: failover replica or
                       // parity decode)
  kRepair,             // background repair installed a fragment/replica copy
                       // (gpu = target node, model_id = artifact, aux = fragment)
};
inline constexpr int kNumTraceEventTypes = static_cast<int>(TraceEventType::kRepair) + 1;

// Stable dotted name of an event type ("request.queued", "store.load", ...).
const char* TraceEventTypeName(TraceEventType type);

// Transfer channel a store span occupied (kNone for non-store events).
enum class TraceChannel { kNone, kDisk, kPcie, kNet };

// One typed event. Instant events have dur_s == 0; spans carry their length.
// Attribution fields default to "not applicable" (-1) — store spans have a
// model but no request; batch rounds have neither. `gpu` is stamped by the
// cluster merge (single-engine runs leave -1, rendered as GPU 0).
struct TraceEvent {
  TraceEventType type = TraceEventType::kBatchRound;
  double ts_s = 0.0;   // simulated seconds (trace global clock)
  double dur_s = 0.0;  // span length; 0 for instant events
  int request_id = -1;
  int model_id = -1;
  int tenant_id = -1;
  SloClass slo = SloClass::kStandard;
  int gpu = -1;
  TraceChannel channel = TraceChannel::kNone;
  double bytes = 0.0;  // payload moved (store spans)
  int aux = 0;         // batch size (rounds), swap direction (kv.swap), hint rank
};

// Tracing configuration carried in EngineConfig (named TracingConfig — the
// workload layer already owns `TraceConfig` for trace *generation*).
struct TracingConfig {
  // Off by default: Emit() is a no-op and engine behavior is bit-identical to
  // PR 6 (golden-enforced).
  bool enabled = false;
  // 0 keeps every event (full trace, unbounded memory ~ O(requests)).
  // > 0 switches to flight-recorder mode: a ring of the most recent
  // `ring_capacity` events; older events are overwritten and counted in
  // dropped(). Memory is fixed at ring_capacity * sizeof(TraceEvent).
  size_t ring_capacity = 0;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;  // disabled recorder
  explicit TraceRecorder(const TracingConfig& config);

  bool enabled() const { return enabled_; }

  // Records one event. No-op (one branch) when disabled; in ring mode the
  // oldest event is overwritten once the ring is full.
  void Emit(const TraceEvent& event) {
    if (!enabled_) {
      return;
    }
    EmitEnabled(event);
  }

  // Events overwritten in ring mode (0 in full mode).
  long long dropped() const { return dropped_; }

  // Returns the held events oldest-first (ring unwrapped), stable-sorted by
  // timestamp so same-instant events keep their emission order, and leaves the
  // recorder empty. Engines call this once at the end of Serve().
  std::vector<TraceEvent> Drain();

 private:
  void EmitEnabled(const TraceEvent& event);

  bool enabled_ = false;
  size_t ring_capacity_ = 0;  // 0 = unbounded
  size_t ring_next_ = 0;      // next overwrite position once the ring is full
  long long dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace dz

#endif  // SRC_OBS_TRACE_RECORDER_H_
