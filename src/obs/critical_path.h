// Critical-path attribution: explains each request's measured TTFT and E2E
// latency as a sum of queue / load / compute / preempt segments derived from
// its trace events (paper Fig. 13/16 — where requests actually spend time).
//
// Segmentation (all boundaries are recorded timestamps, so the segments
// telescope and their sum reproduces the measured latency to ~1e-12 relative):
//   queue   = [arrival, first scheduler consideration]
//   load    = [first consideration, first dispatch]      (artifact wait)
//   compute = [dispatch_i, preempt_i] ... [last dispatch, finish]  (in-batch)
//   preempt = [preempt_i, dispatch_{i+1}]                (evicted, re-queued)
// "compute" is time spent IN the running batch, which for the vLLM baseline
// includes stalls behind other models' blocking demand swaps — that is the
// engine's cost model, and exactly what the paper's breakdown charges it.
// TTFT attribution clips every segment at the first-token timestamp.
//
// Flight-recorder rings drop old events, so a request's dispatch/preempt chain
// may be incomplete; such requests fall back to the RequestRecord-only split
// (queue/load from the record, preempt folded into compute) — still summing
// exactly — and are counted in PathAttribution::incomplete.
#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <array>
#include <vector>

#include "src/obs/trace_recorder.h"
#include "src/workload/trace.h"

namespace dz {

// Lifecycle timestamps of one served request (all in simulated seconds on the
// trace's global clock) plus its token counts. Serving fills these; the
// analyzer below reads them.
struct RequestRecord {
  int id = 0;
  int model_id = 0;        // fine-tuned variant the request targets
  int tenant_id = 0;       // tenant the request belongs to
  SloClass slo = SloClass::kStandard;  // SLO class it was promised
  int prompt_tokens = 0;   // prompt length (tokens)
  int output_tokens = 0;   // generated length (tokens)
  double arrival_s = 0.0;
  double sched_attempt_s = 0.0;  // reached the scheduler (queue head / skip-the-line)
  double start_s = 0.0;          // admitted to the running batch (artifact resident)
  double first_token_s = 0.0;    // end of prefill iteration
  double finish_s = 0.0;
  int preemptions = 0;  // times this request was parent-finish preempted (§5.4)

  double E2eLatency() const { return finish_s - arrival_s; }
  double Ttft() const { return first_token_s - arrival_s; }
  double QueueingTime() const { return sched_attempt_s - arrival_s; }
  // Cold-start stall: time between first scheduler consideration and admission,
  // dominated by waiting for the variant's artifact to reach the GPU.
  double LoadingTime() const { return start_s - sched_attempt_s; }
  double InferenceTime() const { return finish_s - start_s; }
  double TimePerToken() const {
    return output_tokens > 0 ? E2eLatency() / output_tokens : E2eLatency();
  }
};

struct PathSegments {
  double queue_s = 0.0;
  double load_s = 0.0;
  double compute_s = 0.0;
  double preempt_s = 0.0;

  void Add(const PathSegments& other) {
    queue_s += other.queue_s;
    load_s += other.load_s;
    compute_s += other.compute_s;
    preempt_s += other.preempt_s;
  }
};

// One request's attribution. `complete` is false when the event chain did not
// match the record (ring-dropped events) and the record-only fallback was used.
struct RequestPathBreakdown {
  int id = -1;
  SloClass slo = SloClass::kStandard;
  PathSegments e2e;   // sums to finish - arrival
  PathSegments ttft;  // sums to first_token - arrival
  bool complete = true;
};

// Per-class rollup of breakdowns; Merge preserves GPU-order addition like the
// metrics snapshot merge.
struct PathAttribution {
  long long n = 0;           // requests attributed
  long long incomplete = 0;  // of which used the record-only fallback
  PathSegments e2e;          // summed seconds across requests
  PathSegments ttft;

  void Add(const RequestPathBreakdown& b) {
    ++n;
    if (!b.complete) {
      ++incomplete;
    }
    e2e.Add(b.e2e);
    ttft.Add(b.ttft);
  }

  void Merge(const PathAttribution& other) {
    n += other.n;
    incomplete += other.incomplete;
    e2e.Add(other.e2e);
    ttft.Add(other.ttft);
  }
};

using ClassPathAttribution = std::array<PathAttribution, kNumSloClasses>;

// Attributes every request in `requests` using its sched.dispatch / kv.preempt
// events from `events` (which must be timestamp-ordered, as Drain() returns
// them). Returns one breakdown per request, in `requests` order.
std::vector<RequestPathBreakdown> AttributeRequests(
    const std::vector<RequestRecord>& requests,
    const std::vector<TraceEvent>& events);

// Rolls per-request breakdowns up into the per-class table embedded in
// ServeReport/ClusterReport.
ClassPathAttribution BuildClassAttribution(
    const std::vector<RequestPathBreakdown>& breakdowns);

}  // namespace dz

#endif  // SRC_OBS_CRITICAL_PATH_H_
