// Pluggable request-scheduling policies and admission control for the serving
// engines (beyond the paper, which is FCFS-only in §5.4): multi-tenant traffic
// with per-class SLOs needs to decide *which* waiting request to consider first
// and *whether* a request is still worth serving at all.
//
//   * kFcfs     — arrival order (the paper's §5.4 scheduler; the default, and
//                 bit-identical to the pre-scheduler engines, golden-enforced).
//   * kPriority — strict priority by SLO class (interactive > standard >
//                 batch), FCFS within a class.
//   * kDwfq     — deficit-weighted fair queueing across tenants: each request
//                 is stamped with a virtual finish tag, tokens/weight past its
//                 tenant's virtual time, and the queue is served in tag order —
//                 a flooding tenant's tags race ahead while a light tenant's
//                 stay near the global virtual time, so floods cannot starve
//                 other tenants (classic fair-queueing behavior).
//
// Admission control (off by default) sheds requests whose class E2E deadline is
// already unmeetable under an optimistic service estimate, instead of letting
// doomed work consume batch slots and KV memory.
//
// Header-only ordering machinery: a template over any element exposing `.req`
// (TraceRequest) and `.fair_tag` (double, < 0 until assigned) — the serve
// loop's PendingReq, or scheduler_test's minimal fake. Queues hold int handles
// that a lookup resolves to those elements.
#ifndef SRC_SERVING_SCHEDULER_H_
#define SRC_SERVING_SCHEDULER_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/workload/trace.h"

namespace dz {

enum class SchedPolicy {
  kFcfs,
  kPriority,
  kDwfq,
};

inline constexpr SchedPolicy kSchedPolicies[] = {SchedPolicy::kFcfs, SchedPolicy::kPriority,
                                                 SchedPolicy::kDwfq};
// Stable CLI/report name of a policy ("fcfs", "priority", "dwfq"); ParseName
// (src/util/parse.h) reads it back over kSchedPolicies.
const char* SchedPolicyName(SchedPolicy policy);

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kFcfs;
  // Shed requests whose class E2E deadline is already unmeetable even under an
  // optimistic service estimate. Shed requests complete nothing and are counted
  // per class.
  bool admission_control = false;
  // Let blocked interactive requests preempt running batch-class skippers
  // (DeltaZip engine only — the vLLM baseline has no skippers). Honored only
  // under kPriority / kDwfq: FCFS would livelock admit/evict.
  bool class_preemption = false;
  // Per-class deadlines used for admission control (and copied into the report
  // for per-class attainment).
  SloSpecs slo;
};

// kDwfq class weights (interactive, standard, batch): a token of interactive
// work advances its tenant's virtual time 4× slower than a batch token, so
// interactive requests sort earlier at equal backlog.
inline constexpr double kClassWeight[kNumSloClasses] = {4.0, 2.0, 1.0};

// Per-tenant virtual-time state for kDwfq. Persists across scheduling rounds
// inside one Serve() call; a fresh engine run starts from zero, keeping runs
// deterministic.
class FairQueue {
 public:

  // Stamps a newly queued request: its virtual finish tag is tokens/weight past
  // its tenant's virtual time, floored at the global virtual time so an idle
  // tenant re-enters at "now" rather than cashing in banked credit.
  double TagFor(const TraceRequest& req) {
    const double weight = kClassWeight[static_cast<int>(req.slo)];
    const double cost =
        static_cast<double>(static_cast<long long>(req.prompt_tokens) + req.output_tokens) /
        weight;
    double& tenant_vtime = tenant_vtime_[req.tenant_id];
    const double tag = std::max(tenant_vtime, global_vtime_) + cost;
    tenant_vtime = tag;
    return tag;
  }

  // Advances the global virtual time to the tag of an admitted request.
  void OnAdmit(double tag) { global_vtime_ = std::max(global_vtime_, tag); }

  // Refunds a shed request's virtual-time charge for the `unserved_tokens` it
  // will never receive (a preempted request that already decoded part of its
  // output keeps being charged for the served part — the tenant consumed that
  // GPU time). Leaving the full charge in place would deprioritize the
  // tenant's surviving traffic — the opposite of fair queueing. (Going below
  // the global virtual time is harmless: TagFor floors the next start at
  // global_vtime_, so no credit can be banked.)
  void OnShed(const TraceRequest& req, long long unserved_tokens) {
    const double weight = kClassWeight[static_cast<int>(req.slo)];
    const auto it = tenant_vtime_.find(req.tenant_id);
    if (it != tenant_vtime_.end()) {
      it->second -= static_cast<double>(std::max(0LL, unserved_tokens)) / weight;
    }
  }

 private:
  double global_vtime_ = 0.0;
  std::map<int, double> tenant_vtime_;  // tenant id → virtual time
};

// The admission-consideration order: true when `a` goes strictly before `b`.
// kFcfs orders by arrival, kPriority by SLO class (SloClass values are already
// priority-ranked, interactive = 0 first) then arrival, kDwfq by virtual finish
// tag (stamped once, at ingest; a preempted request keeps its tag, since its
// service was already charged).
template <typename Pending>
bool PolicyBefore(SchedPolicy policy, const Pending& a, const Pending& b) {
  switch (policy) {
    case SchedPolicy::kFcfs:
      break;
    case SchedPolicy::kPriority:
      if (a.req.slo != b.req.slo) {
        return static_cast<int>(a.req.slo) < static_cast<int>(b.req.slo);
      }
      break;
    case SchedPolicy::kDwfq:
      return a.fair_tag < b.fair_tag;
  }
  return a.req.arrival_s < b.req.arrival_s;
}

// Inserts handle `h` into a queue of handles already in policy order, where
// `pending(handle)` returns a reference to the handle's request, behind every
// request with an equal key: inserting a batch one by one gives exactly the
// stable sort of queue + batch, ties in queue order then batch order
// (scheduler_test checks this against the sort; the goldens pin the resulting
// schedules).
template <typename Lookup>
void InsertInPolicyOrder(SchedPolicy policy, std::vector<int>& queue, int h,
                         const Lookup& pending) {
  const auto& p = pending(h);
  const auto pos = std::upper_bound(
      queue.begin(), queue.end(), h,
      [policy, &p, &pending](int, int b) { return PolicyBefore(policy, p, pending(b)); });
  queue.insert(pos, h);
}

// True when the request's class E2E deadline can no longer be met, even if the
// engine served it immediately at the optimistic service estimate. The
// deadline is anchored at SloArrival(): a re-enqueued (crash-rerouted)
// request has already burned queue time between its original arrival and the
// re-enqueue, and anchoring at the re-enqueue arrival_s would ignore that
// elapsed time and over-admit doomed post-crash retries (regression-tested).
inline bool DeadlineUnmeetable(const SchedulerConfig& config, const TraceRequest& req,
                               double now, double optimistic_service_s) {
  const SloSpec& spec = config.slo.Of(req.slo);
  return now + optimistic_service_s > req.SloArrival() + spec.e2e_s;
}

// A time before which DeadlineUnmeetable stays false: the crossing point less
// a margin (1e-9 of the operands' magnitude) far above the rounding error of
// either side of its comparison.
inline double MeetableUntil(const SchedulerConfig& config, const TraceRequest& req,
                            double optimistic_service_s) {
  const double deadline = req.SloArrival() + config.slo.Of(req.slo).e2e_s;
  return deadline - optimistic_service_s -
         1e-9 * (1.0 + std::abs(deadline) + std::abs(optimistic_service_s));
}

}  // namespace dz

#endif  // SRC_SERVING_SCHEDULER_H_
