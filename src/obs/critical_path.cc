#include "src/obs/critical_path.h"

#include <algorithm>
#include <map>

namespace dz {

namespace {

// A labeled closed interval of one request's lifetime.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
  // Which PathSegments field the interval charges.
  double PathSegments::* field = nullptr;
};

// Builds the interval chain for one request from its dispatch/preempt
// timestamps. Returns false when the chain does not match the record (events
// dropped by a flight-recorder ring): a valid chain has exactly
// preemptions + 1 dispatches interleaved d0 <= p0 <= d1 <= ... <= d_last,
// with d0 == start_s and every timestamp inside [arrival, finish].
bool BuildIntervals(const RequestRecord& r, const std::vector<double>& dispatches,
                    const std::vector<double>& preempts,
                    std::vector<Interval>& out) {
  if (dispatches.size() != preempts.size() + 1 ||
      static_cast<int>(preempts.size()) != r.preemptions) {
    return false;
  }
  if (dispatches.front() != r.start_s) {
    return false;
  }
  out.push_back({r.arrival_s, r.sched_attempt_s, &PathSegments::queue_s});
  out.push_back({r.sched_attempt_s, dispatches.front(), &PathSegments::load_s});
  for (size_t i = 0; i < preempts.size(); ++i) {
    if (preempts[i] < dispatches[i] || dispatches[i + 1] < preempts[i]) {
      return false;
    }
    out.push_back({dispatches[i], preempts[i], &PathSegments::compute_s});
    out.push_back({preempts[i], dispatches[i + 1], &PathSegments::preempt_s});
  }
  out.push_back({dispatches.back(), r.finish_s, &PathSegments::compute_s});
  return true;
}

// Record-only fallback (also the exact split when a request was never
// preempted): queue/load from the record, everything after admission counted
// as compute. Telescopes to E2E just like the event-derived chain.
void BuildFallbackIntervals(const RequestRecord& r, std::vector<Interval>& out) {
  out.push_back({r.arrival_s, r.sched_attempt_s, &PathSegments::queue_s});
  out.push_back({r.sched_attempt_s, r.start_s, &PathSegments::load_s});
  out.push_back({r.start_s, r.finish_s, &PathSegments::compute_s});
}

}  // namespace

std::vector<RequestPathBreakdown> AttributeRequests(
    const std::vector<RequestRecord>& requests,
    const std::vector<TraceEvent>& events) {
  // Collect each request's dispatch and preempt timestamps. `events` is
  // timestamp-ordered, so per-request vectors come out sorted.
  std::map<int, std::vector<double>> dispatches;
  std::map<int, std::vector<double>> preempts;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kSchedDispatch) {
      dispatches[e.request_id].push_back(e.ts_s);
    } else if (e.type == TraceEventType::kKvPreempt) {
      preempts[e.request_id].push_back(e.ts_s);
    }
  }

  std::vector<RequestPathBreakdown> out;
  out.reserve(requests.size());
  static const std::vector<double> kNone;
  for (const RequestRecord& r : requests) {
    RequestPathBreakdown b;
    b.id = r.id;
    b.slo = r.slo;

    const auto dit = dispatches.find(r.id);
    const auto pit = preempts.find(r.id);
    std::vector<Interval> intervals;
    b.complete = BuildIntervals(r, dit != dispatches.end() ? dit->second : kNone,
                                pit != preempts.end() ? pit->second : kNone,
                                intervals);
    if (!b.complete) {
      intervals.clear();
      BuildFallbackIntervals(r, intervals);
    }

    // E2E charges each interval whole; TTFT clips at the first-token stamp.
    // Summing interval lengths telescopes back to the measured latencies
    // (every boundary appears once as an end and once as the next begin).
    for (const Interval& iv : intervals) {
      b.e2e.*(iv.field) += iv.end - iv.begin;
      const double clipped_end = std::min(iv.end, r.first_token_s);
      if (clipped_end > iv.begin) {
        b.ttft.*(iv.field) += clipped_end - iv.begin;
      }
    }
    out.push_back(b);
  }
  return out;
}

ClassPathAttribution BuildClassAttribution(
    const std::vector<RequestPathBreakdown>& breakdowns) {
  ClassPathAttribution by_class = {};
  for (const RequestPathBreakdown& b : breakdowns) {
    by_class[static_cast<size_t>(b.slo)].Add(b);
  }
  return by_class;
}

}  // namespace dz
