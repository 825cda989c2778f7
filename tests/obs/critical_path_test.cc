// Critical-path attribution on synthetic dispatch/preempt chains: segments
// telescope to the measured E2E/TTFT latencies, broken chains fall back to the
// record-only split (still telescoping, flagged incomplete), and the per-class
// rollup/merge preserves the sums.
#include "src/obs/critical_path.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tests/obs/segment_sum.h"

namespace dz {
namespace {

TraceEvent Ev(TraceEventType type, double ts, int request_id) {
  TraceEvent e;
  e.type = type;
  e.ts_s = ts;
  e.request_id = request_id;
  return e;
}

RequestRecord Req(int id, double arrival, double sched, double start,
                  double first_token, double finish, int preemptions,
                  SloClass slo = SloClass::kStandard) {
  RequestRecord r;
  r.id = id;
  r.slo = slo;
  r.arrival_s = arrival;
  r.sched_attempt_s = sched;
  r.start_s = start;
  r.first_token_s = first_token;
  r.finish_s = finish;
  r.preemptions = preemptions;
  return r;
}

TEST(CriticalPathTest, NoPreemptionSplitsQueueLoadCompute) {
  const RequestRecord r = Req(1, 10.0, 10.5, 11.25, 11.5, 14.0, 0);
  const std::vector<TraceEvent> events = {
      Ev(TraceEventType::kSchedDispatch, 11.25, 1),
  };
  const auto out = AttributeRequests({r}, events);
  ASSERT_EQ(out.size(), 1u);
  const RequestPathBreakdown& b = out[0];
  EXPECT_TRUE(b.complete);
  EXPECT_DOUBLE_EQ(b.e2e.queue_s, 0.5);
  EXPECT_DOUBLE_EQ(b.e2e.load_s, 0.75);
  EXPECT_DOUBLE_EQ(b.e2e.compute_s, 2.75);
  EXPECT_DOUBLE_EQ(b.e2e.preempt_s, 0.0);
  EXPECT_DOUBLE_EQ(SegmentSum(b.e2e), r.finish_s - r.arrival_s);
  // TTFT clips compute at the first-token stamp.
  EXPECT_DOUBLE_EQ(b.ttft.queue_s, 0.5);
  EXPECT_DOUBLE_EQ(b.ttft.load_s, 0.75);
  EXPECT_DOUBLE_EQ(b.ttft.compute_s, 0.25);
  EXPECT_DOUBLE_EQ(SegmentSum(b.ttft), r.first_token_s - r.arrival_s);
}

TEST(CriticalPathTest, PreemptionChainChargesEvictedGaps) {
  // dispatch 2.0, preempted 3.0, resumed 4.5, preempted 5.0, resumed 6.0,
  // finished 8.0 — compute 1.0 + 0.5 + 2.0, preempt 1.5 + 1.0.
  const RequestRecord r = Req(7, 1.0, 1.5, 2.0, 2.5, 8.0, 2);
  const std::vector<TraceEvent> events = {
      Ev(TraceEventType::kSchedDispatch, 2.0, 7),
      Ev(TraceEventType::kKvPreempt, 3.0, 7),
      Ev(TraceEventType::kSchedDispatch, 4.5, 7),
      Ev(TraceEventType::kKvPreempt, 5.0, 7),
      Ev(TraceEventType::kSchedDispatch, 6.0, 7),
  };
  const auto out = AttributeRequests({r}, events);
  ASSERT_EQ(out.size(), 1u);
  const RequestPathBreakdown& b = out[0];
  EXPECT_TRUE(b.complete);
  EXPECT_DOUBLE_EQ(b.e2e.queue_s, 0.5);
  EXPECT_DOUBLE_EQ(b.e2e.load_s, 0.5);
  EXPECT_DOUBLE_EQ(b.e2e.compute_s, 3.5);
  EXPECT_DOUBLE_EQ(b.e2e.preempt_s, 2.5);
  EXPECT_DOUBLE_EQ(SegmentSum(b.e2e), r.finish_s - r.arrival_s);
  // First token arrived before the first preemption: nothing after it counts.
  EXPECT_DOUBLE_EQ(b.ttft.compute_s, 0.5);
  EXPECT_DOUBLE_EQ(b.ttft.preempt_s, 0.0);
  EXPECT_DOUBLE_EQ(SegmentSum(b.ttft), r.first_token_s - r.arrival_s);
}

TEST(CriticalPathTest, SameInstantDispatchAndPreemptIsValid) {
  // A request admitted and class-preempted in the same scheduling round shares
  // one timestamp; the chain validation allows d_i <= p_i <= d_{i+1} equality.
  const RequestRecord r = Req(3, 0.0, 0.0, 1.0, 3.5, 4.0, 1);
  const std::vector<TraceEvent> events = {
      Ev(TraceEventType::kSchedDispatch, 1.0, 3),
      Ev(TraceEventType::kKvPreempt, 1.0, 3),
      Ev(TraceEventType::kSchedDispatch, 3.0, 3),
  };
  const auto out = AttributeRequests({r}, events);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].complete);
  EXPECT_DOUBLE_EQ(out[0].e2e.compute_s, 1.0);  // 0 at ts 1.0, plus [3, 4]
  EXPECT_DOUBLE_EQ(out[0].e2e.preempt_s, 2.0);  // [1, 3]
  EXPECT_DOUBLE_EQ(SegmentSum(out[0].e2e), r.finish_s - r.arrival_s);
}

TEST(CriticalPathTest, BrokenChainFallsBackToRecordSplit) {
  // The record says one preemption but the ring kept no events: fall back to
  // queue/load from the record with preempt folded into compute.
  const RequestRecord r = Req(9, 0.0, 1.0, 2.0, 2.25, 6.0, 1);
  const auto out = AttributeRequests({r}, {});
  ASSERT_EQ(out.size(), 1u);
  const RequestPathBreakdown& b = out[0];
  EXPECT_FALSE(b.complete);
  EXPECT_DOUBLE_EQ(b.e2e.queue_s, 1.0);
  EXPECT_DOUBLE_EQ(b.e2e.load_s, 1.0);
  EXPECT_DOUBLE_EQ(b.e2e.compute_s, 4.0);
  EXPECT_DOUBLE_EQ(b.e2e.preempt_s, 0.0);
  EXPECT_DOUBLE_EQ(SegmentSum(b.e2e), r.finish_s - r.arrival_s);
  EXPECT_DOUBLE_EQ(SegmentSum(b.ttft), r.first_token_s - r.arrival_s);
}

TEST(CriticalPathTest, MismatchedDispatchCountFallsBack) {
  // Two dispatches but the record claims zero preemptions: invalid chain.
  const RequestRecord r = Req(4, 0.0, 0.5, 1.0, 1.5, 5.0, 0);
  const std::vector<TraceEvent> events = {
      Ev(TraceEventType::kSchedDispatch, 1.0, 4),
      Ev(TraceEventType::kSchedDispatch, 2.0, 4),
  };
  const auto out = AttributeRequests({r}, events);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].complete);
  EXPECT_DOUBLE_EQ(SegmentSum(out[0].e2e), r.finish_s - r.arrival_s);
}

TEST(CriticalPathTest, EventsForOtherRequestsAreIgnored) {
  const RequestRecord r = Req(5, 0.0, 0.0, 1.0, 1.5, 2.0, 0);
  const std::vector<TraceEvent> events = {
      Ev(TraceEventType::kSchedDispatch, 0.5, 99),  // someone else
      Ev(TraceEventType::kSchedDispatch, 1.0, 5),
      Ev(TraceEventType::kKvPreempt, 1.2, 99),
      Ev(TraceEventType::kBatchRound, 1.0, -1),  // non-lifecycle noise
  };
  const auto out = AttributeRequests({r}, events);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].complete);
  EXPECT_DOUBLE_EQ(out[0].e2e.compute_s, 1.0);
}

TEST(CriticalPathTest, ClassRollupAndMergeSumPerClass) {
  const RequestRecord a = Req(1, 0.0, 1.0, 2.0, 2.5, 4.0, 0, SloClass::kInteractive);
  const RequestRecord b = Req(2, 0.0, 2.0, 3.0, 3.5, 7.0, 0, SloClass::kInteractive);
  const RequestRecord c = Req(3, 0.0, 0.5, 1.0, 1.5, 2.0, 1, SloClass::kBatch);
  const auto breakdowns = AttributeRequests({a, b, c}, {
      Ev(TraceEventType::kSchedDispatch, 2.0, 1),
      Ev(TraceEventType::kSchedDispatch, 3.0, 2),
      // request 3 has no events: counted incomplete.
  });
  ClassPathAttribution by_class = BuildClassAttribution(breakdowns);
  const PathAttribution& inter =
      by_class[static_cast<size_t>(SloClass::kInteractive)];
  EXPECT_EQ(inter.n, 2);
  EXPECT_EQ(inter.incomplete, 0);
  EXPECT_DOUBLE_EQ(inter.e2e.queue_s, 3.0);
  EXPECT_DOUBLE_EQ(SegmentSum(inter.e2e), 4.0 + 7.0);
  const PathAttribution& batch = by_class[static_cast<size_t>(SloClass::kBatch)];
  EXPECT_EQ(batch.n, 1);
  EXPECT_EQ(batch.incomplete, 1);
  EXPECT_EQ(by_class[static_cast<size_t>(SloClass::kStandard)].n, 0);

  // Merge is plain addition per class (cluster merge in GPU order).
  ClassPathAttribution merged = {};
  for (int c2 = 0; c2 < kNumSloClasses; ++c2) {
    merged[static_cast<size_t>(c2)].Merge(by_class[static_cast<size_t>(c2)]);
    merged[static_cast<size_t>(c2)].Merge(by_class[static_cast<size_t>(c2)]);
  }
  EXPECT_EQ(merged[static_cast<size_t>(SloClass::kInteractive)].n, 4);
  EXPECT_DOUBLE_EQ(
      SegmentSum(merged[static_cast<size_t>(SloClass::kInteractive)].e2e), 22.0);
  EXPECT_EQ(merged[static_cast<size_t>(SloClass::kBatch)].incomplete, 2);
}

}  // namespace
}  // namespace dz
