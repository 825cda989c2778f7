// TraceRecorder contract: disabled recorders drop everything for one branch,
// full-trace mode keeps every event, flight-recorder mode keeps the most
// recent ring_capacity events (counting overwrites), and Drain() always
// returns a timestamp-ordered stream with same-instant emission order intact.
#include "src/obs/trace_recorder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace {

TraceEvent At(double ts, TraceEventType type = TraceEventType::kBatchRound,
              int request_id = -1) {
  TraceEvent e;
  e.type = type;
  e.ts_s = ts;
  e.request_id = request_id;
  return e;
}

TEST(TraceRecorderTest, DisabledByDefaultAndDropsEverything) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.Emit(At(1.0));
  EXPECT_EQ(rec.dropped(), 0);
  EXPECT_TRUE(rec.Drain().empty());

  TracingConfig off;  // enabled defaults to false
  TraceRecorder rec2(off);
  EXPECT_FALSE(rec2.enabled());
  rec2.Emit(At(1.0));
  EXPECT_TRUE(rec2.Drain().empty());
}

TEST(TraceRecorderTest, FullModeKeepsEveryEvent) {
  TracingConfig cfg;
  cfg.enabled = true;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 100; ++i) {
    rec.Emit(At(static_cast<double>(i)));
  }
  EXPECT_EQ(rec.dropped(), 0);
  const std::vector<TraceEvent> out = rec.Drain();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<size_t>(i)].ts_s, static_cast<double>(i));
  }
  // Drain leaves the recorder empty but still enabled.
  EXPECT_TRUE(rec.Drain().empty());
  EXPECT_TRUE(rec.enabled());
}

TEST(TraceRecorderTest, RingKeepsMostRecentAndCountsDrops) {
  TracingConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 20; ++i) {
    rec.Emit(At(static_cast<double>(i)));
  }
  EXPECT_EQ(rec.dropped(), 12);
  const std::vector<TraceEvent> out = rec.Drain();
  ASSERT_EQ(out.size(), 8u);
  // The last 8 emitted events survive, oldest-first after the unwrap.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].ts_s, static_cast<double>(12 + i));
  }
}

TEST(TraceRecorderTest, RingDrainAfterPartialFillNeedsNoUnwrap) {
  TracingConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 5; ++i) {
    rec.Emit(At(static_cast<double>(i)));
  }
  EXPECT_EQ(rec.dropped(), 0);
  const std::vector<TraceEvent> out = rec.Drain();
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].ts_s, static_cast<double>(i));
  }
}

TEST(TraceRecorderTest, DrainSortsByTimestampStably) {
  // Store transfer spans can be stamped ahead of the emission clock (busy
  // channels), and same-instant events must keep emission order (a dispatch
  // followed by a same-round preempt).
  TracingConfig cfg;
  cfg.enabled = true;
  TraceRecorder rec(cfg);
  rec.Emit(At(5.0, TraceEventType::kStoreLoad));         // stamped in the future
  rec.Emit(At(1.0, TraceEventType::kSchedDispatch, 7));  // same instant...
  rec.Emit(At(1.0, TraceEventType::kKvPreempt, 7));      // ...keeps this order
  rec.Emit(At(3.0, TraceEventType::kBatchRound));
  const std::vector<TraceEvent> out = rec.Drain();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].type, TraceEventType::kSchedDispatch);
  EXPECT_EQ(out[1].type, TraceEventType::kKvPreempt);
  EXPECT_EQ(out[2].type, TraceEventType::kBatchRound);
  EXPECT_EQ(out[3].type, TraceEventType::kStoreLoad);
}

TEST(TraceRecorderTest, RingContinuesAfterDrain) {
  TracingConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 4;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 6; ++i) {
    rec.Emit(At(static_cast<double>(i)));
  }
  (void)rec.Drain();
  rec.Emit(At(100.0));
  rec.Emit(At(101.0));
  const std::vector<TraceEvent> out = rec.Drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].ts_s, 100.0);
  EXPECT_DOUBLE_EQ(out[1].ts_s, 101.0);
}

TEST(TraceEventNamesTest, TypeNamesAreStableDottedStrings) {
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRequestQueued), "request.queued");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kAdmissionShed), "admission.shed");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kSchedDispatch), "sched.dispatch");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kStoreLoad), "store.load");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kStorePrefetch), "store.prefetch");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kBatchRound), "batch.round");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kKvPreempt), "kv.preempt");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kKvSwap), "kv.swap");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRequestFirstToken),
               "request.first_token");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRequestDone), "request.done");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRouterPlace), "router.place");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRouterWarmHint),
               "router.warm_hint");
}

}  // namespace
}  // namespace dz
