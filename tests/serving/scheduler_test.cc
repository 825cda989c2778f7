// Scheduler policies, admission control, and their engine/cluster integration:
// FCFS defaults must be bit-identical to the pre-scheduler engines, priority
// must actually protect the interactive class under a flash crowd, DWFQ must
// keep a light tenant ahead of a flooding one, and shed accounting must close
// (completed + shed == offered).
#include <algorithm>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"
#include "tests/cluster/reference_placer.h"

namespace dz {
namespace {

// Minimal queue element for the ordering templates (mirrors the engines'
// PendingReq surface).
struct PendingLike {
  TraceRequest req;
  double fair_tag = -1.0;
};

PendingLike Req(int id, int tenant, SloClass slo, double arrival, int tokens = 100) {
  PendingLike p;
  p.req.id = id;
  p.req.tenant_id = tenant;
  p.req.slo = slo;
  p.req.arrival_s = arrival;
  p.req.prompt_tokens = tokens / 2;
  p.req.output_tokens = tokens - tokens / 2;
  return p;
}

using Queue = std::deque<PendingLike>;

// The serve loop's queue: handles into a store of requests (each request
// queued, re-queued ones included, takes a new slot).
struct HandleQueue {
  std::vector<PendingLike> store;
  std::vector<int> handles;

  size_t size() const { return handles.size(); }
  const PendingLike& operator[](size_t i) const {
    return store[static_cast<size_t>(handles[i])];
  }
  void push_back(const PendingLike& p) {
    store.push_back(p);
    handles.push_back(static_cast<int>(store.size() - 1));
  }
  void erase(size_t i) { handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i)); }
};

// The serve loop's ingest on a queue kept in policy order: the `requeued`
// requests preempted since the last ingest wait at the back and are re-inserted
// first, then each arrival is DWFQ-stamped and inserted, in arrival order.
void Ingest(const SchedulerConfig& cfg, FairQueue& fq, HandleQueue& q, size_t requeued,
            std::vector<PendingLike> arrivals) {
  const auto pending = [&q](int h) -> const PendingLike& {
    return q.store[static_cast<size_t>(h)];
  };
  const auto tail = q.handles.end() - static_cast<std::ptrdiff_t>(requeued);
  const std::vector<int> preempted(tail, q.handles.end());
  q.handles.erase(tail, q.handles.end());
  for (const int h : preempted) {
    InsertInPolicyOrder(cfg.policy, q.handles, h, pending);
  }
  for (PendingLike& p : arrivals) {
    if (cfg.policy == SchedPolicy::kDwfq) {
      p.fair_tag = fq.TagFor(p.req);
    }
    q.store.push_back(p);
    InsertInPolicyOrder(cfg.policy, q.handles, static_cast<int>(q.store.size() - 1), pending);
  }
}

// The reference order: the engines once appended arrivals and preempted
// requests to the queue and stable-sorted all of it every round.
void OrderQueueForPolicy(const SchedulerConfig& config, FairQueue& fair_queue,
                         Queue& queue) {
  switch (config.policy) {
    case SchedPolicy::kFcfs:
      std::stable_sort(queue.begin(), queue.end(),
                       [](const PendingLike& a, const PendingLike& b) {
                         return a.req.arrival_s < b.req.arrival_s;
                       });
      break;
    case SchedPolicy::kPriority:
      std::stable_sort(queue.begin(), queue.end(),
                       [](const PendingLike& a, const PendingLike& b) {
                         if (a.req.slo != b.req.slo) {
                           return static_cast<int>(a.req.slo) <
                                  static_cast<int>(b.req.slo);
                         }
                         return a.req.arrival_s < b.req.arrival_s;
                       });
      break;
    case SchedPolicy::kDwfq:
      for (PendingLike& pending : queue) {
        if (pending.fair_tag < 0.0) {
          pending.fair_tag = fair_queue.TagFor(pending.req);
        }
      }
      std::stable_sort(queue.begin(), queue.end(),
                       [](const PendingLike& a, const PendingLike& b) {
                         return a.fair_tag < b.fair_tag;
                       });
      break;
  }
}

template <typename AnyQueue>
std::vector<int> Ids(const AnyQueue& q) {
  std::vector<int> ids;
  for (size_t i = 0; i < q.size(); ++i) {
    ids.push_back(q[i].req.id);
  }
  return ids;
}

TEST(OrderQueueTest, FcfsKeepsArrivalOrder) {
  SchedulerConfig cfg;
  FairQueue fq;
  HandleQueue q;
  Ingest(cfg, fq, q, 0,
         {Req(0, 0, SloClass::kBatch, 2.0), Req(1, 0, SloClass::kInteractive, 1.0),
          Req(2, 1, SloClass::kStandard, 3.0)});
  EXPECT_EQ(Ids(q), (std::vector<int>{1, 0, 2}));
}

TEST(OrderQueueTest, PriorityOrdersByClassThenArrival) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kPriority;
  FairQueue fq;
  HandleQueue q;
  Ingest(cfg, fq, q, 0,
         {Req(0, 0, SloClass::kBatch, 1.0), Req(1, 0, SloClass::kStandard, 2.0),
          Req(2, 0, SloClass::kInteractive, 3.0), Req(3, 0, SloClass::kInteractive, 2.5),
          Req(4, 0, SloClass::kBatch, 0.5)});
  // Interactive first (by arrival), then standard, then batch (by arrival).
  EXPECT_EQ(Ids(q), (std::vector<int>{3, 2, 1, 4, 0}));
}

TEST(OrderQueueTest, DwfqKeepsLightTenantAheadOfFlood) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kDwfq;
  FairQueue fq;
  // Tenant 0 floods 8 requests; tenant 1 submits one, last in arrival order.
  std::vector<PendingLike> arrivals;
  for (int i = 0; i < 8; ++i) {
    arrivals.push_back(Req(i, 0, SloClass::kStandard, 0.1 * i));
  }
  arrivals.push_back(Req(100, 1, SloClass::kStandard, 0.9));
  HandleQueue q;
  Ingest(cfg, fq, q, 0, arrivals);
  size_t pos_light = 0;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q[i].req.id == 100) {
      pos_light = i;
    }
  }
  // Under FCFS it would sit at index 8; fair queueing pulls it to the front
  // (the flood tenant's virtual time races ahead after its first request).
  EXPECT_LE(pos_light, 1u);
  // Tags persist: re-inserting the whole queue (as if every request had been
  // preempted) must not re-stamp, and keeps the order.
  const std::vector<int> order = Ids(q);
  const double tag = q[pos_light].fair_tag;
  Ingest(cfg, fq, q, q.size(), {});
  EXPECT_EQ(Ids(q), order);
  EXPECT_DOUBLE_EQ(q[pos_light].fair_tag, tag);
}

TEST(OrderQueueTest, DwfqClassWeightsFavorInteractive) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kDwfq;
  FairQueue fq;
  // Same tenant, same arrival, same size: the interactive request's cost is
  // divided by a 4× weight, so its finish tag lands earlier.
  HandleQueue q;
  Ingest(cfg, fq, q, 0,
         {Req(0, 0, SloClass::kBatch, 0.0), Req(1, 1, SloClass::kInteractive, 0.0)});
  EXPECT_EQ(q[0].req.id, 1);
}

// The property the serve loop's bit-identity rests on: over many rounds of
// arrivals (with equal keys), admissions from anywhere in the queue and
// preempted requests re-queued with their tags, inserting in policy order gives
// exactly the stable-sort order, tag for tag, under every policy.
TEST(OrderQueueTest, InsertPathEqualsStableSortOnRandomizedQueues) {
  for (SchedPolicy policy :
       {SchedPolicy::kFcfs, SchedPolicy::kPriority, SchedPolicy::kDwfq}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SchedulerConfig cfg;
      cfg.policy = policy;
      FairQueue fq_sort;
      FairQueue fq_insert;
      Queue sorted;
      HandleQueue inserted;
      std::vector<PendingLike> running;
      size_t requeued = 0;
      Rng rng(seed);
      const auto below = [&rng](size_t n) {
        return static_cast<size_t>(rng.NextBelow(n));
      };
      int next_id = 0;
      double clock = 0.0;
      for (int round = 0; round < 60; ++round) {
        // A batch of arrivals: coarse times, few tenants and sizes, so that
        // arrival times, classes and DWFQ tags all tie often.
        std::vector<PendingLike> arrivals;
        const size_t n_arrivals = below(7);
        for (size_t i = 0; i < n_arrivals; ++i) {
          clock += rng.NextDouble() < 0.5 ? 0.0 : 0.5;
          arrivals.push_back(Req(next_id++, static_cast<int>(below(4)),
                                 static_cast<SloClass>(below(kNumSloClasses)), clock,
                                 rng.NextDouble() < 0.5 ? 100 : 200));
        }
        sorted.insert(sorted.end(), arrivals.begin(), arrivals.end());
        OrderQueueForPolicy(cfg, fq_sort, sorted);
        Ingest(cfg, fq_insert, inserted, requeued, arrivals);
        requeued = 0;
        ASSERT_EQ(Ids(inserted), Ids(sorted)) << "seed " << seed << " round " << round;
        for (size_t i = 0; i < sorted.size(); ++i) {
          ASSERT_EQ(inserted[i].fair_tag, sorted[i].fair_tag);
        }
        // Admit a few requests from anywhere in the queue.
        const size_t n_admit = below(std::min<size_t>(3, sorted.size()) + 1);
        for (size_t i = 0; i < n_admit; ++i) {
          const size_t at = below(sorted.size());
          running.push_back(sorted[at]);
          fq_sort.OnAdmit(sorted[at].fair_tag);
          fq_insert.OnAdmit(inserted[at].fair_tag);
          sorted.erase(sorted.begin() + static_cast<std::ptrdiff_t>(at));
          inserted.erase(at);
        }
        // Preempt a few running requests back to the queue tail, tags kept.
        while (!running.empty() && rng.NextDouble() < 0.4) {
          const size_t at = below(running.size());
          sorted.push_back(running[at]);
          inserted.push_back(running[at]);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(at));
          ++requeued;
        }
      }
    }
  }
}

TEST(DeadlineTest, UnmeetableOnlyWhenEstimateOverrunsDeadline) {
  SchedulerConfig cfg;
  TraceRequest req;
  req.slo = SloClass::kInteractive;  // default E2E deadline: 60 s
  req.arrival_s = 10.0;
  EXPECT_FALSE(DeadlineUnmeetable(cfg, req, 20.0, 5.0));   // 25 < 70
  EXPECT_FALSE(DeadlineUnmeetable(cfg, req, 60.0, 9.0));   // 69 < 70
  EXPECT_TRUE(DeadlineUnmeetable(cfg, req, 60.0, 11.0));   // 71 > 70
  EXPECT_TRUE(DeadlineUnmeetable(cfg, req, 75.0, 0.001));  // already past
}

// ---- engine integration ----------------------------------------------------

EngineConfig SmallEngine() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

TraceConfig FlashCrowdConfig() {
  TraceConfig tc;
  tc.n_models = 32;
  tc.arrival_rate = 6.0;
  tc.duration_s = 150.0;
  tc.dist = PopularityDist::kAzure;
  tc.output_mean_tokens = 120.0;
  tc.output_max_tokens = 400;
  tc.seed = 2121;
  tc.tenants.n_tenants = 6;
  tc.tenants.scenario = TenantScenario::kFlashCrowd;
  tc.tenants.interactive_frac = 0.25;
  tc.tenants.batch_frac = 0.35;
  tc.tenants.flash_boost = 25.0;
  return tc;
}

// Tight interactive deadlines so the flash crowd actually endangers them.
void TightenSlo(SchedulerConfig& sched) {
  sched.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 20.0};
  sched.slo.per_class[static_cast<int>(SloClass::kStandard)] = {10.0, 90.0};
}

void ExpectSameRecords(const ServeReport& a, const ServeReport& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_DOUBLE_EQ(a.records[i].start_s, b.records[i].start_s);
    EXPECT_DOUBLE_EQ(a.records[i].first_token_s, b.records[i].first_token_s);
    EXPECT_DOUBLE_EQ(a.records[i].finish_s, b.records[i].finish_s);
  }
}

TEST(SchedulerEngineTest, PriorityEqualsFcfsOnSingleClassTrace) {
  // With every request in the same class, priority ordering degenerates to the
  // FCFS stable sort — bit-identical schedules on both engines.
  TraceConfig tc;
  tc.n_models = 12;
  tc.arrival_rate = 2.0;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kAzure;
  tc.seed = 31;
  const Trace trace = GenerateTrace(tc);

  EngineConfig fcfs = SmallEngine();
  EngineConfig prio = SmallEngine();
  prio.scheduler.policy = SchedPolicy::kPriority;
  ExpectSameRecords(MakeDeltaZipEngine(fcfs)->Serve(trace),
                    MakeDeltaZipEngine(prio)->Serve(trace));
  ExpectSameRecords(MakeVllmScbEngine(fcfs)->Serve(trace),
                    MakeVllmScbEngine(prio)->Serve(trace));
}

TEST(SchedulerEngineTest, PriorityBeatsFcfsUnderFlashCrowd) {
  // The PR's acceptance gate as a test: under the flash-crowd scenario,
  // class-aware scheduling must lift interactive-class attainment over FCFS
  // without giving up more than 10% aggregate token throughput.
  const Trace trace = GenerateTrace(FlashCrowdConfig());

  EngineConfig fcfs = SmallEngine();
  TightenSlo(fcfs.scheduler);
  EngineConfig prio = fcfs;
  prio.scheduler.policy = SchedPolicy::kPriority;
  prio.scheduler.class_preemption = true;

  const ServeReport r_fcfs = MakeDeltaZipEngine(fcfs)->Serve(trace);
  const ServeReport r_prio = MakeDeltaZipEngine(prio)->Serve(trace);
  EXPECT_GT(r_prio.ClassAttainment(SloClass::kInteractive),
            r_fcfs.ClassAttainment(SloClass::kInteractive) + 0.05);
  EXPECT_GE(r_prio.TokenThroughput(), 0.9 * r_fcfs.TokenThroughput());
  // Reordering must not lose work: both complete the whole trace.
  EXPECT_EQ(r_prio.records.size(), trace.requests.size());
  EXPECT_EQ(r_fcfs.records.size(), trace.requests.size());
}

TEST(SchedulerEngineTest, AdmissionControlAccountingCloses) {
  const Trace trace = GenerateTrace(FlashCrowdConfig());
  EngineConfig cfg = SmallEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.admission_control = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  EXPECT_GT(r.TotalShed(), 0) << "this scenario overloads the engine";
  EXPECT_EQ(r.records.size() + static_cast<size_t>(r.TotalShed()),
            trace.requests.size());
  // A shed request must never also complete: ids in records stay unique.
  std::vector<int> ids;
  for (const auto& rec : r.records) {
    ids.push_back(rec.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(SchedulerEngineTest, SheddingTheLastRequestTerminatesCleanly) {
  // Regression: when admission control sheds the final outstanding request(s)
  // while nothing is running, the engines must finish (and report the sheds)
  // instead of DZ_CHECK-aborting in the idle fast-forward with no next event.
  Trace trace;
  trace.n_models = 2;
  trace.duration_s = 10.0;
  TraceRequest doomed;
  doomed.id = 0;
  doomed.model_id = 0;
  doomed.arrival_s = 1.0;
  doomed.prompt_tokens = 100;
  doomed.output_tokens = 100000;  // optimistic service alone blows the deadline
  trace.requests.push_back(doomed);
  trace.CheckWellFormed();

  EngineConfig cfg = SmallEngine();
  cfg.scheduler.admission_control = true;
  const ServeReport r_dz = MakeDeltaZipEngine(cfg)->Serve(trace);
  EXPECT_EQ(r_dz.records.size(), 0u);
  EXPECT_EQ(r_dz.TotalShed(), 1);

  const ServeReport r_scb = MakeVllmScbEngine(cfg)->Serve(trace);
  EXPECT_EQ(r_scb.records.size(), 0u);
  EXPECT_EQ(r_scb.TotalShed(), 1);
}

TEST(SchedulerEngineTest, SheddingOffByDefault) {
  const Trace trace = GenerateTrace(FlashCrowdConfig());
  const ServeReport r = MakeDeltaZipEngine(SmallEngine())->Serve(trace);
  EXPECT_EQ(r.TotalShed(), 0);
  EXPECT_EQ(r.records.size(), trace.requests.size());
}

TEST(SchedulerEngineTest, VllmEngineHonorsSchedulerAndSheds) {
  TraceConfig tc = FlashCrowdConfig();
  tc.arrival_rate = 1.0;  // full-model swapping saturates far earlier
  tc.duration_s = 120.0;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg = SmallEngine();
  TightenSlo(cfg.scheduler);
  cfg.scheduler.policy = SchedPolicy::kPriority;
  cfg.scheduler.admission_control = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  EXPECT_EQ(r.records.size() + static_cast<size_t>(r.TotalShed()),
            trace.requests.size());
  EXPECT_EQ(r.n_tenants, 6);
}

TEST(SchedulerEngineTest, RecordsCarryTenantAndClass) {
  TraceConfig tc = FlashCrowdConfig();
  tc.arrival_rate = 1.0;
  tc.duration_s = 40.0;
  const Trace trace = GenerateTrace(tc);
  const ServeReport r = MakeDeltaZipEngine(SmallEngine())->Serve(trace);
  ASSERT_EQ(r.records.size(), trace.requests.size());
  for (const auto& rec : r.records) {
    const TraceRequest& req = trace.requests[static_cast<size_t>(rec.id)];
    EXPECT_EQ(rec.tenant_id, req.tenant_id);
    EXPECT_EQ(rec.slo, req.slo);
  }
}

// ---- cluster integration ---------------------------------------------------

TEST(SchedulerClusterTest, ClusterMergesTenantMetrics) {
  TraceConfig tc = FlashCrowdConfig();
  tc.arrival_rate = 8.0;
  const Trace trace = GenerateTrace(tc);

  ClusterConfig cfg;
  cfg.placer.n_gpus = 2;
  cfg.placer.policy = PlacementPolicy::kTenantAffinity;
  cfg.engine = SmallEngine();
  TightenSlo(cfg.engine.scheduler);
  cfg.engine.scheduler.admission_control = true;
  const ClusterReport r = Cluster(cfg).Serve(trace);

  EXPECT_EQ(r.merged.n_tenants, 6);
  int shed_sum = 0;
  for (const ServeReport& g : r.per_gpu) {
    shed_sum += g.TotalShed();
  }
  EXPECT_EQ(r.TotalShed(), shed_sum);
  EXPECT_EQ(r.merged.records.size() + static_cast<size_t>(r.TotalShed()),
            trace.requests.size());
  const double jain = r.merged.JainFairnessIndex();
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0);
  for (int c = 0; c < kNumSloClasses; ++c) {
    const double att = r.merged.ClassAttainment(static_cast<SloClass>(c));
    EXPECT_GE(att, 0.0);
    EXPECT_LE(att, 1.0);
  }
  // The tenant rows render without disturbing the table machinery.
  const std::string summary = r.Summary(120.0, 30.0);
  EXPECT_NE(summary.find("Jain fairness"), std::string::npos);
  EXPECT_NE(summary.find("shed"), std::string::npos);
}

TEST(SchedulerClusterTest, TenantAffinityKeepsTenantsTogether) {
  TraceConfig tc = FlashCrowdConfig();
  tc.tenants.scenario = TenantScenario::kSteady;
  tc.arrival_rate = 4.0;
  tc.duration_s = 100.0;
  const Trace trace = GenerateTrace(tc);

  PlacerConfig pc;
  pc.n_gpus = 4;
  pc.policy = PlacementPolicy::kTenantAffinity;
  const std::vector<int> shard_of = Router(pc).Assign(trace);

  // Absent bounded-load spill every request of a tenant lands on its ring
  // home; with spill allowed, the dominant GPU should still carry the vast
  // majority of each tenant's traffic.
  const testing_ref::ReferencePlacer ref(pc);
  size_t on_home = 0;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    if (shard_of[i] == ref.HomeGpuForTenant(trace.requests[i].tenant_id)) {
      ++on_home;
    }
  }
  EXPECT_GT(static_cast<double>(on_home),
            0.6 * static_cast<double>(trace.requests.size()));
}

}  // namespace
}  // namespace dz
