// The shared serve loop, checked once per engine policy: the conservation
// ledger (records + shed + unavailable + unfinished == offered) must hold at
// any halt time with no request counted twice, an infinite halt must be
// bit-identical to a run that never halts, and requests parked on a dead
// registry end `unavailable` on a natural run but `unfinished` on a halted
// one — and run once the registry recovers. The executable spec of a live
// loop: a run cut at random points, with arrivals offered only up to each
// cut, equals one uncut run bit for bit. The per-engine metric key sets stay
// as they were before the loop was shared: only a preempting policy registers
// `engine.preemptions`. Runs with an arrival, a load, a prefetch, a shed,
// timeline snapshots or cuts inside a long decode-only stretch are pinned to
// values recorded while quiet rounds ran one at a time or not at all. The
// batch ledger that rounds are priced from, and the running set, queued
// counts and shed bound the loop keeps across rounds, equal a recount of the
// running batch and the queue after every step of runs cut finer than one
// iteration, and the queue's and batch's slab handles are distinct and live.
// Within a round, every first-token event precedes every completion.
#include "src/serving/serve_loop.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/registry/registry.h"
#include "src/serving/engine.h"
#include "src/util/rng.h"
#include "src/workload/trace.h"

namespace dz {

// Reads ServeLoop state no shipped caller needs: the slab's unused slots and
// the shed bound.
struct ServeLoopTestPeer {
  static const std::vector<int>& FreeSlots(const ServeLoop& loop) { return loop.free_; }
  static double ShedUntilS(const ServeLoop& loop) { return loop.shed_until_s_; }
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct EngineCase {
  const char* name;
  std::unique_ptr<ServingEngine> (*make)(const EngineConfig&);
  int lora_rank;  // 0: the compressed delta; vllm_scb swaps full models whatever this says
  double arrival_rate;  // full-model swapping saturates far earlier
  bool preempts;
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

class ServeLoopTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  // A multi-tenant flash crowd under tight deadlines: shedding, class
  // preemption (DeltaZip) and a standing queue all happen within a minute.
  Trace MakeTrace() const {
    TraceConfig tc;
    tc.n_models = 16;
    tc.arrival_rate = GetParam().arrival_rate;
    tc.duration_s = 60.0;
    tc.dist = PopularityDist::kAzure;
    tc.output_mean_tokens = 120.0;
    tc.output_max_tokens = 400;
    tc.seed = 3131;
    tc.tenants.n_tenants = 4;
    tc.tenants.scenario = TenantScenario::kFlashCrowd;
    tc.tenants.interactive_frac = 0.3;
    tc.tenants.batch_frac = 0.3;
    tc.tenants.flash_boost = 25.0;
    return GenerateTrace(tc);
  }

  EngineConfig MakeConfig() const {
    EngineConfig cfg;
    cfg.exec.shape = ModelShape::Llama13B();
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.tp = 4;
    cfg.exec.lora_rank = GetParam().lora_rank;
    cfg.scheduler.policy = SchedPolicy::kPriority;
    cfg.scheduler.admission_control = true;
    cfg.scheduler.class_preemption = true;
    cfg.scheduler.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 20.0};
    cfg.scheduler.slo.per_class[static_cast<int>(SloClass::kStandard)] = {10.0, 40.0};
    return cfg;
  }

  ServeReport Serve(const EngineConfig& cfg, const Trace& trace) const {
    return GetParam().make(cfg)->Serve(trace);
  }

  // The whole trace offered to a live loop, run until `halt`, then finished.
  ServeReport ServeUntil(const EngineConfig& cfg, const Trace& trace, double halt) const {
    const std::unique_ptr<ServeLoop> loop =
        GetParam().make(cfg)->Start(trace.n_models, trace.n_tenants);
    for (const TraceRequest& req : trace.requests) {
      loop->Offer(req);
    }
    loop->RunUntil(halt);
    return loop->Finish();
  }
};

// Every offered request lands in exactly one bucket, and no id appears twice.
void ExpectLedgerCloses(const ServeReport& r, const Trace& trace,
                        const std::string& where) {
  EXPECT_EQ(r.records.size() + static_cast<size_t>(r.TotalShed()) + r.unavailable.size() +
                r.unfinished.size(),
            trace.requests.size())
      << where;
  std::set<int> seen;
  for (const RequestRecord& rec : r.records) {
    EXPECT_TRUE(seen.insert(rec.id).second) << where << ": record " << rec.id << " twice";
  }
  for (const TraceRequest& req : r.unfinished) {
    EXPECT_TRUE(seen.insert(req.id).second) << where << ": " << req.id << " twice";
  }
  for (const TraceRequest& req : r.unavailable) {
    EXPECT_TRUE(seen.insert(req.id).second) << where << ": " << req.id << " twice";
  }
}

// Empty when what the loop keeps across rounds agrees with a recount of its
// queue and batch, else the first difference: distinct live handles in the
// queue and the batch, the per-variant running counts and the running set,
// the per-variant queued counts, and (under admission control) a shed bound at
// or below every queued request's MeetableUntil.
// `stale` is set when the bound lies strictly below all of them: the request
// that held it has left the queue since the last shed walk.
std::string KeptStateMismatch(const ServeLoop& loop, const SchedulerConfig& sched,
                              bool* stale) {
  const std::vector<int>& free_slots = ServeLoopTestPeer::FreeSlots(loop);
  std::set<int> handles(free_slots.begin(), free_slots.end());
  for (const std::vector<int>* list : {&loop.queue(), &loop.running()}) {
    for (const int h : *list) {
      if (!handles.insert(h).second) {
        return "handle " + std::to_string(h) + " free or listed twice";
      }
    }
  }
  const size_t n = static_cast<size_t>(loop.n_models());
  std::vector<int> running(n, 0);
  for (const int h : loop.running()) {
    ++running[static_cast<size_t>(loop.pending(h).req.model_id)];
  }
  std::vector<int> running_ids;
  for (size_t v = 0; v < n; ++v) {
    if (running[v] > 0) {
      running_ids.push_back(static_cast<int>(v));
    }
  }
  if (loop.running_variants().count != running) {
    return "per-variant running counts differ";
  }
  if (loop.running_variants().ids != running_ids) {
    return "running set differs";
  }
  std::vector<int> queued(n, 0);
  double least_meetable = kInf;
  for (const int h : loop.queue()) {
    const PendingReq& p = loop.pending(h);
    ++queued[static_cast<size_t>(p.req.model_id)];
    if (sched.admission_control) {
      if (p.min_service_s < 0.0) {
        return "request " + std::to_string(p.req.id) + " queued without a service estimate";
      }
      least_meetable = std::min(least_meetable, MeetableUntil(sched, p.req, p.min_service_s));
    }
  }
  if (loop.queued_variants().count != queued) {
    return "per-variant queued counts differ";
  }
  const double shed_until_s = ServeLoopTestPeer::ShedUntilS(loop);
  if (shed_until_s > least_meetable) {
    return "shed bound " + std::to_string(shed_until_s) + " above a queued MeetableUntil " +
           std::to_string(least_meetable);
  }
  *stale = !loop.queue().empty() && shed_until_s < least_meetable;
  return "";
}

TEST_P(ServeLoopTest, LedgerHoldsAtEveryHaltTime) {
  const Trace trace = MakeTrace();
  const EngineConfig cfg = MakeConfig();
  const ServeReport full = Serve(cfg, trace);
  ExpectLedgerCloses(full, trace, "natural run");
  EXPECT_TRUE(full.unfinished.empty());
  EXPECT_FALSE(full.records.empty());
  EXPECT_GT(full.TotalShed(), 0) << "the scenario should exercise shedding";

  bool stale = false;
  for (double halt : {0.0, 5.0, 20.0, 45.0, 0.5 * full.makespan_s}) {
    const std::string where = "halt " + std::to_string(halt);
    const std::unique_ptr<ServeLoop> loop =
        GetParam().make(cfg)->Start(trace.n_models, trace.n_tenants);
    for (const TraceRequest& req : trace.requests) {
      loop->Offer(req);
    }
    loop->RunUntil(halt);
    EXPECT_EQ(KeptStateMismatch(*loop, cfg.scheduler, &stale), "") << where;
    const ServeReport r = loop->Finish();
    ExpectLedgerCloses(r, trace, where);
    EXPECT_FALSE(r.unfinished.empty()) << where;
    EXPECT_LT(r.records.size(), full.records.size()) << where;
  }

  // The kept state at every halt of a run stepped finer than a round. Some
  // halts must find the bound stale-low: the request holding it was
  // dispatched, and the bound waits for the next walk to rise.
  const std::unique_ptr<ServeLoop> loop =
      GetParam().make(cfg)->Start(trace.n_models, trace.n_tenants);
  for (const TraceRequest& req : trace.requests) {
    loop->Offer(req);
  }
  int stale_halts = 0;
  for (double halt = 0.0; halt < full.makespan_s; halt += 0.01) {
    loop->RunUntil(halt);
    const std::string mismatch = KeptStateMismatch(*loop, cfg.scheduler, &stale);
    if (!mismatch.empty()) {
      ADD_FAILURE() << "halt " << halt << ": " << mismatch;
      break;  // the first difference says enough
    }
    stale_halts += stale ? 1 : 0;
  }
  EXPECT_GT(stale_halts, 0) << "no halt found the shed bound stale";
  loop->RunUntil(kInf);
  const ServeReport stepped = loop->Finish();
  ASSERT_EQ(stepped.records.size(), full.records.size());
  EXPECT_EQ(stepped.makespan_s, full.makespan_s);
  EXPECT_EQ(stepped.metrics.ToJsonLine(), full.metrics.ToJsonLine());
}

TEST_P(ServeLoopTest, InfiniteHaltIsBitIdenticalToNoHalt) {
  const Trace trace = MakeTrace();
  const ServeReport plain = Serve(MakeConfig(), trace);
  // An explicit infinite halt, and a finite one the run never reaches.
  for (double halt : {kInf, 1e12}) {
    const ServeReport r = ServeUntil(MakeConfig(), trace, halt);
    ASSERT_EQ(r.records.size(), plain.records.size()) << halt;
    for (size_t i = 0; i < r.records.size(); ++i) {
      const RequestRecord& a = r.records[i];
      const RequestRecord& b = plain.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.preemptions, b.preemptions);
      EXPECT_EQ(a.sched_attempt_s, b.sched_attempt_s);
      EXPECT_EQ(a.start_s, b.start_s);
      EXPECT_EQ(a.first_token_s, b.first_token_s);
      EXPECT_EQ(a.finish_s, b.finish_s);
    }
    EXPECT_EQ(r.makespan_s, plain.makespan_s);
    EXPECT_EQ(r.metrics.ToJsonLine(), plain.metrics.ToJsonLine());
    EXPECT_TRUE(r.unfinished.empty());
  }
}

TEST_P(ServeLoopTest, DeadRegistryParksUnavailableOrUnfinished) {
  const Trace trace = MakeTrace();
  RegistryConfig rc;
  rc.enabled = true;
  ArtifactRegistry registry(rc, trace.n_models, /*n_nodes=*/2);
  registry.SetNodeLive(0, false);
  registry.SetNodeLive(1, false);
  EngineConfig cfg = MakeConfig();
  cfg.scheduler.admission_control = false;  // every request reaches admission
  cfg.registry.source = &registry;
  cfg.registry.node = 2;  // a live node that holds nothing

  const ServeReport natural = Serve(cfg, trace);
  EXPECT_TRUE(natural.records.empty());
  EXPECT_TRUE(natural.unfinished.empty());
  EXPECT_EQ(natural.unavailable.size(), trace.requests.size());
  ExpectLedgerCloses(natural, trace, "natural run");

  for (double halt : {30.0, 1e12}) {
    const ServeReport halted = ServeUntil(cfg, trace, halt);
    const std::string where = "halt " + std::to_string(halt);
    EXPECT_TRUE(halted.records.empty()) << where;
    EXPECT_TRUE(halted.unavailable.empty()) << where;
    EXPECT_EQ(halted.unfinished.size(), trace.requests.size()) << where;
    ExpectLedgerCloses(halted, trace, where);
  }
}

// A live engine retries what it parked once the registry tells it that a
// holder came back.
TEST_P(ServeLoopTest, ParkedRequestRunsAfterHolderRecovers) {
  const Trace trace = MakeTrace();
  RegistryConfig rc;
  rc.enabled = true;  // one full copy per artifact on its primary node
  ArtifactRegistry registry(rc, trace.n_models, /*n_nodes=*/2);
  const TraceRequest& req = trace.requests.front();
  const int holder = registry.PrimaryHolder(req.model_id, 0);
  registry.SetNodeLive(holder, false);
  EngineConfig cfg = MakeConfig();
  cfg.scheduler.admission_control = false;
  cfg.registry.source = &registry;
  cfg.registry.node = 2;  // a live node that holds nothing

  const std::unique_ptr<ServeLoop> loop =
      GetParam().make(cfg)->Start(trace.n_models, trace.n_tenants);
  loop->Offer(req);
  const double recover_t = req.arrival_s + 10.0;
  loop->RunUntil(recover_t);
  EXPECT_TRUE(loop->records().empty());
  EXPECT_FALSE(loop->Busy()) << "a parked request waits for the registry";
  EXPECT_FALSE(loop->Drained());

  registry.SetNodeLive(holder, true);
  loop->OnRegistryChange(recover_t);
  EXPECT_TRUE(loop->Busy());
  loop->RunUntil(kInf);
  const ServeReport r = loop->Finish();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].id, req.id);
  EXPECT_GT(r.records[0].start_s, recover_t);
  EXPECT_TRUE(r.unavailable.empty());
  EXPECT_TRUE(r.unfinished.empty());
}

TEST_P(ServeLoopTest, OnlyPreemptingPoliciesCountPreemptions) {
  const ServeReport r = Serve(MakeConfig(), MakeTrace());
  EXPECT_EQ(r.metrics.Find("engine.preemptions") != nullptr, GetParam().preempts);
  if (GetParam().preempts) {
    EXPECT_GT(r.metrics.Value("engine.preemptions"), 0.0);
  }
  EXPECT_NE(r.metrics.Find("engine.rounds"), nullptr);
}

// FNV-1a over every field of every event, in stream order.
uint64_t HashEvents(const std::vector<TraceEvent>& events) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  };
  for (const TraceEvent& e : events) {
    const int ints[] = {static_cast<int>(e.type), e.request_id, e.model_id, e.tenant_id,
                        static_cast<int>(e.slo),  e.gpu,        static_cast<int>(e.channel),
                        e.aux};
    const double doubles[] = {e.ts_s, e.dur_s, e.bytes};
    mix(ints, sizeof ints);
    mix(doubles, sizeof doubles);
  }
  return h;
}

void ExpectSameRun(const ServeReport& got, const ServeReport& want, const std::string& where) {
  ASSERT_EQ(got.records.size(), want.records.size()) << where;
  for (size_t i = 0; i < want.records.size(); ++i) {
    const RequestRecord& a = got.records[i];
    const RequestRecord& b = want.records[i];
    EXPECT_EQ(a.id, b.id) << where << " record " << i;
    EXPECT_EQ(a.arrival_s, b.arrival_s) << where << " record " << i;
    EXPECT_EQ(a.sched_attempt_s, b.sched_attempt_s) << where << " record " << i;
    EXPECT_EQ(a.start_s, b.start_s) << where << " record " << i;
    EXPECT_EQ(a.first_token_s, b.first_token_s) << where << " record " << i;
    EXPECT_EQ(a.finish_s, b.finish_s) << where << " record " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << where << " record " << i;
  }
  EXPECT_EQ(got.makespan_s, want.makespan_s) << where;
  EXPECT_EQ(got.metrics.Value("engine.rounds"), want.metrics.Value("engine.rounds"))
      << where << ": a pause must never add a round";
  EXPECT_EQ(got.metrics.ToJsonLine(), want.metrics.ToJsonLine()) << where;
  ASSERT_EQ(got.timeline.size(), want.timeline.size()) << where;
  for (size_t k = 0; k < want.timeline.size(); ++k) {
    EXPECT_EQ(got.timeline[k].ToJsonLine(), want.timeline[k].ToJsonLine())
        << where << " snapshot " << k;
  }
  EXPECT_EQ(got.trace_events.size(), want.trace_events.size()) << where;
  EXPECT_EQ(HashEvents(got.trace_events), HashEvents(want.trace_events)) << where;
  EXPECT_EQ(got.unavailable.size(), want.unavailable.size()) << where;
  EXPECT_TRUE(got.unfinished.empty()) << where;
}

// The executable spec of RunUntil: k ∈ {1..8} seeded cut points (half of them
// exactly at an arrival, where an idle loop must pause inside its idle step)
// plus k more in the middle of a batch round of the uncut run (most rounds are
// quiet, so these cut quiet stretches) and k more exactly at the end of one
// deep inside a stretch, where the clock reaches the target with no round cut
// and the loop must stop there, also past the first chunk it priced, arrivals
// offered only up to each cut, then the rest and RunUntil(inf).
TEST_P(ServeLoopTest, ChunkedRunEqualsUncutRun) {
  const Trace trace = MakeTrace();
  RegistryConfig rc;
  rc.enabled = true;
  ASSERT_TRUE(ParseRedundancyPolicy("erasure(4,2)", rc.redundancy));
  ArtifactRegistry registry(rc, trace.n_models, /*n_nodes=*/6);
  registry.SetNodeLive(1, false);  // degraded reads through parity
  EngineConfig cfg = MakeConfig();
  cfg.prefetch.enabled = true;
  cfg.prefetch.warm_hints = {3, 1, 4};
  cfg.registry.source = &registry;
  cfg.registry.node = 0;
  cfg.metrics.interval_s = 2.5;
  cfg.tracing.enabled = true;
  const std::unique_ptr<ServingEngine> engine = GetParam().make(cfg);
  const ServeReport uncut = engine->Serve(trace);
  ASSERT_GT(uncut.TotalShed(), 0);
  ASSERT_GT(uncut.metrics.Value("registry.reads.degraded"), 0.0);
  ASSERT_GT(uncut.PrefetchIssued(), 0);
  if (GetParam().preempts) {
    ASSERT_GT(uncut.metrics.Value("engine.preemptions"), 0.0);
  }

  // Round ends deep inside a decode-only stretch: after more than one chunk of
  // rounds with no other event between them. DeltaZip's arrivals come too
  // often here for such stretches, so there any round end will do.
  std::vector<double> mid_round;
  std::vector<double> round_end;
  std::vector<double> deep_round_end;
  int rounds_in_a_row = 0;
  for (const TraceEvent& e : uncut.trace_events) {
    if (e.type != TraceEventType::kBatchRound) {
      rounds_in_a_row = 0;
      continue;
    }
    mid_round.push_back(e.ts_s + 0.5 * e.dur_s);
    round_end.push_back(e.ts_s + e.dur_s);
    if (++rounds_in_a_row > ServeLoop::kChunkRounds) {
      deep_round_end.push_back(round_end.back());
    }
  }
  ASSERT_FALSE(mid_round.empty());
  if (!deep_round_end.empty()) {
    round_end = deep_round_end;
  }
  Rng rng(77);
  Rng mid_rng(78);
  Rng end_rng(79);
  for (int k = 1; k <= 8; ++k) {
    std::vector<double> cuts;
    for (int c = 0; c < k; ++c) {
      cuts.push_back(c % 2 == 0 ? rng.Uniform(0.0, uncut.makespan_s)
                                : trace.requests[rng.NextBelow(trace.requests.size())]
                                      .arrival_s);
      cuts.push_back(mid_round[mid_rng.NextBelow(mid_round.size())]);
      cuts.push_back(round_end[end_rng.NextBelow(round_end.size())]);
    }
    std::sort(cuts.begin(), cuts.end());
    const std::unique_ptr<ServeLoop> loop = engine->Start(trace.n_models, trace.n_tenants);
    size_t offered = 0;
    for (double cut : cuts) {
      while (offered < trace.requests.size() && trace.requests[offered].arrival_s < cut) {
        loop->Offer(trace.requests[offered++]);
      }
      loop->RunUntil(cut);
    }
    while (offered < trace.requests.size()) {
      loop->Offer(trace.requests[offered++]);
    }
    loop->RunUntil(kInf);
    ExpectSameRun(loop->Finish(), uncut, "k=" + std::to_string(k));
  }
}

// ---- quiet-stretch boundaries ----------------------------------------------
// Each test puts one event that changes admission inside a long decode-only
// stretch (a few requests decoding 8000 tokens, from ~2 s under DeltaZip and
// from ~33 s, after the first full-model swap, under vLLM-SCB) and pins the
// run: its records, engine.rounds and traced event stream. The deltazip and
// vllm_scb pins were recorded before quiet rounds existed, when every round
// ran in full; the deltazip_lora pins and the timeline test's when every
// quiet round still ran one at a time. vLLM-SCB's demand swap stalls the
// worker, so there the load lands at the end of a stall.

TraceRequest StretchReq(int id, double arrival_s, int model, int output_tokens,
                        SloClass slo = SloClass::kStandard) {
  TraceRequest r;
  r.id = id;
  r.model_id = model;
  r.slo = slo;
  r.arrival_s = arrival_s;
  r.prompt_tokens = 200;
  r.output_tokens = output_tokens;
  return r;
}

Trace StretchTrace(std::vector<TraceRequest> requests) {
  Trace trace;
  trace.requests = std::move(requests);
  trace.n_models = 8;
  return trace;
}

// FNV-1a over every record's id, times and preemptions.
uint64_t HashRecords(const std::vector<RequestRecord>& records) {
  uint64_t h = 1469598103934665603ull;
  for (const RequestRecord& r : records) {
    const double fields[] = {static_cast<double>(r.id), r.sched_attempt_s, r.start_s,
                             r.first_token_s, r.finish_s,
                             static_cast<double>(r.preemptions)};
    const unsigned char* b = reinterpret_cast<const unsigned char*>(fields);
    for (size_t i = 0; i < sizeof fields; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
  return h;
}

// What a boundary test pins, per engine case (deltazip, vllm_scb,
// deltazip_lora).
struct RunPin {
  uint64_t records;
  double rounds;
  uint64_t events;
};

size_t PinIndex(const EngineCase& engine) {
  const std::string name = engine.name;
  return name == "deltazip" ? 0 : name == "vllm_scb" ? 1 : 2;
}

void ExpectPinned(const ServeReport& r, const RunPin (&pins)[3], const EngineCase& engine) {
  const RunPin& want = pins[PinIndex(engine)];
  EXPECT_TRUE(r.unfinished.empty());
  EXPECT_EQ(HashRecords(r.records), want.records);
  EXPECT_EQ(r.metrics.Value("engine.rounds"), want.rounds);
  EXPECT_EQ(HashEvents(r.trace_events), want.events);
}

class QuietStretchTest : public ServeLoopTest {
 protected:
  EngineConfig StretchConfig() const {
    EngineConfig cfg;
    cfg.exec.shape = ModelShape::Llama13B();
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.tp = 4;
    cfg.exec.lora_rank = GetParam().lora_rank;
    cfg.tracing.enabled = true;
    return cfg;
  }
};

TEST_P(QuietStretchTest, ArrivalInsideStretch) {
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 0.0, 0, 8000),
                                    StretchReq(2, 45.3, 0, 300)});
  const RunPin pins[3] = {{4353902977092685538ull, 8001, 12068258567396403433ull},
                          {11738898002277910584ull, 8001, 17413689218276672937ull},
                          {10578157705521116175ull, 8001, 16032059968866231879ull}};
  ExpectPinned(Serve(StretchConfig(), trace), pins, GetParam());
}

TEST_P(QuietStretchTest, DemandLoadLandsInsideStretch) {
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 45.3, 1, 300)});
  const RunPin pins[3] = {{15821965563197827250ull, 8001, 16822864450988883220ull},
                          {15116775436413834116ull, 8002, 16181814253586691170ull},
                          {14061942563650596143ull, 8001, 3195149244261171076ull}};
  ExpectPinned(Serve(StretchConfig(), trace), pins, GetParam());
}

TEST_P(QuietStretchTest, PrefetchChannelIdlesInsideStretch) {
  EngineConfig cfg = StretchConfig();
  cfg.prefetch.enabled = true;
  cfg.prefetch.staging_slots = 4;
  cfg.prefetch.warm_hints = {1, 2, 3, 4};
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 100.0, 3, 300)});
  const ServeReport r = Serve(cfg, trace);
  EXPECT_GT(r.PrefetchIssued(), 1);
  const RunPin pins[3] = {{18359001093457390364ull, 8302, 11977757758853927042ull},
                          {11385939296039926976ull, 8304, 11615430471988507615ull},
                          {2248973717191941647ull, 8302, 13479721156959324228ull}};
  ExpectPinned(r, pins, GetParam());
}

TEST_P(QuietStretchTest, ShedDeadlineInsideStretch) {
  EngineConfig cfg = StretchConfig();
  cfg.max_batch = 1;  // the late requests wait behind the long one
  cfg.scheduler.admission_control = true;
  cfg.scheduler.slo.per_class[static_cast<int>(SloClass::kInteractive)] = {1.0, 5.0};
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000),
                                    StretchReq(1, 45.3, 0, 200, SloClass::kInteractive),
                                    StretchReq(2, 46.0, 0, 100, SloClass::kBatch)});
  const ServeReport r = Serve(cfg, trace);
  EXPECT_EQ(r.TotalShed(), 1);
  const RunPin pins[3] = {{3085124775665637620ull, 8101, 2159459557646752672ull},
                          {16380669367507599925ull, 8101, 14497976452533803776ull},
                          {16693828147092962626ull, 8101, 9989167673919759987ull}};
  ExpectPinned(r, pins, GetParam());
}

// Cuts inside the stretch, a slow-node window between two of them, and a
// registry change at another that brings back the holder a late request
// parked on: the loop resumes each time with a full round or a quiet one, and
// the pinned run is the one in which every round ran in full.
TEST_P(QuietStretchTest, CutsWithSpeedAndRegistryChanges) {
  RegistryConfig rc;
  rc.enabled = true;  // one full copy per artifact on its primary node
  ArtifactRegistry registry(rc, /*n_artifacts=*/8, /*n_nodes=*/2);
  int late_model = 1;
  while (registry.PrimaryHolder(late_model, 0) == registry.PrimaryHolder(0, 0)) {
    ++late_model;
  }
  const int late_holder = registry.PrimaryHolder(late_model, 0);
  registry.SetNodeLive(late_holder, false);
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 0.0, 0, 8000),
                                    StretchReq(2, 40.0, late_model, 500)});
  EngineConfig cfg = StretchConfig();
  cfg.registry.source = &registry;
  cfg.registry.node = 2;  // a live node that holds nothing
  const std::unique_ptr<ServeLoop> loop =
      GetParam().make(cfg)->Start(trace.n_models, trace.n_tenants);
  size_t offered = 0;
  const auto run_until = [&](double cut) {
    while (offered < trace.requests.size() && trace.requests[offered].arrival_s < cut) {
      loop->Offer(trace.requests[offered++]);
    }
    loop->RunUntil(cut);
  };
  run_until(10.01);
  loop->SetSpeed(0.5);
  run_until(37.3);
  loop->SetSpeed(1.0);
  run_until(45.5);
  ASSERT_FALSE(loop->Drained()) << "the late request waits, parked";
  registry.SetNodeLive(late_holder, true);
  loop->OnRegistryChange(45.5);
  run_until(51.7);
  run_until(kInf);
  const ServeReport r = loop->Finish();
  const auto late = std::find_if(r.records.begin(), r.records.end(),
                                 [](const RequestRecord& rec) { return rec.id == 2; });
  ASSERT_NE(late, r.records.end());
  EXPECT_GT(late->start_s, 45.5);
  const RunPin pins[3] = {{8340475401582373217ull, 8001, 12066987130214054822ull},
                          {17265510362788622873ull, 8002, 16159657673059253798ull},
                          {4583006948139697773ull, 8001, 3985946964662340805ull}};
  ExpectPinned(r, pins, GetParam());
}

// A cut exactly at a round's end must pause where a cut inside that round
// does: at that end, before the next round starts. A speed change at the pause
// shows any round run past it. The rounds lie deep in the stretch, around a
// whole number of chunks into it.
TEST_P(QuietStretchTest, CutAtRoundEndPausesLikeCutInsideIt) {
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 0.0, 0, 8000)});
  const std::unique_ptr<ServingEngine> engine = GetParam().make(StretchConfig());
  const ServeReport uncut = engine->Serve(trace);
  std::vector<TraceEvent> rounds;
  for (const TraceEvent& e : uncut.trace_events) {
    if (e.type == TraceEventType::kBatchRound) {
      rounds.push_back(e);
    }
  }
  ASSERT_GT(rounds.size(), 4000u);
  const auto run = [&](double cut) {
    const std::unique_ptr<ServeLoop> loop = engine->Start(trace.n_models, trace.n_tenants);
    for (const TraceRequest& req : trace.requests) {
      loop->Offer(req);
    }
    loop->RunUntil(cut);
    loop->SetSpeed(0.5);
    loop->RunUntil(kInf);
    return loop->Finish();
  };
  for (const size_t i : {size_t{3000}, size_t{3063}, size_t{3064}, size_t{3065}}) {
    const TraceEvent& round = rounds[i];
    ExpectSameRun(run(round.ts_s + round.dur_s), run(round.ts_s + 0.5 * round.dur_s),
                  "round " + std::to_string(i));
  }
}

// FNV-1a over every timeline snapshot's JSON line.
uint64_t HashTimeline(const std::vector<MetricsSnapshot>& timeline) {
  uint64_t h = 1469598103934665603ull;
  for (const MetricsSnapshot& snap : timeline) {
    for (const char c : snap.ToJsonLine() + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

// A snapshot every simulated second: each falls due inside the stretch, and
// must count every round before it and none after.
TEST_P(QuietStretchTest, TimelineSnapshotsInsideStretch) {
  EngineConfig cfg = StretchConfig();
  cfg.metrics.interval_s = 1.0;
  const Trace trace = StretchTrace({StretchReq(0, 0.0, 0, 8000), StretchReq(1, 0.0, 0, 8000)});
  const ServeReport r = Serve(cfg, trace);
  EXPECT_GT(r.timeline.size(), 60u);
  const RunPin pins[3] = {{12558488511924969338ull, 8001, 8320776893676980501ull},
                          {13842292428622998330ull, 8001, 748793897634221052ull},
                          {5146104394399626622ull, 8001, 11496139405161274666ull}};
  ExpectPinned(r, pins, GetParam());
  const uint64_t timeline_pins[3] = {7782312011064919242ull, 6260064167444417616ull,
                                     14938807053786870400ull};
  EXPECT_EQ(HashTimeline(r.timeline), timeline_pins[PinIndex(GetParam())]);
}

// ---- one round's event order -------------------------------------------------
// A round advances the whole batch before any request completes: every
// first-token event of a round precedes every request.done it records.

TEST_P(ServeLoopTest, FirstTokensPrecedeTheRoundsCompletions) {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.exec.lora_rank = GetParam().lora_rank;
  cfg.tracing.enabled = true;
  // Both are dispatched and prefill in one round; request 0, first in the
  // batch, completes with the token its prefill emits.
  const ServeReport r = Serve(cfg, StretchTrace({StretchReq(0, 0.0, 0, /*output_tokens=*/1),
                                                 StretchReq(1, 0.0, 0, 50)}));
  ASSERT_EQ(r.records.size(), 2u);
  const auto find = [&r](TraceEventType type, int id) {
    return std::find_if(r.trace_events.begin(), r.trace_events.end(),
                        [type, id](const TraceEvent& e) {
                          return e.type == type && e.request_id == id;
                        });
  };
  const auto first_token = find(TraceEventType::kRequestFirstToken, 1);
  const auto done = find(TraceEventType::kRequestDone, 0);
  ASSERT_NE(first_token, r.trace_events.end());
  ASSERT_NE(done, r.trace_events.end());
  EXPECT_EQ(first_token->ts_s, done->ts_s) << "not one round";
  EXPECT_LT(first_token - r.trace_events.begin(), done - r.trace_events.begin());
}

// Removing a request a count does not hold would leave the count negative and
// its variant listed apart from it.
TEST(VariantCountsTest, RemoveOfAnAbsentRequestDies) {
  VariantCounts counts(3);
  counts.Add(1);
  counts.Remove(1);
  EXPECT_DEATH(counts.Remove(1), "DZ_CHECK");
  EXPECT_DEATH(counts.Remove(2), "DZ_CHECK");
}

// ---- the batch ledger --------------------------------------------------------
// Rounds are priced from ServeLoop::batch(), which the loop keeps as running_
// changes. After every RunUntil call of a run stepped in increments shorter
// than one iteration, the ledger must equal a recount of the running batch
// (and the running set and queued counts theirs, parking included),
// and the stepped run must equal the unstepped one bit for bit. The runs mix
// parent-finish and class preemption (with KV restores), a prefill budget
// that prompts queue behind and some prompts exceed, and requests parked on a
// dead registry holder until it comes back.

// Empty when loop.batch() equals a recount of loop.running(), else the first
// difference.
std::string LedgerMismatch(const ServeLoop& loop) {
  const size_t n = static_cast<size_t>(loop.n_models());
  std::vector<int> count(n, 0);
  std::vector<long long> ctx(n, 0);
  int total = 0;
  long long ctx_total = 0;
  for (const int h : loop.running()) {
    const RunningReq& r = loop.req(h);
    if (r.prefilled) {
      const size_t v = static_cast<size_t>(r.state.req.model_id);
      const long long tokens = r.state.req.prompt_tokens + r.state.decoded;
      ++count[v];
      ctx[v] += tokens;
      ++total;
      ctx_total += tokens;
    }
  }
  std::vector<int> ids;
  for (size_t v = 0; v < n; ++v) {
    if (count[v] > 0) {
      ids.push_back(static_cast<int>(v));
    }
  }
  const BatchLedger& b = loop.batch();
  if (b.total != total) {
    return "total " + std::to_string(b.total) + " != " + std::to_string(total);
  }
  if (b.ctx_total != ctx_total) {
    return "ctx_total " + std::to_string(b.ctx_total) + " != " + std::to_string(ctx_total);
  }
  if (b.count != count) {
    return "per-variant counts differ";
  }
  if (b.ctx != ctx) {
    return "per-variant context tokens differ";
  }
  if (b.ids != ids) {
    return "variant ids differ";
  }
  return "";
}

class BatchLedgerTest : public ServeLoopTest {};

TEST_P(BatchLedgerTest, BatchLedgerMatchesRecount) {
  const EngineCase& engine_case = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TraceConfig tc;
    tc.n_models = 12;
    tc.arrival_rate = engine_case.arrival_rate;
    tc.duration_s = 20.0;
    tc.dist = PopularityDist::kZipf;
    tc.zipf_alpha = 1.0;
    tc.prompt_mean_tokens = 300.0;
    tc.prompt_max_tokens = 1200;  // above the budget: prefills alone
    tc.output_mean_tokens = 60.0;
    tc.output_max_tokens = 200;
    tc.seed = 4000 + seed;
    tc.tenants.n_tenants = 3;
    tc.tenants.interactive_frac = 0.3;
    tc.tenants.batch_frac = 0.4;
    const Trace trace = GenerateTrace(tc);
    EngineConfig cfg;
    cfg.exec.shape = ModelShape::Llama13B();
    cfg.exec.gpu = GpuSpec::A800();
    cfg.exec.tp = 4;
    cfg.exec.lora_rank = engine_case.lora_rank;
    cfg.max_prefill_tokens = 512;
    cfg.scheduler.policy = SchedPolicy::kPriority;
    cfg.scheduler.class_preemption = true;
    cfg.tracing.enabled = true;
    ASSERT_TRUE(std::any_of(trace.requests.begin(), trace.requests.end(),
                            [&cfg](const TraceRequest& r) {
                              return r.prompt_tokens > cfg.max_prefill_tokens;
                            }));

    // Without a registry the stepped run must equal Serve(trace); with one,
    // the node holding some artifacts is down until `recover_t`, where the
    // reference run pauses for the same registry change.
    for (const bool registry_outage : {false, true}) {
      RegistryConfig rc;
      rc.enabled = true;  // one full copy per artifact on its primary node
      ArtifactRegistry registry(rc, trace.n_models, /*n_nodes=*/2);
      const double recover_t = 6.0;
      if (registry_outage) {
        cfg.registry.source = &registry;
        cfg.registry.node = 2;  // a live node that holds nothing
      }
      const std::unique_ptr<ServingEngine> engine = engine_case.make(cfg);
      const auto run = [&](const std::vector<double>& cuts) {
        registry.SetNodeLive(1, false);
        const std::unique_ptr<ServeLoop> loop =
            engine->Start(trace.n_models, trace.n_tenants);
        size_t offered = 0;
        bool recovered = false;
        for (double cut : cuts) {
          while (offered < trace.requests.size() && trace.requests[offered].arrival_s < cut) {
            loop->Offer(trace.requests[offered++]);
          }
          loop->RunUntil(cut);
          bool stale = false;
          std::string mismatch = LedgerMismatch(*loop);
          if (mismatch.empty()) {
            mismatch = KeptStateMismatch(*loop, cfg.scheduler, &stale);
          }
          if (!mismatch.empty()) {
            ADD_FAILURE() << "seed " << seed << " t=" << cut << ": " << mismatch;
            break;  // the first difference says enough
          }
          if (registry_outage && !recovered && cut >= recover_t) {
            registry.SetNodeLive(1, true);
            loop->OnRegistryChange(cut);
            recovered = true;
          }
        }
        while (offered < trace.requests.size()) {
          loop->Offer(trace.requests[offered++]);
        }
        loop->RunUntil(kInf);
        EXPECT_EQ(LedgerMismatch(*loop), "") << "seed " << seed << " end";
        return loop->Finish();
      };
      // Cuts up to `horizon`, spaced closer than any iteration is long.
      Rng rng(seed);
      std::vector<double> cuts = {0.0};
      const auto extend_cuts = [&](double horizon) {
        while (cuts.back() < horizon) {
          cuts.push_back(cuts.back() + rng.Uniform(0.0005, 0.004));
        }
      };
      extend_cuts(recover_t);
      const ServeReport want = registry_outage ? run({cuts.back()}) : engine->Serve(trace);
      if (registry_outage) {
        EXPECT_GT(want.metrics.Value("registry.unavailable"), 0.0) << "nothing parked";
      } else if (engine_case.preempts) {
        EXPECT_GT(want.metrics.Value("engine.preemptions"), 0.0);
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
      extend_cuts(want.makespan_s);
      ExpectSameRun(run(cuts), want,
                    "seed " + std::to_string(seed) +
                        (registry_outage ? " registry outage" : " no registry"));
      if (::testing::Test::HasFailure()) {
        return;  // one failing run says enough
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BatchLedgerTest,
    ::testing::Values(EngineCase{"deltazip", &MakeDeltaZipEngine, 0, 20.0, true},
                      EngineCase{"deltazip_lora", &MakeDeltaZipEngine, 16, 20.0, true},
                      EngineCase{"vllm_scb", &MakeVllmScbEngine, 0, 1.0, false}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Engines, QuietStretchTest,
    ::testing::Values(EngineCase{"deltazip", &MakeDeltaZipEngine, 0, 20.0, true},
                      EngineCase{"vllm_scb", &MakeVllmScbEngine, 0, 1.0, false},
                      EngineCase{"deltazip_lora", &MakeDeltaZipEngine, 16, 20.0, true}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Engines, ServeLoopTest,
    ::testing::Values(EngineCase{"deltazip", &MakeDeltaZipEngine, 0, 20.0, true},
                      EngineCase{"vllm_scb", &MakeVllmScbEngine, 0, 1.0, false}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

}  // namespace
}  // namespace dz
