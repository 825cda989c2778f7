// Placer's cached ring walks against the reference walk (reference_placer.h):
// seeded random memberships read off one ring over ids 0..12, both affinity
// policies, several bounded-load factors and hot-key streams that force
// spills. Every assignment, every backlog and every ring home must match the
// reference's per-membership ring bit for bit, also when one placer switches
// membership mid-stream as the elastic cluster's SyncPlacer does.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/placement.h"
#include "src/util/rng.h"
#include "tests/cluster/reference_placer.h"

namespace dz {
namespace {

// A random strictly ascending subset of [0, 12], never empty.
std::vector<int> RandomMembership(Rng& rng) {
  std::vector<int> ids;
  while (ids.empty()) {
    for (int id = 0; id <= 12; ++id) {
      if (rng.NextBelow(2) == 0) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

// Requests with increasing arrivals over 64 variants and 16 tenants. With
// `hot`, most of them share one variant and one tenant, which outgrows its home
// and spills along the walk.
std::vector<TraceRequest> RandomStream(Rng& rng, int n, bool hot) {
  std::vector<TraceRequest> reqs;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    TraceRequest r;
    r.id = i;
    const bool on_hot = hot && rng.NextBelow(10) < 8;
    r.model_id = on_hot ? 7 : static_cast<int>(rng.NextBelow(64));
    r.tenant_id = on_hot ? 3 : static_cast<int>(rng.NextBelow(16));
    // Same-instant arrivals now and then: no drain between them.
    t += rng.NextBelow(4) == 0 ? 0.0 : rng.Exponential(5.0);
    r.arrival_s = t;
    r.prompt_tokens = 1 + static_cast<int>(rng.NextBelow(2000));
    r.output_tokens = 1 + static_cast<int>(rng.NextBelow(500));
    reqs.push_back(r);
  }
  return reqs;
}

// Runs `reqs` through both placers; returns how many requests left the ring
// home of their key (spilled along the walk).
int ExpectSamePlacement(const PlacerConfig& cfg, Placer& placer,
                        testing_ref::ReferencePlacer& ref,
                        const std::vector<TraceRequest>& reqs, const std::string& where) {
  int spilled = 0;
  for (const TraceRequest& r : reqs) {
    const int gpu = placer.Assign(r);
    EXPECT_EQ(gpu, ref.Assign(r)) << where << " request " << r.id;
    const int home = cfg.policy == PlacementPolicy::kDeltaAffinity
                         ? ref.HomeGpu(r.model_id)
                         : ref.HomeGpuForTenant(r.tenant_id);
    spilled += gpu != home ? 1 : 0;
    EXPECT_EQ(PlacerTestPeer::Backlogs(placer).size(), ref.backlogs().size()) << where;
    for (size_t s = 0; s < ref.backlogs().size(); ++s) {
      // Bit for bit: the sums run in the same order.
      EXPECT_EQ(PlacerTestPeer::Backlogs(placer)[s], ref.backlogs()[s])
          << where << " request " << r.id << " slot " << s;
    }
    if (::testing::Test::HasFailure()) {
      return spilled;  // one mismatch is enough to read
    }
  }
  return spilled;
}

TEST(PlacerReferenceTest, CachedWalksMatchTheReferenceWalk) {
  Rng rng(20261018);
  int hot_spills = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const std::vector<int> ids = RandomMembership(rng);
    const bool hot = trial % 2 == 0;
    const std::vector<TraceRequest> reqs = RandomStream(rng, 600, hot);
    for (PlacementPolicy policy :
         {PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity}) {
      for (double c : {1.0, 1.25, 2.0}) {
        PlacerConfig cfg;
        cfg.policy = policy;
        cfg.bounded_load_factor = c;
        cfg.drain_tokens_per_s = trial % 3 == 0 ? 0.0 : 2000.0;
        cfg.n_gpus = 13;  // the ring covers ids 0..12
        Placer placer(cfg);
        placer.SetMembers(ids);
        testing_ref::ReferencePlacer ref(cfg, ids);
        const std::string where = "trial " + std::to_string(trial) + " " +
                                  PlacementPolicyName(policy) + " c=" + std::to_string(c);
        const int spilled = ExpectSamePlacement(cfg, placer, ref, reqs, where);
        if (::testing::Test::HasFailure()) {
          return;
        }
        hot_spills += hot ? spilled : 0;
      }
    }
  }
  // The hot streams walked past their homes, so the cached walk's tail ran.
  EXPECT_GT(hot_spills, 0);
}

// Ring homes among the members: Placer::HomeGpu against the reference ring.
void ExpectSameHomes(const Placer& placer, const testing_ref::ReferencePlacer& ref,
                     const std::string& where) {
  for (int model = 0; model < 64; ++model) {
    EXPECT_EQ(placer.HomeGpu(model), ref.HomeGpu(model)) << where << " model " << model;
  }
}

// One placer over a ring of ids 0..12 switches membership every few hundred
// requests; each membership must place exactly as a fresh reference placer
// over that membership's own ring. Some placers start over a smaller ring, so
// a membership past it grows the ring mid-stream.
TEST(PlacerReferenceTest, MembershipSwitchesMatchFreshReferencePlacers) {
  Rng rng(20261019);
  int hot_spills = 0;
  int grown = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const bool hot = trial % 2 == 0;
    const int ring_ids = trial % 3 == 0 ? 1 + static_cast<int>(rng.NextBelow(12)) : 13;
    std::vector<std::vector<int>> memberships;
    std::vector<std::vector<TraceRequest>> streams;
    for (int epoch = 0; epoch < 6; ++epoch) {
      memberships.push_back(RandomMembership(rng));
      grown += memberships.back().back() >= ring_ids ? 1 : 0;
      streams.push_back(RandomStream(rng, 100 + static_cast<int>(rng.NextBelow(300)), hot));
    }
    for (PlacementPolicy policy :
         {PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity}) {
      for (double c : {1.0, 1.25, 2.0}) {
        PlacerConfig cfg;
        cfg.n_gpus = ring_ids;
        cfg.policy = policy;
        cfg.bounded_load_factor = c;
        cfg.drain_tokens_per_s = trial % 4 == 1 ? 0.0 : 2000.0;
        Placer placer(cfg);
        for (size_t epoch = 0; epoch < memberships.size(); ++epoch) {
          const std::vector<int>& ids = memberships[epoch];
          placer.SetMembers(ids);
          testing_ref::ReferencePlacer ref(cfg, ids);
          const std::string where = "trial " + std::to_string(trial) + " epoch " +
                                    std::to_string(epoch) + " " +
                                    PlacementPolicyName(policy) + " c=" + std::to_string(c);
          EXPECT_EQ(placer.worker_ids(), ids) << where;
          if (policy == PlacementPolicy::kDeltaAffinity) {
            ExpectSameHomes(placer, ref, where);
          }
          const int spilled = ExpectSamePlacement(cfg, placer, ref, streams[epoch], where);
          if (::testing::Test::HasFailure()) {
            return;
          }
          hot_spills += hot ? spilled : 0;
        }
      }
    }
  }
  EXPECT_GT(hot_spills, 0);
  // Some membership outgrew its placer's first ring.
  EXPECT_GT(grown, 0);
}

TEST(PlacerReferenceTest, StaticConstructorMatchesTheReference) {
  Rng rng(7);
  for (int n : {1, 2, 5, 8}) {
    for (PlacementPolicy policy :
         {PlacementPolicy::kDeltaAffinity, PlacementPolicy::kTenantAffinity}) {
      PlacerConfig cfg;
      cfg.n_gpus = n;
      cfg.policy = policy;
      cfg.drain_tokens_per_s = 500.0;
      Placer placer(cfg);
      testing_ref::ReferencePlacer ref(cfg);
      ExpectSamePlacement(cfg, placer, ref, RandomStream(rng, 400, /*hot=*/true),
                          "n=" + std::to_string(n));
      if (policy == PlacementPolicy::kDeltaAffinity) {
        ExpectSameHomes(placer, ref, "n=" + std::to_string(n));
      }
    }
  }
}

}  // namespace
}  // namespace dz
