// Lazy-vs-exhaustive selection equivalence: the CELF-style LazySelector
// must reproduce the exhaustive scan's picks bit-for-bit — including tie
// cases and the impression-threshold fallback — and must do so with
// measurably fewer incidence-list walks.
#include "core/lazy_selector.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/solver.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

/// Random incidence lists over a small trajectory universe. Small sizes
/// and repeated draws produce plenty of subset/duplicate structure, i.e.
/// zero-gain candidates and exact selection-rule ties.
std::vector<std::vector<model::TrajectoryId>> RandomIncidence(
    int32_t num_billboards, int32_t num_trajectories, common::Rng* rng) {
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (model::TrajectoryId t = 0; t < num_trajectories; ++t) {
      if (rng->Bernoulli(0.3)) list.push_back(t);
    }
  }
  return covered;
}

std::vector<market::Advertiser> RandomAdvertisers(int32_t count,
                                                  int64_t max_demand,
                                                  common::Rng* rng) {
  std::vector<market::Advertiser> ads;
  for (int32_t a = 0; a < count; ++a) {
    ads.push_back(Adv(a, rng->UniformInt(1, max_demand),
                      static_cast<double>(rng->UniformInt(1, 50))));
  }
  return ads;
}

void ExpectIdenticalDeployments(const Assignment& lazy,
                                const Assignment& exhaustive) {
  ASSERT_EQ(lazy.num_advertisers(), exhaustive.num_advertisers());
  for (int32_t a = 0; a < lazy.num_advertisers(); ++a) {
    // Identical pick sequences imply identical (ordered) per-advertiser
    // lists, so compare the raw vectors, not sorted copies.
    EXPECT_EQ(lazy.BillboardsOf(a), exhaustive.BillboardsOf(a))
        << "advertiser " << a;
    EXPECT_EQ(lazy.InfluenceOf(a), exhaustive.InfluenceOf(a));
  }
  EXPECT_EQ(lazy.TotalRegret(), exhaustive.TotalRegret());  // bitwise
}

TEST(LazySelectorTest, MatchesExhaustiveAcrossRandomInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto index =
        IndexFromIncidence(RandomIncidence(25, 12, &rng), 12, &d);
    auto ads = RandomAdvertisers(5, 15, &rng);
    for (uint16_t threshold : {uint16_t{1}, uint16_t{2}}) {
      for (double gamma : {0.0, 0.5, 1.0}) {
        Assignment lazy(&index, ads, RegretParams{gamma}, threshold);
        Assignment naive(&index, ads, RegretParams{gamma}, threshold);
        BudgetEffectiveGreedy(&lazy, /*lazy_selection=*/true);
        BudgetEffectiveGreedy(&naive, /*lazy_selection=*/false);
        lazy.VerifyInvariants();
        ExpectIdenticalDeployments(lazy, naive);

        Assignment lazy_sync(&index, ads, RegretParams{gamma}, threshold);
        Assignment naive_sync(&index, ads, RegretParams{gamma}, threshold);
        SynchronousGreedy(&lazy_sync, /*lazy_selection=*/true);
        SynchronousGreedy(&naive_sync, /*lazy_selection=*/false);
        lazy_sync.VerifyInvariants();
        ExpectIdenticalDeployments(lazy_sync, naive_sync);
      }
    }
  }
}

TEST(LazySelectorTest, MatchesExhaustiveUnderInterleavedMutations) {
  // One selector living across a random mutation sequence: every epoch
  // invalidation path (own picks, other advertisers' picks, releases
  // re-feeding the free pool, counter shrinks) must leave its answers
  // equal to a fresh exhaustive scan.
  for (uint64_t seed = 100; seed < 110; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto index =
        IndexFromIncidence(RandomIncidence(20, 10, &rng), 10, &d);
    auto ads = RandomAdvertisers(4, 12, &rng);
    Assignment s(&index, ads, RegretParams{0.5});
    LazySelector selector(&s);
    ASSERT_TRUE(selector.lazy_active());
    for (int step = 0; step < 120; ++step) {
      auto a = static_cast<market::AdvertiserId>(
          rng.UniformU64(ads.size()));
      model::BillboardId picked = selector.BestBillboard(a);
      EXPECT_EQ(picked, BestBillboardFor(s, a)) << "step " << step;
      if (picked != model::kInvalidBillboard && rng.Bernoulli(0.8)) {
        s.Assign(picked, a);
      } else if (!s.BillboardsOf(a).empty()) {
        s.Release(s.BillboardsOf(a).front());
      }
    }
  }
}

TEST(LazySelectorTest, CopyFromYoungerDeploymentInvalidatesStamps) {
  // A selector that persists across CopyDeploymentFrom (as BLS's move-4
  // completer does) must not mistake a gain stamped against the old
  // deployment for a current one. Here the incoming counter's epoch is
  // one below the stamp, which a copy that set the slot's epoch to
  // `incoming + 1` would reproduce exactly.
  model::Dataset d;
  // o1 covers trajectory 2 of o0: its gain is 3 next to o0, 4 alone,
  // and 4 is the demand, so o1 satisfies the advertiser on its own.
  auto index = IndexFromIncidence({{0, 1, 2}, {2, 3, 4, 5}}, 6, &d);
  const std::vector<market::Advertiser> ads{Adv(0, 4, 8.0)};
  Assignment s(&index, ads, RegretParams{0.5});
  s.Assign(0, 0);
  LazySelector selector(&s);
  ASSERT_EQ(selector.BestBillboard(0), 1);  // stamps o1's gain 3

  const Assignment younger(&index, ads, RegretParams{0.5});  // empty
  ASSERT_EQ(younger.CounterOf(0).epoch() + 1, s.CounterOf(0).epoch());
  s.CopyDeploymentFrom(younger);
  // From the empty set o1 satisfies the demand outright and wins; with
  // its stale gain of 3 it would lose to o0.
  EXPECT_EQ(BestBillboardFor(s, 0), 1);
  EXPECT_EQ(selector.BestBillboard(0), 1);
}

TEST(LazySelectorTest, ExactTiesResolveIdentically) {
  // Four byte-identical billboards: ratio and gain ratio tie exactly, so
  // both engines must walk the full tie-break chain down to the id.
  model::Dataset d;
  auto index = IndexFromIncidence(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {2}}, 3, &d);
  Assignment s(&index, {Adv(0, 3, 9.0)}, RegretParams{0.5});
  LazySelector selector(&s);
  EXPECT_EQ(selector.BestBillboard(0), BestBillboardFor(s, 0));
  EXPECT_EQ(selector.BestBillboard(0), 0);
  s.Assign(0, 0);
  // Boards 1-3 now have zero gain; only o4 can help.
  EXPECT_EQ(selector.BestBillboard(0), 4);
  EXPECT_EQ(BestBillboardFor(s, 0), 4);
}

TEST(LazySelectorTest, ImpressionThresholdFallsBackToExhaustive) {
  // Threshold 2 breaks gain monotonicity, so the lazy engine must
  // deactivate itself rather than trust cached upper bounds.
  model::Dataset d;
  auto index = IndexFromIncidence({{0, 1}, {0, 1}, {2}}, 3, &d);
  Assignment s(&index, {Adv(0, 2, 4.0)}, RegretParams{0.5},
               /*impression_threshold=*/2);
  LazySelector selector(&s);
  EXPECT_FALSE(selector.lazy_active());
  EXPECT_EQ(selector.BestBillboard(0), BestBillboardFor(s, 0));
}

TEST(LazySelectorTest, SolveIsIdenticalAcrossLazyAndThreadCounts) {
  common::Rng rng(7);
  model::Dataset d;
  auto index = IndexFromIncidence(RandomIncidence(30, 15, &rng), 15, &d);
  auto ads = RandomAdvertisers(6, 20, &rng);

  auto run = [&](bool lazy, int32_t threads, Method method) {
    SolverConfig config;
    config.method = method;
    config.seed = 11;
    config.local_search.restarts = 2;
    config.local_search.lazy_selection = lazy;
    config.local_search.num_threads = threads;
    return Solve(index, ads, config);
  };

  for (Method method : {Method::kGOrder, Method::kGGlobal, Method::kBls}) {
    SolveResult reference = run(true, 1, method);
    for (bool lazy : {true, false}) {
      for (int32_t threads : {1, 4}) {
        SolveResult got = run(lazy, threads, method);
        EXPECT_EQ(got.sets, reference.sets)
            << MethodName(method) << " lazy=" << lazy
            << " threads=" << threads;
        EXPECT_EQ(got.breakdown.total, reference.breakdown.total);
      }
    }
  }
}

TEST(LazySelectorTest, LazyHalvesExactEvaluations) {
  // The acceptance bar of this engine: on a greedy-heavy run the lazy
  // path must do at most half the incidence-list walks of the exhaustive
  // scan (micro_algorithms measures the same counters at bench scale).
  common::Rng rng(3);
  model::Dataset d;
  auto index =
      IndexFromIncidence(RandomIncidence(120, 200, &rng), 200, &d);
  auto ads = RandomAdvertisers(10, 150, &rng);

  auto deltas_of = [&](bool lazy) {
    const int64_t before =
        obs::MetricsRegistry::Global().Snapshot().CounterOf("greedy.deltas");
    Assignment s(&index, ads, RegretParams{0.5});
    BudgetEffectiveGreedy(&s, lazy);
    return obs::MetricsRegistry::Global().Snapshot().CounterOf(
               "greedy.deltas") -
           before;
  };

  const int64_t lazy_deltas = deltas_of(true);
  const int64_t naive_deltas = deltas_of(false);
  EXPECT_GT(lazy_deltas, 0);
  EXPECT_LE(2 * lazy_deltas, naive_deltas)
      << "lazy selection no longer prunes at least half the evaluations";
}

}  // namespace
}  // namespace mroam::core
