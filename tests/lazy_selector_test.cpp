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

// --- Frontier equivalence ------------------------------------------------
//
// The selector answers most picks from its per-advertiser frontier and the
// rest with the pass over the free pool. Every pick must equal the
// exhaustive scan's, and the walks must be the pass's: the recorded
// counts below were taken from a selector that ran the pass on every
// pick, on the same scenarios.

/// Incidence lists with sizes spread over [1, 2 * mean] so that supplies
/// differ board to board.
std::vector<std::vector<model::TrajectoryId>> SpreadIncidence(
    int32_t num_billboards, int32_t num_trajectories, int32_t mean,
    common::Rng* rng) {
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    const auto size = static_cast<int32_t>(rng->UniformInt(1, 2 * mean));
    for (model::TrajectoryId t = 0; t < num_trajectories; ++t) {
      if (rng->UniformInt(1, num_trajectories) <= size) list.push_back(t);
    }
  }
  return covered;
}

/// One selector living across `steps` random picks and mutations on `s`:
/// each pick is checked against the exhaustive scan, then assigned or
/// replaced by another mutation (a foreign pick, a release, releasing a
/// whole least-budget-effective set as SynchronousGreedy's victim rule
/// does, or restoring an earlier deployment through CopyDeploymentFrom).
/// Returns the selector's walks.
int64_t DriveAgainstExhaustive(Assignment* s, uint64_t seed, int steps) {
  common::Rng rng(seed);
  LazySelector selector(s);
  const Assignment snapshot = *s;
  const int32_t n = s->num_advertisers();
  for (int step = 0; step < steps; ++step) {
    const auto a = static_cast<market::AdvertiserId>(rng.UniformU64(n));
    const model::BillboardId picked = selector.BestBillboard(a);
    EXPECT_EQ(picked, BestBillboardFor(*s, a)) << "step " << step;
    const double action = rng.UniformDouble(0.0, 1.0);
    if (picked != model::kInvalidBillboard && action < 0.7) {
      s->Assign(picked, a);
    } else if (action < 0.8 && !s->FreeBillboards().empty()) {
      const auto& free = s->FreeBillboards();
      s->Assign(free[rng.UniformU64(free.size())],
                static_cast<market::AdvertiserId>(rng.UniformU64(n)));
    } else if (action < 0.9) {
      const auto b = static_cast<market::AdvertiserId>(rng.UniformU64(n));
      const auto& set = s->BillboardsOf(b);
      if (!set.empty()) s->Release(set[rng.UniformU64(set.size())]);
    } else if (action < 0.96) {
      market::AdvertiserId victim = market::kNoAdvertiser;
      for (market::AdvertiserId b = 0; b < n; ++b) {
        if (s->IsSatisfied(b) || s->BillboardsOf(b).empty()) continue;
        if (victim == market::kNoAdvertiser ||
            s->advertiser(b).BudgetEffectiveness() <
                s->advertiser(victim).BudgetEffectiveness()) {
          victim = b;
        }
      }
      if (victim != market::kNoAdvertiser) s->ReleaseAll(victim);
    } else {
      s->CopyDeploymentFrom(snapshot);
    }
  }
  return selector.exact_evaluations();
}

TEST(LazySelectorFrontierTest, MatchesExhaustiveWhenPicksCanReachTheDemand) {
  // Demands about one to three boards' supply: most picks could satisfy
  // their advertiser, which the frontier leaves to the pass.
  int64_t walks = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto index = IndexFromIncidence(SpreadIncidence(40, 120, 8, &rng), 120,
                                    &d);
    std::vector<market::Advertiser> ads;
    for (int32_t a = 0; a < 5; ++a) {
      ads.push_back(Adv(a, rng.UniformInt(1, 24),
                        static_cast<double>(rng.UniformInt(1, 60))));
    }
    Assignment s(&index, ads, RegretParams{0.5});
    walks += DriveAgainstExhaustive(&s, seed, 300);
  }
  EXPECT_EQ(walks, 14765);
}

TEST(LazySelectorFrontierTest, MatchesExhaustiveAsBoardsReturnToThePool) {
  // Large demands keep most picks on the frontier while releases, victim
  // releases and restored deployments refill the pool under it.
  int64_t walks = 0;
  for (uint64_t seed = 10; seed < 18; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto index = IndexFromIncidence(SpreadIncidence(60, 300, 12, &rng), 300,
                                    &d);
    std::vector<market::Advertiser> ads;
    for (int32_t a = 0; a < 4; ++a) {
      ads.push_back(Adv(a, rng.UniformInt(150, 400),
                        static_cast<double>(rng.UniformInt(1, 5000))));
    }
    for (double gamma : {0.0, 0.5, 1.0}) {
      Assignment s(&index, ads, RegretParams{gamma});
      walks += DriveAgainstExhaustive(&s, seed, 300);
    }
  }
  EXPECT_EQ(walks, 64463);
}

TEST(LazySelectorFrontierTest, SynchronousGreedyVictimsMatchNaive) {
  // Over-demanded markets: SynchronousGreedy releases victims (ReleaseAll)
  // mid-run, and the lazy run must reproduce the naive one exactly.
  for (uint64_t seed = 20; seed < 30; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto index = IndexFromIncidence(SpreadIncidence(50, 200, 10, &rng), 200,
                                    &d);
    std::vector<market::Advertiser> ads;
    for (int32_t a = 0; a < 6; ++a) {
      ads.push_back(Adv(a, rng.UniformInt(60, 160),
                        static_cast<double>(rng.UniformInt(1, 100))));
    }
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    Assignment lazy(&index, ads, RegretParams{0.5});
    SynchronousGreedy(&lazy, /*lazy_selection=*/true);
    const int64_t victims =
        obs::MetricsRegistry::Global().Snapshot().CounterOf(
            "greedy.victims_released") -
        before.CounterOf("greedy.victims_released");
    Assignment naive(&index, ads, RegretParams{0.5});
    SynchronousGreedy(&naive, /*lazy_selection=*/false);
    lazy.VerifyInvariants();
    ExpectIdenticalDeployments(lazy, naive);
    EXPECT_GT(victims, 0) << "seed " << seed << " released no victim";
  }
}

TEST(LazySelectorFrontierTest, PersistedCompleterAcrossCopyDeploymentFrom) {
  // BLS's move-4 shape: one selector bound to a candidate plan that is
  // copy-assigned from a changing incumbent before every completion.
  common::Rng rng(41);
  model::Dataset d;
  auto index = IndexFromIncidence(SpreadIncidence(60, 300, 12, &rng), 300,
                                  &d);
  std::vector<market::Advertiser> ads;
  for (int32_t a = 0; a < 5; ++a) {
    ads.push_back(Adv(a, rng.UniformInt(100, 300),
                      static_cast<double>(rng.UniformInt(1, 500))));
  }
  const std::vector<market::AdvertiserId> targets{0, 1, 2, 3, 4};
  Assignment incumbent(&index, ads, RegretParams{0.5});
  SynchronousGreedy(&incumbent);
  Assignment candidate = incumbent;
  LazySelector completer(&candidate);
  for (int round = 0; round < 12; ++round) {
    // Perturb the incumbent: release a few boards, as BLS moves do.
    for (int k = 0; k < 3; ++k) {
      const auto a = static_cast<market::AdvertiserId>(rng.UniformU64(5));
      const auto& set = incumbent.BillboardsOf(a);
      if (!set.empty()) incumbent.Release(set[rng.UniformU64(set.size())]);
    }
    candidate.CopyDeploymentFrom(incumbent);
    SynchronousGreedyOver(&candidate, targets, true, &completer);
    Assignment fresh = incumbent;
    SynchronousGreedyOver(&fresh, targets, /*lazy_selection=*/false);
    candidate.VerifyInvariants();
    ExpectIdenticalDeployments(candidate, fresh);
  }
}

TEST(LazySelectorFrontierTest, MatchesExhaustiveOnCompressedIndexes) {
  // A FromCompressed index has no plain lists: the overlap rows and every
  // walk come from the compressed postings.
  for (uint64_t seed = 50; seed < 54; ++seed) {
    common::Rng rng(seed);
    model::Dataset d;
    auto full = IndexFromIncidence(SpreadIncidence(60, 300, 12, &rng), 300,
                                   &d);
    const influence::InfluenceIndex compact =
        influence::InfluenceIndex::FromCompressed(
            full.compressed_covered(), full.compressed_covering(),
            full.lambda());
    ASSERT_FALSE(compact.has_plain());
    std::vector<market::Advertiser> ads;
    for (int32_t a = 0; a < 4; ++a) {
      ads.push_back(Adv(a, rng.UniformInt(20, 300),
                        static_cast<double>(rng.UniformInt(1, 500))));
    }
    Assignment on_compact(&compact, ads, RegretParams{0.5});
    Assignment on_full(&full, ads, RegretParams{0.5});
    EXPECT_EQ(DriveAgainstExhaustive(&on_compact, seed, 200),
              DriveAgainstExhaustive(&on_full, seed, 200));
    for (int32_t a = 0; a < 4; ++a) {
      EXPECT_EQ(on_compact.BillboardsOf(a), on_full.BillboardsOf(a));
    }
  }
}

TEST(LazySelectorFrontierTest, ThresholdsOneToThreeMatchNaive) {
  // Thresholds above 1 keep the exhaustive scan; threshold 1 runs the
  // frontier. Either way the greedies equal their naive runs.
  common::Rng rng(61);
  model::Dataset d;
  auto index = IndexFromIncidence(SpreadIncidence(50, 200, 10, &rng), 200,
                                  &d);
  std::vector<market::Advertiser> ads;
  for (int32_t a = 0; a < 5; ++a) {
    ads.push_back(Adv(a, rng.UniformInt(20, 120),
                      static_cast<double>(rng.UniformInt(1, 100))));
  }
  for (uint16_t threshold = 1; threshold <= 3; ++threshold) {
    Assignment lazy(&index, ads, RegretParams{0.5}, threshold);
    Assignment naive(&index, ads, RegretParams{0.5}, threshold);
    EXPECT_EQ(LazySelector(&lazy).lazy_active(), threshold == 1);
    BudgetEffectiveGreedy(&lazy, /*lazy_selection=*/true);
    BudgetEffectiveGreedy(&naive, /*lazy_selection=*/false);
    ExpectIdenticalDeployments(lazy, naive);
    Assignment lazy_sync(&index, ads, RegretParams{0.5}, threshold);
    Assignment naive_sync(&index, ads, RegretParams{0.5}, threshold);
    SynchronousGreedy(&lazy_sync, /*lazy_selection=*/true);
    SynchronousGreedy(&naive_sync, /*lazy_selection=*/false);
    ExpectIdenticalDeployments(lazy_sync, naive_sync);
  }
}

TEST(LazySelectorFrontierTest, ParallelRestartsBuildTheOverlapOnce) {
  // A fresh index whose board_overlap() is first requested by four
  // restart greedies at once (their selectors mark neighbours from it):
  // the result must equal the one-thread solve. Labelled concurrency, so
  // the tsan preset runs it.
  common::Rng rng(71);
  auto covered = SpreadIncidence(80, 400, 15, &rng);
  std::vector<market::Advertiser> ads;
  for (int32_t a = 0; a < 8; ++a) {
    ads.push_back(Adv(a, rng.UniformInt(80, 250),
                      static_cast<double>(rng.UniformInt(1, 300))));
  }
  auto solve = [&](int32_t threads) {
    model::Dataset d;
    const influence::InfluenceIndex index = IndexFromIncidence(covered, 400,
                                                               &d);
    SolverConfig config;
    config.method = Method::kBls;
    config.seed = 5;
    config.local_search.restarts = 4;
    config.local_search.max_sweeps = 2;
    config.local_search.num_threads = threads;
    return Solve(index, ads, config);
  };
  const SolveResult one = solve(1);
  const SolveResult four = solve(4);
  EXPECT_EQ(four.sets, one.sets);
  EXPECT_EQ(four.breakdown.total, one.breakdown.total);
}

}  // namespace
}  // namespace mroam::core
