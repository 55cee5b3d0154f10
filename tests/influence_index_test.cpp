#include "influence/influence_index.h"

#include <algorithm>
#include <iterator>

#include <gtest/gtest.h>

#include "gen/city_generators.h"
#include "influence/reports.h"
#include "test_util.h"

namespace mroam::influence {
namespace {

using testing::DatasetFromIncidence;
using testing::kFixtureLambda;

TEST(InfluenceIndexTest, IncidenceFixtureIsExact) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2}, {2, 3}, {}, {4}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  ASSERT_EQ(index.num_billboards(), 4);
  EXPECT_EQ(index.num_trajectories(), 5);
  EXPECT_EQ(index.CoveredBy(0),
            (std::vector<model::TrajectoryId>{0, 1, 2}));
  EXPECT_EQ(index.CoveredBy(1), (std::vector<model::TrajectoryId>{2, 3}));
  EXPECT_TRUE(index.CoveredBy(2).empty());
  EXPECT_EQ(index.InfluenceOf(0), 3);
  EXPECT_EQ(index.InfluenceOf(2), 0);
  EXPECT_EQ(index.TotalSupply(), 6);
}

TEST(InfluenceIndexTest, DuplicatePointsCountOnce) {
  // A trajectory passing a billboard multiple times is influenced once.
  model::Dataset d;
  model::Billboard b;
  b.id = 0;
  b.location = {0, 0};
  d.billboards.push_back(b);
  model::Trajectory t;
  t.id = 0;
  t.points = {{0, 0}, {0.5, 0}, {100, 0}, {0.2, 0}};
  d.trajectories.push_back(t);
  InfluenceIndex index = InfluenceIndex::Build(d, 1.0);
  EXPECT_EQ(index.InfluenceOf(0), 1);
  EXPECT_EQ(index.TotalSupply(), 1);
}

TEST(InfluenceIndexTest, LambdaBoundaryIsInclusive) {
  model::Dataset d;
  model::Billboard b;
  b.id = 0;
  b.location = {0, 0};
  d.billboards.push_back(b);
  model::Trajectory exactly;
  exactly.id = 0;
  exactly.points = {{100.0, 0.0}};
  model::Trajectory beyond;
  beyond.id = 1;
  beyond.points = {{100.0001, 0.0}};
  d.trajectories = {exactly, beyond};
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  EXPECT_EQ(index.CoveredBy(0), (std::vector<model::TrajectoryId>{0}));
}

TEST(InfluenceIndexTest, MatchesBruteForceOnGeneratedCity) {
  common::Rng rng(3);
  gen::NycLikeConfig cfg;
  cfg.num_billboards = 40;
  cfg.num_trajectories = 120;
  model::Dataset d = gen::GenerateNycLike(cfg, &rng);
  const double lambda = 100.0;
  InfluenceIndex index = InfluenceIndex::Build(d, lambda);
  auto brute = BruteForceIncidence(d, lambda);
  ASSERT_EQ(brute.size(), static_cast<size_t>(index.num_billboards()));
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    EXPECT_EQ(index.CoveredBy(o), brute[o]) << "billboard " << o;
  }
}

TEST(InfluenceIndexTest, InfluenceOfSetUnionsDistinctTrajectories) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2}, {2, 3}, {4}, {}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  EXPECT_EQ(index.InfluenceOfSet({0, 1}), 4);   // {0,1,2,3}
  EXPECT_EQ(index.InfluenceOfSet({0, 1, 2}), 5);
  EXPECT_EQ(index.InfluenceOfSet({3}), 0);
  EXPECT_EQ(index.InfluenceOfSet({}), 0);
}

TEST(InfluenceIndexTest, ListsAreSorted) {
  common::Rng rng(4);
  gen::SgLikeConfig cfg;
  cfg.num_billboards = 200;
  cfg.num_trajectories = 500;
  model::Dataset d = gen::GenerateSgLike(cfg, &rng);
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  for (int32_t o = 0; o < index.num_billboards(); ++o) {
    const auto& list = index.CoveredBy(o);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    EXPECT_TRUE(std::adjacent_find(list.begin(), list.end()) == list.end());
  }
}

TEST(AssignBillboardCostsTest, CostTracksInfluence) {
  std::vector<std::vector<model::TrajectoryId>> covered(2);
  for (int i = 0; i < 100; ++i) covered[0].push_back(i);
  covered[1] = {100};
  model::Dataset d = DatasetFromIncidence(covered, 101);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  common::Rng rng(5);
  AssignBillboardCosts(&d, index, &rng);
  // o.w = floor(tau * I(o)/10), tau in [0.9, 1.1].
  EXPECT_GE(d.billboards[0].cost, 9.0);
  EXPECT_LE(d.billboards[0].cost, 11.0);
  EXPECT_EQ(d.billboards[1].cost, 0.0);  // floor(tau * 0.1) = 0
}

TEST(ReportsTest, InfluenceDistributionIsDescendingAndNormalized) {
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1}, {0, 1, 2, 3}, {4}};
  model::Dataset d = DatasetFromIncidence(covered, 5);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  std::vector<double> dist = InfluenceDistribution(index);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
  EXPECT_DOUBLE_EQ(dist[1], 0.5);
  EXPECT_DOUBLE_EQ(dist[2], 0.25);
  EXPECT_TRUE(std::is_sorted(dist.rbegin(), dist.rend()));
}

TEST(ReportsTest, ImpressionCurveIsMonotone) {
  common::Rng rng(6);
  gen::SgLikeConfig cfg;
  cfg.num_billboards = 300;
  cfg.num_trajectories = 1000;
  model::Dataset d = gen::GenerateSgLike(cfg, &rng);
  InfluenceIndex index = InfluenceIndex::Build(d, 100.0);
  std::vector<double> pct{0.0, 10.0, 25.0, 50.0, 75.0, 100.0};
  std::vector<double> curve = ImpressionCurve(index, pct);
  ASSERT_EQ(curve.size(), pct.size());
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  EXPECT_TRUE(std::is_sorted(curve.begin(), curve.end()));
  EXPECT_GT(curve.back(), 0.5);  // most rides pass at least one stop
  EXPECT_LE(curve.back(), 1.0);
}

TEST(ReportsTest, SummaryMatchesHandComputation) {
  // Influences: 10, 6, 4, 0 over 12 trajectories; board lists are
  // disjoint except o1 fully inside o0's coverage.
  std::vector<std::vector<model::TrajectoryId>> covered{
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0, 1, 2, 3, 4, 5}, {10, 11}, {}};
  model::Dataset d = DatasetFromIncidence(covered, 12);
  InfluenceIndex index = InfluenceIndex::Build(d, kFixtureLambda);
  InfluenceSummary s = SummarizeInfluence(index);
  EXPECT_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.mean, 18.0 / 4.0);
  // Top decile = top max(1, 4/10) = 1 board: share 10/18.
  EXPECT_DOUBLE_EQ(s.top_decile_share, 10.0 / 18.0);
  // Top half = 2 boards (o0, o1): union {0..9} -> 10/12.
  EXPECT_DOUBLE_EQ(s.coverage_ratio_top_half, 10.0 / 12.0);
}

TEST(ReportsTest, EmptyIndexIsHandled) {
  model::Dataset d;
  d.name = "empty";
  InfluenceIndex index = InfluenceIndex::Build(d, 1.0);
  EXPECT_TRUE(InfluenceDistribution(index).empty());
  InfluenceSummary s = SummarizeInfluence(index);
  EXPECT_EQ(s.max, 0);
}

TEST(BoardOverlapTest, AgreesWithBruteForceListIntersection) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    common::Rng rng(seed);
    gen::NycLikeConfig config;
    config.num_billboards = 70;  // rows span two 64-bit words
    config.num_trajectories = 600;
    model::Dataset dataset = gen::GenerateNycLike(config, &rng);
    InfluenceIndex full = InfluenceIndex::Build(
        dataset, 100.0 + 40.0 * static_cast<double>(seed));
    InfluenceIndex compact = InfluenceIndex::FromCompressed(
        full.compressed_covered(), full.compressed_covering(),
        full.lambda());
    const BoardOverlap& plain = full.board_overlap();
    const BoardOverlap& decoded = compact.board_overlap();
    int64_t overlapping = 0;
    for (model::BillboardId x = 0; x < full.num_billboards(); ++x) {
      for (model::BillboardId y = 0; y < full.num_billboards(); ++y) {
        const auto& lx = full.CoveredBy(x);
        const auto& ly = full.CoveredBy(y);
        bool brute = false;
        for (model::TrajectoryId t : lx) {
          if (std::find(ly.begin(), ly.end(), t) != ly.end()) brute = true;
        }
        ASSERT_EQ(plain.Overlap(x, y), brute) << x << "," << y;
        ASSERT_EQ(decoded.Overlap(x, y), brute) << x << "," << y;
        if (brute && x != y) ++overlapping;
      }
    }
    // The fixture must exercise both answers.
    EXPECT_GT(overlapping, 0);
    EXPECT_LT(overlapping, int64_t{70} * 69);
  }
}

TEST(BoardOverlapTest, ForEachNeighbourListsExactlyTheIntersectingBoards) {
  // 130 boards: rows of three words, the last one partial, and boards
  // with empty lists (no neighbours, not even themselves).
  for (uint64_t seed = 0; seed < 3; ++seed) {
    common::Rng rng(seed);
    std::vector<std::vector<model::TrajectoryId>> covered(130);
    for (auto& list : covered) {
      if (rng.Bernoulli(0.1)) continue;
      for (model::TrajectoryId t = 0; t < 500; ++t) {
        if (rng.Bernoulli(0.01)) list.push_back(t);
      }
    }
    InfluenceIndex index =
        InfluenceIndex::Build(DatasetFromIncidence(covered, 500),
                              kFixtureLambda);
    const BoardOverlap& overlap = index.board_overlap();
    for (model::BillboardId x = 0; x < index.num_billboards(); ++x) {
      std::vector<model::BillboardId> expected;
      for (model::BillboardId y = 0; y < index.num_billboards(); ++y) {
        std::vector<model::TrajectoryId> shared;
        std::set_intersection(covered[x].begin(), covered[x].end(),
                              covered[y].begin(), covered[y].end(),
                              std::back_inserter(shared));
        if (!shared.empty()) expected.push_back(y);
      }
      std::vector<model::BillboardId> listed;
      overlap.ForEachNeighbour(
          x, [&listed](model::BillboardId y) { listed.push_back(y); });
      ASSERT_EQ(listed, expected) << "board " << x;  // ascending, no repeats
    }
  }
}

TEST(BoardOverlapTest, CopiesShareTheBuiltBitset) {
  InfluenceIndex index = InfluenceIndex::Build(
      DatasetFromIncidence({{0, 1}, {1, 2}, {3}}, 4), kFixtureLambda);
  const BoardOverlap& built = index.board_overlap();
  InfluenceIndex copy = index;
  EXPECT_EQ(&copy.board_overlap(), &built);
  EXPECT_TRUE(built.Overlap(0, 1));
  EXPECT_FALSE(built.Overlap(0, 2));
  EXPECT_FALSE(built.Overlap(2, 1));
}

}  // namespace
}  // namespace mroam::influence
