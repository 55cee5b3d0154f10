// Cached-vs-exact BLS deltas: DeltaEvaluator must reproduce
// Assignment::DeltaExchangeAcross / DeltaReplace / DeltaRelease bit for
// bit under every mutation the solvers interleave, on every backend and
// impression threshold, and the lazily built board-overlap bitset behind
// it must be race-free when parallel restarts reach it first.
#include "core/delta_evaluator.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/local_search.h"
#include "gen/city_generators.h"
#include "test_util.h"

namespace mroam::core {
namespace {

using influence::IndexBackend;
using influence::InfluenceIndex;
using market::AdvertiserId;
using model::BillboardId;
using mroam::testing::Adv;
using mroam::testing::IndexFromIncidence;

std::vector<std::vector<model::TrajectoryId>> RandomIncidence(
    int32_t num_billboards, int32_t num_trajectories, common::Rng* rng) {
  std::vector<std::vector<model::TrajectoryId>> covered(num_billboards);
  for (auto& list : covered) {
    for (model::TrajectoryId t = 0; t < num_trajectories; ++t) {
      if (rng->Bernoulli(0.2)) list.push_back(t);
    }
  }
  return covered;
}

std::vector<market::Advertiser> RandomAdvertisers(int32_t count,
                                                  common::Rng* rng) {
  std::vector<market::Advertiser> ads;
  for (int32_t a = 0; a < count; ++a) {
    ads.push_back(Adv(a, rng->UniformInt(1, 20),
                      static_cast<double>(rng->UniformInt(1, 50))));
  }
  return ads;
}

/// Every move-1/2/3 delta of `s`, evaluated through `ev` and through the
/// Assignment's exact walks, must agree exactly.
void ExpectAllDeltasMatch(const Assignment& s, DeltaEvaluator* ev,
                          int step) {
  for (AdvertiserId a = 0; a < s.num_advertisers(); ++a) {
    for (BillboardId om : s.BillboardsOf(a)) {
      ASSERT_EQ(ev->DeltaRelease(om), s.DeltaRelease(om))
          << "release " << om << " step " << step;
      for (BillboardId on : s.FreeBillboards()) {
        ASSERT_EQ(ev->DeltaReplace(om, on), s.DeltaReplace(om, on))
            << "replace " << om << "->" << on << " step " << step;
      }
      for (AdvertiserId b = a + 1; b < s.num_advertisers(); ++b) {
        for (BillboardId on : s.BillboardsOf(b)) {
          ASSERT_EQ(ev->DeltaExchangeAcross(om, on),
                    s.DeltaExchangeAcross(om, on))
              << "exchange " << om << "<->" << on << " step " << step;
        }
      }
    }
  }
}

/// One random mutation of `s`, drawn from every kind the solvers apply.
/// `other` is a second deployment over the same index that
/// CopyDeploymentFrom copies in (mutated first, so its epochs diverge).
void RandomMutation(Assignment* s, Assignment* other, common::Rng* rng) {
  const auto ads = static_cast<uint64_t>(s->num_advertisers());
  auto random_owned = [&](const Assignment& x) -> BillboardId {
    std::vector<BillboardId> owned;
    for (AdvertiserId a = 0; a < x.num_advertisers(); ++a) {
      for (BillboardId o : x.BillboardsOf(a)) owned.push_back(o);
    }
    if (owned.empty()) return model::kInvalidBillboard;
    return owned[rng->UniformU64(owned.size())];
  };
  switch (rng->UniformU64(6)) {
    case 0:
    case 1:  // Assign (weighted so deployments grow)
      if (!s->FreeBillboards().empty()) {
        const auto& free = s->FreeBillboards();
        s->Assign(free[rng->UniformU64(free.size())],
                  static_cast<AdvertiserId>(rng->UniformU64(ads)));
      }
      break;
    case 2: {  // Release
      BillboardId o = random_owned(*s);
      if (o != model::kInvalidBillboard) s->Release(o);
      break;
    }
    case 3: {  // ExchangeAcross or Replace
      BillboardId om = random_owned(*s);
      BillboardId on = random_owned(*s);
      if (om != model::kInvalidBillboard && on != model::kInvalidBillboard &&
          s->OwnerOf(om) != s->OwnerOf(on)) {
        s->ExchangeAcross(om, on);
      } else if (om != model::kInvalidBillboard &&
                 !s->FreeBillboards().empty()) {
        const auto& free = s->FreeBillboards();
        s->Replace(om, free[rng->UniformU64(free.size())]);
      }
      break;
    }
    case 4: {  // SwapSets
      auto i = static_cast<AdvertiserId>(rng->UniformU64(ads));
      auto j = static_cast<AdvertiserId>(rng->UniformU64(ads));
      if (i != j) s->SwapSets(i, j);
      break;
    }
    default: {  // CopyDeploymentFrom a diverged deployment
      for (int k = 0; k < 3; ++k) {
        BillboardId o = random_owned(*other);
        if (o != model::kInvalidBillboard && rng->Bernoulli(0.4)) {
          other->Release(o);
        } else if (!other->FreeBillboards().empty()) {
          const auto& free = other->FreeBillboards();
          other->Assign(free[rng->UniformU64(free.size())],
                        static_cast<AdvertiserId>(rng->UniformU64(ads)));
        }
      }
      s->CopyDeploymentFrom(*other);
      break;
    }
  }
}

struct BackendCase {
  const char* name;
  IndexBackend backend;
  bool compressed_only;  // index built by FromCompressed (no plain lists)
};

constexpr BackendCase kBackends[] = {
    {"plain", IndexBackend::kPlain, false},
    {"compressed", IndexBackend::kCompressed, false},
    {"compressed-only index", IndexBackend::kCompressed, true},
};

TEST(DeltaEvaluatorTest, MatchesAssignmentUnderInterleavedMutations) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    common::Rng gen(seed);
    model::Dataset d;
    const InfluenceIndex full =
        IndexFromIncidence(RandomIncidence(18, 30, &gen), 30, &d);
    const InfluenceIndex compact = InfluenceIndex::FromCompressed(
        full.compressed_covered(), full.compressed_covering(),
        full.lambda());
    const auto ads = RandomAdvertisers(4, &gen);
    for (const BackendCase& bc : kBackends) {
      const InfluenceIndex* index = bc.compressed_only ? &compact : &full;
      for (uint16_t threshold : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " " << bc.name << " threshold "
                     << threshold);
        Assignment s(index, ads, RegretParams{0.5}, threshold, bc.backend);
        Assignment other(index, ads, RegretParams{0.5}, threshold,
                         bc.backend);
        DeltaEvaluator ev(&s);
        common::Rng rng(seed * 31 + threshold);
        for (int step = 0; step < 150; ++step) {
          RandomMutation(&s, &other, &rng);
          // Evaluating only some steps leaves stale stamps behind for
          // the next mutation to (fail to) collide with.
          if (rng.Bernoulli(0.7)) {
            ASSERT_NO_FATAL_FAILURE(ExpectAllDeltasMatch(s, &ev, step));
          }
        }
        s.VerifyInvariants();
      }
    }
  }
}

TEST(DeltaEvaluatorTest, CachedPathWalksFarLessThanTheExactPath) {
  // The exact path pays 4/2/1 walks per exchange/replace/release delta;
  // the threshold-1 path pays only refills and overlap merges.
  common::Rng gen(5);
  gen::NycLikeConfig city;
  city.num_billboards = 120;
  city.num_trajectories = 1500;
  const model::Dataset dataset = gen::GenerateNycLike(city, &gen);
  const InfluenceIndex index = InfluenceIndex::Build(dataset, 100.0);
  std::vector<market::Advertiser> ads;
  for (AdvertiserId a = 0; a < 6; ++a) {
    ads.push_back(Adv(a, index.TotalSupply() / 8, 10.0 + a));
  }
  LocalSearchConfig config;
  config.max_sweeps = 3;
  for (uint16_t threshold : {uint16_t{1}, uint16_t{2}}) {
    Assignment s(&index, ads, RegretParams{0.5}, threshold);
    common::Rng rng(9);
    for (AdvertiserId a = 0; a < 6; ++a) {
      for (int k = 0; k < 4; ++k) {
        const auto& free = s.FreeBillboards();
        s.Assign(free[rng.UniformU64(free.size())], a);
      }
    }
    LocalSearchStats stats = BillboardDrivenLocalSearch(&s, config, &rng);
    ASSERT_GT(stats.exchange_deltas, 0);
    ASSERT_GT(stats.replace_deltas, 0);
    ASSERT_GT(stats.release_deltas, 0);
    EXPECT_EQ(stats.exchange_deltas + stats.replace_deltas +
                  stats.release_deltas,
              stats.deltas_evaluated);
    const int64_t exact_walks = 4 * stats.exchange_deltas +
                                2 * stats.replace_deltas +
                                stats.release_deltas;
    if (threshold == 1) {
      EXPECT_LT(4 * stats.list_walks, exact_walks) << stats.list_walks;
    } else {
      EXPECT_EQ(stats.list_walks, exact_walks);
    }
  }
}

TEST(DeltaEvaluatorTest, ParallelRestartsShareOneLazyOverlapBuild) {
  // The overlap bitset is built on the first BLS use of an index; with
  // four restart threads that first use is concurrent (run under the
  // tsan preset, label concurrency). Results must not depend on it.
  common::Rng gen(17);
  gen::NycLikeConfig city;
  city.num_billboards = 90;
  city.num_trajectories = 1200;
  const model::Dataset dataset = gen::GenerateNycLike(city, &gen);
  std::vector<market::Advertiser> ads;
  auto run = [&](int32_t threads, const InfluenceIndex& index) {
    LocalSearchConfig config;
    config.restarts = 3;
    config.max_sweeps = 3;
    config.num_threads = threads;
    common::Rng rng(41);
    LocalSearchStats stats;
    Assignment plan = RandomizedLocalSearch(
        index, ads, RegretParams{0.5}, SearchStrategy::kBillboardDriven,
        config, &rng, &stats);
    return std::make_pair(plan.TotalRegret(), stats.list_walks);
  };
  const InfluenceIndex serial_index = InfluenceIndex::Build(dataset, 100.0);
  for (AdvertiserId a = 0; a < 5; ++a) {
    ads.push_back(Adv(a, serial_index.TotalSupply() / 7, 20.0 + a));
  }
  const auto serial = run(1, serial_index);
  const InfluenceIndex fresh_index = InfluenceIndex::Build(dataset, 100.0);
  const auto parallel = run(4, fresh_index);
  EXPECT_EQ(parallel.first, serial.first);
  EXPECT_EQ(parallel.second, serial.second);

  // Direct concurrent first calls all see the one bitset.
  const InfluenceIndex racing = InfluenceIndex::Build(dataset, 100.0);
  std::vector<const influence::BoardOverlap*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < seen.size(); ++k) {
    threads.emplace_back([&, k] { seen[k] = &racing.board_overlap(); });
  }
  for (std::thread& t : threads) t.join();
  for (const influence::BoardOverlap* o : seen) EXPECT_EQ(o, seen[0]);
}

}  // namespace
}  // namespace mroam::core
