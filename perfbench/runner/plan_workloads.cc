// plan-nyc (one-shot BLS over Table 6 markets) and replan-sg (incremental
// warm-start replanning of a rolling SG book).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/daily_market.h"
#include "core/regret.h"
#include "core/solver.h"
#include "gen/city_generators.h"
#include "influence/influence_index.h"
#include "market/workload.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using mroam::common::Rng;
using mroam::core::DayResult;
using mroam::core::SolveResult;
using mroam::core::SolverConfig;
using mroam::influence::InfluenceIndex;
using mroam::market::Advertiser;
using mroam::model::BillboardId;
using mroam::model::Dataset;
using mroam::obs::MetricsRegistry;
using mroam::obs::MetricsSnapshot;

namespace {

// The cities are the fixed ones the figure benches use (bench/bench_common.cc
// generator seeds), as the paper evaluates on one NYC and one SG dataset;
// the run seed draws the workload on them: markets, schedules, contracts.
constexpr uint64_t kNycCitySeed = 0xC17C0DEULL;
constexpr uint64_t kSgCitySeed = 0x5106C0DEULL;

// Sub-seed streams derived from the run seed.
constexpr uint64_t kMarketStream = 2;
constexpr uint64_t kSolverStream = 3;
constexpr uint64_t kScheduleStream = 4;

int32_t Scaled(int32_t paper_value, double scale, int32_t floor) {
  return std::max(floor,
                  static_cast<int32_t>(std::lround(paper_value * scale)));
}

/// BLS at the figure benches' bounded effort (bench/bench_common.cc:
/// restarts=3, sweeps<=6, 500 sampled exchange candidates), on one thread:
/// parallel restarts make the wall time depend on how the slowest restart
/// was scheduled, which is noise rather than solver work.
SolverConfig FigureEffortBls(uint64_t seed) {
  SolverConfig config;
  config.method = mroam::core::Method::kBls;
  config.regret.gamma = 0.5;
  config.local_search.restarts = 3;
  config.local_search.max_sweeps = 6;
  config.local_search.max_exchange_candidates = 500;
  config.local_search.num_threads = 1;
  config.seed = seed;
  return config;
}

/// Table 6 markets (alpha=1, p=5% so 20 advertisers, gamma=0.5) whose
/// realized demand-supply ratio sum(I_i)/I* lies in [1.01, 1.04]. A draw's
/// realized ratio scatters around 1 (sd ~0.026 from the omega draws);
/// markets on either side of 1 do very different work (all-satisfiable
/// ones stop once regret reaches zero, the others run BLS to its sweep
/// caps), so a median over a mixed list would be as noisy as one solve.
std::vector<std::vector<Advertiser>> SelectMarkets(int64_t supply,
                                                   uint64_t seed,
                                                   int64_t count) {
  mroam::market::WorkloadConfig config;  // Table 6 defaults
  std::vector<std::vector<Advertiser>> markets;
  for (uint64_t draw = 0; static_cast<int64_t>(markets.size()) < count;
       ++draw) {
    MROAM_CHECK(draw < 1000000) << "no market in the demand band";
    Rng rng(MixSeed(MixSeed(seed, kMarketStream), draw));
    std::vector<Advertiser> ads =
        mroam::market::GenerateAdvertisers(supply, config, &rng).value();
    const double ratio =
        static_cast<double>(mroam::market::GlobalDemand(ads)) /
        static_cast<double>(supply);
    if (ratio >= 1.01 && ratio <= 1.04) markets.push_back(std::move(ads));
  }
  return markets;
}

/// Output checks of one plan: disjoint sets, reported influences equal to
/// InfluenceOfSet, and regret equal to a recomputation. Empty when the
/// plan passes.
std::string CheckPlan(const InfluenceIndex& index,
                      const std::vector<Advertiser>& ads,
                      const SolveResult& result, double gamma) {
  if (result.sets.size() != ads.size() ||
      result.influences.size() != ads.size()) {
    return "plan covers " + std::to_string(result.sets.size()) + " of " +
           std::to_string(ads.size()) + " advertisers";
  }
  std::string disjoint = CheckDisjoint(result.sets, index.num_billboards());
  if (!disjoint.empty()) return disjoint;
  mroam::core::RegretParams params;
  params.gamma = gamma;
  double regret = 0.0;
  for (size_t i = 0; i < ads.size(); ++i) {
    const int64_t influence = index.InfluenceOfSet(result.sets[i]);
    if (influence != result.influences[i]) {
      return "advertiser " + std::to_string(i) + " reported influence " +
             std::to_string(result.influences[i]) + ", InfluenceOfSet " +
             std::to_string(influence);
    }
    regret += mroam::core::Regret(ads[i], influence, params);
  }
  const double tolerance =
      1e-9 * std::max(1.0, mroam::market::TotalPayment(ads));
  if (std::abs(regret - result.breakdown.total) > tolerance) {
    return "reported regret " + std::to_string(result.breakdown.total) +
           ", recomputed " + std::to_string(regret);
  }
  return "";
}

/// Greedy and BLS effort of the timed phase (registry deltas); both
/// delta counts are deterministic here and guarded exactly.
void AddEffort(const MetricsSnapshot& delta, double greedy_s,
               double search_s, RunOutput* out) {
  const int64_t bls_deltas = delta.CounterOf("bls.deltas_evaluated");
  const int64_t moves = delta.CounterOf("bls.moves_applied");
  out->Exact("greedy.deltas", delta.CounterOf("greedy.deltas"));
  out->Exact("bls.deltas_evaluated", bls_deltas);
  AddGreedyLayers(delta, greedy_s, out);
  out->Layer("bls.search_s", search_s);
  out->Layer("bls.deltas_evaluated", static_cast<double>(bls_deltas));
  out->Layer("bls.moves_applied", static_cast<double>(moves));
  out->Layer("bls.sweeps",
             static_cast<double>(delta.CounterOf("bls.sweeps")));
  out->Layer("bls.apply_ratio",
             bls_deltas > 0 ? static_cast<double>(moves) /
                                  static_cast<double>(bls_deltas)
                            : 0.0);
}

void PauseAfterUnit(const Options& options) {
  if (options.unit_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.unit_delay_ms));
  }
}

/// A built city: the set-up every plan workload repeats and times.
struct Setup {
  Dataset dataset;
  InfluenceIndex index;
  double build_s = 0.0;
};

template <typename MakeDataset>
Setup RunSetup(MakeDataset make_dataset, Spans* spans, const char* city) {
  Setup setup;
  {
    Spans::Scope span(spans, "gen", city);
    setup.dataset = make_dataset();
  }
  Spans::Scope span(spans, "influence", "InfluenceIndex::Build");
  const int64_t start = NowNs();
  setup.index = InfluenceIndex::Build(setup.dataset, kLambdaMeters);
  setup.build_s = SecondsSince(start);
  return setup;
}

/// Repeats the set-up `reps` times (the harness reports the median, since
/// one set-up is too short to time once), checks that every repetition
/// built the same index, and returns the last one.
template <typename MakeDataset>
Setup RepeatedSetup(int reps, MakeDataset make_dataset, Spans* spans,
                    const char* city, RunOutput* out) {
  Setup setup;
  std::vector<double> build_s;
  int64_t first_postings = -1;
  for (int rep = 0; rep < reps; ++rep) {
    Spans::Scope span(spans, "bench", "setup", rep);
    const int64_t start = NowNs();
    setup = RunSetup(make_dataset, spans, city);
    out->setup_s.push_back(SecondsSince(start));
    build_s.push_back(setup.build_s);
    if (first_postings < 0) first_postings = setup.index.TotalSupply();
    if (setup.index.TotalSupply() != first_postings) {
      out->Fail("set-up repetition " + std::to_string(rep) + " built " +
                std::to_string(setup.index.TotalSupply()) +
                " postings, the first built " +
                std::to_string(first_postings));
    }
  }
  setup.build_s = Median(build_s);
  return setup;
}

}  // namespace

Dataset MakeNycCity(const Options& options) {
  mroam::gen::NycLikeConfig config;
  config.num_billboards = Scaled(config.num_billboards, options.scale, 40);
  config.num_trajectories =
      Scaled(config.num_trajectories, options.scale, 400);
  Rng rng(kNycCitySeed);
  return mroam::gen::GenerateNycLike(config, &rng);
}

void AddIndexLayers(const InfluenceIndex& index, double build_s,
                    RunOutput* out) {
  const auto& postings = index.compressed_covered();
  out->Exact("influence.postings", index.TotalSupply());
  out->Layer("influence.build_s", build_s);
  out->Layer("influence.postings", static_cast<double>(index.TotalSupply()));
  out->Layer("cindex.bytes_per_posting",
             static_cast<double>(postings.bytes().size()) /
                 static_cast<double>(std::max<uint64_t>(
                     1, postings.total_count())));
}

void AddGreedyLayers(const MetricsSnapshot& delta, double greedy_s,
                     RunOutput* out) {
  const int64_t hits = delta.CounterOf("greedy.lazy_hits");
  const int64_t reevals = delta.CounterOf("greedy.lazy_reevals");
  out->Layer("greedy.s", greedy_s);
  out->Layer("greedy.deltas",
             static_cast<double>(delta.CounterOf("greedy.deltas")));
  out->Layer("greedy.lazy_hit_ratio",
             hits + reevals > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(hits + reevals)
                                : 0.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string CheckDisjoint(const std::vector<std::vector<BillboardId>>& sets,
                          int32_t num_billboards) {
  std::vector<int32_t> owner(static_cast<size_t>(num_billboards), -1);
  for (size_t i = 0; i < sets.size(); ++i) {
    for (BillboardId o : sets[i]) {
      if (o < 0 || o >= num_billboards) {
        return "billboard id " + std::to_string(o) + " out of range";
      }
      if (owner[o] >= 0) {
        return "billboard " + std::to_string(o) + " assigned to both " +
               std::to_string(owner[o]) + " and " + std::to_string(i);
      }
      owner[o] = static_cast<int32_t>(i);
    }
  }
  return "";
}

void RunPlanNyc(const Options& options, Spans* spans, RunOutput* out) {
  constexpr int kSetupReps = 5;
  Setup setup = RepeatedSetup(
      kSetupReps, [&] { return MakeNycCity(options); }, spans,
      "GenerateNycLike", out);
  const InfluenceIndex& index = setup.index;
  const std::vector<std::vector<Advertiser>> markets =
      SelectMarkets(index.TotalSupply(), options.seed, options.units);

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  double greedy_s = 0.0;
  double search_s = 0.0;
  SolveResult first;
  const int64_t timed_start = NowNs();
  for (size_t m = 0; m < markets.size(); ++m) {
    const SolverConfig config =
        FigureEffortBls(MixSeed(MixSeed(options.seed, kSolverStream), m));
    SolveResult result;
    int64_t start = 0;
    {
      Spans::Scope span(spans, "core", "Solve", static_cast<int64_t>(m));
      start = NowNs();
      result = mroam::core::Solve(index, markets[m], config);
    }
    out->unit_ms.push_back(SecondsSince(start) * 1e3);
    ++out->attempted;
    const std::string problem =
        CheckPlan(index, markets[m], result, config.regret.gamma);
    if (!problem.empty()) {
      out->Fail("market " + std::to_string(m) + ": " + problem);
    }
    out->regret += result.breakdown.total;
    out->payment += mroam::market::TotalPayment(markets[m]);
    greedy_s += result.report.PhaseSeconds("restarts.greedy");
    search_s += result.report.PhaseSeconds("restarts.search");
    if (m == 0) first = std::move(result);
    PauseAfterUnit(options);
  }
  out->timed_wall_s = SecondsSince(timed_start);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  out->peak_rss_mb = PeakRssMb();

  // Determinism: the first market re-solved at its seed must give the
  // same deployment after the rest of the run.
  if (!markets.empty()) {
    ++out->attempted;
    const SolveResult again = mroam::core::Solve(
        index, markets[0],
        FigureEffortBls(MixSeed(MixSeed(options.seed, kSolverStream), 0)));
    if (again.sets != first.sets ||
        again.search_stats.deltas_evaluated !=
            first.search_stats.deltas_evaluated) {
      out->Fail("re-solving market 0 at its seed gave another deployment");
    }
  }

  AddIndexLayers(index, setup.build_s, out);
  AddEffort(delta, greedy_s, search_s, out);
}

void RunReplanSg(const Options& options, Spans* spans, RunOutput* out) {
  // The rolling book: contracts last kDuration days and kArrivalsPerDay
  // arrive each day, with demand sized so the full book asks for about the
  // whole supply (alpha ~ 1); every kCancelEvery-th day one active
  // contract, chosen by the schedule's seed, is withdrawn first. The
  // market starts from a restored steady-state book (staggered expiries,
  // no deployments yet), as a server restarted from a snapshot does, so
  // its first day is the full solve every later day's drift is measured
  // against. Starting empty instead anchors the drift on a 3-contract
  // solve, and the fallback that follows lands on a seed-dependent day
  // inside the timed window.
  constexpr int kSetupReps = 5;
  constexpr int32_t kDuration = 5;
  constexpr int32_t kArrivalsPerDay = 3;
  constexpr int32_t kCancelEvery = 4;
  constexpr int32_t kWarmupDays = 2;

  Setup setup = RepeatedSetup(
      kSetupReps,
      [&] {
        mroam::gen::SgLikeConfig config;
        config.num_billboards =
            Scaled(config.num_billboards, options.scale, 60);
        config.num_trajectories =
            Scaled(config.num_trajectories, options.scale, 400);
        Rng rng(kSgCitySeed);
        return mroam::gen::GenerateSgLike(config, &rng);
      },
      spans, "GenerateSgLike", out);
  const InfluenceIndex& index = setup.index;

  mroam::core::DailyMarketConfig config;
  config.solver = FigureEffortBls(MixSeed(options.seed, kSolverStream));
  config.contract_duration_days = kDuration;
  config.policy = mroam::core::ReplanPolicy::kIncremental;
  // With the default drift bound (0.1) a steady-state fallback — a full
  // BLS solve, about 8x an incremental day — lands in roughly one 20-day
  // window in five, which makes a run's throughput bimodal across seeds.
  // At 0.25 the full solve runs on the restored-book day (untimed) and
  // again only if warm-started plans degrade far more than they do here;
  // payment_kept still shows such degradation.
  config.incremental.max_regret_drift = 0.25;
  mroam::core::DailyMarket market(&index, config);

  // The benchmark's own model of the book, to check the market against.
  struct Booked {
    int64_t ticket;
    int32_t expires_on;
    bool cancelled;
  };
  std::vector<Booked> booked;
  Rng schedule(MixSeed(options.seed, kScheduleStream));
  const double base_demand =
      static_cast<double>(index.TotalSupply()) /
      static_cast<double>(kDuration * kArrivalsPerDay);
  auto draw_contract = [&] {
    Advertiser a;
    const double omega = schedule.UniformDouble(0.8, 1.2);
    a.demand = std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(omega * base_demand)));
    a.payment = std::max(1.0, std::floor(schedule.UniformDouble(0.9, 1.1) *
                                         static_cast<double>(a.demand)));
    return a;
  };
  mroam::market::ContractBook initial;
  for (int32_t k = 0; k < kDuration * kArrivalsPerDay; ++k) {
    mroam::market::ContractBookEntry entry;
    entry.terms = draw_contract();
    entry.terms.id = k;
    entry.ticket = initial.next_ticket++;
    entry.expires_on = 1 + k / kArrivalsPerDay;
    booked.push_back(Booked{entry.ticket, entry.expires_on, false});
    initial.entries.push_back(std::move(entry));
  }
  market.RestoreBook(initial);
  int64_t next_ticket = initial.next_ticket;

  const int64_t total_days = kWarmupDays + options.units;
  std::vector<double> incremental_ms;
  std::vector<double> full_ms;
  double greedy_s = 0.0;
  double search_s = 0.0;
  double reoptimized_share = 0.0;
  int64_t incremental_days = 0;
  int64_t boards_touched = 0;
  int64_t fallbacks = 0;
  MetricsSnapshot before;
  int64_t timed_start = 0;
  for (int32_t day = 1; day <= total_days; ++day) {
    const bool timed = day > kWarmupDays;
    if (day == kWarmupDays + 1) {
      before = MetricsRegistry::Global().Snapshot();
      timed_start = NowNs();
    }
    if (day % kCancelEvery == 0) {
      std::vector<size_t> active;
      for (size_t k = 0; k < booked.size(); ++k) {
        if (!booked[k].cancelled && booked[k].expires_on > day - 1) {
          active.push_back(k);
        }
      }
      if (!active.empty()) {
        Booked& victim = booked[active[schedule.UniformInt(
            0, static_cast<int64_t>(active.size()) - 1)]];
        victim.cancelled = true;
        if (!market.Cancel(victim.ticket)) {
          out->Fail("day " + std::to_string(day) + ": cancel of ticket " +
                    std::to_string(victim.ticket) + " was refused");
        }
      }
    }
    std::vector<Advertiser> arrivals;
    for (int32_t k = 0; k < kArrivalsPerDay; ++k) {
      arrivals.push_back(draw_contract());
      booked.push_back(Booked{next_ticket++, day + kDuration, false});
    }

    DayResult result;
    int64_t start = 0;
    {
      Spans::Scope span(spans, "core", "DailyMarket::AdvanceDay", day);
      start = NowNs();
      result = market.AdvanceDay(std::move(arrivals));
    }
    const double day_ms = SecondsSince(start) * 1e3;
    if (result.mode == mroam::core::ReplanMode::kIncremental) {
      incremental_ms.push_back(day_ms);
    } else if (result.mode == mroam::core::ReplanMode::kFull) {
      full_ms.push_back(day_ms);
    }
    // Counted from the restored-book day on: that full solve is the one
    // every run has, so the exact count is never vacuous.
    if (result.full_solve_fallback) ++fallbacks;
    if (!timed) continue;

    out->unit_ms.push_back(day_ms);
    ++out->attempted;
    int32_t expected_active = 0;
    for (const Booked& b : booked) {
      if (!b.cancelled && b.expires_on > day) ++expected_active;
    }
    std::string problem;
    if (result.active_contracts != expected_active ||
        market.active_contracts() != expected_active) {
      problem = "active contracts " + std::to_string(result.active_contracts) +
                ", schedule says " + std::to_string(expected_active);
    } else {
      problem = CheckDisjoint(market.ActiveSets(), index.num_billboards());
    }
    if (!problem.empty()) {
      out->Fail("day " + std::to_string(day) + ": " + problem);
    }
    out->regret += result.breakdown.total;
    for (const Advertiser& a : market.ActiveTerms()) out->payment += a.payment;
    greedy_s += result.report.PhaseSeconds("greedy") +
                result.report.PhaseSeconds("restarts.greedy");
    search_s += result.report.PhaseSeconds("local_search") +
                result.report.PhaseSeconds("restarts.search");
    boards_touched += result.boards_touched;
    if (result.mode == mroam::core::ReplanMode::kIncremental &&
        result.active_contracts > 0) {
      reoptimized_share += static_cast<double>(result.reoptimized_advertisers) /
                           static_cast<double>(result.active_contracts);
      ++incremental_days;
    }
    PauseAfterUnit(options);
  }
  out->timed_wall_s = SecondsSince(timed_start);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  out->peak_rss_mb = PeakRssMb();

  AddIndexLayers(index, setup.build_s, out);
  AddEffort(delta, greedy_s, search_s, out);
  out->Exact("market.fallbacks", fallbacks);
  out->Layer("market.day_ms.incremental", Median(incremental_ms));
  out->Layer("market.day_ms.full", Median(full_ms));
  out->Layer("market.fallbacks", static_cast<double>(fallbacks));
  out->Layer("market.reoptimized_share",
             incremental_days > 0
                 ? reoptimized_share / static_cast<double>(incremental_days)
                 : 0.0);
  out->Layer("market.boards_touched_per_day",
             static_cast<double>(boards_touched) /
                 static_cast<double>(std::max<int64_t>(1, options.units)));
}

}  // namespace perfbench
