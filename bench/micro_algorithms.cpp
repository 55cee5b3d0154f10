// google-benchmark micro-benchmarks of the solver algorithms on a small
// NYC-like market: greedy heuristics, the local searches, and the
// assignment move primitives they are built from.
#include <benchmark/benchmark.h>

#include <initializer_list>

#include "bench_common.h"
#include "core/greedy.h"
#include "micro_main.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/local_search.h"
#include "market/workload.h"

namespace {

using namespace mroam;  // NOLINT: harness brevity

struct Fixture {
  model::Dataset dataset;
  influence::InfluenceIndex index;
  std::vector<market::Advertiser> advertisers;

  Fixture()
      : dataset([] {
          gen::NycLikeConfig config;
          config.num_billboards = 300;
          config.num_trajectories = 3000;
          common::Rng rng(1);
          return gen::GenerateNycLike(config, &rng);
        }()),
        index(influence::InfluenceIndex::Build(dataset, 100.0)) {
    market::WorkloadConfig workload;  // alpha=1, p=5% -> 20 advertisers
    common::Rng rng(7);
    advertisers = market::GenerateAdvertisers(index.TotalSupply(), workload,
                                              &rng)
                      .value();
  }
};

Fixture& TheFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Attaches registry counters (delta over the timed loop, averaged per
// iteration) to the benchmark's BENCH_micro_algorithms.json entry and
// returns the after-snapshot.
obs::MetricsSnapshot ReportCounters(benchmark::State& state,
                                    const obs::MetricsSnapshot& before,
                                    std::initializer_list<const char*> names) {
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  for (const char* name : names) {
    state.counters[name] = benchmark::Counter(
        static_cast<double>(after.CounterOf(name) - before.CounterOf(name)),
        benchmark::Counter::kAvgIterations);
  }
  return after;
}

// The greedy selection-effort counters, so the lazy and naive variants
// sit side by side: "deltas" is the number of incidence-list walks the
// selection rule paid for, "candidates" the entries it examined to find
// them. Tier-1 gates both exactly (bench/baselines/
// micro_algorithms_counters.json, micro_greedy_candidates.json).
void ReportSelectionCounters(benchmark::State& state,
                             const obs::MetricsSnapshot& before) {
  ReportCounters(state, before,
                 {"greedy.deltas", "greedy.candidates", "greedy.lazy_hits",
                  "greedy.lazy_reevals"});
}

template <typename GreedyFn>
void RunGreedyBench(benchmark::State& state, GreedyFn greedy,
                    bool lazy_selection) {
  Fixture& f = TheFixture();
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
    greedy(&s, lazy_selection);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
  ReportSelectionCounters(state, before);
}

void BM_BudgetEffectiveGreedyLazy(benchmark::State& state) {
  RunGreedyBench(state, core::BudgetEffectiveGreedy, /*lazy_selection=*/true);
}
BENCHMARK(BM_BudgetEffectiveGreedyLazy)->Unit(benchmark::kMillisecond);

void BM_BudgetEffectiveGreedyNaive(benchmark::State& state) {
  RunGreedyBench(state, core::BudgetEffectiveGreedy, /*lazy_selection=*/false);
}
BENCHMARK(BM_BudgetEffectiveGreedyNaive)->Unit(benchmark::kMillisecond);

void BM_SynchronousGreedyLazy(benchmark::State& state) {
  RunGreedyBench(state, core::SynchronousGreedy, /*lazy_selection=*/true);
}
BENCHMARK(BM_SynchronousGreedyLazy)->Unit(benchmark::kMillisecond);

void BM_SynchronousGreedyNaive(benchmark::State& state) {
  RunGreedyBench(state, core::SynchronousGreedy, /*lazy_selection=*/false);
}
BENCHMARK(BM_SynchronousGreedyNaive)->Unit(benchmark::kMillisecond);

void BM_AdvertiserDrivenLocalSearch(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment greedy(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&greedy);
  for (auto _ : state) {
    core::Assignment s = greedy;
    core::LocalSearchConfig config;
    core::AdvertiserDrivenLocalSearch(&s, config);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
}
BENCHMARK(BM_AdvertiserDrivenLocalSearch)->Unit(benchmark::kMillisecond);

// Also reports BLS effort per move class and the incidence-list walks
// behind it; tier-1 gates these exactly (bench/baselines/
// micro_bls_counters.json), and the move-4 completions' selector effort
// with the greedy benches. The exact delta walks cost 4, 2 and 1 per
// exchange, replace and release delta; bls.list_walks_per_delta shows
// what the cached path pays instead (DESIGN.md §5.2).
void BM_BillboardDrivenLocalSearch(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment greedy(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&greedy);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    core::Assignment s = greedy;
    core::LocalSearchConfig config;
    config.max_sweeps = 2;
    config.max_exchange_candidates = 200;
    common::Rng rng(3);
    core::BillboardDrivenLocalSearch(&s, config, &rng);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
  const obs::MetricsSnapshot after = ReportCounters(
      state, before,
      {"bls.deltas_evaluated", "bls.deltas.exchange", "bls.deltas.replace",
       "bls.deltas.release", "bls.list_walks", "greedy.deltas",
       "greedy.candidates"});
  const int64_t deltas = after.CounterOf("bls.deltas_evaluated") -
                         before.CounterOf("bls.deltas_evaluated");
  if (deltas > 0) {
    state.counters["bls.list_walks_per_delta"] =
        static_cast<double>(after.CounterOf("bls.list_walks") -
                            before.CounterOf("bls.list_walks")) /
        static_cast<double>(deltas);
  }
}
BENCHMARK(BM_BillboardDrivenLocalSearch)->Unit(benchmark::kMillisecond);

void BM_DeltaExchangeAcross(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
  core::SynchronousGreedy(&s);
  // Pick two advertisers with billboards.
  market::AdvertiserId a = 0, b = 1;
  for (int32_t i = 0; i < s.num_advertisers(); ++i) {
    if (!s.BillboardsOf(i).empty()) {
      a = i;
      break;
    }
  }
  for (int32_t i = a + 1; i < s.num_advertisers(); ++i) {
    if (!s.BillboardsOf(i).empty()) {
      b = i;
      break;
    }
  }
  size_t pa = 0, pb = 0;
  for (auto _ : state) {
    const auto& sa = s.BillboardsOf(a);
    const auto& sb = s.BillboardsOf(b);
    benchmark::DoNotOptimize(
        s.DeltaExchangeAcross(sa[pa % sa.size()], sb[pb % sb.size()]));
    ++pa;
    ++pb;
  }
}
BENCHMARK(BM_DeltaExchangeAcross);

void BM_AssignReleaseRoundTrip(benchmark::State& state) {
  Fixture& f = TheFixture();
  core::Assignment s(&f.index, f.advertisers, core::RegretParams{0.5});
  for (auto _ : state) {
    model::BillboardId o = s.FreeBillboards().front();
    s.Assign(o, 0);
    s.Release(o);
    benchmark::DoNotOptimize(s.TotalRegret());
  }
}
BENCHMARK(BM_AssignReleaseRoundTrip);

// The cost a hot path pays for an MROAM_TRACE_SPAN when tracing is not
// enabled (the DESIGN.md §6 "disabled-path cost" number): one relaxed
// atomic load per span.
void BM_DisabledScopedSpan(benchmark::State& state) {
  for (auto _ : state) {
    MROAM_TRACE_SPAN("bench.disabled_span");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_DisabledScopedSpan);

}  // namespace

int main(int argc, char** argv) {
  return mroam::bench::RunMicroBenchmarkMain(argc, argv, "micro_algorithms");
}
