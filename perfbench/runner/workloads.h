// The three benchmark workloads (see perfbench/NOTES.md for why each
// exists and which layers it bypasses). Each runs a fixed, seeded amount
// of work — `units` markets, days or contracts — so which operations are
// timed never depends on how fast the run goes.
#ifndef MROAM_PERFBENCH_WORKLOADS_H_
#define MROAM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "influence/influence_index.h"
#include "model/dataset.h"
#include "obs/metrics.h"
#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Timed units of work: markets (plan-nyc), days (replan-sg) or
  /// contracts (serve-mmap).
  int64_t units = 0;
  /// Shrinks the cities (billboards and trajectories) for the harness
  /// self-tests; 1 is paper scale.
  double scale = 1.0;
  /// Self-test hook: sleeps this long after each unit, outside its timing,
  /// to show that a slower run still does the same work.
  int unit_delay_ms = 0;
  /// serve-mmap: the v2 snapshot written by PrepareSnapshot.
  std::string snapshot;
  /// serve-mmap: open-loop arrival rate, contracts per second.
  double rate = 0.0;
};

void RunPlanNyc(const Options& options, Spans* spans, RunOutput* out);
void RunReplanSg(const Options& options, Spans* spans, RunOutput* out);
void RunServeMmap(const Options& options, Spans* spans, RunOutput* out);

/// serve-mmap's offline step: generates the NYC-like city, builds its
/// index and saves a v2 snapshot to `options.snapshot`. Returns false
/// (after printing why) on failure.
bool PrepareSnapshot(const Options& options, Spans* spans);

// --- shared by the workloads ---------------------------------------------

/// Influence radius lambda of every workload (Table 6 default).
inline constexpr double kLambdaMeters = 100.0;

/// The fixed NYC-like city at paper scale (Table 5: 1462 boards; 60k
/// trajectories), shrunk by `options.scale`.
mroam::model::Dataset MakeNycCity(const Options& options);

/// Index-layer metrics: postings (also guarded exactly), bytes per
/// compressed posting, and `build_s` when the workload built the index.
void AddIndexLayers(const mroam::influence::InfluenceIndex& index,
                    double build_s, RunOutput* out);

/// Greedy-layer metrics from a registry delta over the timed work.
void AddGreedyLayers(const mroam::obs::MetricsSnapshot& delta,
                     double greedy_s, RunOutput* out);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Empty when the billboard sets are pairwise disjoint and every id is in
/// [0, num_billboards); otherwise a description of the first violation.
std::string CheckDisjoint(
    const std::vector<std::vector<mroam::model::BillboardId>>& sets,
    int32_t num_billboards);

}  // namespace perfbench

#endif  // MROAM_PERFBENCH_WORKLOADS_H_
