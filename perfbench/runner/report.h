// Shared plumbing of the benchmark runner: the raw result a workload hands
// back to perfbench/run.py, the in-memory span recorder of the traced run,
// and small timing helpers. All statistics (percentiles, medians, ratios)
// are computed by perfbench/harness.py from the raw samples written here.
#ifndef MROAM_PERFBENCH_REPORT_H_
#define MROAM_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Peak resident set of this process so far, in MiB (getrusage maxrss).
double PeakRssMb();

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Spans recorded by the benchmark around each call into a library layer.
/// Kept in memory while the run executes; serialized once at the end. A
/// disabled recorder makes every Scope a no-op (the untraced runs).
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. `layer` and `name` must be string literals. Spans nest per
  /// thread; a span's self time excludes the time of its direct children.
  class Scope {
   public:
    Scope(Spans* spans, const char* layer, const char* name, int64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;  ///< null when tracing is off
    const char* layer_;
    const char* name_;
    int64_t id_;
    int64_t start_ns_ = 0;
    int64_t child_ns_ = 0;
    Scope* parent_ = nullptr;
  };

  /// Chrome trace-event JSON: one "X" event per span, its layer as the
  /// category, its id and self time (microseconds) in args. The harness
  /// builds the per-layer self-time table from this file.
  std::string ChromeTraceJson() const;

 private:
  struct Record {
    const char* layer;
    const char* name;
    int64_t id;
    int tid;
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
  };
  void Add(const Record& record);

  const bool enabled_;
  mutable std::mutex mu_;  ///< guards records_
  std::vector<Record> records_;
};

/// What one workload run measured, before any statistics. Written as JSON
/// for perfbench/run.py.
struct RunOutput {
  std::string workload;
  /// One entry per repetition of the set-up (the harness reports the
  /// median).
  std::vector<double> setup_s;
  /// Wall milliseconds of each timed unit of work, in execution order.
  std::vector<double> unit_ms;
  /// Wall seconds of the whole timed phase (throughput denominator).
  double timed_wall_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Regret and payment summed over the timed work (plan-quality guard).
  double regret = 0.0;
  double payment = 0.0;
  /// Operations attempted (timed units plus output checks that are
  /// operations of their own, such as a determinism re-solve) and one
  /// message per operation that failed.
  int64_t attempted = 0;
  std::vector<std::string> failures;
  /// Counts that must repeat exactly at one seed (determinism guard).
  std::vector<std::pair<std::string, int64_t>> exact;
  /// Per-layer values, already in their reported unit.
  std::vector<std::pair<std::string, double>> layer;
  /// Per-layer sample series the harness turns into percentiles.
  std::vector<std::pair<std::string, std::vector<double>>> series;

  void Fail(std::string message) { failures.push_back(std::move(message)); }
  void Exact(std::string name, int64_t value) {
    exact.emplace_back(std::move(name), value);
  }
  void Layer(std::string name, double value) {
    layer.emplace_back(std::move(name), value);
  }

  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // MROAM_PERFBENCH_REPORT_H_
