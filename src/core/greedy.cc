#include "core/greedy.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/lazy_selector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mroam::core {

using market::AdvertiserId;
using model::BillboardId;

namespace {

/// Selector effort counters captured at the start of a greedy run, so the
/// per-run registry flush stays correct for *persistent* selectors (whose
/// lifetime counters span many runs) as well as locally constructed ones.
struct SelectorEffort {
  int64_t exact_evaluations = 0;
  int64_t lazy_hits = 0;
  int64_t lazy_reevals = 0;
  int64_t candidates = 0;

  static SelectorEffort Of(const LazySelector& selector) {
    return {selector.exact_evaluations(), selector.lazy_hits(),
            selector.lazy_reevals(), selector.candidates()};
  }
};

/// One registry flush per greedy run: exact evaluations (incidence-list
/// walks) under the shared "greedy.deltas" name — the number the
/// lazy-vs-exhaustive comparison in micro_algorithms reads — plus the
/// lazy engine's hit/re-evaluation split and the candidates the selector
/// examined ("greedy.candidates"). Flushes the delta over `entry`, i.e.
/// the effort this run added.
void FlushSelectorCounters(const LazySelector& selector,
                           const SelectorEffort& entry) {
  MROAM_COUNTER_ADD("greedy.deltas",
                    selector.exact_evaluations() - entry.exact_evaluations);
  MROAM_COUNTER_ADD("greedy.candidates",
                    selector.candidates() - entry.candidates);
  MROAM_COUNTER_ADD("greedy.lazy_hits", selector.lazy_hits() - entry.lazy_hits);
  MROAM_COUNTER_ADD("greedy.lazy_reevals",
                    selector.lazy_reevals() - entry.lazy_reevals);
}

}  // namespace

BillboardId BestBillboardFor(const Assignment& assignment, AdvertiserId a) {
  LazySelector selector(&assignment, /*lazy=*/false);
  return selector.BestBillboard(a);
}

void BudgetEffectiveGreedy(Assignment* assignment, bool lazy_selection) {
  MROAM_TRACE_SPAN("greedy.budget_effective");
  LazySelector selector(assignment, lazy_selection);
  const SelectorEffort entry = SelectorEffort::Of(selector);
  int64_t assigned = 0;
  std::vector<AdvertiserId> order(assignment->num_advertisers());
  for (int32_t a = 0; a < assignment->num_advertisers(); ++a) order[a] = a;
  std::sort(order.begin(), order.end(),
            [assignment](AdvertiserId a, AdvertiserId b) {
              double ea = assignment->advertiser(a).BudgetEffectiveness();
              double eb = assignment->advertiser(b).BudgetEffectiveness();
              if (ea != eb) return ea > eb;
              return a < b;
            });
  for (AdvertiserId a : order) {
    while (!assignment->IsSatisfied(a)) {
      BillboardId o = selector.BestBillboard(a);
      if (o == model::kInvalidBillboard) break;  // nothing can still help
      assignment->Assign(o, a);
      ++assigned;
    }
  }
  // One flush per call: the registry never sits in the inner loop.
  MROAM_COUNTER_ADD("greedy.budget_effective_runs", 1);
  MROAM_COUNTER_ADD("greedy.assignments", assigned);
  FlushSelectorCounters(selector, entry);
}

void SynchronousGreedy(Assignment* assignment, bool lazy_selection) {
  std::vector<AdvertiserId> all(assignment->num_advertisers());
  for (int32_t a = 0; a < assignment->num_advertisers(); ++a) all[a] = a;
  SynchronousGreedyOver(assignment, all, lazy_selection);
}

void SynchronousGreedyOver(Assignment* assignment,
                           const std::vector<AdvertiserId>& targets,
                           bool lazy_selection, LazySelector* external) {
  MROAM_TRACE_SPAN("greedy.synchronous");
  std::optional<LazySelector> local;
  if (external == nullptr) {
    local.emplace(assignment, lazy_selection);
  } else {
    MROAM_DCHECK(external->assignment() == assignment);
  }
  LazySelector& selector = external != nullptr ? *external : *local;
  const SelectorEffort entry = SelectorEffort::Of(selector);
  int64_t assigned = 0;
  int64_t victims = 0;
  const int32_t n = assignment->num_advertisers();
  std::vector<bool> active(n, false);
  for (AdvertiserId a : targets) {
    MROAM_DCHECK(a >= 0 && a < n);
    active[a] = true;
  }

  auto unsatisfied_active = [&]() {
    std::vector<AdvertiserId> out;
    for (AdvertiserId a : targets) {
      if (active[a] && !assignment->IsSatisfied(a)) out.push_back(a);
    }
    return out;
  };

  // Counters flush once on every exit path, never inside the round loop.
  auto flush = [&] {
    MROAM_COUNTER_ADD("greedy.synchronous_runs", 1);
    MROAM_COUNTER_ADD("greedy.assignments", assigned);
    MROAM_COUNTER_ADD("greedy.victims_released", victims);
    FlushSelectorCounters(selector, entry);
  };

  while (true) {
    bool assigned_any = false;
    for (AdvertiserId a : targets) {
      if (!active[a] || assignment->IsSatisfied(a)) continue;
      BillboardId o = selector.BestBillboard(a);
      if (o == model::kInvalidBillboard) continue;
      assignment->Assign(o, a);
      assigned_any = true;
      ++assigned;
    }
    std::vector<AdvertiserId> unsat = unsatisfied_active();
    if (unsat.empty()) return flush();
    if (assigned_any) continue;

    // No billboard could be handed out this round. Release the least
    // budget-effective unsatisfied advertiser so the rest can be served,
    // unless at most one advertiser remains unsatisfied.
    if (unsat.size() < 2) return flush();
    AdvertiserId victim = unsat[0];
    for (AdvertiserId a : unsat) {
      if (assignment->advertiser(a).BudgetEffectiveness() <
          assignment->advertiser(victim).BudgetEffectiveness()) {
        victim = a;
      }
    }
    assignment->ReleaseAll(victim);
    active[victim] = false;
    ++victims;
  }
}

}  // namespace mroam::core
