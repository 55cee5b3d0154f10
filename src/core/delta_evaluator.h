#ifndef MROAM_CORE_DELTA_EVALUATOR_H_
#define MROAM_CORE_DELTA_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/assignment.h"

namespace mroam::core {

/// The regret deltas of BLS moves 1-3 (Algorithm 5) from epoch-cached
/// marginals. Returns exactly what Assignment::DeltaExchangeAcross /
/// DeltaReplace / DeltaRelease return, bit for bit, but under the
/// set-union measure (impression_threshold == 1) without their four
/// incidence-list walks per delta. The identity it rests on is
///
///   GainAfterRemove_a(add, rem)
///       = Gain_a(add) + |{t in L(add) ∩ L(rem) : count_a[t] = 1}|
///
/// (DESIGN.md §5.2): the first term depends only on S_a, so it is cached,
/// and the correction is zero unless the two boards share a trajectory,
/// which InfluenceIndex::board_overlap() answers in O(1).
///
/// The cache holds one value per (advertiser, billboard): MarginalLoss
/// when the advertiser owns the board, MarginalGain when not. Each value
/// is stamped with the advertiser's CoverageCounter::epoch() and refilled
/// by one walk when the stamp is stale. Ownership of a board by `a` only
/// changes through a mutation of a's counter, so one slot serves both
/// meanings. For an overlapping pair, one merge walk of the two lists
/// yields the correction of both advertisers of an exchange.
///
/// With impression_threshold > 1 the identity does not hold, and every
/// query runs the Assignment's exact walk instead (as LazySelector falls
/// back to its exhaustive scan).
///
/// The evaluator holds no deployment state beyond epoch observations: it
/// must not outlive `assignment` and tolerates arbitrary interleaved
/// mutations of it.
class DeltaEvaluator {
 public:
  /// `assignment` must outlive the evaluator. Under threshold 1 this
  /// builds the index's board-overlap bitset if no one has yet.
  explicit DeltaEvaluator(const Assignment* assignment);

  /// Equals assignment->DeltaExchangeAcross(om, on).
  double DeltaExchangeAcross(model::BillboardId om, model::BillboardId on);

  /// Equals assignment->DeltaReplace(om, on).
  double DeltaReplace(model::BillboardId om, model::BillboardId on);

  /// Equals assignment->DeltaRelease(om).
  double DeltaRelease(model::BillboardId om);

  /// Incidence-list walks paid so far: cache refills plus overlap
  /// merges (threshold 1), or the exact walks (4, 2 and 1 per exchange,
  /// replace and release delta) otherwise.
  int64_t list_walks() const { return list_walks_; }

 private:
  struct Entry {
    uint64_t stamp = 0;  ///< counter epoch of `value`; 0 = never filled
    int64_t value = 0;   ///< Loss if the advertiser owns the board, else Gain
  };

  /// Loss_a(o) if `a` owns `o`, else Gain_a(o); one walk when stale.
  int64_t Marginal(market::AdvertiserId a, model::BillboardId o);

  /// o's sorted trajectory list (decoded into `scratch` when the index
  /// holds no plain lists).
  std::span<const model::TrajectoryId> ListOf(
      model::BillboardId o, std::vector<model::TrajectoryId>* scratch) const;

  /// Adds to *corr_a (and *corr_b, when non-null) the trajectories of
  /// L(x) ∩ L(y) that a's (b's) set covers exactly once. One merge walk.
  void AddCorrections(model::BillboardId x, model::BillboardId y,
                      market::AdvertiserId a, int64_t* corr_a,
                      market::AdvertiserId b, int64_t* corr_b);

  const Assignment* assignment_;
  const bool cached_;  ///< impression_threshold == 1
  const influence::BoardOverlap* overlap_ = nullptr;  ///< set iff cached_
  std::vector<std::vector<Entry>> cache_;  ///< by advertiser, by board
  std::vector<model::TrajectoryId> scratch_x_, scratch_y_;
  int64_t list_walks_ = 0;
};

}  // namespace mroam::core

#endif  // MROAM_CORE_DELTA_EVALUATOR_H_
