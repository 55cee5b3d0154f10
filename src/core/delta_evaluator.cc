#include "core/delta_evaluator.h"

#include "core/regret.h"

namespace mroam::core {

using market::AdvertiserId;
using model::BillboardId;
using model::TrajectoryId;

DeltaEvaluator::DeltaEvaluator(const Assignment* assignment)
    : assignment_(assignment),
      cached_(assignment->impression_threshold() == 1),
      cache_(static_cast<size_t>(assignment->num_advertisers())) {
  if (cached_) overlap_ = &assignment->index().board_overlap();
}

int64_t DeltaEvaluator::Marginal(AdvertiserId a, BillboardId o) {
  std::vector<Entry>& row = cache_[static_cast<size_t>(a)];
  // Rows are allocated on first use: a restricted search only ever
  // touches its target advertisers.
  if (row.empty()) {
    row.resize(static_cast<size_t>(assignment_->num_billboards()));
  }
  Entry& entry = row[static_cast<size_t>(o)];
  const uint64_t epoch = assignment_->CounterOf(a).epoch();
  if (entry.stamp != epoch) {
    entry.value = assignment_->OwnerOf(o) == a
                      ? assignment_->MarginalLoss(a, o)
                      : assignment_->MarginalGain(a, o);
    entry.stamp = epoch;
    ++list_walks_;
  }
  return entry.value;
}

std::span<const TrajectoryId> DeltaEvaluator::ListOf(
    BillboardId o, std::vector<TrajectoryId>* scratch) const {
  const influence::InfluenceIndex& index = assignment_->index();
  if (index.has_plain()) return index.CoveredBy(o);
  scratch->clear();
  index.compressed_covered().Decode(o, scratch);
  return *scratch;
}

void DeltaEvaluator::AddCorrections(BillboardId x, BillboardId y,
                                    AdvertiserId a, int64_t* corr_a,
                                    AdvertiserId b, int64_t* corr_b) {
  ++list_walks_;
  const std::span<const TrajectoryId> xs = ListOf(x, &scratch_x_);
  const std::span<const TrajectoryId> ys = ListOf(y, &scratch_y_);
  const influence::CoverageCounter& counter_a = assignment_->CounterOf(a);
  const influence::CoverageCounter* counter_b =
      corr_b != nullptr ? &assignment_->CounterOf(b) : nullptr;
  size_t i = 0;
  size_t j = 0;
  while (i < xs.size() && j < ys.size()) {
    if (xs[i] < ys[j]) {
      ++i;
    } else if (ys[j] < xs[i]) {
      ++j;
    } else {
      const TrajectoryId t = xs[i];
      if (counter_a.CountOf(t) == 1) ++*corr_a;
      if (counter_b != nullptr && counter_b->CountOf(t) == 1) ++*corr_b;
      ++i;
      ++j;
    }
  }
}

// Each delta below mirrors its Assignment counterpart's final expression
// term for term, so equal integer influences give bit-identical doubles.

double DeltaEvaluator::DeltaExchangeAcross(BillboardId om, BillboardId on) {
  if (!cached_) {
    list_walks_ += 4;
    return assignment_->DeltaExchangeAcross(om, on);
  }
  const AdvertiserId a = assignment_->OwnerOf(om);
  const AdvertiserId b = assignment_->OwnerOf(on);
  MROAM_DCHECK(a != market::kNoAdvertiser && b != market::kNoAdvertiser &&
               a != b);
  int64_t new_a = assignment_->InfluenceOf(a) - Marginal(a, om) +
                  Marginal(a, on);
  int64_t new_b = assignment_->InfluenceOf(b) - Marginal(b, on) +
                  Marginal(b, om);
  if (overlap_->Overlap(om, on)) {
    AddCorrections(om, on, a, &new_a, b, &new_b);
  }
  const RegretParams& params = assignment_->params();
  return Regret(assignment_->advertiser(a), new_a, params) +
         Regret(assignment_->advertiser(b), new_b, params) -
         assignment_->RegretOf(a) - assignment_->RegretOf(b);
}

double DeltaEvaluator::DeltaReplace(BillboardId om, BillboardId on) {
  if (!cached_) {
    list_walks_ += 2;
    return assignment_->DeltaReplace(om, on);
  }
  const AdvertiserId a = assignment_->OwnerOf(om);
  MROAM_DCHECK(a != market::kNoAdvertiser);
  MROAM_DCHECK(assignment_->OwnerOf(on) == market::kNoAdvertiser);
  int64_t new_a = assignment_->InfluenceOf(a) - Marginal(a, om) +
                  Marginal(a, on);
  if (overlap_->Overlap(om, on)) {
    AddCorrections(om, on, a, &new_a, market::kNoAdvertiser, nullptr);
  }
  return Regret(assignment_->advertiser(a), new_a, assignment_->params()) -
         assignment_->RegretOf(a);
}

double DeltaEvaluator::DeltaRelease(BillboardId om) {
  if (!cached_) {
    list_walks_ += 1;
    return assignment_->DeltaRelease(om);
  }
  const AdvertiserId a = assignment_->OwnerOf(om);
  MROAM_DCHECK(a != market::kNoAdvertiser);
  const int64_t new_influence = assignment_->InfluenceOf(a) - Marginal(a, om);
  return Regret(assignment_->advertiser(a), new_influence,
                assignment_->params()) -
         assignment_->RegretOf(a);
}

}  // namespace mroam::core
