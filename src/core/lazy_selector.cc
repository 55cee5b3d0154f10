#include "core/lazy_selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/regret.h"

namespace mroam::core {

using market::AdvertiserId;
using model::BillboardId;

namespace {

/// The linear-branch bound gamma * L * gain_ub / D / I({o}) on a ratio,
/// in the one evaluation order both selection paths use.
double LinearBound(const market::Advertiser& ad, int64_t gain_ub,
                   double supplied, const RegretParams& params) {
  return params.gamma * ad.payment * static_cast<double>(gain_ub) /
         static_cast<double>(ad.demand) / supplied;
}

/// Upper bound on (R(S_a) - R(S_a ∪ {o})) / I({o}) given the advertiser's
/// exact current influence and an upper bound `gain_ub` on o's marginal
/// gain. The regret drop of adding g <= gain_ub trajectories is
///   * 0 when the advertiser is already satisfied (influence only adds
///     excess);
///   * R(influence) when gain_ub can bridge the remaining demand — the
///     drop is maximal at exact satisfaction, where the regret jumps to 0
///     (and gamma * L * g / demand <= R(influence) for every smaller g
///     since gamma <= 1);
///   * gamma * L * gain_ub / demand otherwise (both states stay on the
///     linear unsatisfied branch of Equation 1).
double RatioUpperBound(const market::Advertiser& ad, int64_t influence,
                       int64_t gain_ub, double supplied,
                       const RegretParams& params) {
  if (influence >= ad.demand) return 0.0;
  if (gain_ub >= ad.demand - influence) {
    return Regret(ad, influence, params) / supplied;
  }
  return LinearBound(ad, gain_ub, supplied, params);
}

/// The regret-delta ratio exactly as the selection rule computes it.
double Ratio(const market::Advertiser& ad, int64_t influence,
             double current_regret, int64_t gain, double supplied,
             const RegretParams& params) {
  return (current_regret - Regret(ad, influence + gain, params)) / supplied;
}

/// The unit roundoff u of double arithmetic.
constexpr double kRoundoff = std::numeric_limits<double>::epsilon() / 2;

/// On the linear branch, Ratio for a board of supply s rounds within
/// 10 u L / s + 2 u c of its exact value (c = gamma L / D; two regrets
/// within 4 u L each, their difference and the division): this many
/// u L, at s = 1, bound every candidate's rounding. Zero for gamma = 0,
/// where every regret is exactly the payment.
double RatioRoundingBound(const market::Advertiser& ad,
                          const RegretParams& params) {
  return params.gamma > 0.0 ? 128 * kRoundoff * ad.payment : 0.0;
}

/// The share of the tie tolerance within which the disjoint boards of
/// supply at least AdvertiserState::quiet_supply round around c: under
/// half, so all of them sit in each other's tie band.
constexpr double kQuietBand = 0.45;

void SetBit(std::vector<uint64_t>& bits, size_t i, bool on) {
  const uint64_t mask = uint64_t{1} << (i & 63);
  if (on) {
    bits[i >> 6] |= mask;
  } else {
    bits[i >> 6] &= ~mask;
  }
}

/// The first set bit of `bits` at or after `i`, or `end` when none is
/// below it.
size_t NextBit(const std::vector<uint64_t>& bits, size_t i, size_t end) {
  if (i >= end) return end;
  size_t word = i >> 6;
  uint64_t rest = bits[word] & (~uint64_t{0} << (i & 63));
  while (rest == 0) {
    if (++word >= bits.size()) return end;
    rest = bits[word];
  }
  return std::min(end, word * 64 + static_cast<size_t>(std::countr_zero(rest)));
}

}  // namespace

LazySelector::LazySelector(const Assignment* assignment, bool lazy)
    : assignment_(assignment),
      // Gains are only monotone under the set-union measure; the
      // impression-count model (threshold > 1) raises gains as counts
      // climb toward the threshold, so cached bounds would be unsound.
      lazy_active_(lazy && assignment->impression_threshold() == 1),
      states_(assignment->num_advertisers()) {
  if (!lazy_active_) return;
  const influence::InfluenceIndex& index = assignment_->index();
  const int32_t n = index.num_billboards();
  supply_.resize(static_cast<size_t>(n));
  for (BillboardId o = 0; o < n; ++o) {
    supply_[o] = static_cast<int32_t>(index.InfluenceOf(o));
    if (supply_[o] > 0) order_.push_back(o);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [this](BillboardId x, BillboardId y) {
                     return supply_[x] < supply_[y];
                   });
  position_.assign(static_cast<size_t>(n), -1);
  group_end_.resize(order_.size());
  for (size_t pos = order_.size(); pos-- > 0;) {
    position_[order_[pos]] = static_cast<int32_t>(pos);
    const bool last = pos + 1 == order_.size() ||
                      supply_[order_[pos + 1]] != supply_[order_[pos]];
    group_end_[pos] = last ? static_cast<int32_t>(pos + 1)
                           : group_end_[pos + 1];
  }
}

BillboardId LazySelector::ExhaustiveBest(AdvertiserId a) {
  const influence::InfluenceIndex& index = assignment_->index();
  const market::Advertiser& ad = assignment_->advertiser(a);
  const RegretParams& params = assignment_->params();
  const int64_t influence = assignment_->InfluenceOf(a);
  const double current_regret = Regret(ad, influence, params);
  // Zero-gain candidates are only *permanently* useless under the
  // set-union model; with an impression threshold m > 1 the first board
  // meeting a trajectory has gain 0 yet bootstraps coverage (greedy.h).
  const bool skip_zero_gain = assignment_->impression_threshold() == 1;
  Pick best;
  for (BillboardId o : assignment_->FreeBillboards()) {
    ++candidates_;
    const double supplied = static_cast<double>(index.InfluenceOf(o));
    if (supplied <= 0.0) continue;
    const int64_t gain = assignment_->MarginalGain(a, o);
    ++exact_evaluations_;
    if (gain == 0 && skip_zero_gain) continue;  // can never help again
    best.Offer({o, Ratio(ad, influence, current_regret, gain, supplied,
                         params),
                static_cast<double>(gain) / supplied});
  }
  return best.id;
}

BillboardId LazySelector::BestBillboard(AdvertiserId a) {
  if (!lazy_active_) return ExhaustiveBest(a);
  AdvertiserState& state = states_[a];
  Sync(a, state);
  // Below the satisfaction jump every candidate's ratio is linear in its
  // gain, which is what the frontier ranks by; a pick that might reach
  // the demand takes the pass.
  const int64_t gap =
      assignment_->advertiser(a).demand - assignment_->InfluenceOf(a);
  const int64_t max_supply = MaxFreeSupply();
  return max_supply >= gap ? PassBest(a, state)
                           : FrontierBest(a, state, max_supply);
}

void LazySelector::Sync(AdvertiserId a, AdvertiserState& state) {
  const influence::CoverageCounter& counter = assignment_->CounterOf(a);
  const std::vector<BillboardId>& set = assignment_->BillboardsOf(a);
  const std::vector<BillboardId>& exits = assignment_->pool_exits();
  const uint64_t free_add_epoch = assignment_->free_add_epoch();
  const size_t n = static_cast<size_t>(assignment_->num_billboards());
  const bool epoch_moved = counter.epoch() != state.last_scan_epoch;
  // Every cached gain falls back to the trivial bound I({o}) on first use
  // and after any shrink since the last call (a Release, or a counter
  // moved in by SwapSets / CopyDeploymentFrom): a gain cached before a
  // shrink bounds nothing.
  bool reset = !state.initialized;
  if (reset) {
    state.gain.resize(n);
    state.dirty.resize(n);
    state.version.assign(n, 0);
    state.disjoint.assign((order_.size() + 63) / 64, 0);
    state.quiet.assign((n + 63) / 64, 0);
    const market::Advertiser& ad = assignment_->advertiser(a);
    const double c = LinearBound(ad, 1, 1.0, assignment_->params());
    const double room = kQuietBand * kSelectionTieTolerance - 2 * kRoundoff * c;
    state.quiet_supply =
        room > 0.0 ? static_cast<int64_t>(
                         std::ceil(10 * kRoundoff * ad.payment / room))
                   : std::numeric_limits<int64_t>::max();
    state.quiet_from = static_cast<size_t>(
        std::partition_point(
            order_.begin(), order_.end(),
            [&](BillboardId o) { return supply_[o] < state.quiet_supply; }) -
        order_.begin());
    state.initialized = true;
  } else {
    reset = counter.last_shrink_epoch() > state.last_scan_epoch ||
            state.seen_set_size > set.size();
  }
  const bool refile = reset || free_add_epoch != state.seen_free_add_epoch;
  if (reset) {
    std::copy(supply_.begin(), supply_.end(), state.gain.begin());
    std::fill(state.dirty.begin(), state.dirty.end(), 1);
  } else if (epoch_moved) {
    // Only Adds since the last call: a cached gain stays exact unless its
    // board shares a trajectory with a board added since — the tail of
    // the set past seen_set_size (Assign appends).
    if (overlap_ == nullptr) overlap_ = &assignment_->index().board_overlap();
    for (size_t k = state.seen_set_size; k < set.size(); ++k) {
      overlap_->ForEachNeighbour(set[k], [&](BillboardId o) {
        MarkDirty(a, state, o, /*refile=*/!refile);
      });
    }
    // A gain is confirmed exact at the new epoch only for boards in the
    // pool now. Clean boards out of it left since the epoch last moved,
    // which the exit log lists unless the pool has grown since.
    if (free_add_epoch == state.exits_epoch) {
      for (size_t k = state.exits_from; k < exits.size(); ++k) {
        if (!IsFree(exits[k])) MarkDirty(a, state, exits[k], false);
      }
    } else {
      for (size_t o = 0; o < n; ++o) {
        const auto board = static_cast<BillboardId>(o);
        if (!IsFree(board)) MarkDirty(a, state, board, false);
      }
    }
  }
  if (epoch_moved) {
    state.exits_epoch = free_add_epoch;
    state.exits_from = exits.size();
  }
  if (refile) {
    if (set.empty()) {
      // Every count is zero, so each gain is its full supply — exact
      // without a walk (threshold 1 only, which lazy_active_ implies).
      for (BillboardId o : assignment_->FreeBillboards()) {
        state.gain[o] = supply_[o];
        state.dirty[o] = 0;
      }
    }
    RefileAll(a, state);
  } else if (state.clean.size() + state.bounded.size() +
                 (state.sorted.size() - state.sorted_from) >
             2 * n + 64) {
    RefileAll(a, state);  // purge dead entries
  }
  state.last_scan_epoch = counter.epoch();
  state.seen_set_size = set.size();
  state.seen_free_add_epoch = free_add_epoch;
}

void LazySelector::File(AdvertiserId a, AdvertiserState& state,
                        BillboardId o, bool bulk) {
  const int32_t gain = state.gain[o];
  const int32_t supplied = supply_[o];
  // A zero gain stays zero until a shrink resets every bound.
  if (gain == 0 || supplied <= 0) return;
  if (state.dirty[o] != 0) {
    const Bound bound{LinearBound(assignment_->advertiser(a), gain, supplied,
                                  assignment_->params()),
                      o, state.version[o]};
    if (bulk) {
      state.sorted.push_back(bound);
    } else {
      state.bounded.push_back(bound);
      std::push_heap(state.bounded.begin(), state.bounded.end(),
                     DrainOrder{});
    }
  } else if (gain == supplied) {
    if (supplied >= state.quiet_supply) {
      SetBit(state.quiet, static_cast<size_t>(o), true);
    } else {
      SetBit(state.disjoint, static_cast<size_t>(position_[o]), true);
    }
  } else if (state.clean_valid) {
    state.clean.push_back({gain, supplied, o, state.version[o]});
    std::push_heap(state.clean.begin(), state.clean.end(), CleanOrder{});
  }  // else built when first needed (FrontierBest)
}

void LazySelector::RefileAll(AdvertiserId a, AdvertiserState& state) {
  state.clean.clear();
  state.clean_valid = false;
  state.sorted.clear();
  state.sorted_from = 0;
  state.bounded.clear();
  std::fill(state.disjoint.begin(), state.disjoint.end(), 0);
  std::fill(state.quiet.begin(), state.quiet.end(), 0);
  for (BillboardId o : assignment_->FreeBillboards()) {
    File(a, state, o, /*bulk=*/true);
  }
  std::sort(state.sorted.begin(), state.sorted.end(),
            [](const Bound& x, const Bound& y) { return DrainOrder{}(y, x); });
}

void LazySelector::MarkDirty(AdvertiserId a, AdvertiserState& state,
                             BillboardId o, bool refile) {
  if (state.dirty[o] != 0) return;
  state.dirty[o] = 1;
  ++state.version[o];
  const int32_t pos = position_[o];
  if (pos >= 0) {
    SetBit(state.disjoint, static_cast<size_t>(pos), false);
    SetBit(state.quiet, static_cast<size_t>(o), false);
  }
  if (refile && IsFree(o)) {
    File(a, state, o);
  }
}

int64_t LazySelector::Rewalk(AdvertiserId a, AdvertiserState& state,
                             BillboardId o) {
  const int64_t gain = assignment_->CounterOf(a).MarginalGain(o);
  ++lazy_reevals_;
  ++exact_evaluations_;
  state.gain[o] = static_cast<int32_t>(gain);
  state.dirty[o] = 0;
  ++state.version[o];
  File(a, state, o);
  return gain;
}

int64_t LazySelector::MaxFreeSupply() {
  // Between pool growths boards only leave it, so the cursor only moves
  // down.
  if (supply_cursor_epoch_ != assignment_->free_add_epoch()) {
    supply_cursor_epoch_ = assignment_->free_add_epoch();
    supply_cursor_ = order_.size();
  }
  while (supply_cursor_ > 0 && !IsFree(order_[supply_cursor_ - 1])) {
    --supply_cursor_;
  }
  return supply_cursor_ > 0 ? supply_[order_[supply_cursor_ - 1]] : 0;
}

BillboardId LazySelector::PassBest(AdvertiserId a, AdvertiserState& state) {
  const market::Advertiser& ad = assignment_->advertiser(a);
  const RegretParams& params = assignment_->params();
  const int64_t influence = assignment_->InfluenceOf(a);
  const double current_regret = Regret(ad, influence, params);

  // One arithmetic pass over the live free pool: clean candidates compete
  // immediately from cache; dirty ones are deferred under an upper bound.
  Pick best;
  deferred_.clear();
  for (BillboardId o : assignment_->FreeBillboards()) {
    ++candidates_;
    const int64_t supplied = supply_[o];
    if (supplied <= 0) continue;
    const int64_t gain = state.gain[o];
    // Gains only shrink while the bound stays valid, so a zero stays
    // exact until the next shrink resets it (and never helps again).
    if (gain == 0) continue;
    const auto supply = static_cast<double>(supplied);
    if (state.dirty[o] != 0) {
      deferred_.push_back(
          {RatioUpperBound(ad, influence, gain, supply, params), o, 0});
      continue;
    }
    ++lazy_hits_;
    best.Offer({o, Ratio(ad, influence, current_regret, gain, supply, params),
                static_cast<double>(gain) / supply});
  }

  // Drain the deferred candidates best-bound-first. Every key
  // upper-bounds its entry's exact ratio, so once the top cannot reach
  // the tie band of the best exact ratio, no remaining entry can win any
  // tie-break: the best is the argmax.
  std::make_heap(deferred_.begin(), deferred_.end(), DrainOrder{});
  while (!deferred_.empty()) {
    const Bound top = deferred_.front();
    if (best.id != model::kInvalidBillboard &&
        top.key < best.ratio - kSelectionTieTolerance) {
      break;
    }
    std::pop_heap(deferred_.begin(), deferred_.end(), DrainOrder{});
    deferred_.pop_back();
    const BillboardId o = top.id;
    const int64_t gain = Rewalk(a, state, o);
    if (gain == 0) continue;
    const auto supply = static_cast<double>(supply_[o]);
    best.Offer({o, Ratio(ad, influence, current_regret, gain, supply, params),
                static_cast<double>(gain) / supply});
  }
  return best.id;
}

bool LazySelector::CleanWinner(AdvertiserId a, AdvertiserState& state,
                               int64_t max_supply, Pick* winner) {
  const market::Advertiser& ad = assignment_->advertiser(a);
  const RegretParams& params = assignment_->params();
  const int64_t influence = assignment_->InfluenceOf(a);
  const double current_regret = Regret(ad, influence, params);
  auto candidate = [&](BillboardId o, int64_t gain, int64_t supplied) {
    const auto supply = static_cast<double>(supplied);
    ++candidates_;
    return Pick{o, Ratio(ad, influence, current_regret, gain, supply, params),
                static_cast<double>(gain) / supply};
  };

  // The clean candidates of the top key level. With boards disjoint from
  // S_a in the pool (g = I({o}), the highest key) they are those. Equal
  // (g, I({o})) means equal computed ratios, so the smallest id of each
  // run of equal I({o}) stands for the run.
  std::vector<Pick>& level = level_;
  level.clear();
  for (size_t pos = NextBit(state.disjoint, 0, state.quiet_from);
       pos < state.quiet_from;) {
    const BillboardId o = order_[pos];
    if (!IsFree(o)) {  // left the pool since it was filed
      SetBit(state.disjoint, pos, false);
      pos = NextBit(state.disjoint, pos + 1, state.quiet_from);
      continue;
    }
    level.push_back(candidate(o, supply_[o], supply_[o]));
    pos = NextBit(state.disjoint, static_cast<size_t>(group_end_[pos]),
                  state.quiet_from);
  }
  // From quiet_supply on every ratio lies within `slack` of c, inside
  // each other's tie band, so their smallest id beats the rest of them.
  const size_t n = state.gain.size();
  size_t quiet = NextBit(state.quiet, 0, n);
  while (quiet < n && !IsFree(static_cast<BillboardId>(quiet))) {
    SetBit(state.quiet, quiet, false);
    quiet = NextBit(state.quiet, quiet + 1, n);
  }
  const double c = LinearBound(ad, 1, 1.0, params);
  const double slack =
      kQuietBand * kSelectionTieTolerance + 16 * kRoundoff * c;
  const size_t quiet_at = level.size();
  if (quiet < n) {
    const auto o = static_cast<BillboardId>(quiet);
    level.push_back(candidate(o, supply_[o], supply_[o]));
    const double high = c + slack;
    if (!(high - kSelectionTieTolerance < high)) return false;
  }
  // Once the tie band is narrower than an ulp of the ratio, equal ratios
  // no longer fall through to the id and the pass's visiting order
  // decides between them.
  for (const Pick& run : level) {
    if (!(run.ratio - kSelectionTieTolerance < run.ratio)) return false;
  }

  // Every other clean candidate has g < I({o}) <= max_supply, so its key
  // is at most (max_supply - 1) / max_supply. Without disjoint boards the
  // level is the run of equal keys atop the clean heap, and the entry
  // under it bounds the rest.
  Entry next{static_cast<int32_t>(max_supply - 1),
             static_cast<int32_t>(max_supply), 0, 0};
  if (level.empty()) {
    if (!state.clean_valid) {
      for (BillboardId o : assignment_->FreeBillboards()) {
        const int32_t gain = state.gain[o];
        if (state.dirty[o] == 0 && gain > 0 && gain < supply_[o]) {
          state.clean.push_back({gain, supply_[o], o, state.version[o]});
        }
      }
      std::make_heap(state.clean.begin(), state.clean.end(), CleanOrder{});
      state.clean_valid = true;
    }
    std::vector<Entry>& run = run_;
    run.clear();
    while (const Entry* top = LiveTop(state, state.clean, CleanOrder{})) {
      if (!run.empty() && !SameKey(*top, run.front())) break;
      run.push_back(*top);
      std::pop_heap(state.clean.begin(), state.clean.end(), CleanOrder{});
      state.clean.pop_back();
      level.push_back(candidate(run.back().id, run.back().gain,
                                run.back().supplied));
    }
    const Entry* below = LiveTop(state, state.clean, CleanOrder{});
    next = below != nullptr ? *below : Entry{};
    for (const Entry& entry : run) {
      state.clean.push_back(entry);
      std::push_heap(state.clean.begin(), state.clean.end(), CleanOrder{});
    }
  }
  if (level.empty()) return true;  // no clean candidate: *winner stays empty

  // The pass's clean winner is the candidate that wins every comparison
  // (the order it meets candidates in then does not matter). Rounding
  // can leave none, or a lower level within reach; the pass decides then.
  size_t w = 0;
  for (size_t i = 1; i < level.size(); ++i) {
    if (level[i].Beats(level[w])) w = i;
  }
  const Pick& best = level[w];
  for (size_t i = 0; i < level.size(); ++i) {
    if (i != w && (!best.Beats(level[i]) || level[i].Beats(best))) {
      return false;
    }
  }
  // A run winning over the quiet boards' representative beats all of
  // them alike only with its ratio clearly inside or outside the tie
  // band around c.
  if (w < quiet_at && quiet_at < level.size()) {
    const double off = std::abs(best.ratio - c);
    if (off >= kSelectionTieTolerance - slack &&
        off <= kSelectionTieTolerance + slack) {
      return false;
    }
  }
  // Every lower candidate's ratio is at most `next`'s key plus rounding
  // and its gain ratio at most `next`'s: the winner must beat them on
  // gain ratio within the tie band, and none may clear it.
  if (next.gain > 0) {
    const auto supply = static_cast<double>(next.supplied);
    const double ratio_ub = LinearBound(ad, next.gain, supply, params) *
                                (1.0 + 32 * kRoundoff) +
                            RatioRoundingBound(ad, params);
    const double gain_ratio = static_cast<double>(next.gain) / supply;
    if (!(ratio_ub < best.ratio + kSelectionTieTolerance) ||
        !(gain_ratio < best.gain_ratio - kSelectionTieTolerance)) {
      return false;
    }
  }
  *winner = best;
  return true;
}

BillboardId LazySelector::FrontierBest(AdvertiserId a, AdvertiserState& state,
                                       int64_t max_supply) {
  Pick best;
  if (!CleanWinner(a, state, max_supply, &best)) return PassBest(a, state);
  if (best.id != model::kInvalidBillboard) ++lazy_hits_;

  // The pass's drain, in its order: the dirty bounds are static below the
  // satisfaction jump. Boards filed by the last refile come from the
  // sorted run, later ones from the heap.
  const market::Advertiser& ad = assignment_->advertiser(a);
  const RegretParams& params = assignment_->params();
  const int64_t influence = assignment_->InfluenceOf(a);
  const double current_regret = Regret(ad, influence, params);
  while (true) {
    while (state.sorted_from < state.sorted.size() &&
           !Live(state, state.sorted[state.sorted_from])) {
      ++state.sorted_from;
      ++candidates_;
    }
    const Bound* heap_top = LiveTop(state, state.bounded, DrainOrder{});
    const bool from_sorted =
        state.sorted_from < state.sorted.size() &&
        (heap_top == nullptr ||
         DrainOrder{}(*heap_top, state.sorted[state.sorted_from]));
    const Bound* top =
        from_sorted ? &state.sorted[state.sorted_from] : heap_top;
    if (top == nullptr ||
        (best.id != model::kInvalidBillboard &&
         top->key < best.ratio - kSelectionTieTolerance)) {
      break;
    }
    const BillboardId o = top->id;
    if (from_sorted) {
      ++state.sorted_from;
    } else {
      std::pop_heap(state.bounded.begin(), state.bounded.end(), DrainOrder{});
      state.bounded.pop_back();
    }
    ++candidates_;
    const int64_t gain = Rewalk(a, state, o);
    if (gain == 0) continue;
    const auto supply = static_cast<double>(supply_[o]);
    best.Offer({o, Ratio(ad, influence, current_regret, gain, supply, params),
                static_cast<double>(gain) / supply});
  }
  return best.id;
}

}  // namespace mroam::core
