#ifndef MROAM_CORE_LAZY_SELECTOR_H_
#define MROAM_CORE_LAZY_SELECTOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/assignment.h"

namespace mroam::core {

/// Comparison tolerance of the greedy selection rule: ratios within this
/// band tie and fall through to the next tie-break key.
inline constexpr double kSelectionTieTolerance = 1e-12;

/// The greedy selection comparator shared by the exhaustive scan and the
/// lazy selector (Algorithms 1 & 2, lines 1.5 / 2.6): a candidate beats
/// the incumbent on a strictly higher regret-delta ratio; within the tie
/// band it wins on a higher marginal-gain ratio, then on a smaller id.
/// Keeping this in one place is what makes the two selection paths
/// bit-identical.
inline bool SelectionBeats(double ratio, double gain_ratio,
                           model::BillboardId id, double best_ratio,
                           double best_gain_ratio,
                           model::BillboardId best_id) {
  if (ratio > best_ratio + kSelectionTieTolerance) return true;
  if (ratio > best_ratio - kSelectionTieTolerance) {
    if (gain_ratio > best_gain_ratio + kSelectionTieTolerance) return true;
    if (gain_ratio > best_gain_ratio - kSelectionTieTolerance &&
        id < best_id) {
      return true;
    }
  }
  return false;
}

/// CELF-style lazy argmax for the greedy selection rule
/// (R(S_a) - R(S_a ∪ {o})) / I({o}).
///
/// The expensive unit of the exhaustive scan is the incidence-list walk
/// behind MarginalGain — one per free billboard per pick. The selector
/// keeps, per advertiser, each board's cached marginal gain and a dirty
/// bit (DESIGN.md §5.1):
///
///  * a clean gain is exact;
///  * a dirty gain is an upper bound. With impression_threshold == 1 a
///    gain never rises while S_a only grows (CoverageCounter::
///    last_shrink_epoch()), so a gain once exact stays a bound until the
///    counter shrinks; a shrink resets every bound to I({o}).
///
/// A gain changes only when a board sharing a trajectory with it joins
/// S_a, so a call whose counter epoch moved marks dirty the neighbours
/// (InfluenceIndex::board_overlap()) of the boards added to S_a since the
/// previous call, and every board then out of the free pool
/// (Assignment::pool_exits()): a gain is confirmed exact only for boards
/// a call sees in the pool.
///
/// Every pick is the reference pass's result: the best clean candidate
/// under SelectionBeats (clean candidates compete from cache), then a
/// drain of the dirty ones in the order of an O(1) upper bound on their
/// ratio, walking each until the top bound cannot reach the tie band of
/// the best exact ratio. The satisfaction jump makes the drop
/// non-submodular, so the bound takes the jump when the gain bound can
/// bridge the gap D - I(S_a).
///
/// A pick that cannot reach the demand (every free I({o}) below the gap)
/// needs no pass over the free pool. Its candidates sit on the linear
/// branch of Equation 1, so the dirty bounds do not depend on I(S_a) and
/// a persistent max-heap holds the drain order. The clean candidates
/// rank by g / I({o}); a candidate's computed ratio depends only on
/// (g, I({o})), so the best clean candidate is found among the top key
/// level alone — the boards disjoint from S_a (g = I({o})) grouped by
/// I({o}), whose rounding differs by group, or else the top of a heap of
/// the others — checked against the next level. When rounding leaves no
/// candidate that wins every comparison, the pick takes the pass.
/// Dead heap entries are dropped lazily: a version per board marks its
/// live entry.
///
/// For impression_threshold > 1 gains are not monotone (counts climbing
/// toward the threshold *raise* gains), so the selector detects it on
/// construction and every query falls back to the exhaustive scan. The
/// same happens when constructed with lazy = false (the solver knob).
///
/// The selector holds no Assignment state beyond epoch observations: it
/// must not outlive `assignment`, and tolerates arbitrary interleaved
/// mutations between calls (counter epochs, free_add_epoch() and
/// pool_exits() tell it what changed). Picks and walk counts equal the
/// pass's, which is bit-for-bit the exhaustive scan whenever candidate
/// ratios are either exactly tied or separated by more than the tie
/// tolerance (true for every instance the equivalence suite draws).
class LazySelector {
 public:
  /// `assignment` must outlive the selector. `lazy` = false forces the
  /// exhaustive scan (the comparison baseline and the solver knob's off
  /// position).
  explicit LazySelector(const Assignment* assignment, bool lazy = true);

  /// The best free billboard for `a` under the selection rule;
  /// model::kInvalidBillboard when no eligible candidate exists. Under
  /// the set-union model zero-marginal-gain candidates are ineligible —
  /// they can never raise I(S_a) again; with impression_threshold > 1
  /// they stay eligible (see greedy.h on the bootstrap role they play).
  model::BillboardId BestBillboard(market::AdvertiserId a);

  /// True when CELF-style selection is active (lazy requested and
  /// impression_threshold == 1).
  bool lazy_active() const { return lazy_active_; }

  /// The assignment this selector observes (callers reusing one selector
  /// across greedy runs assert they hand it the matching assignment).
  const Assignment* assignment() const { return assignment_; }

  // Effort counters over the selector's lifetime. The greedy drivers
  // flush them into the obs registry once per run (never per pick).

  /// Exact marginal-gain evaluations, i.e. incidence-list walks. The
  /// exhaustive scan pays one per candidate per pick; the lazy path only
  /// pays for re-evaluations.
  int64_t exact_evaluations() const { return exact_evaluations_; }
  /// Picks whose clean winner the frontier found without a pass, plus
  /// clean candidates the pass resolved from cache (no list walk either
  /// way).
  int64_t lazy_hits() const { return lazy_hits_; }
  /// Dirty candidates that had to recompute their gain (one list walk).
  int64_t lazy_reevals() const { return lazy_reevals_; }
  /// Candidates examined: frontier candidates and heap entries popped,
  /// plus free-pool entries the pass or the exhaustive scan visits.
  int64_t candidates() const { return candidates_; }

 private:
  /// A clean-heap entry: the board's exact gain when pushed.
  struct Entry {
    int32_t gain = 0;
    int32_t supplied = 0;  ///< I({o})
    model::BillboardId id = model::kInvalidBillboard;
    uint32_t version = 0;
  };
  /// A drain entry: the upper bound on the board's ratio when pushed.
  struct Bound {
    double key = 0.0;
    model::BillboardId id = model::kInvalidBillboard;
    uint32_t version = 0;
  };

  /// Same g / I({o}) (exact, in int64).
  static bool SameKey(const Entry& x, const Entry& y) {
    return int64_t{x.gain} * y.supplied == int64_t{y.gain} * x.supplied;
  }
  /// Max-heap order of clean entries: higher g / I({o}), then smaller id.
  struct CleanOrder {
    bool operator()(const Entry& x, const Entry& y) const {
      const int64_t lhs = int64_t{x.gain} * y.supplied;
      const int64_t rhs = int64_t{y.gain} * x.supplied;
      if (lhs != rhs) return lhs < rhs;
      return x.id > y.id;
    }
  };
  /// Max-heap order of the drain: higher key first, then smaller id, so
  /// the drain sequence is fully specified.
  struct DrainOrder {
    bool operator()(const Bound& x, const Bound& y) const {
      if (x.key != y.key) return x.key < y.key;
      return x.id > y.id;
    }
  };

  /// A candidate with its selection keys; as the running best of a scan,
  /// id = kInvalidBillboard until the first offer.
  struct Pick {
    model::BillboardId id = model::kInvalidBillboard;
    double ratio = 0.0;
    double gain_ratio = 0.0;

    bool Beats(const Pick& other) const {
      return SelectionBeats(ratio, gain_ratio, id, other.ratio,
                            other.gain_ratio, other.id);
    }
    /// Takes `candidate` when it is the first or beats the best so far.
    void Offer(const Pick& candidate) {
      if (id == model::kInvalidBillboard || candidate.Beats(*this)) {
        *this = candidate;
      }
    }
  };

  struct AdvertiserState {
    bool initialized = false;
    std::vector<int32_t> gain;      ///< by billboard: exact if clean
    std::vector<uint8_t> dirty;     ///< by billboard
    std::vector<uint32_t> version;  ///< by billboard: its live entry
    /// Clean boards with g = I({o}): below quiet_supply one bit per
    /// position of order_, from it on one bit per board id.
    std::vector<uint64_t> disjoint;
    std::vector<uint64_t> quiet;
    /// The least I({o}) whose ratio rounding provably stays within
    /// kQuietBand of the tie tolerance around gamma L / D, and the first
    /// position of order_ at or above it.
    int64_t quiet_supply = 0;
    size_t quiet_from = 0;
    /// Max-heap of the other clean boards, kept only once a pick has
    /// needed it (until the next refile).
    std::vector<Entry> clean;
    bool clean_valid = false;
    /// Dirty boards in drain order: those filed by the last refile
    /// sorted best first (consumed from `sorted_from`), later ones in a
    /// max-heap.
    std::vector<Bound> sorted;
    size_t sorted_from = 0;
    std::vector<Bound> bounded;
    /// Counter epoch at the last call (0 = never called).
    uint64_t last_scan_epoch = 0;
    /// |BillboardsOf(a)| at the last call. While the counter only grows,
    /// boards added since then are exactly the list's tail beyond this
    /// size (Assignment appends on Assign).
    size_t seen_set_size = 0;
    /// Assignment::free_add_epoch() at the last call.
    uint64_t seen_free_add_epoch = 0;
    /// free_add_epoch() and |pool_exits()| when the counter epoch last
    /// moved: boards out of the pool then were filed dirty.
    uint64_t exits_epoch = 0;
    size_t exits_from = 0;
  };

  model::BillboardId ExhaustiveBest(market::AdvertiserId a);
  /// Brings `state` up to the current deployment: marks dirty every board
  /// whose cached gain may have changed or that left the pool, and
  /// refiles every board when the pool grew or the counter shrank.
  void Sync(market::AdvertiserId a, AdvertiserState& state);
  /// Files free board `o` under its current gain and dirty bit; `bulk`
  /// appends a dirty board to `sorted` for RefileAll to sort.
  void File(market::AdvertiserId a, AdvertiserState& state,
            model::BillboardId o, bool bulk = false);
  void RefileAll(market::AdvertiserId a, AdvertiserState& state);
  /// Marks `o` dirty; `refile` pushes its drain entry when it is free.
  void MarkDirty(market::AdvertiserId a, AdvertiserState& state,
                 model::BillboardId o, bool refile);
  /// One list walk: stores o's exact gain, files it clean, returns it.
  int64_t Rewalk(market::AdvertiserId a, AdvertiserState& state,
                 model::BillboardId o);
  /// The largest I({o}) over the free pool (0 when it is empty).
  int64_t MaxFreeSupply();
  model::BillboardId PassBest(market::AdvertiserId a,
                              AdvertiserState& state);
  /// `max_supply` is MaxFreeSupply(), below the demand gap.
  model::BillboardId FrontierBest(market::AdvertiserId a,
                                  AdvertiserState& state, int64_t max_supply);
  /// The winner the pass's scan of the clean candidates would reach, found
  /// from the frontier (`winner->id` stays invalid without clean
  /// candidates); false when rounding leaves the pass to decide.
  bool CleanWinner(market::AdvertiserId a, AdvertiserState& state,
                   int64_t max_supply, Pick* winner);

  bool IsFree(model::BillboardId o) const {
    return assignment_->OwnerOf(o) == market::kNoAdvertiser;
  }
  /// Whether a heap entry still describes a free board's cached state.
  template <typename Heaped>
  bool Live(const AdvertiserState& state, const Heaped& entry) const {
    return entry.version == state.version[entry.id] && IsFree(entry.id);
  }
  /// The live top of a heap, dropping dead entries on the way.
  template <typename Heaped, typename Order>
  const Heaped* LiveTop(const AdvertiserState& state,
                        std::vector<Heaped>& heap, Order order) {
    while (!heap.empty()) {
      const Heaped& top = heap.front();
      if (Live(state, top)) return &top;
      std::pop_heap(heap.begin(), heap.end(), order);
      heap.pop_back();
      ++candidates_;
    }
    return nullptr;
  }

  const Assignment* assignment_;
  bool lazy_active_;
  std::vector<AdvertiserState> states_;  // by advertiser, lazily built
  const influence::BoardOverlap* overlap_ = nullptr;  // fetched on first use
  std::vector<int32_t> supply_;  ///< I({o}) by board
  /// Boards with I({o}) > 0 by ascending I({o}), then id; position_ maps
  /// a board to its slot (-1 when I({o}) = 0) and group_end_ a slot to
  /// the end of its run of equal I({o}).
  std::vector<model::BillboardId> order_;
  std::vector<int32_t> position_;
  std::vector<int32_t> group_end_;
  /// MaxFreeSupply's cursor walks order_ down from the top, skipping
  /// boards out of the pool; it restarts when the pool grows.
  size_t supply_cursor_ = 0;
  uint64_t supply_cursor_epoch_ = 0;
  std::vector<Bound> deferred_;  // pass scratch
  std::vector<Pick> level_;      // frontier scratch
  std::vector<Entry> run_;       // frontier scratch
  int64_t exact_evaluations_ = 0;
  int64_t lazy_hits_ = 0;
  int64_t lazy_reevals_ = 0;
  int64_t candidates_ = 0;
};

}  // namespace mroam::core

#endif  // MROAM_CORE_LAZY_SELECTOR_H_
