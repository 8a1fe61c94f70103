#include "layout/clearance_index.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "exec/task_pool.hpp"
#include "layout/clearance_sweep.hpp"
#include "scenario/scenario_generator.hpp"

namespace lmr::layout {
namespace {

using ViolationKey = std::tuple<ViolationKind, TraceId, TraceId, std::size_t,
                                std::size_t, double, double, std::string>;

std::vector<ViolationKey> keys(const std::vector<Violation>& vs) {
  std::vector<ViolationKey> out;
  for (const Violation& v : vs) {
    out.emplace_back(v.kind, v.trace, v.other_trace, v.index_a, v.index_b, v.measured,
                     v.required, v.note);
  }
  return out;  // NOT sorted: the index's output order is part of its contract
}

/// The independent reference every sweep here is diffed against: the naive
/// all-pairs `DrcChecker::check_trace_pair` loop, run in slot order and
/// skipping equal nets. It shares no broadphase with the index, and its
/// (slot a, slot b, segment a, segment b) emission order is the order the
/// index promises.
std::vector<ViolationKey> naive(const std::vector<SweepTrace>& traces,
                                const drc::DesignRules& rules) {
  const DrcChecker checker;
  std::vector<Violation> out;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (std::size_t j = i + 1; j < traces.size(); ++j) {
      if (traces[i].net == traces[j].net) continue;
      const auto v = checker.check_trace_pair(*traces[i].trace, *traces[j].trace, rules);
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return keys(out);
}

drc::DesignRules test_rules() {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = 0.5;
  r.protect = 0.5;
  r.trace_width = 0.25;
  return r;
}

/// A generated board plus the sweep-input view of its traces and the rule
/// set the sweep runs under. Generated boards are born legal, so the sweep
/// rules inflate the gap past the band spacing: the existing parallel runs
/// then genuinely violate, giving the equivalence checks a real, dense
/// violation set to diff.
struct DenseBoard {
  scenario::Scenario sc;
  std::vector<SweepTrace> traces;
  drc::DesignRules rules;
};

DenseBoard dense_board(std::uint64_t seed, int groups = 2, int members = 5,
                       double corridor_length = 80.0, int vias_per_band = 6) {
  scenario::ScenarioSpec spec;
  spec.name = "test/clearance_index";
  spec.groups = groups;
  spec.members_per_group = members;
  spec.corridor_length = corridor_length;
  spec.band_height = 3.2;
  spec.vias_per_band = vias_per_band;
  spec.rules = test_rules();
  DenseBoard b{scenario::ScenarioGenerator(spec).generate(seed), {}, test_rules()};
  b.rules.gap = 4.0;  // > band spacing: neighbouring members violate
  std::uint32_t net = 0;
  for (const auto& [id, t] : b.sc.layout.traces()) {
    (void)id;
    b.traces.push_back({&t, net++});
  }
  return b;
}

TEST(ClearanceIndex, MatchesOneShotSweepIncludingOrder) {
  // The index and its one-shot wrapper both reproduce the naive loop:
  // values, note and order.
  for (const std::uint64_t seed : {1u, 2u, 3u, 11u, 12u, 13u}) {
    const DenseBoard b = dense_board(seed);
    const auto rules = b.rules;
    const auto reference = naive(b.traces, rules);

    ClearanceIndex index(rules);
    for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
    for (std::uint32_t i = 0; i < b.traces.size(); ++i) {
      index.insert(i, *b.traces[i].trace);
    }
    EXPECT_FALSE(reference.empty()) << "seed " << seed << ": want real violations";
    EXPECT_EQ(keys(index.sweep()), reference) << "seed " << seed;
    EXPECT_EQ(keys(cross_clearance_sweep(b.traces, rules)), reference)
        << "seed " << seed << " (one-shot)";
  }
}

TEST(ClearanceIndex, InsertionOrderCannotChangeTheResult) {
  const DenseBoard b = dense_board(2);
  const auto rules = b.rules;
  const auto reference = naive(b.traces, rules);

  // Reverse insertion order: candidate order keys on slot ids fixed at
  // declaration, so the output must be byte-for-byte the same.
  ClearanceIndex index(rules);
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = static_cast<std::uint32_t>(b.traces.size()); i-- > 0;) {
    index.insert(i, *b.traces[i].trace);
  }
  EXPECT_EQ(keys(index.sweep()), reference);
}

TEST(ClearanceIndex, ConcurrentInsertsMatchSerial) {
  // The pipeline inserts each member's geometry from its own chain; distinct
  // slots must be safely writable from concurrent tasks.
  const DenseBoard b = dense_board(3);
  const auto rules = b.rules;
  const auto reference = naive(b.traces, rules);

  exec::TaskPool pool(3);
  for (int rep = 0; rep < 10; ++rep) {
    ClearanceIndex index(rules);
    for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
    exec::parallel_for_dynamic(pool, b.traces.size(), 4, [&](std::size_t i) {
      index.insert(static_cast<std::uint32_t>(i), *b.traces[i].trace);
    });
    ASSERT_EQ(keys(index.sweep()), reference) << "rep " << rep;
  }
}

TEST(ClearanceIndex, UninsertedSlotsDoNotParticipate) {
  Trace a, b;
  a.id = 1;
  a.width = 0.25;
  a.path = geom::Polyline{{{0, 0}, {20, 0}}};
  b.id = 2;
  b.width = 0.25;
  b.path = geom::Polyline{{{0, 0.9}, {20, 0.9}}};  // violating pair with a

  ClearanceIndex index(test_rules());
  index.add_slot(a.width, 0);
  index.add_slot(b.width, 1);
  index.add_slot(10.0, 2);  // declared wide trace, never inserted

  index.insert(0, a);
  EXPECT_TRUE(index.sweep().empty());  // one inserted trace: nothing to check
  index.insert(1, b);
  const auto swept = index.sweep();
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0].kind, ViolationKind::TraceGap);
  EXPECT_NEAR(swept[0].measured, 0.9, 1e-12);
}

TEST(ClearanceIndex, SweepIsRepeatable) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) index.insert(i, *b.traces[i].trace);
  const auto first = index.sweep();
  EXPECT_EQ(keys(index.sweep()), keys(first));  // query-only: no state consumed
}

TEST(ClearanceIndex, RemoveTakesSlotOutOfTheSweep) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) index.insert(i, *b.traces[i].trace);
  ASSERT_FALSE(index.sweep().empty());

  // Removing a slot must be equivalent to never having inserted it.
  const std::uint32_t victim = 3;
  index.remove(victim);
  EXPECT_FALSE(index.slot_inserted(victim));
  std::vector<SweepTrace> remaining;
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) {
    if (i != victim) remaining.push_back(b.traces[i]);
  }
  EXPECT_EQ(keys(index.sweep()), naive(remaining, b.rules));

  // ...and re-inserting restores the full result, in the original order.
  index.insert(victim, *b.traces[victim].trace);
  EXPECT_EQ(keys(index.sweep()), naive(b.traces, b.rules));
}

TEST(ClearanceIndex, CachedSweepSurvivesEditStorms) {
  // Interleave moves (re-insert with shifted geometry), removes and
  // restores; after every step the cached sweep must match the naive loop
  // over the current traces.
  const DenseBoard b = dense_board(2);
  std::vector<Trace> shifted(b.traces.size());
  ClearanceIndex index(b.rules);
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) index.insert(i, *b.traces[i].trace);
  ASSERT_FALSE(index.sweep().empty());

  std::vector<bool> moved(b.traces.size(), false), removed(b.traces.size(), false);
  for (std::uint32_t step = 0; step < 20; ++step) {
    const auto i = static_cast<std::uint32_t>((step * 7 + 3) % b.traces.size());
    switch (step % 3) {
      case 0: {  // move: re-insert shifted geometry (kept alive in `shifted`)
        shifted[i] = *b.traces[i].trace;
        for (geom::Point& p : shifted[i].path.points()) p += {0.0, 0.35};
        index.insert(i, shifted[i]);
        moved[i] = true;
        removed[i] = false;
        break;
      }
      case 1:  // remove
        index.remove(i);
        removed[i] = true;
        break;
      default:  // restore original
        index.insert(i, *b.traces[i].trace);
        moved[i] = false;
        removed[i] = false;
    }
    std::vector<SweepTrace> current;
    for (std::uint32_t k = 0; k < b.traces.size(); ++k) {
      if (removed[k]) continue;
      current.push_back({moved[k] ? &shifted[k] : b.traces[k].trace, b.traces[k].net});
    }
    const auto reference = naive(current, b.rules);
    ASSERT_EQ(keys(index.sweep()), reference) << "step " << step;
    // Back-to-back sweep with no edit: served from the violation cache.
    ASSERT_EQ(keys(index.sweep()), reference) << "step " << step << " (cached)";
  }
}

TEST(ClearanceIndex, MoveLeavesMovedFromEmptyAndReusable) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) index.insert(i, *b.traces[i].trace);
  const auto reference = keys(index.sweep());  // populate grid + result caches
  ASSERT_FALSE(reference.empty());

  // Move construction transfers slots and caches wholesale.
  ClearanceIndex moved(std::move(index));
  EXPECT_EQ(keys(moved.sweep()), reference);

  // The moved-from index is an empty-but-valid index: no slots, clean
  // sweep, and it can be rebuilt from scratch without touching stale cache.
  EXPECT_EQ(index.slot_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(index.sweep().empty());
  for (const SweepTrace& st : b.traces) index.add_slot(st.trace->width, st.net);
  for (std::uint32_t i = 0; i < b.traces.size(); ++i) index.insert(i, *b.traces[i].trace);
  EXPECT_EQ(keys(index.sweep()), reference);

  // Move assignment, including self-refresh afterwards.
  ClearanceIndex assigned(b.rules);
  assigned = std::move(moved);
  EXPECT_EQ(keys(assigned.sweep()), reference);
}

/// Differential harness for the incremental sweep: drives one index through
/// seeded churn and, after every step, diffs it against the naive loop over
/// the slots' live traces.
class ChurnHarness {
 public:
  explicit ChurnHarness(DenseBoard board, ClearanceBackend backend = ClearanceBackend::Auto)
      : b_(std::move(board)), index_(b_.rules, {}, backend), moved_(b_.traces.size()) {}

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(b_.traces.size());
  }

  void declare(std::uint32_t slot) {
    ASSERT_EQ(index_.add_slot(b_.traces[slot].trace->width, b_.traces[slot].net), slot);
    live_.push_back(nullptr);
  }
  void restore(std::uint32_t slot) {
    index_.insert(slot, *b_.traces[slot].trace);
    live_[slot] = b_.traces[slot].trace;
  }
  /// Re-insert `slot` as its original geometry shifted by (dx, dy).
  void shift(std::uint32_t slot, double dx, double dy) {
    moved_[slot] = *b_.traces[slot].trace;
    for (geom::Point& p : moved_[slot].path.points()) p += {dx, dy};
    index_.insert(slot, moved_[slot]);
    live_[slot] = &moved_[slot];
  }
  void remove(std::uint32_t slot) {
    index_.remove(slot);
    live_[slot] = nullptr;
  }

  /// True when the live traces of slots `a` and `b` violate each other.
  [[nodiscard]] bool violate(std::uint32_t a, std::uint32_t b) const {
    return !naive(live({a, b}), b_.rules).empty();
  }

  /// Sweep twice (the second is served from the cache) and diff both
  /// against the naive reference.
  void check(const std::string& step) const {
    std::vector<std::uint32_t> all(live_.size());
    for (std::uint32_t t = 0; t < all.size(); ++t) all[t] = t;
    const auto reference = naive(live(all), b_.rules);
    ASSERT_EQ(keys(index_.sweep()), reference) << step;
    ASSERT_EQ(keys(index_.sweep()), reference) << step << " (cached)";
  }

 private:
  /// The inserted ones of `slots`, in slot order, as sweep inputs.
  [[nodiscard]] std::vector<SweepTrace> live(
      const std::vector<std::uint32_t>& slots) const {
    std::vector<SweepTrace> out;
    for (const std::uint32_t t : slots) {
      if (live_[t] != nullptr) out.push_back({live_[t], b_.traces[t].net});
    }
    return out;
  }

  DenseBoard b_;
  ClearanceIndex index_;
  std::vector<Trace> moved_;         ///< per slot: its current shifted copy
  std::vector<const Trace*> live_;   ///< per slot: inserted geometry or null
};

/// Declares and inserts every slot of `h`: the first sweep runs over 60
/// declared slots, the rest are declared after it, so they arrive dirty
/// against a cached result.
void fill(ChurnHarness& h) {
  const std::uint32_t n = h.size();
  ASSERT_GE(n, 64u);
  const std::uint32_t first = 60;
  for (std::uint32_t t = 0; t < first; ++t) h.declare(t);
  for (std::uint32_t t = 0; t < first; ++t) h.restore(t);
  h.check("first sweep");
  for (std::uint32_t t = first; t < n; ++t) h.declare(t);
  for (std::uint32_t t = first; t < n; ++t) h.restore(t);
  h.check("slots declared after the first sweep");
}

/// The 72-slot board both churn tests run on. Short corridors keep the naive
/// reference's segment pairs affordable.
DenseBoard churn_board() { return dense_board(4, 9, 8, 30.0, 2); }

TEST(ClearanceIndex, IncrementalSweepMatchesNaiveReferenceGrid) {
  // Hand-picked dirty-slot shapes on the grid broadphase, built through the
  // default constructor.
  ChurnHarness h(churn_board());
  fill(h);
  if (::testing::Test::HasFatalFailure()) return;
  const std::uint32_t n = h.size();

  for (const std::uint32_t t : {0u, n / 2, n - 1}) {
    h.shift(t, 0.0, 0.3);
    h.check("one dirty slot " + std::to_string(t));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // A mega edit's shape: one contiguous run of n/16 slots mid-board.
  for (std::uint32_t t = n / 2 - n / 32; t < n / 2 + n / 32; ++t) h.shift(t, 0.2, -0.25);
  h.check("contiguous dirty run");
  if (::testing::Test::HasFatalFailure()) return;

  // Two adjacent slots that violate each other, both dirty.
  std::uint32_t adj = n;
  for (std::uint32_t t = n / 3; t + 1 < n && adj == n; ++t) {
    if (h.violate(t, t + 1)) adj = t;
  }
  ASSERT_LT(adj, n) << "want an adjacent violating pair";
  h.shift(adj, 0.0, 0.1);
  h.shift(adj + 1, 0.0, -0.1);
  ASSERT_TRUE(h.violate(adj, adj + 1));
  h.check("adjacent violating dirty pair");
  if (::testing::Test::HasFatalFailure()) return;

  // Remove / reinsert every slot once, in a scattered order, then replace
  // one trace's geometry with a copy pushed into its neighbour's band.
  for (std::uint32_t step = 0; step < n; ++step) {
    const std::uint32_t victim = (step * 5 + 3) % n;
    h.remove(victim);
    h.check("remove " + std::to_string(victim));
    h.restore(victim);
    h.check("reinsert " + std::to_string(victim));
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.shift(n / 4, -0.3, 0.4);
  h.check("geometry replace");
  h.shift(0, 0.0, 1.5);
  h.check("geometry replace into the neighbour's band");
  if (::testing::Test::HasFatalFailure()) return;

  for (std::uint32_t t = 0; t < n; ++t) h.shift(t, 0.05, 0.05);
  h.check("all slots dirty");
}

TEST(ClearanceIndex, IncrementalSweepMatchesNaiveReferenceAuto) {
  // Seeded random churn through the three-argument constructor with the
  // accepted-and-ignored `ClearanceBackend::Auto`, the way
  // perfbench/src/replay.cpp builds its index.
  ChurnHarness h(churn_board(), ClearanceBackend::Auto);
  fill(h);
  if (::testing::Test::HasFatalFailure()) return;
  const std::uint32_t n = h.size();

  std::mt19937 rng(13);
  const auto pick = [&](std::uint32_t bound) {
    return static_cast<std::uint32_t>(rng() % bound);
  };
  const auto offset = [&] { return (static_cast<double>(pick(13)) - 6.0) * 0.1; };
  for (int step = 0; step < 40; ++step) {
    switch (pick(5)) {
      case 0:
        h.shift(pick(n), offset(), offset());
        break;
      case 1:
        h.remove(pick(n));
        break;
      case 2:
        h.restore(pick(n));
        break;
      case 3: {
        const std::uint32_t len = 2 + pick(7);
        const std::uint32_t start = pick(n - len);
        for (std::uint32_t t = start; t < start + len; ++t) h.shift(t, offset(), offset());
        break;
      }
      default: {  // scattered: every third slot from a random phase
        for (std::uint32_t t = pick(3); t < n; t += 3) h.restore(t);
      }
    }
    h.check("churn step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lmr::layout
