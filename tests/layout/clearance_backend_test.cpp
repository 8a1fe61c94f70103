#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "layout/clearance_index.hpp"
#include "pipeline/router.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"
#include "scenario/scenario_generator.hpp"

/// The Grid clearance backend's bit-identity contract: a forced-Grid
/// ClearanceIndex produces exactly the violations (values AND order) of the
/// forced-RangeTree one — on dense boards, through insert/remove/replace
/// churn, and end-to-end through the Router on every smoke family under
/// both DRC schedules. Plus the Auto policy: tree below
/// ClearanceIndex::kGridAutoSlots, grid at/above, with a mid-life flip
/// changing nothing but the broadphase.

namespace lmr::layout {
namespace {

bool same_violations(const std::vector<Violation>& a, const std::vector<Violation>& b,
                     std::string* why = nullptr) {
  if (a.size() != b.size()) {
    if (why != nullptr) *why = "count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Violation& x = a[i];
    const Violation& y = b[i];
    if (x.kind != y.kind || x.trace != y.trace || x.other_trace != y.other_trace ||
        x.index_a != y.index_a || x.index_b != y.index_b || x.measured != y.measured ||
        x.required != y.required || x.note != y.note) {
      if (why != nullptr) *why = "violation " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

drc::DesignRules test_rules() {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = 0.5;
  r.protect = 0.5;
  r.trace_width = 0.25;
  return r;
}

/// Generated dense board whose sweep rules inflate the gap past the band
/// spacing, so neighbouring members genuinely violate (same trick as the
/// clearance_index tests: born-legal boards have empty sweeps).
struct DenseBoard {
  scenario::Scenario sc;
  std::vector<const Trace*> traces;
  drc::DesignRules rules;
};

DenseBoard dense_board(std::uint64_t seed, int groups = 2, int members = 5) {
  scenario::ScenarioSpec spec;
  spec.name = "test/clearance_backend";
  spec.groups = groups;
  spec.members_per_group = members;
  spec.corridor_length = 80.0;
  spec.band_height = 3.2;
  spec.vias_per_band = 6;
  spec.rules = test_rules();
  DenseBoard b{scenario::ScenarioGenerator(spec).generate(seed), {}, test_rules()};
  b.rules.gap = 4.0;
  for (const auto& [id, t] : b.sc.layout.traces()) {
    (void)id;
    b.traces.push_back(&t);
  }
  return b;
}

/// Two indexes over the same traces, one per forced backend.
struct IndexPair {
  ClearanceIndex tree;
  ClearanceIndex grid;

  explicit IndexPair(const drc::DesignRules& rules)
      : tree(rules, {}, ClearanceBackend::RangeTree),
        grid(rules, {}, ClearanceBackend::Grid) {}

  void add_insert(const Trace& t, std::uint32_t net) {
    tree.insert(tree.add_slot(t.width, net), t);
    grid.insert(grid.add_slot(t.width, net), t);
  }

  void expect_same_sweep(const std::string& tag) {
    std::string why;
    EXPECT_TRUE(same_violations(tree.sweep(), grid.sweep(), &why)) << tag << ": " << why;
  }
};

TEST(ClearanceBackend, ForcedBackendsSweepIdentically) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    DenseBoard b = dense_board(seed);
    IndexPair pair(b.rules);
    std::uint32_t net = 0;
    for (const Trace* t : b.traces) pair.add_insert(*t, net++);
    EXPECT_FALSE(pair.tree.sweep().empty()) << "want real violations";
    pair.expect_same_sweep("seed " + std::to_string(seed));
  }
}

TEST(ClearanceBackend, ChurnSweepsStayIdentical) {
  // Remove / reinsert / replace-geometry sequences, sweeping (and diffing)
  // after every mutation: the grid's incremental re-registration must track
  // the tree's overlay model exactly.
  DenseBoard b = dense_board(21, 2, 6);
  IndexPair pair(b.rules);
  std::uint32_t net = 0;
  for (const Trace* t : b.traces) pair.add_insert(*t, net++);
  pair.expect_same_sweep("initial");

  const auto n = static_cast<std::uint32_t>(b.traces.size());
  for (std::uint32_t step = 0; step < n; ++step) {
    const std::uint32_t victim = (step * 5 + 3) % n;
    pair.tree.remove(victim);
    pair.grid.remove(victim);
    pair.expect_same_sweep("after remove " + std::to_string(victim));

    pair.tree.insert(victim, *b.traces[victim]);
    pair.grid.insert(victim, *b.traces[victim]);
    pair.expect_same_sweep("after reinsert " + std::to_string(victim));
  }

  // Replace geometry in place: shift one trace into its neighbour's band.
  Trace shifted = *b.traces[0];
  for (geom::Point& p : shifted.path.points()) p.y += 1.5;
  pair.tree.insert(0, shifted);
  pair.grid.insert(0, shifted);
  pair.expect_same_sweep("after geometry replace");
}

TEST(ClearanceBackend, AutoFlipsToGridAtThreshold) {
  const drc::DesignRules rules = test_rules();
  ClearanceIndex index(rules);
  ASSERT_EQ(index.backend(), ClearanceBackend::RangeTree) << "empty index";

  std::vector<Trace> traces(ClearanceIndex::kGridAutoSlots + 4);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    traces[i].id = static_cast<TraceId>(i + 1);
    traces[i].width = 0.25;
    const double y = static_cast<double>(i) * 0.8;  // < effective gap: violations
    traces[i].path = geom::Polyline{{{0.0, y}, {40.0, y}}};
  }

  ClearanceIndex forced_tree(rules, {}, ClearanceBackend::RangeTree);
  ClearanceIndex forced_grid(rules, {}, ClearanceBackend::Grid);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto net = static_cast<std::uint32_t>(i);
    index.insert(index.add_slot(traces[i].width, net), traces[i]);
    forced_tree.insert(forced_tree.add_slot(traces[i].width, net), traces[i]);
    forced_grid.insert(forced_grid.add_slot(traces[i].width, net), traces[i]);
    if (i + 1 == ClearanceIndex::kGridAutoSlots / 2) {
      // Mid-life sweep below the threshold: still the tree, and the flip
      // later must not be confused by this sweep's caches.
      EXPECT_EQ(index.backend(), ClearanceBackend::RangeTree);
      (void)index.sweep();
    }
  }
  EXPECT_EQ(index.backend(), ClearanceBackend::Grid)
      << "Auto must flip at kGridAutoSlots";

  std::string why;
  EXPECT_TRUE(same_violations(index.sweep(), forced_grid.sweep(), &why))
      << "auto vs forced grid: " << why;
  EXPECT_TRUE(same_violations(index.sweep(), forced_tree.sweep(), &why))
      << "auto vs forced tree: " << why;
  EXPECT_FALSE(index.sweep().empty()) << "fixture must produce violations";
}

TEST(ClearanceBackend, RoutesIdenticalAcrossBackendsOnEverySmokeFamily) {
  for (const scenario::Family& fam : scenario::standard_families(true)) {
    for (const scenario::FamilyCase& fc : fam.cases) {
      scenario::Scenario a = scenario::materialize(fc);
      scenario::Scenario b = scenario::materialize(fc);

      pipeline::RouterOptions opts;
      opts.extender.l_disc = 0.5;
      opts.extender.max_width_steps = 24;
      if (a.spec.extender_tolerance > 0.0) {
        opts.extender.tolerance = a.spec.extender_tolerance;
      }
      if (a.pair_rule_set.size() > 1) opts.pair_rule_set = a.pair_rule_set;

      pipeline::RouterOptions tree_opts = opts;
      tree_opts.clearance_backend = ClearanceBackend::RangeTree;
      pipeline::RouterOptions grid_opts = opts;
      grid_opts.clearance_backend = ClearanceBackend::Grid;

      const pipeline::BoardRoute ra =
          pipeline::Router(a.rules, tree_opts).route_board(a.layout);
      const pipeline::BoardRoute rb =
          pipeline::Router(b.rules, grid_opts).route_board(b.layout);
      std::string why;
      EXPECT_TRUE(pipeline::routes_equivalent(a.layout, ra, b.layout, rb, &why))
          << fam.name << "/" << fc.spec.name << ": " << why;
    }
  }
}

}  // namespace
}  // namespace lmr::layout
