#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "layout/board_edit.hpp"
#include "pipeline/router.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"
#include "scenario/scenario_generator.hpp"

/// Thread-count determinism of Router::route_board and Session reroutes:
/// routed geometry and violation sets are bit-identical at 1, 2 and 4
/// threads, on the dense mega smoke board and on a rotated board whose
/// group bboxes overlap. Plus the tile_plan diagnostic's partition contract,
/// which traced benchmark replays rely on.

namespace lmr::pipeline {
namespace {

/// The bench suite's router configuration (Suite::router_options_for),
/// with the thread count under test on top.
RouterOptions options_for(const scenario::Scenario& sc, std::size_t threads) {
  RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  o.threads = threads;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

scenario::Scenario mega_smoke() {
  return scenario::materialize(scenario::family("mega_board", true).cases.at(0));
}

/// A 30-degree board (same trick as the large_group family): every rotated
/// band's bbox covers most of the board bbox, so group reaches overlap and
/// each group's obstacle queries see its neighbours' vias.
scenario::Scenario rotated_board() {
  scenario::ScenarioSpec spec;
  spec.name = "test/rotated_threads";
  spec.groups = 3;
  spec.members_per_group = 3;
  spec.corridor_length = 60.0;
  spec.corridor_angle_deg = 30.0;
  spec.extender_tolerance = 0.05;
  spec.vias_per_band = 4;
  return scenario::ScenarioGenerator(spec).generate(7711);
}

/// Edit script: retarget one group, nudge one obstacle.
std::vector<layout::BoardEdit> edit_script(const layout::Layout& l) {
  layout::BoardEdit retarget;
  retarget.kind = layout::BoardEditKind::SetGroupTarget;
  retarget.group = 0;
  retarget.target = l.groups()[0].target_length * 1.02;

  layout::BoardEdit nudge;
  nudge.kind = layout::BoardEditKind::MoveObstacle;
  nudge.obstacle = 5;
  nudge.move = {0.6, 0.3};
  return {retarget, nudge};
}

/// route_board at 1, 2 and 4 threads reproduces the serial route bit for bit.
void expect_route_identical_across_threads(scenario::Scenario (*make)()) {
  scenario::Scenario base = make();
  const BoardRoute want = Router(base.rules, options_for(base, 1)).route_board(base.layout);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = make();
    const BoardRoute got = Router(sc.rules, options_for(sc, threads)).route_board(sc.layout);
    std::string why;
    EXPECT_TRUE(routes_equivalent(base.layout, want, sc.layout, got, &why)) << why;
  }
}

/// A Session applying the edit script at 1, 2 and 4 threads lands on exactly
/// the state a fresh serial route of the edited board produces. With
/// `local_edits` the edits must also leave some group untouched (the rotated
/// board's overlapping bands all see every edit).
void expect_reroute_identical_across_threads(scenario::Scenario (*make)(), bool local_edits) {
  scenario::Scenario fresh = make();
  for (const layout::BoardEdit& e : edit_script(fresh.layout)) {
    layout::apply_edit(fresh.layout, e);
  }
  const BoardRoute full = Router(fresh.rules, options_for(fresh, 1)).route_board(fresh.layout);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = make();
    const std::vector<layout::BoardEdit> edits = edit_script(sc.layout);
    Session session(sc.rules, options_for(sc, threads), std::move(sc.layout));
    session.route();
    std::size_t rerouted = 0;
    for (const layout::BoardEdit& e : edits) {
      rerouted = std::max(rerouted, session.apply(e).rerouted_groups.size());
    }
    EXPECT_GT(rerouted, 0u);
    if (local_edits) {
      EXPECT_LT(rerouted, session.layout().groups().size())
          << "local edits must not dirty the whole board";
    }
    std::string why;
    EXPECT_TRUE(
        routes_equivalent(session.layout(), session.route_state(), fresh.layout, full, &why))
        << why;
  }
}

TEST(TileRouting, PlanPartitionsEveryGroupExactlyOnce) {
  // The auto tile count on the mega smoke board (8 groups -> 2 tiles, 48
  // wide x 56 tall) splits the long y axis *between* the stacked group
  // bands: most groups land in a tile, the band cut by the boundary
  // straddles.
  const scenario::Scenario sc = mega_smoke();
  const Router router(sc.rules, options_for(sc, 1));
  const Router::TilePlan plan = router.tile_plan(sc.layout);

  ASSERT_EQ(plan.tiles_x * plan.tiles_y, std::size_t{2});
  ASSERT_EQ(plan.tiles.size(), plan.tiles_x * plan.tiles_y);

  std::vector<std::size_t> assigned;
  bool any_tile_local = false;
  for (const Router::TilePlan::Tile& tile : plan.tiles) {
    EXPECT_TRUE(tile.coverage.contains(tile.box.lo));
    EXPECT_TRUE(tile.coverage.contains(tile.box.hi));
    if (!tile.groups.empty()) {
      any_tile_local = true;
      EXPECT_GT(tile.obstacles, 0u) << "dense board: every used tile sees obstacles";
      EXPECT_LT(tile.obstacles, sc.layout.obstacles().size())
          << "a tile's coverage must not hold the whole board";
    }
    assigned.insert(assigned.end(), tile.groups.begin(), tile.groups.end());
  }
  EXPECT_TRUE(any_tile_local) << "a band-stacked board must yield tile-local groups";
  assigned.insert(assigned.end(), plan.straddlers.begin(), plan.straddlers.end());
  std::sort(assigned.begin(), assigned.end());
  std::vector<std::size_t> want(sc.layout.groups().size());
  for (std::size_t g = 0; g < want.size(); ++g) want[g] = g;
  EXPECT_EQ(assigned, want) << "tiles + straddlers must cover each group once";
}

TEST(RouteThreads, MegaBoardRouteIsIdenticalAcrossThreads) {
  expect_route_identical_across_threads(mega_smoke);
}

TEST(RouteThreads, MegaBoardRerouteIsIdenticalAcrossThreads) {
  expect_reroute_identical_across_threads(mega_smoke, true);
}

/// Field-by-field, in-order equality of two violation lists.
bool same_violations(const std::vector<layout::Violation>& a,
                     const std::vector<layout::Violation>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "count " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const layout::Violation& x = a[i];
    const layout::Violation& y = b[i];
    if (x.kind != y.kind || x.trace != y.trace || x.other_trace != y.other_trace ||
        x.index_a != y.index_a || x.index_b != y.index_b || x.measured != y.measured ||
        x.required != y.required || x.note != y.note) {
      *why = "violation " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

/// The mega smoke board's Session index holds 256 slots, so its board sweep
/// runs on the grid, and after an edit it re-queries only the re-routed
/// members' slots. After every edit (re-routing the bottom, a middle and the
/// top group in turn) its violations must equal those of a Session freshly
/// thawed from the same board state, whose first sweep covers every slot.
void expect_board_clearance_matches_thaw(const drc::DesignRules& rules,
                                         bool want_violations) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = mega_smoke();
    const RouterOptions opts = options_for(sc, threads);
    std::vector<layout::BoardEdit> edits;
    for (const std::size_t g : {std::size_t{0}, sc.layout.groups().size() / 2,
                                sc.layout.groups().size() - 1}) {
      layout::BoardEdit retarget;
      retarget.kind = layout::BoardEditKind::SetGroupTarget;
      retarget.group = g;
      retarget.target = sc.layout.groups()[g].target_length * 1.02;
      edits.push_back(retarget);
    }
    edits.push_back(edit_script(sc.layout).back());  // obstacle nudge

    Session session(rules, opts, std::move(sc.layout));
    session.route();
    ASSERT_EQ(want_violations, !session.board_clearance().empty());
    for (std::size_t i = 0; i < edits.size(); ++i) {
      session.apply(edits[i]);
      const std::vector<layout::Violation> got = session.board_clearance();
      Session thawed(rules, opts, session.layout(), session.route_state());
      std::string why;
      EXPECT_TRUE(same_violations(got, thawed.board_clearance(), &why))
          << "edit " << i << ": " << why;
    }
  }
}

TEST(RouteThreads, MegaBoardClearanceMatchesThawedSessionAcrossThreads) {
  const drc::DesignRules rules = mega_smoke().rules;
  expect_board_clearance_matches_thaw(rules, false);
  // A gap as wide as a member band makes every pair of neighbouring members
  // violate, across group boundaries too: a re-routed group's violations
  // with the clean groups beside it are then real, as are the ones the
  // re-sweep keeps.
  drc::DesignRules wide = rules;
  wide.gap = 7.0;
  expect_board_clearance_matches_thaw(wide, true);
}

TEST(RouteThreads, RotatedBoardRouteAndRerouteAreIdenticalAcrossThreads) {
  expect_route_identical_across_threads(rotated_board);
  expect_reroute_identical_across_threads(rotated_board, false);
}

}  // namespace
}  // namespace lmr::pipeline
