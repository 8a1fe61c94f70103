/// Session / incremental-reroute oracle tests.
///
/// The contract under test: a `pipeline::Session` driven through an edit
/// script must end bit-identical — member geometry and violation sets — to
/// generating the edited board from scratch and routing it fresh, at every
/// thread count and in both apply modes; and the reroute must actually prune
/// work (strictly fewer groups re-run than the board holds) on the
/// multi-group storms. Plus the session-level mutation invariants: stale or
/// out-of-order delta lists are rejected, edits cannot interleave with a
/// route in flight, and routing never bumps the board version.

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "layout/board_edit.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"

namespace lmr::pipeline {
namespace {

/// The bench suite's router configuration (Suite::router_options_for), so
/// the oracle runs the exact flow the recorded storms were validated under.
RouterOptions storm_options(const scenario::Scenario& sc, std::size_t threads) {
  RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  o.threads = threads;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

TEST(Session, ApplyBeforeRouteThrows) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  Session session(storm.scenario.rules, storm_options(storm.scenario, 1), storm.scenario.layout);
  EXPECT_THROW((void)session.apply(storm.edits.front()), std::logic_error);
}

/// Fresh oracle: the storm's pristine board with its whole edit script
/// applied, routed from zero.
std::pair<scenario::Scenario, BoardRoute> fresh_route(const scenario::EditStormCase& c,
                                                      const scenario::EditStorm& storm,
                                                      const RouterOptions& opts) {
  scenario::Scenario fresh = scenario::materialize(c.base);
  for (const layout::BoardEdit& edit : storm.edits) layout::apply_edit(fresh.layout, edit);
  BoardRoute full = Router(fresh.rules, opts).route_board(fresh.layout);
  return {std::move(fresh), std::move(full)};
}

TEST(Session, EditStormsMatchFreshRouteUnderEverySchedule) {
  for (const scenario::EditStormCase& c : scenario::edit_storm_cases(true)) {
    scenario::EditStorm storm = scenario::materialize_storm(c);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(c.name + "/t" + std::to_string(threads));
      const RouterOptions opts = storm_options(storm.scenario, threads);

      Session session(storm.scenario.rules, opts, storm.scenario.layout);
      session.route();
      const std::uint64_t v0 = session.version();  // route() never edits
      EXPECT_EQ(v0, storm.scenario.layout.version());

      std::size_t rerouted_total = 0;
      bool pruned = false;
      for (const layout::BoardEdit& edit : storm.edits) {
        const ApplyOutcome out = session.apply(edit);
        EXPECT_FALSE(out.deltas.empty());
        rerouted_total += out.rerouted_groups.size();
        if (out.rerouted_groups.size() < out.groups_total) pruned = true;
      }
      EXPECT_GT(session.version(), v0);

      const auto [fresh, full] = fresh_route(c, storm, opts);
      std::string why;
      EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                    fresh.layout, full, &why))
          << why;

      // Multi-group storms must prove incrementality, not just equality:
      // at least one edit re-routes strictly fewer groups than exist.
      if (session.layout().groups().size() > 1) {
        EXPECT_TRUE(pruned) << "every edit re-routed all "
                            << session.layout().groups().size() << " groups";
      }
      EXPECT_GT(rerouted_total, 0u);
    }
  }
}

/// The serving tier's last retry rung, on the success path: a session whose
/// initial route and every edit dispatch run in ApplyMode::Degraded (a
/// one-thread Router with no pool, whatever the session's own options say)
/// ends equivalent to a Normal-mode session on a 4-thread Router and to a
/// fresh route_board of the edited board.
TEST(Session, DegradedDispatchMatchesNormalModeAndFreshRoute) {
  for (const scenario::EditStormCase& c : scenario::edit_storm_cases(true)) {
    SCOPED_TRACE(c.name);
    scenario::EditStorm storm = scenario::materialize_storm(c);
    const RouterOptions opts = storm_options(storm.scenario, 4);

    Session degraded(storm.scenario.rules, opts, storm.scenario.layout);
    degraded.route(ApplyMode::Degraded);
    Session normal(storm.scenario.rules, opts, storm.scenario.layout);
    normal.route();
    for (const layout::BoardEdit& edit : storm.edits) {
      (void)degraded.apply(std::span<const layout::BoardEdit>{&edit, 1}, ApplyMode::Degraded);
      (void)normal.apply(edit);
    }
    EXPECT_TRUE(degraded.in_sync());

    std::string why;
    EXPECT_TRUE(routes_equivalent(degraded.layout(), degraded.route_state(), normal.layout(),
                                  normal.route_state(), &why))
        << "vs normal mode: " << why;
    const auto [fresh, full] = fresh_route(c, storm, opts);
    EXPECT_TRUE(routes_equivalent(degraded.layout(), degraded.route_state(), fresh.layout,
                                  full, &why))
        << "vs fresh route: " << why;
  }
}

TEST(Session, BoardClearanceMatchesAFreshSessionOnTheEditedBoard) {
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  const RouterOptions opts = storm_options(storm.scenario, 1);

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();
  for (const layout::BoardEdit& edit : storm.edits) (void)session.apply(edit);

  scenario::Scenario fresh = scenario::materialize(c.base);
  for (const layout::BoardEdit& edit : storm.edits) {
    layout::apply_edit(fresh.layout, edit);
  }
  Session oracle(fresh.rules, opts, fresh.layout);
  oracle.route();

  // Slot numbering is first-seen member order in both sessions (identical
  // group tables), so the incrementally maintained sweep must agree with
  // the from-scratch one entry for entry — and a second call is served from
  // the cache without changing the answer.
  const std::vector<layout::Violation> incremental = session.board_clearance();
  const std::vector<layout::Violation> scratch = oracle.board_clearance();
  ASSERT_EQ(incremental.size(), scratch.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    EXPECT_EQ(incremental[i].trace, scratch[i].trace);
    EXPECT_EQ(incremental[i].other_trace, scratch[i].other_trace);
    EXPECT_EQ(incremental[i].index_a, scratch[i].index_a);
    EXPECT_EQ(incremental[i].index_b, scratch[i].index_b);
    EXPECT_DOUBLE_EQ(incremental[i].measured, scratch[i].measured);
  }
  EXPECT_EQ(session.board_clearance().size(), incremental.size());
}

TEST(Reroute, RejectsStaleAndOutOfOrderDeltaLists) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const RouterOptions opts = storm_options(storm.scenario, 1);
  const Router router(storm.scenario.rules, opts);

  layout::Layout board = storm.scenario.layout;
  const BoardRoute prior = router.route_board(board);

  std::vector<layout::LayoutDelta> deltas;
  for (int i = 0; i < 2 && i < static_cast<int>(storm.edits.size()); ++i) {
    std::vector<layout::LayoutDelta> d = layout::apply_edit(board, storm.edits[i]);
    deltas.insert(deltas.end(), d.begin(), d.end());
  }
  ASSERT_GE(deltas.size(), 2u);

  // Truncated list: the deltas no longer connect prior.version to the
  // board's version — accepting it would silently skip edits.
  std::vector<layout::LayoutDelta> stale(deltas.begin(), deltas.end() - 1);
  EXPECT_THROW((void)router.reroute(board, prior, stale), std::invalid_argument);

  // Shuffled list: right length, wrong order.
  std::vector<layout::LayoutDelta> shuffled = deltas;
  std::swap(shuffled.front(), shuffled.back());
  EXPECT_THROW((void)router.reroute(board, prior, shuffled), std::invalid_argument);

  // The intact journal suffix goes through.
  const BoardRoute next = router.reroute(board, prior, deltas);
  EXPECT_EQ(next.version, board.version());

  // A second reroute from the *old* state is stale too.
  EXPECT_THROW((void)router.reroute(board, prior, stale), std::invalid_argument);
}

TEST(Reroute, VersionIsMonotoneAcrossRouteAndReroute) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const RouterOptions opts = storm_options(storm.scenario, 1);
  const Router router(storm.scenario.rules, opts);

  layout::Layout board = storm.scenario.layout;
  const std::uint64_t v0 = board.version();
  BoardRoute route = router.route_board(board);
  EXPECT_EQ(board.version(), v0);  // routing write-backs never version
  EXPECT_EQ(route.version, v0);

  std::uint64_t prev = v0;
  for (const layout::BoardEdit& edit : storm.edits) {
    (void)layout::apply_edit(board, edit);
    EXPECT_GT(board.version(), prev);
    route = router.reroute(board, route);  // journal-suffix overload
    EXPECT_EQ(route.version, board.version());
    prev = board.version();
  }
}

TEST(Session, ApplyOutcomeCorrelatesEditsWithJournalVersions) {
  // Satellite contract: the outcome alone — deltas + edit_offsets +
  // version_before/after — lets a caller attribute every journal version to
  // the edit that produced it, without re-reading deltas_since.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  Session session(storm.scenario.rules, storm_options(storm.scenario, 1), storm.scenario.layout);
  session.route();

  // Per-edit apply: offsets are {0, deltas.size()} and the versions bracket
  // exactly the deltas returned.
  const std::uint64_t v0 = session.version();
  const ApplyOutcome one = session.apply(storm.edits.at(0));
  ASSERT_EQ(one.edit_offsets.size(), 2u);
  EXPECT_EQ(one.edit_offsets.front(), 0u);
  EXPECT_EQ(one.edit_offsets.back(), one.deltas.size());
  EXPECT_EQ(one.version_before, v0);
  EXPECT_EQ(one.version_after, session.version());
  EXPECT_EQ(one.version_after - one.version_before, one.deltas.size());
  for (std::size_t k = 0; k < one.deltas.size(); ++k) {
    EXPECT_EQ(one.deltas[k].version, one.version_before + k + 1);
  }

  // Batch apply: one offset bracket per edit, contiguous and exhaustive.
  const std::span<const layout::BoardEdit> rest(storm.edits.data() + 1,
                                                storm.edits.size() - 1);
  const ApplyOutcome batch = session.apply(rest);
  ASSERT_EQ(batch.edit_offsets.size(), rest.size() + 1);
  EXPECT_EQ(batch.edit_offsets.front(), 0u);
  EXPECT_EQ(batch.edit_offsets.back(), batch.deltas.size());
  for (std::size_t k = 0; k + 1 < batch.edit_offsets.size(); ++k) {
    EXPECT_LE(batch.edit_offsets[k], batch.edit_offsets[k + 1]);
    // Every edit lowers to at least one delta on these storms.
    EXPECT_LT(batch.edit_offsets[k], batch.edit_offsets[k + 1]);
  }
  EXPECT_EQ(batch.version_before, one.version_after);
  EXPECT_EQ(batch.version_after, session.version());
  for (std::size_t k = 0; k < batch.deltas.size(); ++k) {
    EXPECT_EQ(batch.deltas[k].version, batch.version_before + k + 1);
  }
}

TEST(Session, ReleaseThenThawContinuesIdentically) {
  // Eviction round trip: a session dismantled to {layout, route} and
  // rebuilt from the snapshot must continue an edit script exactly like the
  // session that never released — the service's thaw-on-next-edit contract.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  const RouterOptions opts = storm_options(storm.scenario, 1);
  ASSERT_GE(storm.edits.size(), 2u);

  Session witness(storm.scenario.rules, opts, storm.scenario.layout);
  witness.route();

  Session before(storm.scenario.rules, opts, storm.scenario.layout);
  before.route();
  (void)witness.apply(storm.edits.at(0));
  (void)before.apply(storm.edits.at(0));

  auto [board, route] = before.release();
  Session after(storm.scenario.rules, opts, std::move(board), std::move(route));
  for (std::size_t k = 1; k < storm.edits.size(); ++k) {
    (void)witness.apply(storm.edits.at(k));
    (void)after.apply(storm.edits.at(k));
  }
  std::string why;
  EXPECT_TRUE(routes_equivalent(after.layout(), after.route_state(),
                                witness.layout(), witness.route_state(), &why))
      << why;
  // The rebuilt clearance index answers like the uninterrupted one.
  EXPECT_EQ(after.board_clearance().size(), witness.board_clearance().size());
}

TEST(Session, ReleaseAndThawErrorPaths) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const RouterOptions opts = storm_options(storm.scenario, 1);

  // release() before route(): no whole-board route to snapshot.
  Session unrouted(storm.scenario.rules, opts, storm.scenario.layout);
  EXPECT_THROW((void)unrouted.release(), std::logic_error);

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();

  // release() while a route is (apparently) in flight: the freeze makes
  // try_freeze fail, so dismantling is refused.
  {
    // White-box: grab a freeze on the session's own (non-const-owned) layout
    // to simulate an in-flight route. freeze_for_routing only bumps the
    // atomic freeze counter — no journaled state is touched, so the
    // recorded-mutator discipline is preserved.
    const layout::Layout::RoutingFreeze freeze =
        // lmr-lint: allow(cast, layout-state)
        const_cast<layout::Layout&>(session.layout()).freeze_for_routing();
    EXPECT_THROW((void)session.release(), std::logic_error);
  }

  // Thaw with a mismatched snapshot version is rejected up front.
  auto [board, route] = session.release();
  layout::Layout edited = board;
  (void)layout::apply_edit(edited, storm.edits.at(0));
  EXPECT_THROW(Session(storm.scenario.rules, opts, edited, route),
               std::invalid_argument);
  Session thawed(storm.scenario.rules, opts, std::move(board), std::move(route));
  EXPECT_NO_THROW((void)thawed.apply(storm.edits.at(0)));
}

TEST(Session, BatchApplyReroutesThePrefixBeforeRethrowing) {
  // Exception safety: when edit k of a batch fails to lower, the session
  // must reroute over edits [0, k) so layout and route stay in sync — and
  // then keep working normally.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  const RouterOptions opts = storm_options(storm.scenario, 1);
  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();

  layout::BoardEdit bogus;
  bogus.kind = layout::BoardEditKind::SetGroupTarget;
  bogus.group = session.layout().groups().size() + 7;  // no such group
  bogus.target = 100.0;

  std::vector<layout::BoardEdit> batch = {storm.edits.at(0), bogus,
                                          storm.edits.at(1)};
  EXPECT_THROW((void)session.apply(std::span<const layout::BoardEdit>(batch)),
               std::out_of_range);

  // The good prefix landed: same end state as an oracle session that
  // applied edit 0, then the remaining script on both.
  Session oracle(storm.scenario.rules, opts, storm.scenario.layout);
  oracle.route();
  (void)oracle.apply(storm.edits.at(0));
  for (std::size_t k = 1; k < storm.edits.size(); ++k) {
    (void)session.apply(storm.edits.at(k));
    (void)oracle.apply(storm.edits.at(k));
  }
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                oracle.layout(), oracle.route_state(), &why))
      << why;
}

TEST(Reroute, BoardEditsCannotInterleaveWithARouteInFlight) {
  // Two halves. (1) Deterministic: while any routing freeze is alive —
  // exactly the state Router::run holds for its whole body — every recorded
  // mutator throws before touching the board, so an edit stream can never
  // corrupt a route in flight. (2) Threaded: a real route_board observably
  // raises the freeze from another thread (atomic read only: attempting the
  // mutation from here would race with the route's own reads between group
  // chains) and releases it by the time it returns, after which edits work.
  scenario::Scenario sc =
      scenario::materialize(scenario::family("multi_group", false).cases.at(0));
  RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.threads = 2;
  const Router router(sc.rules, opts);

  {
    const layout::Layout::RoutingFreeze freeze = sc.layout.freeze_for_routing();
    const std::uint64_t v = sc.layout.version();
    EXPECT_THROW(sc.layout.add_obstacle(
                     {geom::Polygon::rect({{1.0, 1.0}, {1.5, 1.5}}), "mid-route"}),
                 std::logic_error);
    EXPECT_EQ(sc.layout.version(), v);  // the rejected edit left no journal entry
  }

  std::atomic<bool> done{false};
  std::atomic<bool> observed_frozen{false};
  std::thread worker([&] {
    (void)router.route_board(sc.layout);
    done.store(true);
  });
  while (!done.load()) {
    if (sc.layout.frozen()) observed_frozen.store(true);
  }
  worker.join();
  EXPECT_TRUE(observed_frozen.load());
  EXPECT_FALSE(sc.layout.frozen());
  const std::size_t obstacles = sc.layout.obstacle_count();
  (void)sc.layout.add_obstacle(
      {geom::Polygon::rect({{1.0, 1.0}, {1.5, 1.5}}), "post-route"});
  EXPECT_EQ(sc.layout.obstacle_count(), obstacles + 1);
}

TEST(Session, MidBatchApplyFaultKeepsThePrefixContract) {
  // Lowering of the second edit in a batch of three dies (injected
  // session:apply fault). The prefix contract: exactly one edit lowered
  // AND committed (the session reroutes the prefix before rethrowing),
  // last_partial_outcome's offsets/version bracket match that prefix, the
  // session stays in sync, and its state equals a fresh route of the
  // one-edit board. The batch's survivors then replay to the full state.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  ASSERT_GE(storm.edits.size(), 3u);
  RouterOptions opts = storm_options(storm.scenario, 1);
  opts.fault_scope = "sess";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({fault::apply_site("sess"), /*nth=*/2, /*count=*/1});

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();
  const std::uint64_t v0 = session.version();

  const std::span<const layout::BoardEdit> batch(storm.edits.data(), 3);
  EXPECT_THROW((void)session.apply(batch), fault::InjectedFault);

  const std::optional<ApplyOutcome>& part = session.last_partial_outcome();
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->edit_offsets.size(), 2u);  // one edit lowered
  EXPECT_EQ(part->version_before, v0);
  EXPECT_EQ(part->version_after, session.version());
  EXPECT_EQ(part->version_after - part->version_before, part->deltas.size());
  EXPECT_TRUE(session.in_sync()) << "prefix reroute must have committed";

  scenario::Scenario prefix = scenario::materialize(c.base);
  layout::apply_edit(prefix.layout, storm.edits.at(0));
  const Router router(prefix.rules, storm_options(prefix, 1));
  const BoardRoute prefix_route = router.route_board(prefix.layout);
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                prefix.layout, prefix_route, &why))
      << why;

  // Window spent: replaying the rest converges to the full edited board,
  // and the success clears the partial record.
  (void)session.apply(std::span<const layout::BoardEdit>(storm.edits.data() + 1, 2));
  EXPECT_FALSE(session.last_partial_outcome().has_value());
  scenario::Scenario full = scenario::materialize(c.base);
  for (std::size_t k = 0; k < 3; ++k) layout::apply_edit(full.layout, storm.edits.at(k));
  const BoardRoute full_route = router.route_board(full.layout);
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                full.layout, full_route, &why))
      << why;
}

TEST(Session, RerouteFaultLeavesSessionOutOfSyncAndResyncHeals) {
  // The other failure phase: the edit lowers fine but the *reroute* dies
  // (first extend site visited after the initial route). The deltas are
  // journaled, the Router's rollback restored the geometry, so the session
  // reports out-of-sync — and resync() must converge it to the fresh
  // oracle without re-lowering anything.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  RouterOptions opts = storm_options(storm.scenario, 1);

  // Count the members the initial route extends: the fault window starts
  // right after them, so the reroute's first member extension dies.
  std::size_t members = 0;
  for (const layout::MatchGroup& g : storm.scenario.layout.groups()) {
    members += g.members.size();
  }
  opts.fault_scope = "sess";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({"extend:sess/*", /*nth=*/members + 1, /*count=*/1});

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();
  const std::uint64_t v0 = session.version();

  EXPECT_THROW((void)session.apply(storm.edits.at(0)), fault::InjectedFault);
  const std::optional<ApplyOutcome>& part = session.last_partial_outcome();
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->edit_offsets.size(), 2u);  // the edit *did* lower
  EXPECT_FALSE(session.in_sync()) << "reroute failed: route must lag the journal";
  EXPECT_GT(session.version(), v0);

  const ApplyOutcome healed = session.resync();
  EXPECT_TRUE(session.in_sync());
  EXPECT_FALSE(session.last_partial_outcome().has_value());
  EXPECT_EQ(healed.version_after, session.version());
  EXPECT_FALSE(healed.rerouted_groups.empty());

  scenario::Scenario fresh = scenario::materialize(c.base);
  layout::apply_edit(fresh.layout, storm.edits.at(0));
  const Router router(fresh.rules, storm_options(fresh, 1));
  const BoardRoute full = router.route_board(fresh.layout);
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                fresh.layout, full, &why))
      << why;
}

}  // namespace
}  // namespace lmr::pipeline
