/// Router-level fault injection: the strong exception guarantee under the
/// deterministic fault plane. An injected fault or expired deadline at any
/// stage — member extension, the cross-member sweep, or the extender's
/// pattern loop — must unwind through Router::run's rollback and leave the
/// layout byte-identical to its pre-route state; a retry with the fault
/// window spent must then produce exactly the route an unfaulted run does.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/cancel.hpp"
#include "fault/fault_plan.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"

namespace lmr::pipeline {
namespace {

RouterOptions storm_options(const scenario::Scenario& sc) {
  RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

/// Snapshot every member path on the board for the untouched-layout check.
std::vector<std::vector<geom::Point>> all_paths(const layout::Layout& l) {
  std::vector<std::vector<geom::Point>> paths;
  for (const auto& [id, t] : l.traces()) {
    (void)id;
    paths.push_back(t.path.points());
  }
  for (const auto& [id, p] : l.pairs()) {
    (void)id;
    paths.push_back(p.positive.path.points());
    paths.push_back(p.negative.path.points());
  }
  return paths;
}

TEST(FaultInjection, ExtendFaultRollsBackAndRetrySucceeds) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.fault_scope = "b0";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  // Second member of group 0 dies once: sibling chains may already have
  // written back, so this exercises the restore loop, not just the throw.
  opts.fault_plan->add({fault::extend_site("b0", 0, 1), /*nth=*/1, /*count=*/1});

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route(board, 0), fault::InjectedFault);
  EXPECT_EQ(all_paths(board), before) << "rollback left residue";

  // Window spent: the retry must equal a never-faulted route bit for bit.
  const RouteResult retried = router.route(board, 0);
  layout::Layout clean_board = storm.scenario.layout;
  const Router clean(storm.scenario.rules, storm_options(storm.scenario));
  const RouteResult reference = clean.route(clean_board, 0);
  EXPECT_EQ(all_paths(board), all_paths(clean_board));
  EXPECT_EQ(retried.violation_count(), reference.violation_count());
}

TEST(FaultInjection, BoardRouteRollsBackSiblingGroupsOnFault) {
  // Board-level strong guarantee: route_board runs groups in parallel, and
  // Router::run's rollback only covers the group that threw. Sibling
  // groups that finished before the fault propagates must ALSO be
  // restored — otherwise a retry re-extends already-extended traces and
  // diverges from a fresh route. Regression test for the route_board /
  // reroute snapshot-restore wrapper; pin threads > 1 so siblings really
  // do complete while group 0 is dying.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.threads = 4;
  opts.fault_scope = "b0";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({fault::extend_site("b0", 0, 0), /*nth=*/1, /*count=*/1});

  layout::Layout board = storm.scenario.layout;
  ASSERT_GE(board.groups().size(), 2u) << "needs sibling groups to expose the leak";
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route_board(board), fault::InjectedFault);
  EXPECT_EQ(all_paths(board), before) << "a sibling group kept its geometry";

  // Window spent: the whole-board retry must match a never-faulted board.
  const BoardRoute retried = router.route_board(board);
  layout::Layout clean_board = storm.scenario.layout;
  RouterOptions clean_opts = storm_options(storm.scenario);
  clean_opts.threads = 4;
  const Router clean(storm.scenario.rules, clean_opts);
  const BoardRoute reference = clean.route_board(clean_board);
  EXPECT_EQ(all_paths(board), all_paths(clean_board));
  std::string why;
  EXPECT_TRUE(routes_equivalent(board, retried, clean_board, reference, &why)) << why;
}

TEST(FaultInjection, SweepFaultStillRollsBackEveryWriteback) {
  // The sweep site sits after all member chains completed — every member
  // has written back by then, so rollback must restore all of them.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.fault_scope = "b0";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({fault::sweep_site("b0", 0), /*nth=*/1, /*count=*/1});

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route(board, 0), fault::InjectedFault);
  EXPECT_EQ(all_paths(board), before) << "sweep-site fault skipped the rollback";
  EXPECT_NO_THROW((void)router.route(board, 0));
}

TEST(FaultInjection, ImpossibleDeadlineTimesOutCleanly) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.deadline_s = 1e-12;

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route(board, 0), fault::RouteTimeout);
  EXPECT_EQ(all_paths(board), before);
}

TEST(FaultInjection, GenerousDeadlineDoesNotPerturbTheRoute) {
  // The armed-token path (patched extender config, per-pop polls) must be
  // behaviour-neutral: same geometry and violations as the disarmed run.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions timed = storm_options(storm.scenario);
  timed.deadline_s = 3600.0;

  layout::Layout timed_board = storm.scenario.layout;
  layout::Layout plain_board = storm.scenario.layout;
  const Router timed_router(storm.scenario.rules, timed);
  const Router plain_router(storm.scenario.rules, storm_options(storm.scenario));
  const RouteResult a = timed_router.route(timed_board, 0);
  const RouteResult b = plain_router.route(plain_board, 0);
  EXPECT_EQ(all_paths(timed_board), all_paths(plain_board));
  EXPECT_EQ(a.violation_count(), b.violation_count());
}

TEST(FaultInjection, PreCancelledTokenAbortsBeforeAnyWork) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  const fault::CancelToken token = fault::CancelToken::source();
  token.cancel();
  opts.cancel = token;

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route(board, 0), fault::RouteCancelled);
  EXPECT_EQ(all_paths(board), before);
}

TEST(FaultInjection, ExtenderLoopHonoursMidRouteCancellation) {
  // Cancellation polled inside the DP loop itself: cancel after routing
  // starts is observed without finishing the board (here pre-armed, the
  // first pop throws; granularity is one pattern placement).
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  core::ExtenderConfig cfg;
  cfg.l_disc = 0.5;
  const fault::CancelToken token = fault::CancelToken::source();
  cfg.cancel = token;
  token.cancel();

  layout::Layout board = storm.scenario.layout;
  const layout::MatchGroup& group = board.groups().at(0);
  ASSERT_FALSE(group.members.empty());
  const layout::GroupMember& member = group.members.front();
  const layout::RoutableArea* area = board.routable_area(member.id);
  ASSERT_NE(area, nullptr);
  if (member.kind != layout::MemberKind::SingleEnded) {
    GTEST_SKIP() << "first member is a pair; extender loop covered via Router";
  }
  layout::Trace trace = board.trace(member.id);
  core::TraceExtender ext(storm.scenario.rules, *area);
  EXPECT_THROW((void)ext.extend(trace, trace.length() * 2.0, cfg),
               fault::RouteCancelled);
}

}  // namespace
}  // namespace lmr::pipeline
