#include "dtw/pair_restore.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_harness/suite.hpp"
#include "core/trace_extender.hpp"
#include "geom/distance.hpp"
#include "layout/drc_checker.hpp"
#include "workload/diffpair_cases.hpp"

namespace lmr::dtw {
namespace {

/// Smallest distance from `p` to any segment of `path`.
double dist_to_path(const geom::Point& p, const geom::Polyline& path) {
  double d = 1e18;
  for (std::size_t j = 0; j < path.segment_count(); ++j) {
    d = std::min(d, geom::dist_point_segment(p, path.segment(j)));
  }
  return d;
}

TEST(MergePair, CoupledPairMedianBetweenSubTraces) {
  const auto c = workload::coupled_pair_case();
  const MergedPair m = merge_pair(c.pair, c.sub_rules, c.rule_set);
  ASSERT_GE(m.median.path.size(), 3u);
  // Median length is between the two sub-trace lengths (inner vs outer
  // corner radii).
  const double lp = c.pair.positive.path.length();
  const double ln = c.pair.negative.path.length();
  const double lm = m.median.path.length();
  EXPECT_GE(lm, std::min(lp, ln) - 1e-6);
  EXPECT_LE(lm, std::max(lp, ln) + 1e-6);
}

TEST(MergePair, VirtualRulesWidened) {
  const auto c = workload::coupled_pair_case();
  const MergedPair m = merge_pair(c.pair, c.sub_rules, c.rule_set);
  EXPECT_NEAR(m.virtual_rules.trace_width,
              c.sub_rules.trace_width + c.pair.pitch, 1e-12);
  EXPECT_GT(m.virtual_rules.effective_gap(), c.sub_rules.effective_gap());
}

TEST(MergePair, DecoupledPairDropsTinyPatternLength) {
  const auto c = workload::decoupled_pair_case();
  const MergedPair m = merge_pair(c.pair, c.sub_rules, c.rule_set);
  // The median must not inherit the tiny pattern detour: its length is close
  // to the P length (no pattern), not the N length (pattern adds 0.6).
  EXPECT_LT(m.median.path.length(), c.pair.negative.path.length());
  EXPECT_GT(m.skipped_n_length, 0.0);
}

TEST(RestorePair, StraightMedianRoundTrip) {
  layout::Trace median;
  median.id = 9;
  median.name = "m";
  median.path = geom::Polyline{{{0, 0}, {20, 0}}};
  const layout::DiffPair pair = restore_pair(median, 0.8, 0.15);
  EXPECT_NEAR(pair.positive.path[0].y, 0.4, 1e-12);
  EXPECT_NEAR(pair.negative.path[0].y, -0.4, 1e-12);
  EXPECT_NEAR(pair.positive.path.length(), 20.0, 1e-9);
  EXPECT_NEAR(pair.negative.path.length(), 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(pair.pitch, 0.8);
}

TEST(RestorePair, CorneredMedianKeepsPitchOnSegments) {
  layout::Trace median;
  median.path = geom::Polyline{{{0, 0}, {10, 0}, {10, 10}}};
  const layout::DiffPair pair = restore_pair(median, 1.0, 0.1);
  // Mid-segment perpendicular distance between sub-traces equals the pitch.
  const geom::Segment p0 = pair.positive.path.segment(0);
  const geom::Segment n0 = pair.negative.path.segment(0);
  EXPECT_NEAR(geom::dist_segment_segment(p0, n0), 1.0, 1e-9);
}

TEST(RestorePair, MeanderedMedianStaysParallel) {
  layout::Trace median;
  median.path = geom::Polyline{
      {{0, 0}, {4, 0}, {4, 3}, {7, 3}, {7, 0}, {12, 0}}};
  const layout::DiffPair pair = restore_pair(median, 0.6, 0.1);
  // Sub-traces do not self-intersect.
  EXPECT_FALSE(pair.positive.path.self_intersects());
  EXPECT_FALSE(pair.negative.path.self_intersects());
  // A symmetric U-meander has two left and two right turns, so inner/outer
  // corner effects cancel: both sub-traces match the median length.
  EXPECT_NEAR(pair.positive.path.length(), median.path.length(), 1e-9);
  EXPECT_NEAR(pair.negative.path.length(), median.path.length(), 1e-9);
  // Pitch maintained on every straight run.
  for (std::size_t i = 0; i < pair.positive.path.segment_count(); ++i) {
    const geom::Point mid = pair.positive.path.segment(i).midpoint();
    double d = 1e18;
    for (std::size_t j = 0; j < pair.negative.path.segment_count(); ++j) {
      d = std::min(d, geom::dist_point_segment(mid, pair.negative.path.segment(j)));
    }
    EXPECT_NEAR(d, 0.6, 1e-6) << "segment " << i;
  }
}

TEST(MergePair, NodePitchAttributionKeepsDraMarkers) {
  // The decoupled case crosses two DRAs (0.8 then 2.4). The merged median
  // must carry one pitch per node, and the transition markers must survive
  // simplification even though the median is one straight line there.
  const auto c = workload::decoupled_pair_case();
  const MergedPair m = merge_pair(c.pair, c.sub_rules, c.rule_set);
  ASSERT_EQ(m.node_pitch.size(), m.median.path.size());
  EXPECT_DOUBLE_EQ(m.base_pitch, c.pair.pitch);
  const bool has_narrow = std::count(m.node_pitch.begin(), m.node_pitch.end(), 0.8) > 0;
  const bool has_wide = std::count(m.node_pitch.begin(), m.node_pitch.end(), 2.4) > 0;
  EXPECT_TRUE(has_narrow);
  EXPECT_TRUE(has_wide);
  // Breakout originals recorded for verbatim re-anchoring.
  ASSERT_EQ(m.breakout_p.size(), c.pair.breakout_nodes);
  ASSERT_EQ(m.breakout_n.size(), c.pair.breakout_nodes);
  EXPECT_TRUE(geom::almost_equal(m.breakout_p[0], c.pair.positive.path[0]));
  EXPECT_TRUE(geom::almost_equal(m.breakout_n[0], c.pair.negative.path[0]));
}

TEST(RestorePair, PiecewisePitchRestoresEachSectionAtItsRule) {
  // Acceptance criterion of the multi-pitch restore: a wide-DRA section must
  // restore at its own rule, not the base pitch.
  layout::Trace median;
  median.path = geom::Polyline{{{0, 0}, {20, 0}, {24, 0}, {44, 0}}};
  const std::vector<double> node_pitch{0.8, 0.8, 2.0, 2.0};
  RestoreSpec spec;
  spec.pitch = 0.8;
  spec.sub_width = 0.15;
  spec.node_pitch = node_pitch;
  const layout::DiffPair pair = restore_pair(median, spec);
  // Mid-narrow-section separation equals the narrow rule.
  const geom::Point p_narrow = pair.positive.path.point_at_arclength(10.0);
  EXPECT_NEAR(p_narrow.y, 0.4, 1e-9);
  EXPECT_NEAR(dist_to_path(p_narrow, pair.negative.path), 0.8, 1e-9);
  // Mid-wide-section separation equals the wide rule — NOT the base pitch.
  const geom::Point p_wide{34.0, pair.positive.path.back().y};
  EXPECT_NEAR(p_wide.y, 1.0, 1e-9);
  EXPECT_NEAR(dist_to_path(p_wide, pair.negative.path), 2.0, 1e-9);
  // The transition is a straight taper between the two offsets.
  EXPECT_FALSE(pair.positive.path.self_intersects());
  EXPECT_FALSE(pair.negative.path.self_intersects());
}

TEST(RestorePair, UniformNodePitchMatchesClassicOffset) {
  layout::Trace median;
  median.path = geom::Polyline{{{0, 0}, {4, 0}, {4, 3}, {7, 3}, {7, 0}, {12, 0}}};
  const layout::DiffPair classic = restore_pair(median, 0.6, 0.1);
  const std::vector<double> node_pitch(median.path.size(), 0.6);
  RestoreSpec spec;
  spec.pitch = 0.6;
  spec.sub_width = 0.1;
  spec.node_pitch = node_pitch;
  const layout::DiffPair piecewise = restore_pair(median, spec);
  ASSERT_EQ(piecewise.positive.path.size(), classic.positive.path.size());
  ASSERT_EQ(piecewise.negative.path.size(), classic.negative.path.size());
  for (std::size_t i = 0; i < classic.positive.path.size(); ++i) {
    EXPECT_TRUE(geom::almost_equal(piecewise.positive.path[i], classic.positive.path[i], 1e-9));
    EXPECT_TRUE(geom::almost_equal(piecewise.negative.path[i], classic.negative.path[i], 1e-9));
  }
}

TEST(RestorePair, BreakoutAnchoredVerbatim) {
  // The breakout is NOT pitch-separated: averaged-then-offset restoration
  // would drift the endpoints off the pins; the spec re-anchors them.
  layout::DiffPair pair;
  pair.name = "anchored";
  pair.pitch = 0.8;
  pair.breakout_nodes = 1;
  pair.positive.width = 0.15;
  pair.negative.width = 0.15;
  pair.positive.path = geom::Polyline{{{0, 0.7}, {2, 0.4}, {20, 0.4}}};
  pair.negative.path = geom::Polyline{{{0, -0.4}, {2, -0.4}, {20, -0.4}}};
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.protect = 0.3;
  rules.trace_width = 0.15;
  const MergedPair m = merge_pair(pair, rules, {0.8});
  RestoreSpec spec;
  spec.pitch = pair.pitch;
  spec.sub_width = 0.15;
  spec.node_pitch = m.node_pitch;
  spec.breakout_p = m.breakout_p;
  spec.breakout_n = m.breakout_n;
  const layout::DiffPair restored = restore_pair(m.median, spec);
  EXPECT_TRUE(geom::almost_equal(restored.positive.path[0], {0.0, 0.7}, 1e-9));
  EXPECT_TRUE(geom::almost_equal(restored.negative.path[0], {0.0, -0.4}, 1e-9));
  // Without the anchors the endpoint drifts (the breakout separation is 1.1,
  // not the pitch): the averaged node offsets to y ~ 0.15 + 0.4, off the pin.
  const layout::DiffPair drifted = restore_pair(m.median, m.base_pitch, 0.15);
  EXPECT_GT(std::abs(drifted.positive.path[0].y - 0.7), 0.1);
}

TEST(TransferNodePitch, PatternNodesInheritHostSegmentDra) {
  const geom::Polyline reference{{{0, 0}, {10, 0}, {14, 0}, {24, 0}}};
  const std::vector<double> ref_pitch{0.8, 0.8, 2.0, 2.0};
  // The extender meandered both sections: bump over the narrow host, bump
  // over the wide host; original nodes survive verbatim.
  const geom::Polyline extended{{{0, 0}, {2, 0}, {2, 3}, {5, 3}, {5, 0}, {10, 0},
                                 {14, 0}, {16, 0}, {16, 2}, {20, 2}, {20, 0}, {24, 0}}};
  const std::vector<double> q = transfer_node_pitch(reference, ref_pitch, extended);
  ASSERT_EQ(q.size(), extended.size());
  for (std::size_t i = 0; i <= 5; ++i) EXPECT_DOUBLE_EQ(q[i], 0.8) << i;
  for (std::size_t i = 6; i < q.size(); ++i) EXPECT_DOUBLE_EQ(q[i], 2.0) << i;
}

TEST(TransferNodePitch, LocalRestorePitchProbesWidestAlongSegment) {
  const geom::Polyline reference{{{0, 0}, {10, 0}, {14, 0}, {24, 0}}};
  const std::vector<double> ref_pitch{0.8, 0.8, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(local_restore_pitch(reference, ref_pitch, {{2, 0}, {8, 0}}), 0.8);
  EXPECT_DOUBLE_EQ(local_restore_pitch(reference, ref_pitch, {{16, 0}, {22, 0}}), 2.0);
  // A segment spanning the transition takes the widest rule it touches.
  EXPECT_DOUBLE_EQ(local_restore_pitch(reference, ref_pitch, {{8, 0}, {12, 0}}), 2.0);
}

TEST(CompensateSkew, InsertsTinyPatternOnShorter) {
  layout::DiffPair pair;
  pair.pitch = 0.8;
  pair.positive.path = geom::Polyline{{{0, 0.4}, {30, 0.4}}};     // 30
  pair.negative.path = geom::Polyline{
      {{0, -0.4}, {5, -0.4}, {5, -2.4}, {9, -2.4}, {9, -0.4}, {30, -0.4}}};  // 34
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.obs = 0.4;
  rules.protect = 0.3;
  rules.trace_width = 0.15;
  const double before = std::abs(pair.positive.path.length() - pair.negative.path.length());
  const double after = compensate_skew(pair, rules);
  EXPECT_LT(after, before);
  EXPECT_NEAR(after, 0.0, 1e-9);
}

TEST(CompensateSkew, NegligibleSkewLeftAlone) {
  layout::DiffPair pair;
  pair.pitch = 0.8;
  pair.positive.path = geom::Polyline{{{0, 0.4}, {30, 0.4}}};
  pair.negative.path = geom::Polyline{{{0, -0.4}, {30.2, -0.4}}};
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.protect = 0.3;
  const std::size_t nodes_before = pair.positive.path.size();
  compensate_skew(pair, rules);
  EXPECT_EQ(pair.positive.path.size(), nodes_before);  // nothing inserted
}

TEST(CompensateSkew, ObstacleOverLongestHostFallsBackToNextLongest) {
  layout::DiffPair pair;
  pair.pitch = 0.8;
  // Shorter trace (P) has two straight hosts: [0,20] and [20,30].
  pair.positive.path = geom::Polyline{{{0, 0.4}, {20, 0.4}, {30, 0.4}}};
  pair.negative.path = geom::Polyline{
      {{0, -0.4}, {5, -0.4}, {5, -2.4}, {9, -2.4}, {9, -0.4}, {30, -0.4}}};  // 34
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.obs = 0.4;
  rules.protect = 0.3;
  rules.trace_width = 0.15;
  // A via sits right where the blind splice would put the hat (host mid at
  // x = 10, hat height = skew/2 = 2 above the trace).
  const std::vector<layout::Obstacle> obstacles{
      {geom::Polygon::rect({{8.0, 1.2}, {12.0, 2.2}}), "via"}};
  const double before = std::abs(pair.positive.path.length() - pair.negative.path.length());
  const double after = compensate_skew(pair, rules, nullptr, &obstacles);
  EXPECT_NEAR(after, 0.0, 1e-9);
  EXPECT_LT(after, before);
  // The pattern landed on the second host (x > 20), not under the via.
  double hat_x = -1.0;
  for (const geom::Point& p : pair.positive.path.points()) {
    if (p.y > 2.0) hat_x = std::max(hat_x, p.x);
  }
  EXPECT_GT(hat_x, 20.0);
  // And the relocated pattern really clears the obstacle.
  const layout::DrcChecker checker;
  EXPECT_TRUE(checker.check_obstacles(pair.positive, rules, obstacles).empty());
}

TEST(CompensateSkew, MiteredRulesChamferTheHat) {
  // With d_miter > 0 the oracle rejects right-angle corners, so the hat must
  // be chamfered (and sized for the chamfer's length trade) instead of every
  // host being vetoed by the pattern's own corners.
  layout::DiffPair pair;
  pair.pitch = 0.8;
  pair.positive.path = geom::Polyline{{{0, 0.4}, {30, 0.4}}};
  pair.negative.path = geom::Polyline{{{0, -0.4}, {34, -0.4}}};
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.obs = 0.4;
  rules.protect = 0.3;
  rules.miter = 0.3;
  rules.trace_width = 0.15;
  const double after = compensate_skew(pair, rules);
  EXPECT_LT(after, 1.0);  // chamfer clamping may leave a small residual
  const layout::DrcChecker checker;
  const auto v = checker.check_trace(pair.positive, rules);
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : layout::to_string(v[0].kind));
}

TEST(CompensateSkew, NoLegalHostLeavesPathUntouched) {
  layout::DiffPair pair;
  pair.pitch = 0.8;
  pair.positive.path = geom::Polyline{{{0, 0.4}, {30, 0.4}}};
  pair.negative.path = geom::Polyline{
      {{0, -0.4}, {5, -0.4}, {5, -2.4}, {9, -2.4}, {9, -0.4}, {30, -0.4}}};
  drc::DesignRules rules;
  rules.gap = 0.6;
  rules.obs = 0.4;
  rules.protect = 0.3;
  rules.trace_width = 0.15;
  // The routing area ends just above the trace: the hat (2 high) cannot fit
  // anywhere, so the path must stay untouched instead of leaving the area.
  layout::RoutableArea area;
  area.outline = geom::Polygon::rect({{-1.0, -3.0}, {31.0, 1.0}});
  const std::size_t nodes_before = pair.positive.path.size();
  const double before = std::abs(pair.positive.path.length() - pair.negative.path.length());
  const double after = compensate_skew(pair, rules, &area);
  EXPECT_DOUBLE_EQ(after, before);
  EXPECT_EQ(pair.positive.path.size(), nodes_before);
}

/// Satellite oracle helper: route a whole scenario family end to end
/// (merge -> extend -> restore for every differential member) and assert the
/// sub-trace oracle accepts every case — at the given parallelism, which
/// must not change the verdict.
void expect_family_restore_clean(const std::string& family, std::size_t threads) {
  bench::SuiteOptions opts;
  opts.smoke = false;  // the full family, including Table I case 5
  opts.families = {family};
  opts.threads = threads;
  const bench::Suite suite(opts);
  const bench::SuiteResult result = suite.run();
  ASSERT_FALSE(result.cases.empty());
  for (const bench::CaseOutcome& c : result.cases) {
    EXPECT_TRUE(c.drc_clean()) << c.scenario << ": oracle rejected restored traces";
    EXPECT_TRUE(c.ok()) << c.scenario << ": family gate failed";
  }
}

TEST(PairRestoreOracle, PairCorridorsOverlappedSerial) {
  expect_family_restore_clean("pair_corridors", 1);
}
TEST(PairRestoreOracle, PairCorridorsOverlappedThreaded) {
  expect_family_restore_clean("pair_corridors", 4);
}
TEST(PairRestoreOracle, Table1OverlappedSerial) { expect_family_restore_clean("table1", 1); }
TEST(PairRestoreOracle, Table1OverlappedThreaded) { expect_family_restore_clean("table1", 4); }

TEST(FullRoundTrip, MergeExtendRestoreIsDrcClean) {
  // The MSDTW pipeline end to end on the decoupled case: merge, length-match
  // the median, restore, compensate; the restored pair must be coupled and
  // roughly at target.
  auto c = workload::decoupled_pair_case();
  MergedPair m = merge_pair(c.pair, c.sub_rules, c.rule_set);
  const double target = m.median.path.length() + 14.0;
  core::TraceExtender ext(m.virtual_rules, c.area);
  const core::ExtendStats stats = ext.extend(m.median, target);
  EXPECT_TRUE(stats.reached) << stats.final_length;
  layout::DiffPair restored = restore_pair(m.median, c.pair.pitch, c.sub_rules.trace_width);
  compensate_skew(restored, c.sub_rules);
  const double lp = restored.positive.path.length();
  const double ln = restored.negative.path.length();
  EXPECT_NEAR(lp, ln, c.sub_rules.protect * 2.0 + 1e-6);
  // Sub-traces keep the pair pitch along straight runs (spot check at a few
  // arc-length samples).
  EXPECT_FALSE(restored.positive.path.self_intersects());
  EXPECT_FALSE(restored.negative.path.self_intersects());
}

}  // namespace
}  // namespace lmr::dtw
