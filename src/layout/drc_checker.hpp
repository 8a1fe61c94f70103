#pragma once
/// \file drc_checker.hpp
/// Ground-truth DRC oracle.
///
/// Codifies the paper's rule model (§II, Fig. 1) into checkable predicates.
/// The extension engine never calls this — it enforces rules constructively
/// via DP transition validity and URA shrinking — but every test suite and
/// the benchmark harness validate results against this oracle, so the two
/// implementations check each other.
///
/// Rule codification (documented in DESIGN.md §5):
///  * MinSegmentLength — every trace segment >= d_protect (chamfer diagonals
///    produced by mitering are exempt when `allow_chamfer_stubs`).
///  * SelfGap — two non-adjacent segments of the same trace violate d_gap
///    (centerline effective gap) only when they also have positive mutual
///    parallel overlap; perpendicular/corner approaches across the serpentine
///    base are legal by construction (opposite-direction transitions are
///    allowed at d_protect, which is below d_gap).
///  * TraceGap — segments of *different* traces must always clear the
///    effective gap (no exemption; matched traces own disjoint regions).
///  * ObstacleClearance — every segment keeps d_obs + w/2 from every obstacle
///    polygon boundary (centerline rule).
///  * AreaContainment — every vertex and segment midpoint of a trace lies
///    inside its routable area.
///  * CornerAngle — when d_miter > 0, no corner may turn by 90 degrees or
///    more (the paper: right/acute rotations must be mitered by obtuse
///    angles).

#include <span>
#include <string>
#include <vector>

#include "drc/rules.hpp"
#include "geom/polyline.hpp"
#include "layout/layout.hpp"
#include "layout/obstacle_index.hpp"
#include "layout/routable_area.hpp"

namespace lmr::layout {

enum class ViolationKind {
  MinSegmentLength,
  SelfGap,
  TraceGap,
  ObstacleClearance,
  AreaContainment,
  CornerAngle,
};

/// One violation instance with enough context to debug a failing test.
struct Violation {
  ViolationKind kind = ViolationKind::SelfGap;
  TraceId trace = 0;
  TraceId other_trace = 0;   ///< for TraceGap
  std::size_t index_a = 0;   ///< segment / vertex index
  std::size_t index_b = 0;   ///< second segment index where applicable
  double measured = 0.0;
  double required = 0.0;
  std::string note;
};

const char* to_string(ViolationKind k);

/// Caller-built obstacle subset with an exactness guard. `local` lists every
/// obstacle whose shape bbox intersects `coverage` (in ascending original
/// index); a query whose probe box is not wholly inside `coverage` falls
/// back to `full`. Selection therefore never changes which violations are
/// found. The router does not use it (its checks go through ObstacleIndex);
/// it stays for callers that pick their own obstacle views, through the
/// span overload of `check_obstacles` and the matching `compensate_skew`
/// overload.
struct ObstacleSelector {
  std::span<const ObstacleRef> local;
  std::span<const ObstacleRef> full;
  geom::Box coverage;  ///< region `local` is complete for; empty = always full

  [[nodiscard]] std::span<const ObstacleRef> select(const geom::Box& need) const {
    if (!need.empty() && !coverage.empty() && coverage.contains(need.lo) &&
        coverage.contains(need.hi)) {
      return local;
    }
    return full;
  }
};

/// Checker options.
struct DrcCheckOptions {
  /// Numeric slack: measurements may fall short of the rule by this much
  /// before being reported (floating-point construction noise).
  double tolerance = 1e-6;
  /// Exempt sub-d_protect segments that run at ~45 degrees to both
  /// neighbours (chamfer diagonals from mitering).
  bool allow_chamfer_stubs = true;
};

/// Stateless checking functions; all return accumulated violations.
class DrcChecker {
 public:
  explicit DrcChecker(DrcCheckOptions opts = {}) : opts_(opts) {}

  /// Rules within one trace (min length, self gap, corner angle).
  [[nodiscard]] std::vector<Violation> check_trace(const Trace& t,
                                                   const drc::DesignRules& rules) const;

  /// Trace vs obstacle clearances over a whole obstacle list (builds an
  /// ObstacleIndex for the call).
  [[nodiscard]] std::vector<Violation> check_obstacles(
      const Trace& t, const drc::DesignRules& rules,
      const std::vector<Obstacle>& obstacles) const;

  /// Same check through a prebuilt board index: only obstacles whose bbox
  /// meets the trace's clearance reach are scanned. Byte-identical
  /// violations (values and order) to the full-list overload.
  [[nodiscard]] std::vector<Violation> check_obstacles(
      const Trace& t, const drc::DesignRules& rules, const ObstacleIndex& obstacles) const;

  /// Same check over an index-preserving subset view; refs must be in
  /// ascending original index for identical violation order.
  [[nodiscard]] std::vector<Violation> check_obstacles(
      const Trace& t, const drc::DesignRules& rules,
      std::span<const ObstacleRef> obstacles) const;

  /// Trace containment in its routable area.
  [[nodiscard]] std::vector<Violation> check_containment(const Trace& t,
                                                         const RoutableArea& area) const;

  /// Pairwise clearance between two different traces.
  [[nodiscard]] std::vector<Violation> check_trace_pair(const Trace& a, const Trace& b,
                                                        const drc::DesignRules& rules) const;

  /// Full sweep over a layout: every trace against its rules/area/obstacles
  /// and all trace pairs.
  [[nodiscard]] std::vector<Violation> check_layout(const Layout& layout,
                                                    const drc::DesignRules& rules) const;

 private:
  DrcCheckOptions opts_;
};

}  // namespace lmr::layout
