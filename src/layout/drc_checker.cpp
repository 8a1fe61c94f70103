#include "layout/drc_checker.hpp"

#include <algorithm>
#include <cmath>

#include "geom/distance.hpp"
#include "layout/clearance_sweep.hpp"

namespace lmr::layout {

namespace {

using geom::Point;
using geom::Segment;
using geom::Vec2;

/// Length of the mutual parallel overlap between two segments: the overlap
/// of s2's projection onto s1's axis with s1's own extent (and vice versa;
/// we take the smaller). Zero for perpendicular or merely corner-touching
/// placements.
double parallel_overlap(const Segment& s1, const Segment& s2) {
  const auto overlap_on = [](const Segment& base, const Segment& other) {
    const Vec2 u = base.unit();
    const double a0 = 0.0;
    const double a1 = base.length();
    double b0 = geom::dot(other.a - base.a, u);
    double b1 = geom::dot(other.b - base.a, u);
    if (b0 > b1) std::swap(b0, b1);
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
  };
  if (s1.degenerate() || s2.degenerate()) return 0.0;
  return std::min(overlap_on(s1, s2), overlap_on(s2, s1));
}

bool is_chamfer_stub(const geom::Polyline& path, std::size_t seg_idx) {
  // A chamfer diagonal runs at roughly 45 degrees to at least one adjacent
  // segment (the mitered corner's arms).
  const Segment s = path.segment(seg_idx);
  const Vec2 u = s.unit();
  const auto angle_ok = [&](const Segment& nb) {
    if (nb.degenerate()) return false;
    const double c = std::abs(geom::dot(u, nb.unit()));
    return c > 0.5 && c < 0.9;  // ~25..60 degrees: chamfer-like
  };
  if (seg_idx > 0 && angle_ok(path.segment(seg_idx - 1))) return true;
  if (seg_idx + 1 < path.segment_count() && angle_ok(path.segment(seg_idx + 1))) return true;
  return false;
}

/// The exact obstacle loop every check_obstacles overload shares:
/// obstacle-major, then segment order; `box_of(ref)` supplies the
/// obstacle's bbox.
template <typename BoxOf>
std::vector<Violation> scan_obstacles(const Trace& t, double clear, double tol,
                                      std::span<const ObstacleRef> obstacles,
                                      BoxOf&& box_of) {
  std::vector<Violation> out;
  for (const ObstacleRef& ref : obstacles) {
    const geom::Polygon& poly = ref.obstacle->shape;
    const geom::Box grown = box_of(ref).inflated(clear + tol);
    for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
      const Segment s = t.path.segment(i);
      if (!grown.intersects(s.bbox())) continue;
      const double d = geom::dist_segment_polygon(s, poly);
      if (d + tol < clear) {
        out.push_back({ViolationKind::ObstacleClearance, t.id, 0, i, ref.index, d, clear,
                       "trace too close to obstacle " + ref.obstacle->name});
      }
    }
  }
  return out;
}

}  // namespace

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::MinSegmentLength: return "MinSegmentLength";
    case ViolationKind::SelfGap: return "SelfGap";
    case ViolationKind::TraceGap: return "TraceGap";
    case ViolationKind::ObstacleClearance: return "ObstacleClearance";
    case ViolationKind::AreaContainment: return "AreaContainment";
    case ViolationKind::CornerAngle: return "CornerAngle";
  }
  return "?";
}

std::vector<Violation> DrcChecker::check_trace(const Trace& t,
                                               const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const auto& path = t.path;
  const std::size_t n = path.segment_count();

  for (std::size_t i = 0; i < n; ++i) {
    const double len = path.segment(i).length();
    if (len + opts_.tolerance < rules.protect) {
      if (opts_.allow_chamfer_stubs && is_chamfer_stub(path, i)) continue;
      out.push_back({ViolationKind::MinSegmentLength, t.id, 0, i, 0, len, rules.protect,
                     "segment shorter than d_protect"});
    }
  }

  const double gap = rules.effective_gap();
  // cos(30 deg): the self-gap rule targets coupled parallel runs; segments
  // meeting at wider angles (corner necks, perpendicular legs at joints)
  // are legal down to d_protect by the paper's transition rules.
  constexpr double kNearParallel = 0.866;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      const Segment si = path.segment(i);
      const Segment sj = path.segment(j);
      const double d = geom::dist_segment_segment(si, sj);
      if (d + opts_.tolerance >= gap) continue;
      if (parallel_overlap(si, sj) <= opts_.tolerance) continue;
      if (si.degenerate() || sj.degenerate()) continue;
      if (std::abs(geom::dot(si.unit(), sj.unit())) < kNearParallel) continue;
      out.push_back({ViolationKind::SelfGap, t.id, 0, i, j, d, gap,
                     "parallel same-net segments closer than effective gap"});
    }
  }

  if (rules.miter > 0.0) {
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const Vec2 in_dir = path[i] - path[i - 1];
      const Vec2 out_dir = path[i + 1] - path[i];
      if (in_dir.norm() <= geom::kEps || out_dir.norm() <= geom::kEps) continue;
      // Turn of >= 90 degrees <=> forward dot <= 0 (right angle included).
      if (geom::dot(in_dir.normalized(), out_dir.normalized()) <= opts_.tolerance) {
        out.push_back({ViolationKind::CornerAngle, t.id, 0, i, 0,
                       geom::dot(in_dir.normalized(), out_dir.normalized()), 0.0,
                       "right/acute corner present while d_miter demands obtuse"});
      }
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_obstacles(
    const Trace& t, const drc::DesignRules& rules,
    const std::vector<Obstacle>& obstacles) const {
  return check_obstacles(t, rules, ObstacleIndex(obstacles));
}

std::vector<Violation> DrcChecker::check_obstacles(const Trace& t,
                                                   const drc::DesignRules& rules,
                                                   const ObstacleIndex& obstacles) const {
  // Everything the exact loop below can flag: its per-segment prefilter is
  // the obstacle bbox grown by the clearance, so any hit has a bbox within
  // that distance of the path bbox (the 1e-9 absorbs rounding between the
  // two orders of inflation).
  std::vector<ObstacleRef> near;
  obstacles.query(t.path.bbox().inflated(rules.effective_obs() + opts_.tolerance + 1e-9),
                  near);
  return scan_obstacles(t, rules.effective_obs(), opts_.tolerance, near,
                        [&](const ObstacleRef& r) { return obstacles.bbox(r.index); });
}

std::vector<Violation> DrcChecker::check_obstacles(
    const Trace& t, const drc::DesignRules& rules,
    std::span<const ObstacleRef> obstacles) const {
  return scan_obstacles(t, rules.effective_obs(), opts_.tolerance, obstacles,
                        [](const ObstacleRef& r) { return r.obstacle->shape.bbox(); });
}

std::vector<Violation> DrcChecker::check_containment(const Trace& t,
                                                     const RoutableArea& area) const {
  std::vector<Violation> out;
  if (area.outline.empty()) return out;
  for (std::size_t i = 0; i < t.path.size(); ++i) {
    if (!area.contains(t.path[i])) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "vertex outside routable area"});
    }
  }
  for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
    const Point mid = t.path.segment(i).midpoint();
    if (!area.contains(mid)) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "segment midpoint outside routable area"});
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_trace_pair(const Trace& a, const Trace& b,
                                                    const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const double gap = rules.gap + (a.width + b.width) / 2.0;
  if (!a.path.bbox().inflated(gap).intersects(b.path.bbox())) return out;
  for (std::size_t i = 0; i < a.path.segment_count(); ++i) {
    for (std::size_t j = 0; j < b.path.segment_count(); ++j) {
      const double d = geom::dist_segment_segment(a.path.segment(i), b.path.segment(j));
      if (d + opts_.tolerance < gap) {
        out.push_back({ViolationKind::TraceGap, a.id, b.id, i, j, d, gap,
                       "segments of different traces closer than gap"});
      }
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_layout(const Layout& layout,
                                                const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const auto append = [&out](std::vector<Violation> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  const ObstacleIndex obstacles(layout.obstacles());
  for (const auto& [id, t] : layout.traces()) {
    append(check_trace(t, rules));
    append(check_obstacles(t, rules, obstacles));
    if (const RoutableArea* area = layout.routable_area(id)) {
      append(check_containment(t, *area));
    }
  }
  // Pairwise clearance via the indexed sweep (each trace is its own net) —
  // the one-shot ClearanceIndex wrapper.
  std::vector<SweepTrace> sweep;
  std::uint32_t net = 0;
  for (const auto& [id, t] : layout.traces()) {
    (void)id;
    sweep.push_back({&t, net++});
  }
  append(cross_clearance_sweep(sweep, rules, opts_));
  return out;
}

}  // namespace lmr::layout
