#include "core/height_solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "geom/distance.hpp"
#include "geom/intersect.hpp"

namespace lmr::core {

namespace {

constexpr double kStrict = 1e-9;

/// segment_intersection accepts a crossing at most kEps beyond an edge's end
/// along the edge, so an edge whose x-range misses a vertical side line by
/// more than this margin cannot meet it.
constexpr double kSideMargin = 1000.0 * geom::kEps;

/// Per-thread buffers reused by every max_height call, so the solver stays
/// const (shareable across pool workers) and a query allocates nothing once
/// warm. Only the entries of the current candidates are ever read or written.
struct Scratch {
  std::vector<std::size_t> cand;
  std::vector<std::size_t> inside_count;
  std::vector<double> inside_min_y;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Strictly-inside test against the outer border (touching the border is
/// exactly the rule distance, hence legal).
bool strictly_inside(const geom::Box& outer, const geom::Point& p) {
  return p.x > outer.lo.x + kStrict && p.x < outer.hi.x - kStrict && p.y > kStrict &&
         p.y < outer.hi.y - kStrict;
}

/// Node inside the *closed* inner border (clearance exactly met is legal).
bool inside_inner(const geom::Box& inner, const geom::Point& p) {
  return p.x >= inner.lo.x - kStrict && p.x <= inner.hi.x + kStrict && p.y >= -kStrict &&
         p.y <= inner.hi.y + kStrict;
}

}  // namespace

HeightSolver::HeightSolver(std::vector<LocalPoly> polys, double half)
    : polys_(std::move(polys)), half_(half) {
  std::vector<index::RangeTree2D::Entry> entries;
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    LocalPoly& lp = polys_[i];
    lp.bbox = lp.poly.bbox();
    lp.min_y = std::numeric_limits<double>::infinity();
    for (const geom::Point& p : lp.poly.points()) {
      lp.min_y = std::min(lp.min_y, p.y);
      entries.push_back({p, static_cast<std::uint32_t>(i)});
    }
  }
  node_tree_ = index::RangeTree2D{std::move(entries)};
}

HeightSolver HeightSolver::for_segment(const Environment& env, const geom::Segment& s, int dir,
                                       double max_reach, double half) {
  const geom::Frame frame = geom::Frame::along(s, dir < 0);
  const double len = s.length();
  // Reachable local region of any candidate URA on this side.
  geom::Box local_reach{{-half - geom::kEps, -half - geom::kEps},
                        {len + half + geom::kEps, max_reach + half + geom::kEps}};
  // Its global bbox for collection.
  geom::Box global;
  global.expand(frame.to_global(local_reach.lo));
  global.expand(frame.to_global({local_reach.hi.x, local_reach.lo.y}));
  global.expand(frame.to_global({local_reach.lo.x, local_reach.hi.y}));
  global.expand(frame.to_global(local_reach.hi));

  std::vector<LocalPoly> locals;
  for (const EnvPolygon* e : env.collect(global)) {
    std::vector<geom::Point> pts;
    pts.reserve(e->poly.size());
    for (const geom::Point& p : e->poly.points()) pts.push_back(frame.to_local(p));
    LocalPoly lp;
    lp.poly = geom::Polygon{std::move(pts)};
    lp.kind = e->kind;
    // Keep only polygons whose local bbox can interact with this side.
    if (!lp.poly.bbox().intersects(local_reach)) continue;
    locals.push_back(std::move(lp));
  }
  return HeightSolver{std::move(locals), half};
}

double HeightSolver::shrink_by_sides(const UraBorders& b,
                                     const std::vector<std::size_t>& cand) const {
  double hob = b.hob;
  const geom::Box outer = b.outer();
  const geom::Segment left{{outer.lo.x, 0.0}, {outer.lo.x, b.hob}};
  const geom::Segment right{{outer.hi.x, 0.0}, {outer.hi.x, b.hob}};
  const auto near_a_side = [&](double lo, double hi) {
    return (lo <= outer.lo.x + kSideMargin && hi >= outer.lo.x - kSideMargin) ||
           (lo <= outer.hi.x + kSideMargin && hi >= outer.hi.x - kSideMargin);
  };
  for (std::size_t idx : cand) {
    const LocalPoly& lp = polys_[idx];
    if (!near_a_side(lp.bbox.lo.x, lp.bbox.hi.x)) continue;
    for (std::size_t e = 0; e < lp.poly.size(); ++e) {
      const geom::Segment edge = lp.poly.edge(e);
      if (!near_a_side(std::min(edge.a.x, edge.b.x), std::max(edge.a.x, edge.b.x))) continue;
      if (auto p = geom::segment_intersection(edge, left)) hob = std::min(hob, p->y);
      if (auto p = geom::segment_intersection(edge, right)) hob = std::min(hob, p->y);
    }
  }
  return hob;
}

double HeightSolver::shrink_by_nodes(UraBorders b, const std::vector<std::size_t>& cand) const {
  // Interleave hat shrinking (Alg. 2 / Eq. 12) and inner-border shrinking
  // (Eq. 13) until neither applies. Each shrink lands hob on a node
  // ordinate strictly below the previous hob, so the loop terminates.
  Scratch& sc = scratch();
  if (sc.inside_count.size() < polys_.size()) {
    sc.inside_count.resize(polys_.size());
    sc.inside_min_y.resize(polys_.size());
  }
  std::vector<std::size_t>& inside_count = sc.inside_count;
  std::vector<double>& inside_min_y = sc.inside_min_y;
  while (b.hob > kStrict) {
    // --- classify nodes against the current outer border ---
    for (std::size_t idx : cand) {
      inside_count[idx] = 0;
      inside_min_y[idx] = std::numeric_limits<double>::infinity();
    }
    const geom::Box outer = b.outer();
    node_tree_.visit(outer, [&](const index::RangeTree2D::Entry& e) {
      if (strictly_inside(outer, e.p)) {
        inside_count[e.payload] += 1;
        inside_min_y[e.payload] = std::min(inside_min_y[e.payload], e.p.y);
      }
      return true;
    });

    double new_hob = b.hob;
    // Hat rule (Eq. 12): partially-inside polygons cap hob at their lowest
    // inside node.
    for (std::size_t idx : cand) {
      const LocalPoly& lp = polys_[idx];
      const std::size_t cnt = inside_count[idx];
      if (cnt == 0 || cnt == lp.poly.size()) continue;
      new_hob = std::min(new_hob, inside_min_y[idx]);
    }
    if (new_hob < b.hob - kStrict) {
      b.hob = new_hob;
      continue;  // re-classify under the smaller border before the inner rule
    }

    // Inner-border rule (Eq. 13): fully-inside polygons must be enclosable
    // and entirely within the inner border; otherwise push the hat below the
    // whole polygon.
    const geom::Box inner = b.inner();
    const bool inner_usable = !b.inner_empty();
    for (std::size_t idx : cand) {
      const LocalPoly& lp = polys_[idx];
      if (inside_count[idx] != lp.poly.size() || lp.poly.empty()) continue;
      bool ok = inner_usable && lp.kind == EnvKind::Obstacle;
      if (ok) {
        for (const geom::Point& p : lp.poly.points()) {
          if (!inside_inner(inner, p)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) new_hob = std::min(new_hob, lp.min_y);
    }
    if (new_hob >= b.hob - kStrict) break;  // joint fixpoint
    b.hob = new_hob;
  }
  return std::max(b.hob, 0.0);
}

double HeightSolver::max_height(double x0, double x1, double h_request) const {
  if (h_request <= 0.0 || x1 - x0 <= kStrict) return 0.0;
  UraBorders b{x0, x1, half_, h_request + half_};

  // Candidate polygons: bbox overlap with the initial outer border.
  const geom::Box outer = b.outer();
  std::vector<std::size_t>& cand = scratch().cand;
  cand.clear();
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    if (polys_[i].bbox.intersects(outer, kStrict)) cand.push_back(i);
  }
  if (cand.empty()) return b.pattern_height();

  // Solid polygons that straddle the base line inside the border are
  // invisible to the node-based shrinking below: their sub-base nodes fail
  // `strictly_inside` and a side edge that coincides with the border crosses
  // it only collinearly, so neither Eq. 12 nor the side rule fires. The one
  // producer of such polygons is the untrimmed URA of an adjacent segment
  // shorter than `half` (self_uras keeps its far end protected, so the URA
  // reaches across the joint). Any pattern on this span would rise straight
  // through it — the exhaustive oracle rejects every such height, so the
  // fast path must too.
  for (std::size_t idx : cand) {
    const LocalPoly& lp = polys_[idx];
    if (lp.kind == EnvKind::AreaOutline) continue;
    if (lp.bbox.lo.y < -kStrict && lp.bbox.hi.y > kStrict &&
        lp.bbox.lo.x < outer.hi.x - kStrict && lp.bbox.hi.x > outer.lo.x + kStrict) {
      return 0.0;
    }
  }

  b.hob = shrink_by_sides(b, cand);
  if (b.hob <= half_) return 0.0;
  b.hob = shrink_by_nodes(b, cand);
  return b.pattern_height();
}

bool HeightSolver::valid_exhaustive(double x0, double x1, double h, double tol) const {
  if (h <= 0.0 || x1 - x0 <= 0.0) return false;
  const UraBorders b{x0, x1, half_, h + half_};
  const geom::Box inner = b.inner();
  const bool inner_usable = !b.inner_empty();

  // The paper's URA model is a *polygonal* clearance region: the union of
  // the three pattern segments' URA rectangles, clipped below the base line
  // (the area below AD belongs to the original segment's URA). The boxes
  // are shrunk by `tol` so a polygon touching the border — clearance met
  // exactly — stays legal.
  const std::array<geom::Box, 3> boxes{
      geom::Box{{x0 - half_ + tol, tol}, {x0 + half_ - tol, h + half_ - tol}},      // left leg
      geom::Box{{x0 - half_ + tol, h - half_ + tol}, {x1 + half_ - tol, h + half_ - tol}},  // hat
      geom::Box{{x1 - half_ + tol, tol}, {x1 + half_ - tol, h + half_ - tol}}};     // right leg

  for (const LocalPoly& lp : polys_) {
    if (lp.poly.empty()) continue;
    // Enclosed obstacle: legal when every node sits within the closed inner
    // border (the pattern routes around it).
    if (lp.kind == EnvKind::Obstacle && inner_usable) {
      bool enclosed = true;
      for (const geom::Point& p : lp.poly.points()) {
        if (!inside_inner(inner, p)) {
          enclosed = false;
          break;
        }
      }
      if (enclosed) continue;
    }
    if (lp.kind == EnvKind::AreaOutline) {
      // The pattern lives inside the outline; only boundary crossings and
      // escapes are violations.
      for (const geom::Box& box : boxes) {
        const geom::Polygon rect = geom::Polygon::rect(box);
        for (std::size_t e = 0; e < lp.poly.size(); ++e) {
          for (std::size_t be = 0; be < rect.size(); ++be) {
            if (geom::segments_intersect(lp.poly.edge(e), rect.edge(be))) return false;
          }
        }
      }
      if (!lp.poly.contains({(x0 + x1) / 2.0, h})) return false;  // escaped entirely
      continue;
    }
    // Solid polygon (obstacle / self-URA): any overlap with a URA box is a
    // violation — edge crossings, polygon nodes inside a box, or a box
    // swallowed by the polygon.
    for (const geom::Box& box : boxes) {
      if (!box.intersects(lp.bbox, half_)) continue;
      if (geom::polygons_overlap(geom::Polygon::rect(box), lp.poly)) return false;
    }
  }
  return true;
}

}  // namespace lmr::core
