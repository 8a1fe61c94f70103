#include "baseline/fixed_track.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/height_solver.hpp"
#include "core/ura.hpp"
#include "geom/frame.hpp"
#include "geom/offset.hpp"

namespace lmr::baseline {

namespace {

/// One placed baseline pattern in segment-local continuous coordinates.
struct Placed {
  double x0 = 0.0;
  double x1 = 0.0;
  double h = 0.0;
  int dir = 1;
};

std::vector<geom::Point> realize_continuous(const std::vector<Placed>& ps, double len) {
  std::vector<geom::Point> out;
  out.reserve(ps.size() * 4 + 2);
  const auto push = [&out](double x, double y) {
    const geom::Point p{x, y};
    if (out.empty() || !geom::almost_equal(out.back(), p)) out.push_back(p);
  };
  push(0.0, 0.0);
  for (const Placed& p : ps) {
    push(p.x0, 0.0);
    push(p.x0, p.dir * p.h);
    push(p.x1, p.dir * p.h);
    push(p.x1, 0.0);
  }
  push(len, 0.0);
  return out;
}

}  // namespace

FixedTrackMeanderer::FixedTrackMeanderer(drc::DesignRules rules,
                                         const layout::RoutableArea& area,
                                         std::vector<geom::Polygon> extra_obstacles)
    : rules_(rules) {
  rules_.validate();
  if (!area.outline.empty()) {
    geom::Polygon outline = area.outline;
    outline.make_ccw();
    env_.add_static(std::move(outline), core::EnvKind::AreaOutline);
  }
  const double inflate = rules_.obstacle_inflation();
  for (const geom::Polygon& h : area.holes) {
    // Marked SelfUra so the height solver never treats them as enclosable:
    // the baseline cannot route around obstacles.
    env_.add_static(geom::inflate_polygon(h, inflate), core::EnvKind::SelfUra);
  }
  for (geom::Polygon& p : extra_obstacles) {
    env_.add_static(geom::inflate_polygon(std::move(p), inflate), core::EnvKind::SelfUra);
  }
  const geom::Box bb = area.outline.empty() ? geom::Box{{0, 0}, {1, 1}} : area.bbox();
  area_reach_ = std::hypot(bb.width(), bb.height());
}

FixedTrackStats FixedTrackMeanderer::extend(layout::Trace& trace, double target,
                                            const FixedTrackConfig& cfg) {
  return run(trace, target, /*bounded=*/true, cfg);
}

FixedTrackStats FixedTrackMeanderer::maximize(layout::Trace& trace,
                                              const FixedTrackConfig& cfg) {
  return run(trace, std::numeric_limits<double>::infinity(), /*bounded=*/false, cfg);
}

FixedTrackStats FixedTrackMeanderer::run(layout::Trace& trace, double target, bool bounded,
                                         const FixedTrackConfig& cfg) {
  FixedTrackStats stats;
  stats.initial_length = trace.path.length();
  stats.target = target;
  if (bounded && target < stats.initial_length - cfg.tolerance) {
    throw std::invalid_argument("FixedTrackMeanderer: target below current length");
  }

  const double eff_gap = rules_.effective_gap();
  const double half = rules_.ura_halfwidth();
  const double pitch = cfg.track_pitch > 0.0 ? cfg.track_pitch : eff_gap;
  const double width = cfg.pattern_width > 0.0 ? cfg.pattern_width : eff_gap;
  const double min_h = rules_.protect;

  // Snapshot the original segments: the baseline never revisits meanders.
  std::vector<geom::Segment> originals;
  for (std::size_t k = 0; k + 1 < trace.path.size(); ++k) {
    originals.push_back(trace.path.segment(k));
  }

  double current = stats.initial_length;
  for (const geom::Segment& seg : originals) {
    if (bounded && target - current <= cfg.tolerance) break;
    const double len = seg.length();
    if (len < width + 2.0 * rules_.protect) continue;

    // Locate the segment in the (possibly already meandered) path.
    std::size_t at = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 0; k + 1 < trace.path.size(); ++k) {
      if (geom::almost_equal(trace.path[k], seg.a, 1e-7) &&
          geom::almost_equal(trace.path[k + 1], seg.b, 1e-7)) {
        at = k;
        break;
      }
    }
    if (at == std::numeric_limits<std::size_t>::max()) continue;

    env_.set_dynamic(core::self_uras(trace.path, at, half, eff_gap));
    const double reach = std::min(
        area_reach_, bounded ? (target - current) / 2.0 + rules_.protect : area_reach_);
    const core::HeightSolver up = core::HeightSolver::for_segment(env_, seg, +1, reach, half);
    const core::HeightSolver down =
        core::HeightSolver::for_segment(env_, seg, -1, reach, half);

    // Evaluate every fixed track first (feet at x = protect + k * pitch),
    // then place best-height-first: the classic gridded meanderer maximizes
    // amplitude on its tracks but never adapts feet or width and never
    // wraps obstacles.
    std::vector<Placed> candidates;
    for (double x = rules_.protect; x + width <= len - rules_.protect + 1e-12; x += pitch) {
      const double want = area_reach_;
      const double hu = up.max_height(x, x + width, want);
      const double hd = down.max_height(x, x + width, want);
      const double h = std::max(hu, hd);
      if (h < min_h) continue;  // track blocked: the baseline just skips it
      candidates.push_back({x, x + width, h, hu >= hd ? +1 : -1});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Placed& a, const Placed& b) { return a.h > b.h; });

    std::vector<Placed> placed;
    for (const Placed& cand : candidates) {
      // Stop before a minimum-height pattern would overshoot the target.
      if (bounded && target - current < 2.0 * min_h) break;
      bool ok = true;
      for (const Placed& p : placed) {
        // Same-side neighbours need the gap rule, opposite sides d_protect.
        const double spacing = p.dir == cand.dir ? eff_gap : rules_.protect;
        if (cand.x0 < p.x1 + spacing - 1e-12 && cand.x1 > p.x0 - spacing + 1e-12) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      Placed chosen = cand;
      if (bounded) {
        chosen.h = std::min(chosen.h, std::max(min_h, (target - current) / 2.0));
      }
      placed.push_back(chosen);
      current += 2.0 * chosen.h;
      ++stats.patterns_inserted;
    }
    if (placed.empty()) continue;
    std::sort(placed.begin(), placed.end(),
              [](const Placed& a, const Placed& b) { return a.x0 < b.x0; });

    const geom::Frame frame = geom::Frame::along(seg);
    std::vector<geom::Point> global_pts;
    for (const geom::Point& q : realize_continuous(placed, len)) {
      global_pts.push_back(frame.to_global(q));
    }
    global_pts.front() = seg.a;
    global_pts.back() = seg.b;
    trace.path.splice(at, at + 1, global_pts);
    current = trace.path.length();
  }

  stats.final_length = trace.path.length();
  stats.reached = bounded && std::abs(stats.final_length - target) <= cfg.tolerance * 10.0;
  if (!bounded) stats.reached = true;
  return stats;
}

}  // namespace lmr::baseline
