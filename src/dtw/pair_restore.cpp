#include "dtw/pair_restore.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contract.hpp"
#include "core/pattern.hpp"
#include "dtw/median_trace.hpp"
#include "geom/chamfer.hpp"
#include "geom/distance.hpp"
#include "geom/frame.hpp"
#include "geom/offset.hpp"
#include "layout/drc_checker.hpp"

namespace lmr::dtw {

namespace {

/// Lockstep variant of Polyline::simplify: removes duplicates and collinear
/// interior vertices together with their pitch entries, but keeps a
/// collinear vertex whose pitch differs from a neighbour — it marks a DRA
/// transition the piecewise restore must reproduce (a multi-DRA corridor
/// median is typically one straight line, so the markers carry the only
/// record of where the pitch steps). The first `keep_prefix` vertices are
/// never removed: they are the averaged breakout the restore re-anchors by
/// index, so simplification must not shift them.
void simplify_with_pitch(geom::Polyline& path, std::vector<double>& pitch, double tol,
                         std::size_t keep_prefix) {
  auto& pts = path.points();
  if (pts.size() < 2 || pts.size() != pitch.size()) return;

  std::vector<geom::Point> dedup;
  std::vector<double> dq;
  dedup.reserve(pts.size());
  dq.reserve(pts.size());
  dedup.push_back(pts.front());
  dq.push_back(pitch.front());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (i >= keep_prefix && geom::almost_equal(dedup.back(), pts[i], tol)) {
      // Merged duplicates keep the wider rule (conservative for the margin).
      dq.back() = std::max(dq.back(), pitch[i]);
    } else {
      dedup.push_back(pts[i]);
      dq.push_back(pitch[i]);
    }
  }
  if (dedup.size() < 3) {
    pts = std::move(dedup);
    pitch = std::move(dq);
    return;
  }

  std::vector<geom::Point> out;
  std::vector<double> q;
  out.reserve(dedup.size());
  q.reserve(dedup.size());
  out.push_back(dedup.front());
  q.push_back(dq.front());
  for (std::size_t i = 1; i + 1 < dedup.size(); ++i) {
    const geom::Segment s{out.back(), dedup[i + 1]};
    const double d = geom::dist(geom::closest_point(s, dedup[i]), dedup[i]);
    const bool collinear =
        d <= tol && geom::dot(dedup[i] - out.back(), dedup[i + 1] - dedup[i]) >= 0.0;
    const bool transition = dq[i] != q.back() || dq[i] != dq[i + 1];
    if (i < keep_prefix || !collinear || transition) {
      out.push_back(dedup[i]);
      q.push_back(dq[i]);
    }
  }
  out.push_back(dedup.back());
  q.push_back(dq.back());
  pts = std::move(out);
  pitch = std::move(q);
}

/// Per-vertex miter offset at half the local pitch. For a uniform pitch the
/// miter vector (n1 + n2) / (1 + n1.n2) lands exactly on the intersection of
/// the two shifted supporting lines, i.e. geom::offset_polyline; per-node
/// pitches turn every transition into a straight taper between the two
/// offsets.
geom::Polyline offset_piecewise(const geom::Polyline& pl, std::span<const double> pitch,
                                double side) {
  const std::size_t n = pl.size();
  if (n < 2) return pl;
  // The pitch span is indexed in lockstep with the vertices below; a short
  // span would read past its end, a non-finite side/pitch would smear NaN
  // through every miter vertex.
  LMR_REQUIRE(pitch.size() >= n, "one pitch entry per polyline vertex");
  LMR_REQUIRE(std::isfinite(side), "offset side must be a real sign/scale");
  std::vector<geom::Vec2> normals(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const geom::Segment s = pl.segment(i);
    normals[i] = s.degenerate() ? geom::Vec2{} : s.unit().perp();  // left normal
  }
  const auto normal_before = [&](std::size_t i) -> geom::Vec2 {
    for (std::size_t k = i; k > 0; --k) {
      if (normals[k - 1].norm() > geom::kEps) return normals[k - 1];
    }
    return {};
  };
  const auto normal_after = [&](std::size_t i) -> geom::Vec2 {
    for (std::size_t k = i; k < normals.size(); ++k) {
      if (normals[k].norm() > geom::kEps) return normals[k];
    }
    return {};
  };
  std::vector<geom::Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = side * pitch[i] / 2.0;
    geom::Vec2 n1 = normal_before(i);
    geom::Vec2 n2 = normal_after(i);
    if (n1.norm() <= geom::kEps) n1 = n2;
    if (n2.norm() <= geom::kEps) n2 = n1;
    const double denom = 1.0 + geom::dot(n1, n2);
    // A near-U-turn corner has no finite miter; fall back to the outgoing
    // normal (simplified medians never carry such corners).
    const geom::Vec2 m = denom > 1e-9 ? (n1 + n2) / denom : n2;
    out.push_back(pl[i] + m * d);
  }
  return geom::Polyline{std::move(out)};
}

/// Collapse miter fold-backs after offsetting. A corner's miter join
/// overshoots along the outgoing direction by up to pitch/2; when a
/// *collinear* run shorter than that follows (DRA transition markers
/// subdivide straight runs, so a pattern foot can sit d_protect before a
/// marker), the offset doubles straight back over itself. Only that
/// signature — a short incoming edge nearly antiparallel to the outgoing
/// one — is an artifact; obtuse turns are legitimate (the pitch tapers the
/// piecewise restore introduces meet pattern legs at > 90 degrees). `first`
/// protects the verbatim-anchored breakout prefix.
void collapse_foldbacks(geom::Polyline& path, double max_back, std::size_t first) {
  constexpr double kAntiparallel = -0.99;
  auto& pts = path.points();
  bool changed = true;
  while (changed && pts.size() >= 3) {
    changed = false;
    for (std::size_t i = std::max<std::size_t>(first, 1); i + 1 < pts.size(); ++i) {
      const geom::Vec2 in = pts[i] - pts[i - 1];
      const geom::Vec2 out = pts[i + 1] - pts[i];
      if (in.norm() <= geom::kEps || out.norm() <= geom::kEps) continue;
      if (in.norm() > max_back) continue;
      if (geom::dot(in.normalized(), out.normalized()) >= kAntiparallel) continue;
      pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(i));
      changed = true;
      break;
    }
  }
}

/// Pitch attribution of one point against the reference median: its own
/// node's pitch when it survived extension verbatim, otherwise the widest
/// endpoint pitch of the nearest reference segment.
double pitch_at_point(const geom::Polyline& reference, std::span<const double> pitch,
                      const geom::Point& p) {
  constexpr double kNodeTol = 1e-7;
  if (reference.empty() || pitch.size() != reference.size()) return 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (geom::almost_equal(reference[i], p, kNodeTol)) return pitch[i];
  }
  double best_d = std::numeric_limits<double>::max();
  double best_pitch = pitch.front();
  for (std::size_t i = 0; i + 1 < reference.size(); ++i) {
    const double d = geom::dist_point_segment(p, reference.segment(i));
    if (d < best_d - 1e-12) {
      best_d = d;
      best_pitch = std::max(pitch[i], pitch[i + 1]);
    }
  }
  return best_pitch;
}

/// Oracle verdict of one sub-trace against everything the board knows about:
/// self rules always, containment when the caller supplied an area, and
/// obstacle clearance through `obstacle_check` (a DrcChecker::check_obstacles
/// overload bound to the caller's obstacle view) when one is given.
template <typename ObstacleCheck>
std::vector<layout::Violation> oracle_violations(const layout::Trace& t,
                                                 const drc::DesignRules& rules,
                                                 const layout::RoutableArea* area,
                                                 const ObstacleCheck& obstacle_check) {
  const layout::DrcChecker checker;
  std::vector<layout::Violation> out = checker.check_trace(t, rules);
  const auto append = [&out](std::vector<layout::Violation> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(obstacle_check(checker, t));
  if (area != nullptr && !area->outline.empty()) {
    append(checker.check_containment(t, *area));
  }
  return out;
}

}  // namespace

MergedPair merge_pair(const layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                      const std::vector<double>& rules_r) {
  MergedPair out;
  const auto& pp = pair.positive.path.points();
  const auto& nn = pair.negative.path.points();
  const std::size_t skip = std::min({pair.breakout_nodes, pp.size(), nn.size()});

  const std::span<const geom::Point> p_span{pp.data() + skip, pp.size() - skip};
  const std::span<const geom::Point> n_span{nn.data() + skip, nn.size() - skip};
  out.matching = msdtw_match(p_span, n_span, rules_r);

  const MedianTrace mt =
      build_median_trace(p_span, n_span, out.matching.pairs, out.matching.pair_rules);

  // Assemble: preserved breakout (averaged across the pair) then the median
  // points of the matched components, each carrying its DRA pitch.
  geom::Polyline median;
  std::vector<double> node_pitch;
  for (std::size_t i = 0; i < skip; ++i) {
    median.push_back((pp[i] + nn[i]) * 0.5);
    node_pitch.push_back(pair.pitch);
  }
  for (const MedianComponent& comp : mt.components) {
    median.push_back(comp.median);
    node_pitch.push_back(comp.rule > 0.0 ? comp.rule : pair.pitch);
  }
  simplify_with_pitch(median, node_pitch, 1e-12, skip);

  out.median.id = pair.id;
  out.median.name = pair.name + ".median";
  out.median.path = std::move(median);
  out.median.width = 2.0 * pair.positive.width + pair.pitch;
  out.virtual_rules = drc::virtual_pair_rules(sub_rules, pair.pitch);
  out.base_pitch = pair.pitch;
  out.node_pitch = std::move(node_pitch);
  out.breakout_p.assign(pp.begin(), pp.begin() + static_cast<std::ptrdiff_t>(skip));
  out.breakout_n.assign(nn.begin(), nn.begin() + static_cast<std::ptrdiff_t>(skip));

  // Length bookkeeping for tiny-pattern compensation.
  const double med_len = out.median.path.length();
  out.skipped_p_length = pair.positive.path.length() - med_len;
  out.skipped_n_length = pair.negative.path.length() - med_len;
  return out;
}

layout::DiffPair restore_pair(const layout::Trace& median, const RestoreSpec& spec) {
  if (!spec.node_pitch.empty() && spec.node_pitch.size() != median.path.size()) {
    throw std::invalid_argument("restore_pair: node_pitch misaligned with median path");
  }
  layout::DiffPair pair;
  pair.id = median.id;
  pair.name = median.name;
  pair.pitch = spec.pitch;
  pair.positive.id = median.id;
  pair.positive.name = median.name + ".P";
  pair.positive.width = spec.sub_width;
  pair.negative.id = median.id;
  pair.negative.name = median.name + ".N";
  pair.negative.width = spec.sub_width;
  if (spec.node_pitch.empty()) {
    pair.positive.path = geom::offset_polyline(median.path, +spec.pitch / 2.0);
    pair.negative.path = geom::offset_polyline(median.path, -spec.pitch / 2.0);
  } else {
    pair.positive.path = offset_piecewise(median.path, spec.node_pitch, +1.0);
    pair.negative.path = offset_piecewise(median.path, spec.node_pitch, -1.0);
  }

  // Re-anchor the preserved breakout verbatim: the averaged-then-offset
  // breakout drifts off the original pin positions whenever the breakout is
  // not exactly pitch-separated. Stop at the first median node that is no
  // longer the breakout average (extension inserted nodes there).
  // Index-aligned anchoring requires the offset paths to mirror the median
  // node for node (offset_polyline can drop degenerate segments of an
  // unsimplified median; in that case skip anchoring rather than overwrite
  // the wrong vertex).
  const bool aligned = pair.positive.path.size() == median.path.size() &&
                       pair.negative.path.size() == median.path.size();
  const std::size_t k =
      aligned ? std::min({spec.breakout_p.size(), spec.breakout_n.size(),
                          median.path.size()})
              : 0;
  std::size_t anchored = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const geom::Point avg = (spec.breakout_p[i] + spec.breakout_n[i]) * 0.5;
    if (!geom::almost_equal(median.path[i], avg, 1e-7)) break;
    pair.positive.path[i] = spec.breakout_p[i];
    pair.negative.path[i] = spec.breakout_n[i];
    anchored = i + 1;
  }

  double max_pitch = spec.pitch;
  for (const double q : spec.node_pitch) max_pitch = std::max(max_pitch, q);
  collapse_foldbacks(pair.positive.path, max_pitch, anchored);
  collapse_foldbacks(pair.negative.path, max_pitch, anchored);
  return pair;
}

layout::DiffPair restore_pair(const layout::Trace& median, double pitch, double sub_width) {
  RestoreSpec spec;
  spec.pitch = pitch;
  spec.sub_width = sub_width;
  return restore_pair(median, spec);
}

std::vector<double> transfer_node_pitch(const geom::Polyline& reference,
                                        std::span<const double> reference_pitch,
                                        const geom::Polyline& extended) {
  if (reference_pitch.size() != reference.size()) {
    throw std::invalid_argument("transfer_node_pitch: pitch misaligned with reference");
  }
  std::vector<double> out;
  out.reserve(extended.size());
  for (std::size_t i = 0; i < extended.size(); ++i) {
    out.push_back(pitch_at_point(reference, reference_pitch, extended[i]));
  }
  return out;
}

double local_restore_pitch(const geom::Polyline& reference,
                           std::span<const double> reference_pitch,
                           const geom::Segment& seg) {
  if (reference_pitch.size() != reference.size()) {
    throw std::invalid_argument("local_restore_pitch: pitch misaligned with reference");
  }
  return std::max({pitch_at_point(reference, reference_pitch, seg.a),
                   pitch_at_point(reference, reference_pitch, seg.midpoint()),
                   pitch_at_point(reference, reference_pitch, seg.b)});
}

namespace {

/// compensate_skew over any obstacle view: `obstacle_check(checker, trace)`
/// returns the trace's obstacle-clearance violations.
template <typename ObstacleCheck>
double compensate(layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                  const layout::RoutableArea* area, const ObstacleCheck& obstacle_check) {
  const double lp = pair.positive.path.length();
  const double ln = pair.negative.path.length();
  const double skew = std::abs(lp - ln);
  // Under mitered rules the hat corners must be chamfered (the oracle
  // rejects right angles there), which trades length per corner; size the
  // height for the style so the realized gain still covers the skew.
  const core::PatternStyle style = sub_rules.miter > 0.0 ? core::PatternStyle::Mitered
                                                         : core::PatternStyle::RightAngle;
  const double h = core::height_for_gain(skew, style, sub_rules.miter);
  if (h < sub_rules.protect) return skew;  // negligible; leave as-is

  layout::Trace& shorter = lp < ln ? pair.positive : pair.negative;
  geom::Polyline& path = shorter.path;
  // Pattern legs are same-side parallel runs, so the hat width must meet
  // the gap rule as well as d_protect — the same minimum-width constraint
  // the segment DP enforces for its patterns. Mitering needs room for the
  // two hat chamfer cuts on top.
  const double w = std::max(2.0 * sub_rules.protect + 2.0 * sub_rules.miter,
                            sub_rules.effective_gap());

  // Candidate host segments, longest first (ties keep trace order): the
  // pattern needs w plus a d_protect stub on each side.
  std::vector<std::size_t> hosts;
  for (std::size_t i = 0; i < path.segment_count(); ++i) {
    if (path.segment(i).length() >= w + 2.0 * sub_rules.protect) hosts.push_back(i);
  }
  std::stable_sort(hosts.begin(), hosts.end(), [&](std::size_t a, std::size_t b) {
    return path.segment(a).length() > path.segment(b).length();
  });

  // Tiny pattern pointing away from the partner sub-trace (outward = the
  // side of the median offset, i.e. left for P, right for N).
  const double side = (&shorter == &pair.positive) ? +1.0 : -1.0;
  for (const std::size_t best : hosts) {
    const geom::Segment seg = path.segment(best);
    const double best_len = seg.length();
    const geom::Frame frame = geom::Frame::along(seg);
    const double mid = best_len / 2.0;
    geom::Polyline local{{
        {0.0, 0.0},           {mid - w / 2.0, 0.0}, {mid - w / 2.0, side * h},
        {mid + w / 2.0, side * h}, {mid + w / 2.0, 0.0}, {best_len, 0.0}}};
    if (style == core::PatternStyle::Mitered) {
      local = geom::chamfer_corners(local, sub_rules.miter);
    }
    std::vector<geom::Point> global_pts;
    global_pts.reserve(local.size());
    for (const geom::Point& q : local.points()) global_pts.push_back(frame.to_global(q));
    global_pts.front() = seg.a;
    global_pts.back() = seg.b;
    // The hat pokes outward into whatever the board put there — validate the
    // spliced candidate through the oracle (self gap against neighbouring
    // meander legs, containment, obstacle clearance) and fall back to the
    // next-longest host when any verdict touches the spliced region
    // (segments/vertices [best, best+5]). Pre-existing violations elsewhere
    // on the path keep their indices out of that range and never veto a
    // host; a pre-existing violation *on* the host keeps the pattern away
    // from already-compromised ground.
    layout::Trace candidate = shorter;
    candidate.path.splice(best, best + 1, global_pts);
    const std::vector<layout::Violation> verdicts =
        oracle_violations(candidate, sub_rules, area, obstacle_check);
    // The splice replaces one segment by global_pts.size() - 1 new ones at
    // [best, best + size - 2]; the old follower segment lands at
    // best + size - 1 and must keep its pre-existing verdicts veto-free.
    const auto in_region = [&](std::size_t idx) {
      return idx >= best && idx + 1 < best + global_pts.size();
    };
    // index_b is a segment of this trace only for SelfGap (it names the
    // obstacle for clearance verdicts and is unused elsewhere).
    const bool pattern_clean =
        std::none_of(verdicts.begin(), verdicts.end(), [&](const layout::Violation& v) {
          return in_region(v.index_a) ||
                 (v.kind == layout::ViolationKind::SelfGap && in_region(v.index_b));
        });
    if (!pattern_clean) continue;
    path = std::move(candidate.path);
    return std::abs(pair.positive.path.length() - pair.negative.path.length());
  }
  return skew;  // no host can take the pattern legally
}

}  // namespace

double compensate_skew(layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                       const layout::RoutableArea* area,
                       const std::vector<layout::Obstacle>* obstacles) {
  if (obstacles == nullptr) {
    return compensate_skew(pair, sub_rules, area,
                           static_cast<const layout::ObstacleIndex*>(nullptr));
  }
  const layout::ObstacleIndex index(*obstacles);
  return compensate_skew(pair, sub_rules, area, &index);
}

double compensate_skew(layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                       const layout::RoutableArea* area,
                       const layout::ObstacleIndex* obstacles) {
  return compensate(pair, sub_rules, area,
                    [&](const layout::DrcChecker& checker, const layout::Trace& t) {
                      if (obstacles == nullptr) return std::vector<layout::Violation>{};
                      return checker.check_obstacles(t, sub_rules, *obstacles);
                    });
}

double compensate_skew(layout::DiffPair& pair, const drc::DesignRules& sub_rules,
                       const layout::RoutableArea* area,
                       const layout::ObstacleSelector* obstacles) {
  return compensate(pair, sub_rules, area,
                    [&](const layout::DrcChecker& checker, const layout::Trace& t) {
                      if (obstacles == nullptr) return std::vector<layout::Violation>{};
                      // Everything obstacle clearance can reach from this
                      // candidate path; the selector falls back to its full
                      // list when the probe leaves its coverage.
                      const geom::Box need = t.path.bbox().inflated(
                          sub_rules.effective_obs() + layout::DrcCheckOptions{}.tolerance +
                          1e-9);
                      return checker.check_obstacles(t, sub_rules, obstacles->select(need));
                    });
}
}  // namespace lmr::dtw
