#include "replay.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/trace_extender.hpp"
#include "dtw/pair_restore.hpp"
#include "layout/clearance_index.hpp"
#include "layout/drc_checker.hpp"

namespace perfbench {

namespace {

using lmr::layout::MemberKind;
using lmr::layout::Violation;
namespace core = lmr::core;
namespace dtw = lmr::dtw;
namespace layout = lmr::layout;
namespace pipeline = lmr::pipeline;

void append(std::vector<Violation>& out, std::vector<Violation> v) {
  out.insert(out.end(), std::make_move_iterator(v.begin()), std::make_move_iterator(v.end()));
}

/// Router::route_single_ended's DP path, one stage span each.
void extend_single(const pipeline::Router& router, const layout::RoutableArea& area,
                   layout::Trace& trace, double target, pipeline::MemberReport& mr,
                   Tracer& tr, ReplayCounters& c) {
  mr.name = trace.name;
  mr.initial_length = trace.length();
  std::optional<core::TraceExtender> ext;
  {
    auto s = tr.span("core.env_build");
    ext.emplace(router.rules(), area);
  }
  core::ExtendStats stats;
  {
    auto s = tr.span("core.extend");
    stats = ext->extend(trace, target, router.options().extender);
  }
  mr.final_length = stats.final_length;
  mr.reached = stats.reached;
  mr.patterns = stats.patterns_inserted;
  c.dp_runs += static_cast<std::uint64_t>(stats.dp_runs);
  c.segments += static_cast<std::uint64_t>(stats.segments_processed);
}

/// Router::route_pair's DP + MSDTW path: merge, extend the median with the
/// restore-margin probe, restore at per-node pitches, compensate skew.
void extend_pair(const pipeline::Router& router, const layout::RoutableArea& area,
                 const layout::ObstacleSelector& obstacles, layout::DiffPair& pair,
                 double target, pipeline::MemberReport& mr, Tracer& tr, ReplayCounters& c) {
  const pipeline::RouterOptions& opts = router.options();
  mr.name = pair.name;
  mr.initial_length = std::max(pair.positive.path.length(), pair.negative.path.length());
  lmr::drc::DesignRules sub_rules = router.rules();
  sub_rules.trace_width = pair.positive.width;

  std::optional<dtw::MergedPair> merged;
  {
    auto s = tr.span("dtw.merge");
    merged.emplace(dtw::merge_pair(
        pair, sub_rules,
        opts.pair_rule_set.empty() ? std::vector<double>{pair.pitch} : opts.pair_rule_set));
  }
  const lmr::geom::Polyline reference = merged->median.path;
  const std::vector<double> reference_pitch = merged->node_pitch;
  const double median_target =
      target - std::max(merged->skipped_p_length, merged->skipped_n_length);
  core::ExtenderConfig ecfg = opts.extender;
  const double widest = reference_pitch.empty()
                            ? merged->base_pitch
                            : *std::max_element(reference_pitch.begin(), reference_pitch.end());
  if (widest > merged->base_pitch) {
    using MarginKey = std::array<double, 4>;
    const auto cache = std::make_shared<std::map<MarginKey, lmr::drc::RestoreMargin>>();
    ecfg.restore_margin = [&, cache](const lmr::geom::Segment& s) {
      const MarginKey key{s.a.x, s.a.y, s.b.x, s.b.y};
      const auto it = cache->find(key);
      if (it != cache->end()) return it->second;
      const lmr::drc::RestoreMargin m = lmr::drc::restore_margin(
          sub_rules, merged->base_pitch, dtw::local_restore_pitch(reference, reference_pitch, s));
      return cache->emplace(key, m).first->second;
    };
  }
  std::optional<core::TraceExtender> ext;
  {
    auto s = tr.span("core.env_build");
    ext.emplace(merged->virtual_rules, area);
  }
  core::ExtendStats stats;
  {
    auto s = tr.span("core.extend");
    stats = ext->extend(merged->median, std::max(median_target, merged->median.length()), ecfg);
  }
  std::optional<layout::DiffPair> restored;
  {
    auto s = tr.span("dtw.restore");
    const std::vector<double> node_pitch =
        dtw::transfer_node_pitch(reference, reference_pitch, merged->median.path);
    dtw::RestoreSpec rspec;
    rspec.pitch = pair.pitch;
    rspec.sub_width = pair.positive.width;
    rspec.node_pitch = node_pitch;
    rspec.breakout_p = merged->breakout_p;
    rspec.breakout_n = merged->breakout_n;
    restored.emplace(dtw::restore_pair(merged->median, rspec));
    restored->positive.path.simplify(1e-9);
    restored->negative.path.simplify(1e-9);
  }
  {
    auto s = tr.span("dtw.skew");
    dtw::compensate_skew(*restored, sub_rules, &area, &obstacles);
  }
  pair.positive.path = std::move(restored->positive.path);
  pair.negative.path = std::move(restored->negative.path);
  mr.reached = stats.reached;
  mr.patterns = stats.patterns_inserted;
  mr.final_length = std::min(pair.positive.path.length(), pair.negative.path.length());
  c.dp_runs += static_cast<std::uint64_t>(stats.dp_runs);
  c.segments += static_cast<std::uint64_t>(stats.segments_processed);
}

pipeline::RouteResult replay_group(const pipeline::Router& router, layout::Layout& board,
                                   std::size_t g, const layout::ObstacleSelector& obstacles,
                                   Tracer& tr, ReplayCounters& c) {
  const pipeline::RouterOptions& opts = router.options();
  const layout::MatchGroup& group = board.groups()[g];
  const std::size_t n = group.members.size();
  const layout::DrcChecker checker(opts.drc);
  layout::ClearanceIndex index(router.rules(), opts.drc, opts.clearance_backend);

  // Declare every slot first, in member order (the violation-order key).
  std::vector<std::uint32_t> slot0(n);
  for (std::size_t m = 0; m < n; ++m) {
    const layout::GroupMember& gm = group.members[m];
    const auto net = static_cast<std::uint32_t>(m);
    if (gm.kind == MemberKind::SingleEnded) {
      slot0[m] = index.add_slot(board.trace(gm.id).width, net);
    } else {
      const layout::DiffPair& p = board.pair(gm.id);
      slot0[m] = index.add_slot(p.positive.width, net);
      index.add_slot(p.negative.width, net);
    }
  }

  pipeline::RouteResult result;
  result.group.group_name = group.name;
  result.group.target = group.target_length;
  for (std::size_t m = 0; m < n; ++m) {
    const layout::GroupMember gm = group.members[m];
    const layout::RoutableArea& area = *board.routable_area(gm.id);
    pipeline::MemberReport mr;
    mr.id = gm.id;
    mr.kind = gm.kind;
    mr.target = group.target_for(m);
    lmr::drc::DesignRules net_rules = router.rules();
    if (gm.kind == MemberKind::SingleEnded) {
      layout::Trace work = board.trace(gm.id);
      extend_single(router, area, work, mr.target, mr, tr, c);
      board.trace(gm.id).path = std::move(work.path);
    } else {
      layout::DiffPair work = board.pair(gm.id);
      net_rules.trace_width = work.positive.width;
      extend_pair(router, area, obstacles, work, mr.target, mr, tr, c);
      layout::DiffPair& live = board.pair(gm.id);
      live.positive.path = std::move(work.positive.path);
      live.negative.path = std::move(work.negative.path);
    }
    ++c.members;
    if (mr.reached) ++c.reached;
    c.patterns += static_cast<std::uint64_t>(mr.patterns);

    // Per-net oracle on the written-back geometry, then index insert.
    std::vector<Violation> found;
    const auto check_one = [&](const layout::Trace& t, std::uint32_t slot) {
      {
        auto s = tr.span("layout.check_trace");
        append(found, checker.check_trace(t, net_rules));
      }
      const lmr::geom::Box need =
          t.path.bbox().inflated(net_rules.effective_obs() + opts.drc.tolerance + 1e-9);
      const std::span<const layout::ObstacleRef> refs = obstacles.select(need);
      ++c.obstacle_checks;
      c.obstacles_scanned += refs.size();
      {
        auto s = tr.span("layout.check_obstacles");
        append(found, checker.check_obstacles(t, net_rules, refs));
      }
      {
        auto s = tr.span("layout.check_containment");
        append(found, checker.check_containment(t, area));
      }
      auto s = tr.span("layout.index_insert");
      index.insert(slot, t);
    };
    if (gm.kind == MemberKind::SingleEnded) {
      check_one(board.trace(gm.id), slot0[m]);
    } else {
      const layout::DiffPair& p = board.pair(gm.id);
      check_one(p.positive, slot0[m]);
      check_one(p.negative, slot0[m] + 1);
    }
    result.group.members.push_back(mr);
    result.nets.push_back({mr, std::move(found)});
  }
  {
    auto s = tr.span("layout.index_sweep");
    result.cross_violations = index.sweep();
  }
  return result;
}

}  // namespace

pipeline::BoardRoute replay_route(const pipeline::Router& router, layout::Layout& board,
                                  Tracer& tr, ReplayCounters& c) {
  // The router's obstacle views: the whole board, plus one tile-local
  // subset per non-empty tile of the plan (ascending original index).
  const std::vector<layout::Obstacle>& obs = board.obstacles();
  std::vector<layout::ObstacleRef> full;
  full.reserve(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    full.push_back({&obs[i], static_cast<std::uint32_t>(i)});
  }
  const layout::ObstacleSelector full_sel{full, full, lmr::geom::Box{}};
  std::vector<const layout::ObstacleSelector*> selector(board.groups().size(), &full_sel);

  pipeline::Router::TilePlan plan;
  {
    auto s = tr.span("pipeline.tile_plan");
    plan = router.tile_plan(board);
  }
  std::deque<std::vector<layout::ObstacleRef>> tile_refs;  // stable addresses
  std::deque<layout::ObstacleSelector> tile_sel;
  for (const pipeline::Router::TilePlan::Tile& tile : plan.tiles) {
    if (tile.groups.empty()) continue;
    ++c.tiles;
    std::vector<layout::ObstacleRef>& refs = tile_refs.emplace_back();
    for (const layout::ObstacleRef& r : full) {
      if (r.obstacle->shape.bbox().intersects(tile.coverage)) refs.push_back(r);
    }
    const layout::ObstacleSelector& sel = tile_sel.emplace_back(
        layout::ObstacleSelector{refs, full, tile.coverage});
    for (const std::size_t g : tile.groups) selector[g] = &sel;
  }
  c.straddlers += plan.straddlers.size();

  pipeline::BoardRoute route;
  for (std::size_t g = 0; g < board.groups().size(); ++g) {
    route.rerouted_groups.push_back(g);
    route.results.push_back(replay_group(router, board, g, *selector[g], tr, c));
  }
  route.version = board.version();
  return route;
}

pipeline::BoardRoute replay_edits(const pipeline::Router& router, layout::Layout& board,
                                  pipeline::BoardRoute prior,
                                  std::span<const layout::BoardEdit> edits, Tracer& tr,
                                  ReplayCounters& c) {
  for (const layout::BoardEdit& edit : edits) {
    std::vector<layout::LayoutDelta> deltas;
    {
      auto s = tr.span("layout.apply_edit");
      deltas = layout::apply_edit(board, edit);
    }
    std::vector<std::size_t> affected;
    {
      auto s = tr.span("pipeline.affected");
      affected = router.affected_groups(board, prior, deltas);
    }
    {
      auto s = tr.span("pipeline.reroute");
      prior = router.reroute(board, prior, deltas);
    }
    ++c.edits;
    c.rerouted_groups += affected.size();
    c.groups_seen += board.groups().size();
  }
  return prior;
}

}  // namespace perfbench
