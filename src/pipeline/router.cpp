#include "pipeline/router.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "baseline/aidt_style.hpp"
#include "core/clock.hpp"
#include "dtw/dtw.hpp"
#include "dtw/median_trace.hpp"
#include "dtw/pair_restore.hpp"
#include "layout/clearance_index.hpp"

namespace lmr::pipeline {

namespace {

using core::seconds_since;

/// One net's inputs, copied out of the layout so that workers never touch
/// shared state: extension runs entirely on this private copy.
struct MemberWork {
  layout::GroupMember member;
  double target = 0.0;
  const layout::RoutableArea* area = nullptr;
  /// Board obstacle index (read-only during routing) for restore
  /// validation and the per-net oracle.
  const layout::ObstacleIndex* obstacles = nullptr;
  layout::Trace trace;    ///< single-ended members
  layout::DiffPair pair;  ///< differential members
  /// Rollback snapshots, filled by write-back *moving* the layout's
  /// original paths out as the extended ones move in (no copy on the
  /// success path). The pipeline writes members back as each one finishes,
  /// so a chain that throws later must be able to restore the layout.
  geom::Polyline orig_primary;
  geom::Polyline orig_secondary;  ///< negative sub-trace of a pair
  bool written = false;           ///< write-back ran; rollback must undo it
  /// Width-adjusted rules this member's traces are checked against.
  drc::DesignRules net_rules;
  /// First clearance-index slot (a pair owns slot0 and slot0 + 1).
  std::uint32_t slot0 = 0;
};

void route_single_ended(const drc::DesignRules& rules, const RouterOptions& opts,
                        MemberWork& w, MemberReport& mr) {
  mr.name = w.trace.name;
  mr.initial_length = w.trace.length();
  if (opts.engine == Engine::AidtStyle) {
    baseline::AidtStyleTuner tuner(rules, *w.area);
    const baseline::AidtStats stats = tuner.tune(w.trace, w.target);
    mr.final_length = stats.final_length;
    mr.reached = stats.reached;
  } else {
    core::TraceExtender ext(rules, *w.area);
    const core::ExtendStats stats = ext.extend(w.trace, w.target, opts.extender);
    mr.final_length = stats.final_length;
    mr.reached = stats.reached;
    mr.patterns = stats.patterns_inserted;
  }
}

void route_pair(const drc::DesignRules& rules, const RouterOptions& opts,
                MemberWork& w, MemberReport& mr) {
  layout::DiffPair& pair = w.pair;
  mr.name = pair.name;
  mr.initial_length =
      std::max(pair.positive.path.length(), pair.negative.path.length());

  if (opts.engine == Engine::AidtStyle) {
    // The "common way" of §V-A: naive DTW median (no filtering) tuned as one
    // wide trace under the virtual rules, restored without skew
    // compensation.
    const auto& pp = pair.positive.path.points();
    const auto& nn = pair.negative.path.points();
    const dtw::DtwResult match = dtw::dtw_match(pp, nn);
    dtw::MedianTrace mt = dtw::build_median_trace(pp, nn, match.pairs);
    layout::Trace median;
    median.path = std::move(mt.median);
    median.width = 2.0 * pair.positive.width + pair.pitch;
    const drc::DesignRules vr = drc::virtual_pair_rules(rules, pair.pitch);
    baseline::AidtStyleTuner tuner(vr, *w.area);
    const baseline::AidtStats stats = tuner.tune(median, w.target);
    layout::DiffPair restored =
        dtw::restore_pair(median, pair.pitch, pair.positive.width);
    pair.positive.path = std::move(restored.positive.path);
    pair.negative.path = std::move(restored.negative.path);
    mr.reached = stats.reached;
  } else {
    // Merge -> extend median under virtual rules with the restore-margin
    // constraint -> piecewise restore at per-node DRA pitches -> compensate.
    drc::DesignRules sub_rules = rules;
    sub_rules.trace_width = pair.positive.width;
    dtw::MergedPair merged = dtw::merge_pair(
        pair, sub_rules,
        opts.pair_rule_set.empty() ? std::vector<double>{pair.pitch} : opts.pair_rule_set);
    // Snapshot the pre-extension median: it is the DRA attribution reference
    // for both the extender's margin probe and the post-extension transfer.
    const geom::Polyline reference = merged.median.path;
    const std::vector<double> reference_pitch = merged.node_pitch;
    // The median is shorter than the sub-traces by half the pair spread at
    // corners; target the median so the *sub-traces* reach the group target
    // (sub length ≈ median length + skipped detours).
    const double median_target =
        w.target - std::max(merged.skipped_p_length, merged.skipped_n_length);
    core::TraceExtender ext(merged.virtual_rules, *w.area);
    core::ExtenderConfig ecfg = opts.extender;
    // Rule-aware extension: the virtual rules cover a restore at the base
    // pitch exactly; wherever a wider DRA rule applies, patterns must keep
    // the extra clearance the ±rule/2 restore offsets will consume. A
    // single-DRA pair probes to the zero margin everywhere, so skip the
    // per-segment probes (an O(|median|) scan each) entirely.
    const double widest =
        reference_pitch.empty()
            ? merged.base_pitch
            : *std::max_element(reference_pitch.begin(), reference_pitch.end());
    if (widest > merged.base_pitch) {
      // The extender probes the same segments over and over (once per other
      // segment of the trace on every queue pop) and the reference median
      // is immutable for the whole extension — memoize by endpoints so each
      // distinct segment pays the O(|reference|) attribution scan once.
      using MarginKey = std::array<double, 4>;
      const auto cache = std::make_shared<std::map<MarginKey, drc::RestoreMargin>>();
      ecfg.restore_margin = [&, cache](const geom::Segment& s) {
        const MarginKey key{s.a.x, s.a.y, s.b.x, s.b.y};
        const auto it = cache->find(key);
        if (it != cache->end()) return it->second;
        const drc::RestoreMargin m = drc::restore_margin(
            sub_rules, merged.base_pitch,
            dtw::local_restore_pitch(reference, reference_pitch, s));
        return cache->emplace(key, m).first->second;
      };
    }
    const core::ExtendStats stats = ext.extend(
        merged.median, std::max(median_target, merged.median.length()), ecfg);
    const std::vector<double> node_pitch =
        dtw::transfer_node_pitch(reference, reference_pitch, merged.median.path);
    dtw::RestoreSpec rspec;
    rspec.pitch = pair.pitch;
    rspec.sub_width = pair.positive.width;
    rspec.node_pitch = node_pitch;
    rspec.breakout_p = merged.breakout_p;
    rspec.breakout_n = merged.breakout_n;
    layout::DiffPair restored = dtw::restore_pair(merged.median, rspec);
    // Restoration keeps the median's base nodes where meander legs cross the
    // pair axis; after the +/- pitch/2 offset those collinear splits can
    // leave sub-d_protect half-segments that the oracle would flag as stubs.
    // They carry no geometry, so drop them — before skew compensation, whose
    // host-segment search needs the un-fragmented straight runs.
    restored.positive.path.simplify(1e-9);
    restored.negative.path.simplify(1e-9);
    dtw::compensate_skew(restored, sub_rules, w.area, w.obstacles);
    pair.positive.path = std::move(restored.positive.path);
    pair.negative.path = std::move(restored.negative.path);
    mr.reached = stats.reached;
    mr.patterns = stats.patterns_inserted;
  }
  mr.final_length =
      std::min(pair.positive.path.length(), pair.negative.path.length());
}

MemberReport route_member(const drc::DesignRules& rules, const RouterOptions& opts,
                          MemberWork& w) {
  MemberReport mr;
  mr.id = w.member.id;
  mr.kind = w.member.kind;
  mr.target = w.target;
  const auto t0 = core::now();
  if (w.member.kind == layout::MemberKind::SingleEnded) {
    route_single_ended(rules, opts, w, mr);
  } else {
    route_pair(rules, opts, w, mr);
  }
  mr.runtime_s = seconds_since(t0);
  return mr;
}

void append(std::vector<layout::Violation>& out, std::vector<layout::Violation> v) {
  out.insert(out.end(), std::make_move_iterator(v.begin()),
             std::make_move_iterator(v.end()));
}

/// Board-level snapshots of member geometry, keyed by member id: the
/// pristine seeds of a BoardRoute and the rollback snapshots behind the
/// board-level strong guarantee. run() only restores its OWN group on
/// failure; in the multi-group drivers below, sibling groups that finished
/// before the failing one keep their freshly extended geometry (every
/// claimer drains before an exception propagates). A retrying caller would
/// then re-extend already-extended traces and land on different geometry
/// than a fresh route of the same board — so the drivers snapshot every
/// member they may touch and restore them all on the way out.
using Snapshots = std::map<layout::TraceId, MemberSeed>;

/// Record member `id`'s current geometry unless `out` already holds it.
void snapshot(const layout::Layout& layout, layout::TraceId id, layout::MemberKind kind,
              Snapshots& out) {
  if (out.contains(id)) return;
  MemberSeed s;
  s.kind = kind;
  if (kind == layout::MemberKind::SingleEnded) {
    s.primary = layout.trace(id).path;
  } else {
    const layout::DiffPair& pair = layout.pair(id);
    s.primary = pair.positive.path;
    s.secondary = pair.negative.path;
  }
  out.emplace(id, std::move(s));
}

/// Make `s` member `id`'s geometry again (callers copy or move it in).
void put_back(layout::Layout& layout, layout::TraceId id, MemberSeed s) {
  if (s.kind == layout::MemberKind::SingleEnded) {
    layout.trace(id).path = std::move(s.primary);
  } else {
    layout::DiffPair& pair = layout.pair(id);
    pair.positive.path = std::move(s.primary);
    pair.negative.path = std::move(s.secondary);
  }
}

void restore_all(layout::Layout& layout, Snapshots& saved) {
  for (auto& [id, s] : saved) put_back(layout, id, std::move(s));
}

/// Everything one group's route reads or writes, geometrically: member
/// routable-area bboxes plus the members' current (pre-route) paths. The
/// tile_plan diagnostic assigns a group to a tile only when this box fits
/// wholly inside it.
geom::Box group_reach(const layout::Layout& layout, const layout::MatchGroup& group) {
  geom::Box reach;
  for (const layout::GroupMember& m : group.members) {
    if (const layout::RoutableArea* area = layout.routable_area(m.id)) {
      reach.expand(area->bbox());
    }
    if (m.kind == layout::MemberKind::SingleEnded) {
      reach.expand(layout.trace(m.id).path.bbox());
    } else {
      const layout::DiffPair& pair = layout.pair(m.id);
      reach.expand(pair.positive.path.bbox());
      reach.expand(pair.negative.path.bbox());
    }
  }
  return reach;
}

}  // namespace

bool RouteResult::matched() const {
  return std::all_of(group.members.begin(), group.members.end(),
                     [](const MemberReport& m) { return m.reached; });
}

bool RouteResult::drc_clean() const { return violation_count() == 0; }

std::size_t RouteResult::violation_count() const {
  std::size_t n = cross_violations.size();
  for (const NetResult& net : nets) n += net.violations.size();
  return n;
}

Router::Router(drc::DesignRules rules, RouterOptions options)
    : rules_(rules), options_(std::move(options)), pool_handle_(options_.threads) {
  rules_.validate();
}

RouteResult Router::route(layout::Layout& layout, std::size_t group_index) const {
  return run(layout, group_index, exec::resolve_threads(options_.threads));
}

Router::TilePlan Router::tile_plan(const layout::Layout& layout) const {
  TilePlan plan;
  const std::size_t n = layout.groups().size();
  const std::size_t target = std::clamp<std::size_t>(n / 4, std::size_t{1}, std::size_t{64});
  if (target < 2) return plan;

  std::vector<geom::Box> reach(n);
  geom::Box board;
  for (std::size_t g = 0; g < n; ++g) {
    reach[g] = group_reach(layout, layout.groups()[g]);
    board.expand(reach[g]);
  }
  if (board.empty()) return plan;

  // Split along the long axis first so tiles stay roughly square — square
  // tiles minimize boundary length, i.e. the number of straddling groups.
  std::size_t tx = 1;
  std::size_t ty = 1;
  while (tx * ty < target) {
    if (board.width() / static_cast<double>(tx) >=
        board.height() / static_cast<double>(ty)) {
      ++tx;
    } else {
      ++ty;
    }
  }
  plan.tiles_x = tx;
  plan.tiles_y = ty;
  const double radius = interaction_radius(layout);
  const double step_x = board.width() / static_cast<double>(tx);
  const double step_y = board.height() / static_cast<double>(ty);
  plan.tiles.resize(tx * ty);
  for (std::size_t j = 0; j < ty; ++j) {
    for (std::size_t i = 0; i < tx; ++i) {
      TilePlan::Tile& tile = plan.tiles[j * tx + i];
      tile.box = geom::Box{{board.lo.x + step_x * static_cast<double>(i),
                            board.lo.y + step_y * static_cast<double>(j)},
                           {board.lo.x + step_x * static_cast<double>(i + 1),
                            board.lo.y + step_y * static_cast<double>(j + 1)}};
      tile.coverage = tile.box.inflated(radius);
    }
  }

  const auto cell_of = [](double v, double lo, double step, std::size_t count) {
    if (step <= 0.0) return std::size_t{0};
    const double f = std::floor((v - lo) / step);
    if (f <= 0.0) return std::size_t{0};
    return std::min(static_cast<std::size_t>(f), count - 1);
  };
  for (std::size_t g = 0; g < n; ++g) {
    if (reach[g].empty()) {
      plan.straddlers.push_back(g);
      continue;
    }
    const std::size_t cx0 = cell_of(reach[g].lo.x, board.lo.x, step_x, tx);
    const std::size_t cx1 = cell_of(reach[g].hi.x, board.lo.x, step_x, tx);
    const std::size_t cy0 = cell_of(reach[g].lo.y, board.lo.y, step_y, ty);
    const std::size_t cy1 = cell_of(reach[g].hi.y, board.lo.y, step_y, ty);
    if (cx0 == cx1 && cy0 == cy1) {
      plan.tiles[cy0 * tx + cx0].groups.push_back(g);
    } else {
      plan.straddlers.push_back(g);
    }
  }

  const layout::ObstacleIndex obstacles(layout.obstacles());
  std::vector<layout::ObstacleRef> near;
  for (TilePlan::Tile& tile : plan.tiles) {
    if (tile.groups.empty()) continue;
    obstacles.query(tile.coverage, near);
    tile.obstacles = near.size();
  }
  return plan;
}

void Router::route_groups(layout::Layout& layout, const std::vector<std::size_t>& todo,
                          std::vector<RouteResult>& results, std::size_t threads) const {
  const layout::ObstacleIndex obstacles(layout.obstacles());
  if (threads <= 1 || todo.size() <= 1) {
    for (const std::size_t g : todo) results[g] = run(layout, g, threads, &obstacles);
    return;
  }
  // One task per group; the nested member fan-out inside run() lands on the
  // same pool (workers push to their own deques, idle workers steal), so a
  // board of many small groups fills every worker instead of running its
  // groups back to back.
  exec::parallel_for_dynamic(pool(), todo.size(), threads, [&](std::size_t k) {
    results[todo[k]] = run(layout, todo[k], threads, &obstacles);
  });
}

exec::TaskPool& Router::pool() const {
  if (options_.pool != nullptr) return *options_.pool;
  exec::TaskPool* pool = pool_handle_.acquire();
  // acquire() is null only for the serial configuration (threads == 1),
  // which never reaches the fan-out paths; for a direct accessor call the
  // shared singleton is the only sensible executor to hand out.
  return pool != nullptr ? *pool : exec::TaskPool::shared();
}

RouteResult Router::run(layout::Layout& layout, std::size_t group_index,
                        std::size_t threads,
                        const layout::ObstacleIndex* obstacles) const {
  if (group_index >= layout.groups().size()) {
    throw std::out_of_range("Router: bad group index");
  }
  // Board edits are rejected while any route is in flight: the stages below
  // read obstacles, areas and group structure from the live layout, so an
  // interleaved mutation would race. Trace-geometry write-backs are not
  // gated — they are the route's own output channel.
  const layout::Layout::RoutingFreeze freeze = layout.freeze_for_routing();
  // route() indexes the board here, once per call; the multi-group drivers
  // pass the index they built for every group.
  std::optional<layout::ObstacleIndex> own_index;
  if (obstacles == nullptr) obstacles = &own_index.emplace(layout.obstacles());
  const layout::MatchGroup& group = layout.groups()[group_index];
  const auto t_run = core::now();
  const bool drc = options_.run_drc;

  // Fault plane + cancellation. The deadline budget is per run() call (one
  // group's route); the derived token still honours an external cancel.
  // Both are disarmed by default, in which case the only cost below is a
  // null test per site/poll — the token is threaded into the extender
  // config via a patched options copy made once per run, never per member.
  fault::FaultPlan* const plan = options_.fault_plan.get();
  fault::CancelToken token = options_.cancel;
  if (options_.deadline_s > 0.0) token = token.with_deadline(options_.deadline_s);
  const RouterOptions* opts = &options_;
  std::optional<RouterOptions> patched;
  if (token.armed()) {
    patched = options_;
    patched->extender.cancel = token;
    opts = &*patched;
  }

  // Stage 0 (serial): validate and snapshot every member before any stage
  // runs, declare every clearance-index slot (member order fixes the
  // deterministic violation order), and keep a rollback copy of each
  // original path — the pipeline writes geometry back as members finish, so
  // a later failure must be able to undo earlier write-backs.
  std::vector<MemberWork> work;
  work.reserve(group.members.size());
  layout::ClearanceIndex index(rules_, options_.drc);
  for (std::size_t m = 0; m < group.members.size(); ++m) {
    MemberWork w;
    w.member = group.members[m];
    w.target = group.target_for(m);
    w.area = layout.routable_area(w.member.id);
    if (w.area == nullptr) {
      throw std::invalid_argument("Router: member has no routable area");
    }
    w.obstacles = obstacles;
    w.net_rules = rules_;
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      w.trace = layout.trace(w.member.id);
      w.slot0 = index.add_slot(w.trace.width, static_cast<std::uint32_t>(m));
    } else {
      w.pair = layout.pair(w.member.id);
      w.net_rules.trace_width = w.pair.positive.width;
      w.slot0 = index.add_slot(w.pair.positive.width, static_cast<std::uint32_t>(m));
      index.add_slot(w.pair.negative.width, static_cast<std::uint32_t>(m));
    }
    work.push_back(std::move(w));
  }
  const std::size_t n = work.size();

  // Per-member result slots, all index-addressed so the outcome — including
  // violation order — is independent of how chains interleave.
  const layout::DrcChecker checker(options_.drc);
  std::vector<MemberReport> reports(n);
  std::vector<std::vector<layout::Violation>> net_violations(n);
  std::vector<double> drc_stage_s(n, 0.0);
  std::vector<double> extend_done_s(n, 0.0);

  // The three stages of one member's chain. Extension runs on the private
  // snapshot; write-back moves the finished geometry into the layout
  // (members own distinct map entries, so concurrent write-backs are
  // race-free); per-net DRC then reads that member's own layout geometry
  // and lands its sampled segments in the incremental clearance index.
  const auto extend_stage = [&](std::size_t i) {
    token.check();
    if (plan != nullptr) {
      plan->at_site(fault::extend_site(options_.fault_scope, group_index, i));
    }
    reports[i] = route_member(rules_, *opts, work[i]);
    extend_done_s[i] = seconds_since(t_run);
  };
  const auto writeback_stage = [&](std::size_t i) {
    MemberWork& w = work[i];
    // Move the layout's original path out (the rollback snapshot — free on
    // the success path) as the extended one moves in.
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      geom::Polyline& live = layout.trace(w.member.id).path;
      w.orig_primary = std::move(live);
      live = std::move(w.trace.path);
    } else {
      layout::DiffPair& pair = layout.pair(w.member.id);
      w.orig_primary = std::move(pair.positive.path);
      w.orig_secondary = std::move(pair.negative.path);
      pair.positive.path = std::move(w.pair.positive.path);
      pair.negative.path = std::move(w.pair.negative.path);
    }
    w.written = true;
  };
  const auto drc_stage = [&](std::size_t i) {
    if (!drc) return;
    token.check();
    const auto t0 = core::now();
    const MemberWork& w = work[i];
    std::vector<layout::Violation>& out = net_violations[i];
    const auto check_one = [&](const layout::Trace& t, std::uint32_t slot) {
      append(out, checker.check_trace(t, w.net_rules));
      append(out, checker.check_obstacles(t, w.net_rules, *w.obstacles));
      append(out, checker.check_containment(t, *w.area));
      index.insert(slot, t);
    };
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      check_one(layout.trace(w.member.id), w.slot0);
    } else {
      const layout::DiffPair& pair = layout.pair(w.member.id);
      check_one(pair.positive, w.slot0);
      check_one(pair.negative, w.slot0 + 1);
    }
    drc_stage_s[i] = seconds_since(t0);
  };

  const std::size_t width =
      std::min(std::max<std::size_t>(threads, 1), std::max<std::size_t>(n, 1));
  try {
    if (width <= 1) {
      // Serial reference: each member's chain inline, in member order.
      // Earlier members' per-net DRC ran before this member's extension, so
      // it leaves the matching-phase clock.
      double drc_before_s = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        extend_stage(i);
        extend_done_s[i] -= drc_before_s;
        writeback_stage(i);
        drc_stage(i);
        drc_before_s += drc_stage_s[i];
      }
    } else {
      // The staged graph: at most `width` member chains in flight. Each
      // chain's last stage claims and launches the next unrouted member; a
      // chain that throws is short-circuited by run_chain, so the failed
      // member never queues its DRC stage.
      exec::TaskGroup task_group(pool());
      std::atomic<std::size_t> next{width};
      std::function<void(std::size_t)> launch = [&](std::size_t i) {
        task_group.run_chain({[&, i] { extend_stage(i); },
                              [&, i] { writeback_stage(i); },
                              [&, i] {
                                drc_stage(i);
                                const std::size_t j =
                                    next.fetch_add(1, std::memory_order_relaxed);
                                if (j < n) launch(j);
                              }});
      };
      for (std::size_t c = 0; c < width; ++c) launch(c);
      task_group.wait();
    }
    // Sweep-site fault + final deadline check live INSIDE the try: the
    // cross-member sweep below runs after the rollback block, so a fault
    // meant to model "group failed during final DRC" must still unwind
    // through the geometry restore to keep the strong guarantee.
    token.check();
    if (plan != nullptr) {
      plan->at_site(fault::sweep_site(options_.fault_scope, group_index));
    }
  } catch (...) {
    // A failed chain aborts the whole group, but sibling chains may already
    // have written back (and the group drains fully before the rethrow, so
    // nothing is still running). Restore the original geometry of every
    // written-back member: the caller keeps the strong guarantee the
    // two-phase code had — a throw leaves the layout untouched.
    for (MemberWork& w : work) {
      if (!w.written) continue;
      if (w.member.kind == layout::MemberKind::SingleEnded) {
        layout.trace(w.member.id).path = std::move(w.orig_primary);
      } else {
        layout::DiffPair& pair = layout.pair(w.member.id);
        pair.positive.path = std::move(w.orig_primary);
        pair.negative.path = std::move(w.orig_secondary);
      }
    }
    throw;
  }

  RouteResult result;
  result.group.group_name = group.name;
  result.group.target = group.target_length;
  result.group.members = std::move(reports);
  // Everything this route read or produced, geometrically: member areas
  // plus pre-route (now in the rollback snapshots) and post-route paths.
  // reroute()'s delta → dirty-group proof tests edits against this box.
  for (const MemberWork& w : work) {
    result.domain_bbox.expand(w.area->bbox());
    result.domain_bbox.expand(w.orig_primary.bbox());
    result.domain_bbox.expand(w.orig_secondary.bbox());
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      result.domain_bbox.expand(layout.trace(w.member.id).path.bbox());
    } else {
      const layout::DiffPair& pair = layout.pair(w.member.id);
      result.domain_bbox.expand(pair.positive.path.bbox());
      result.domain_bbox.expand(pair.negative.path.bbox());
    }
  }
  // Matching-phase wall time — when the last member finished extending (the
  // pre-pipeline meaning of this field), not counting per-net checks that
  // ran before it on the serial path; they are reported separately below.
  for (std::size_t i = 0; i < n; ++i) {
    result.group.runtime_s = std::max(result.group.runtime_s, extend_done_s[i]);
    result.extend_runtime_s += result.group.members[i].runtime_s;
  }

  // Eq. 19 over final and initial lengths, on error magnitudes (overshoot
  // counts like undershoot — same convention as workload::matching_errors;
  // not shared code because members may carry individual targets here).
  const auto errors = [&](bool initial) {
    double max_e = 0.0, sum_e = 0.0;
    for (const MemberReport& mr : result.group.members) {
      const double len = initial ? mr.initial_length : mr.final_length;
      const double e = mr.target > 0.0 ? std::abs(mr.target - len) / mr.target : 0.0;
      max_e = std::max(max_e, e);
      sum_e += e;
    }
    const auto n = static_cast<double>(result.group.members.size());
    return std::pair{100.0 * max_e,
                     result.group.members.empty() ? 0.0 : 100.0 * sum_e / n};
  };
  std::tie(result.group.initial_max_error_pct, result.group.initial_avg_error_pct) =
      errors(true);
  std::tie(result.group.max_error_pct, result.group.avg_error_pct) = errors(false);

  // Collect the per-net verdicts the chains produced, then run the only
  // remaining barrier: the cross-member clearance query pass over the
  // incrementally-built index.
  if (drc) {
    for (std::size_t i = 0; i < n; ++i) {
      result.nets.push_back({result.group.members[i], std::move(net_violations[i])});
      result.drc_overlap_runtime_s += drc_stage_s[i];
    }
    const auto t_barrier = core::now();
    result.cross_violations = index.sweep();
    result.drc_barrier_runtime_s = seconds_since(t_barrier);
    result.drc_runtime_s = result.drc_overlap_runtime_s + result.drc_barrier_runtime_s;
  } else {
    for (const MemberReport& mr : result.group.members) {
      result.nets.push_back({mr, {}});
    }
  }

  result.runtime_s = seconds_since(t_run);
  return result;
}

BoardRoute Router::route_board(layout::Layout& layout) const {
  const std::size_t n_groups = layout.groups().size();
  BoardRoute board;
  // The pristine seeds are also the board-level rollback snapshot.
  // Unconditional — not gated on an armed fault plan / cancel / deadline —
  // because extension can throw with nothing armed (no routable area, a
  // meander target below the current length, pair-restore misalignment):
  // run() restores only the group that threw, and the strong guarantee
  // callers rely on (Session retry and the service's drop-bad-edit recovery)
  // covers earlier groups' write-backs too. Seed paths are short
  // pre-extension geometry, so the copy is tiny next to routing itself;
  // bench_micro_fault tracks the disarmed overhead.
  for (std::size_t g = 0; g < n_groups; ++g) {
    board.rerouted_groups.push_back(g);
    for (const layout::GroupMember& m : layout.groups()[g].members) {
      snapshot(layout, m.id, m.kind, board.seeds);
    }
  }
  board.results.resize(n_groups);
  try {
    route_groups(layout, board.rerouted_groups, board.results,
                 exec::resolve_threads(options_.threads));
  } catch (...) {
    restore_all(layout, board.seeds);
    throw;
  }
  board.version = layout.version();
  return board;
}

double Router::interaction_radius(const layout::Layout& layout) const {
  // Worst-case interaction radius: anything farther than this from
  // everything a group's route read or produced cannot change its
  // extension (obstacles enter routing only through area holes and
  // proximity checks), its per-net oracle verdicts (gap / obstacle
  // clearances top out at effective_gap / effective_obs for the widest
  // trace) or its cross-member sweep. Used by the reroute delta proof (and
  // by the tile_plan diagnostic).
  double w_max = rules_.trace_width;
  for (const auto& [id, t] : layout.traces()) {
    (void)id;
    w_max = std::max(w_max, t.width);
  }
  for (const auto& [id, p] : layout.pairs()) {
    (void)id;
    w_max = std::max({w_max, p.positive.width, p.negative.width});
  }
  return rules_.effective_gap() + rules_.effective_obs() + w_max +
         options_.drc.tolerance;
}

std::vector<std::size_t> Router::affected_groups(
    const layout::Layout& layout, const BoardRoute& prior,
    std::span<const layout::LayoutDelta> deltas) const {
  const std::size_t n_groups = layout.groups().size();
  std::vector<bool> hit(n_groups, false);
  // Groups the prior route has no result for (created by these edits) have
  // nothing to splice from — always route them.
  for (std::size_t g = prior.results.size(); g < n_groups; ++g) hit[g] = true;

  const double radius = interaction_radius(layout);
  const auto hit_near = [&](const geom::Box& dirty) {
    if (dirty.empty()) return;
    const geom::Box probe = dirty.inflated(radius);
    const std::size_t known = std::min(n_groups, prior.results.size());
    for (std::size_t g = 0; g < known; ++g) {
      if (probe.intersects(prior.results[g].domain_bbox)) hit[g] = true;
    }
  };

  for (const layout::LayoutDelta& d : deltas) {
    switch (d.kind) {
      case layout::DeltaKind::AddTrace:
      case layout::DeltaKind::AddPair:
        break;  // ungrouped geometry participates in no group's route
      case layout::DeltaKind::SetBoard:
        std::fill(hit.begin(), hit.end(), true);
        break;
      case layout::DeltaKind::AddGroup:
      case layout::DeltaKind::AddGroupMember:
      case layout::DeltaKind::RemoveGroupMember:
      case layout::DeltaKind::SetGroupTarget:
      case layout::DeltaKind::SetMemberTarget:
        if (d.group < n_groups) hit[d.group] = true;
        break;
      case layout::DeltaKind::SetRoutableArea: {
        // The area is an input only to its owning member's route, but be
        // doubly conservative: also test the touched geometry against every
        // cached domain.
        const std::size_t g = layout.group_of(d.trace);
        if (g != layout::kNoIndex && g < n_groups) hit[g] = true;
        hit_near(d.dirty);
        break;
      }
      case layout::DeltaKind::AddObstacle:
      case layout::DeltaKind::MoveObstacle:
      case layout::DeltaKind::RemoveObstacle:
        hit_near(d.dirty);
        break;
    }
  }

  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (hit[g]) out.push_back(g);
  }
  return out;
}

BoardRoute Router::reroute(layout::Layout& layout, const BoardRoute& prior,
                           std::span<const layout::LayoutDelta> deltas) const {
  if (prior.version + deltas.size() != layout.version()) {
    throw std::invalid_argument(
        "Router::reroute: deltas do not connect the prior route's version to "
        "the layout's (stale prior or truncated edit list)");
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i].version != prior.version + i + 1) {
      throw std::invalid_argument("Router::reroute: deltas out of order");
    }
  }

  const std::size_t n_groups = layout.groups().size();
  BoardRoute next;
  next.version = layout.version();
  next.seeds = prior.seeds;
  next.results = prior.results;
  next.results.resize(n_groups);  // groups are only ever appended
  next.rerouted_groups = affected_groups(layout, prior, deltas);

  // Every member an affected group holds now — or held when `prior` routed
  // it (a member edited out must fall back to its pristine geometry, same
  // as a fresh route of the edited board would leave it) — restarts from
  // its pristine seed. Members the prior route never saw are snapshotted
  // here: un-routed geometry *is* pristine.
  const auto restore = [&](layout::TraceId id, layout::MemberKind kind) {
    const auto it = next.seeds.find(id);
    if (it == next.seeds.end()) {
      snapshot(layout, id, kind, next.seeds);
    } else {
      put_back(layout, id, it->second);
    }
  };
  // Snapshot every member the seed-restore below or the group re-runs may
  // touch (the seed restore is itself a layout mutation): on failure the
  // caller gets its pre-call geometry back, not a half-restored mix.
  // Unconditional even with no fault source armed — a bad edit can make a
  // rerouted member throw from extension itself (see route_board) and the
  // seed restore has already mutated the layout by then. Cost is bounded
  // by the affected groups, i.e. the geometry being rerouted anyway.
  Snapshots saved;
  for (const std::size_t g : next.rerouted_groups) {
    if (g < prior.results.size()) {
      for (const MemberReport& m : prior.results[g].group.members) {
        snapshot(layout, m.id, m.kind, saved);
      }
    }
    for (const layout::GroupMember& m : layout.groups()[g].members) {
      snapshot(layout, m.id, m.kind, saved);
    }
  }

  try {
    for (const std::size_t g : next.rerouted_groups) {
      if (g < prior.results.size()) {
        for (const MemberReport& m : prior.results[g].group.members) {
          restore(m.id, m.kind);
        }
      }
      for (const layout::GroupMember& m : layout.groups()[g].members) {
        restore(m.id, m.kind);
      }
    }

    // Re-run only the affected groups on route_board's executor; untouched
    // groups keep their spliced prior results verbatim.
    route_groups(layout, next.rerouted_groups, next.results,
                 exec::resolve_threads(options_.threads));
  } catch (...) {
    restore_all(layout, saved);
    throw;
  }
  return next;
}

BoardRoute Router::reroute(layout::Layout& layout, const BoardRoute& prior) const {
  return reroute(layout, prior, layout.deltas_since(prior.version));
}

}  // namespace lmr::pipeline
