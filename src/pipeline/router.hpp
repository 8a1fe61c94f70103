#pragma once
/// \file router.hpp
/// One-call facade over the paper's full length-matching flow (Fig. 2).
///
/// `Router` wires together everything callers previously had to hand-wire
/// (as `bench/table1_main.cpp` once did): per-trace URA extraction and
/// segment DP extension (core/trace_extender), MSDTW median merging and
/// pair restoration for differential members (dtw/*), group-level Eq. 19
/// error accounting, and the final DRC oracle sweep (layout/drc_checker).
///
/// Two entry points: `route()` length-matches one group of a layout and
/// returns per-net diagnostics; `route_board()` routes every group of a
/// layout as one task fan-out (so small groups never serialize behind each
/// other) and returns the package `reroute()` incrementally updates. Both
/// run on the persistent work-stealing executor (exec/task_pool) at
/// `RouterOptions::threads`; `threads = 1` is the serial reference.
///
/// Within one group each member is an extend → write-back → per-net DRC
/// chain: serially these run member by member, in member order; threaded
/// they are task chains (exec::TaskGroup::run_chain), so one member's
/// rule/obstacle/containment checks run while other members are still
/// extending. Each member's sampled segments land in an incremental
/// layout::ClearanceIndex as its geometry is written back, and the
/// cross-member clearance query pass runs once after the join. Every thread
/// count produces identical results by construction: every net is extended
/// on a private copy of its geometry (nets of one group own disjoint
/// routable areas, so they are independent), and every report, violation
/// list and index slot is written at its member-order index, so the outcome
/// — including violation order — is independent of scheduling.
///
/// Obstacle clearance (the per-net DRC stage and the skew-compensation
/// oracle) goes through one layout::ObstacleIndex per call — built once per
/// route() and once per route_board()/reroute() for all their groups — so a
/// check scans the obstacles near its trace, not the board.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/trace_extender.hpp"
#include "drc/rules.hpp"
#include "exec/task_pool.hpp"
#include "fault/cancel.hpp"
#include "fault/fault_plan.hpp"
#include "geom/box.hpp"
#include "layout/clearance_index.hpp"
#include "layout/drc_checker.hpp"
#include "layout/layout.hpp"

namespace lmr::pipeline {

/// Extension engine selection.
enum class Engine {
  DpMsdtw,    ///< the paper's flow: segment DP + MSDTW medians (default)
  AidtStyle,  ///< greedy fixed-geometry baseline (the Table I comparator)
};

/// Per-member outcome.
struct MemberReport {
  layout::TraceId id = 0;
  layout::MemberKind kind = layout::MemberKind::SingleEnded;
  std::string name;
  double initial_length = 0.0;
  double final_length = 0.0;
  double target = 0.0;
  double runtime_s = 0.0;
  bool reached = false;
  int patterns = 0;

  [[nodiscard]] double error_fraction() const {
    return target > 0.0 ? (target - final_length) / target : 0.0;
  }
};

/// Per-group outcome with the paper's error metrics (Eq. 19).
struct GroupReport {
  std::string group_name;
  double target = 0.0;
  double max_error_pct = 0.0;
  double avg_error_pct = 0.0;
  double initial_max_error_pct = 0.0;
  double initial_avg_error_pct = 0.0;
  double runtime_s = 0.0;
  std::vector<MemberReport> members;
};

/// Facade knobs.
struct RouterOptions {
  core::ExtenderConfig extender;   ///< DP iteration caps, tolerance, grid
  Engine engine = Engine::DpMsdtw; ///< baseline selection
  bool run_drc = true;             ///< final oracle sweep after matching
  layout::DrcCheckOptions drc;     ///< oracle tolerances
  /// Parallelism cap for route / route_board / reroute (claimer count per
  /// fan-out); 0 = hardware concurrency (exec::resolve_threads), 1 = the
  /// serial reference path (no executor at all).
  std::size_t threads = 0;
  /// Executor running the fan-out. Non-owning; nullptr lets the Router
  /// pick: the lazy shared singleton when `threads == 0`, otherwise a
  /// private pool of `threads - 1` workers created on first parallel call
  /// and reused for the Router's lifetime. Callers that batch many Routers
  /// (bench::Suite) pass one pool here so every layer shares its workers.
  exec::TaskPool* pool = nullptr;
  /// Ascending MSDTW distance-rule set for differential members (Alg. 3's
  /// R) when a pair crosses several Design Rule Areas; empty means the
  /// single-DRA default {pair.pitch}.
  std::vector<double> pair_rule_set;
  /// Cooperative cancellation: polled at every stage boundary and inside
  /// the DP extender at pattern-placement granularity. `cancel.cancel()`
  /// aborts in-flight routes with fault::RouteCancelled; the rollback path
  /// guarantees the layout is untouched. Empty (the default) costs one null
  /// test per poll.
  fault::CancelToken cancel;
  /// Per-group route budget in seconds; 0 = none. Each `run` (one group's
  /// route, whether via route()/route_board()/reroute()) derives a deadline
  /// token at entry; expiry surfaces as fault::RouteTimeout with the same
  /// layout-untouched guarantee. Composes with `cancel`.
  double deadline_s = 0.0;
  /// Fault-injection plane (tests, fault_storm bench); nullptr = disarmed —
  /// one null test per site. See fault/fault_plan.hpp for the site keys.
  std::shared_ptr<fault::FaultPlan> fault_plan;
  /// Prefix baked into this Router's fault site keys; the serving tier sets
  /// the board id so plans can target one board out of many.
  std::string fault_scope;
  /// Accepted and ignored: every clearance index runs on the segment grid.
  /// Kept only because perfbench/src/replay.cpp:138 still passes it to the
  /// three-argument layout::ClearanceIndex constructor.
  layout::ClearanceBackend clearance_backend = layout::ClearanceBackend::Auto;
};

/// Per-net diagnostics: the matching report plus this net's oracle verdict.
struct NetResult {
  MemberReport member;
  /// Violations involving only this net (self rules, obstacle clearance,
  /// area containment; both sub-traces for a differential member).
  std::vector<layout::Violation> violations;

  [[nodiscard]] bool drc_clean() const { return violations.empty(); }
};

/// One group's outcome: what `route()` returns, and one entry per group of
/// `BoardRoute::results`.
struct RouteResult {
  GroupReport group;            ///< Eq. 19 error metrics + member reports
  std::vector<NetResult> nets;  ///< one entry per group member
  /// Clearance violations between traces of *different* members.
  std::vector<layout::Violation> cross_violations;
  double runtime_s = 0.0;
  /// Aggregate extension work time (sum of per-member extension runtimes;
  /// exceeds wall time when members run concurrently).
  double extend_runtime_s = 0.0;
  /// Aggregate per-net oracle work time (rules / obstacles / containment +
  /// clearance-index inserts). On more than one thread this overlaps other
  /// members' extension instead of running after the join.
  double drc_overlap_runtime_s = 0.0;
  /// Wall time of the final cross-member clearance query pass — the one
  /// part of the oracle that runs after every member has joined.
  double drc_barrier_runtime_s = 0.0;
  /// Total oracle work: drc_overlap_runtime_s + drc_barrier_runtime_s.
  double drc_runtime_s = 0.0;
  /// Everything this group's route read or produced, geometrically: the
  /// union of member routable-area bboxes and pre-/post-route path bboxes.
  /// `Router::reroute` proves a board edit cannot have changed this group
  /// by showing the edit's dirty box, inflated by the clearance radius,
  /// misses this box.
  geom::Box domain_bbox;

  [[nodiscard]] bool matched() const;
  [[nodiscard]] bool drc_clean() const;
  [[nodiscard]] std::size_t violation_count() const;
  [[nodiscard]] bool ok() const { return matched() && drc_clean(); }
};

/// Pristine (pre-route) geometry of one group member. Re-routing a group is
/// only equivalent to routing it fresh if it starts from the same input
/// polylines, so `route_board` snapshots every member's path before the
/// first extension and `reroute` restores the snapshot for every member of
/// an affected group before re-running it.
struct MemberSeed {
  layout::MemberKind kind = layout::MemberKind::SingleEnded;
  geom::Polyline primary;    ///< the trace, or traceP of a pair
  geom::Polyline secondary;  ///< traceN of a pair; empty for single-ended
};

/// A whole-board routing outcome pinned to the layout version it reflects.
/// `route_board` produces one; `reroute` consumes a prior one plus the
/// journal suffix and splices fresh results over the affected groups only.
struct BoardRoute {
  /// layout.version() the results correspond to. `reroute` rejects delta
  /// lists that do not connect this version to the layout's current one.
  std::uint64_t version = 0;
  /// One result per group, in group order — bit-identical (geometry and
  /// violations) to a fresh `route_board` of the same board.
  std::vector<RouteResult> results;
  /// Pristine pre-route geometry per member id (see MemberSeed).
  std::map<layout::TraceId, MemberSeed> seeds;
  /// Diagnostics: group indices the producing call actually re-routed
  /// (`route_board` lists every group). Not part of the equivalence
  /// contract.
  std::vector<std::size_t> rerouted_groups;
};

/// The end-to-end facade. Construct once with the design rules, then route
/// as many layouts as needed (the Router itself is immutable and
/// thread-compatible: concurrent `route()` calls on distinct layouts are
/// safe).
class Router {
 public:
  /// Throws std::invalid_argument on inconsistent rules.
  explicit Router(drc::DesignRules rules, RouterOptions options = {});

  /// Match group `group_index` of `layout`, with independent nets extended
  /// across up to `options.threads` claimers on the persistent executor (no
  /// per-call thread spawning). Bit-identical at every thread count; only the
  /// timing fields differ. Throws std::out_of_range on a bad index and
  /// std::invalid_argument when a member lacks a routable area; a throw
  /// leaves the layout untouched.
  RouteResult route(layout::Layout& layout, std::size_t group_index = 0) const;

  /// Route *every* group of `layout` as one task batch: groups and their
  /// members share the same executor, so a board of many small groups
  /// saturates the pool instead of serializing group by group. Snapshots
  /// every member's pristine geometry first (the seeds, which double as the
  /// rollback snapshot: a throw restores them all), stamps the layout
  /// version, and returns the package `reroute` incrementally updates. One
  /// result per group, in group order, bit-identical to calling `route()`
  /// per group. Requires what every generated board satisfies: no trace
  /// belongs to two groups (members are written back concurrently).
  BoardRoute route_board(layout::Layout& layout) const;

  /// Incremental re-route: prove which groups the recorded edits can touch
  /// (group-structure deltas name their group; geometric deltas miss a
  /// group when their dirty bbox inflated by the worst-case clearance
  /// radius misses its cached domain bbox), restore those groups' members
  /// to their pristine seeds, re-run only them on the same executor, and
  /// splice the fresh results over `prior`'s. The result is bit-identical —
  /// trace geometry and violation sets — to a fresh `route_board` of the
  /// edited board. `deltas` must be exactly the journal suffix connecting
  /// `prior.version` to `layout.version()`: stale, reordered or truncated
  /// edit lists throw std::invalid_argument.
  BoardRoute reroute(layout::Layout& layout, const BoardRoute& prior,
                     std::span<const layout::LayoutDelta> deltas) const;
  /// Convenience: reroute over the layout's own journal suffix since
  /// `prior.version` (always correctly ordered).
  BoardRoute reroute(layout::Layout& layout, const BoardRoute& prior) const;

  /// The delta → dirty-group proof by itself (exposed for tests and
  /// diagnostics): indices of groups the edits could have affected, in
  /// group order. Groups the board has grown past `prior.results` are
  /// always included.
  [[nodiscard]] std::vector<std::size_t> affected_groups(
      const layout::Layout& layout, const BoardRoute& prior,
      std::span<const layout::LayoutDelta> deltas) const;

  [[nodiscard]] const drc::DesignRules& rules() const { return rules_; }
  [[nodiscard]] const RouterOptions& options() const { return options_; }

  /// A spatial partition of this board's groups, for diagnostics only: the
  /// router does not shard by it (every obstacle check goes through one
  /// board-wide layout::ObstacleIndex). The tile count is derived from the
  /// group count (n / 4, clamped to [1, 64]) and split along the board's
  /// long axis first. A trivial plan (tiles_x * tiles_y == 1) means too few
  /// groups or a degenerate extent.
  struct TilePlan {
    struct Tile {
      geom::Box box;       ///< partition cell
      geom::Box coverage;  ///< box inflated by the interaction radius
      /// Groups whose reach (member areas + current paths) lies wholly in
      /// this tile.
      std::vector<std::size_t> groups;
      /// Size of that subset (obstacles whose bbox intersects coverage).
      std::size_t obstacles = 0;
    };
    std::size_t tiles_x = 1;
    std::size_t tiles_y = 1;
    std::vector<Tile> tiles;  ///< row-major, tiles_x * tiles_y (empty if trivial)
    /// Groups whose reach spans more than one tile.
    std::vector<std::size_t> straddlers;
  };
  [[nodiscard]] TilePlan tile_plan(const layout::Layout& layout) const;

  /// The executor this Router fans out on (see RouterOptions::pool).
  /// Instantiates the shared/private pool on first use.
  [[nodiscard]] exec::TaskPool& pool() const;

 private:
  /// One group's route. `obstacles` indexes `layout.obstacles()`; null
  /// builds an index for this call.
  RouteResult run(layout::Layout& layout, std::size_t group_index,
                  std::size_t threads,
                  const layout::ObstacleIndex* obstacles = nullptr) const;
  /// Group fan-out behind route_board/reroute: index the board's obstacles
  /// once, then run every group of `todo` on the executor. Writes results[g]
  /// for every g in todo (index-addressed — scheduling cannot change
  /// output).
  void route_groups(layout::Layout& layout, const std::vector<std::size_t>& todo,
                    std::vector<RouteResult>& results, std::size_t threads) const;
  /// Worst-case distance at which anything on the board can still influence
  /// a route (see affected_groups; also sizes tile_plan coverage).
  [[nodiscard]] double interaction_radius(const layout::Layout& layout) const;

  drc::DesignRules rules_;
  RouterOptions options_;
  /// Owns-or-borrows the executor per the exec 0/1/N convention, lazily
  /// (`threads = 1` Routers never spawn a thread) and reused across calls.
  mutable exec::PoolHandle pool_handle_;
};

}  // namespace lmr::pipeline
