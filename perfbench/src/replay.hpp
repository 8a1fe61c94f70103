#pragma once
/// \file replay.hpp
/// Serial decomposed replay of the router's per-member flow, for per-layer
/// numbers without instrumenting the library.
///
/// `replay_route` re-runs `Router::route_board`'s work one member at a time
/// through the public stage APIs — `core::TraceExtender`, then
/// `dtw::merge_pair` / `restore_pair` / `compensate_skew` for pairs, then
/// `layout::DrcChecker` and a per-group `layout::ClearanceIndex` — with a
/// span around every stage call. Obstacles are selected through the public
/// `Router::tile_plan`, so `layout.check_obstacles` scans exactly the
/// subset the router scans. The result must be `routes_equivalent` to the
/// router's own route of the same board; the workloads gate on that.
///
/// `replay_edits` replays an edit script the way `Session::apply` does it,
/// one edit at a time on a copy: `layout::apply_edit`, then
/// `Router::affected_groups`, then `Router::reroute`.

#include <cstdint>
#include <span>

#include "layout/board_edit.hpp"
#include "pipeline/router.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counters gathered by the replay.
struct ReplayCounters {
  std::uint64_t members = 0;
  std::uint64_t reached = 0;
  std::uint64_t dp_runs = 0;
  std::uint64_t segments = 0;
  std::uint64_t patterns = 0;
  std::uint64_t obstacle_checks = 0;  ///< check_obstacles calls
  std::uint64_t obstacles_scanned = 0;  ///< refs passed over those calls
  std::uint64_t tiles = 0;       ///< non-empty tiles of the tile plans
  std::uint64_t straddlers = 0;  ///< cross-tile groups of the tile plans
  std::uint64_t edits = 0;
  std::uint64_t rerouted_groups = 0;
  std::uint64_t groups_seen = 0;  ///< groups on the board, summed per edit
};

/// Route every group of `layout` (pristine) serially, stage by stage, with
/// `router`'s rules and options. Writes the routed geometry into `layout`.
[[nodiscard]] lmr::pipeline::BoardRoute replay_route(const lmr::pipeline::Router& router,
                                                     lmr::layout::Layout& layout,
                                                     Tracer& tracer, ReplayCounters& counters);

/// Apply `edits` one at a time to `layout` (routed as `prior`), re-routing
/// after each; returns the final route.
[[nodiscard]] lmr::pipeline::BoardRoute replay_edits(const lmr::pipeline::Router& router,
                                                     lmr::layout::Layout& layout,
                                                     lmr::pipeline::BoardRoute prior,
                                                     std::span<const lmr::layout::BoardEdit> edits,
                                                     Tracer& tracer, ReplayCounters& counters);

}  // namespace perfbench
