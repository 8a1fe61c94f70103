#pragma once
/// \file layout.hpp
/// The PCB layout container: board outline, obstacles, traces, differential
/// pairs, matching groups and per-trace routable areas.
///
/// The layout is *versioned*: every board mutation goes through a recorded
/// mutator that applies the edit, bumps the monotonic version counter and
/// appends a `LayoutDelta` (with the dirty bounding box the edit can
/// influence) to the journal. There are deliberately no raw mutable
/// accessors for obstacles or groups — the session/incremental-reroute
/// machinery (pipeline::Router::reroute) depends on every edit being
/// observable. Trace *geometry* writes via `trace(id)` / `pair(id)` are the
/// one exception: they are routing write-backs, not board edits, and do not
/// version the board.
///
/// While a route is in flight the board structure is frozen
/// (`freeze_for_routing`): recorded mutators throw std::logic_error until
/// the freeze is released, so an edit stream can never interleave with a
/// running route — callers must queue edits and apply them between routes.

#include <atomic>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "drc/rule_area.hpp"
#include "geom/polygon.hpp"
#include "layout/layout_delta.hpp"
#include "layout/routable_area.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// An obstacle: "a polygon that the trace cannot pass" (§II). Vias, pads,
/// keepouts and pre-routed foreign nets all enter the tuner this way.
struct Obstacle {
  geom::Polygon shape;
  std::string name;
};

/// Whole-board model handed to the length-matching flow.
class Layout {
 public:
  Layout() = default;
  explicit Layout(geom::Polygon board) : board_(std::move(board)) {}

  // The routing-freeze flag is an atomic (group chains release it from pool
  // workers), which drops the implicit copy/move; a copied board starts
  // unfrozen with the journal intact.
  Layout(const Layout& o) { assign(o); }
  Layout& operator=(const Layout& o) {
    if (this != &o) assign(o);
    return *this;
  }
  Layout(Layout&& o) noexcept { assign(std::move(o)); }
  Layout& operator=(Layout&& o) noexcept {
    if (this != &o) assign(std::move(o));
    return *this;
  }

  // --- versioning / dirty tracking ---
  /// Monotonic edit counter: starts at 0, +1 per recorded mutation. Routing
  /// write-backs do not count — the version tracks the *board*, not the
  /// traces' tuned geometry.
  [[nodiscard]] std::uint64_t version() const { return journal_.size(); }
  /// The journal suffix after `version` (all recorded mutations when 0).
  /// Invalidated by the next mutation.
  [[nodiscard]] std::span<const LayoutDelta> deltas_since(std::uint64_t version) const;
  /// Union of the dirty boxes of every delta after `version`.
  [[nodiscard]] geom::Box dirty_since(std::uint64_t version) const;

  /// RAII routing freeze: recorded mutators throw while any freeze is
  /// alive. Nests (route_board freezes once per group chain).
  class RoutingFreeze {
   public:
    explicit RoutingFreeze(Layout& l) : l_(&l) {
      l.route_freezes_.fetch_add(1, std::memory_order_relaxed);
    }
    ~RoutingFreeze() {
      if (l_ != nullptr) l_->route_freezes_.fetch_sub(1, std::memory_order_relaxed);
    }
    RoutingFreeze(const RoutingFreeze&) = delete;
    RoutingFreeze& operator=(const RoutingFreeze&) = delete;
    RoutingFreeze(RoutingFreeze&& o) noexcept : l_(o.l_) { o.l_ = nullptr; }
    RoutingFreeze& operator=(RoutingFreeze&&) = delete;

   private:
    /// try_freeze already took the count via CAS; adopt without incrementing.
    struct Adopt {};
    RoutingFreeze(Layout& l, Adopt) : l_(&l) {}
    friend class Layout;

    Layout* l_;
  };
  [[nodiscard]] RoutingFreeze freeze_for_routing() { return RoutingFreeze(*this); }
  /// Non-throwing freeze probe for schedulers that queue instead of catch
  /// (service layers): atomically acquire the freeze iff no other freeze is
  /// alive — unlike `freeze_for_routing`, which nests unconditionally.
  /// Returns std::nullopt while a route is in flight; the recorded-mutator
  /// throw path is unchanged either way.
  [[nodiscard]] std::optional<RoutingFreeze> try_freeze() {
    int expected = 0;
    if (!route_freezes_.compare_exchange_strong(expected, 1,
                                                std::memory_order_relaxed)) {
      return std::nullopt;
    }
    return RoutingFreeze(*this, RoutingFreeze::Adopt{});
  }
  [[nodiscard]] bool frozen() const {
    return route_freezes_.load(std::memory_order_relaxed) != 0;
  }
  /// Probe-style alias of `frozen()`: safe from any thread (atomic load),
  /// pairs with `try_freeze` in queue-instead-of-catch callers.
  [[nodiscard]] bool is_frozen() const { return frozen(); }

  // --- board ---
  LayoutDelta set_board(geom::Polygon b);
  [[nodiscard]] const geom::Polygon& board() const { return board_; }

  // --- obstacles ---
  LayoutDelta add_obstacle(Obstacle o);
  /// Translate obstacle `index` by `d` (shape only; the name stays).
  LayoutDelta move_obstacle(std::size_t index, geom::Vec2 d);
  /// Replace obstacle `index`'s polygon (recorded as a move).
  LayoutDelta set_obstacle_shape(std::size_t index, geom::Polygon shape);
  /// Erase obstacle `index`; later obstacle indices shift down by one.
  LayoutDelta remove_obstacle(std::size_t index);
  [[nodiscard]] const std::vector<Obstacle>& obstacles() const { return obstacles_; }
  [[nodiscard]] std::size_t obstacle_count() const { return obstacles_.size(); }
  [[nodiscard]] const Obstacle& obstacle(std::size_t index) const {
    return obstacles_.at(index);
  }

  // --- traces / pairs ---
  TraceId add_trace(Trace t);
  TraceId add_pair(DiffPair p);
  [[nodiscard]] const Trace& trace(TraceId id) const { return traces_.at(id); }
  [[nodiscard]] Trace& trace(TraceId id) { return traces_.at(id); }
  [[nodiscard]] const DiffPair& pair(TraceId id) const { return pairs_.at(id); }
  [[nodiscard]] DiffPair& pair(TraceId id) { return pairs_.at(id); }
  [[nodiscard]] const std::map<TraceId, Trace>& traces() const { return traces_; }
  [[nodiscard]] const std::map<TraceId, DiffPair>& pairs() const { return pairs_; }

  // --- matching groups ---
  LayoutDelta add_group(MatchGroup g);
  LayoutDelta add_group_member(std::size_t group, GroupMember member,
                               double target = 0.0);
  /// Erase member `member_index` of group `group` (and its target override).
  LayoutDelta remove_group_member(std::size_t group, std::size_t member_index);
  LayoutDelta set_group_target(std::size_t group, double target);
  /// Per-member target override (0 = use the group target).
  LayoutDelta set_member_target(std::size_t group, std::size_t member_index,
                                double target);
  [[nodiscard]] const std::vector<MatchGroup>& groups() const { return groups_; }
  /// Group index owning trace/pair `id`, or kNoIndex when ungrouped.
  [[nodiscard]] std::size_t group_of(TraceId id) const;

  // --- routable areas (region-assignment output) ---
  LayoutDelta set_routable_area(TraceId id, RoutableArea area);
  [[nodiscard]] const RoutableArea* routable_area(TraceId id) const {
    auto it = areas_.find(id);
    return it == areas_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<TraceId, RoutableArea>& routable_areas() const {
    return areas_;
  }

 private:
  void assign(const Layout& o);
  void assign(Layout&& o);
  /// Throw while frozen, else append + return the recorded delta.
  LayoutDelta record(LayoutDelta d);
  void check_mutable() const;

  geom::Polygon board_;
  std::vector<Obstacle> obstacles_;
  std::map<TraceId, Trace> traces_;
  std::map<TraceId, DiffPair> pairs_;
  std::vector<MatchGroup> groups_;
  std::map<TraceId, RoutableArea> areas_;
  TraceId next_id_ = 1;
  std::vector<LayoutDelta> journal_;
  std::atomic<int> route_freezes_{0};

  friend TraceId allocate_id(Layout& l);
};

}  // namespace lmr::layout
