#pragma once
/// \file clearance_index.hpp
/// Incrementally-buildable cross-net clearance index.
///
/// The one-shot sweep (clearance_sweep.hpp) indexes every trace and runs
/// the window queries in a single tail call — pure added latency after the
/// last group member finishes extending. The staged routing pipeline wants
/// the per-trace half of that work to happen *while* other members are
/// still extending, so `ClearanceIndex` splits the sweep into three phases:
///
///  1. `add_slot()` — declare every participating trace up front (serial,
///     cheap). This fixes the query reach (a function of the declared
///     widths only) and the deterministic slot order that violation
///     ordering is keyed on.
///  2. `insert()`  — record one trace in its slot. Each call writes only
///     that slot's pre-allocated storage, so inserts for distinct slots are
///     safe from concurrent pipeline chains: a member indexes its own
///     geometry the moment it lands, in any order. `remove()` empties a
///     slot again, and a removed or replaced slot can be re-`insert`ed —
///     the edit-session path re-indexes only the traces an edit touched.
///  3. `sweep()`   — the only remaining barrier: run the window-query /
///     exact-check pass over a uniform segment grid (index::SegGrid). The
///     grid and the violations (keyed by slot pair) are cached across
///     calls, and a sweep with no intervening insert/remove returns the
///     cached violations untouched. A slot is dirty when it was inserted or
///     removed since the cached result, or declared after it. A re-sweep
///     re-registers only the dirty slots' segments, keeps every cached
///     violation between two clean slots and window-queries only the dirty
///     slots' segments, so it scales with the dirty slots, not the board;
///     with every slot dirty it is the full sweep. `sweep()` must not race
///     with `insert`/`remove` or another `sweep` on the same index — it is
///     the barrier.
///
/// The output is identical — same violations, same order — to the naive
/// all-pairs `DrcChecker::check_trace_pair` loop over the currently-inserted
/// traces in slot order (skipping equal nets): candidates are ordered by
/// slot index, never by insertion timing or cache state.

#include <cstdint>
#include <vector>

#include "drc/rules.hpp"
#include "geom/vec2.hpp"
#include "index/seg_grid.hpp"
#include "layout/drc_checker.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// Kept only so existing callers keep compiling: the index has one
/// broadphase, and the value passed in is accepted and ignored. The
/// out-of-library benchmark (perfbench/src/replay.cpp:138) still passes
/// `RouterOptions::clearance_backend` to the three-argument constructor.
enum class ClearanceBackend : std::uint8_t { Auto };

/// The incremental form of the cross-net clearance sweep. Not copyable (the
/// cache is cheap to rebuild but pointless to duplicate) but movable, so
/// sessions and containers can hold one by value; a moved-from index is an
/// empty index — `slot_count() == 0`, `sweep()` returns no violations, and
/// it can be rebuilt from `add_slot` up.
class ClearanceIndex {
 public:
  /// The third argument is accepted and ignored: it exists only because
  /// perfbench/src/replay.cpp:138 still passes
  /// `RouterOptions::clearance_backend` here.
  explicit ClearanceIndex(const drc::DesignRules& rules, DrcCheckOptions opts = {},
                          ClearanceBackend /*ignored*/ = ClearanceBackend::Auto);

  ClearanceIndex(const ClearanceIndex&) = delete;
  ClearanceIndex& operator=(const ClearanceIndex&) = delete;
  ClearanceIndex(ClearanceIndex&&) noexcept = default;
  ClearanceIndex& operator=(ClearanceIndex&&) noexcept = default;

  /// Declare one participating trace: its width (enters the worst-case gap
  /// that sizes grid cells and query windows) and its net id (traces of
  /// equal net are never checked against each other). Returns the dense
  /// slot id, assigned in call order — the order violations are keyed on.
  /// A slot declared after a sweep is dirty for the next one.
  std::uint32_t add_slot(double width, std::uint32_t net);

  /// Record `trace` in `slot`; its segments join the grid at the next
  /// `sweep`. Thread-safe for distinct slots (each call touches only its own
  /// slot's storage); `trace` must outlive the index. Inserting a slot twice
  /// replaces its geometry and marks the slot dirty for the next `sweep`.
  void insert(std::uint32_t slot, const Trace& trace);

  /// Empty `slot` again: it stops participating in sweeps until the next
  /// `insert`, exactly as if it had been declared but never inserted.
  void remove(std::uint32_t slot);

  /// Query-only pass over everything inserted so far. Returns all TraceGap
  /// violations between traces of different nets, deterministically ordered
  /// by (slot a, slot b, segment a, segment b). Slots that were declared
  /// but never inserted (or were removed) simply do not participate.
  [[nodiscard]] std::vector<Violation> sweep() const;

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] double slot_width(std::uint32_t slot) const {
    return slots_.at(slot).width;
  }
  [[nodiscard]] std::uint32_t slot_net(std::uint32_t slot) const {
    return slots_.at(slot).net;
  }
  /// True when `slot` currently holds a trace.
  [[nodiscard]] bool slot_inserted(std::uint32_t slot) const {
    return slots_.at(slot).trace != nullptr;
  }

 private:
  struct Slot {
    const Trace* trace = nullptr;  ///< null until insert() / after remove()
    std::uint32_t net = 0;
    double width = 0.0;
  };

  /// Re-registers only the slots whose epoch moved since the grid last saw
  /// them (O(segments of dirty slots) — the grid updates in place).
  void refresh_grid() const;

  drc::DesignRules rules_;
  DrcCheckOptions opts_;
  double max_width_ = 0.0;  ///< over declared widths
  std::vector<Slot> slots_;
  /// Per-slot mutation counter: bumped by insert()/remove(). Epoch
  /// comparisons drive every cache decision, so there is no validity flag
  /// to get stale on move.
  std::vector<std::uint64_t> slot_epoch_;

  // --- sweep cache (only touched inside sweep(), which is the barrier) ---
  mutable index::SegGrid grid_;  ///< payload packs (slot << 32) | segment
  mutable std::vector<std::vector<std::uint32_t>> grid_ids_;  ///< per slot: entry ids
  mutable std::vector<std::uint64_t> grid_built_epoch_;       ///< per slot, at build
  mutable std::vector<Violation> result_;              ///< last sweep's output
  /// Parallel to result_: (slot_a << 32) | slot_b of each violation.
  mutable std::vector<std::uint64_t> result_pairs_;
  mutable std::vector<std::uint64_t> result_epochs_;   ///< epochs it was valid at
};

}  // namespace lmr::layout
