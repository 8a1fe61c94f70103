#pragma once
/// \file clearance_index.hpp
/// Incrementally-buildable cross-net clearance index.
///
/// The one-shot sweep (clearance_sweep.hpp) samples every trace, builds the
/// range tree and runs the window queries in a single tail call — pure
/// added latency after the last group member finishes extending. The staged
/// routing pipeline wants the per-trace half of that work to happen *while*
/// other members are still extending, so `ClearanceIndex` splits the sweep
/// into three phases:
///
///  1. `add_slot()` — declare every participating trace up front (serial,
///     cheap). This fixes the sampling pitch (a function of the declared
///     widths only) and the deterministic slot order that violation
///     ordering is keyed on.
///  2. `insert()`  — sample one trace's segments into its slot. Each call
///     writes only that slot's pre-allocated storage, so inserts for
///     distinct slots are safe from concurrent pipeline chains: a member
///     indexes its own geometry the moment it lands, in any order.
///     `remove()` empties a slot again, and a removed or replaced slot can
///     be re-`insert`ed — the edit-session path re-indexes only the traces
///     an edit touched.
///  3. `sweep()`   — the only remaining barrier: run the window-query /
///     exact-check pass. The broadphase and the violations (keyed by slot
///     pair) are cached across calls, and a sweep with no intervening
///     insert/remove returns the cached violations untouched. A slot is
///     dirty when it was inserted or removed since the cached result, or
///     declared after it. After an edit the range tree rebuilds only
///     per-dirty-slot overlay trees (a full rebuild once a quarter of the
///     slots are dirty) but re-queries every slot. The grid re-registers
///     only the dirty slots, keeps every cached violation between two clean
///     slots and window-queries only the dirty slots' segments, so its
///     re-sweep scales with the dirty slots, not the board; with every slot
///     dirty it is the full sweep. `sweep()` must not race with
///     `insert`/`remove` or another `sweep` on the same index — it is the
///     barrier, exactly as before.
///
/// The output is identical — same violations, same order — to running
/// `cross_clearance_sweep` over the currently-inserted traces in slot
/// order: sampling depends only on each trace's own geometry and the
/// declared widths, and candidates are ordered by slot index, never by
/// insertion timing or cache state.

#include <cstdint>
#include <vector>

#include "drc/rules.hpp"
#include "geom/vec2.hpp"
#include "index/range_tree.hpp"
#include "index/seg_grid.hpp"
#include "layout/drc_checker.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// Broadphase backing the candidate-collection pass of `sweep()`.
///
/// Both backends feed the same sorted/unique/exact-check funnel, so they
/// produce bit-identical violations; they differ only in how candidates are
/// found. `RangeTree` samples every trace into one range tree (cheap per
/// query on small boards, O(n log n) rebuilds, and every sweep after an
/// edit re-queries every slot). `Grid` drops whole segments into a uniform
/// segment-collider grid (no sampling at all — insert is O(1), updates are
/// in-place per slot, and a sweep after an edit re-queries only the dirty
/// slots) and wins once boards carry hundreds of slots. `Auto` picks per
/// index: grid when the index has declared at least
/// `ClearanceIndex::kGridAutoSlots` slots, range tree below that.
enum class ClearanceBackend : std::uint8_t { Auto, RangeTree, Grid };

/// The incremental form of the cross-net clearance sweep. Not copyable (the
/// cache is cheap to rebuild but pointless to duplicate) but movable, so
/// sessions and containers can hold one by value; a moved-from index is an
/// empty index — `slot_count() == 0`, `sweep()` returns no violations, and
/// it can be rebuilt from `add_slot` up.
class ClearanceIndex {
 public:
  /// `Auto` flips to the grid backend at this many declared slots. Small
  /// groups stay on the range tree (tiny trees, negligible rebuilds); a
  /// board-wide index over a mega board crosses the threshold and gets the
  /// O(1)-update grid.
  static constexpr std::size_t kGridAutoSlots = 64;

  explicit ClearanceIndex(const drc::DesignRules& rules, DrcCheckOptions opts = {},
                          ClearanceBackend backend = ClearanceBackend::Auto);

  ClearanceIndex(const ClearanceIndex&) = delete;
  ClearanceIndex& operator=(const ClearanceIndex&) = delete;
  ClearanceIndex(ClearanceIndex&&) noexcept = default;
  ClearanceIndex& operator=(ClearanceIndex&&) noexcept = default;

  /// Declare one participating trace: its width (enters the worst-case gap
  /// that sizes sampling pitch and query windows) and its net id (traces of
  /// equal net are never checked against each other). Returns the dense
  /// slot id, assigned in call order — the order violations are keyed on.
  /// All slots must be declared before the first `insert`.
  std::uint32_t add_slot(double width, std::uint32_t net);

  /// Sample `trace`'s segments into `slot`. Thread-safe for distinct slots
  /// (each call touches only its own slot's storage); `trace` must outlive
  /// the index. Inserting a slot twice replaces its samples and marks the
  /// slot dirty for the next `sweep`.
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
  /// True when `slot` currently holds samples.
  [[nodiscard]] bool slot_inserted(std::uint32_t slot) const {
    return slots_.at(slot).trace != nullptr;
  }

  /// The backend the next `sweep()` will use. For `Auto` this is a pure
  /// function of the current slot count, so it can flip RangeTree -> Grid as
  /// a session declares more slots (never back — slots are never undeclared);
  /// the grid needs no samples, so a flip just means the next sweep rebuilds
  /// its store from the traces' live segments.
  [[nodiscard]] ClearanceBackend backend() const {
    return use_grid() ? ClearanceBackend::Grid : ClearanceBackend::RangeTree;
  }

 private:
  struct Slot {
    const Trace* trace = nullptr;  ///< null until insert() / after remove()
    std::uint32_t net = 0;
    double width = 0.0;
    std::vector<geom::Point> samples;
    std::vector<std::uint32_t> sample_seg;  ///< sample -> local segment index
  };

  /// Flat id of one (slot, segment) pair across the main tree's slots.
  struct SegRef {
    std::uint32_t slot = 0;
    std::uint32_t seg = 0;
  };

  /// Per-dirty-slot patch tree built over one slot's current samples
  /// (payload = local segment index). Replaces that slot's stale entries in
  /// the main tree until the next full rebuild folds it back in.
  struct Overlay {
    std::uint32_t slot = 0;
    std::uint64_t epoch = 0;  ///< slot epoch the overlay was built at
    index::RangeTree2D tree;
  };

  /// Bring the cached main tree + overlays up to date with the slot epochs.
  void refresh_cache() const;
  /// Grid twin of refresh_cache(): re-inserts only the slots whose epoch
  /// moved (O(segments of dirty slots), no overlays needed — the grid
  /// updates in place).
  void refresh_grid() const;
  [[nodiscard]] bool use_grid() const {
    if (backend_ != ClearanceBackend::Auto) return backend_ == ClearanceBackend::Grid;
    return slots_.size() >= kGridAutoSlots;
  }

  drc::DesignRules rules_;
  DrcCheckOptions opts_;
  ClearanceBackend backend_ = ClearanceBackend::Auto;
  double max_width_ = 0.0;  ///< over declared widths; frozen by first insert
  std::vector<Slot> slots_;
  /// Per-slot mutation counter: bumped by insert()/remove(). Epoch
  /// comparisons drive every cache decision, so there is no validity flag
  /// to get stale on move.
  std::vector<std::uint64_t> slot_epoch_;

  // --- sweep cache (only touched inside sweep(), which is the barrier) ---
  mutable index::RangeTree2D cache_tree_;              ///< main tree
  mutable std::vector<SegRef> cache_segs_;             ///< main payload -> (slot, seg)
  mutable std::vector<std::uint64_t> cache_built_epoch_;  ///< per slot, at build
  mutable std::vector<Overlay> overlays_;
  // --- grid backend state (also only touched inside sweep()) ---
  mutable index::SegGrid grid_;  ///< payload packs (slot << 32) | segment
  mutable std::vector<std::vector<std::uint32_t>> grid_ids_;  ///< per slot: entry ids
  mutable std::vector<std::uint64_t> grid_built_epoch_;       ///< per slot, at build
  mutable std::vector<Violation> result_;              ///< last sweep's output
  /// Parallel to result_: (slot_a << 32) | slot_b of each violation.
  mutable std::vector<std::uint64_t> result_pairs_;
  mutable std::vector<std::uint64_t> result_epochs_;   ///< epochs it was valid at
};

}  // namespace lmr::layout
