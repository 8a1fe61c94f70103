#pragma once
/// \file seg_grid.hpp
/// Uniform segment-collider grid: the broadphase behind
/// layout::ClearanceIndex and the scenario generator's placement-legality
/// scan.
///
/// A hash grid over square cells. Each entry is a segment plus a caller
/// payload; an entry is registered in every cell its bounding box (short or
/// thin spans) or a conservative walk along the segment (long diagonals) touches,
/// so a window query visits a *superset* of the entries that intersect the
/// window. Callers re-check candidates exactly — the grid only promises it
/// never misses an entry with a point inside the query box.
///
/// Guarantees:
///  - insert/remove are O(cells touched) — O(1) for segments comparable to
///    the cell size, which is how both clients size their cells.
///  - `visit` reports each entry at most once per query (stamp dedup).
///  - `visit_above` additionally skips whole cells whose max payload is below
///    the floor (per-cell metadata predicate); the max is left stale-high
///    after removals, which only costs visits, never correctness.
///
/// Queries mutate the internal dedup stamps, so a SegGrid must not be
/// queried from two threads at once. Both clients query behind a barrier
/// (ClearanceIndex::sweep; the single-threaded generator).

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/contract.hpp"
#include "geom/box.hpp"
#include "geom/segment.hpp"

namespace lmr::index {

class SegGrid {
 public:
  struct Entry {
    geom::Segment seg;
    std::uint64_t payload = 0;
  };

  SegGrid() = default;
  /// \param cell Cell edge length; clamped to a small positive minimum.
  explicit SegGrid(double cell) { reset(cell); }

  /// Drop all entries and re-size the cells.
  void reset(double cell);

  /// Insert a segment (degenerate segments model points). Returns an id for
  /// `remove`; ids are recycled after removal.
  std::uint32_t insert(const geom::Segment& seg, std::uint64_t payload);

  /// Remove a previously inserted entry by id.
  void remove(std::uint32_t id);

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] double cell() const { return cell_; }

  /// Visit every entry whose segment may intersect `box` (conservative
  /// superset; each entry at most once). `fn(const Entry&)` returns false to
  /// stop early.
  template <typename Fn>
  void visit(const geom::Box& box, Fn&& fn) const {
    visit_above(box, 0, static_cast<Fn&&>(fn));
  }

  /// `visit`, but skips entries with payload < `min_payload` and prunes
  /// whole cells via the per-cell payload maximum.
  template <typename Fn>
  void visit_above(const geom::Box& box, std::uint64_t min_payload, Fn&& fn) const {
    if (live_ == 0 || box.empty()) return;
    geom::Box window = box;
    // Clamp to the content extent so a huge window cannot spin over empty
    // cells; entries outside the extent cannot exist.
    window.lo.x = std::max(window.lo.x, extent_.lo.x - cell_);
    window.lo.y = std::max(window.lo.y, extent_.lo.y - cell_);
    window.hi.x = std::min(window.hi.x, extent_.hi.x + cell_);
    window.hi.y = std::min(window.hi.y, extent_.hi.y + cell_);
    if (window.lo.x > window.hi.x || window.lo.y > window.hi.y) return;
    // The per-query dedupe stamp must cover every record and be fresh: a
    // stamp equal to the new query id before we start would mean a previous
    // query's marks leak into this one (exactly the bug concurrent queries
    // would produce — see the class comment's single-querier contract).
    LMR_ASSERT(stamps_.size() == records_.size(),
               "dedupe stamps cover every record");
    const std::uint64_t q = ++query_;
    LMR_ASSERT(std::find(stamps_.begin(), stamps_.end(), q) == stamps_.end(),
               "fresh query id never collides with an existing stamp");
    const std::int64_t x0 = coord(window.lo.x);
    const std::int64_t x1 = coord(window.hi.x);
    const std::int64_t y0 = coord(window.lo.y);
    const std::int64_t y1 = coord(window.hi.y);
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        const auto it = cells_.find(key(cx, cy));
        if (it == cells_.end()) continue;
        const Cell& cell = it->second;
        if (cell.max_payload < min_payload) continue;
        for (const std::uint32_t id : cell.entries) {
          const Record& rec = records_[id];
          if (rec.entry.payload < min_payload) continue;
          if (stamps_[id] == q) continue;
          stamps_[id] = q;
          if (!fn(rec.entry)) return;
        }
      }
    }
  }

 private:
  struct Cell {
    std::vector<std::uint32_t> entries;
    std::uint64_t max_payload = 0;
  };
  struct Record {
    Entry entry;
    std::vector<std::uint64_t> cells;  ///< keys this entry is registered in
    bool live = false;
  };

  [[nodiscard]] std::int64_t coord(double v) const;
  [[nodiscard]] static std::uint64_t key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  void covered_cells(const geom::Segment& seg, std::vector<std::uint64_t>& out) const;

  double cell_ = 1.0;
  std::unordered_map<std::uint64_t, Cell> cells_;
  std::vector<Record> records_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  geom::Box extent_;  ///< union of all inserted segment bboxes (never shrinks)
  mutable std::vector<std::uint64_t> stamps_;
  mutable std::uint64_t query_ = 0;
  std::vector<std::uint64_t> scratch_cells_;
};

}  // namespace lmr::index
