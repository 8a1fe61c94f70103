#pragma once
/// \file range_tree.hpp
/// Static 2-D range tree: the paper's "segment tree [maintaining] points
/// whose abscissa rank is within intervals, [with] points in each tree node
/// sorted by ordinate" (§IV-D).
///
/// Each height solver builds one over its local node points to answer the
/// P_check query of Alg. 2 — all points with x in [xA, xC] and y in
/// [yD, yB] — in O(log^2 N + k); the clearance index reuses it as a
/// segment-sample broadphase. Space is O(N log N) as each point is stored
/// in O(log N) tree nodes.
///
/// Layout: the tree halves the x-sorted entries [lo, hi) at mid = (lo+hi)/2,
/// so the nodes at one depth L cover disjoint index ranges, and the y-sorted
/// list of node [lo, hi) is the slice [L*N + lo, L*N + hi) of one flat
/// level-major array. Leaves are written directly and every inner node is
/// the merge of its two children's slices, so the build is O(N log N) with
/// one allocation. The order of entries with equal y inside a node is
/// unspecified, and so is the visit order among them: callers must not
/// depend on it (the height solver counts and takes minimums, the clearance
/// index sorts its candidates).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "geom/vec2.hpp"

namespace lmr::index {

/// Immutable range tree over payload-tagged points.
class RangeTree2D {
 public:
  struct Entry {
    geom::Point p;
    std::uint32_t payload = 0;  ///< caller-defined id (polygon index, node index, ...)
  };

  RangeTree2D() = default;
  /// Build over a snapshot of entries. O(N log N).
  explicit RangeTree2D(std::vector<Entry> entries);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// All entries with p inside `box` (inclusive bounds).
  [[nodiscard]] std::vector<Entry> query(const geom::Box& box) const;

  /// Visit entries inside `box`; `fn(entry)` returning false stops the scan
  /// early (used when the caller only needs existence or a running minimum).
  template <typename Fn>
  void visit(const geom::Box& box, Fn&& fn) const {
    if (n_ == 0) return;
    visit_node(0, 0, n_, box, fn);
  }

 private:
  struct YEntry {
    double y;
    std::uint32_t idx;  ///< index into entries_
    bool operator<(const YEntry& o) const { return y < o.y; }
  };

  template <typename Fn>
  bool visit_node(std::size_t level, std::size_t lo, std::size_t hi, const geom::Box& box,
                  Fn&& fn) const {
    if (lo >= hi) return true;
    const double xmin = xs_[lo];
    const double xmax = xs_[hi - 1];
    if (xmin > box.hi.x || xmax < box.lo.x) return true;
    if (xmin >= box.lo.x && xmax <= box.hi.x) return scan_ys(level, lo, hi, box, fn);
    const std::size_t mid = (lo + hi) / 2;
    if (!visit_node(level + 1, lo, mid, box, fn)) return false;
    return visit_node(level + 1, mid, hi, box, fn);
  }

  template <typename Fn>
  bool scan_ys(std::size_t level, std::size_t lo, std::size_t hi, const geom::Box& box,
               Fn&& fn) const {
    const YEntry* row = ys_.data() + level * n_;
    const YEntry* end = row + hi;
    for (const YEntry* it = std::lower_bound(row + lo, end, YEntry{box.lo.y, 0});
         it != end && it->y <= box.hi.y; ++it) {
      if (!fn(entries_[it->idx])) return false;
    }
    return true;
  }

  void build(std::size_t level, std::size_t lo, std::size_t hi);

  std::size_t n_ = 0;
  std::vector<Entry> entries_;  ///< sorted by x
  std::vector<double> xs_;      ///< x of entries_ (sorted)
  std::vector<YEntry> ys_;      ///< levels x n_, level-major; node slices y-sorted
};

}  // namespace lmr::index
