#pragma once
/// \file obstacle_index.hpp
/// Board obstacle index: the broadphase behind every obstacle-clearance
/// check (per-net DRC, the skew-compensation oracle, full-layout checks).
///
/// A flat uniform bucket grid over the obstacles' bounding boxes. Each
/// obstacle's bbox is computed once at build time (Polygon::bbox() is O(v))
/// and the obstacle is registered in every cell that bbox covers, so an
/// obstacle of any size — including one that wholly contains a trace — is
/// found by any query box that meets its bbox. The cell size follows from
/// the obstacles' extent and count (about one obstacle per cell); it is not
/// a tuning knob.
///
/// Guarantees:
///  - `query` returns exactly the obstacles whose bbox meets the box, each
///    once, in ascending original index. Obstacle violations record that
///    index, so checking the candidates reports byte-identical violations —
///    values and order — to scanning the full list.
///  - `query` is const and keeps no scratch state (no dedupe stamps), so
///    any number of threads may query one index at once.
///  - Obstacles with an empty bbox (no vertices) are never returned; no
///    clearance check can reach them.
///
/// The index borrows the obstacle list: it must outlive the index and must
/// not change while the index is in use. Routers build one per call, under
/// the layout's routing freeze.

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.hpp"
#include "layout/layout.hpp"

namespace lmr::layout {

/// Original-index-preserving reference to one layout obstacle. Obstacle
/// violations record the obstacle's position in the board's obstacle list
/// (`Violation::index_b`), so any filtered view must carry the original
/// index along — a subset checked through refs reports byte-identical
/// violations to checking the full list.
struct ObstacleRef {
  const Obstacle* obstacle = nullptr;
  std::uint32_t index = 0;  ///< position in the layout's obstacle list
};

class ObstacleIndex {
 public:
  explicit ObstacleIndex(std::span<const Obstacle> obstacles);

  /// Cached `obstacles[i].shape.bbox()`.
  [[nodiscard]] const geom::Box& bbox(std::uint32_t i) const;

  /// Every obstacle whose bbox meets `box`, in ascending original index.
  /// Replaces the contents of `out`.
  void query(const geom::Box& box, std::vector<ObstacleRef>& out) const;

 private:
  [[nodiscard]] std::uint32_t col(double x) const;
  [[nodiscard]] std::uint32_t row(double y) const;

  std::span<const Obstacle> obstacles_;
  std::vector<geom::Box> bbox_;
  geom::Box extent_;  ///< union of the non-empty bboxes
  std::uint32_t nx_ = 1;
  std::uint32_t ny_ = 1;
  double inv_w_ = 1.0;  ///< cells per unit length along x
  double inv_h_ = 1.0;
  /// Row-major cells in CSR form: cell c holds `entries_[start_[c] ..
  /// start_[c + 1])`, obstacle indices in ascending order.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> entries_;
};

}  // namespace lmr::layout
