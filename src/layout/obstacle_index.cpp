#include "layout/obstacle_index.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"

namespace lmr::layout {

namespace {

/// Cell of coordinate `v` along one axis: floor((v - lo) * inv_step)
/// clamped to [0, count). Monotone in `v`, and build and query share it, so
/// an obstacle's registered cell range and a query's visited range agree
/// bit for bit.
std::uint32_t cell_of(double v, double lo, double inv_step, std::uint32_t count) {
  const double f = (v - lo) * inv_step;
  if (!(f > 0.0)) return 0;  // also catches NaN
  if (f >= static_cast<double>(count)) return count - 1;
  return static_cast<std::uint32_t>(f);  // truncation is floor for f > 0
}

}  // namespace

ObstacleIndex::ObstacleIndex(std::span<const Obstacle> obstacles) : obstacles_(obstacles) {
  bbox_.reserve(obstacles.size());
  std::size_t live = 0;
  for (const Obstacle& o : obstacles) {
    bbox_.push_back(o.shape.bbox());
    if (!bbox_.back().empty()) {
      extent_.expand(bbox_.back());
      ++live;
    }
  }

  // About one obstacle per cell, with cells shaped like the extent: nx / ny
  // tracks width / height and nx * ny tracks the live count. A degenerate
  // axis gets a single row or column.
  if (live > 0) {
    const double n = static_cast<double>(live);
    const double w = extent_.width();
    const double h = extent_.height();
    const auto axis = [&](double along, double across) {
      if (along <= 0.0) return 1.0;
      if (across <= 0.0) return n;
      return std::clamp(std::round(std::sqrt(n * along / across)), 1.0, n);
    };
    nx_ = static_cast<std::uint32_t>(axis(w, h));
    ny_ = static_cast<std::uint32_t>(axis(h, w));
    if (w > 0.0) inv_w_ = nx_ / w;
    if (h > 0.0) inv_h_ = ny_ / h;
  }

  // CSR fill in two passes; visiting obstacles in index order keeps every
  // cell's list ascending.
  const std::size_t cells = std::size_t{nx_} * ny_;
  start_.assign(cells + 1, 0);
  const auto each_cell = [&](const geom::Box& b, auto&& fn) {
    const std::uint32_t x0 = col(b.lo.x), x1 = col(b.hi.x);
    const std::uint32_t y0 = row(b.lo.y), y1 = row(b.hi.y);
    for (std::uint32_t y = y0; y <= y1; ++y) {
      for (std::uint32_t x = x0; x <= x1; ++x) fn(std::size_t{y} * nx_ + x);
    }
  };
  for (const geom::Box& b : bbox_) {
    if (!b.empty()) each_cell(b, [&](std::size_t c) { ++start_[c + 1]; });
  }
  for (std::size_t c = 0; c < cells; ++c) start_[c + 1] += start_[c];
  entries_.resize(start_[cells]);
  std::vector<std::uint32_t> fill(start_.begin(), start_.end() - 1);
  for (std::uint32_t i = 0; i < bbox_.size(); ++i) {
    if (!bbox_[i].empty()) each_cell(bbox_[i], [&](std::size_t c) { entries_[fill[c]++] = i; });
  }
  LMR_ASSERT(std::equal(fill.begin(), fill.end(), start_.begin() + 1),
             "every cell filled to its counted size");
}

const geom::Box& ObstacleIndex::bbox(std::uint32_t i) const {
  LMR_REQUIRE(i < bbox_.size(), "obstacle index out of range");
  return bbox_[i];
}

std::uint32_t ObstacleIndex::col(double x) const {
  return cell_of(x, extent_.lo.x, inv_w_, nx_);
}

std::uint32_t ObstacleIndex::row(double y) const {
  return cell_of(y, extent_.lo.y, inv_h_, ny_);
}

void ObstacleIndex::query(const geom::Box& box, std::vector<ObstacleRef>& out) const {
  out.clear();
  if (!box.intersects(extent_)) return;  // also: empty box or no live obstacles
  const std::uint32_t x0 = col(box.lo.x), x1 = col(box.hi.x);
  const std::uint32_t y0 = row(box.lo.y), y1 = row(box.hi.y);
  for (std::uint32_t y = y0; y <= y1; ++y) {
    for (std::uint32_t x = x0; x <= x1; ++x) {
      const std::size_t c = std::size_t{y} * nx_ + x;
      for (std::uint32_t k = start_[c]; k < start_[c + 1]; ++k) {
        const std::uint32_t i = entries_[k];
        const geom::Box& b = bbox_[i];
        if (!b.intersects(box)) continue;
        // An obstacle spanning several visited cells is reported only from
        // the first of them (its lowest visited column and row), which
        // dedupes without per-query scratch state.
        if (std::max(col(b.lo.x), x0) != x || std::max(row(b.lo.y), y0) != y) continue;
        out.push_back({&obstacles_[i], i});
      }
    }
  }
  if (x0 != x1 || y0 != y1) {
    std::sort(out.begin(), out.end(),
              [](const ObstacleRef& a, const ObstacleRef& b) { return a.index < b.index; });
  }
}

}  // namespace lmr::layout
