#include "index/range_tree.hpp"

#include <algorithm>

namespace lmr::index {

RangeTree2D::RangeTree2D(std::vector<Entry> entries) : entries_(std::move(entries)) {
  n_ = entries_.size();
  if (n_ == 0) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.p.x < b.p.x; });
  xs_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) xs_[i] = entries_[i].p.x;
  // The widest node at depth L spans ceil(n / 2^L) entries; leaves stop
  // the halving.
  std::size_t levels = 1;
  for (std::size_t span = n_; span > 1; span = (span + 1) / 2) ++levels;
  ys_.resize(levels * n_);
  build(0, 0, n_);
}

void RangeTree2D::build(std::size_t level, std::size_t lo, std::size_t hi) {
  YEntry* row = ys_.data() + level * n_;
  if (hi - lo == 1) {
    row[lo] = {entries_[lo].p.y, static_cast<std::uint32_t>(lo)};
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  build(level + 1, lo, mid);
  build(level + 1, mid, hi);
  const YEntry* child = row + n_;
  std::merge(child + lo, child + mid, child + mid, child + hi, row + lo);
}

std::vector<RangeTree2D::Entry> RangeTree2D::query(const geom::Box& box) const {
  std::vector<Entry> out;
  visit(box, [&](const Entry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

}  // namespace lmr::index
