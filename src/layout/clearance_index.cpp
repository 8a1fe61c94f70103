#include "layout/clearance_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contract.hpp"
#include "geom/distance.hpp"

namespace lmr::layout {

ClearanceIndex::ClearanceIndex(const drc::DesignRules& rules, DrcCheckOptions opts,
                               ClearanceBackend /*ignored*/)
    : rules_(rules), opts_(opts) {}

std::uint32_t ClearanceIndex::add_slot(double width, std::uint32_t net) {
  LMR_REQUIRE(std::isfinite(width) && width >= 0.0,
              "slot width sizes the grid cells and query windows");
  Slot s;
  s.net = net;
  s.width = width;
  max_width_ = std::max(max_width_, width);
  slots_.push_back(std::move(s));
  slot_epoch_.push_back(1);
  LMR_ASSERT(slot_epoch_.size() == slots_.size(),
             "slot/epoch vectors march in lockstep");
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ClearanceIndex::insert(std::uint32_t slot, const Trace& trace) {
  LMR_REQUIRE(slot < slots_.size(), "insert() into an undeclared slot");
  slots_[slot].trace = &trace;
  ++slot_epoch_[slot];
}

void ClearanceIndex::remove(std::uint32_t slot) {
  LMR_REQUIRE(slot < slots_.size(), "remove() of an undeclared slot");
  slots_[slot].trace = nullptr;
  ++slot_epoch_[slot];
}

void ClearanceIndex::refresh_grid() const {
  if (grid_built_epoch_.empty()) {
    // First grid build: size cells to the worst-case interaction reach, so a
    // query window (segment bbox + gap_max) spans O(1) cells for segments of
    // typical (pattern-scale) length.
    const double cell = std::max(rules_.effective_gap() + max_width_, rules_.protect);
    grid_.reset(cell);
  }
  if (grid_built_epoch_.size() != slots_.size()) {
    grid_built_epoch_.resize(slots_.size(), 0);  // epoch 0 = never built
    grid_ids_.resize(slots_.size());
  }
  for (std::uint32_t t = 0; t < slots_.size(); ++t) {
    if (slot_epoch_[t] == grid_built_epoch_[t]) continue;
    for (const std::uint32_t id : grid_ids_[t]) grid_.remove(id);
    grid_ids_[t].clear();
    const Slot& s = slots_[t];
    if (s.trace != nullptr) {
      const geom::Polyline& path = s.trace->path;
      grid_ids_[t].reserve(path.segment_count());
      for (std::uint32_t seg_idx = 0; seg_idx < path.segment_count(); ++seg_idx) {
        const std::uint64_t payload = (static_cast<std::uint64_t>(t) << 32) | seg_idx;
        grid_ids_[t].push_back(grid_.insert(path.segment(seg_idx), payload));
      }
    }
    grid_built_epoch_[t] = slot_epoch_[t];
  }
  LMR_ASSERT(std::equal(grid_built_epoch_.begin(), grid_built_epoch_.end(),
                        slot_epoch_.begin(), slot_epoch_.end()),
             "grid store agrees with every slot epoch after refresh");
}

std::vector<Violation> ClearanceIndex::sweep() const {
  // A cached result is only comparable to the live epochs when it was taken
  // over the same slot universe (slots are never undeclared, so a shorter
  // result_epochs_ just means new slots arrived since).
  LMR_ASSERT(result_epochs_.empty() || result_epochs_.size() <= slot_epoch_.size(),
             "result epochs never outnumber declared slots");
  LMR_ASSERT(result_pairs_.size() == result_.size() &&
                 std::is_sorted(result_pairs_.begin(), result_pairs_.end()),
             "cached pair keys are parallel to the violations and non-decreasing");
  // Nothing changed since the last sweep: the cached violations are exact.
  if (slot_epoch_ == result_epochs_) return result_;

  std::size_t inserted = 0;
  for (const Slot& s : slots_) inserted += s.trace != nullptr ? 1 : 0;
  if (inserted < 2) {
    result_.clear();
    result_pairs_.clear();
    result_epochs_ = slot_epoch_;
    return result_;
  }

  refresh_grid();

  // A slot is dirty when it changed since the cached result or was declared
  // after it. Only dirty slots re-query; every cached violation between two
  // clean slots is kept (their geometry, and so the exact check, is
  // unchanged).
  const std::size_t n = slots_.size();
  std::vector<char> dirty(n, 1);
  for (std::uint32_t t = 0; t < result_epochs_.size(); ++t) {
    dirty[t] = slot_epoch_[t] != result_epochs_[t] ? 1 : 0;
  }
  std::vector<Violation> kept;
  std::vector<std::uint64_t> kept_pairs;
  for (std::size_t i = 0; i < result_.size(); ++i) {
    const std::uint64_t key = result_pairs_[i];
    if (dirty[key >> 32] == 0 && dirty[key & 0xffffffffu] == 0) {
      kept.push_back(std::move(result_[i]));
      kept_pairs.push_back(key);
    }
  }
  LMR_ASSERT(std::all_of(kept_pairs.begin(), kept_pairs.end(),
                         [&](std::uint64_t key) {
                           const auto a = static_cast<std::uint32_t>(key >> 32);
                           const auto b = static_cast<std::uint32_t>(key);
                           return a < b && dirty[a] == 0 && dirty[b] == 0 &&
                                  slots_[a].trace != nullptr &&
                                  slots_[b].trace != nullptr;
                         }),
             "every kept violation joins two clean, inserted slots");

  const double gap_max = rules_.gap + max_width_;

  // Collect candidate pairs, keyed (lower slot, higher slot, its segment,
  // the other segment).
  struct Candidate {
    std::uint32_t slot_a, slot_b, seg_a, seg_b;
    bool operator<(const Candidate& o) const {
      if (slot_a != o.slot_a) return slot_a < o.slot_a;
      if (slot_b != o.slot_b) return slot_b < o.slot_b;
      if (seg_a != o.seg_a) return seg_a < o.seg_a;
      return seg_b < o.seg_b;
    }
    bool operator==(const Candidate& o) const {
      return slot_a == o.slot_a && slot_b == o.slot_b && seg_a == o.seg_a &&
             seg_b == o.seg_b;
    }
  };
  std::vector<Candidate> candidates;
  // The grid stores whole segments: if two segments are closer than gap
  // (<= gap_max), the other segment itself has a point inside this one's
  // bbox inflated by gap_max.
  //
  // Only dirty slots query. Dirty slot t owns its pairs with every higher
  // slot and with every clean lower slot (a dirty lower slot found the
  // pair from its own side). While every slot below t is dirty, the
  // payload floor prunes the lower slots wholesale; otherwise t takes
  // every hit and filters — with all slots dirty this is the full sweep.
  const double inflate = gap_max + opts_.tolerance + 1e-9;
  bool all_dirty_below = true;
  for (std::uint32_t t = 0; t < n; ++t) {
    if (dirty[t] == 0) {
      all_dirty_below = false;
      continue;
    }
    const Slot& s = slots_[t];
    if (s.trace == nullptr) continue;
    const geom::Polyline& path = s.trace->path;
    const std::uint64_t floor =
        all_dirty_below ? (static_cast<std::uint64_t>(t) + 1) << 32 : 0;
    for (std::uint32_t seg_idx = 0; seg_idx < path.segment_count(); ++seg_idx) {
      const geom::Box window = path.segment(seg_idx).bbox().inflated(inflate);
      grid_.visit_above(window, floor, [&](const index::SegGrid::Entry& e) {
        const auto u = static_cast<std::uint32_t>(e.payload >> 32);
        const auto seg_u = static_cast<std::uint32_t>(e.payload & 0xffffffffu);
        if (u == t || (u < t && dirty[u] != 0)) return true;
        if (slots_[u].net == s.net) return true;
        candidates.push_back(u > t ? Candidate{t, u, seg_idx, seg_u}
                                   : Candidate{u, t, seg_u, seg_idx});
        return true;
      });
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  // Exact checks in the naive loop's order (candidates are sorted by
  // (slot_a, slot_b, seg_a, seg_b), which is that order), merged with the
  // kept violations by slot pair. The two sets never share a pair (every
  // fresh pair touches a dirty slot), so the merge keeps that order.
  std::vector<Violation> out;
  std::vector<std::uint64_t> out_pairs;
  std::size_t k = 0;
  const auto emit_kept_below = [&](std::uint64_t key) {
    for (; k < kept.size() && kept_pairs[k] < key; ++k) {
      out.push_back(std::move(kept[k]));
      out_pairs.push_back(kept_pairs[k]);
    }
  };
  for (const Candidate& c : candidates) {
    const Trace& a = *slots_[c.slot_a].trace;
    const Trace& b = *slots_[c.slot_b].trace;
    const double gap = rules_.gap + (a.width + b.width) / 2.0;
    const double d =
        geom::dist_segment_segment(a.path.segment(c.seg_a), b.path.segment(c.seg_b));
    if (d + opts_.tolerance < gap) {
      const std::uint64_t key = (static_cast<std::uint64_t>(c.slot_a) << 32) | c.slot_b;
      emit_kept_below(key);
      out.push_back({ViolationKind::TraceGap, a.id, b.id, c.seg_a, c.seg_b, d, gap,
                     "segments of different traces closer than gap"});
      out_pairs.push_back(key);
    }
  }
  emit_kept_below(std::numeric_limits<std::uint64_t>::max());  // no pair keys this high
  result_ = std::move(out);
  result_pairs_ = std::move(out_pairs);
  result_epochs_ = slot_epoch_;
  LMR_ASSERT(result_pairs_.size() == result_.size() &&
                 std::is_sorted(result_pairs_.begin(), result_pairs_.end()),
             "merged pair keys stay parallel and non-decreasing");
  LMR_ASSERT(result_epochs_ == slot_epoch_, "the result is current after a sweep");
  return result_;
}

}  // namespace lmr::layout
