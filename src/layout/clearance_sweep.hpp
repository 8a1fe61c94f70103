#pragma once
/// \file clearance_sweep.hpp
/// Indexed cross-net clearance sweep.
///
/// The naive TraceGap check compares every segment of every trace against
/// every segment of every other trace — O(m² s²) for m traces of s segments,
/// the dominant DRC cost on large matching groups. This sweep drops every
/// segment into a uniform grid (index::SegGrid), each segment queries a
/// window inflated by the worst-case gap, and only the surviving candidate
/// pairs pay an exact distance check. (The paper uses a 2-D range tree over
/// sample points for the same broadphase, §IV-D.)
/// Output is the naive loop's violation set, deterministically ordered by
/// (trace index, other trace index, segment, other segment).
///
/// This is the one-shot convenience form of `layout::ClearanceIndex`
/// (clearance_index.hpp), which the staged routing pipeline uses directly
/// to overlap the indexing work with member extension.

#include <cstdint>
#include <vector>

#include "drc/rules.hpp"
#include "layout/drc_checker.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// One trace participating in the sweep. Traces with equal `net` are never
/// checked against each other (sub-traces of one differential member, or
/// one matching-group member's geometry).
struct SweepTrace {
  const Trace* trace = nullptr;
  std::uint32_t net = 0;
};

/// All TraceGap violations between traces of different nets — the same set
/// `DrcChecker::check_trace_pair` finds over every input pair i < j with
/// `net_i != net_j`, in that loop's order. Runs in O(S + k) for S total
/// segments of cell-comparable length (plus the candidates' sort) instead
/// of O(S²).
[[nodiscard]] std::vector<Violation> cross_clearance_sweep(
    const std::vector<SweepTrace>& traces, const drc::DesignRules& rules,
    const DrcCheckOptions& opts = {});

}  // namespace lmr::layout
