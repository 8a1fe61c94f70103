#pragma once
/// \file segment_dp.hpp
/// DP over pattern placements on one discretized segment (§IV).
///
/// State dp[i][dir] = best total gain using the first i+1 discrete points
/// with the last inserted pattern on side `dir`. Transitions (Fig. 3):
///   (a) same direction with feet >= d_gap apart     -> pred dp[j-g][dir]
///   (b) opposite direction with feet >= d_protect   -> pred dp[j-p][-dir]
///   (c) connect to the previous pattern (shared foot)-> pred dp[j][-dir],
///       valid only when that state was reached *through* a pattern (Fig. 4)
///   (d) connect to a node point of the segment      -> j == 0 (left node);
///       the right node case is Alg. 1 line 7 (i == n-1).
/// Feet must also respect d_protect against the segment nodes.
///
/// Tie-breaking keeps states that enable future connections (Figs. 4-5):
/// among equal gains, a state reached through a freshly inserted pattern is
/// preferred, and among equal-gain predecessors a connected transition wins.
///
/// Restoration (§IV-C) backtracks the transit records <i', dir', w'> plus
/// the stored height.
///
/// Live feet: everything a transition (i, dir, w) decides before the height
/// callback — the best predecessor among (a)-(d), and the height request
/// derived from it — depends only on the left foot j = i - w and reads only
/// dp[0..j], which is final once i > j. The DP therefore decides each foot
/// once, when the narrowest pattern can first reach it, and keeps only the
/// feet that can take a pattern: a foot with no valid predecessor, or whose
/// predecessor already meets `needed_gain`, is dropped, exactly as the width
/// loop would have skipped each of its transitions. The width loop visits
/// the kept feet in ascending width, so the callback sequence, the Figs. 4-5
/// tie-breaking and the result equal those of the plain loop bit for bit.
/// Once the requirement is met, every later foot is dropped and the loop
/// empties; an unbounded requirement keeps the O(n^2) (O(n * W) capped)
/// worst case. No monotone frontier is assumed: predecessor gains may dip
/// by less than the tie tolerance (the Fig. 4 tie preference), and Eq. 8
/// may keep a predecessor up to that tolerance below the larger one.

#include <functional>
#include <vector>

#include "core/pattern.hpp"

namespace lmr::core {

/// DP inputs.
struct DpParams {
  int n = 0;                 ///< number of discrete points (u_0 .. u_{n-1})
  double step = 0.0;         ///< l_disc
  int gap_steps = 1;         ///< effective_gap / step (ceil)
  int protect_steps = 1;     ///< d_protect / step (ceil)
  double min_height = 0.0;   ///< minimum leg height (= d_protect)
  double needed_gain = 0.0;  ///< remaining extension requirement (caps pattern heights)
  int max_width_steps = 0;   ///< 0 = unbounded width loop
  PatternStyle style = PatternStyle::RightAngle;
  double miter = 0.0;
};

/// Height callback: maximum valid height for a pattern with feet at discrete
/// points j < i on side dir (+1/-1), shrunk from `h_request`.
using HeightFn = std::function<double(int j, int i, int dir, double h_request)>;

/// DP output.
struct DpResult {
  double gain = 0.0;              ///< dp[n-1][best dir]
  std::vector<Pattern> patterns;  ///< restored best chain, left to right
};

/// Run the DP; `params.n >= 2` required.
[[nodiscard]] DpResult run_segment_dp(const DpParams& params, const HeightFn& height);

}  // namespace lmr::core
