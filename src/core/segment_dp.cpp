#include "core/segment_dp.hpp"

#include <algorithm>
#include <array>

namespace lmr::core {

namespace {

constexpr double kTieEps = 1e-12;

/// Transit record (Eq. 14): predecessor state plus the inserted pattern.
struct Transit {
  int pi = -1;        ///< predecessor point index (-1 = initial state)
  int pdir = 0;       ///< predecessor dir (index 0/1)
  int w = 0;          ///< inserted pattern width in steps (0 = copy)
  double h = 0.0;     ///< inserted pattern height
  bool connected = false;  ///< transition (c): shared-foot connection
};

struct State {
  double gain = 0.0;
  bool through_pattern = false;  ///< reached via a fresh insertion (Fig. 4)
  Transit tr;
};

/// A left foot j on one side with its Eq. 8 predecessor and height request.
struct Foot {
  int j = 0;
  int pi = -1;             ///< predecessor point index (-1 = initial state)
  int pdir = 0;            ///< predecessor dir (index 0/1)
  bool connected = false;  ///< predecessor via transition (c)
  double pred = -1.0;      ///< predecessor gain (-1 = no valid predecessor)
  double h_request = 0.0;
};

int dir_of(int d) { return d == 0 ? 1 : -1; }

}  // namespace

DpResult run_segment_dp(const DpParams& params, const HeightFn& height) {
  DpResult result;
  const int n = params.n;
  if (n < 2) return result;
  const int g = std::max(1, params.gap_steps);
  const int p = std::max(1, params.protect_steps);

  // dp[i][d]; d = 0 is dir +1, d = 1 is dir -1.
  std::vector<std::array<State, 2>> dp(static_cast<std::size_t>(n));
  for (int d = 0; d < 2; ++d) {
    dp[0][d].gain = 0.0;  // Eq. 5
    dp[0][d].tr = Transit{};
  }

  const auto right_node_ok = [&](int i) {
    // Alg. 1 line 7: the right foot must be the node or >= d_protect from it.
    return i == n - 1 || (n - 1 - i) >= p;
  };
  const auto left_node_ok = [&](int j) { return j == 0 || j >= p; };

  // Pattern legs are same-side parallel runs, so the hat width must meet
  // the gap rule; the hat is itself a segment, so it must also meet
  // d_protect. Hence the minimum width below.
  const int min_w = std::max(g, p);

  // Admit left foot j on side d: choose its best valid predecessor (Eq. 8)
  // and its height request. Both read only dp[0..j], so they are final once
  // i > j and are shared by every right foot i. A foot that cannot take a
  // pattern (no predecessor, or the requirement already met) is dropped.
  std::array<std::vector<Foot>, 2> feet;
  for (auto& f : feet) f.reserve(static_cast<std::size_t>(n));
  const auto admit = [&](int j, int d) {
    const int od = 1 - d;
    Foot f;
    f.j = j;
    f.pdir = d;
    const auto consider = [&](double gain, int pi, int pdir, bool connected) {
      if (gain > f.pred + kTieEps ||
          (gain > f.pred - kTieEps && connected && !f.connected)) {
        f.pred = gain;
        f.pi = pi;
        f.pdir = pdir;
        f.connected = connected;
      }
    };
    if (j - g >= 0) consider(dp[j - g][d].gain, j - g, d, false);   // (a) p_gap
    if (j - p >= 0) consider(dp[j - p][od].gain, j - p, od, false); // (b) p_protect
    if (dp[j][od].through_pattern) consider(dp[j][od].gain, j, od, true);  // (c) p_local
    if (j == 0) consider(0.0, -1, d, false);  // (d) connect to left node
    if (f.pred < 0.0) return;

    // --- height request: remaining requirement after the predecessor ---
    f.h_request = height_for_gain(std::max(0.0, params.needed_gain - f.pred), params.style,
                                  params.miter);
    if (f.h_request < params.min_height) {
      if (params.needed_gain - f.pred <= 0.0) return;  // nothing needed
      f.h_request = params.min_height;  // small remainder: allow the minimum
    }
    feet[d].push_back(f);
  };

  for (int i = 1; i < n; ++i) {
    for (int d = 0; d < 2; ++d) {
      // Eq. 6: carry the previous best along the segment.
      State s = dp[i - 1][d];
      s.through_pattern = false;
      s.tr = Transit{i - 1, d, 0, 0.0, false};
      // Preserve initial-state semantics: no transit chain from point 0.
      if (i - 1 == 0) s.tr.pi = -1;
      dp[i][d] = s;
    }
    // The narrowest pattern ending at i starts at i - min_w, which from now
    // on is a final left foot.
    const int j_new = i - min_w;
    if (j_new >= 0 && left_node_ok(j_new)) {
      for (int d = 0; d < 2; ++d) admit(j_new, d);
    }
    if (!right_node_ok(i)) continue;

    const int j_min = params.max_width_steps > 0 ? i - params.max_width_steps : 0;
    for (int d = 0; d < 2; ++d) {
      // Widths ascending = left feet descending, as in the width loop of
      // Alg. 1; only the admitted feet can reach the height callback.
      for (auto it = feet[d].rbegin(); it != feet[d].rend() && it->j >= j_min; ++it) {
        const Foot& f = *it;
        const double h = height(f.j, i, dir_of(d), f.h_request);
        if (h < params.min_height) continue;
        const double gain = pattern_gain(h, params.style, params.miter);
        if (gain <= 0.0) continue;

        const double total = f.pred + gain;
        State& cur = dp[i][d];
        const bool better = total > cur.gain + kTieEps;
        const bool tie_preferred =
            total > cur.gain - kTieEps && !cur.through_pattern;  // Fig. 4 priority
        if (better || tie_preferred) {
          cur.gain = total;
          cur.through_pattern = true;
          cur.tr = Transit{f.pi, f.pdir, i - f.j, h, f.connected};
        }
      }
    }
  }

  // Pick the best final state (line 14 of Alg. 1).
  const int best_d = dp[n - 1][0].gain >= dp[n - 1][1].gain ? 0 : 1;
  result.gain = dp[n - 1][best_d].gain;
  if (result.gain <= 0.0) return result;

  // Restoration (§IV-C): walk the transit chain backwards.
  int i = n - 1, d = best_d;
  while (i > 0) {
    const Transit& tr = dp[i][d].tr;
    if (tr.w > 0) {
      result.patterns.push_back(Pattern{i - tr.w, i, tr.h, dir_of(d)});
      if (tr.pi < 0) break;
      i = tr.pi;
      d = tr.pdir;
    } else {
      if (tr.pi < 0) break;
      i = tr.pi;
      d = tr.pdir;
    }
  }
  std::reverse(result.patterns.begin(), result.patterns.end());
  return result;
}

}  // namespace lmr::core
