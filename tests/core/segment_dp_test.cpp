#include "core/segment_dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

namespace lmr::core {
namespace {

DpParams base_params(int n) {
  DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  return p;
}

HeightFn flat(double h) {
  return [h](int, int, int, double req) { return std::min(h, req); };
}

/// Check the spacing legality of a restored chain against the DP rules.
void expect_chain_legal(const std::vector<Pattern>& chain, const DpParams& p) {
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const Pattern& c = chain[k];
    EXPECT_LT(c.foot_lo, c.foot_hi);
    EXPECT_GE(c.foot_lo, 0);
    EXPECT_LE(c.foot_hi, p.n - 1);
    EXPECT_GE(c.height, p.min_height - 1e-12);
    // Width >= max(gap, protect).
    EXPECT_GE(c.width_steps(), std::max(p.gap_steps, p.protect_steps));
    // Feet vs segment nodes (protect or node-connect).
    EXPECT_TRUE(c.foot_lo == 0 || c.foot_lo >= p.protect_steps);
    EXPECT_TRUE(c.foot_hi == p.n - 1 || (p.n - 1 - c.foot_hi) >= p.protect_steps);
    if (k > 0) {
      const Pattern& prev = chain[k - 1];
      const int spacing = c.foot_lo - prev.foot_hi;
      EXPECT_GE(spacing, 0);
      if (prev.dir == c.dir) {
        EXPECT_GE(spacing, p.gap_steps);
      } else {
        EXPECT_TRUE(spacing == 0 || spacing >= p.protect_steps)
            << "opposite-direction spacing " << spacing;
      }
    }
  }
}

TEST(SegmentDp, EmptySegmentNoGain) {
  const DpResult r = run_segment_dp(base_params(1), flat(5.0));
  EXPECT_DOUBLE_EQ(r.gain, 0.0);
  EXPECT_TRUE(r.patterns.empty());
}

TEST(SegmentDp, BlockedEverywhereNoGain) {
  const DpResult r = run_segment_dp(base_params(20), flat(0.0));
  EXPECT_DOUBLE_EQ(r.gain, 0.0);
}

TEST(SegmentDp, SinglePatternWhenOnlyRoomForOne) {
  // n = 5 with gap 2, protect 1: one pattern of width >= 2 fits.
  const DpResult r = run_segment_dp(base_params(5), flat(4.0));
  EXPECT_GT(r.gain, 0.0);
  expect_chain_legal(r.patterns, base_params(5));
}

TEST(SegmentDp, FillsLongSegment) {
  const DpParams p = base_params(41);
  const DpResult r = run_segment_dp(p, flat(5.0));
  EXPECT_GT(r.patterns.size(), 3u);
  expect_chain_legal(r.patterns, p);
  double total = 0.0;
  for (const Pattern& pat : r.patterns) total += 2.0 * pat.height;
  EXPECT_NEAR(total, r.gain, 1e-9);
}

TEST(SegmentDp, GainBoundedByNeed) {
  DpParams p = base_params(41);
  p.needed_gain = 7.0;
  const DpResult r = run_segment_dp(p, flat(10.0));
  // The DP caps pattern heights at the remaining requirement; small
  // overshoot from min-height quantization is allowed.
  EXPECT_LE(r.gain, 7.0 + 2.0 * p.min_height);
  EXPECT_GE(r.gain, 7.0 - 1e-9);
}

TEST(SegmentDp, RespectsProtectAtRightNode) {
  DpParams p = base_params(10);
  p.protect_steps = 3;
  const DpResult r = run_segment_dp(p, flat(4.0));
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, HeightVariationPrefersTallSpot) {
  // Height 1.0 everywhere except a tall window [10, 15] where 6.0 fits:
  // the best chain must exploit the window.
  DpParams p = base_params(21);
  const HeightFn h = [](int j, int i, int, double req) {
    const bool tall = j >= 10 && i <= 15;
    return std::min(req, tall ? 6.0 : 1.0);
  };
  const DpResult r = run_segment_dp(p, h);
  bool uses_window = false;
  for (const Pattern& pat : r.patterns) {
    if (pat.foot_lo >= 10 && pat.foot_hi <= 15 && pat.height > 5.0) uses_window = true;
  }
  EXPECT_TRUE(uses_window);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, OppositeDirectionsUsedWhenOneSideBlocked) {
  // +1 side blocked on the left half, -1 side blocked on the right half.
  DpParams p = base_params(31);
  const HeightFn h = [](int j, int i, int dir, double req) {
    const bool left = i <= 15;
    if (left && dir > 0) return 0.0;
    if (!left && dir < 0 && j >= 15) return 0.0;
    return std::min(req, 3.0);
  };
  const DpResult r = run_segment_dp(p, h);
  bool has_up = false, has_down = false;
  for (const Pattern& pat : r.patterns) {
    (pat.dir > 0 ? has_up : has_down) = true;
  }
  EXPECT_TRUE(has_up);
  EXPECT_TRUE(has_down);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, ConnectedPatternsWhenProtectTooTight) {
  // protect_steps so large that separated opposite patterns cannot fit, but
  // connected ones can (shared foot, spacing 0).
  DpParams p = base_params(13);
  p.gap_steps = 4;
  p.protect_steps = 4;
  // Only opposite-direction patterns of width 4 starting at 0/4/8 fit in 13
  // points (0..12) if connected: feet (0,4),(4,8),(8,12).
  const DpResult r = run_segment_dp(p, flat(3.0));
  expect_chain_legal(r.patterns, p);
  EXPECT_GE(r.patterns.size(), 2u);
  bool any_connected = false;
  for (std::size_t k = 1; k < r.patterns.size(); ++k) {
    if (r.patterns[k].foot_lo == r.patterns[k - 1].foot_hi) any_connected = true;
  }
  EXPECT_TRUE(any_connected);
}

TEST(SegmentDp, WidthCapHonored) {
  DpParams p = base_params(41);
  p.max_width_steps = 3;
  const DpResult r = run_segment_dp(p, flat(5.0));
  for (const Pattern& pat : r.patterns) EXPECT_LE(pat.width_steps(), 3);
}

TEST(SegmentDp, CombinesTallWindowWithConnectedFlanks) {
  // A wide tall window (gain 13) flanked by narrow up-side windows (gain 4
  // each). Greedy same-side packing reaches 12; the optimum takes the tall
  // pattern on the *opposite* side, connecting to a narrow pattern at each
  // shared foot (Fig. 3c / Fig. 5 behaviour): 4 + 13 + 4 = 21.
  DpParams p = base_params(13);
  p.gap_steps = 2;
  p.protect_steps = 2;
  const HeightFn h = [](int j, int i, int dir, double req) {
    if (j == 2 && i == 10) return std::min(req, 6.5);          // tall wide pattern
    if (i - j <= 3 && dir > 0) return std::min(req, 2.0);      // narrow fallbacks
    return 0.0;
  };
  const DpResult r = run_segment_dp(p, h);
  EXPECT_NEAR(r.gain, 21.0, 1e-9);
  ASSERT_EQ(r.patterns.size(), 3u);
  EXPECT_EQ(r.patterns[1].foot_lo, 2);
  EXPECT_EQ(r.patterns[1].foot_hi, 10);
  EXPECT_EQ(r.patterns[0].foot_hi, r.patterns[1].foot_lo);  // connected
  EXPECT_EQ(r.patterns[2].foot_lo, r.patterns[1].foot_hi);  // connected
  EXPECT_NE(r.patterns[0].dir, r.patterns[1].dir);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, MiteredGainAccounting) {
  DpParams p = base_params(9);
  p.style = PatternStyle::Mitered;
  p.miter = 0.4;
  const DpResult r = run_segment_dp(p, flat(3.0));
  ASSERT_FALSE(r.patterns.empty());
  double total = 0.0;
  for (const Pattern& pat : r.patterns) {
    total += pattern_gain(pat.height, PatternStyle::Mitered, 0.4);
  }
  EXPECT_NEAR(total, r.gain, 1e-9);
}

TEST(SegmentDp, DeterministicAcrossRuns) {
  const DpParams p = base_params(31);
  const DpResult a = run_segment_dp(p, flat(4.0));
  const DpResult b = run_segment_dp(p, flat(4.0));
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_DOUBLE_EQ(a.gain, b.gain);
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].foot_lo, b.patterns[i].foot_lo);
    EXPECT_EQ(a.patterns[i].dir, b.patterns[i].dir);
  }
}

// ---------------------------------------------------------------------------
// Naive reference: the DP with the plain width loop, which re-chooses the
// Eq. 8 predecessor and the height request for every (i, d, w) and skips the
// unusable transitions one by one. run_segment_dp only visits the left feet
// that can take a pattern; every result and every height call must match.

namespace naive {

constexpr double kTieEps = 1e-12;

struct Transit {
  int pi = -1;
  int pdir = 0;
  int w = 0;
  double h = 0.0;
  bool connected = false;
};

struct State {
  double gain = 0.0;
  bool through_pattern = false;
  Transit tr;
};

int dir_of(int d) { return d == 0 ? 1 : -1; }

DpResult run(const DpParams& params, const HeightFn& height) {
  DpResult result;
  const int n = params.n;
  if (n < 2) return result;
  const int g = std::max(1, params.gap_steps);
  const int p = std::max(1, params.protect_steps);
  std::vector<std::array<State, 2>> dp(static_cast<std::size_t>(n));
  const auto right_node_ok = [&](int i) { return i == n - 1 || (n - 1 - i) >= p; };
  const auto left_node_ok = [&](int j) { return j == 0 || j >= p; };

  for (int i = 1; i < n; ++i) {
    for (int d = 0; d < 2; ++d) {
      State s = dp[i - 1][d];
      s.through_pattern = false;
      s.tr = Transit{i - 1, d, 0, 0.0, false};
      if (i - 1 == 0) s.tr.pi = -1;
      dp[i][d] = s;
    }
    if (!right_node_ok(i)) continue;
    const int min_w = std::max(g, p);
    const int max_w = params.max_width_steps > 0 ? std::min(params.max_width_steps, i) : i;
    for (int d = 0; d < 2; ++d) {
      const int od = 1 - d;
      for (int w = min_w; w <= max_w; ++w) {
        const int j = i - w;
        if (!left_node_ok(j)) continue;
        double best_pred = -1.0;
        int best_pi = -1, best_pdir = d;
        bool best_connected = false;
        const auto consider = [&](double gain, int pi, int pdir, bool connected) {
          if (gain > best_pred + kTieEps ||
              (gain > best_pred - kTieEps && connected && !best_connected)) {
            best_pred = gain;
            best_pi = pi;
            best_pdir = pdir;
            best_connected = connected;
          }
        };
        if (j - g >= 0) consider(dp[j - g][d].gain, j - g, d, false);
        if (j - p >= 0) consider(dp[j - p][od].gain, j - p, od, false);
        if (dp[j][od].through_pattern) consider(dp[j][od].gain, j, od, true);
        if (j == 0) consider(0.0, -1, d, false);
        if (best_pred < 0.0) continue;
        double h_request = height_for_gain(std::max(0.0, params.needed_gain - best_pred),
                                           params.style, params.miter);
        if (h_request < params.min_height) {
          if (params.needed_gain - best_pred <= 0.0) continue;
          h_request = params.min_height;
        }
        const double h = height(j, i, dir_of(d), h_request);
        if (h < params.min_height) continue;
        const double gain = pattern_gain(h, params.style, params.miter);
        if (gain <= 0.0) continue;
        const double total = best_pred + gain;
        State& cur = dp[i][d];
        const bool better = total > cur.gain + kTieEps;
        const bool tie_preferred = total > cur.gain - kTieEps && !cur.through_pattern;
        if (better || tie_preferred) {
          cur.gain = total;
          cur.through_pattern = true;
          cur.tr = Transit{best_pi, best_pdir, w, h, best_connected};
        }
      }
    }
  }

  const int best_d = dp[n - 1][0].gain >= dp[n - 1][1].gain ? 0 : 1;
  result.gain = dp[n - 1][best_d].gain;
  if (result.gain <= 0.0) return result;
  int i = n - 1, d = best_d;
  while (i > 0) {
    const Transit& tr = dp[i][d].tr;
    if (tr.w > 0) result.patterns.push_back(Pattern{i - tr.w, i, tr.h, dir_of(d)});
    if (tr.pi < 0) break;
    i = tr.pi;
    d = tr.pdir;
  }
  std::reverse(result.patterns.begin(), result.patterns.end());
  return result;
}

}  // namespace naive

/// Deterministic hash of a height query, so both DPs see the same callback.
std::uint64_t mix(std::uint64_t seed, int j, int i, int dir) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ull) ^
                    (static_cast<std::uint64_t>(i) << 21) ^
                    (static_cast<std::uint64_t>(dir + 1) << 42);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

double unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

/// The callback families the reference comparison draws from.
HeightFn random_height_fn(int kind, std::uint64_t seed, double min_h) {
  switch (kind) {
    case 0:  // grant every request
      return [](int, int, int, double req) { return req; };
    case 1:  // cap at a per-run ceiling
      return [cap = min_h * (1.0 + 4.0 * unit(seed))](int, int, int, double req) {
        return std::min(req, cap);
      };
    case 2:  // blocked at random (j, i, dir), capped elsewhere
      return [seed, min_h](int j, int i, int dir, double req) {
        const std::uint64_t x = mix(seed, j, i, dir);
        if (x % 3 == 0) return 0.0;
        return std::min(req, min_h * (1.0 + 3.0 * unit(x)));
      };
    case 3:  // non-monotone in the request and the window
      return [seed, min_h](int j, int i, int dir, double req) {
        const double u = unit(mix(seed, j, i, dir));
        return u < 0.2 ? 0.0 : std::min(req * (0.5 + u), min_h * (0.5 + 6.0 * u));
      };
    default:  // few distinct heights: gains tie often, some within kTieEps
      return [seed, min_h](int j, int i, int dir, double req) {
        const std::uint64_t x = mix(seed, j, i, dir);
        const double level = min_h * static_cast<double>(1 + x % 3);
        return std::min(req, level + static_cast<double>((x >> 8) % 3) * 2e-13);
      };
  }
}

struct Call {
  int j, i, dir;
  double h_request;
  bool operator==(const Call& o) const {
    return std::tie(j, i, dir, h_request) == std::tie(o.j, o.i, o.dir, o.h_request);
  }
};

HeightFn recorded(const HeightFn& inner, std::vector<Call>& log) {
  return [&inner, &log](int j, int i, int dir, double req) {
    log.push_back({j, i, dir, req});
    return inner(j, i, dir, req);
  };
}

TEST(SegmentDp, MatchesNaiveWidthLoopBitForBit) {
  std::mt19937_64 rng(20240611);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto real = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  int compared_calls = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    DpParams p;
    p.n = pick(2, 200);
    p.step = 1.0;
    p.gap_steps = pick(1, 8);
    p.protect_steps = pick(1, 8);
    p.min_height = real(0.2, 2.0);
    p.max_width_steps = pick(0, 1) == 0 ? 0 : pick(1, p.n);
    p.style = pick(0, 1) == 0 ? PatternStyle::RightAngle : PatternStyle::Mitered;
    p.miter = p.style == PatternStyle::Mitered ? real(0.05, 1.0) : 0.0;
    const double one = pattern_gain(p.min_height, p.style, p.miter);
    switch (pick(0, 4)) {
      case 0: p.needed_gain = real(0.0, one); break;           // below one pattern
      case 1: p.needed_gain = one * pick(1, 6); break;          // exact multiples
      case 2: p.needed_gain = real(one, 40.0 * one); break;
      case 3: p.needed_gain = real(0.0, 4.0 * one * p.n); break;
      default: p.needed_gain = std::numeric_limits<double>::infinity(); break;
    }
    const HeightFn fn =
        random_height_fn(pick(0, 4), static_cast<std::uint64_t>(trial) * 7919u, p.min_height);

    std::vector<Call> want_calls, got_calls;
    const DpResult want = naive::run(p, recorded(fn, want_calls));
    const DpResult got = run_segment_dp(p, recorded(fn, got_calls));

    ASSERT_EQ(got.gain, want.gain) << "trial " << trial;  // bit-equal
    ASSERT_EQ(got.patterns.size(), want.patterns.size()) << "trial " << trial;
    for (std::size_t k = 0; k < want.patterns.size(); ++k) {
      EXPECT_EQ(got.patterns[k].foot_lo, want.patterns[k].foot_lo) << "trial " << trial;
      EXPECT_EQ(got.patterns[k].foot_hi, want.patterns[k].foot_hi) << "trial " << trial;
      EXPECT_EQ(got.patterns[k].height, want.patterns[k].height) << "trial " << trial;
      EXPECT_EQ(got.patterns[k].dir, want.patterns[k].dir) << "trial " << trial;
    }
    ASSERT_EQ(got_calls.size(), want_calls.size()) << "trial " << trial;
    ASSERT_TRUE(got_calls == want_calls) << "trial " << trial;
    compared_calls += static_cast<int>(want_calls.size());
  }
  EXPECT_GT(compared_calls, 100000);  // the comparison really exercised the callback
}

TEST(SegmentDp, PredecessorTieWithinEpsilonStillRequestsTheMinimum) {
  // dp[2][+1] = 4 and dp[2][-1] = 4 + 5e-13. At foot 4 on side +1, the gap
  // predecessor (gain 4) and the protect predecessor (4 + 5e-13) tie within
  // kTieEps, so Eq. 8 keeps the first one; with a need of 4 + 2.5e-13 the
  // remainder is positive and the minimum height is requested. Judging
  // saturation from the larger predecessor alone would skip this foot.
  DpParams p = base_params(12);
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 4.0 + 2.5e-13;
  const HeightFn fn = [](int j, int i, int dir, double) {
    if (j == 0 && i == 2) return dir > 0 ? 2.0 : 2.0 + 2.5e-13;
    return j >= 4 ? 1.5 : 0.0;
  };
  std::vector<Call> want_calls, got_calls;
  const DpResult want = naive::run(p, recorded(fn, want_calls));
  const DpResult got = run_segment_dp(p, recorded(fn, got_calls));
  EXPECT_EQ(got.gain, want.gain);
  EXPECT_DOUBLE_EQ(got.gain, 7.0);
  EXPECT_TRUE(got_calls == want_calls);
  EXPECT_TRUE(std::find(got_calls.begin(), got_calls.end(), Call{4, 6, 1, 1.0}) !=
              got_calls.end());
}

}  // namespace
}  // namespace lmr::core
