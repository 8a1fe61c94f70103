#include "core/height_solver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

namespace lmr::core {
namespace {

using geom::Point;
using geom::Polygon;

constexpr double kHalf = 0.5;

LocalPoly obstacle(Polygon p) {
  LocalPoly lp;
  lp.poly = std::move(p);
  lp.kind = EnvKind::Obstacle;
  return lp;
}

LocalPoly wall(Polygon p) {
  LocalPoly lp;
  lp.poly = std::move(p);
  lp.kind = EnvKind::AreaOutline;
  return lp;
}

// --- side-line scenes -------------------------------------------------------
// Feet at 2 and 8 put the URA side lines at x = 1.5 and x = 8.5. Each scene
// holds one polygon with a vertex, or a whole edge, on one side line, or
// 1e-10 / 1e-7 to either side of it: where the side-edge prefilter and the
// intersection tolerance meet.

constexpr double kSideX0 = 2.0;
constexpr double kSideX1 = 8.0;
constexpr double kSideRequest = 6.0;

std::vector<LocalPoly> side_line_scene(int index) {
  const int shape = index % 5;
  const EnvKind kind = (index / 5) % 2 == 0 ? EnvKind::Obstacle : EnvKind::SelfUra;
  constexpr std::array<double, 5> kOffsets{0.0, 1e-10, -1e-10, 1e-7, -1e-7};
  const double off = kOffsets[static_cast<std::size_t>((index / 10) % 5)];
  const bool left = index / 50 == 0;
  const double s = (left ? kSideX0 - kHalf : kSideX1 + kHalf) + off;
  const double in = left ? 1.0 : -1.0;  // direction into the URA
  std::vector<Point> pts;
  switch (shape) {
    case 0:  // outside, one edge collinear with the side line
      pts = {{s - 1.5 * in, 1.0}, {s, 1.0}, {s, 4.0}, {s - 1.5 * in, 4.0}};
      break;
    case 1:  // inside, one edge collinear with the side line
      pts = {{s, 2.5}, {s + in, 2.5}, {s + in, 3.5}, {s, 3.5}};
      break;
    case 2:  // outside diamond touching the line with one vertex
      pts = {{s, 3.0}, {s - 0.6 * in, 2.4}, {s - 1.2 * in, 3.0}, {s - 0.6 * in, 3.6}};
      break;
    case 3:  // inside diamond touching the line with one vertex
      pts = {{s, 3.0}, {s + 0.6 * in, 2.4}, {s + 1.2 * in, 3.0}, {s + 0.6 * in, 3.6}};
      break;
    default:  // slanted edge leaving the line from a vertex on it
      pts = {{s, 2.0}, {s - 2.0 * in, 6.0}, {s - 2.0 * in, 2.0}};
      break;
  }
  LocalPoly lp;
  lp.poly = Polygon{std::move(pts)};
  lp.kind = kind;
  return {lp};
}

constexpr int kSideScenes = 100;
// --- end side-line scenes ---------------------------------------------------

TEST(HeightSolver, FreeSpaceReturnsRequest) {
  HeightSolver s({}, kHalf);
  EXPECT_DOUBLE_EQ(s.max_height(2.0, 8.0, 5.0), 5.0);
}

TEST(HeightSolver, ZeroRequestOrDegenerateFeet) {
  HeightSolver s({}, kHalf);
  EXPECT_DOUBLE_EQ(s.max_height(2.0, 8.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.max_height(5.0, 5.0, 3.0), 0.0);
}

TEST(HeightSolver, BarrierAboveCapsViaSides) {
  // Wide solid barrier whose bottom edge crosses both URA sides at y = 3
  // (its corner nodes lie outside the border, so only Eq. 11 can cap it).
  HeightSolver s({obstacle(Polygon::rect({{-100, 3}, {100, 10}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  // hob capped at 3 -> h = 3 - half.
  EXPECT_NEAR(h, 3.0 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
  EXPECT_FALSE(s.valid_exhaustive(2.0, 8.0, h + 0.01));
}

TEST(HeightSolver, EnclosingAreaOutlineAccepted) {
  // The routable-area outline surrounds the pattern: valid, no capping from
  // the far walls.
  HeightSolver s({wall(Polygon::rect({{-5, -5}, {30, 20}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  EXPECT_DOUBLE_EQ(h, 5.0);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, AreaOutlineTopCaps) {
  // Outline top edge at y = 4 crosses the URA sides: pattern stays inside.
  HeightSolver s({wall(Polygon::rect({{-5, -5}, {30, 4}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 6.0);
  EXPECT_NEAR(h, 4.0 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
  EXPECT_FALSE(s.valid_exhaustive(2.0, 8.0, h + 0.01));
}

TEST(HeightSolver, ObstacleWithNodesInsideCapsViaHat) {
  // Small obstacle hanging into the URA from above: nodes at y=2 inside,
  // nodes at y=6 outside the initial outer border (hob_init = 5.5).
  HeightSolver s({obstacle(Polygon::rect({{4, 2}, {6, 6}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  EXPECT_NEAR(h, 2.0 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, EnclosableObstacleIsRoutedAround) {
  // Obstacle fully inside the inner border: pattern may wrap it.
  // Feet 2 and 8, half 0.5 -> inner x in [2.5, 7.5]; request 5 -> inner top 4.5.
  HeightSolver s({obstacle(Polygon::rect({{4, 1}, {6, 3}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  EXPECT_DOUBLE_EQ(h, 5.0);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, ObstacleInClearanceBandForcesLowPattern) {
  // Obstacle next to the left leg (x in [2.1, 2.6] intersects the band
  // [1.5, 2.5]): cannot be enclosed, pattern must stay below it.
  HeightSolver s({obstacle(Polygon::rect({{2.1, 2.0}, {2.6, 3.0}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  EXPECT_NEAR(h, 2.0 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, WallNeverEnclosable) {
  // Same geometry as the enclosable obstacle but marked as wall: the hat
  // must stay below it.
  HeightSolver s({wall(Polygon::rect({{4, 1}, {6, 3}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  EXPECT_NEAR(h, 1.0 - kHalf, 1e-9);
}

TEST(HeightSolver, SelfUraNeverEnclosable) {
  LocalPoly lp;
  lp.poly = Polygon::rect({{4, 1}, {6, 3}});
  lp.kind = EnvKind::SelfUra;
  HeightSolver s({lp}, kHalf);
  EXPECT_NEAR(s.max_height(2.0, 8.0, 5.0), 0.5, 1e-9);
}

TEST(HeightSolver, NarrowPatternCannotEnclose) {
  // Feet 2 and 3 (width 1 = 2*half): inner border empty -> obstacle inside
  // the outer border forces the hat below it even though it is small.
  HeightSolver s({obstacle(Polygon::rect({{2.2, 1.5}, {2.8, 2.0}}))}, kHalf);
  const double h = s.max_height(2.0, 3.0, 5.0);
  EXPECT_NEAR(h, 1.5 - kHalf, 1e-9);
}

TEST(HeightSolver, IterativeHatShrink) {
  // Two stacked obstacles: shrinking below the top one exposes the lower
  // one as partially inside (Fig. 7's iteration).
  HeightSolver s({obstacle(Polygon::rect({{4, 4}, {6, 9}})),
                  obstacle(Polygon::rect({{3, 2}, {4.5, 4.5}}))},
                 kHalf);
  const double h = s.max_height(2.0, 8.0, 8.0);
  EXPECT_NEAR(h, 2.0 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, InnerBorderIterationFig8) {
  // An obstacle fully inside the inner border at the initial request, plus
  // one in the clearance band higher up: shrinking for the second drags the
  // inner border down past the first, which must then also be cleared.
  HeightSolver s({obstacle(Polygon::rect({{4.0, 3.2}, {6.0, 3.8}})),   // encloseable at h=5
                  obstacle(Polygon::rect({{2.1, 4.2}, {2.4, 4.4}}))},  // band violator
                 kHalf);
  const double h = s.max_height(2.0, 8.0, 5.0);
  // After shrinking below the band violator (hob=4.2), inner top = 3.2 and
  // the first obstacle (top y=3.8) pokes out -> shrink below it (hob=3.2),
  // h = 3.2 - 0.5.
  EXPECT_NEAR(h, 3.2 - kHalf, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, TouchingClearanceIsLegal) {
  // Obstacle bottom exactly half above the requested hat: h = request OK.
  HeightSolver s({obstacle(Polygon::rect({{4, 3.5}, {6, 5}}))}, kHalf);
  const double h = s.max_height(2.0, 8.0, 3.0);
  EXPECT_NEAR(h, 3.0, 1e-9);
  EXPECT_TRUE(s.valid_exhaustive(2.0, 8.0, h));
}

TEST(HeightSolver, ObstacleBeyondSidesIgnored) {
  HeightSolver s({obstacle(Polygon::rect({{20, 0}, {22, 10}}))}, kHalf);
  EXPECT_DOUBLE_EQ(s.max_height(2.0, 8.0, 5.0), 5.0);
}

TEST(HeightSolver, SideLineVerticesKeepRecordedHeights) {
  // Heights recorded from the solver before the side-edge prefilter; the
  // prefilter must not move a single bit. Rows: five shapes each, in the
  // order of side_line_scene.
  constexpr std::array<double, kSideScenes> kRecorded{
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffffffc9064p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffffffc9064p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffff29406b2p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffff29406b2p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1.8p+2, 0x1p+1, 0x1.8p+2, 0x1.e666666666666p+0, 0x1.8p+2,
    0x1.8p+2, 0x1p+1, 0x1.8p+2, 0x1.e666666666666p+0, 0x1.8p+2,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffffffc9064p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffffffc9064p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1.8p+2, 0x1p+1, 0x1.8p+2, 0x1.e666666666666p+0, 0x1.8p+2,
    0x1.8p+2, 0x1p+1, 0x1.8p+2, 0x1.e666666666666p+0, 0x1.8p+2,
    0x1p-1, 0x1p+1, 0x1.3fffff29406b4p+1, 0x1.e666666666666p+0, 0x1.8p+0,
    0x1p-1, 0x1p+1, 0x1.3fffff29406b4p+1, 0x1.e666666666666p+0, 0x1.8p+0};
  for (int i = 0; i < kSideScenes; ++i) {
    const HeightSolver s(side_line_scene(i), kHalf);
    const double h = s.max_height(kSideX0, kSideX1, kSideRequest);
    EXPECT_EQ(h, kRecorded[static_cast<std::size_t>(i)]) << "scene " << i;
    if (h > 0.0) {
      EXPECT_TRUE(s.valid_exhaustive(kSideX0, kSideX1, h)) << "scene " << i;
    }
  }
}

TEST(HeightSolver, ForSegmentTransformsEnvironment) {
  // Global environment with a wall above a 45-degree segment.
  Environment env;
  // Segment from (0,0) to (10,10); wall parallel to it on the upper-left
  // side at perpendicular distance 2.
  const geom::Vec2 n{-std::sqrt(0.5), std::sqrt(0.5)};  // left normal
  geom::Polygon wall_poly{{geom::Point{0, 0} + n * 2.0, geom::Point{10, 10} + n * 2.0,
                           geom::Point{10, 10} + n * 5.0, geom::Point{0, 0} + n * 5.0}};
  env.add_static(wall_poly, EnvKind::AreaOutline);
  const geom::Segment seg{{0, 0}, {10, 10}};
  const HeightSolver up = HeightSolver::for_segment(env, seg, +1, 10.0, kHalf);
  const double h = up.max_height(3.0, 9.0, 8.0);
  EXPECT_NEAR(h, 2.0 - kHalf, 1e-9);
  // The other side is free.
  const HeightSolver down = HeightSolver::for_segment(env, seg, -1, 10.0, kHalf);
  EXPECT_DOUBLE_EQ(down.max_height(3.0, 9.0, 8.0), 8.0);
}

TEST(HeightSolver, ExhaustiveOracleAgreesOnRandomScenes) {
  // Property: the fast shrinking result is always valid per the oracle, and
  // on scenes without enclosable obstacles it is maximal (validity is
  // monotone there).
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ux(0.0, 20.0);
  std::uniform_real_distribution<double> uy(1.2, 9.0);
  std::uniform_real_distribution<double> usz(0.8, 3.0);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<LocalPoly> polys;
    const int n_obs = 1 + static_cast<int>(trial % 4);
    for (int k = 0; k < n_obs; ++k) {
      const double x = ux(rng), y = uy(rng), w = usz(rng), hgt = usz(rng);
      polys.push_back(obstacle(Polygon::rect({{x, y}, {x + w, y + hgt}})));
    }
    HeightSolver s(std::move(polys), kHalf);
    const double x0 = 2.0, x1 = 2.0 + 2.0 + (trial % 5);
    const double h = s.max_height(x0, x1, 7.5);
    if (h > 0.0) {
      EXPECT_TRUE(s.valid_exhaustive(x0, x1, h)) << "trial " << trial << " h=" << h;
    }
    // Maximality probe: a slightly taller pattern must be invalid unless the
    // request itself was granted or the taller pattern legally encloses
    // obstacles (possible in non-monotone scenes).
    if (h > 0.0 && h < 7.5 - 1e-9) {
      const bool taller_valid = s.valid_exhaustive(x0, x1, h + 0.05);
      if (taller_valid) {
        // Must be a non-monotone enclosure case: verify some obstacle is
        // enclosed by the taller pattern.
        const UraBorders taller{x0, x1, kHalf, h + 0.05 + kHalf};
        bool encloses = false;
        for (const LocalPoly& lp : s.polys()) {
          bool inside = true;
          for (const Point& p : lp.poly.points()) {
            inside &= taller.inner().contains(p, 1e-9);
          }
          encloses |= inside;
        }
        EXPECT_TRUE(encloses) << "trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace lmr::core
