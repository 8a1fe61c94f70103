#include "layout/obstacle_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "layout/drc_checker.hpp"

/// Seeded differential of the board obstacle index against naive full-list
/// scans: `query` must equal a linear bbox filter, and index-backed
/// `check_obstacles` must equal the span overload fed every obstacle —
/// byte for byte, values and order — on random boards and on the corner
/// cases a bucket grid can get wrong.

namespace lmr::layout {
namespace {

using geom::Point;

drc::DesignRules rules(double obs, double width) {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = obs;
  r.protect = 0.5;
  r.trace_width = width;
  return r;
}

Trace make_trace(std::vector<Point> pts, TraceId id = 1) {
  Trace t;
  t.id = id;
  t.path = geom::Polyline{std::move(pts)};
  return t;
}

/// The reference: every obstacle, in list order, through the span overload.
std::vector<Violation> full_scan(const Trace& t, const drc::DesignRules& r,
                                 const std::vector<Obstacle>& obs) {
  std::vector<ObstacleRef> all;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    all.push_back({&obs[i], static_cast<std::uint32_t>(i)});
  }
  return DrcChecker{}.check_obstacles(t, r, std::span<const ObstacleRef>(all));
}

/// The reference for `query`: a linear bbox filter in list order.
std::vector<std::uint32_t> naive_query(const std::vector<Obstacle>& obs, const geom::Box& box) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (obs[i].shape.bbox().intersects(box)) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<std::uint32_t> indices(const std::vector<ObstacleRef>& refs) {
  std::vector<std::uint32_t> out;
  for (const ObstacleRef& r : refs) out.push_back(r.index);
  return out;
}

void expect_identical(const std::vector<Violation>& got, const std::vector<Violation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].trace, want[i].trace);
    EXPECT_EQ(got[i].other_trace, want[i].other_trace);
    EXPECT_EQ(got[i].index_a, want[i].index_a);
    EXPECT_EQ(got[i].index_b, want[i].index_b);
    EXPECT_EQ(got[i].measured, want[i].measured);
    EXPECT_EQ(got[i].required, want[i].required);
    EXPECT_EQ(got[i].note, want[i].note);
  }
}

/// Random board: rectangles of mixed sizes, triangles, and the degenerate
/// shapes (no vertex, one vertex, two vertices, collinear zero-area).
std::vector<Obstacle> random_board(std::mt19937& rng, std::size_t n) {
  std::uniform_real_distribution<double> pos(0.0, 100.0);
  std::uniform_real_distribution<double> small(0.2, 3.0);
  std::uniform_real_distribution<double> large(10.0, 40.0);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<Obstacle> obs;
  for (std::size_t i = 0; i < n; ++i) {
    const Point p{pos(rng), pos(rng)};
    geom::Polygon shape;
    switch (kind(rng)) {
      case 0:
        shape = geom::Polygon::rect({p, {p.x + large(rng), p.y + large(rng)}});
        break;
      case 1:
        shape = geom::Polygon({p, {p.x + small(rng), p.y + small(rng) * 0.5},
                               {p.x - small(rng), p.y + small(rng)}});
        break;
      case 2:
        shape = geom::Polygon({p});
        break;
      case 3:
        shape = geom::Polygon({p, {p.x + small(rng), p.y - small(rng)}});
        break;
      case 4:
        shape = geom::Polygon({p, {p.x + 1.0, p.y + 1.0}, {p.x + 2.0, p.y + 2.0}});
        break;
      case 5:
        if (i % 7 == 0) break;  // the occasional vertex-less obstacle
        [[fallthrough]];
      default:
        shape = geom::Polygon::rect({p, {p.x + small(rng), p.y + small(rng)}});
        break;
    }
    obs.push_back({std::move(shape), "o" + std::to_string(i)});
  }
  return obs;
}

/// Random-walk trace with axis-aligned and any-direction legs.
Trace random_trace(std::mt19937& rng, TraceId id) {
  std::uniform_real_distribution<double> pos(-5.0, 105.0);
  std::uniform_real_distribution<double> step(-8.0, 8.0);
  std::uniform_int_distribution<int> count(2, 30);
  std::vector<Point> pts{{pos(rng), pos(rng)}};
  const int n = count(rng);
  for (int k = 1; k < n; ++k) {
    const Point& last = pts.back();
    switch (k % 3) {
      case 0: pts.push_back({last.x + step(rng), last.y}); break;
      case 1: pts.push_back({last.x, last.y + step(rng)}); break;
      default: pts.push_back({last.x + step(rng), last.y + step(rng)}); break;
    }
  }
  return make_trace(std::move(pts), id);
}

struct Case {
  Trace trace;
  drc::DesignRules rules;
};

std::vector<Case> random_cases(std::mt19937& rng, std::size_t n) {
  std::uniform_real_distribution<double> obs(0.1, 4.0);
  std::uniform_real_distribution<double> width(0.0, 1.0);
  std::vector<Case> cases;
  for (std::size_t k = 0; k < n; ++k) {
    cases.push_back({random_trace(rng, static_cast<TraceId>(k + 1)), rules(obs(rng), width(rng))});
  }
  return cases;
}

TEST(ObstacleIndex, RandomBoardsMatchFullListScan) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    const std::vector<Obstacle> obs = random_board(rng, 20 + 60 * seed);
    const ObstacleIndex index(obs);
    const DrcChecker checker;
    std::size_t hits = 0;
    for (const Case& c : random_cases(rng, 40)) {
      const std::vector<Violation> want = full_scan(c.trace, c.rules, obs);
      hits += want.size();
      expect_identical(checker.check_obstacles(c.trace, c.rules, index), want);
      expect_identical(checker.check_obstacles(c.trace, c.rules, obs), want);
    }
    EXPECT_GT(hits, 0u) << "a board this dense must produce some violations";
  }
}

TEST(ObstacleIndex, QueryMatchesLinearBboxFilter) {
  std::mt19937 rng(42);
  const std::vector<Obstacle> obs = random_board(rng, 500);
  const ObstacleIndex index(obs);
  std::uniform_real_distribution<double> pos(-20.0, 120.0);
  std::uniform_real_distribution<double> span(0.0, 60.0);
  std::vector<ObstacleRef> got;
  for (int k = 0; k < 400; ++k) {
    const Point lo{pos(rng), pos(rng)};
    // Every fourth box is a point or a line: zero-area queries.
    const double w = k % 4 == 0 ? 0.0 : span(rng);
    const double h = k % 8 == 0 ? 0.0 : span(rng);
    const geom::Box box{lo, {lo.x + w, lo.y + h}};
    index.query(box, got);
    EXPECT_EQ(indices(got), naive_query(obs, box)) << "query " << k;
    for (const ObstacleRef& r : got) EXPECT_EQ(r.obstacle, &obs[r.index]);
  }
  index.query(geom::Box{}, got);
  EXPECT_TRUE(got.empty()) << "an empty box meets nothing";
}

TEST(ObstacleIndex, TraceWhollyInsideALargeObstacle) {
  // A 60x60 obstacle among small vias, so the grid cells are much smaller
  // than it: the trace sits deep inside, far from every edge, and only the
  // obstacle's interior cells see it.
  std::vector<Obstacle> obs;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      const Point p{8.0 * i, 8.0 * j};
      obs.push_back({geom::Polygon::rect({p, {p.x + 0.5, p.y + 0.5}}), "via"});
    }
  }
  obs.push_back({geom::Polygon::rect({{20.0, 20.0}, {80.0, 80.0}}), "plane"});
  const ObstacleIndex index(obs);
  const Trace t = make_trace({{49.0, 49.1}, {51.0, 49.1}, {51.0, 50.9}});
  const drc::DesignRules r = rules(0.1, 0.0);
  const std::vector<Violation> want = full_scan(t, r, obs);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(want[0].index_b, obs.size() - 1);
  expect_identical(DrcChecker{}.check_obstacles(t, r, index), want);
}

TEST(ObstacleIndex, ObstacleAtExactlyTheClearanceDistance) {
  // Trace along y = 0; obstacles whose nearest edge sits at, just inside
  // and just outside the clearance (1.0 + 1e-6 tolerance), on every side.
  const drc::DesignRules r = rules(1.0, 0.0);
  const double tol = DrcCheckOptions{}.tolerance;
  const Trace t = make_trace({{0.0, 0.0}, {10.0, 0.0}});
  for (const double gap : {1.0 - 2 * tol, 1.0 - tol / 2, 1.0, 1.0 + tol / 2, 1.0 + tol,
                           1.0 + tol + 1e-12, 1.0 + 2 * tol}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    std::vector<Obstacle> obs;
    obs.push_back({geom::Polygon::rect({{4.0, gap}, {6.0, gap + 1.0}}), "above"});
    obs.push_back({geom::Polygon::rect({{4.0, -gap - 1.0}, {6.0, -gap}}), "below"});
    obs.push_back({geom::Polygon::rect({{10.0 + gap, -1.0}, {11.0 + gap, 1.0}}), "right"});
    obs.push_back({geom::Polygon::rect({{-1.0 - gap, -1.0}, {-gap, 1.0}}), "left"});
    obs.push_back({geom::Polygon::rect({{50.0, 50.0}, {51.0, 51.0}}), "far"});
    const ObstacleIndex index(obs);
    expect_identical(DrcChecker{}.check_obstacles(t, r, index), full_scan(t, r, obs));
  }
  // A query box whose edge touches an obstacle's bbox meets it.
  std::vector<Obstacle> obs;
  obs.push_back({geom::Polygon::rect({{2.0, 2.0}, {3.0, 3.0}}), "touch"});
  obs.push_back({geom::Polygon::rect({{9.0, 9.0}, {10.0, 10.0}}), "far"});
  const ObstacleIndex index(obs);
  std::vector<ObstacleRef> got;
  index.query(geom::Box{{0.0, 0.0}, {2.0, 2.0}}, got);
  EXPECT_EQ(indices(got), std::vector<std::uint32_t>{0});
}

TEST(ObstacleIndex, DegenerateObstacles) {
  // Only vertex-less, single-vertex, two-vertex and zero-area shapes.
  std::vector<Obstacle> obs;
  obs.push_back({geom::Polygon{}, "none"});
  obs.push_back({geom::Polygon({{5.0, 0.5}}), "point"});
  obs.push_back({geom::Polygon({{2.0, -0.5}, {3.0, 0.5}}), "segment"});
  obs.push_back({geom::Polygon({{7.0, 0.3}, {8.0, 0.3}, {9.0, 0.3}}), "flat"});
  obs.push_back({geom::Polygon({{5.0, 0.5}}), "point again"});
  const ObstacleIndex index(obs);
  const Trace t = make_trace({{0.0, 0.0}, {10.0, 0.0}});
  const drc::DesignRules r = rules(1.0, 0.0);
  const std::vector<Violation> want = full_scan(t, r, obs);
  EXPECT_EQ(want.size(), 4u);
  expect_identical(DrcChecker{}.check_obstacles(t, r, index), want);

  std::vector<ObstacleRef> got;
  index.query(geom::Box{{-100.0, -100.0}, {100.0, 100.0}}, got);
  EXPECT_EQ(indices(got), (std::vector<std::uint32_t>{1, 2, 3, 4}))
      << "the vertex-less obstacle has no bbox to meet";

  // All obstacles at one point: a zero-extent grid on both axes.
  std::vector<Obstacle> stacked(3, Obstacle{geom::Polygon({{1.0, 1.0}}), "p"});
  const ObstacleIndex one_point(stacked);
  one_point.query(geom::Box{{1.0, 1.0}, {1.0, 1.0}}, got);
  EXPECT_EQ(indices(got), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(ObstacleIndex, EmptyObstacleList) {
  const std::vector<Obstacle> none;
  const ObstacleIndex index(none);
  std::vector<ObstacleRef> got{{nullptr, 7}};
  index.query(geom::Box{{0.0, 0.0}, {10.0, 10.0}}, got);
  EXPECT_TRUE(got.empty()) << "query replaces the output";
  const Trace t = make_trace({{0.0, 0.0}, {10.0, 0.0}});
  EXPECT_TRUE(DrcChecker{}.check_obstacles(t, rules(1.0, 0.0), index).empty());
}

TEST(ObstacleIndex, FourThreadsQueryOneIndex) {
  std::mt19937 rng(99);
  const std::vector<Obstacle> obs = random_board(rng, 400);
  const std::vector<Case> cases = random_cases(rng, 64);
  std::vector<std::vector<Violation>> want;
  for (const Case& c : cases) want.push_back(full_scan(c.trace, c.rules, obs));

  const ObstacleIndex index(obs);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<Violation>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const DrcChecker checker;
      // Every thread checks every case, starting at a different offset so
      // the threads hit different cells at the same time.
      got[k].resize(cases.size());
      for (std::size_t n = 0; n < cases.size(); ++n) {
        const std::size_t i = (n + k * cases.size() / kThreads) % cases.size();
        got[k][i] = checker.check_obstacles(cases[i].trace, cases[i].rules, index);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(k) + " case " + std::to_string(i));
      expect_identical(got[k][i], want[i]);
    }
  }
}

}  // namespace
}  // namespace lmr::layout
