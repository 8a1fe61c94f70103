#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "index/seg_grid.hpp"

/// The SegGrid contract the Grid clearance backend and the scenario
/// generator's placement scan depend on: a window query visits a
/// conservative *superset* of the entries intersecting the window (never a
/// miss), each entry at most once per query, with removals forgotten and
/// `visit_above` filtering exactly by payload floor. The superset check runs
/// against an exact brute-force segment/box intersection over randomized
/// mixed workloads — short legs, long diagonals (cell-walk registration),
/// degenerate points, axis-aligned runs.

namespace lmr::index {
namespace {

using geom::Box;
using geom::Point;
using geom::Segment;

/// Exact closed-segment vs closed-box intersection (Liang-Barsky clip).
bool seg_intersects_box(const Segment& s, const Box& box) {
  double t0 = 0.0, t1 = 1.0;
  const double dx = s.b.x - s.a.x, dy = s.b.y - s.a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {s.a.x - box.lo.x, box.hi.x - s.a.x, s.a.y - box.lo.y,
                       box.hi.y - s.a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return false;
    } else {
      const double r = q[i] / p[i];
      if (p[i] < 0.0) {
        t0 = std::max(t0, r);
      } else {
        t1 = std::min(t1, r);
      }
    }
  }
  return t0 <= t1;
}

/// A mixed bag of segments: short legs, degenerate points, long diagonals
/// and long axis-aligned runs (both registration strategies exercised).
std::vector<Segment> mixed_segments(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> leg(-3.0, 3.0);
  std::vector<Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point a{u(rng), u(rng)};
    switch (i % 4) {
      case 0:  // short leg, the common meander-scale case
        segs.push_back({a, {a.x + leg(rng), a.y + leg(rng)}});
        break;
      case 1:  // degenerate point (via centroids in the generator)
        segs.push_back({a, a});
        break;
      case 2:  // long diagonal: forces the sampled cell walk
        segs.push_back({a, {a.x + u(rng), a.y + u(rng)}});
        break;
      default:  // long axis-aligned run (straight corridor trace)
        segs.push_back({a, {a.x + u(rng), a.y}});
        break;
    }
  }
  return segs;
}

TEST(SegGrid, WindowQueryIsSupersetOfExactIntersections) {
  std::mt19937_64 rng(42);
  const std::vector<Segment> segs = mixed_segments(rng, 200);
  SegGrid grid(2.5);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    grid.insert(segs[i], i);
  }
  ASSERT_EQ(grid.size(), segs.size());

  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> w(0.1, 15.0);
  for (int q = 0; q < 300; ++q) {
    const Point lo{u(rng), u(rng)};
    const Box box{lo, {lo.x + w(rng), lo.y + w(rng)}};
    std::vector<bool> seen(segs.size(), false);
    grid.visit(box, [&](const SegGrid::Entry& e) {
      EXPECT_FALSE(seen[e.payload]) << "entry reported twice in one query";
      seen[e.payload] = true;
      return true;
    });
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (seg_intersects_box(segs[i], box)) {
        EXPECT_TRUE(seen[i]) << "query " << q << " missed intersecting segment " << i;
      }
    }
  }
}

TEST(SegGrid, LongDiagonalNeverMissedAlongItsRun) {
  // A diagonal hundreds of cells long: every small window centered on a
  // point of the segment must report it (the sampled walk's 3x3
  // neighborhoods must cover the true geometry).
  SegGrid grid(1.0);
  const Segment diag{{0.0, 0.0}, {400.0, 173.0}};
  grid.insert(diag, 7);
  for (int k = 0; k <= 1000; ++k) {
    const double t = static_cast<double>(k) / 1000.0;
    const Point p = diag.at(t);
    bool found = false;
    grid.visit(Box{p, p}.inflated(0.25), [&](const SegGrid::Entry& e) {
      found = e.payload == 7;
      return !found;
    });
    EXPECT_TRUE(found) << "missed at t=" << t;
  }
}

TEST(SegGrid, LongAxisAlignedRunRegistersOnlyItsRow) {
  // Hundreds of cells long but one cell thin: registered by its bbox, so
  // every window on the run reports it and a window in the next row of
  // cells does not (the sampled walk would have claimed that row too).
  SegGrid grid(1.0);
  const Segment run{{0.5, 10.5}, {400.5, 10.5}};
  grid.insert(run, 3);
  grid.insert({{0.5, 20.5}, {0.5, 20.5}}, 4);  // stretch the extent upwards
  for (int x = 0; x <= 400; ++x) {
    const Point p{0.5 + x, 10.5};
    bool found = false;
    grid.visit(Box{p, p}.inflated(0.25), [&](const SegGrid::Entry& e) {
      found = e.payload == 3;
      return !found;
    });
    EXPECT_TRUE(found) << "missed at x=" << p.x;
    std::size_t next_row = 0;
    grid.visit(Box{{p.x, 11.6}, {p.x, 11.9}}, [&](const SegGrid::Entry& e) {
      next_row += e.payload == 3 ? 1 : 0;
      return true;
    });
    EXPECT_EQ(next_row, 0u) << "registered outside its row at x=" << p.x;
  }
}

TEST(SegGrid, RemoveForgetsAndIdsRecycle) {
  SegGrid grid(2.0);
  const std::uint32_t a = grid.insert({{0, 0}, {5, 0}}, 1);
  const std::uint32_t b = grid.insert({{0, 3}, {5, 3}}, 2);
  EXPECT_EQ(grid.size(), 2u);
  grid.remove(a);
  EXPECT_EQ(grid.size(), 1u);

  std::size_t hits = 0;
  grid.visit(Box{{-1, -1}, {6, 4}}, [&](const SegGrid::Entry& e) {
    EXPECT_EQ(e.payload, 2u);
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1u);

  // The freed id is recycled and the new geometry is immediately queryable.
  const std::uint32_t c = grid.insert({{10, 10}, {12, 10}}, 3);
  EXPECT_EQ(c, a);
  bool found = false;
  grid.visit(Box{{9, 9}, {13, 11}}, [&](const SegGrid::Entry& e) {
    found = e.payload == 3;
    return true;
  });
  EXPECT_TRUE(found);
  (void)b;
}

TEST(SegGrid, VisitAboveFiltersByPayloadFloor) {
  // The sweep's pair-dedup depends on visit_above((t+1) << 32) skipping
  // every lower-slot entry, including after removals leave a cell's cached
  // max payload stale-high (prune-only metadata).
  SegGrid grid(2.0);
  std::vector<std::uint32_t> ids;
  for (std::uint64_t p = 0; p < 8; ++p) {
    ids.push_back(grid.insert({{0.0, 0.5 * static_cast<double>(p)}, {4.0, 0.5 * static_cast<double>(p)}}, p));
  }
  const Box all{{-1, -1}, {5, 5}};

  std::vector<std::uint64_t> seen;
  grid.visit_above(all, 5, [&](const SegGrid::Entry& e) {
    seen.push_back(e.payload);
    return true;
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 6, 7}));

  // Remove the max-payload entry: the stale cell max must not resurrect it.
  grid.remove(ids[7]);
  seen.clear();
  grid.visit_above(all, 5, [&](const SegGrid::Entry& e) {
    seen.push_back(e.payload);
    return true;
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 6}));
}

TEST(SegGrid, EarlyStopAndReset) {
  SegGrid grid(1.0);
  for (int i = 0; i < 10; ++i) {
    grid.insert({{static_cast<double>(i), 0.0}, {static_cast<double>(i) + 0.5, 0.0}},
                static_cast<std::uint64_t>(i));
  }
  std::size_t visits = 0;
  grid.visit(Box{{-1, -1}, {11, 1}}, [&](const SegGrid::Entry&) {
    ++visits;
    return false;  // stop after the first
  });
  EXPECT_EQ(visits, 1u);

  grid.reset(3.0);
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.cell(), 3.0);
  visits = 0;
  grid.visit(Box{{-10, -10}, {20, 20}}, [&](const SegGrid::Entry&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0u);
}

TEST(SegGrid, ChurnKeepsSupersetGuarantee) {
  // Interleaved insert/remove churn with brute-force mirrors: the grid must
  // stay exact-superset through id recycling and extent growth.
  std::mt19937_64 rng(7);
  SegGrid grid(2.0);
  struct LiveSeg {
    std::uint32_t id;
    Segment seg;
    std::uint64_t payload;
  };
  std::vector<LiveSeg> live;
  std::uniform_real_distribution<double> u(0.0, 60.0);
  std::uint64_t next_payload = 0;
  for (int step = 0; step < 500; ++step) {
    const bool remove = !live.empty() && (rng() % 3 == 0);
    if (remove) {
      const std::size_t k = rng() % live.size();
      grid.remove(live[k].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const Point a{u(rng), u(rng)};
      const Segment s{a, {a.x + u(rng) * 0.2, a.y + u(rng) * 0.2}};
      live.push_back({grid.insert(s, next_payload), s, next_payload});
      ++next_payload;
    }
    ASSERT_EQ(grid.size(), live.size());
    if (step % 25 != 0) continue;
    const Point lo{u(rng), u(rng)};
    const Box box{lo, {lo.x + 10.0, lo.y + 10.0}};
    std::vector<std::uint64_t> reported;
    grid.visit(box, [&](const SegGrid::Entry& e) {
      reported.push_back(e.payload);
      return true;
    });
    std::sort(reported.begin(), reported.end());
    for (const LiveSeg& ls : live) {
      if (!seg_intersects_box(ls.seg, box)) continue;
      EXPECT_TRUE(std::binary_search(reported.begin(), reported.end(), ls.payload))
          << "step " << step << " missed live segment payload " << ls.payload;
    }
    // Nothing dead may be reported.
    for (const std::uint64_t p : reported) {
      EXPECT_TRUE(std::any_of(live.begin(), live.end(),
                              [&](const LiveSeg& ls) { return ls.payload == p; }))
          << "step " << step << " reported removed payload " << p;
    }
  }
}

}  // namespace
}  // namespace lmr::index
