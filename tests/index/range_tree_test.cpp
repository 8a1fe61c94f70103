#include "index/range_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace lmr::index {
namespace {

using geom::Box;
using geom::Point;

TEST(RangeTree, EmptyTree) {
  RangeTree2D t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.query({{0, 0}, {10, 10}}).empty());
}

TEST(RangeTree, SinglePoint) {
  RangeTree2D t{{{{5, 5}, 7}}};
  auto hit = t.query({{0, 0}, {10, 10}});
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].payload, 7u);
  EXPECT_TRUE(t.query({{6, 0}, {10, 10}}).empty());
  EXPECT_TRUE(t.query({{0, 6}, {10, 10}}).empty());
}

TEST(RangeTree, InclusiveBoundaries) {
  RangeTree2D t{{{{1, 1}, 0}, {{5, 5}, 1}}};
  EXPECT_EQ(t.query({{1, 1}, {5, 5}}).size(), 2u);
  EXPECT_EQ(t.query({{1, 1}, {4.999, 5}}).size(), 1u);
}

TEST(RangeTree, GridQuery) {
  std::vector<RangeTree2D::Entry> entries;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      entries.push_back({{double(x), double(y)}, static_cast<std::uint32_t>(x * 10 + y)});
    }
  }
  RangeTree2D t{entries};
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.query({{2, 3}, {5, 7}}).size(), 4u * 5u);
  EXPECT_EQ(t.query({{0, 0}, {9, 9}}).size(), 100u);
  EXPECT_EQ(t.query({{-5, -5}, {-1, -1}}).size(), 0u);
}

/// Payloads of the entries inside `box`, sorted: the multiset a query must
/// return (the visit order among equal-y entries is unspecified).
std::vector<std::uint32_t> brute_force(const std::vector<RangeTree2D::Entry>& entries,
                                       const Box& box) {
  std::vector<std::uint32_t> out;
  for (const auto& e : entries) {
    if (box.contains(e.p)) out.push_back(e.payload);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> payloads(const RangeTree2D& t, const Box& box) {
  std::vector<std::uint32_t> out;
  for (const auto& e : t.query(box)) out.push_back(e.payload);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RangeTree, MatchesBruteForceOnRandomData) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<RangeTree2D::Entry> entries;
  for (std::uint32_t i = 0; i < 500; ++i) entries.push_back({{u(rng), u(rng)}, i});
  RangeTree2D t{entries};
  for (int trial = 0; trial < 40; ++trial) {
    const double x0 = u(rng), x1 = u(rng), y0 = u(rng), y1 = u(rng);
    const Box box{{std::min(x0, x1), std::min(y0, y1)}, {std::max(x0, x1), std::max(y0, y1)}};
    EXPECT_EQ(payloads(t, box), brute_force(entries, box)) << "trial " << trial;
  }
}

TEST(RangeTree, MatchesBruteForceAcrossSizesAndDegenerateBoxes) {
  // Sizes around the halving boundaries, an integer lattice full of
  // duplicate x and y values, and boxes whose edges sit exactly on point
  // coordinates, including zero-width and zero-height boxes.
  std::mt19937_64 rng(99);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 31u, 32u, 33u, 1000u}) {
    std::uniform_int_distribution<int> lattice(0, static_cast<int>(n / 4) + 2);
    std::vector<RangeTree2D::Entry> entries;
    for (std::uint32_t i = 0; i < n; ++i) {
      entries.push_back({{double(lattice(rng)), double(lattice(rng))}, i});
    }
    const RangeTree2D t{entries};
    ASSERT_EQ(t.size(), n);
    const int hi = static_cast<int>(n / 4) + 3;
    std::uniform_int_distribution<int> coord(-1, hi);
    for (int trial = 0; trial < 60; ++trial) {
      int x0 = coord(rng), x1 = coord(rng), y0 = coord(rng), y1 = coord(rng);
      if (trial % 4 == 1) x1 = x0;  // zero width
      if (trial % 4 == 2) y1 = y0;  // zero height
      if (trial % 4 == 3) {         // a single lattice point
        x1 = x0;
        y1 = y0;
      }
      const Box box{{double(std::min(x0, x1)), double(std::min(y0, y1))},
                    {double(std::max(x0, x1)), double(std::max(y0, y1))}};
      EXPECT_EQ(payloads(t, box), brute_force(entries, box)) << "n " << n << " trial " << trial;
    }
  }
}

TEST(RangeTree, EarlyStopReturnsExactlyKEntriesFromTheBox) {
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<int> lattice(0, 20);
  std::vector<RangeTree2D::Entry> entries;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    entries.push_back({{double(lattice(rng)), double(lattice(rng))}, i});
  }
  const RangeTree2D t{entries};
  const Box box{{3, 4}, {15, 12}};
  const std::vector<std::uint32_t> all = brute_force(entries, box);
  ASSERT_GT(all.size(), 50u);
  for (std::size_t k : {1u, 7u, 50u}) {
    std::vector<std::uint32_t> seen;
    t.visit(box, [&](const RangeTree2D::Entry& e) {
      seen.push_back(e.payload);
      return seen.size() < k;
    });
    ASSERT_EQ(seen.size(), k);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());  // no repeats
    EXPECT_TRUE(std::includes(all.begin(), all.end(), seen.begin(), seen.end()));
  }
}

TEST(RangeTree, VisitEarlyStop) {
  std::vector<RangeTree2D::Entry> entries;
  for (std::uint32_t i = 0; i < 100; ++i) entries.push_back({{double(i), 0.0}, i});
  RangeTree2D t{entries};
  int visited = 0;
  t.visit({{0, -1}, {99, 1}}, [&](const RangeTree2D::Entry&) {
    ++visited;
    return visited < 5;  // stop after 5
  });
  EXPECT_EQ(visited, 5);
}

TEST(RangeTree, DuplicateCoordinatesAllReported) {
  std::vector<RangeTree2D::Entry> entries(8, {{3.0, 3.0}, 0});
  for (std::uint32_t i = 0; i < entries.size(); ++i) entries[i].payload = i;
  RangeTree2D t{entries};
  auto hits = t.query({{3, 3}, {3, 3}});
  EXPECT_EQ(hits.size(), 8u);
}

TEST(RangeTree, PayloadsPreserved) {
  RangeTree2D t{{{{1, 2}, 11}, {{3, 4}, 22}, {{5, 6}, 33}}};
  auto hits = t.query({{2, 3}, {4, 5}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].payload, 22u);
}

}  // namespace
}  // namespace lmr::index
