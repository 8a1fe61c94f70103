/// \file micro_rangetree.cpp
/// Microbenchmarks for the clearance broadphase: the uniform segment grid
/// (O(1) insert/remove, O(cells + k) window visits) on its own, and the
/// ClearanceIndex sweep built on it — the same board swept cold / warm /
/// one-dirty / dirty-run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "index/seg_grid.hpp"
#include "layout/clearance_index.hpp"

namespace {

/// Short random segments in a 1000x1000 arena (10-30 long: the scale of one
/// meander leg against a ~20 cell).
std::vector<lmr::geom::Segment> random_segments(std::size_t n) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(0.0, 970.0);
  std::uniform_real_distribution<double> d(10.0, 30.0);
  std::vector<lmr::geom::Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const lmr::geom::Point a{u(rng), u(rng)};
    segs.push_back({a, {a.x + d(rng), a.y + d(rng)}});
  }
  return segs;
}

void BM_SegGridBuild(benchmark::State& state) {
  const auto segs = random_segments(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    lmr::index::SegGrid grid(20.0);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      grid.insert(segs[i], static_cast<std::uint64_t>(i));
    }
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SegGridBuild)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_SegGridQuerySmallWindow(benchmark::State& state) {
  const auto segs = random_segments(static_cast<std::size_t>(state.range(0)));
  lmr::index::SegGrid grid(20.0);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    grid.insert(segs[i], static_cast<std::uint64_t>(i));
  }
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 980.0);
  for (auto _ : state) {
    const double x = u(rng), y = u(rng);
    std::size_t count = 0;
    grid.visit({{x, y}, {x + 20.0, y + 20.0}}, [&](const auto&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SegGridQuerySmallWindow)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

/// ClearanceIndex sweep cache: a board of parallel traces, swept
/// repeatedly. Regimes — cold (every sweep re-indexes everything, the
/// pre-cache behaviour), warm (nothing changed; cached violations returned
/// verbatim), one-dirty (a single trace re-inserted per sweep; the grid
/// re-registers and re-queries only that slot's segments) and dirty-run
/// (below). The 16/256/4096 sizes span a paper-scale group to a
/// backplane-scale board.
struct SweepFixture {
  lmr::drc::DesignRules rules;
  std::vector<lmr::layout::Trace> traces;
  explicit SweepFixture(std::size_t n) {
    rules.gap = 1.0;
    traces.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      lmr::layout::Trace& t = traces[i];
      t.id = static_cast<lmr::layout::TraceId>(i + 1);
      t.width = 0.2;
      const double y = static_cast<double>(i) * 2.0;
      t.path = lmr::geom::Polyline{{{0.0, y}, {400.0, y}}};
    }
  }

  [[nodiscard]] lmr::layout::ClearanceIndex make_index() const {
    lmr::layout::ClearanceIndex index(rules);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      index.add_slot(traces[i].width, static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < traces.size(); ++i) {
      index.insert(static_cast<std::uint32_t>(i), traces[i]);
    }
    return index;
  }
};

void BM_ClearanceSweepCold(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // Re-inserting every slot dirties them all, forcing a full broadphase
    // rebuild — equivalent to the pre-cache sweep() cost.
    auto index = fx.make_index();
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepCold)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();

void BM_ClearanceSweepWarm(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  auto index = fx.make_index();
  benchmark::DoNotOptimize(index.sweep().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepWarm)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();

void BM_ClearanceSweepOneDirty(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  auto index = fx.make_index();
  benchmark::DoNotOptimize(index.sweep().size());
  for (auto _ : state) {
    index.insert(0, fx.traces[0]);
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepOneDirty)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();

/// The mega edit's shape: one re-routed group is a contiguous run of n/16
/// slots mid-board, re-inserted before every sweep. Unlike OneDirty (slot 0,
/// whose pairs all sit above it), the run has clean slots below it, so the
/// grid re-sweep must also take hits from lower slots.
void BM_ClearanceSweepDirtyRun(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  auto index = fx.make_index();
  benchmark::DoNotOptimize(index.sweep().size());
  const std::size_t run = std::max<std::size_t>(1, fx.traces.size() / 16);
  const std::size_t first = (fx.traces.size() - run) / 2;
  for (auto _ : state) {
    for (std::size_t i = first; i < first + run; ++i) {
      index.insert(static_cast<std::uint32_t>(i), fx.traces[i]);
    }
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepDirtyRun)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
