/// \file micro_dp.cpp
/// Microbenchmarks for the §IV-D complexity claims: the DP transition is
/// O(n^2) in the number of discrete points (width loop capped makes it
/// O(n * W)), and URA height solving is near-linear in nearby polygons.
///
/// The DP only visits left feet that can still take a pattern, so its cost
/// depends on the requirement: `BM_SegmentDpUnsaturated` (heights capped at
/// the minimum, unbounded need) keeps every foot live and measures the
/// O(n^2) worst case; `BM_SegmentDpFlat` grants every request, meets the
/// need with its first pattern and measures the saturated case that
/// dominates real routes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>

#include "core/height_solver.hpp"
#include "core/segment_dp.hpp"

namespace {

void BM_SegmentDpFlat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lmr::core::DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  const lmr::core::HeightFn h = [](int, int, int, double req) { return req; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SegmentDpFlat)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_SegmentDpUnsaturated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lmr::core::DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = std::numeric_limits<double>::infinity();
  const lmr::core::HeightFn h = [min_h = p.min_height](int, int, int, double req) {
    return std::min(req, min_h);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SegmentDpUnsaturated)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_SegmentDpWidthCapped(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lmr::core::DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  p.max_width_steps = 16;
  const lmr::core::HeightFn h = [](int, int, int, double req) { return req; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SegmentDpWidthCapped)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_HeightSolver(benchmark::State& state) {
  const int n_polys = static_cast<int>(state.range(0));
  std::vector<lmr::core::LocalPoly> polys;
  for (int i = 0; i < n_polys; ++i) {
    lmr::core::LocalPoly lp;
    const double x = 2.0 + (i * 37 % 100);
    const double y = 1.5 + (i * 13 % 7);
    lp.poly = lmr::geom::Polygon::rect({{x, y}, {x + 1.0, y + 1.0}});
    lp.kind = lmr::core::EnvKind::Obstacle;
    polys.push_back(std::move(lp));
  }
  const lmr::core::HeightSolver solver(std::move(polys), 0.5);
  for (auto _ : state) {
    for (double x0 = 2.0; x0 < 90.0; x0 += 11.0) {
      benchmark::DoNotOptimize(solver.max_height(x0, x0 + 6.0, 8.0));
    }
  }
  state.SetComplexityN(n_polys);
}
BENCHMARK(BM_HeightSolver)->RangeMultiplier(4)->Range(4, 256)->Complexity();

}  // namespace

BENCHMARK_MAIN();
