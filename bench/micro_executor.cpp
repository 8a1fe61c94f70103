/// \file micro_executor.cpp
/// Executor microbenchmarks: what the persistent pool buys over per-call
/// `std::async` spawning, and what a repeated threaded `route` costs end
/// to end.
///
///  * PoolSubmitDrain vs AsyncSpawnDrain — pure dispatch overhead of one
///    claimer-style fan-out (the seed router's pattern) with trivial tasks;
///    the pool amortizes thread creation across calls, async pays it every
///    time.
///  * ParallelForDynamic — the helper the router actually calls, per
///    fan-out cost at several widths.
///  * RouteRepeated — 1x route() on the multi_group/3x6 board per
///    iteration through one persistent Router (pool created once); the
///    repeated-call regression measure of the executor PR.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <vector>

#include "exec/task_pool.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"

namespace {

/// Seed-style fan-out: spawn `threads` async claimers per call.
void BM_AsyncSpawnDrain(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 16;
  for (auto _ : state) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> sum{0};
    std::vector<std::future<void>> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.push_back(std::async(std::launch::async, [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          sum.fetch_add(i, std::memory_order_relaxed);
        }
      }));
    }
    for (auto& f : workers) f.get();
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_AsyncSpawnDrain)->Arg(2)->Arg(4)->Arg(8);

/// Pool fan-out: same claimer count, workers persist across iterations.
void BM_PoolSubmitDrain(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 16;
  lmr::exec::TaskPool pool(threads - 1);
  for (auto _ : state) {
    std::atomic<std::size_t> sum{0};
    lmr::exec::parallel_for_dynamic(pool, n, threads, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_PoolSubmitDrain)->Arg(2)->Arg(4)->Arg(8);

/// Fan-out width sweep on the shared claimer helper.
void BM_ParallelForDynamic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lmr::exec::TaskPool pool(lmr::exec::resolve_threads(0) - 1);
  std::vector<std::size_t> out(n, 0);
  for (auto _ : state) {
    lmr::exec::parallel_for_dynamic(pool, n, lmr::exec::resolve_threads(0),
                                    [&](std::size_t i) { out[i] = i * i; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDynamic)->Arg(8)->Arg(64)->Arg(512);

/// Repeated end-to-end route() through one persistent Router: the
/// multi_group/3x6 board, first group, fresh layout copy per iteration.
void BM_RouteRepeated(benchmark::State& state) {
  const auto fam = lmr::scenario::family("multi_group", false);
  const lmr::scenario::Scenario sc = lmr::scenario::materialize(fam.cases.at(0));
  lmr::pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.threads = static_cast<std::size_t>(state.range(0));
  const lmr::pipeline::Router router(sc.rules, opts);
  for (auto _ : state) {
    lmr::layout::Layout layout = sc.layout;
    const lmr::pipeline::RouteResult rr = router.route(layout, 0);
    benchmark::DoNotOptimize(rr.group.max_error_pct);
  }
}
BENCHMARK(BM_RouteRepeated)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
