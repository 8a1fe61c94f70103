#pragma once
/// \file bench.hpp
/// Shared plumbing of the end-to-end benchmark: run arguments, the result
/// record every workload fills, seed derivation, summary statistics, the
/// routed-geometry digest and process counters.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/clock.hpp"
#include "exec/task_pool.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_generator.hpp"
#include "trace.hpp"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = ".";  ///< directory for the trace + profile files
  /// Self-check hook: flip one bit of one repetition's digest, so the
  /// determinism gate must trip.
  bool corrupt_digest = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything one workload run reports.
struct RunResult {
  bool correct = true;
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t drc_violations = 0;
  Metrics e2e;     ///< end-to-end metrics (untraced meaning)
  Metrics layers;  ///< per-layer metrics (filled by the traced pass only)
  std::vector<std::string> notes;  ///< human-readable summary lines

  /// Record a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what);
  void set(const std::string& name, double value, const char* unit) {
    e2e[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    layers[name] = {value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Deterministic child seed of the run seed for one named input stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag,
                                        std::uint64_t k = 0);

[[nodiscard]] double median(std::vector<double> v);

/// The highest of a fixed percentile ladder with at least ten samples
/// beyond it (p50 when there are too few samples for any tail).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Order-sensitive FNV-1a digest of a routed board: every group member's
/// final geometry (coordinate bit patterns) and every violation field.
[[nodiscard]] std::uint64_t digest(const lmr::layout::Layout& layout,
                                   const lmr::pipeline::BoardRoute& route);
[[nodiscard]] std::uint64_t digest_combine(std::uint64_t a, std::uint64_t b);

/// Router options the repository's own suite uses for a generated board
/// (fine DP grid, capped width loop, per-scenario tolerance and pair rules).
[[nodiscard]] lmr::pipeline::RouterOptions router_options(const lmr::scenario::Scenario& sc,
                                                          std::size_t threads,
                                                          lmr::exec::TaskPool* pool);

/// Threads the benchmark routes with: the hardware count, capped at 4 so
/// generator plus pool threads never exceed the machine.
[[nodiscard]] std::size_t bench_threads();

/// Process counters.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double cpu_seconds();
[[nodiscard]] double thread_cpu_seconds();  ///< of the calling thread

/// CPU time of every CPU of the machine since boot, from the first line of
/// /proc/stat: `busy` (user, nice, system, irq, softirq) and `steal`, the
/// time the hypervisor withheld a virtual CPU that had work to run. Both
/// read 0 where the kernel does not report them.
struct CpuTicks {
  double busy_s = 0.0;
  double steal_s = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// A wall-clock interval together with the steal inside it. On a shared
/// host, other tenants' load reaches the benchmark mostly as steal. Over
/// the interval, the machine's CPUs wanted busy + steal time and got busy;
/// a phase whose CPUs are all stolen from alike runs that share of its
/// wall time, so run_s() = wall x busy / (busy + steal) is the time the
/// phase takes when the host does not preempt it. It reads the wall time
/// where the kernel reports no steal, and for intervals too short for the
/// tick counters (1/100 s per CPU).
class HostTimer {
 public:
  HostTimer() : t0_(lmr::core::now()), ticks0_(cpu_ticks()) {}
  [[nodiscard]] double wall_s() const { return lmr::core::seconds_since(t0_); }
  /// The share of the interval the CPUs really ran, so far: busy / (busy + steal).
  [[nodiscard]] double run_share() const;
  /// Wall time times run_share(), so far.
  [[nodiscard]] double run_s() const { return wall_s() * run_share(); }

 private:
  lmr::core::Clock::time_point t0_;
  CpuTicks ticks0_;
};

/// Members across every group of a board (one net per member).
[[nodiscard]] std::size_t net_count(const lmr::layout::Layout& layout);

/// Eq. 19 quality and DRC totals over routed boards.
struct Quality {
  double max_error_pct = 0.0;  ///< worst group's Max error
  double avg_sum = 0.0;        ///< sum of group Avg errors
  std::size_t groups = 0;
  std::uint64_t violations = 0;
  void add(const lmr::pipeline::BoardRoute& route, bool gated);
  [[nodiscard]] double avg_error_pct() const {
    return groups == 0 ? 0.0 : avg_sum / static_cast<double>(groups);
  }
};

/// Pass verdict of one routed case: every group under the Max-error gate
/// (gate <= 0 disables it) and DRC-clean where expected.
[[nodiscard]] bool case_ok(const lmr::pipeline::BoardRoute& route, double gate_pct,
                           bool expect_drc_clean);

}  // namespace perfbench
