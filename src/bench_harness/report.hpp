#pragma once
/// \file report.hpp
/// Result-file conventions of the benchmark harness.
///
/// Every tracked result document follows rules that make regression
/// diffing mechanical:
///  * all machine-dependent context lives under the top-level `"run"`
///    object (host, OS, compiler, thread count, timestamp);
///  * every volatile measurement key ends in `"_s"` (seconds);
///  * parallelism context (`threads_used`, `pool_policy`) and the
///    timing-only `"scaling"` / `"edit_storm"` / `"service"` /
///    `"fault_storm"` sweep sections are volatile wherever they appear:
///    routed metrics are thread-count-invariant by construction, so the
///    executor configuration must never change the stripped bytes.
/// `strip_volatile` removes exactly those, so two runs with the same seeds
/// — at *any* thread counts — must produce byte-identical stripped dumps:
/// the reproducibility check CI and the unit tests perform.

#include <string>

#include "bench_harness/json.hpp"

namespace lmr::bench {

/// Machine / build context recorded with every result file.
struct RunInfo {
  std::string host;
  std::string os;
  std::string compiler;
  std::string build_type;
  std::string timestamp_utc;  ///< ISO-8601, collection time
  int hardware_threads = 0;
};

/// Collect the current machine's context.
[[nodiscard]] RunInfo collect_run_info();

/// `run` object for a result document.
[[nodiscard]] Json run_info_json(const RunInfo& info);

/// Deep copy with the volatile members removed — the `"run"` object, the
/// `"scaling"`, `"edit_storm"`, `"service"` and `"fault_storm"` sections,
/// `threads_used`/`pool_policy`, and every `*_s`-suffixed key — the
/// deterministic view of a result document. `tools/strip_volatile.py` is
/// the script-side twin; a unit test keeps their outputs byte-identical on
/// the tracked results file.
[[nodiscard]] Json strip_volatile(const Json& doc);

/// Write `doc` (pretty-printed, trailing newline) to `path`. Throws
/// std::runtime_error when the file cannot be written.
void write_json_file(const std::string& path, const Json& doc);

/// Bench-main epilogue: write `doc` to `path`, print "wrote PATH" on
/// stdout, report failures on stderr. Returns a process exit code (0 ok,
/// 2 on write failure) so mains can `return write_results_file(...)`.
[[nodiscard]] int write_results_file(const std::string& path, const Json& doc);

/// Read and parse a JSON document from `path`. Throws std::runtime_error on
/// I/O or parse failure.
[[nodiscard]] Json read_json_file(const std::string& path);

}  // namespace lmr::bench
