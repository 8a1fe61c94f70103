/// \file main.cpp
/// lmr_perfbench — the router's end-to-end benchmark.
///
///   lmr_perfbench --workload <mega_board|paper_boards|service_stream>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--trace-out <dir>] [--corrupt-digest]
///
/// Prints summary lines ("# ...") and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
/// run first repeats the workload untraced, each pass taking half of
/// --seconds, so the tracing overhead is the difference between the passes; it writes the spans as Chrome
/// trace-event JSON plus a per-span profile into --trace-out. Exit status:
/// 0 when every correctness gate held, 1 when one failed, 2 on bad usage.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::RunResult;
using perfbench::Tracer;

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

// Every metric the benchmark emits, in output order. BENCHMARK.json lists
// the same names; perfbench/selfcheck.py keeps the two in agreement.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", false},         {"nets_per_s", "1/s", true},
    {"nets_per_s_1t", "1/s", true},  {"edit_p50_ms", "ms", false},
    {"edit_tail_ms", "ms", false},   {"edits_per_s", "1/s", true},
    {"peak_rss_mb", "MB", false},
};

// Layers a workload does not exercise (pairs on mega_board, the service
// tier outside service_stream, ...) report 0.
constexpr MetricSpec kPerLayer[] = {
    {"scenario.gen_s", "s", false},
    {"pipeline.route_board_s", "s", false},
    {"pipeline.extend_work_s", "s", false},
    {"pipeline.drc_net_work_s", "s", false},
    {"pipeline.drc_barrier_s", "s", false},
    {"pipeline.tiles", "count", true},
    {"pipeline.straddlers", "count", false},
    {"pipeline.affected_s", "s", false},
    {"pipeline.reroute_s", "s", false},
    {"pipeline.rerouted_frac", "ratio", false},
    {"session.apply_s", "s", false},
    {"session.board_sweep_s", "s", false},
    {"session.thaw_s", "s", false},
    {"core.env_build_s", "s", false},
    {"core.extend_s", "s", false},
    {"core.dp_runs", "count", false},
    {"core.segments", "count", false},
    {"core.patterns", "count", false},
    {"core.patterns_per_dp_run", "ratio", true},
    {"core.reached_frac", "ratio", true},
    {"dtw.merge_s", "s", false},
    {"dtw.restore_s", "s", false},
    {"dtw.skew_s", "s", false},
    {"layout.check_trace_s", "s", false},
    {"layout.check_obstacles_s", "s", false},
    {"layout.obstacles_scanned", "refs/trace", false},
    {"layout.check_containment_s", "s", false},
    {"layout.index_insert_s", "s", false},
    {"layout.index_sweep_s", "s", false},
    {"layout.apply_edit_s", "s", false},
    {"service.submit_s", "s", false},
    {"service.queue_wait_ms", "ms", false},
    {"service.queue_wait_max_ms", "ms", false},
    {"service.apply_s", "s", false},
    {"service.edits_per_batch", "ratio", true},
    {"service.coalesced_frac", "ratio", true},
    {"service.thaws", "count", false},
    {"service.evictions", "count", false},
    {"service.retries", "count", false},
    {"service.shed", "count", false},
    {"exec.cpu_util", "ratio", true},
    {"bench.trace_overhead_frac", "ratio", false},
    {"max_error_pct", "%", false},
    {"avg_error_pct", "%", false},
    {"failed_frac", "ratio", false},
    {"drc_violations", "count", false},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lmr_perfbench: %s\n"
               "usage: lmr_perfbench --workload <mega_board|paper_boards|service_stream>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]"
               " [--corrupt-digest]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-digest") {
      a.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) return false;
    } else if (k == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      a.trace = t == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return true;
}

using WorkloadFn = void (*)(const Args&, Tracer&, RunResult&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "mega_board") return perfbench::run_mega_board;
  if (name == "paper_boards") return perfbench::run_paper_boards;
  if (name == "service_stream") return perfbench::run_service_stream;
  return nullptr;
}

void print_metric(bool& first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name,
              std::isfinite(value) ? value : 0.0, unit);
  first = false;
}

/// Per-span total/self/count profile plus the per-metric tracing overhead.
bool write_profile(const std::string& path, const Args& args, const Tracer& tr,
                   const RunResult& plain, const RunResult& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g,\n \"spans\": {",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds);
  bool first = true;
  for (const auto& [name, s] : tr.aggregate()) {
    std::fprintf(f, "%s\n  \"%s\": {\"total_s\": %.9g, \"self_s\": %.9g, \"count\": %llu}",
                 first ? "" : ",", name.c_str(), s.total_s, s.self_s,
                 static_cast<unsigned long long>(s.count));
    first = false;
  }
  std::fputs("},\n \"overhead\": {", f);
  first = true;
  for (const MetricSpec& m : kEndToEnd) {
    const double u = plain.e2e.at(m.name).value;
    const double t = traced.e2e.at(m.name).value;
    std::fprintf(f, "%s\n  \"%s\": {\"untraced\": %.9g, \"traced\": %.9g}", first ? "" : ",",
                 m.name, u, t);
    first = false;
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

/// Median over the end-to-end metrics of how much worse the traced pass
/// read than the untraced one, as a fraction of the untraced value.
double trace_overhead(const RunResult& plain, const RunResult& traced) {
  std::vector<double> worse;
  for (const MetricSpec& m : kEndToEnd) {
    const double u = plain.e2e.at(m.name).value;
    const double t = traced.e2e.at(m.name).value;
    if (u == 0.0) continue;
    worse.push_back((m.higher_is_better ? u - t : t - u) / u);
  }
  return perfbench::median(worse);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  const WorkloadFn run = find_workload(args.workload);
  if (run == nullptr) return usage("unknown workload");

  RunResult plain;
  RunResult traced;
  try {
    // A traced run makes its two passes in the time of one untraced run.
    Args pass = args;
    if (args.trace) pass.seconds = args.seconds / 2.0;
    Tracer off(false);
    run(pass, off, plain);
    if (args.trace) {
      Tracer on(true);
      run(pass, on, traced);
      traced.layer("bench.trace_overhead_frac", trace_overhead(plain, traced), "ratio");
      const std::string stem =
          args.trace_out + "/" + args.workload + "-seed" + std::to_string(args.seed);
      if (!on.write_chrome(stem + ".trace.json") ||
          !write_profile(stem + ".profile.json", args, on, plain, traced)) {
        std::fprintf(stderr, "lmr_perfbench: cannot write %s.*\n", stem.c_str());
        return 1;
      }
      std::printf("# trace written to %s.trace.json (profile: %s.profile.json)\n",
                  stem.c_str(), stem.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmr_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const RunResult& shown = args.trace ? traced : plain;
  const bool correct = plain.correct && (!args.trace || traced.correct);
  std::printf("# workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : shown.notes) std::printf("# %s\n", line.c_str());
  const double failed_frac =
      static_cast<double>(shown.failed) / static_cast<double>(std::max<std::uint64_t>(shown.attempted, 1));
  std::printf("# failed %llu of %llu operations (failed_frac %.6g), drc_violations %llu\n",
              static_cast<unsigned long long>(shown.failed),
              static_cast<unsigned long long>(shown.attempted), failed_frac,
              static_cast<unsigned long long>(shown.drc_violations));
  for (const RunResult* r : {&plain, &traced}) {
    for (const std::string& g : r->gate_failures) std::printf("# GATE FAILED: %s\n", g.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(shown.attempted),
              static_cast<unsigned long long>(shown.failed));
  bool first = true;
  if (args.trace) {
    traced.layer("failed_frac", failed_frac, "ratio");
    traced.layer("drc_violations", static_cast<double>(traced.drc_violations), "count");
    for (const MetricSpec& m : kPerLayer) {
      const auto it = shown.layers.find(m.name);
      print_metric(first, m.name, it == shown.layers.end() ? 0.0 : it->second.value, m.unit);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      print_metric(first, m.name, shown.e2e.at(m.name).value, m.unit);
    }
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
