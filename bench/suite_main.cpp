/// \file suite_main.cpp
/// `bench_suite` — run the scenario-family benchmark suite and write the
/// tracked results file (see EXPERIMENTS.md "Benchmark suite").
///
///   bench_suite [--smoke] [--out PATH] [--family NAME]... [--threads N]
///               [--no-drc] [--scaling] [--edit-storm] [--list]
///
/// Exit code 0 when every case is ok (matched where expected, DRC-clean).
/// `--scaling` additionally sweeps thread counts over the parallelism
/// workloads (`large_group`, `multi_group`, `mega_board`) and attaches the
/// speedup curve to the result document under `"scaling"` (volatile:
/// timing-only);
/// `--edit-storm` replays the seeded edit scripts on live sessions under
/// `"edit_storm"` and *fails the run* unless every incremental end state is
/// bit-identical to a fresh route of the edited board; `--service` replays
/// the multi-board service_storm streams through a RoutingService at every
/// default scaling thread count under `"service"`, with the same hard
/// bit-identical-per-board gate (evictions and thaws included);
/// `--fault-storm` replays the seeded fault_storm catalogue (transient
/// faults, deadline timeouts, quarantine + resurrect) at the same thread
/// counts under `"fault_storm"` and fails unless every board converges to
/// the fault-free end state and each storm's fault gates fired
/// (`--seed N` re-seeds the rule synthesis for reproduction).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_harness/report.hpp"
#include "bench_harness/suite.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--smoke] [--out PATH] [--family NAME]... [--threads N] [--no-drc] "
      "[--scaling] [--edit-storm] [--service] [--fault-storm] "
      "[--seed N] [--list]\n"
      "  --smoke        tiny per-family variants (CI-sized seeds)\n"
      "  --out PATH     results file (default BENCH_results.json)\n"
      "  --family NAME  run only this family (repeatable; default all)\n"
      "  --threads N    pool parallelism across cases/groups/members (0 = hardware)\n"
      "  --no-drc       skip the final oracle sweep\n"
      "  --scaling      also sweep thread counts on large_group/multi_group/\n"
      "                 mega_board (speedup curve)\n"
      "  --edit-storm   also replay seeded edit scripts on live sessions; fails\n"
      "                 unless each end state matches a fresh route bit for bit\n"
      "  --service      also replay multi-board service storms through a\n"
      "                 RoutingService at 1/2/4/hw threads; fails unless every\n"
      "                 board's end state matches a fresh route bit for bit\n"
      "  --fault-storm  also replay fault-injected service storms (transient,\n"
      "                 timeout, quarantine kinds) at 1/2/4/hw threads; fails\n"
      "                 unless every board converges to the fault-free end state\n"
      "                 and each storm's fault gates fired\n"
      "  --seed N       re-seed the fault-storm rule synthesis (reproduction)\n"
      "  --list         print family names and exit\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  lmr::bench::SuiteOptions opts;
  std::string out_path = "BENCH_results.json";
  bool scaling = false;
  bool edit_storm = false;
  bool service = false;
  bool fault_storm = false;
  std::uint64_t fault_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--scaling") {
      scaling = true;
    } else if (arg == "--edit-storm") {
      edit_storm = true;
    } else if (arg == "--service") {
      service = true;
    } else if (arg == "--fault-storm") {
      fault_storm = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-drc") {
      opts.run_drc = false;
    } else if (arg == "--list") {
      for (const std::string& name : lmr::scenario::family_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--family" && i + 1 < argc) {
      opts.families.emplace_back(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  const lmr::bench::Suite suite(opts);
  lmr::bench::SuiteResult result;
  try {
    result = suite.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "suite failed: %s\n", e.what());
    return 2;
  }

  std::printf("%-16s %-24s %-5s %-8s %-8s %-8s %-6s %-5s %-8s\n", "family", "scenario",
              "seed", "MaxIni%", "Max%", "Avg%", "drc", "ok", "t[s]");
  for (const lmr::bench::CaseOutcome& c : result.cases) {
    double max_ini = 0.0, max_e = 0.0, avg_sum = 0.0;
    std::size_t members = 0, viol = 0;
    for (const lmr::bench::GroupOutcome& g : c.groups) {
      max_ini = std::max(max_ini, g.initial_max_error_pct);
      max_e = std::max(max_e, g.max_error_pct);
      avg_sum += g.avg_error_pct * static_cast<double>(g.members);
      members += g.members;
      viol += g.net_violations + g.cross_violations;
    }
    const double avg_e = members > 0 ? avg_sum / static_cast<double>(members) : 0.0;
    std::printf("%-16s %-24s %-5llu %-8.2f %-8.2f %-8.2f %-6zu %-5s %-8.2f\n",
                c.family.c_str(), c.scenario.c_str(),
                static_cast<unsigned long long>(c.seed), max_ini, max_e, avg_e, viol,
                c.ok() ? "yes" : "NO", c.runtime_s);
  }
  std::printf("total: %zu cases in %.2f s\n", result.cases.size(), result.runtime_s);

  lmr::bench::Json doc = lmr::bench::Suite::to_json(result, opts);

  if (scaling) {
    const std::vector<std::size_t> counts = lmr::bench::Suite::default_scaling_threads();
    std::vector<lmr::bench::ScalingCurve> curves;
    try {
      curves = lmr::bench::Suite::run_scaling(
          opts, {"large_group", "multi_group", "mega_board"}, counts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scaling sweep failed: %s\n", e.what());
      return 2;
    }
    std::printf("\nscaling sweep (speedup vs 1 thread):\n");
    std::printf("%-16s %-8s %-10s %-8s\n", "family", "threads", "t[s]", "speedup");
    for (const lmr::bench::ScalingCurve& c : curves) {
      for (const lmr::bench::ScalingPoint& p : c.points) {
        std::printf("%-16s %-8zu %-10.3f %-8.2f\n", c.family.c_str(), p.threads,
                    p.runtime_s, p.speedup);
      }
    }
    doc["scaling"] = lmr::bench::Suite::scaling_json(curves);
  }

  bool storms_ok = true;
  if (edit_storm) {
    std::vector<lmr::bench::EditStormOutcome> storms;
    try {
      storms = suite.run_edit_storm();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "edit-storm replay failed: %s\n", e.what());
      return 2;
    }
    std::printf("\nedit storms (incremental reroute vs fresh route of edited board):\n");
    std::printf("%-28s %-6s %-10s %-6s %-10s %-10s %-8s %-5s\n", "storm", "edits",
                "rerouted", "total", "reroute[s]", "full[s]", "speedup", "eq");
    for (const lmr::bench::EditStormOutcome& s : storms) {
      std::printf("%-28s %-6zu %-10zu %-6zu %-10.3f %-10.3f %-8.2f %-5s\n",
                  s.name.c_str(), s.edits, s.rerouted_total, s.groups_total,
                  s.reroute_total_s, s.full_route_s, s.speedup,
                  s.equivalent ? "yes" : "NO");
      if (!s.equivalent) {
        std::fprintf(stderr, "edit storm %s NOT equivalent to fresh route: %s\n",
                     s.name.c_str(), s.mismatch.c_str());
        storms_ok = false;
      }
    }
    doc["edit_storm"] = lmr::bench::Suite::edit_storm_json(storms);
  }

  if (service) {
    std::vector<lmr::bench::ServiceStormOutcome> storms;
    try {
      storms = suite.run_service(lmr::bench::Suite::default_scaling_threads());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "service replay failed: %s\n", e.what());
      return 2;
    }
    std::printf("\nservice storms (multi-board replay through RoutingService):\n");
    std::printf("%-24s %-8s %-8s %-10s %-10s %-8s %-8s %-7s %-6s %-5s\n", "storm",
                "threads", "events", "replay[s]", "edits/s", "batches", "coalsc",
                "maxq", "thaws", "eq");
    for (const lmr::bench::ServiceStormOutcome& s : storms) {
      for (const lmr::bench::ServiceThreadPoint& p : s.points) {
        std::printf("%-24s %-8zu %-8zu %-10.3f %-10.1f %-8llu %-8llu %-7llu %-6llu %-5s\n",
                    s.name.c_str(), p.threads, s.events, p.replay_s, p.edits_per_s,
                    static_cast<unsigned long long>(p.batches),
                    static_cast<unsigned long long>(p.coalesced_batches),
                    static_cast<unsigned long long>(p.max_queue_depth),
                    static_cast<unsigned long long>(p.thaws),
                    p.all_equivalent ? "yes" : "NO");
        for (const lmr::bench::ServiceBoardOutcome& b : p.boards) {
          if (b.equivalent) continue;
          std::fprintf(stderr,
                       "service storm %s @%zu threads: board %s NOT equivalent: %s\n",
                       s.name.c_str(), p.threads, b.board.c_str(), b.mismatch.c_str());
          storms_ok = false;
        }
      }
    }
    doc["service"] = lmr::bench::Suite::service_json(storms);
  }

  if (fault_storm) {
    std::vector<lmr::bench::FaultStormOutcome> storms;
    try {
      storms = suite.run_fault_storm(lmr::bench::Suite::default_scaling_threads(),
                                     fault_seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fault-storm replay failed: %s\n", e.what());
      return 2;
    }
    std::printf("\nfault storms (fault-injected replay through RoutingService):\n");
    std::printf("%-28s %-8s %-8s %-8s %-8s %-6s %-6s %-6s %-5s %-5s\n", "storm",
                "threads", "retries", "tmouts", "faults", "quar", "resur", "drop",
                "gate", "eq");
    for (const lmr::bench::FaultStormOutcome& s : storms) {
      for (const lmr::bench::FaultThreadPoint& p : s.points) {
        std::printf("%-28s %-8zu %-8llu %-8llu %-8llu %-6llu %-6llu %-6llu %-5s %-5s\n",
                    s.name.c_str(), p.threads,
                    static_cast<unsigned long long>(p.retries),
                    static_cast<unsigned long long>(p.timeouts),
                    static_cast<unsigned long long>(p.injected_faults),
                    static_cast<unsigned long long>(p.quarantines),
                    static_cast<unsigned long long>(p.resurrections),
                    static_cast<unsigned long long>(p.dropped_edits),
                    p.gates_ok ? "yes" : "NO", p.all_equivalent ? "yes" : "NO");
        if (!p.gates_ok) {
          std::fprintf(stderr, "fault storm %s @%zu threads: fault gates missed\n",
                       s.name.c_str(), p.threads);
          storms_ok = false;
        }
        for (const lmr::bench::FaultBoardOutcome& b : p.boards) {
          if (b.equivalent && b.prefix_equivalent && b.recovered) continue;
          std::fprintf(stderr,
                       "fault storm %s @%zu threads: board %s %s%s%s: %s\n",
                       s.name.c_str(), p.threads, b.board.c_str(),
                       b.equivalent ? "" : "NOT equivalent ",
                       b.prefix_equivalent ? "" : "prefix mismatch ",
                       b.recovered ? "" : "NOT recovered", b.mismatch.c_str());
          storms_ok = false;
        }
      }
    }
    doc["fault_storm"] = lmr::bench::Suite::fault_storm_json(storms);
  }

  const int write_rc = lmr::bench::write_results_file(out_path, doc);
  if (write_rc != 0) return write_rc;
  return result.all_ok() && storms_ok ? 0 : 1;
}
