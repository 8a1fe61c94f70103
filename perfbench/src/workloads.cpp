#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layout/board_edit.hpp"
#include "pipeline/session.hpp"
#include "replay.hpp"
#include "scenario/edit_storm.hpp"
#include "scenario/scenario_families.hpp"
#include "scenario/service_storm.hpp"
#include "service/routing_service.hpp"
#include "workload/synth.hpp"

namespace perfbench {

namespace {

using lmr::core::now;
using lmr::core::seconds_since;
namespace exec = lmr::exec;
namespace layout = lmr::layout;
namespace pipeline = lmr::pipeline;
namespace scenario = lmr::scenario;
namespace service = lmr::service;

constexpr int kSetupReps = 5;        ///< set-up repetitions (median reported)
constexpr std::size_t kMinRounds = 3;  ///< measurement rounds per run, at least
constexpr std::size_t kMaxRounds = 400;
constexpr std::size_t kMinReplays = 2;  ///< whole replays of the edit script, at least
/// Rounds per 1-thread cold route. Its thread CPU time varies little, so a
/// few samples give a steady median, and the time goes to the all-core
/// routes and the edits, whose run times vary more and need many samples.
constexpr std::size_t kOneThreadEvery = 4;

/// Closed-loop edit scripts have a fixed length, so every run of a seed
/// attempts the same operations and the tail percentile is the same one:
/// mega_board 100 edits (tail p90), paper_boards 25 per edited board, 200
/// in all (tail p95). Each round applies the next slice of the script.
constexpr int kMegaEdits = 100;
constexpr std::size_t kMegaEditsPerRound = 20;
constexpr int kPaperEditsPerBoard = 25;
constexpr std::size_t kPaperEditsPerRound = 40;

/// service_stream shares of --seconds: cold routes (one block before the
/// service phases and one after), then the open-loop phase.
constexpr double kServiceColdShare = 0.18;
constexpr double kServiceOpenShare = 0.5;

/// Paper-scale families: every standard family but the mega board, each
/// generator case reseeded this many times (the fixed Table I cases once).
constexpr int kPaperReseeds = 4;
/// Paper-scale boards that also take a closed-loop edit script, served by
/// one RoutingService, and the idle-eviction period in edits (every board
/// thaws once per ten of its edits).
constexpr int kPaperEditBoards = 8;
constexpr std::size_t kPaperEvictEvery = 10 * kPaperEditBoards;

/// Service tier, on the storm catalogue's small multi_group / mixed_se_diff
/// boards (routing work per edit is small). The open-loop offered rate is
/// far below the full-speed throughput (about 1.3k edits/s), so latency is
/// service time rather than queueing, and low enough that a run of up to
/// 33 s stays under 1000 open-loop edits (tail = p95, not the noisier
/// p99). The full-speed phase holds a fixed number of edits per --seconds,
/// run as equal bursts (submit all, drain) whose median throughput is
/// reported.
/// The board count follows from the edit count: scripts stay short because
/// long ones drift every group target far past corridor capacity, which
/// makes later edits ever more expensive and the stream non-stationary.
/// One idle-eviction sweep halfway through the open loop thaws about one
/// edit in ten, so the tail percentile sits inside the thaws and p50 does
/// not.
constexpr double kServiceRate = 60.0;
constexpr int kEvictSweeps = 1;
constexpr double kFullSpeedEditsPerSecond = 90.0;
constexpr std::size_t kFullSpeedBursts = 6;
constexpr int kServiceScriptEdits = 40;
constexpr double kPollPeriod_s = 200e-6;  ///< open-loop completion polling

struct Rep {
  double wall_s = 0.0;
  double run_s = 0.0;         ///< wall time less steal (HostTimer)
  double cpu_s = 0.0;         ///< process CPU time
  double thread_cpu_s = 0.0;  ///< CPU time of the calling thread
  std::uint64_t digest = 0;
};

/// Repeated cold routes of one thread setting.
struct ColdPhase {
  std::vector<double> wall_s;
  std::vector<double> run_s;
  std::vector<double> thread_cpu_s;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> digests;
  void add(const Rep& r) {
    wall_s.push_back(r.wall_s);
    run_s.push_back(r.run_s);
    thread_cpu_s.push_back(r.thread_cpu_s);
    cpu_s += r.cpu_s;
    digests.push_back(r.digest);
  }
};

/// Alternate all-core and 1-thread cold routes until `budget_s` is spent.
template <class AllFn, class OneFn>
void cold_rounds(double budget_s, ColdPhase& all, ColdPhase& one, AllFn&& route_all,
                 OneFn&& route_1t) {
  const auto t0 = now();
  for (std::size_t r = 0; r < kMinRounds || (r < kMaxRounds && seconds_since(t0) < budget_s);
       ++r) {
    all.add(route_all());
    one.add(route_1t());
  }
}

/// mega_board / paper_boards measure in rounds until the budget is spent:
/// one all-core cold route, the next slice of the closed-loop edit script
/// and, every kOneThreadEvery rounds, one 1-thread cold route per round,
/// so every metric samples the whole run (the host's speed drifts on a
/// scale of seconds). The script is replayed whole, again and again, each
/// time from the same thawed start, so every edit is identical,
/// deterministic work in every replay. An edit's latency is its median over
/// the replays, each sample scaled by the run share (HostTimer) of the
/// slice it was timed in: a single edit is too short for the host's
/// steal counters, which tick in hundredths of a second.
class Replays {
 public:
  explicit Replays(std::size_t edits) : samples_ms_(edits) {}

  /// Start another round? At least kMinRounds rounds and kMinReplays whole
  /// replays, then until the budget is spent.
  bool next_round(double budget_s) {
    const bool more = round_ < kMinRounds || full_ < kMinReplays ||
                      (round_ < kMaxRounds && seconds_since(t0_) < budget_s);
    if (more) ++round_;
    return more;
  }
  /// Index of the current round, from 0.
  [[nodiscard]] std::size_t round() const { return round_ - 1; }
  /// Does the current round take a 1-thread cold route?
  [[nodiscard]] bool one_thread_round() const { return round() % kOneThreadEvery == 0; }

  /// Index into the script of the edit to apply next.
  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  /// Move past edit cursor(); returns true when that edit ended a replay.
  bool advance() {
    if (++cursor_ < samples_ms_.size()) return false;
    cursor_ = 0;
    ++full_;
    return true;
  }
  [[nodiscard]] std::size_t full_replays() const { return full_; }

  /// Time one slice of edits: `time(i)` applies edit i and returns its wall
  /// latency in ms, or nothing when it was lost; `ended()` runs (untimed
  /// work included in the slice) whenever an edit ends a replay.
  template <class TimeFn, class EndFn>
  void slice(std::size_t edits, TimeFn&& time, EndFn&& ended) {
    std::vector<std::pair<std::size_t, double>> timed;
    const HostTimer timer;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t i = cursor_;
      if (const std::optional<double> ms = time(i)) timed.emplace_back(i, *ms);
      if (advance()) ended();
    }
    const double share = timer.run_share();
    for (const auto& [i, ms] : timed) samples_ms_[i].push_back(ms * share);
  }

  /// Median latency of every edit that was measured at least once.
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const std::vector<double>& s : samples_ms_) {
      if (!s.empty()) v.push_back(median(s));
    }
    return v;
  }

 private:
  lmr::core::Clock::time_point t0_ = now();
  std::vector<std::vector<double>> samples_ms_;
  std::size_t cursor_ = 0;
  std::size_t full_ = 0;
  std::size_t round_ = 0;
};

/// One closed-loop edit, timed until the re-swept board is visible.
double timed_edit(Tracer& tr, pipeline::Session& session, const layout::BoardEdit& edit) {
  const auto t0 = now();
  {
    auto s = tr.span("session.apply");
    (void)session.apply(edit);
  }
  {
    auto s = tr.span("session.board_sweep");
    (void)session.board_clearance();
  }
  return 1e3 * seconds_since(t0);
}

double mean_span_s(const Tracer& tr, const char* name) {
  const auto agg = tr.aggregate();
  const auto it = agg.find(name);
  return it == agg.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s / static_cast<double>(it->second.count);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One closed-loop edit through the service: submitted, then timed until
/// the service is idle again, which is when the re-swept board is visible.
/// The wait is drain(), which runs pool tasks on this thread and sleeps when
/// there are none, so the waiting thread takes no core from the workers.
/// Returns the latency in ms, or nothing when the edit was shed or its
/// board failed (the failure is counted in `out.failed` by the caller).
std::optional<double> timed_service_edit(Tracer& tr, service::RoutingService& svc,
                                         const std::string& id, const layout::BoardEdit& edit) {
  const auto t0 = now();
  service::SubmitResult res;
  {
    auto s = tr.span("service.submit");
    res = svc.submit(id, edit);
  }
  if (!res.accepted()) return std::nullopt;
  try {
    svc.drain();
  } catch (const service::ServiceError&) {
    return std::nullopt;
  }
  const double ms = 1e3 * seconds_since(t0);
  const service::BoardStats st = svc.stats(id);
  if (st.applied < res.ordinal) return std::nullopt;
  return ms;
}

/// The service layer's per-layer metrics, from its counters.
void report_service_layers(RunResult& out, const Tracer& tr, const service::RoutingService& svc) {
  double wait_s = 0.0;
  double wait_max_s = 0.0;
  double apply_s = 0.0;
  std::uint64_t retries = 0;
  for (const service::BoardId& id : svc.board_ids()) {
    const service::BoardStats st = svc.stats(id);
    wait_s += st.dispatch_wait_s;
    wait_max_s = std::max(wait_max_s, st.max_dispatch_wait_s);
    apply_s += st.apply_s;
    retries += st.retries;
  }
  const service::ServiceTotals totals = svc.totals();
  const auto applied = static_cast<double>(totals.applied);
  const auto batches = static_cast<double>(totals.batches);
  out.layer("service.submit_s", mean_span_s(tr, "service.submit"), "s");
  out.layer("service.queue_wait_ms", 1e3 * ratio(wait_s, applied), "ms");
  out.layer("service.queue_wait_max_ms", 1e3 * wait_max_s, "ms");
  out.layer("service.apply_s", ratio(apply_s, batches), "s");
  out.layer("service.edits_per_batch", ratio(applied, batches), "ratio");
  out.layer("service.coalesced_frac", ratio(static_cast<double>(totals.coalesced_batches), batches),
            "ratio");
  out.layer("service.thaws", static_cast<double>(totals.thaws), "count");
  out.layer("service.evictions", static_cast<double>(totals.evictions), "count");
  out.layer("service.retries", static_cast<double>(retries), "count");
  out.layer("service.shed", static_cast<double>(totals.shed), "count");
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return t;
}

/// One timed cold route of a fresh copy of every board: side by side on
/// `pool` (up to `threads` boards at once) when given, else serially. The
/// routed copies are left in `ls` / `rs`.
Rep route_boards(Tracer& tr, const char* span, exec::TaskPool* pool, std::size_t threads,
                 const std::vector<std::unique_ptr<pipeline::Router>>& routers,
                 const std::vector<const layout::Layout*>& pristine,
                 std::vector<layout::Layout>& ls, std::vector<pipeline::BoardRoute>& rs) {
  const std::size_t n = pristine.size();
  ls.clear();
  for (const layout::Layout* l : pristine) ls.push_back(*l);
  rs.assign(n, pipeline::BoardRoute{});
  const double c0 = cpu_seconds();
  const double tc0 = thread_cpu_seconds();
  const HostTimer timer;
  {
    auto s = tr.span(span);
    if (pool != nullptr) {
      exec::parallel_for_dynamic(*pool, n, threads, [&](std::size_t i) {
        rs[i] = routers[i]->route_board(ls[i]);
      });
    } else {
      for (std::size_t i = 0; i < n; ++i) rs[i] = routers[i]->route_board(ls[i]);
    }
  }
  Rep rep{timer.wall_s(), timer.run_s(), cpu_seconds() - c0, thread_cpu_seconds() - tc0, 0};
  for (std::size_t i = 0; i < n; ++i) rep.digest = digest_combine(rep.digest, digest(ls[i], rs[i]));
  return rep;
}

/// Aggregate RouteResult work fields over the all-core cold routes.
struct RouteWork {
  double extend_s = 0.0;
  double drc_net_s = 0.0;
  double drc_barrier_s = 0.0;
  void add(const pipeline::BoardRoute& br) {
    for (const pipeline::RouteResult& rr : br.results) {
      extend_s += rr.extend_runtime_s;
      drc_net_s += rr.drc_overlap_runtime_s;
      drc_barrier_s += rr.drc_barrier_runtime_s;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Determinism gates: every repetition, at all cores and at 1 thread,
/// routes to the same geometry digest.
void gate_digests(const Args& args, ColdPhase& all, const ColdPhase& one, RunResult& out) {
  if (args.corrupt_digest && all.digests.size() > 1) all.digests[1] ^= 1;
  const std::uint64_t ref = all.digests.front();
  const auto same = [ref](const ColdPhase& p) {
    return std::all_of(p.digests.begin(), p.digests.end(),
                       [ref](std::uint64_t d) { return d == ref; });
  };
  out.gate(same(all), "routed-geometry digest differs between all-core repetitions");
  out.gate(same(one), "routed-geometry digest differs between 1 thread and all cores");
  out.note("digest " + hex(ref) + " over " + std::to_string(all.digests.size()) +
           " all-core and " + std::to_string(one.digests.size()) + " 1-thread routes");
  const auto samples = [&out](const std::string& what, const std::vector<double>& v) {
    std::string line = what + ", in run order:";
    char buf[16];
    for (const double x : v) {
      std::snprintf(buf, sizeof buf, " %.4f", x);
      line += buf;
    }
    out.note(line);
  };
  samples("all-core cold route wall s", all.wall_s);
  samples("all-core cold route run s (wall less steal)", all.run_s);
  samples("1-thread cold route wall s", one.wall_s);
  samples("1-thread cold route thread CPU s", one.thread_cpu_s);
}

void gate_equivalent(RunResult& out, const layout::Layout& a, const pipeline::BoardRoute& ra,
                     const layout::Layout& b, const pipeline::BoardRoute& rb,
                     const std::string& what) {
  std::string why;
  out.gate(pipeline::routes_equivalent(a, ra, b, rb, &why), what + ": " + why);
}

std::uint64_t route_violations(const pipeline::BoardRoute& br) {
  std::uint64_t n = 0;
  for (const pipeline::RouteResult& rr : br.results) n += rr.violation_count();
  return n;
}


/// The end-to-end metrics every workload reports.
void report_e2e(RunResult& out, double setup_s, std::size_t nets, const ColdPhase& all,
                const ColdPhase& one, const std::vector<double>& edit_ms,
                double edits_per_s, const Quality& q) {
  const Tail t = tail(edit_ms);
  out.set("setup_s", setup_s, "s");
  // Times are medians over the run, with the host's steal taken out: the
  // all-core route's run time (HostTimer), and the 1-thread route's CPU
  // time, as it runs on the calling thread alone. Raw wall time would also
  // count the stretches the hypervisor gives the virtual CPUs to other
  // tenants, which on a shared host move a route by up to ~1.5x.
  out.set("nets_per_s", static_cast<double>(nets) / median(all.run_s), "1/s");
  out.set("nets_per_s_1t", static_cast<double>(nets) / median(one.thread_cpu_s), "1/s");
  out.set("edit_p50_ms", median(edit_ms), "ms");
  out.set("edit_tail_ms", t.value, "ms");
  out.set("edits_per_s", edits_per_s, "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  // Eq. 19 quality is deterministic per seed and reads ~0 % wherever every
  // group matches (mega_board): it is reported with the per-layer set.
  out.layer("max_error_pct", q.max_error_pct, "%");
  out.layer("avg_error_pct", q.avg_error_pct(), "%");
  char buf[200];
  std::snprintf(buf, sizeof buf, "edit_tail_ms is p%g over %zu edits (%zu beyond it)",
                t.percentile, edit_ms.size(), t.beyond);
  out.note(buf);
  if (!edit_ms.empty()) {
    std::vector<double> v = edit_ms;
    std::sort(v.begin(), v.end());
    const auto at = [&](double p) {
      return v[std::min(v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())))];
    };
    std::snprintf(buf, sizeof buf,
                  "edit latency ms: min %.3g p25 %.3g p50 %.3g p75 %.3g p90 %.3g p95 %.3g "
                  "p99 %.3g max %.3g",
                  v.front(), at(0.25), at(0.5), at(0.75), at(0.9), at(0.95), at(0.99), v.back());
    out.note(buf);
  }
  std::snprintf(buf, sizeof buf, "max_error_pct %.6g %%, avg_error_pct %.6g %%",
                q.max_error_pct, q.avg_error_pct());
  out.note(buf);
}

/// Per-layer metrics shared by every workload: the traced cold routes, the
/// decomposed replay, and the whole-process counters.
void report_layers(RunResult& out, const Tracer& tr, const ColdPhase& all,
                   const RouteWork& work, const ReplayCounters& c, std::size_t threads) {
  const double reps = static_cast<double>(all.wall_s.size());
  out.layer("scenario.gen_s", mean_span_s(tr, "scenario.gen"), "s");
  out.layer("pipeline.route_board_s", mean_span_s(tr, "pipeline.route_board"), "s");
  out.layer("pipeline.extend_work_s", work.extend_s / reps, "s");
  out.layer("pipeline.drc_net_work_s", work.drc_net_s / reps, "s");
  out.layer("pipeline.drc_barrier_s", work.drc_barrier_s / reps, "s");
  out.layer("pipeline.tiles", static_cast<double>(c.tiles), "count");
  out.layer("pipeline.straddlers", static_cast<double>(c.straddlers), "count");
  out.layer("pipeline.affected_s", mean_span_s(tr, "pipeline.affected"), "s");
  out.layer("pipeline.reroute_s", mean_span_s(tr, "pipeline.reroute"), "s");
  out.layer("pipeline.rerouted_frac",
            ratio(static_cast<double>(c.rerouted_groups), static_cast<double>(c.groups_seen)),
            "ratio");
  out.layer("session.apply_s", mean_span_s(tr, "session.apply"), "s");
  out.layer("session.board_sweep_s", mean_span_s(tr, "session.board_sweep"), "s");
  out.layer("session.thaw_s", mean_span_s(tr, "session.thaw"), "s");
  out.layer("core.env_build_s", tr.total_s("core.env_build"), "s");
  out.layer("core.extend_s", tr.total_s("core.extend"), "s");
  out.layer("core.dp_runs", static_cast<double>(c.dp_runs), "count");
  out.layer("core.segments", static_cast<double>(c.segments), "count");
  out.layer("core.patterns", static_cast<double>(c.patterns), "count");
  out.layer("core.patterns_per_dp_run",
            ratio(static_cast<double>(c.patterns), static_cast<double>(c.dp_runs)), "ratio");
  out.layer("core.reached_frac",
            ratio(static_cast<double>(c.reached), static_cast<double>(c.members)), "ratio");
  out.layer("dtw.merge_s", tr.total_s("dtw.merge"), "s");
  out.layer("dtw.restore_s", tr.total_s("dtw.restore"), "s");
  out.layer("dtw.skew_s", tr.total_s("dtw.skew"), "s");
  out.layer("layout.check_trace_s", tr.total_s("layout.check_trace"), "s");
  out.layer("layout.check_obstacles_s", tr.total_s("layout.check_obstacles"), "s");
  out.layer("layout.obstacles_scanned",
            ratio(static_cast<double>(c.obstacles_scanned),
                  static_cast<double>(c.obstacle_checks)),
            "refs/trace");
  out.layer("layout.check_containment_s", tr.total_s("layout.check_containment"), "s");
  out.layer("layout.index_insert_s", tr.total_s("layout.index_insert"), "s");
  out.layer("layout.index_sweep_s", tr.total_s("layout.index_sweep"), "s");
  out.layer("layout.apply_edit_s", mean_span_s(tr, "layout.apply_edit"), "s");
  out.layer("exec.cpu_util", ratio(all.cpu_s, sum(all.wall_s) * static_cast<double>(threads)),
            "ratio");
}

}  // namespace

// ---------------------------------------------------------------------------
// mega_board: one 1k-net / 12k-obstacle board — cold routes at all cores and
// at 1 thread, a Session thawed from the first route, and a closed-loop edit
// script (one designer, one edit at a time, each timed until the re-swept
// board is visible), interleaved in rounds.
// ---------------------------------------------------------------------------
void run_mega_board(const Args& args, Tracer& tr, RunResult& out) {
  const double secs = args.seconds;
  const std::size_t threads = bench_threads();
  const scenario::Family fam = scenario::family("mega_board", false);
  scenario::EditStormCase sc;
  sc.name = "mega_board";
  sc.base = fam.cases.at(0);
  sc.base.seed = derive_seed(args.seed, "mega_board/board");
  sc.edits = kMegaEdits;
  sc.edit_seed = derive_seed(args.seed, "mega_board/edits");

  // Set-up, part 1: inputs and executor (repeated, median).
  std::optional<scenario::EditStorm> storm;
  std::unique_ptr<exec::TaskPool> pool;
  std::vector<double> gen_s;
  for (int r = 0; r < kSetupReps; ++r) {
    storm.reset();
    pool.reset();
    const HostTimer timer;
    {
      auto s = tr.span("scenario.gen");
      storm.emplace(scenario::materialize_storm(sc));
    }
    pool = std::make_unique<exec::TaskPool>(threads - 1);
    gen_s.push_back(timer.run_s());
  }
  const scenario::Scenario& base = storm->scenario;
  const std::size_t nets = net_count(base.layout);
  const pipeline::Router router_all(base.rules, router_options(base, threads, pool.get()));
  const pipeline::Router router_1t(base.rules, router_options(base, 1, nullptr));

  // Cold routes; the first all-core one is the Session's prior.
  std::optional<layout::Layout> routed;
  std::optional<pipeline::BoardRoute> prior;
  RouteWork work;
  const auto route_once = [&](const pipeline::Router& router, const char* span, bool all_core) {
    layout::Layout board = base.layout;
    pipeline::BoardRoute br;
    const double c0 = cpu_seconds();
    const double tc0 = thread_cpu_seconds();
    const HostTimer timer;
    {
      auto s = tr.span(span);
      br = router.route_board(board);
    }
    Rep rep{timer.wall_s(), timer.run_s(), cpu_seconds() - c0, thread_cpu_seconds() - tc0,
            digest(board, br)};
    if (all_core) {
      work.add(br);
      if (!prior) {
        routed.emplace(std::move(board));
        prior.emplace(std::move(br));
      }
    }
    return rep;
  };
  ColdPhase all;
  ColdPhase one;
  all.add(route_once(router_all, "pipeline.route_board", true));

  // Set-up, part 2: thaw the Session from the route (repeated, median).
  // The first board_clearance builds the board-wide index from scratch, so
  // it belongs to the thaw, not to the first edit. Every replay of the edit
  // script starts from such a thaw (untimed after the set-up).
  const auto thaw = [&] {
    auto s = tr.span("session.thaw");
    auto session = std::make_unique<pipeline::Session>(base.rules, router_all.options(),
                                                       layout::Layout(*routed),
                                                       pipeline::BoardRoute(*prior));
    (void)session->board_clearance();
    return session;
  };
  std::unique_ptr<pipeline::Session> session;
  std::vector<double> thaw_s;
  for (int r = 0; r < kSetupReps; ++r) {
    session.reset();
    const HostTimer timer;
    session = thaw();
    thaw_s.push_back(timer.run_s());
  }

  // Measurement rounds; the first one's all-core route is the one above.
  // `finished` is the first session to reach the end of the script.
  Replays replays(storm->edits.size());
  std::unique_ptr<pipeline::Session> finished;
  std::vector<std::uint64_t> end_digests;
  while (replays.next_round(secs)) {
    if (replays.round() > 0) all.add(route_once(router_all, "pipeline.route_board", true));
    if (replays.one_thread_round()) {
      one.add(route_once(router_1t, "pipeline.route_board_1t", false));
    }
    replays.slice(
        kMegaEditsPerRound,
        [&](std::size_t i) { return std::optional<double>(timed_edit(tr, *session, storm->edits[i])); },
        [&] {
          end_digests.push_back(digest(session->layout(), session->route_state()));
          if (!finished) finished = std::move(session);
          session = thaw();
        });
  }
  gate_digests(args, all, one, out);
  out.gate(std::all_of(end_digests.begin(), end_digests.end(),
                       [&](std::uint64_t d) { return d == end_digests.front(); }),
           "mega_board session end state differs between replays of the edit script");
  const std::span<const layout::BoardEdit> done(storm->edits);

  // Untimed oracle: the script applied to a fresh board, routed fresh.
  {
    scenario::Scenario fresh = scenario::materialize(sc.base);
    for (const layout::BoardEdit& e : done) layout::apply_edit(fresh.layout, e);
    const pipeline::BoardRoute fresh_route = router_all.route_board(fresh.layout);
    gate_equivalent(out, finished->layout(), finished->route_state(), fresh.layout, fresh_route,
                    "mega_board session end state differs from a fresh route");
  }

  Quality q;
  q.add(*prior, fam.max_error_gate_pct > 0.0);
  out.attempted = 1 + done.size();
  out.failed = case_ok(*prior, fam.max_error_gate_pct, sc.base.expect_drc_clean) ? 0 : 1;
  out.drc_violations = q.violations + route_violations(finished->route_state());
  const std::vector<double> edit_ms = replays.latencies_ms();
  report_e2e(out, median(gen_s) + median(thaw_s), nets, all, one, edit_ms,
             1e3 * static_cast<double>(edit_ms.size()) / sum(edit_ms), q);
  out.note("mega_board: " + std::to_string(nets) + " nets, " +
           std::to_string(base.layout.obstacle_count()) + " obstacles, " +
           std::to_string(done.size()) + " edits, " + std::to_string(replays.full_replays()) +
           " whole replays");
  if (!tr.enabled()) return;

  // Decomposed replay: the cold route member by member at one thread, then
  // the edit script through apply_edit -> affected_groups -> reroute.
  ReplayCounters c;
  layout::Layout board = base.layout;
  const pipeline::BoardRoute replayed = replay_route(router_1t, board, tr, c);
  gate_equivalent(out, board, replayed, *routed, *prior,
                  "mega_board decomposed replay differs from route_board");
  layout::Layout edited = *routed;
  const pipeline::BoardRoute replayed_edits = replay_edits(router_all, edited, *prior, done, tr, c);
  gate_equivalent(out, edited, replayed_edits, finished->layout(), finished->route_state(),
                  "mega_board edit replay differs from the session");
  report_layers(out, tr, all, work, c, threads);
}

// ---------------------------------------------------------------------------
// paper_boards: every paper-scale family reseeded from the run seed, routed
// case-parallel on one pool at all cores and serially at 1 thread, plus
// closed-loop edit scripts on some of the multi-group / mixed boards,
// interleaved in rounds.
// ---------------------------------------------------------------------------
void run_paper_boards(const Args& args, Tracer& tr, RunResult& out) {
  const double secs = args.seconds;
  const std::size_t threads = bench_threads();

  struct Case {
    std::string family;
    scenario::FamilyCase fc;
    double gate_pct = 0.0;
  };
  std::vector<Case> cases;
  std::vector<scenario::EditStormCase> storm_cases;
  std::vector<std::size_t> storm_case_index;  // storm k edits cases[storm_case_index[k]]
  for (const scenario::Family& fam : scenario::standard_families(false)) {
    if (fam.name == "mega_board") continue;
    for (std::size_t i = 0; i < fam.cases.size(); ++i) {
      const int reseeds = fam.cases[i].table1_case > 0 ? 1 : kPaperReseeds;
      for (int r = 0; r < reseeds; ++r) {
        Case c{fam.name, fam.cases[i], fam.max_error_gate_pct};
        if (c.fc.table1_case == 0) {
          c.fc.seed = derive_seed(args.seed, fam.name + "/" + std::to_string(i),
                                  static_cast<std::uint64_t>(r));
        }
        // The edit-storm bases of the repository's own storm catalogue.
        const bool storm_base = i == 0 && (fam.name == "multi_group" || fam.name == "mixed_se_diff");
        if (storm_base && static_cast<int>(storm_cases.size()) < kPaperEditBoards) {
          scenario::EditStormCase sc;
          sc.name = c.family + "/" + std::to_string(r);
          sc.base = c.fc;
          sc.edits = kPaperEditsPerBoard;
          sc.edit_seed = derive_seed(args.seed, "paper_boards/edits", storm_cases.size());
          storm_case_index.push_back(cases.size());
          storm_cases.push_back(std::move(sc));
        }
        cases.push_back(std::move(c));
      }
    }
  }
  const std::size_t n = cases.size();

  // Set-up, part 1: boards, edit scripts, executor, routers (median of reps).
  std::vector<scenario::Scenario> boards;
  std::vector<scenario::EditStorm> storms;
  std::unique_ptr<exec::TaskPool> pool;
  std::vector<std::unique_ptr<pipeline::Router>> routers_all;
  std::vector<std::unique_ptr<pipeline::Router>> routers_1t;
  std::vector<double> gen_s;
  for (int r = 0; r < kSetupReps; ++r) {
    routers_all.clear();
    routers_1t.clear();
    pool.reset();
    boards.clear();
    storms.clear();
    const HostTimer timer;
    {
      auto s = tr.span("scenario.gen");
      for (const Case& c : cases) boards.push_back(scenario::materialize(c.fc));
      for (const scenario::EditStormCase& sc : storm_cases) {
        storms.push_back(scenario::materialize_storm(sc));
      }
    }
    pool = std::make_unique<exec::TaskPool>(threads - 1);
    for (const scenario::Scenario& b : boards) {
      routers_all.push_back(
          std::make_unique<pipeline::Router>(b.rules, router_options(b, threads, pool.get())));
      routers_1t.push_back(
          std::make_unique<pipeline::Router>(b.rules, router_options(b, 1, nullptr)));
    }
    gen_s.push_back(timer.run_s());
  }
  std::size_t nets = 0;
  for (const scenario::Scenario& b : boards) nets += net_count(b.layout);

  // Cold routes of every case; the first all-core repetition is kept.
  std::vector<const layout::Layout*> pristine;
  for (const scenario::Scenario& b : boards) pristine.push_back(&b.layout);
  std::vector<layout::Layout> routed;
  std::vector<pipeline::BoardRoute> first;
  RouteWork work;
  const auto route_all_cases = [&](bool all_core) {
    std::vector<layout::Layout> ls;
    std::vector<pipeline::BoardRoute> rs;
    if (!all_core) {
      return route_boards(tr, "pipeline.route_board_1t", nullptr, 1, routers_1t, pristine, ls, rs);
    }
    const Rep rep =
        route_boards(tr, "pipeline.route_board", pool.get(), threads, routers_all, pristine, ls, rs);
    for (const pipeline::BoardRoute& br : rs) work.add(br);
    if (first.empty()) {
      routed = std::move(ls);
      first = std::move(rs);
    }
    return rep;
  };
  const std::size_t k_storms = storms.size();
  ColdPhase all;
  ColdPhase one;
  all.add(route_all_cases(true));

  // Set-up, part 2: a RoutingService over the edited boards, and its
  // initial routes (repeated, median). Every replay of the edit script
  // starts from such a service (untimed after the set-up).
  const auto start_service = [&] {
    service::ServiceOptions sopts;
    sopts.pool = pool.get();
    auto svc = std::make_unique<service::RoutingService>(sopts);
    for (std::size_t k = 0; k < k_storms; ++k) {
      const scenario::Scenario& sc = storms[k].scenario;
      svc->add_board(storm_cases[k].name, sc.rules, router_options(sc, threads, pool.get()),
                     sc.layout);
    }
    auto s = tr.span("service.drain");
    svc->drain();
    return svc;
  };
  std::unique_ptr<service::RoutingService> svc;
  std::vector<double> svc_setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    const HostTimer timer;
    svc = start_service();
    svc_setup_s.push_back(timer.run_s());
  }

  // Measurement rounds; the edits go round-robin over the edited boards
  // (every script has the same length), with an idle-eviction sweep every
  // kPaperEvictEvery edits so thaws land in the latency tail. `finished` is
  // the first service to reach the end of the script; edits that were shed
  // or whose board failed, in any replay, are counted once each.
  const std::size_t script_edits = k_storms * static_cast<std::size_t>(kPaperEditsPerBoard);
  Replays replays(script_edits);
  std::unique_ptr<service::RoutingService> finished;
  std::vector<std::uint64_t> end_digests;
  std::vector<char> lost_edit(script_edits, 0);
  while (replays.next_round(secs)) {
    if (replays.round() > 0) all.add(route_all_cases(true));
    if (replays.one_thread_round()) one.add(route_all_cases(false));
    const auto time_edit = [&](std::size_t i) {
      const std::size_t k = i % k_storms;
      if (i > 0 && i % kPaperEvictEvery == 0) {
        auto s = tr.span("service.evict_idle");
        (void)svc->evict_idle();
      }
      const std::optional<double> ms =
          timed_service_edit(tr, *svc, storm_cases[k].name, storms[k].edits[i / k_storms]);
      if (!ms) lost_edit[i] = 1;
      return ms;
    };
    replays.slice(kPaperEditsPerRound, time_edit, [&] {
      std::uint64_t d = 0;
      for (const scenario::EditStormCase& sc : storm_cases) {
        d = digest_combine(d, digest(svc->board_layout(sc.name), svc->board_route(sc.name)));
      }
      end_digests.push_back(d);
      if (!finished) finished = std::move(svc);
      svc = start_service();
    });
  }
  gate_digests(args, all, one, out);
  out.gate(std::all_of(end_digests.begin(), end_digests.end(),
                       [&](std::uint64_t d) { return d == end_digests.front(); }),
           "paper_boards service end state differs between replays of the edit script");
  svc = std::move(finished);
  const auto lost =
      static_cast<std::uint64_t>(std::count(lost_edit.begin(), lost_edit.end(), 1));

  // Untimed oracle per edited board (boards with dropped edits are counted
  // failed instead).
  std::uint64_t dropped = 0;
  std::uint64_t end_violations = 0;
  for (std::size_t k = 0; k < k_storms; ++k) {
    const std::string& id = storm_cases[k].name;
    dropped += svc->stats(id).dropped_edits;
    if (svc->stats(id).dropped_edits > 0 || svc->is_quarantined(id)) continue;
    const std::size_t ci = storm_case_index[k];
    scenario::Scenario fresh = scenario::materialize(cases[ci].fc);
    for (const layout::BoardEdit& e : storms[k].edits) layout::apply_edit(fresh.layout, e);
    const pipeline::BoardRoute fresh_route = routers_all[ci]->route_board(fresh.layout);
    gate_equivalent(out, svc->board_layout(id), svc->board_route(id), fresh.layout, fresh_route,
                    "paper_boards service board " + id + " differs from a fresh route");
    end_violations += route_violations(svc->board_route(id));
  }

  Quality q;
  std::size_t failed_cases = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q.add(first[i], cases[i].gate_pct > 0.0);
    if (!case_ok(first[i], cases[i].gate_pct, cases[i].fc.expect_drc_clean)) {
      ++failed_cases;
      out.note("failing case " + boards[i].spec.name + " seed " + std::to_string(cases[i].fc.seed) +
               ": " + std::to_string(route_violations(first[i])) + " violations");
    }
  }
  out.attempted = n + script_edits;
  out.failed = failed_cases + lost + dropped;
  out.drc_violations = q.violations + end_violations;
  const std::vector<double> edit_ms = replays.latencies_ms();
  report_e2e(out, median(gen_s) + median(svc_setup_s), nets, all, one, edit_ms,
             1e3 * static_cast<double>(edit_ms.size()) / sum(edit_ms), q);
  out.note("paper_boards: " + std::to_string(n) + " cases, " + std::to_string(nets) + " nets, " +
           std::to_string(script_edits) + " edits on " + std::to_string(k_storms) + " boards, " +
           std::to_string(replays.full_replays()) + " whole replays");
  if (!tr.enabled()) return;

  ReplayCounters c;
  for (std::size_t i = 0; i < n; ++i) {
    layout::Layout board = boards[i].layout;
    const pipeline::BoardRoute replayed = replay_route(*routers_1t[i], board, tr, c);
    gate_equivalent(out, board, replayed, routed[i], first[i],
                    "paper_boards decomposed replay of " + boards[i].spec.name +
                        " differs from route_board");
  }
  for (std::size_t k = 0; k < k_storms; ++k) {
    const std::string& id = storm_cases[k].name;
    if (svc->stats(id).dropped_edits > 0 || svc->is_quarantined(id)) continue;
    const std::size_t ci = storm_case_index[k];
    layout::Layout edited = routed[ci];
    const pipeline::BoardRoute replayed = replay_edits(
        *routers_all[ci], edited, first[ci],
        std::span<const layout::BoardEdit>(storms[k].edits), tr, c);
    gate_equivalent(out, edited, replayed, svc->board_layout(id), svc->board_route(id),
                    "paper_boards edit replay of " + id + " differs from the service");
  }
  report_layers(out, tr, all, work, c, threads);
  report_service_layers(out, tr, *svc);
}

// ---------------------------------------------------------------------------
// service_stream: many small seeded boards behind one RoutingService. Cold
// routes of the pristine boards, then an open-loop arrival schedule at a
// fixed rate (each edit timed from when it was due until the service's
// applied counter covers it) with a periodic idle-eviction sweep, then one
// full-speed phase, then more cold routes (the two blocks bracket the
// service phases, so the cold-route medians sample the whole run).
// ---------------------------------------------------------------------------
void run_service_stream(const Args& args, Tracer& tr, RunResult& out) {
  const double secs = args.seconds;
  const std::size_t threads = bench_threads();
  const auto n_open_target = static_cast<std::size_t>(kServiceRate * kServiceOpenShare * secs);
  const auto n_full_target = static_cast<std::size_t>(kFullSpeedEditsPerSecond * secs);
  const std::size_t n_boards = std::max<std::size_t>(
      8, (n_open_target + n_full_target + kServiceScriptEdits - 1) / kServiceScriptEdits);
  const double evict_period_s = kServiceOpenShare * secs / (kEvictSweeps + 1);

  scenario::ServiceStormCase spec;
  spec.name = "service_stream";
  for (std::size_t b = 0; b < n_boards; ++b) {
    const bool mixed = b % 2 == 1;
    scenario::EditStormCase c;
    c.base = scenario::family(mixed ? "mixed_se_diff" : "multi_group", true).cases.at(0);
    c.base.seed = derive_seed(args.seed, "service_stream/board", b);
    c.name = "b" + std::to_string(b);
    c.edits = kServiceScriptEdits;
    c.edit_seed = derive_seed(args.seed, "service_stream/edits", b);
    spec.boards.push_back(std::move(c));
  }
  spec.stream_seed = derive_seed(args.seed, "service_stream/stream");
  const double gate_mixed = scenario::family("mixed_se_diff", true).max_error_gate_pct;
  const double gate_multi = scenario::family("multi_group", true).max_error_gate_pct;

  // Set-up (repeated, median): boards + scripts, executor, service, and the
  // service's initial routes.
  std::optional<scenario::ServiceStorm> storm;
  std::unique_ptr<exec::TaskPool> pool;
  std::unique_ptr<service::RoutingService> svc;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    pool.reset();
    storm.reset();
    const auto t0 = now();
    {
      auto s = tr.span("scenario.gen");
      storm.emplace(scenario::materialize_service_storm(spec));
    }
    pool = std::make_unique<exec::TaskPool>(threads - 1);
    service::ServiceOptions sopts;
    sopts.pool = pool.get();
    svc = std::make_unique<service::RoutingService>(sopts);
    for (const scenario::EditStorm& bs : storm->boards) {
      svc->add_board(bs.spec.name, bs.scenario.rules,
                     router_options(bs.scenario, threads, pool.get()), bs.scenario.layout);
    }
    {
      auto s = tr.span("service.drain");
      svc->drain();
    }
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t nb = storm->boards.size();
  std::vector<std::unique_ptr<pipeline::Router>> routers_all;
  std::vector<std::unique_ptr<pipeline::Router>> routers_1t;
  std::size_t nets = 0;
  for (const scenario::EditStorm& bs : storm->boards) {
    routers_all.push_back(std::make_unique<pipeline::Router>(
        bs.scenario.rules, router_options(bs.scenario, threads, pool.get())));
    routers_1t.push_back(std::make_unique<pipeline::Router>(
        bs.scenario.rules, router_options(bs.scenario, 1, nullptr)));
    nets += net_count(bs.scenario.layout);
  }

  // Cold routes of the pristine boards (the service is idle meanwhile).
  // Boards of a few nets leave intra-board fan-out nothing to share: all
  // cores route whole boards side by side, each on one thread.
  std::vector<const layout::Layout*> pristine;
  for (const scenario::EditStorm& bs : storm->boards) pristine.push_back(&bs.scenario.layout);
  std::vector<layout::Layout> routed;
  std::vector<pipeline::BoardRoute> first;
  RouteWork work;
  const auto route_all_boards = [&](bool all_core) {
    std::vector<layout::Layout> ls;
    std::vector<pipeline::BoardRoute> rs;
    if (!all_core) {
      return route_boards(tr, "pipeline.route_board_1t", nullptr, 1, routers_1t, pristine, ls, rs);
    }
    const Rep rep =
        route_boards(tr, "pipeline.route_board", pool.get(), threads, routers_1t, pristine, ls, rs);
    for (const pipeline::BoardRoute& br : rs) work.add(br);
    if (first.empty()) {
      routed = std::move(ls);
      first = std::move(rs);
    }
    return rep;
  };
  ColdPhase all;
  ColdPhase one;
  const auto cold_block = [&] {
    cold_rounds(kServiceColdShare * secs, all, one, [&] { return route_all_boards(true); },
                [&] { return route_all_boards(false); });
  };
  cold_block();

  const std::vector<scenario::ServiceStormEvent>& stream = storm->stream;
  const std::size_t n_open = std::min(n_open_target, stream.size());

  // Open loop: exponential inter-arrival gaps at the fixed rate.
  std::vector<double> due(n_open);
  {
    std::mt19937_64 rng(derive_seed(args.seed, "service_stream/arrivals"));
    double t = 0.0;
    for (std::size_t k = 0; k < n_open; ++k) {
      t += -std::log(1.0 - lmr::workload::uniform_real(rng, 0.0, 1.0)) / kServiceRate;
      due[k] = t;
    }
  }
  struct Waiting {
    std::uint64_t ordinal = 0;
    double due_s = 0.0;
  };
  std::vector<std::deque<Waiting>> waiting(nb);
  std::vector<double> edit_ms;
  std::vector<double> late_ms;
  std::uint64_t shed = 0;
  std::size_t outstanding = 0;
  edit_ms.reserve(n_open);
  const auto board_id = [&](std::size_t b) { return storm->boards[b].spec.name; };
  const auto poll = [&](double now_s) {
    for (std::size_t b = 0; b < nb; ++b) {
      if (waiting[b].empty()) continue;
      const service::BoardStats st = svc->stats(board_id(b));
      const std::uint64_t settled = st.applied + st.dropped_edits;
      while (!waiting[b].empty() && waiting[b].front().ordinal <= settled) {
        edit_ms.push_back(1e3 * (now_s - waiting[b].front().due_s));
        waiting[b].pop_front();
        --outstanding;
      }
    }
  };
  const auto t_open = now();
  double next_evict = evict_period_s;
  std::size_t k = 0;
  while (k < n_open || outstanding > 0) {
    const double now_s = seconds_since(t_open);
    if (now_s > (due.empty() ? 0.0 : due.back()) + 60.0) {
      out.gate(false, "service_stream open loop did not settle within 60 s of its schedule");
      break;
    }
    if (k < n_open && now_s >= due[k]) {
      const scenario::ServiceStormEvent& ev = stream[k];
      service::SubmitResult res;
      {
        auto s = tr.span("service.submit");
        res = svc->submit(board_id(ev.board), ev.edit);
      }
      late_ms.push_back(1e3 * (now_s - due[k]));
      if (res.accepted()) {
        waiting[ev.board].push_back({res.ordinal, due[k]});
        ++outstanding;
      } else {
        ++shed;
      }
      ++k;
      continue;
    }
    if (now_s >= next_evict) {
      auto s = tr.span("service.evict_idle");
      (void)svc->evict_idle();
      next_evict += evict_period_s;
    }
    poll(now_s);
    // Nap until the next arrival, polling at most every 200 us: each poll
    // takes the service mutex the dispatching workers also take.
    const double nap_s =
        std::min(kPollPeriod_s, k < n_open ? due[k] - seconds_since(t_open) : kPollPeriod_s);
    if (nap_s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(nap_s));
  }
  std::size_t quarantined_failures = 0;
  try {
    svc->drain();
  } catch (const service::ServiceError& e) {
    quarantined_failures += e.failures().size();
  }

  // Full speed: the remaining events in equal bursts, each submitted back
  // to back and drained.
  const std::size_t n_full = stream.size() - n_open;
  std::vector<double> burst_rate;
  for (std::size_t b = 0; b < kFullSpeedBursts; ++b) {
    const std::size_t lo = n_open + n_full * b / kFullSpeedBursts;
    const std::size_t hi = n_open + n_full * (b + 1) / kFullSpeedBursts;
    if (hi == lo) continue;
    const auto t0 = now();
    for (std::size_t i = lo; i < hi; ++i) {
      service::SubmitResult res;
      {
        auto s = tr.span("service.submit");
        res = svc->submit(board_id(stream[i].board), stream[i].edit);
      }
      if (!res.accepted()) ++shed;
    }
    try {
      auto s = tr.span("service.drain");
      svc->drain();
    } catch (const service::ServiceError& e) {
      quarantined_failures += e.failures().size();
    }
    burst_rate.push_back(static_cast<double>(hi - lo) / seconds_since(t0));
  }
  cold_block();
  gate_digests(args, all, one, out);

  // Untimed oracle: each board's full script applied to a fresh board.
  std::uint64_t dropped = 0;
  std::uint64_t end_violations = 0;
  service::ServiceTotals totals = svc->totals();
  for (std::size_t b = 0; b < nb; ++b) {
    const service::BoardStats st = svc->stats(board_id(b));
    dropped += st.dropped_edits;
    if (st.dropped_edits > 0 || svc->is_quarantined(board_id(b))) continue;  // counted failed
    scenario::Scenario fresh = scenario::materialize(storm->boards[b].spec.base);
    for (const layout::BoardEdit& e : storm->boards[b].edits) layout::apply_edit(fresh.layout, e);
    const pipeline::BoardRoute fresh_route = routers_all[b]->route_board(fresh.layout);
    gate_equivalent(out, svc->board_layout(board_id(b)), svc->board_route(board_id(b)),
                    fresh.layout, fresh_route,
                    "service_stream board " + board_id(b) + " differs from a fresh route");
    end_violations += route_violations(svc->board_route(board_id(b)));
  }

  Quality q;
  std::size_t failed_boards = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const double gate = b % 2 == 1 ? gate_mixed : gate_multi;
    q.add(first[b], gate > 0.0);
    if (!case_ok(first[b], gate, true)) ++failed_boards;
  }
  out.attempted = nb + stream.size();
  out.failed = failed_boards + shed + dropped + quarantined_failures;
  out.drc_violations = q.violations + end_violations;
  report_e2e(out, median(setup_s), nets, all, one, edit_ms, median(burst_rate), q);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "service_stream: %zu boards, %zu open-loop edits at %.0f/s (generator at most "
                "%.3g ms late), %zu full-speed edits, %" PRIu64 " thaws, %" PRIu64 " evictions",
                nb, n_open, kServiceRate,
                late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()), n_full,
                totals.thaws, totals.evictions);
  out.note(buf);
  if (!tr.enabled()) return;

  ReplayCounters c;
  for (std::size_t b = 0; b < nb; ++b) {
    layout::Layout board = storm->boards[b].scenario.layout;
    const pipeline::BoardRoute replayed = replay_route(*routers_1t[b], board, tr, c);
    gate_equivalent(out, board, replayed, routed[b], first[b],
                    "service_stream decomposed replay of " + board_id(b) +
                        " differs from route_board");
    if (svc->stats(board_id(b)).dropped_edits > 0 || svc->is_quarantined(board_id(b))) continue;
    layout::Layout edited = routed[b];
    const pipeline::BoardRoute replayed_edits =
        replay_edits(*routers_all[b], edited, first[b], storm->boards[b].edits, tr, c);
    gate_equivalent(out, edited, replayed_edits, svc->board_layout(board_id(b)),
                    svc->board_route(board_id(b)),
                    "service_stream edit replay of " + board_id(b) + " differs from the service");
  }
  report_layers(out, tr, all, work, c, threads);

  report_service_layers(out, tr, *svc);
}

}  // namespace perfbench
