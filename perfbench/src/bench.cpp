#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

void RunResult::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  gate_failures.push_back(what);
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Fnv {
  std::uint64_t h = kFnvBasis;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const lmr::geom::Polyline& path) {
    add(static_cast<std::uint64_t>(path.points().size()));
    for (const lmr::geom::Point& p : path.points()) {
      add(p.x);
      add(p.y);
    }
  }
  void add(const std::vector<lmr::layout::Violation>& vs) {
    add(static_cast<std::uint64_t>(vs.size()));
    for (const lmr::layout::Violation& v : vs) {
      add(static_cast<std::uint64_t>(v.kind));
      add(static_cast<std::uint64_t>(v.trace));
      add(static_cast<std::uint64_t>(v.other_trace));
      add(static_cast<std::uint64_t>(v.index_a));
      add(static_cast<std::uint64_t>(v.index_b));
      add(v.measured);
    }
  }
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag, std::uint64_t k) {
  std::uint64_t h = kFnvBasis;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return splitmix64(splitmix64(seed ^ h) + k);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest-rank percentile: index ceil(p/100 n) - 1; samples past it.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
    const std::size_t beyond = n - 1 - idx;
    if (p > 50.0 && beyond < 10) break;
    t = {p, p > 50.0 ? v[idx] : median(v), beyond};
  }
  return t;
}

std::uint64_t digest(const lmr::layout::Layout& layout, const lmr::pipeline::BoardRoute& route) {
  Fnv f;
  for (const lmr::pipeline::RouteResult& rr : route.results) {
    for (const lmr::pipeline::MemberReport& m : rr.group.members) {
      f.add(static_cast<std::uint64_t>(m.id));
      if (m.kind == lmr::layout::MemberKind::SingleEnded) {
        f.add(layout.trace(m.id).path);
      } else {
        const lmr::layout::DiffPair& p = layout.pair(m.id);
        f.add(p.positive.path);
        f.add(p.negative.path);
      }
    }
    for (const lmr::pipeline::NetResult& n : rr.nets) f.add(n.violations);
    f.add(rr.cross_violations);
  }
  return f.h;
}

std::uint64_t digest_combine(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

lmr::pipeline::RouterOptions router_options(const lmr::scenario::Scenario& sc,
                                            std::size_t threads, lmr::exec::TaskPool* pool) {
  lmr::pipeline::RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  o.threads = threads;
  o.pool = pool;
  return o;
}

std::size_t bench_threads() {
  const std::size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ...", in clock
  // ticks, summed over the CPUs.
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line)) return {};
  std::istringstream in(line);
  std::string label;
  in >> label;
  double v[8] = {};
  for (double& x : v) {
    if (!(in >> x)) return {};
  }
  const long hz = sysconf(_SC_CLK_TCK);
  if (label != "cpu" || hz <= 0) return {};
  const auto tick = 1.0 / static_cast<double>(hz);
  return {(v[0] + v[1] + v[2] + v[5] + v[6]) * tick, v[7] * tick};
}

double HostTimer::run_share() const {
  const CpuTicks t = cpu_ticks();
  const double busy = t.busy_s - ticks0_.busy_s;
  const double steal = t.steal_s - ticks0_.steal_s;
  return busy > 0.0 && steal > 0.0 ? busy / (busy + steal) : 1.0;
}

std::size_t net_count(const lmr::layout::Layout& layout) {
  std::size_t n = 0;
  for (const lmr::layout::MatchGroup& g : layout.groups()) n += g.members.size();
  return n;
}

void Quality::add(const lmr::pipeline::BoardRoute& route, bool gated) {
  for (const lmr::pipeline::RouteResult& rr : route.results) {
    violations += rr.violation_count();
    if (!gated) continue;
    max_error_pct = std::max(max_error_pct, rr.group.max_error_pct);
    avg_sum += rr.group.avg_error_pct;
    ++groups;
  }
}

bool case_ok(const lmr::pipeline::BoardRoute& route, double gate_pct, bool expect_drc_clean) {
  for (const lmr::pipeline::RouteResult& rr : route.results) {
    if (expect_drc_clean && !rr.drc_clean()) return false;
    if (gate_pct > 0.0 && rr.group.max_error_pct > gate_pct) return false;
  }
  return true;
}

}  // namespace perfbench
