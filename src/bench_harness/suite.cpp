#include "bench_harness/suite.hpp"

#include <algorithm>

#include "bench_harness/report.hpp"
#include "core/clock.hpp"
#include "fault/fault_plan.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"
#include "scenario/fault_storm.hpp"
#include "scenario/service_storm.hpp"
#include "service/routing_service.hpp"

namespace lmr::bench {

namespace {

using core::seconds_since;

Json spec_json(const scenario::ScenarioSpec& s) {
  Json j = Json::object();
  j["corridor_length"] = s.corridor_length;
  j["band_height"] = s.band_height;
  j["corridor_angle_deg"] = s.corridor_angle_deg;
  j["groups"] = static_cast<std::int64_t>(s.groups);
  j["members_per_group"] = static_cast<std::int64_t>(s.members_per_group);
  j["diff_fraction"] = s.diff_fraction;
  j["pair_pitch"] = s.pair_pitch;
  j["dra_sections"] = static_cast<std::int64_t>(s.dra_sections);
  j["vias_per_band"] = static_cast<std::int64_t>(s.vias_per_band);
  j["target_fraction"] = s.target_fraction;
  Json rules = Json::object();
  rules["gap"] = s.rules.gap;
  rules["obs"] = s.rules.obs;
  rules["protect"] = s.rules.protect;
  rules["miter"] = s.rules.miter;
  rules["trace_width"] = s.rules.trace_width;
  j["rules"] = std::move(rules);
  return j;
}

Json group_json(const GroupOutcome& g) {
  Json j = Json::object();
  j["group"] = g.group;
  j["target"] = g.target;
  j["members"] = static_cast<std::int64_t>(g.members);
  j["initial_max_error_pct"] = g.initial_max_error_pct;
  j["initial_avg_error_pct"] = g.initial_avg_error_pct;
  j["max_error_pct"] = g.max_error_pct;
  j["avg_error_pct"] = g.avg_error_pct;
  j["matched"] = g.matched;
  j["patterns"] = static_cast<std::int64_t>(g.patterns);
  j["net_violations"] = static_cast<std::int64_t>(g.net_violations);
  j["cross_violations"] = static_cast<std::int64_t>(g.cross_violations);
  j["runtime_s"] = g.runtime_s;
  j["extend_runtime_s"] = g.extend_runtime_s;
  j["drc_overlap_runtime_s"] = g.drc_overlap_runtime_s;
  j["drc_barrier_runtime_s"] = g.drc_barrier_runtime_s;
  j["drc_runtime_s"] = g.drc_runtime_s;
  return j;
}

std::vector<scenario::Family> selected_families(const SuiteOptions& opts) {
  if (opts.families.empty()) return scenario::standard_families(opts.smoke);
  std::vector<scenario::Family> families;
  for (const std::string& name : opts.families) {
    families.push_back(scenario::family(name, opts.smoke));
  }
  return families;
}

}  // namespace

bool CaseOutcome::matched() const {
  return std::all_of(groups.begin(), groups.end(),
                     [](const GroupOutcome& g) { return g.matched; });
}

bool CaseOutcome::drc_clean() const {
  return std::all_of(groups.begin(), groups.end(), [](const GroupOutcome& g) {
    return g.net_violations == 0 && g.cross_violations == 0;
  });
}

double CaseOutcome::worst_error_pct() const {
  double worst = 0.0;
  for (const GroupOutcome& g : groups) worst = std::max(worst, g.max_error_pct);
  return worst;
}

bool SuiteResult::all_ok() const {
  return std::all_of(cases.begin(), cases.end(),
                     [](const CaseOutcome& c) { return c.ok(); });
}

Suite::Suite(SuiteOptions opts)
    : opts_(std::move(opts)), pool_handle_(opts_.threads) {}

exec::TaskPool* Suite::pool() const { return pool_handle_.acquire(); }

pipeline::RouterOptions Suite::scenario_router_options(const scenario::Scenario& sc) const {
  pipeline::RouterOptions ropts = opts_.router;
  ropts.run_drc = opts_.run_drc;
  if (sc.spec.extender_tolerance > 0.0) {
    ropts.extender.tolerance = sc.spec.extender_tolerance;
  }
  if (sc.pair_rule_set.size() > 1) ropts.pair_rule_set = sc.pair_rule_set;
  return ropts;
}

pipeline::RouterOptions Suite::router_options_for(const scenario::Scenario& sc) const {
  pipeline::RouterOptions ropts = scenario_router_options(sc);
  ropts.threads = opts_.threads;
  ropts.pool = pool();  // one executor across cases, groups and members
  return ropts;
}

CaseOutcome Suite::run_case(const scenario::Family& fam,
                            const scenario::FamilyCase& fc) const {
  const auto t_case = core::now();
  scenario::Scenario sc = scenario::materialize(fc);

  CaseOutcome outcome;
  outcome.family = fam.name;
  outcome.scenario = sc.spec.name;
  outcome.seed = sc.seed;
  outcome.max_error_gate_pct = fam.max_error_gate_pct;
  outcome.expect_drc_clean = fc.expect_drc_clean;
  outcome.traces = sc.layout.traces().size();
  outcome.pairs = sc.layout.pairs().size();
  outcome.obstacles = sc.layout.obstacles().size();
  outcome.threads_used = exec::resolve_threads(opts_.threads);

  const pipeline::Router router(sc.rules, router_options_for(sc));

  const pipeline::BoardRoute board = router.route_board(sc.layout);
  for (const pipeline::RouteResult& rr : board.results) {
    GroupOutcome go;
    go.group = rr.group.group_name;
    go.target = rr.group.target;
    go.initial_max_error_pct = rr.group.initial_max_error_pct;
    go.initial_avg_error_pct = rr.group.initial_avg_error_pct;
    go.max_error_pct = rr.group.max_error_pct;
    go.avg_error_pct = rr.group.avg_error_pct;
    go.matched = rr.matched();
    go.members = rr.group.members.size();
    for (const pipeline::MemberReport& mr : rr.group.members) go.patterns += mr.patterns;
    for (const pipeline::NetResult& net : rr.nets) {
      go.net_violations += net.violations.size();
    }
    go.cross_violations = rr.cross_violations.size();
    go.runtime_s = rr.runtime_s;
    go.extend_runtime_s = rr.extend_runtime_s;
    go.drc_overlap_runtime_s = rr.drc_overlap_runtime_s;
    go.drc_barrier_runtime_s = rr.drc_barrier_runtime_s;
    go.drc_runtime_s = rr.drc_runtime_s;
    outcome.groups.push_back(std::move(go));
  }
  outcome.runtime_s = seconds_since(t_case);
  return outcome;
}

SuiteResult Suite::run() const {
  SuiteResult result;
  const auto t_suite = core::now();

  // Flatten (family, case) so independent boards become one task batch;
  // every outcome is written at its flat index, which keeps the report
  // order — and therefore the JSON bytes — identical across thread counts.
  struct Flat {
    const scenario::Family* fam;
    const scenario::FamilyCase* fc;
  };
  const std::vector<scenario::Family> families = selected_families(opts_);
  std::vector<Flat> flat;
  for (const scenario::Family& fam : families) {
    for (const scenario::FamilyCase& fc : fam.cases) flat.push_back({&fam, &fc});
  }

  result.cases.resize(flat.size());
  exec::TaskPool* pool_ptr = pool();
  const std::size_t threads = exec::resolve_threads(opts_.threads);
  if (pool_ptr == nullptr || threads <= 1) {
    for (std::size_t i = 0; i < flat.size(); ++i) {
      result.cases[i] = run_case(*flat[i].fam, *flat[i].fc);
    }
  } else {
    exec::parallel_for_dynamic(*pool_ptr, flat.size(), threads, [&](std::size_t i) {
      result.cases[i] = run_case(*flat[i].fam, *flat[i].fc);
    });
  }
  result.runtime_s = seconds_since(t_suite);
  return result;
}

std::vector<std::size_t> Suite::default_scaling_threads() {
  std::vector<std::size_t> counts = {1, 2, 4};
  const std::size_t hw = exec::resolve_threads(0);
  if (hw > 4) counts.push_back(hw);
  return counts;
}

std::vector<ScalingCurve> Suite::run_scaling(const SuiteOptions& base,
                                             const std::vector<std::string>& families,
                                             const std::vector<std::size_t>& thread_counts) {
  std::vector<ScalingCurve> curves;
  for (const std::string& fam : families) {
    ScalingCurve curve;
    curve.family = fam;
    double t_ref = 0.0;
    for (const std::size_t threads : thread_counts) {
      SuiteOptions opts = base;
      opts.families = {fam};
      opts.threads = threads;
      const Suite suite(opts);
      const SuiteResult r = suite.run();
      ScalingPoint p;
      p.threads = threads;
      p.runtime_s = r.runtime_s;
      // The first entry is the baseline by position (conventionally 1
      // thread); its speedup is 1 by definition even if the clock
      // resolution rounds a smoke-sized run down to zero.
      if (curve.points.empty()) {
        t_ref = r.runtime_s;
        p.speedup = 1.0;
      } else {
        p.speedup = p.runtime_s > 0.0 ? t_ref / p.runtime_s : 0.0;
      }
      curve.points.push_back(p);
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

std::vector<EditStormOutcome> Suite::run_edit_storm() const {
  std::vector<EditStormOutcome> storms;
  for (const scenario::EditStormCase& c : scenario::edit_storm_cases(opts_.smoke)) {
    scenario::EditStorm storm = scenario::materialize_storm(c);

    EditStormOutcome out;
    out.name = storm.spec.name;
    out.base_scenario = storm.scenario.spec.name;
    out.edits = storm.edits.size();
    out.groups_total = storm.scenario.layout.groups().size();

    const pipeline::RouterOptions ropts = router_options_for(storm.scenario);
    pipeline::Session session(storm.scenario.rules, ropts, storm.scenario.layout);
    auto t0 = core::now();
    session.route();
    out.initial_route_s = seconds_since(t0);

    // One apply per edit: the interactive cadence the latency ratio is
    // about. (Batching all edits into one apply would re-route each touched
    // group once instead of once per touching edit.)
    for (const layout::BoardEdit& edit : storm.edits) {
      const pipeline::ApplyOutcome applied = session.apply(edit);
      EditStormStep step;
      step.rerouted = applied.rerouted_groups.size();
      step.reroute_s = applied.reroute_s;
      out.rerouted_total += step.rerouted;
      out.reroute_total_s += step.reroute_s;
      if (step.rerouted < out.groups_total) out.incremental = true;
      out.steps.push_back(step);
    }

    // Oracle: regenerate the pristine board from the same seed, replay the
    // identical script, route it from scratch.
    scenario::Scenario fresh = scenario::materialize(c.base);
    for (const layout::BoardEdit& edit : storm.edits) {
      layout::apply_edit(fresh.layout, edit);
    }
    const pipeline::Router router(fresh.rules, ropts);
    t0 = core::now();
    const pipeline::BoardRoute full = router.route_board(fresh.layout);
    out.full_route_s = seconds_since(t0);
    out.equivalent = pipeline::routes_equivalent(session.layout(), session.route_state(),
                                                 fresh.layout, full, &out.mismatch);

    const double mean_reroute =
        out.steps.empty() ? 0.0 : out.reroute_total_s / static_cast<double>(out.steps.size());
    out.speedup = mean_reroute > 0.0 ? out.full_route_s / mean_reroute : 0.0;
    storms.push_back(std::move(out));
  }
  return storms;
}

Json Suite::edit_storm_json(const std::vector<EditStormOutcome>& storms) {
  Json out = Json::array();
  for (const EditStormOutcome& s : storms) {
    Json js = Json::object();
    js["name"] = s.name;
    js["base_scenario"] = s.base_scenario;
    js["edits"] = static_cast<std::int64_t>(s.edits);
    js["groups_total"] = static_cast<std::int64_t>(s.groups_total);
    js["rerouted_total"] = static_cast<std::int64_t>(s.rerouted_total);
    js["incremental"] = s.incremental;
    js["equivalent"] = s.equivalent;
    if (!s.equivalent) js["mismatch"] = s.mismatch;
    Json jsteps = Json::array();
    for (const EditStormStep& st : s.steps) {
      Json jst = Json::object();
      jst["rerouted"] = static_cast<std::int64_t>(st.rerouted);
      jst["reroute_s"] = st.reroute_s;
      jsteps.push_back(std::move(jst));
    }
    js["steps"] = std::move(jsteps);
    js["initial_route_s"] = s.initial_route_s;
    js["reroute_total_s"] = s.reroute_total_s;
    js["full_route_s"] = s.full_route_s;
    js["speedup"] = s.speedup;
    out.push_back(std::move(js));
  }
  return out;
}

bool ServiceStormOutcome::all_equivalent() const {
  return std::all_of(points.begin(), points.end(),
                     [](const ServiceThreadPoint& p) { return p.all_equivalent; });
}

std::vector<ServiceStormOutcome> Suite::run_service(
    const std::vector<std::size_t>& thread_counts) const {
  std::vector<ServiceStormOutcome> outcomes;
  for (const scenario::ServiceStormCase& c :
       scenario::service_storm_cases(opts_.smoke)) {
    scenario::ServiceStorm storm = scenario::materialize_service_storm(c);

    ServiceStormOutcome out;
    out.name = c.name;
    out.boards = storm.boards.size();
    out.events = storm.stream.size();

    // Per-board stream-event counts, for the per-board readout.
    std::vector<std::size_t> event_counts(storm.boards.size(), 0);
    for (const scenario::ServiceStormEvent& ev : storm.stream) {
      ++event_counts[ev.board];
    }

    // Oracle end states: regenerate each pristine board, replay its script,
    // route it from scratch. Computed once, not per thread count — routed
    // geometry is thread-count invariant by construction (and separately
    // enforced by the reproducibility tests).
    std::vector<scenario::Scenario> fresh;
    std::vector<pipeline::BoardRoute> fresh_routes;
    for (const scenario::EditStorm& bs : storm.boards) {
      scenario::Scenario f = scenario::materialize(bs.spec.base);
      for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
      const pipeline::Router router(f.rules, router_options_for(f));
      fresh_routes.push_back(router.route_board(f.layout));
      fresh.push_back(std::move(f));
    }

    for (const std::size_t threads : thread_counts) {
      service::ServiceOptions sopts;
      sopts.threads = threads;
      service::RoutingService svc(sopts);
      for (const scenario::EditStorm& bs : storm.boards) {
        svc.add_board(bs.spec.name, bs.scenario.rules,
                      scenario_router_options(bs.scenario), bs.scenario.layout);
      }
      svc.drain();  // initial routes settle before the replay clock starts

      const auto t0 = core::now();
      for (const scenario::ServiceStormEvent& ev : storm.stream) {
        svc.submit(storm.boards[ev.board].spec.name, ev.edit);
        if (ev.sync_after) svc.drain();
        if (ev.evict_after) {
          svc.drain();
          svc.evict_idle();
        }
      }
      svc.drain();
      const double replay_s = seconds_since(t0);

      ServiceThreadPoint p;
      p.threads = threads;
      p.replay_s = replay_s;
      p.edits_per_s =
          replay_s > 0.0 ? static_cast<double>(out.events) / replay_s : 0.0;
      p.all_equivalent = true;
      for (std::size_t b = 0; b < storm.boards.size(); ++b) {
        const std::string& id = storm.boards[b].spec.name;
        const service::BoardStats st = svc.stats(id);
        ServiceBoardOutcome bo;
        bo.board = id;
        bo.edits = event_counts[b];
        bo.applied = st.applied;
        bo.batches = st.batches;
        bo.coalesced_batches = st.coalesced_batches;
        bo.max_batch = st.max_batch;
        bo.max_queue_depth = st.max_queue_depth;
        bo.queued_while_frozen = st.queued_while_frozen;
        bo.evictions = st.evictions;
        bo.thaws = st.thaws;
        bo.equivalent =
            pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                        fresh[b].layout, fresh_routes[b], &bo.mismatch);
        p.all_equivalent = p.all_equivalent && bo.equivalent;
        p.batches += bo.batches;
        p.coalesced_batches += bo.coalesced_batches;
        p.max_batch = std::max(p.max_batch, bo.max_batch);
        p.max_queue_depth = std::max(p.max_queue_depth, bo.max_queue_depth);
        p.queued_while_frozen += bo.queued_while_frozen;
        p.evictions += bo.evictions;
        p.thaws += bo.thaws;
        p.boards.push_back(std::move(bo));
      }
      out.points.push_back(std::move(p));
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

Json Suite::service_json(const std::vector<ServiceStormOutcome>& storms) {
  Json out = Json::array();
  for (const ServiceStormOutcome& s : storms) {
    Json js = Json::object();
    js["name"] = s.name;
    js["boards"] = static_cast<std::int64_t>(s.boards);
    js["events"] = static_cast<std::int64_t>(s.events);
    js["all_equivalent"] = s.all_equivalent();
    Json jpoints = Json::array();
    for (const ServiceThreadPoint& p : s.points) {
      Json jp = Json::object();
      jp["threads"] = static_cast<std::int64_t>(p.threads);
      jp["replay_s"] = p.replay_s;
      jp["edits_per_s"] = p.edits_per_s;
      jp["batches"] = static_cast<std::int64_t>(p.batches);
      jp["coalesced_batches"] = static_cast<std::int64_t>(p.coalesced_batches);
      jp["max_batch"] = static_cast<std::int64_t>(p.max_batch);
      jp["max_queue_depth"] = static_cast<std::int64_t>(p.max_queue_depth);
      jp["queued_while_frozen"] = static_cast<std::int64_t>(p.queued_while_frozen);
      jp["evictions"] = static_cast<std::int64_t>(p.evictions);
      jp["thaws"] = static_cast<std::int64_t>(p.thaws);
      jp["all_equivalent"] = p.all_equivalent;
      Json jboards = Json::array();
      for (const ServiceBoardOutcome& b : p.boards) {
        Json jb = Json::object();
        jb["board"] = b.board;
        jb["edits"] = static_cast<std::int64_t>(b.edits);
        jb["applied"] = static_cast<std::int64_t>(b.applied);
        jb["batches"] = static_cast<std::int64_t>(b.batches);
        jb["coalesced_batches"] = static_cast<std::int64_t>(b.coalesced_batches);
        jb["max_batch"] = static_cast<std::int64_t>(b.max_batch);
        jb["max_queue_depth"] = static_cast<std::int64_t>(b.max_queue_depth);
        jb["queued_while_frozen"] = static_cast<std::int64_t>(b.queued_while_frozen);
        jb["evictions"] = static_cast<std::int64_t>(b.evictions);
        jb["thaws"] = static_cast<std::int64_t>(b.thaws);
        jb["equivalent"] = b.equivalent;
        if (!b.equivalent) jb["mismatch"] = b.mismatch;
        jboards.push_back(std::move(jb));
      }
      jp["boards"] = std::move(jboards);
      jpoints.push_back(std::move(jp));
    }
    js["points"] = std::move(jpoints);
    out.push_back(std::move(js));
  }
  return out;
}

bool FaultStormOutcome::all_ok() const {
  return !points.empty() &&
         std::all_of(points.begin(), points.end(), [](const FaultThreadPoint& p) {
           return p.all_equivalent && p.gates_ok;
         });
}

namespace {

const char* fault_kind_name(scenario::FaultStormKind k) {
  switch (k) {
    case scenario::FaultStormKind::Transient: return "transient";
    case scenario::FaultStormKind::Timeout: return "timeout";
    case scenario::FaultStormKind::Quarantine: return "quarantine";
  }
  return "unknown";
}

}  // namespace

std::vector<FaultStormOutcome> Suite::run_fault_storm(
    const std::vector<std::size_t>& thread_counts,
    std::uint64_t seed_override) const {
  std::vector<FaultStormOutcome> outcomes;
  for (const scenario::FaultStormCase& c :
       scenario::fault_storm_cases(opts_.smoke, seed_override)) {
    const scenario::FaultStorm storm = scenario::materialize_fault_storm(c);

    FaultStormOutcome out;
    out.name = c.name;
    out.kind = fault_kind_name(c.kind);
    out.fault_seed = c.fault_seed;
    out.boards = storm.storm.boards.size();
    out.events = storm.storm.stream.size();
    out.rules = storm.rules.size();

    // Full-script oracles, once per board — routed geometry is thread-count
    // invariant, and the fault plane must not change where a board *ends up*,
    // only which attempts it loses on the way.
    std::vector<scenario::Scenario> fresh;
    std::vector<pipeline::BoardRoute> fresh_routes;
    for (const scenario::EditStorm& bs : storm.storm.boards) {
      scenario::Scenario f = scenario::materialize(bs.spec.base);
      for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
      const pipeline::Router router(f.rules, router_options_for(f));
      fresh_routes.push_back(router.route_board(f.layout));
      fresh.push_back(std::move(f));
    }

    for (const std::size_t threads : thread_counts) {
      // A FRESH plan per replay: occurrence counters are plan state, so a
      // shared instance would shift every window on the second replay.
      service::ServiceOptions sopts;
      sopts.threads = threads;
      sopts.max_attempts = c.max_attempts;
      sopts.fault_plan = std::make_shared<fault::FaultPlan>(storm.rules);
      service::RoutingService svc(sopts);
      for (std::size_t b = 0; b < storm.storm.boards.size(); ++b) {
        const scenario::EditStorm& bs = storm.storm.boards[b];
        pipeline::RouterOptions ropts = scenario_router_options(bs.scenario);
        if (b == storm.timeout_board) ropts.deadline_s = c.deadline_s;
        svc.add_board(bs.spec.name, bs.scenario.rules, ropts, bs.scenario.layout);
      }

      FaultThreadPoint p;
      p.threads = threads;
      const auto drain = [&svc, &p] {
        try {
          svc.drain();
        } catch (const service::ServiceError& e) {
          p.drain_failures += e.failures().size();
        }
      };

      drain();  // initial routes settle; initial-route kills surface here
      const auto t0 = core::now();
      for (const scenario::ServiceStormEvent& ev : storm.storm.stream) {
        (void)svc.submit(storm.storm.boards[ev.board].spec.name, ev.edit);
        if (ev.sync_after) drain();
      }
      drain();
      p.replay_s = seconds_since(t0);

      p.all_equivalent = true;
      std::size_t quarantine_targets_hit = 0;
      for (std::size_t b = 0; b < storm.storm.boards.size(); ++b) {
        const scenario::EditStorm& bs = storm.storm.boards[b];
        const std::string& id = bs.spec.name;
        FaultBoardOutcome bo;
        bo.board = id;
        bo.edits = bs.edits.size();
        bo.applied = svc.stats(id).applied;  // pre-recovery: the served prefix
        bo.quarantined = svc.is_quarantined(id);

        if (bo.quarantined) {
          // A quarantined routed board must serve its last-good state: a
          // fresh route of exactly the edits it committed. A board killed
          // during its initial route serves nothing — skip straight to
          // recovery.
          if (svc.is_routed(id)) {
            scenario::Scenario pre = scenario::materialize(bs.spec.base);
            for (std::uint64_t k = 0; k < bo.applied; ++k) {
              layout::apply_edit(pre.layout, bs.edits.at(k));
            }
            const pipeline::Router router(pre.rules, router_options_for(pre));
            const pipeline::BoardRoute pre_route = router.route_board(pre.layout);
            bo.prefix_equivalent = pipeline::routes_equivalent(
                svc.board_layout(id), svc.board_route(id), pre.layout, pre_route,
                &bo.mismatch);
          }
          // Re-admit and replay the lost suffix. The storm's rule windows are
          // sized to be exhausted by now, so the replay must converge.
          bool ok = svc.resurrect(id);
          for (std::size_t k = bo.applied; k < bs.edits.size(); ++k) {
            ok = svc.submit(id, bs.edits[k]).accepted() && ok;
          }
          try {
            svc.drain();
          } catch (const service::ServiceError& e) {
            p.drain_failures += e.failures().size();
            ok = false;
          }
          bo.recovered = ok && !svc.is_quarantined(id);
        }

        bo.equivalent = pipeline::routes_equivalent(
            svc.board_layout(id), svc.board_route(id), fresh[b].layout,
            fresh_routes[b], &bo.mismatch);

        const service::BoardStats st = svc.stats(id);  // recovery included
        bo.retries = st.retries;
        bo.degraded_retries = st.degraded_retries;
        bo.timeouts = st.timeouts;
        bo.injected_faults = st.injected_faults;
        bo.quarantines = st.quarantines;
        bo.resurrections = st.resurrections;
        bo.shed = st.shed;
        bo.dropped_edits = st.dropped_edits;
        bo.backoff_virtual_s = st.backoff_virtual_s;

        p.retries += bo.retries;
        p.timeouts += bo.timeouts;
        p.injected_faults += bo.injected_faults;
        p.quarantines += bo.quarantines;
        p.resurrections += bo.resurrections;
        p.shed += bo.shed;
        p.dropped_edits += bo.dropped_edits;
        p.all_equivalent = p.all_equivalent && bo.equivalent &&
                           bo.prefix_equivalent && bo.recovered;
        p.boards.push_back(std::move(bo));
      }
      for (const std::size_t qb : storm.quarantine_boards) {
        if (p.boards[qb].quarantined) ++quarantine_targets_hit;
      }

      switch (c.kind) {
        case scenario::FaultStormKind::Transient:
          // Every window is one-shot: faults must have fired, the first
          // retry rung must have absorbed them, nothing may quarantine.
          p.gates_ok = p.injected_faults >= 1 && p.retries >= 1 &&
                       p.quarantines == 0;
          break;
        case scenario::FaultStormKind::Timeout:
          p.gates_ok = p.timeouts >= 1;
          break;
        case scenario::FaultStormKind::Quarantine:
          p.gates_ok = quarantine_targets_hit == storm.quarantine_boards.size() &&
                       p.quarantines >= storm.quarantine_boards.size() &&
                       p.resurrections >= storm.quarantine_boards.size();
          break;
      }
      out.points.push_back(std::move(p));
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

Json Suite::fault_storm_json(const std::vector<FaultStormOutcome>& storms) {
  Json out = Json::array();
  for (const FaultStormOutcome& s : storms) {
    Json js = Json::object();
    js["name"] = s.name;
    js["kind"] = s.kind;
    js["fault_seed"] = static_cast<std::int64_t>(s.fault_seed);
    js["boards"] = static_cast<std::int64_t>(s.boards);
    js["events"] = static_cast<std::int64_t>(s.events);
    js["rules"] = static_cast<std::int64_t>(s.rules);
    js["all_ok"] = s.all_ok();
    Json jpoints = Json::array();
    for (const FaultThreadPoint& p : s.points) {
      Json jp = Json::object();
      jp["threads"] = static_cast<std::int64_t>(p.threads);
      jp["replay_s"] = p.replay_s;
      jp["retries"] = static_cast<std::int64_t>(p.retries);
      jp["timeouts"] = static_cast<std::int64_t>(p.timeouts);
      jp["injected_faults"] = static_cast<std::int64_t>(p.injected_faults);
      jp["quarantines"] = static_cast<std::int64_t>(p.quarantines);
      jp["resurrections"] = static_cast<std::int64_t>(p.resurrections);
      jp["shed"] = static_cast<std::int64_t>(p.shed);
      jp["dropped_edits"] = static_cast<std::int64_t>(p.dropped_edits);
      jp["drain_failures"] = static_cast<std::int64_t>(p.drain_failures);
      jp["all_equivalent"] = p.all_equivalent;
      jp["gates_ok"] = p.gates_ok;
      Json jboards = Json::array();
      for (const FaultBoardOutcome& b : p.boards) {
        Json jb = Json::object();
        jb["board"] = b.board;
        jb["edits"] = static_cast<std::int64_t>(b.edits);
        jb["applied"] = static_cast<std::int64_t>(b.applied);
        jb["retries"] = static_cast<std::int64_t>(b.retries);
        jb["degraded_retries"] = static_cast<std::int64_t>(b.degraded_retries);
        jb["timeouts"] = static_cast<std::int64_t>(b.timeouts);
        jb["injected_faults"] = static_cast<std::int64_t>(b.injected_faults);
        jb["quarantines"] = static_cast<std::int64_t>(b.quarantines);
        jb["resurrections"] = static_cast<std::int64_t>(b.resurrections);
        jb["shed"] = static_cast<std::int64_t>(b.shed);
        jb["dropped_edits"] = static_cast<std::int64_t>(b.dropped_edits);
        jb["backoff_virtual_s"] = b.backoff_virtual_s;
        jb["quarantined"] = b.quarantined;
        jb["prefix_equivalent"] = b.prefix_equivalent;
        jb["recovered"] = b.recovered;
        jb["equivalent"] = b.equivalent;
        if (!b.mismatch.empty()) jb["mismatch"] = b.mismatch;
        jboards.push_back(std::move(jb));
      }
      jp["boards"] = std::move(jboards);
      jpoints.push_back(std::move(jp));
    }
    js["points"] = std::move(jpoints);
    out.push_back(std::move(js));
  }
  return out;
}

Json Suite::scaling_json(const std::vector<ScalingCurve>& curves) {
  Json jcurves = Json::array();
  for (const ScalingCurve& c : curves) {
    Json jc = Json::object();
    jc["family"] = c.family;
    Json jpoints = Json::array();
    for (const ScalingPoint& p : c.points) {
      Json jp = Json::object();
      jp["threads"] = static_cast<std::int64_t>(p.threads);
      jp["runtime_s"] = p.runtime_s;
      jp["speedup"] = p.speedup;
      jpoints.push_back(std::move(jp));
    }
    jc["points"] = std::move(jpoints);
    jcurves.push_back(std::move(jc));
  }
  return jcurves;
}

Json Suite::to_json(const SuiteResult& result, const SuiteOptions& opts) {
  Json doc = Json::object();
  doc["schema"] = kSchema;
  Json jrun = run_info_json(collect_run_info());
  // Effective parallelism next to the machine context: `hardware_threads`
  // alone says nothing about what the run actually used.
  jrun["threads_used"] = static_cast<std::int64_t>(exec::resolve_threads(opts.threads));
  jrun["pool_policy"] = opts.threads == 0   ? "shared-pool"
                        : opts.threads == 1 ? "serial"
                                            : "explicit-pool";
  doc["run"] = std::move(jrun);

  Json jopts = Json::object();
  jopts["smoke"] = opts.smoke;
  jopts["run_drc"] = opts.run_drc;
  jopts["l_disc"] = opts.router.extender.l_disc;
  jopts["max_width_steps"] = static_cast<std::int64_t>(opts.router.extender.max_width_steps);
  doc["options"] = std::move(jopts);

  // Group cases by family, preserving run order.
  Json jfams = Json::array();
  for (std::size_t i = 0; i < result.cases.size();) {
    const std::string& fam = result.cases[i].family;
    Json jf = Json::object();
    jf["family"] = fam;
    Json jcases = Json::array();
    for (; i < result.cases.size() && result.cases[i].family == fam; ++i) {
      const CaseOutcome& c = result.cases[i];
      Json jc = Json::object();
      jc["scenario"] = c.scenario;
      jc["seed"] = Json{c.seed};  // checked: throws above INT64_MAX
      jc["max_error_gate_pct"] = c.max_error_gate_pct;
      jc["expect_drc_clean"] = c.expect_drc_clean;
      jc["traces"] = static_cast<std::int64_t>(c.traces);
      jc["pairs"] = static_cast<std::int64_t>(c.pairs);
      jc["obstacles"] = static_cast<std::int64_t>(c.obstacles);
      jc["threads_used"] = static_cast<std::int64_t>(c.threads_used);
      jc["ok"] = c.ok();
      Json jgroups = Json::array();
      for (const GroupOutcome& g : c.groups) jgroups.push_back(group_json(g));
      jc["groups"] = std::move(jgroups);
      jc["runtime_s"] = c.runtime_s;
      jcases.push_back(std::move(jc));
    }
    jf["cases"] = std::move(jcases);
    jfams.push_back(std::move(jf));
  }
  doc["families"] = std::move(jfams);
  doc["runtime_s"] = result.runtime_s;

  // Self-description of the generated workloads: one entry per case that
  // actually ran, so `(spec, seed)` pairs in the file regenerate the boards.
  Json jspecs = Json::array();
  for (const scenario::Family& fam : selected_families(opts)) {
    for (const scenario::FamilyCase& fc : fam.cases) {
      Json js = Json::object();
      js["family"] = fam.name;
      js["scenario"] = fc.spec.name;
      js["seed"] = Json{fc.seed};  // checked: throws above INT64_MAX
      if (fc.table1_case > 0) {
        js["table1_case"] = static_cast<std::int64_t>(fc.table1_case);
      } else {
        js["spec"] = spec_json(fc.spec);
      }
      jspecs.push_back(std::move(js));
    }
  }
  doc["specs"] = std::move(jspecs);
  return doc;
}

}  // namespace lmr::bench
