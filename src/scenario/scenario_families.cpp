#include "scenario/scenario_families.hpp"

#include <stdexcept>
#include <utility>

#include "workload/table1_cases.hpp"

namespace lmr::scenario {

namespace {

ScenarioSpec base_spec(std::string name) {
  ScenarioSpec s;
  s.name = std::move(name);
  return s;
}

Family multi_group(bool smoke) {
  Family f;
  f.name = "multi_group";
  f.description = "several matching groups stacked on one board";
  if (smoke) {
    ScenarioSpec s = base_spec("multi_group/2x3");
    s.groups = 2;
    s.members_per_group = 3;
    s.corridor_length = 60.0;
    s.vias_per_band = 6;
    f.cases.push_back({s, 7101});
  } else {
    ScenarioSpec a = base_spec("multi_group/3x6");
    a.groups = 3;
    a.members_per_group = 6;
    a.vias_per_band = 14;
    f.cases.push_back({a, 7101});
    ScenarioSpec b = base_spec("multi_group/2x10");
    b.groups = 2;
    b.members_per_group = 10;
    b.vias_per_band = 18;
    f.cases.push_back({b, 7102});
  }
  return f;
}

Family large_group(bool smoke) {
  Family f;
  f.name = "large_group";
  f.description = "one very wide rotated matching group (DRC-sweep scaling workload)";
  // Rotated on purpose: with axis-aligned bands a bbox pre-reject trivializes
  // the cross-member check; the 30-degree board makes every trace-pair bbox
  // overlap, which is the regime where the indexed sweep beats the all-pairs
  // loop by ~m.
  ScenarioSpec s = base_spec(smoke ? "large_group/12" : "large_group/40");
  s.members_per_group = smoke ? 12 : 40;
  s.vias_per_band = smoke ? 4 : 8;
  s.target_fraction = 1.35;
  s.corridor_angle_deg = 30.0;
  s.extender_tolerance = 0.05;
  if (smoke) s.corridor_length = 60.0;
  f.cases.push_back({s, 7701});
  return f;
}

Family mixed_se_diff(bool smoke) {
  Family f;
  f.name = "mixed_se_diff";
  f.description = "groups mixing single-ended and differential members";
  ScenarioSpec s = base_spec(smoke ? "mixed_se_diff/4" : "mixed_se_diff/8");
  s.diff_fraction = smoke ? 0.5 : 0.375;
  s.members_per_group = smoke ? 4 : 8;
  s.band_height = 6.0;
  s.vias_per_band = smoke ? 5 : 10;
  if (smoke) s.corridor_length = 60.0;
  f.cases.push_back({s, 7201});
  if (!smoke) f.cases.push_back({s, 7202});
  return f;
}

Family pair_corridors(bool smoke) {
  Family f;
  f.name = "pair_corridors";
  f.description = "multi-DRA differential corridors (MSDTW multi-scale rounds)";
  ScenarioSpec s = base_spec(smoke ? "pair_corridors/2x2dra" : "pair_corridors/4x3dra");
  s.diff_fraction = 1.0;
  s.members_per_group = smoke ? 2 : 4;
  s.dra_sections = smoke ? 2 : 3;
  s.dra_width_factor = 2.5;
  s.band_height = 6.0;
  s.vias_per_band = smoke ? 3 : 6;
  s.target_fraction = 1.3;
  if (smoke) s.corridor_length = 60.0;
  f.cases.push_back({s, 7301});
  if (!smoke) f.cases.push_back({s, 7302});
  return f;
}

Family obstacle_sweep(bool smoke) {
  Family f;
  f.name = "obstacle_sweep";
  f.description = "via-density sweep over randomized corridors";
  const std::vector<int> densities = smoke ? std::vector<int>{4, 10}
                                           : std::vector<int>{6, 14, 22, 30};
  std::uint64_t seed = 7401;
  for (const int vias : densities) {
    ScenarioSpec s = base_spec("obstacle_sweep/v" + std::to_string(vias));
    s.members_per_group = smoke ? 3 : 6;
    s.vias_per_band = vias;
    s.target_fraction = 1.4;
    if (smoke) s.corridor_length = 60.0;
    f.cases.push_back({s, seed++});
  }
  return f;
}

Family any_direction(bool smoke) {
  Family f;
  f.name = "any_direction";
  f.description = "rotated corridors (no axis-aligned assumption)";
  ScenarioSpec s = base_spec("any_direction/30deg");
  s.corridor_angle_deg = 30.0;
  s.extender_tolerance = 0.05;
  s.members_per_group = smoke ? 2 : 4;
  s.vias_per_band = smoke ? 4 : 8;
  if (smoke) s.corridor_length = 60.0;
  f.cases.push_back({s, 7501});
  return f;
}

Family saturated(bool smoke) {
  (void)smoke;  // already tiny: one member, short corridor
  Family f;
  f.name = "saturated";
  f.description = "far-unreachable targets: matching impossible, DRC must hold";
  f.max_error_gate_pct = 0.0;  // capacity probe: no matching gate
  f.cases.push_back({saturated_corridor_spec(), 7601});
  return f;
}

Family table1(bool smoke) {
  Family f;
  f.name = "table1";
  f.description = "the paper's Table I workload through the suite writer";
  // The paper's Table I "Ours" column tops out at 10.3 % Max error; the
  // regenerated differential case lands somewhat above it.
  f.max_error_gate_pct = 15.0;
  const std::vector<int> ks = smoke ? std::vector<int>{4} : std::vector<int>{1, 2, 3, 4, 5};
  for (const int k : ks) {
    FamilyCase fc;
    fc.spec = base_spec("table1/case" + std::to_string(k));
    fc.seed = static_cast<std::uint64_t>(k);
    fc.table1_case = k;
    // Every case is gated, including the dense differential case 5: the
    // rule-aware restore (restore-feasible pre-tuned pairs, board-validated
    // skew compensation, per-node-pitch restore) closed the former DRC debt.
    fc.expect_drc_clean = true;
    f.cases.push_back(fc);
  }
  return f;
}

Family mega_board(bool smoke) {
  Family f;
  f.name = "mega_board";
  f.description =
      "backplane-scale board: 1k+ nets across many groups in a dense via "
      "field (obstacle-index + grid-broadphase workload)";
  // 16 groups x 64 members = 1024 nets (full): a 1k-slot board-wide
  // clearance index, the scale the grid re-sweep is built for; 12 vias per
  // member band make 12k obstacles for the board obstacle index. A modest
  // target fraction keeps the per-member extension cheap — this family
  // scales breadth, not meander depth. The band is taller than the default 5.0: with a low target
  // fraction most members start straight, and in a 5-tall band the straight
  // path's via keep-out (~1.9 each side) covers the whole placement window —
  // 7.0 leaves free strips above and below so the via field actually gets
  // dense.
  ScenarioSpec s = base_spec(smoke ? "mega_board/256" : "mega_board/1k");
  s.groups = smoke ? 8 : 16;
  s.members_per_group = smoke ? 32 : 64;
  s.vias_per_band = smoke ? 6 : 12;
  s.band_height = 7.0;
  s.corridor_length = smoke ? 48.0 : 80.0;
  s.target_fraction = 1.1;
  f.cases.push_back({s, 7901});
  return f;
}

}  // namespace

Scenario materialize(const FamilyCase& fc) {
  if (fc.table1_case > 0) {
    workload::Table1Case c = workload::table1_case(fc.table1_case);
    Scenario sc;
    sc.spec = fc.spec;
    sc.spec.rules = c.rules;
    sc.spec.members_per_group = c.group_size;
    sc.spec.target_fraction = 0.0;  // target comes from the case itself
    sc.seed = fc.seed;
    sc.rules = c.rules;
    sc.layout = std::move(c.layout);
    return sc;
  }
  return ScenarioGenerator(fc.spec).generate(fc.seed);
}

ScenarioSpec saturated_corridor_spec() {
  ScenarioSpec s = base_spec("saturated/narrow");
  s.members_per_group = 1;
  s.corridor_length = 40.0;
  s.band_height = 16.0;
  s.vias_per_band = 2;
  s.via_radius = 1.0;
  // Target 25x the corridor run — far beyond any meander capacity; the
  // member starts straight (no pre-tuned bumps).
  s.target_fraction = 25.0;
  s.initial_frac_lo = 0.0;
  s.initial_frac_hi = 0.0;
  return s;
}

std::vector<Family> standard_families(bool smoke) {
  return {multi_group(smoke),    large_group(smoke),    mixed_se_diff(smoke),
          pair_corridors(smoke), obstacle_sweep(smoke), any_direction(smoke),
          saturated(smoke),      table1(smoke),         mega_board(smoke)};
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const Family& f : standard_families(true)) names.push_back(f.name);
  return names;
}

Family family(const std::string& name, bool smoke) {
  for (Family& f : standard_families(smoke)) {
    if (f.name == name) return std::move(f);
  }
  throw std::out_of_range("scenario::family: unknown family " + name);
}

}  // namespace lmr::scenario
