// Parallel scenario fan-out: with ProvisionOptions::floor_mode == kFromBase
// the failure-scenario LPs are order-independent, so a multi-threaded
// provision() must produce a CapacityPlan BIT-IDENTICAL to the sequential
// run — same per-DC cores, same per-link gbps, same scenario order — and
// the warm-started scenario solves must not change the plan either. The
// closed loop's re-provision from a previous result's per-scenario bases
// must reach the same optima as a cold provision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/provisioner.h"
#include "geo/world_presets.h"
#include "trace/config_sampler.h"
#include "trace/trace_gen.h"

namespace sb {
namespace {

struct Fixture {
  Rng rng;
  GeoModel geo;
  CallConfigRegistry registry;
  LoadModel loads = LoadModel::paper_default();
  DemandMatrix demand;

  static RandomWorldParams world_params() {
    RandomWorldParams params;
    params.location_count = 8;
    params.dc_count = 4;
    return params;
  }

  explicit Fixture(std::uint64_t seed)
      : rng(seed),
        geo(make_random_world(rng, world_params())),
        demand(build_demand(seed)) {}

  DemandMatrix build_demand(std::uint64_t seed) {
    UniverseParams universe_params;
    universe_params.config_count = 40;
    universe_params.total_peak_rate_per_hour = 300.0;
    ConfigUniverse universe =
        sample_universe(geo.world, registry, universe_params, rng);
    TraceGenerator trace(geo.world, registry, std::move(universe),
                         DiurnalShape{}, TraceParams{}, seed);
    DemandMatrix full =
        trace.expected_demand(7200.0, kSecondsPerDay, 2 * kSecondsPerDay);
    std::vector<ConfigId> top;
    for (std::size_t i = 0;
         i < std::min<std::size_t>(8, full.config_count()); ++i) {
      top.push_back(full.config_at(i));
    }
    DemandMatrix reduced = make_demand_matrix(top, full.slot_count());
    for (TimeSlot t = 0; t < full.slot_count(); ++t) {
      for (std::size_t c = 0; c < top.size(); ++c) {
        reduced.set_demand(t, c, full.demand(t, c));
      }
    }
    return reduced;
  }

  [[nodiscard]] EvalContext ctx() const {
    return {&geo.world, &geo.topology, &geo.latency, &registry, &loads};
  }
};

void expect_identical_plans(const ProvisionResult& a,
                            const ProvisionResult& b) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t f = 0; f < a.scenarios.size(); ++f) {
    EXPECT_EQ(a.scenarios[f].scenario.name, b.scenarios[f].scenario.name);
    for (std::size_t x = 0; x < a.capacity.dc_serving_cores.size(); ++x) {
      EXPECT_EQ(a.scenarios[f].required.dc_serving_cores[x],
                b.scenarios[f].required.dc_serving_cores[x])
          << a.scenarios[f].scenario.name << " dc " << x;
    }
    for (std::size_t l = 0; l < a.capacity.link_gbps.size(); ++l) {
      EXPECT_EQ(a.scenarios[f].required.link_gbps[l],
                b.scenarios[f].required.link_gbps[l])
          << a.scenarios[f].scenario.name << " link " << l;
    }
  }
  for (std::size_t x = 0; x < a.capacity.dc_serving_cores.size(); ++x) {
    EXPECT_EQ(a.capacity.dc_serving_cores[x], b.capacity.dc_serving_cores[x]);
    EXPECT_EQ(a.capacity.dc_backup_cores[x], b.capacity.dc_backup_cores[x]);
  }
  for (std::size_t l = 0; l < a.capacity.link_gbps.size(); ++l) {
    EXPECT_EQ(a.capacity.link_gbps[l], b.capacity.link_gbps[l]);
  }
}

/// The combined capacity must dominate every scenario's requirement.
void expect_covers_every_scenario(const Fixture& fix,
                                  const ProvisionResult& result) {
  for (const ScenarioOutcome& outcome : result.scenarios) {
    for (std::size_t x = 0; x < fix.geo.world.dc_count(); ++x) {
      EXPECT_LE(outcome.required.dc_serving_cores[x],
                result.capacity.dc_total_cores(
                    DcId(static_cast<std::uint32_t>(x))) +
                    1e-5)
          << outcome.scenario.name;
    }
    for (std::size_t l = 0; l < fix.geo.topology.link_count(); ++l) {
      EXPECT_LE(outcome.required.link_gbps[l],
                result.capacity.link_gbps[l] + 1e-7)
          << outcome.scenario.name;
    }
  }
}

TEST(ParallelProvisionTest, FromBaseFloorsGiveBitIdenticalPlansAcrossThreads) {
  const Fixture fix(4242);
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 4;
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

TEST(ParallelProvisionTest, HardwareConcurrencyAlsoMatches) {
  const Fixture fix(999);
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 0;  // hardware concurrency
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

TEST(ParallelProvisionTest, NoReuseAblationMatchesAcrossThreads) {
  const Fixture fix(777);
  ProvisionOptions options;
  options.capacity_reuse = false;  // independent scenario LPs + max

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 3;
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

// The point of carrying the F0 basis into the failure scenarios: summed
// over every failure scenario, warm-started LPs must take FEWER simplex
// iterations than cold ones while landing on the same optimum. (The hint's
// row statuses matter here — a structural-only hint loses the slack/tight
// row pattern and is measurably worse than cold.)
TEST(ParallelProvisionTest, WarmStartedScenarioSolvesUseFewerIterations) {
  const Fixture fix(4242);
  ProvisionOptions options;
  SwitchboardProvisioner prov(fix.ctx(), options);

  ScenarioBasisHint f0;
  const ScenarioOutcome base = prov.solve_scenario(
      fix.demand, FailureScenario::none(), nullptr, nullptr, nullptr, &f0);
  ASSERT_FALSE(f0.empty());

  const std::vector<FailureScenario> scenarios =
      enumerate_failures(fix.geo.world, fix.geo.topology, true);
  ASSERT_GT(scenarios.size(), 1u);
  std::size_t cold_total = 0;
  std::size_t warm_total = 0;
  for (std::size_t f = 1; f < scenarios.size(); ++f) {
    const ScenarioOutcome cold =
        prov.solve_scenario(fix.demand, scenarios[f], nullptr, &base.required);
    const ScenarioOutcome warm = prov.solve_scenario(
        fix.demand, scenarios[f], nullptr, &base.required, &f0);
    EXPECT_NEAR(cold.lp_objective, warm.lp_objective,
                1e-7 * std::max(1.0, std::abs(cold.lp_objective)))
        << scenarios[f].name;
    cold_total += cold.lp_iterations;
    warm_total += warm.lp_iterations;
  }
  EXPECT_LT(warm_total, cold_total);
}

// The warm-started chained path (the default) must still produce a plan
// whose every scenario requirement the combined capacity dominates — the
// basis hint may change the LP's pivot path but never its optimum.
TEST(ParallelProvisionTest, ChainedModeStillCoversEveryScenario) {
  const Fixture fix(31337);
  ProvisionOptions options;  // defaults: kChained, warm-started, sequential
  SwitchboardProvisioner provisioner(fix.ctx(), options);
  const ProvisionResult result = provisioner.provision(fix.demand);
  ASSERT_FALSE(result.scenarios.empty());
  expect_covers_every_scenario(fix, result);
}

/// Demand rescaled per config column from `from_slot` on, the way the
/// closed loop's corrected demand is: some columns grow, some shrink.
DemandMatrix rescaled(const DemandMatrix& d, TimeSlot from_slot) {
  DemandMatrix out = d;
  for (std::size_t c = 0; c < d.config_count(); ++c) {
    const double ratio = c % 2 == 0 ? 1.6 : 0.5;
    for (TimeSlot t = from_slot; t < d.slot_count(); ++t) {
      out.set_demand(t, c, d.demand(t, c) * ratio);
    }
  }
  return out;
}

void expect_same_objectives(const ProvisionResult& warm,
                            const ProvisionResult& cold) {
  ASSERT_EQ(warm.scenarios.size(), cold.scenarios.size());
  for (std::size_t f = 0; f < warm.scenarios.size(); ++f) {
    EXPECT_EQ(warm.scenarios[f].scenario.name, cold.scenarios[f].scenario.name);
    EXPECT_NEAR(warm.scenarios[f].lp_objective,
                cold.scenarios[f].lp_objective,
                1e-7 * std::max(1.0, std::abs(cold.scenarios[f].lp_objective)))
        << cold.scenarios[f].scenario.name;
  }
}

std::size_t total_iterations(const ProvisionResult& r) {
  std::size_t total = 0;
  for (const ScenarioOutcome& outcome : r.scenarios) {
    total += outcome.lp_iterations;
  }
  return total;
}

// The closed loop's re-provision: every scenario restarts from its own
// basis in the previous result (an rhs-only change, solved by the dual
// simplex). It must land on the same per-scenario optima as a cold
// provision of the new demand, keep every scenario covered, and need fewer
// simplex iterations than the F0-hint path.
TEST(ParallelProvisionTest, RewarmFromPreviousResultMatchesColdProvision) {
  const Fixture fix(4242);
  SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
  const ProvisionResult first = prov.provision(fix.demand);
  ASSERT_EQ(first.bases.size(), first.scenarios.size());
  for (const ScenarioBasisHint& basis : first.bases) {
    EXPECT_FALSE(basis.empty());
  }

  const DemandMatrix next = rescaled(fix.demand, 2);
  const ProvisionResult warm = prov.provision(next, &first);
  const ProvisionResult cold = prov.provision(next);
  expect_same_objectives(warm, cold);
  ASSERT_EQ(warm.bases.size(), warm.scenarios.size());

  expect_covers_every_scenario(fix, warm);
  EXPECT_LT(total_iterations(warm), total_iterations(cold));

  // A second round chains from the first re-provision's bases.
  const DemandMatrix back = rescaled(next, 5);
  expect_same_objectives(prov.provision(back, &warm), prov.provision(back));
}

// kFromBase fans the re-provision out over threads; each scenario still
// starts from its own basis, so the plan stays bit-identical to sequential.
TEST(ParallelProvisionTest, RewarmFromBaseMatchesAcrossThreads) {
  const Fixture fix(999);
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;
  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  options.scenario_threads = 4;
  SwitchboardProvisioner parallel(fix.ctx(), options);

  const ProvisionResult first = sequential.provision(fix.demand);
  const DemandMatrix next = rescaled(fix.demand, 3);
  const ProvisionResult seq = sequential.provision(next, &first);
  const ProvisionResult par = parallel.provision(next, &first);
  expect_identical_plans(seq, par);
  expect_same_objectives(seq, sequential.provision(next));
}

// Bases from a different scenario set (link failures toggled) cannot be
// matched per scenario: provision() must ignore them and run the cold path
// unchanged.
TEST(ParallelProvisionTest, RewarmFromMismatchedScenarioSetFallsBackToCold) {
  const Fixture fix(31337);
  ProvisionOptions with_links;
  ProvisionOptions dc_only;
  dc_only.include_link_failures = false;
  const SwitchboardProvisioner a(fix.ctx(), with_links);
  const SwitchboardProvisioner b(fix.ctx(), dc_only);
  const DemandMatrix next = rescaled(fix.demand, 2);

  const ProvisionResult a_first = a.provision(fix.demand);
  const ProvisionResult b_warm = b.provision(next, &a_first);
  const ProvisionResult b_cold = b.provision(next);
  expect_same_objectives(b_warm, b_cold);
  expect_identical_plans(b_warm, b_cold);
  EXPECT_EQ(total_iterations(b_warm), total_iterations(b_cold));

  const ProvisionResult b_first = b.provision(fix.demand);
  const ProvisionResult a_warm = a.provision(next, &b_first);
  const ProvisionResult a_cold = a.provision(next);
  expect_same_objectives(a_warm, a_cold);
  expect_identical_plans(a_warm, a_cold);
  EXPECT_EQ(total_iterations(a_warm), total_iterations(a_cold));
}

}  // namespace
}  // namespace sb
