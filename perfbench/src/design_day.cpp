// design_day: the offline planning pipeline and a full design-day replay.
//
// Why it exists: this is where cold LP solves and the replay engine do
// nearly all the work, and where cluster, kvstore, pack, loop and fault do
// none. Table 4's flow forecasts the top configs from eight weeks of
// arrival counts, provisions with every DC and link failure scenario, builds
// the allocation plan, and replays the forecast day (kAmplify, x70 the base
// call rate, ~610k calls) through the plan-driven controller on the batched
// engine.
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "forecast/forecaster.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kAmplify = 70.0;
constexpr std::size_t kTopConfigs = 30;
constexpr std::size_t kHistoryWeeks = 8;
constexpr double kSlotS = 3600.0;

struct Inputs {
  sb::Scenario scenario;
  std::vector<std::vector<double>> history;  ///< per config, whole history
  std::vector<sb::ConfigId> configs;
  sb::CallRecordDatabase day;  ///< the forecast design day's calls
  double day_start = 0.0;
  double generate_s = 0.0;
};

double history_end_s() {
  return static_cast<double>(kHistoryWeeks) * sb::kSecondsPerWeek;
}

Inputs build_inputs(const Options& options) {
  Inputs in{make_scenario(kAmplify, options), {}, {}, {}, 0.0, 0.0};
  const sb::TraceGenerator& trace = *in.scenario.trace;
  // The history is drawn from the scenario seed, so every --seed forecasts
  // and provisions the same day and only the replayed draw of it changes:
  // the LP work, and so plan_cycle_s, does not vary with the seed.
  const sb::TraceGenerator history(
      in.scenario.world(), *in.scenario.registry, trace.universe(),
      sb::DiurnalShape{}, sb::TraceParams{}, options.scenario_seed);
  for (std::size_t i = 0; i < kTopConfigs; ++i) {
    in.history.push_back(
        history.arrival_count_series(i, 0.0, history_end_s()));
    in.configs.push_back(trace.universe().configs[i].config);
  }
  // The design day is the Tuesday of the week after the history.
  in.day_start = history_end_s() + sb::kSecondsPerDay;
  const double t0 = process_cpu_s();
  in.day = trace.generate(in.day_start, in.day_start + sb::kSecondsPerDay);
  in.generate_s = process_cpu_s() - t0;
  return in;
}

/// Table 4's forecast: a validation week sets the cushion, then every
/// config is forecast one week past the history and the design day is cut
/// out of that week in kSlotS slots.
sb::DemandMatrix forecast_design_day(const Inputs& in) {
  const sb::TraceGenerator& trace = *in.scenario.trace;
  const double bucket_s = trace.params().bucket_s;
  const auto week = static_cast<std::size_t>(sb::kSecondsPerWeek / bucket_s);
  const std::size_t validation_len = in.history.front().size() - week;
  std::vector<double> truth(week, 0.0);
  std::vector<double> predicted(week, 0.0);
  std::vector<std::vector<double>> forecasts;
  for (const std::vector<double>& series : in.history) {
    const std::span<const double> all(series);
    const auto fit = sb::forecast_calls(all.first(validation_len), week, week);
    for (std::size_t b = 0; b < week; ++b) {
      truth[b] += series[validation_len + b];
      predicted[b] += fit[b];
    }
    forecasts.push_back(sb::forecast_calls(all, week, week));
  }
  const double cushion = sb::estimate_cushion(truth, predicted, 2.0, 0.75);
  const sb::DemandMatrix horizon = sb::demand_from_arrivals(
      forecasts, in.configs, bucket_s, trace.params().mean_duration_s,
      cushion);

  const auto first = static_cast<std::size_t>(sb::kSecondsPerDay / bucket_s);
  const auto per_slot = static_cast<std::size_t>(kSlotS / bucket_s);
  const auto slots = static_cast<std::size_t>(sb::kSecondsPerDay / kSlotS);
  sb::DemandMatrix day = sb::make_demand_matrix(in.configs, slots);
  for (std::size_t c = 0; c < in.configs.size(); ++c) {
    for (std::size_t t = 0; t < slots; ++t) {
      double sum = 0.0;
      for (std::size_t b = 0; b < per_slot; ++b) {
        sum += horizon.demand(
            static_cast<sb::TimeSlot>(first + t * per_slot + b), c);
      }
      day.set_demand(static_cast<sb::TimeSlot>(t), c,
                     sum / static_cast<double>(per_slot));
    }
  }
  return day;
}

std::uint64_t hash_log(const sb::HostingLog& log) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const sb::HostingEvent& e : log.events) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.time, sizeof(bits));
    mix(e.record);
    mix(bits);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.dc.valid() ? e.dc.value() : ~0u);
    mix(e.server.valid() ? e.server.value() : ~0u);
  }
  return h;
}

struct PlanTimes {
  double forecast_s = 0.0;
  double provision_s = 0.0;
  double plan_s = 0.0;
  [[nodiscard]] double total() const {
    return forecast_s + provision_s + plan_s;
  }
};

}  // namespace

void run_design_day(const Options& options, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::optional<Inputs> in;
  set_up(in, [&] { return build_inputs(options); }, setup_s, generate_s);
  const sb::Scenario& scenario = in->scenario;
  const sb::LoadModel loads = sb::LoadModel::paper_default();
  const sb::EvalContext ctx{&scenario.world(), &scenario.topology(),
                            &scenario.latency(), scenario.registry.get(),
                            &loads};
  const sb::Simulator sim(ctx);
  const double calls = static_cast<double>(in->day.size());

  // Cold plan cycle: forecast, provision with every DC and link failure
  // scenario, allocation plan. A fresh controller each time, so every
  // provision is a cold solve.
  std::optional<sb::Switchboard> controller;
  std::optional<sb::DemandMatrix> demand;
  double cost = 0.0;
  std::size_t scenarios = 0;
  const auto plan_cycle = [&]() {
    PlanTimes t;
    double t0 = process_cpu_s();
    {
      BenchSpan span("forecast.fit", "forecast");
      demand.emplace(forecast_design_day(*in));
    }
    t.forecast_s = process_cpu_s() - t0;
    controller.reset();
    controller.emplace(ctx, sb::ControllerOptions{});
    t0 = process_cpu_s();
    {
      BenchSpan span("provision.solve", "provision");
      const sb::ProvisionResult& result = controller->provision(*demand);
      cost = result.capacity.total_cost(scenario.world(), scenario.topology());
      scenarios = result.scenarios.size();
    }
    t.provision_s = process_cpu_s() - t0;
    t0 = process_cpu_s();
    {
      BenchSpan span("plan.build", "plan");
      controller->build_allocation_plan(*demand, in->day_start);
    }
    t.plan_s = process_cpu_s() - t0;
    return t;
  };

  // One replay of the design day on a fresh selector. `log` is only passed
  // by the untimed check replays, `pass` by the traced one.
  std::int64_t page_faults = 0;
  const auto replay = [&](sb::HostingLog* log, TracedPass* pass) {
    controller->build_allocation_plan(*demand, in->day_start);
    sb::ControllerAllocator controller_alloc(*controller);
    TracedAllocator alloc(controller_alloc, pass);
    const std::int64_t f0 = minor_faults();
    const double t0 = process_cpu_s();
    sb::SimReport rep;
    {
      BenchSpan span("sim.run", "sim");
      rep = sim.run(in->day, alloc, 300.0, nullptr, 60.0, log);
    }
    const double dt = process_cpu_s() - t0;
    page_faults = minor_faults() - f0;
    return std::make_pair(rep, dt);
  };
  const auto check_replay = [&](const sb::SimReport& rep) {
    gate(rep.calls == in->day.size(), "replay lost calls");
    gate(rep.dropped_calls == 0, "calls dropped without any fault");
    gate(controller->held_slots() == 0, "plan slots held at quiescence");
    gate(controller->active_calls() == 0, "calls still active at quiescence");
  };

  // --- Warm-up pass, which also fixes the reference outputs.
  plan_cycle();
  const double reference_cost = cost;
  sb::HostingLog reference_log;
  const sb::SimReport reference = replay(&reference_log, nullptr).first;
  check_replay(reference);

  // --- Timed: each repetition is one cold plan cycle and one replay
  // sample, the mean of the replays that fill a CPU second.
  std::vector<double> plan_s, forecast_s, provision_s, build_s, replay_s,
      faults_per_kcall;
  const auto iteration = [&]() {
    const PlanTimes t = plan_cycle();
    gate(cost == reference_cost, "provision_cost differs between repetitions");
    plan_s.push_back(t.total());
    forecast_s.push_back(t.forecast_s);
    provision_s.push_back(t.provision_s);
    build_s.push_back(t.plan_s);
    replay_s.push_back(mean_over(1.0, [&] {
      const auto [rep, dt] = replay(nullptr, nullptr);
      check_replay(rep);
      gate(rep.mean_acl_ms == reference.mean_acl_ms &&
               rep.migrations == reference.migrations,
           "replay outputs differ between repetitions");
      faults_per_kcall.push_back(static_cast<double>(page_faults) * 1e3 /
                                 calls);
      report.attempted += rep.calls;
      return dt;
    }));
  };
  repeat_for(options.seconds, 3, iteration);

  // The hosting log of a replay after the timed loop must match the
  // warm-up's event for event.
  sb::HostingLog final_log;
  check_replay(replay(&final_log, nullptr).first);
  if (options.tamper == "hosting_log" && !final_log.events.empty()) {
    sb::HostingEvent& last = final_log.events.back();
    last.dc = sb::DcId(last.dc.value() + 1);
  }
  gate(hash_log(final_log) == hash_log(reference_log),
       "hosting log differs between repetitions");

  describe(options, "setup_s", setup_s);
  describe(options, "plan_cycle_s", plan_s);
  describe(options, "provision_s", provision_s);
  describe(options, "replay_s", replay_s);
  report.e2e("setup_s", fastest(setup_s), "s");
  report.e2e("plan_cycle_s", fastest(plan_s), "s");
  report.e2e("replay_calls_per_s", calls / fastest(replay_s), "calls/s");
  report.e2e("provision_cost", reference_cost, "cost");
  report.e2e("mean_acl_ms", reference.mean_acl_ms, "ms");

  report.layer("trace.generate_s", median(generate_s), "s");
  report.layer("trace.calls", calls, "count");
  report.layer("forecast.fit_s", median(forecast_s), "s");
  report.layer("provision.solve_s", median(provision_s), "s");
  report.layer("provision.scenarios", static_cast<double>(scenarios), "count");
  report.layer("plan.build_s", median(build_s), "s");
  report.layer("sim.replay_s", median(replay_s), "s");
  report.layer("sim.minflt_per_kcall", median(faults_per_kcall), "faults");
  const sb::RealtimeSelector::Stats rs = controller->realtime_stats();
  report.layer("realtime.unplanned", static_cast<double>(rs.unplanned),
               "count");
  report.layer("realtime.migrations", static_cast<double>(rs.migrations),
               "count");

  if (options.trace) {
    TracedPass pass(report, options);
    const PlanTimes t = plan_cycle();
    pass.end_stage();
    const auto [rep, dt] = replay(nullptr, &pass);
    check_replay(rep);
    const sb::obs::MetricsSnapshot delta =
        pass.finish(t.total() + dt, fastest(plan_s) + fastest(replay_s));
    report_lp_counters(report, delta);
  }
}

}  // namespace perfbench
