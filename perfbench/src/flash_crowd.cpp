// flash_crowd: the closed loop under a spike the forecast never saw, plus a
// DC failure at the spike's peak (bench/sec_loop's scenario).
//
// Why it exists: it is the only workload for the fault drain, install_plan
// and the AdaptiveController, and it uses the LP differently from
// design_day — about 85% of its closed-loop replay is warm, repeated,
// DC-only re-provisions. The plan is provisioned from the base design day
// (x60 the base call rate); the truth trace carries a 4x viral spike on
// the busiest slot, and the DC carrying the most load when the spike peaks
// fails for 30 minutes. The open-loop replay runs once as the yardstick of
// the correctness check; the closed-loop replay is what is timed.
#include <optional>
#include <vector>

#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "loop/adaptive.h"
#include "loop/demand_schedule.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kAmplify = 60.0;
constexpr std::size_t kTopConfigs = 30;
constexpr double kSlotS = 3600.0;
constexpr double kPeak = 4.0;
constexpr double kOutageS = 30.0 * 60.0;

struct Inputs {
  sb::Scenario scenario;
  std::optional<sb::DemandMatrix> forecast;
  sb::CallRecordDatabase truth;
  double fail_at = 0.0;
  double generate_s = 0.0;
};

Inputs build_inputs(const Options& options) {
  Inputs in{make_scenario(kAmplify, options), {}, {}, 0.0, 0.0};
  const sb::TraceGenerator& trace = *in.scenario.trace;
  // Forecast: the base design day's expected demand, top configs only.
  const sb::DemandMatrix full = trace.expected_demand(
      kSlotS, sb::kSecondsPerDay, 2.0 * sb::kSecondsPerDay);
  std::vector<sb::ConfigId> configs;
  for (std::size_t c = 0; c < kTopConfigs; ++c) {
    configs.push_back(full.config_at(c));
  }
  sb::DemandMatrix forecast =
      sb::make_demand_matrix(configs, full.slot_count());
  sb::TimeSlot peak_slot = 0;
  double peak_demand = 0.0;
  for (sb::TimeSlot t = 0; t < full.slot_count(); ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < kTopConfigs; ++c) {
      forecast.set_demand(t, c, full.demand(t, c));
      total += full.demand(t, c);
    }
    if (total > peak_demand) {
      peak_demand = total;
      peak_slot = t;
    }
  }
  in.forecast.emplace(std::move(forecast));

  // Truth: three hours centred on the busiest slot; demand ramps to kPeak x
  // over 40 min, holds an hour and decays over 30 min.
  const double peak_time =
      sb::kSecondsPerDay + (static_cast<double>(peak_slot) + 0.5) * kSlotS;
  const double window_s = 3.0 * sb::kSecondsPerHour;
  const double window_start = peak_time - 0.5 * window_s;
  const sb::loop::DemandSchedule spike = sb::loop::DemandSchedule::viral_spike(
      window_start + 20.0 * 60.0, 40.0 * 60.0, kPeak, 60.0 * 60.0,
      30.0 * 60.0);
  const double t0 = process_cpu_s();
  in.truth = spike.scale_trace(
      trace.generate(window_start, window_start + window_s), options.seed);
  in.generate_s = process_cpu_s() - t0;
  in.fail_at = peak_time;
  return in;
}

/// Forwards every event to the AdaptiveController and times the calls in
/// which it re-provisioned. In the batched engine a tick can only fire from
/// batch_end or a fault hook, so only those are timed.
class ReplanTimer final : public TracedAllocator {
 public:
  ReplanTimer(sb::loop::AdaptiveController& loop, TracedPass* pass)
      : TracedAllocator(loop, pass), loop_(&loop) {}

  void batch_end(sb::SimTime now) override {
    timed([&] { TracedAllocator::batch_end(now); });
  }
  sb::fault::FailoverOutcome on_dc_failed(sb::DcId dc,
                                          sb::SimTime now) override {
    sb::fault::FailoverOutcome out;
    timed([&] { out = TracedAllocator::on_dc_failed(dc, now); });
    return out;
  }
  void on_dc_recovered(sb::DcId dc, sb::SimTime now) override {
    timed([&] { TracedAllocator::on_dc_recovered(dc, now); });
  }

  std::vector<double> replan_ms;

 private:
  template <class F>
  void timed(F&& call) {
    const std::uint64_t before = loop_->stats().replans;
    const double t0 = process_cpu_s();
    call();
    if (loop_->stats().replans > before) {
      replan_ms.push_back((process_cpu_s() - t0) * 1e3);
    }
  }

  sb::loop::AdaptiveController* loop_;
};

struct ClosedRun {
  sb::SimReport report;
  sb::loop::LoopStats stats;
  std::vector<double> replan_ms;
  double replay_s = 0.0;
  double drain_s = 0.0;
  double install_s = 0.0;
};

}  // namespace

void run_flash_crowd(const Options& options, Report& report) {
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
  const sb::DemandMatrix& forecast = *in->forecast;
  const double calls = static_cast<double>(in->truth.size());
  sb::ControllerOptions copts;
  copts.provision.include_link_failures = false;

  // Cold plan cycle: provision (DC failure scenarios only) and plan.
  std::optional<sb::Switchboard> controller;
  double cost = 0.0;
  std::size_t scenarios = 0;
  double provision_s = 0.0;
  double build_s = 0.0;
  const auto plan_cycle = [&]() {
    controller.reset();
    controller.emplace(ctx, copts);
    double t0 = process_cpu_s();
    {
      BenchSpan span("provision.solve", "provision");
      const sb::ProvisionResult& result = controller->provision(forecast);
      cost = result.capacity.total_cost(scenario.world(), scenario.topology());
      scenarios = result.scenarios.size();
    }
    provision_s = process_cpu_s() - t0;
    t0 = process_cpu_s();
    {
      BenchSpan span("plan.build", "plan");
      controller->build_allocation_plan(forecast, sb::kSecondsPerDay);
    }
    build_s = process_cpu_s() - t0;
    return provision_s + build_s;
  };

  sb::fault::FaultSchedule faults;
  const auto closed_replay = [&](TracedPass* pass) {
    sb::obs::TimeSeriesRecorder recorder(&sb::obs::MetricsRegistry::global(),
                                         {.period_s = 60.0});
    sb::loop::LoopOptions lopts;
    lopts.cadence_s = 300.0;
    lopts.deviation_band = 0.3;
    sb::loop::AdaptiveController loop(*controller, ctx, forecast,
                                      sb::kSecondsPerDay, kSlotS, lopts,
                                      &recorder);
    ReplanTimer timer(loop, pass);
    ClosedRun run;
    const sb::obs::MetricsSnapshot before =
        sb::obs::MetricsRegistry::global().snapshot();
    const double t0 = process_cpu_s();
    {
      BenchSpan span("loop.closed_replay", "loop");
      run.report = sim.run(in->truth, timer, 300.0, &faults);
    }
    run.replay_s = process_cpu_s() - t0;
    const sb::obs::MetricsSnapshot delta = registry_since(before);
    run.drain_s = histogram_sum(delta, "sb.fault.drain_s");
    run.install_s = histogram_sum(delta, "sb.provisioner.allocation_plan_s");
    run.stats = loop.stats();
    run.replan_ms = std::move(timer.replan_ms);
    return run;
  };
  const auto check_quiescent = [&]() {
    gate(controller->held_slots() == 0, "plan slots held at quiescence");
    gate(controller->active_calls() == 0, "calls still active at quiescence");
  };

  // --- Warm-up: pick the victim DC from a no-fault replay, run the open
  // loop as the yardstick, then the closed loop once.
  plan_cycle();
  const double reference_cost = cost;
  sb::DcId victim;
  {
    sb::ControllerAllocator alloc(*controller);
    const sb::SimReport base = sim.run(in->truth, alloc, 300.0);
    const auto bucket =
        static_cast<std::size_t>(in->fail_at / base.bucket_s) - 1;
    double most = -1.0;
    for (std::size_t x = 0; x < base.dc_cores_buckets.size(); ++x) {
      const auto& series = base.dc_cores_buckets[x];
      const double load = bucket < series.size() ? series[bucket] : 0.0;
      if (load > most) {
        most = load;
        victim = sb::DcId(static_cast<std::uint32_t>(x));
      }
    }
  }
  faults.fail_dc(victim, in->fail_at, kOutageS);
  controller->build_allocation_plan(forecast, sb::kSecondsPerDay);
  std::uint64_t open_dropped = 0;
  {
    sb::ControllerAllocator alloc(*controller);
    open_dropped = sim.run(in->truth, alloc, 300.0, &faults).dropped_calls;
    check_quiescent();
  }
  controller->build_allocation_plan(forecast, sb::kSecondsPerDay);
  const ClosedRun reference = closed_replay(nullptr);
  check_quiescent();
  std::uint64_t closed_dropped = reference.report.dropped_calls;
  if (options.tamper == "closed_drops") closed_dropped = open_dropped;
  gate(open_dropped > 0, "the open loop shed no calls, so the check is void");
  gate(closed_dropped < open_dropped,
       "closed loop dropped " + std::to_string(closed_dropped) +
           " calls, not fewer than the open loop's " +
           std::to_string(open_dropped));
  gate(reference.stats.replans >= 1, "the closed loop never re-planned");

  // --- Timed: each repetition is one plan sample (the mean of enough cold
  // cycles to fill a second) and one closed-loop replay; the outputs must
  // repeat exactly.
  std::vector<double> plan_s, provision_samples, build_samples, replay_s,
      replan_ms, replan_share, drain_s, install_s;
  const auto iteration = [&]() {
    plan_s.push_back(mean_over(1.0, plan_cycle));
    gate(cost == reference_cost, "provision_cost differs between repetitions");
    provision_samples.push_back(provision_s);
    build_samples.push_back(build_s);
    const ClosedRun run = closed_replay(nullptr);
    check_quiescent();
    gate(run.report.dropped_calls == reference.report.dropped_calls &&
             run.stats.replans == reference.stats.replans &&
             run.report.mean_acl_ms == reference.report.mean_acl_ms,
         "closed-loop outputs differ between repetitions");
    replay_s.push_back(run.replay_s);
    replan_ms.insert(replan_ms.end(), run.replan_ms.begin(),
                     run.replan_ms.end());
    double replan_total = 0.0;
    for (double ms : run.replan_ms) replan_total += ms * 1e-3;
    replan_share.push_back(replan_total / run.replay_s);
    drain_s.push_back(run.drain_s);
    install_s.push_back(run.install_s);
    report.attempted += run.report.calls;
  };
  repeat_for(options.seconds, 3, iteration);

  describe(options, "setup_s", setup_s);
  describe(options, "plan_cycle_s", plan_s);
  describe(options, "closed_replay_s", replay_s);
  report.e2e("setup_s", fastest(setup_s), "s");
  report.e2e("plan_cycle_s", fastest(plan_s), "s");
  report.e2e("replay_calls_per_s", calls / fastest(replay_s), "calls/s");
  report.e2e("provision_cost", reference_cost, "cost");
  report.e2e("mean_acl_ms", reference.report.mean_acl_ms, "ms");

  report.layer("trace.generate_s", median(generate_s), "s");
  report.layer("trace.calls", calls, "count");
  report.layer("provision.solve_s", median(provision_samples), "s");
  report.layer("provision.scenarios", static_cast<double>(scenarios), "count");
  report.layer("plan.build_s", median(build_samples), "s");
  report.layer("plan.install_s", median(install_s), "s");
  report.layer("loop.ticks", static_cast<double>(reference.stats.ticks),
               "count");
  report.layer("loop.triggers", static_cast<double>(reference.stats.triggers),
               "count");
  report.layer("loop.replans", static_cast<double>(reference.stats.replans),
               "count");
  report.layer("loop.replan_ms_p50", median(replan_ms), "ms");
  report.layer("loop.replan_ms_max", max_of(replan_ms), "ms");
  report.layer("loop.replan_share", median(replan_share), "ratio");
  report.layer("sim.replay_s", median(replay_s), "s");
  report.layer("fault.drain_s", median(drain_s), "s");
  report.layer("fault.failover_migrations",
               static_cast<double>(reference.report.failover_migrations),
               "count");
  report.layer("dropped_frac",
               static_cast<double>(reference.report.dropped_calls) / calls,
               "ratio");
  const sb::RealtimeSelector::Stats rs = controller->realtime_stats();
  report.layer("realtime.unplanned", static_cast<double>(rs.unplanned),
               "count");
  report.layer("realtime.migrations", static_cast<double>(rs.migrations),
               "count");

  if (options.trace) {
    TracedPass pass(report, options);
    const double p = plan_cycle();
    pass.end_stage();
    const ClosedRun run = closed_replay(&pass);
    check_quiescent();
    const sb::obs::MetricsSnapshot delta =
        pass.finish(p + run.replay_s, fastest(plan_s) + fastest(replay_s));
    report_lp_counters(report, delta);
  }
}

}  // namespace perfbench
