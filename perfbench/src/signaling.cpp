// signaling: the multi-threaded realtime control plane.
//
// Why it exists: it is the only workload that drives cluster, kvstore and
// pack under contention, while the LP and the simulator do almost nothing.
// The busiest six hours of the design day become a stream of start, freeze
// and end events. Three load threads, each pinned to its own CPU, send
// them through a four-worker ClusterController (WAL to the KvStore, no
// injected latency) over a packed fleet of eight media servers per DC. Events
// are split by CallId, so each call's events keep their order on one thread.
//
// Two load shapes:
//  - closed loop: every thread sends its next event as soon as the previous
//    one returns. The end-to-end replay_calls_per_s is one thread's pass
//    over the whole stream, timed by that thread's CPU clock; the three-
//    thread saturation rate (wall clock, so it shows waiting on the
//    cluster's lock) is the per-layer signal_events_per_s;
//  - open loop at fixed total rates of 100k and 200k events/s: event k of
//    the merged stream is due at k / rate, so the threads' due times
//    interleave instead of arriving in lockstep; latency runs from the due
//    time to completion. Each pass sends one sixth of the calls (a fixed
//    stride), so a pass is about a second of load. Open-loop latencies are
//    per-layer metrics, so only the traced run measures them.
#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calls/acl.h"
#include "cluster/controller.h"
#include "cluster/wal.h"
#include "core/controller.h"
#include "core/provisioner.h"
#include "geo/world_presets.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kAmplify = 66.0;
constexpr std::size_t kTopConfigs = 30;
constexpr double kSlotS = 3600.0;
constexpr double kWindowH = 6.0;
constexpr std::size_t kLoadThreads = 3;
constexpr std::size_t kClusterWorkers = 4;
constexpr std::size_t kServersPerDc = 8;
constexpr std::size_t kSlices = 6;
constexpr std::size_t kOpenSlices = 3;
/// The traced pass sends every kTracedStride-th call, so each load thread's
/// library spans fit its recorder ring.
constexpr std::size_t kTracedStride = 24;
constexpr double kRates[] = {100e3, 200e3};
constexpr const char* kRateNames[] = {"r100k", "r200k"};

enum class Kind : std::uint8_t { kStart, kFreeze, kEnd };

struct Event {
  double time = 0.0;
  std::uint32_t record = 0;
  Kind kind = Kind::kStart;
};

struct Inputs {
  sb::Scenario scenario;
  std::optional<sb::DemandMatrix> demand;
  sb::CallRecordDatabase calls;
  std::vector<Event> events;  ///< merged stream in time order
  double generate_s = 0.0;
};

constexpr double kFreezeDelayS = 300.0;

Inputs build_inputs(const Options& options) {
  Inputs in{make_scenario(kAmplify, options), {}, {}, {}, 0.0};
  sb::Scenario& scenario = in.scenario;
  const sb::TraceGenerator& trace = *scenario.trace;

  // The plan: the design day's expected demand for the top configs, F0 only.
  const sb::DemandMatrix full = trace.expected_demand(
      kSlotS, sb::kSecondsPerDay, 2.0 * sb::kSecondsPerDay);
  std::vector<sb::ConfigId> configs;
  for (std::size_t c = 0; c < kTopConfigs; ++c) {
    configs.push_back(full.config_at(c));
  }
  sb::DemandMatrix demand = sb::make_demand_matrix(configs, full.slot_count());
  for (sb::TimeSlot t = 0; t < full.slot_count(); ++t) {
    for (std::size_t c = 0; c < kTopConfigs; ++c) {
      demand.set_demand(t, c, full.demand(t, c));
    }
  }

  // The fleet: eight equal servers per DC, sized so each DC's fleet holds
  // 1.25x the largest per-DC capacity the plan provisions.
  {
    const sb::LoadModel loads = sb::LoadModel::paper_default();
    const sb::EvalContext ctx{&scenario.world(), &scenario.topology(),
                              &scenario.latency(), scenario.registry.get(),
                              &loads};
    sb::ProvisionOptions popts;
    popts.with_backup = false;
    const sb::ProvisionResult sizing =
        sb::SwitchboardProvisioner(ctx, popts).provision(demand);
    double largest = 1.0;
    for (std::size_t x = 0; x < scenario.world().dc_count(); ++x) {
      largest = std::max(largest, sizing.capacity.dc_total_cores(
                                      sb::DcId(static_cast<std::uint32_t>(x))));
    }
    sb::add_uniform_fleet(scenario.geo->world, kServersPerDc,
                          1.25 * largest / static_cast<double>(kServersPerDc));
  }
  in.demand.emplace(std::move(demand));

  // The busiest kWindowH hours of the day by total expected demand.
  const auto window_slots = static_cast<std::size_t>(kWindowH);
  std::size_t best = 0;
  double best_total = -1.0;
  for (std::size_t s = 0; s + window_slots <= full.slot_count(); ++s) {
    double total = 0.0;
    for (std::size_t t = s; t < s + window_slots; ++t) {
      for (std::size_t c = 0; c < full.config_count(); ++c) {
        total += full.demand(static_cast<sb::TimeSlot>(t), c);
      }
    }
    if (total > best_total) {
      best_total = total;
      best = s;
    }
  }
  const double start = sb::kSecondsPerDay + static_cast<double>(best) * kSlotS;
  const double t0 = process_cpu_s();
  in.calls = trace.generate(start, start + kWindowH * sb::kSecondsPerHour);
  in.generate_s = process_cpu_s() - t0;

  const auto& records = in.calls.records();
  in.events.reserve(records.size() * 3);
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const sb::CallRecord& r = records[i];
    in.events.push_back({r.start_s, i, Kind::kStart});
    if (r.duration_s > kFreezeDelayS) {
      in.events.push_back({r.start_s + kFreezeDelayS, i, Kind::kFreeze});
    }
    in.events.push_back({r.start_s + r.duration_s, i, Kind::kEnd});
  }
  std::sort(in.events.begin(), in.events.end(),
            [](const Event& a, const Event& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.record != b.record) return a.record < b.record;
              return a.kind < b.kind;
            });
  return in;
}

/// One thread's share of a pass: indices into the merged stream.
using Lane = std::vector<std::uint32_t>;

/// Splits the events of every `stride`-th call (starting at `offset`) over
/// `lanes` load threads by CallId.
std::vector<Lane> make_lanes(const Inputs& in, std::size_t lanes,
                             std::size_t stride, std::size_t offset) {
  std::vector<Lane> out(lanes);
  const auto& records = in.calls.records();
  for (std::uint32_t k = 0; k < in.events.size(); ++k) {
    const std::uint32_t rec = in.events[k].record;
    if (rec % stride != offset) continue;
    out[records[rec].id.value() % lanes].push_back(k);
  }
  return out;
}

/// The realtime API the load threads drive: the cluster, or (for the
/// single-thread realtime.event_ns baseline) the Switchboard directly.
template <class Target>
void send(Target& target, const Inputs& in, const Event& e,
          std::vector<sb::DcId>& final_dc) {
  const sb::CallRecord& r = in.calls.records()[e.record];
  switch (e.kind) {
    case Kind::kStart:
      final_dc[e.record] =
          target.call_started(r.id, r.legs.front().location, e.time);
      break;
    case Kind::kFreeze:
      final_dc[e.record] =
          target.config_frozen(r.id, in.scenario.registry->get(r.config),
                               e.time)
              .dc;
      break;
    case Kind::kEnd:
      target.call_ended(r.id, e.time);
      break;
  }
}

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::kStart: return "cluster.call_started";
    case Kind::kFreeze: return "cluster.config_frozen";
    case Kind::kEnd: return "cluster.call_ended";
  }
  return "";
}

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< the load threads' CPU seconds, summed
  std::size_t events = 0;
  std::vector<double> latency_us;  ///< open loop only
  double max_late_ms = 0.0;        ///< open loop only
};

/// Runs every lane on its own pinned thread. `rate` == 0 is the closed
/// loop; otherwise event k of the merged stream is due k / rate seconds
/// after the start.
template <class Target>
PassResult run_lanes(Target& target, const Inputs& in,
                     const std::vector<Lane>& lanes, double rate,
                     std::vector<sb::DcId>& final_dc) {
  // Due times are by position in the merged stream of this pass.
  std::vector<std::uint32_t> position;
  if (rate > 0.0) {
    std::vector<std::uint32_t> all;
    for (const Lane& lane : lanes) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    std::sort(all.begin(), all.end());
    position.assign(in.events.size(), 0);
    for (std::uint32_t p = 0; p < all.size(); ++p) position[all[p]] = p;
  }
  const bool spans = SpanLog::global().enabled();
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> abort{false};
  std::vector<std::string> errors(lanes.size());
  std::vector<std::vector<double>> latency(lanes.size());
  std::vector<double> late_ms(lanes.size(), 0.0);
  std::vector<std::int64_t> done_ns(lanes.size(), 0);
  std::vector<double> cpu_s(lanes.size(), 0.0);
  std::int64_t start_ns = 0;
  // One lane on one pinned thread; an exception is recorded, not thrown
  // across the thread boundary.
  const auto drive = [&](std::size_t t) {
    pin_to_cpu(t + 1);
    const auto self = static_cast<std::uint32_t>(t + 1);
    if (spans) SpanLog::global().attach_thread(self);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    if (abort.load()) return;
    if (rate > 0.0) latency[t].reserve(lanes[t].size());
    const double cpu0 = thread_cpu_s();
    try {
      for (const std::uint32_t k : lanes[t]) {
        const Event& e = in.events[k];
        std::int64_t due = 0;
        if (rate > 0.0) {
          due = start_ns + static_cast<std::int64_t>(position[k] * 1e9 / rate);
          std::int64_t now = now_ns();
          while (now < due) now = now_ns();
          late_ms[t] =
              std::max(late_ms[t], static_cast<double>(now - due) * 1e-6);
        }
        {
          BenchSpan span(span_name(e.kind), "cluster",
                         in.calls.records()[e.record].id.value());
          send(target, in, e, final_dc);
        }
        if (rate > 0.0) {
          latency[t].push_back(static_cast<double>(now_ns() - due) * 1e-3);
        }
      }
    } catch (const std::exception& e) {
      errors[t] = e.what();
    }
    done_ns[t] = now_ns();
    cpu_s[t] = thread_cpu_s() - cpu0;
  };
  std::vector<std::thread> threads;
  try {
    for (std::size_t t = 0; t < lanes.size(); ++t) {
      threads.emplace_back(drive, t);
    }
  } catch (...) {
    // A thread failed to start: release the ones waiting and stop.
    abort.store(true);
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    throw;
  }
  while (ready.load() < lanes.size()) {
  }
  start_ns = now_ns() + 1'000'000;  // 1 ms for every thread to spin up
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("load thread: " + error);
  }
  PassResult out;
  out.wall_s =
      static_cast<double>(*std::max_element(done_ns.begin(), done_ns.end()) -
                          start_ns) *
      1e-9;
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    out.events += lanes[t].size();
    out.cpu_s += cpu_s[t];
    out.latency_us.insert(out.latency_us.end(), latency[t].begin(),
                          latency[t].end());
    out.max_late_ms = std::max(out.max_late_ms, late_ms[t]);
  }
  return out;
}

}  // namespace

void run_signaling(const Options& options, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::optional<Inputs> in;
  set_up(in, [&] { return build_inputs(options); }, setup_s, generate_s);
  const sb::Scenario& scenario = in->scenario;
  const sb::LoadModel loads = sb::LoadModel::paper_default();
  const sb::EvalContext ctx{&scenario.world(), &scenario.topology(),
                            &scenario.latency(), scenario.registry.get(),
                            &loads};
  const sb::DemandMatrix& demand = *in->demand;
  const double calls = static_cast<double>(in->calls.size());
  sb::ControllerOptions copts;
  copts.provision.with_backup = false;
  copts.worker_rows = kClusterWorkers;

  // Plan cycle: a small F0-only provision and the allocation plan. It takes
  // tens of milliseconds, so one sample is the mean of enough cycles to
  // fill a second.
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
      const sb::ProvisionResult& result = controller->provision(demand);
      cost = result.capacity.total_cost(scenario.world(), scenario.topology());
      scenarios = result.scenarios.size();
    }
    provision_s = process_cpu_s() - t0;
    t0 = process_cpu_s();
    {
      BenchSpan span("plan.build", "plan");
      controller->build_allocation_plan(demand, sb::kSecondsPerDay);
    }
    build_s = process_cpu_s() - t0;
    return provision_s + build_s;
  };

  std::vector<sb::DcId> final_dc(in->calls.size());
  const auto check_quiescent = [&](sb::cluster::ClusterController& cluster) {
    if (options.tamper == "wal") {
      cluster.store().set(sb::cluster::wal_key(0, sb::CallId(~0u)), "x");
    }
    gate(cluster.wal_size() == 0, "WAL not empty at quiescence");
    const sb::cluster::ClusterStats cs = cluster.stats();
    gate(cs.takeovers_expedited + cs.takeovers_ttl == 0,
         "shard takeovers without any worker failure");
    gate(cs.stale_events_fenced == 0, "events fenced without any failure");
    const sb::RealtimeSelector::Stats rs = controller->realtime_stats();
    gate(rs.slot_debits == rs.slot_credits, "plan slot debits != credits");
    gate(controller->held_slots() == 0, "plan slots held at quiescence");
    gate(controller->active_calls() == 0, "calls still active at quiescence");
    for (const sb::pack::ServerStats& s : controller->packer()->stats()) {
      gate(s.used_cores == 0.0 && s.admitted_mc == s.released_mc,
           "media server occupancy not zero at quiescence");
    }
  };
  const auto mean_acl = [&]() {
    double sum = 0.0;
    const auto& records = in->calls.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      sum += sb::acl_ms(scenario.registry->get(records[i].config), final_dc[i],
                        scenario.latency());
    }
    return sum / calls;
  };

  const std::vector<Lane> one_lane = make_lanes(*in, 1, 1, 0);
  const std::vector<Lane> all_lanes = make_lanes(*in, kLoadThreads, 1, 0);
  std::vector<std::vector<Lane>> slice_lanes;
  for (std::size_t s = 0; s < kOpenSlices; ++s) {
    slice_lanes.push_back(make_lanes(*in, kLoadThreads, kSlices, s));
  }
  sb::cluster::ClusterOptions cluster_opts;
  cluster_opts.workers = kClusterWorkers;

  // One pass on a fresh selector and cluster; checks quiescence after it.
  const auto cluster_pass = [&](const std::vector<Lane>& lanes, double rate) {
    controller->build_allocation_plan(demand, sb::kSecondsPerDay);
    sb::cluster::ClusterController cluster(*controller, cluster_opts);
    const PassResult r = run_lanes(cluster, *in, lanes, rate, final_dc);
    check_quiescent(cluster);
    report.attempted += r.events;
    return std::make_pair(r, cluster.stats());
  };

  // --- Warm-up: one plan cycle and one single-thread pass.
  plan_cycle();
  const double reference_cost = cost;
  cluster_pass(one_lane, 0.0);
  const double reference_acl = mean_acl();
  report.attempted = 0;

  // --- Timed: each repetition is a plan sample and one single-thread pass
  // over the whole stream.
  std::vector<double> plan_s, provision_samples, build_samples, one_cpu_s;
  const auto iteration = [&]() {
    plan_s.push_back(mean_over(1.0, plan_cycle));
    gate(cost == reference_cost, "provision_cost differs between repetitions");
    provision_samples.push_back(provision_s);
    build_samples.push_back(build_s);
    one_cpu_s.push_back(cluster_pass(one_lane, 0.0).first.cpu_s);
    gate(mean_acl() == reference_acl, "mean ACL differs between repetitions");
  };
  repeat_for(options.seconds, 3, iteration);

  describe(options, "setup_s", setup_s);
  describe(options, "plan_cycle_s", plan_s);
  describe(options, "one_thread_cpu_s", one_cpu_s);
  const double events = static_cast<double>(in->events.size());
  report.e2e("setup_s", fastest(setup_s), "s");
  report.e2e("plan_cycle_s", fastest(plan_s), "s");
  report.e2e("replay_calls_per_s", calls / fastest(one_cpu_s), "calls/s");
  report.e2e("provision_cost", reference_cost, "cost");
  report.e2e("mean_acl_ms", reference_acl, "ms");

  report.layer("trace.generate_s", median(generate_s), "s");
  report.layer("trace.calls", calls, "count");
  report.layer("provision.solve_s", median(provision_samples), "s");
  report.layer("provision.scenarios", static_cast<double>(scenarios), "count");
  report.layer("plan.build_s", median(build_samples), "s");
  report.layer("cluster.event_ns", fastest(one_cpu_s) * 1e9 / events, "ns");

  if (!options.trace) return;

  // --- Saturation: three load threads against one, on the wall clock, so
  // time spent waiting on the cluster's lock counts. The first three-thread
  // pass is a warm-up.
  cluster_pass(all_lanes, 0.0);
  std::vector<double> one_wall_s, sat_wall_s;
  for (int rep = 0; rep < 3; ++rep) {
    one_wall_s.push_back(cluster_pass(one_lane, 0.0).first.wall_s);
    sat_wall_s.push_back(cluster_pass(all_lanes, 0.0).first.wall_s);
  }
  describe(options, "saturation_s", sat_wall_s);
  report.layer("signal_events_per_s", events / median(sat_wall_s), "events/s");
  report.layer("cluster.scaling_3t", median(one_wall_s) / median(sat_wall_s),
               "ratio");

  // --- Open loop: kOpenSlices passes per rate, each on its own slice;
  // latencies are pooled over the passes.
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<double> latency;
    double late_ms = 0.0;
    for (std::size_t s = 0; s < kOpenSlices; ++s) {
      const PassResult open = cluster_pass(slice_lanes[s], kRates[r]).first;
      latency.insert(latency.end(), open.latency_us.begin(),
                     open.latency_us.end());
      late_ms = std::max(late_ms, open.max_late_ms);
    }
    const std::string suffix = kRateNames[r];
    report.layer("signal_p50_us." + suffix, quantile(latency, 0.50), "us");
    report.layer("signal_p99_us." + suffix, quantile(latency, 0.99), "us");
    report.layer("signal.gen_late_ms." + suffix, late_ms, "ms");
  }

  // --- The same stream from one thread straight into the Switchboard; KV
  // ops timed directly.
  std::vector<double> direct_cpu_s;
  for (int rep = 0; rep < 3; ++rep) {
    controller->build_allocation_plan(demand, sb::kSecondsPerDay);
    direct_cpu_s.push_back(
        run_lanes(*controller, *in, one_lane, 0.0, final_dc).cpu_s);
    gate(controller->active_calls() == 0 && controller->held_slots() == 0,
         "direct replay not quiescent");
  }
  report.layer("realtime.event_ns", fastest(direct_cpu_s) * 1e9 / events,
               "ns");
  {
    sb::KvStore store({.shard_count = 16, .inject_latency = false});
    const std::string record =
        sb::cluster::encode_wal_record(sb::RealtimeSelector::CallSnapshot{});
    constexpr std::uint32_t kOps = 200000;
    std::vector<std::string> keys;
    keys.reserve(kOps);
    for (std::uint32_t i = 0; i < kOps; ++i) {
      keys.push_back(sb::cluster::wal_key(i % 16, sb::CallId(i)));
    }
    const double t0 = thread_cpu_s();
    for (const std::string& key : keys) store.set(key, record);
    for (const std::string& key : keys) store.erase(key);
    report.layer("kvstore.op_ns", (thread_cpu_s() - t0) * 1e9 / (2.0 * kOps),
                 "ns");
  }

  // Counts over one full saturation pass. The store counts its own ops
  // only when it injects latency, so kvstore.ops counts the writes the
  // cluster issued: WAL records set or erased, leases renewed or acquired.
  {
    const sb::obs::MetricsSnapshot before =
        sb::obs::MetricsRegistry::global().snapshot();
    const sb::cluster::ClusterStats stats = cluster_pass(all_lanes, 0.0).second;
    const sb::obs::MetricsSnapshot d = registry_since(before);
    report.layer("cluster.wal_writes", static_cast<double>(stats.wal_writes),
                 "count");
    report.layer("cluster.takeovers",
                 static_cast<double>(stats.takeovers_expedited +
                                     stats.takeovers_ttl),
                 "count");
    report.layer("cluster.fenced",
                 static_cast<double>(stats.stale_events_fenced), "count");
    report.layer("kvstore.ops",
                 static_cast<double>(stats.wal_writes + stats.lease_renewals +
                                     stats.lease_acquires),
                 "count");
    const double admits = counter(d, "sb.pack.admits");
    report.layer("pack.admits", admits, "count");
    report.layer("pack.cas_retry_ratio",
                 admits > 0.0 ? counter(d, "sb.pack.cas_retries") / admits
                              : 0.0,
                 "ratio");
    const sb::RealtimeSelector::Stats rs = controller->realtime_stats();
    report.layer("realtime.unplanned", static_cast<double>(rs.unplanned),
                 "count");
    report.layer("realtime.migrations", static_cast<double>(rs.migrations),
                 "count");
  }

  // The traced pass sends every kTracedStride-th call, so its spans fit the
  // recorder's rings. The untraced baseline is the same stream; a discarded
  // traced pass over another one first lets the load threads' span rings be
  // allocated outside the timed pass.
  const std::vector<Lane> traced_lanes =
      make_lanes(*in, kLoadThreads, kTracedStride, 0);
  std::vector<double> untraced_s;
  for (int rep = 0; rep < 3; ++rep) {
    untraced_s.push_back(cluster_pass(traced_lanes, 0.0).first.wall_s);
  }
  TracedPass pass(report, options);
  cluster_pass(make_lanes(*in, kLoadThreads, kTracedStride, 1), 0.0);
  pass.discard_stage();
  const double p = plan_cycle();
  pass.end_stage();
  const double traced_s = cluster_pass(traced_lanes, 0.0).first.wall_s;
  describe(options, "untraced_slice_s", untraced_s);
  describe(options, "traced_slice_s", {traced_s});
  report_lp_counters(report, pass.finish(p + traced_s,
                                         fastest(plan_s) + median(untraced_s)));
}

}  // namespace perfbench
