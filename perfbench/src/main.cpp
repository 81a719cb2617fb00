// sb_perfbench: the end-to-end benchmark of the Switchboard library.
//
//   sb_perfbench --workload design_day|flash_crowd|signaling --seed N
//                --seconds S --trace 0|1 [--scenario-seed N]
//                [--tamper OUTPUT]
//
// Prints every metric by name and unit, one per line, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 with a message when a correctness check fails and 2 on bad
// arguments. perfbench/README.md documents every metric and workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "obs/span.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> metrics = {
      {"setup_s", "s"},
      {"plan_cycle_s", "s"},
      {"replay_calls_per_s", "calls/s"},
      {"provision_cost", "cost"},
      {"mean_acl_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> metrics = [] {
    std::vector<MetricName> m = {
        {"trace.generate_s", "s"},
        {"trace.calls", "count"},
        {"forecast.fit_s", "s"},
        {"provision.solve_s", "s"},
        {"provision.scenarios", "count"},
        {"plan.build_s", "s"},
        {"plan.install_s", "s"},
        {"lp.iterations_cold", "count"},
        {"lp.iterations_warm", "count"},
        {"lp.factorizations", "count"},
        {"lp.pricing_passes", "count"},
        {"lp.devex_resets", "count"},
        {"lp.solve_s", "s"},
        {"loop.ticks", "count"},
        {"loop.triggers", "count"},
        {"loop.replans", "count"},
        {"loop.replan_ms_p50", "ms"},
        {"loop.replan_ms_max", "ms"},
        {"loop.replan_share", "ratio"},
        {"sim.replay_s", "s"},
        {"sim.minflt_per_kcall", "faults"},
        {"fault.drain_s", "s"},
        {"fault.failover_migrations", "count"},
        {"dropped_frac", "ratio"},
        {"realtime.event_ns", "ns"},
        {"realtime.unplanned", "count"},
        {"realtime.migrations", "count"},
        {"cluster.event_ns", "ns"},
        {"cluster.scaling_3t", "ratio"},
        {"cluster.wal_writes", "count"},
        {"cluster.takeovers", "count"},
        {"cluster.fenced", "count"},
        {"kvstore.ops", "count"},
        {"kvstore.op_ns", "ns"},
        {"pack.admits", "count"},
        {"pack.cas_retry_ratio", "ratio"},
        {"signal_events_per_s", "events/s"},
        {"signal_p50_us.r100k", "us"},
        {"signal_p50_us.r200k", "us"},
        {"signal_p99_us.r100k", "us"},
        {"signal_p99_us.r200k", "us"},
        {"signal.gen_late_ms.r100k", "ms"},
        {"signal.gen_late_ms.r200k", "ms"},
        {"obs.trace_overhead", "ratio"},
        {"obs.spans_dropped", "count"},
    };
    for (const std::string& layer : self_time_layers()) {
      m.push_back({"self_s." + layer, "s"});
    }
    return m;
  }();
  return metrics;
}

void report_lp_counters(Report& report, const sb::obs::MetricsSnapshot& d) {
  report.layer("lp.iterations_cold", counter(d, "sb.lp.iterations_cold"),
               "count");
  report.layer("lp.iterations_warm", counter(d, "sb.lp.iterations_warm"),
               "count");
  report.layer("lp.factorizations", counter(d, "sb.lp.factorizations"),
               "count");
  report.layer("lp.pricing_passes", counter(d, "sb.lp.pricing_passes"),
               "count");
  report.layer("lp.devex_resets", counter(d, "sb.lp.devex_resets"), "count");
  report.layer("lp.solve_s", histogram_sum(d, "sb.lp.solve_s"), "s");
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sb_perfbench: " << why
            << "\nusage: sb_perfbench --workload design_day|flash_crowd|"
               "signaling --seed N --seconds S --trace 0|1 "
               "[--scenario-seed N] [--tamper OUTPUT]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--scenario-seed") {
      o.scenario_seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      if (o.seconds < 1.0 || o.seconds > 600.0) usage("--seconds: 1..600");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--tamper") {
      o.tamper = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "design_day" && o.workload != "flash_crowd" &&
      o.workload != "signaling") {
    usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

void print_result(bool correct, const Report& report, bool trace) {
  const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = trace ? report.per_layer : report.end_to_end;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].name);
    const double v = it == values.end() ? 0.0 : it->second.value;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::printf("%-28s %24s %s\n", names[i].name.c_str(), buf,
                names[i].unit.c_str());
    json += std::string(i == 0 ? "" : ", ") + "\"" + names[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  // The library records spans by default; the timed loops run with the
  // recorder off and only the traced pass turns it on. A thread's ring is
  // allocated at its first span, so only traced runs pay for it: 128k spans
  // (~22 MB) hold everything one DC failure's drain records between two
  // drains of the traced pass.
  sb::obs::SpanRecorder::global().configure(
      {.enabled = false, .ring_capacity = 1u << 17});

  std::printf("perfbench-build {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"sb_metrics\": %d, \"sb_tracing\": %d}\n",
              __VERSION__, PERFBENCH_BUILD_TYPE,
#ifdef SB_METRICS_ENABLED
              1,
#else
              0,
#endif
#ifdef SB_TRACING_ENABLED
              1
#else
              0
#endif
  );
  Report report;
  try {
    if (options.workload == "design_day") {
      run_design_day(options, report);
    } else if (options.workload == "flash_crowd") {
      run_flash_crowd(options, report);
    } else {
      run_signaling(options, report);
    }
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "perfbench: %s: correctness check failed: %s\n",
                 options.workload.c_str(), e.what());
    print_result(false, report, options.trace);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: error: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  for (const MetricName& m : end_to_end_metrics()) {
    if (report.end_to_end.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   options.workload.c_str(), m.name.c_str());
      return 1;
    }
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted nothing\n",
                 options.workload.c_str());
    return 1;
  }
  print_result(true, report, options.trace);
  return 0;
}
