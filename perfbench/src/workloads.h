// The three workloads and the metric sets every run prints.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Builds a workload's inputs repeatedly, keeping the last build. Appends
/// five setup_s samples, each the mean CPU seconds of the builds that fill
/// one CPU second, and every build's trace generation seconds
/// (T::generate_s) to `generate_s`. setup_s is reported as the fastest
/// sample.
template <class T, class Build>
void set_up(std::optional<T>& inputs, Build&& build,
            std::vector<double>& setup_s, std::vector<double>& generate_s) {
  for (int sample = 0; sample < 5; ++sample) {
    setup_s.push_back(mean_over(1.0, [&] {
      inputs.reset();
      const double t0 = process_cpu_s();
      inputs.emplace(build());
      const double dt = process_cpu_s() - t0;
      generate_s.push_back(inputs->generate_s);
      return dt;
    }));
  }
}

void run_design_day(const Options& options, Report& report);
void run_flash_crowd(const Options& options, Report& report);
void run_signaling(const Options& options, Report& report);

/// Adds the sb.lp.* counters of a traced pass as lp.* per-layer metrics.
void report_lp_counters(Report& report, const sb::obs::MetricsSnapshot& delta);

struct MetricName {
  std::string name;
  std::string unit;
};
/// End-to-end metrics: printed by every workload with --trace 0.
const std::vector<MetricName>& end_to_end_metrics();
/// Per-layer metrics: printed by every workload with --trace 1; a layer a
/// workload does not exercise reads 0.
const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench
