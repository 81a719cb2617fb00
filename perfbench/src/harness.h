// Shared plumbing for the three perfbench workloads: options, the metric
// report, CPU clocks and sample statistics, resource usage, the benchmark's
// own span log, CPU pinning and the correctness gate.
//
// Every workload follows the same shape (see perfbench/README.md):
//   1. set up its inputs several times and report the fastest as setup_s;
//   2. run one untimed warm-up pass that also checks the outputs;
//   3. repeat short timed stages, interleaved, until --seconds have passed
//      and report the fastest repetition of each (the end-to-end metrics,
//      span recording off);
//   4. with --trace 1, run one more pass with the benchmark's spans and the
//      library's SpanRecorder on, and report the per-layer metrics.
//
// End-to-end stages are timed with CPU clocks, not the wall clock. With the
// library defaults every timed stage runs on one thread, so on an idle
// machine the two agree; on a virtual machine whose kernel accounts steal
// time, the CPU clock leaves out the time the host ran something else on
// the vCPU. Noise that is left (a busy neighbour sharing caches or a core)
// only ever slows a repetition down, so the fastest one is the steadiest
// estimate of the work.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "obs/span.h"
#include "sim/allocator.h"
#include "trace/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] std::int64_t now_ns();
/// CPU seconds used by this process so far (every thread, user + system).
[[nodiscard]] double process_cpu_s();
/// CPU seconds used by the calling thread so far.
[[nodiscard]] double thread_cpu_s();

struct Options {
  std::string workload;
  /// Seeds the call trace (arrivals, durations, legs); the config universe
  /// and world come from `scenario_seed`, so two seeds are two draws of the
  /// same workload.
  std::uint64_t seed = 7;
  std::uint64_t scenario_seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: names one output the workload corrupts before its
  /// correctness gate runs (the gate must then fail).
  std::string tamper;
};

/// Raised by gate(); main prints the message and exits non-zero.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// The correctness gate: throws GateFailure(what) unless ok.
void gate(bool ok, const std::string& what);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics a run produced: end-to-end ones from the timed loop, per-layer
/// ones from the timed loop, the traced run's extra passes and the traced
/// pass. main prints the set --trace selects.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double fastest(const std::vector<double>& values);
[[nodiscard]] double max_of(const std::vector<double>& values);
/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Prints a sample's size, min, median and max to stderr (run diagnostics).
void describe(const Options& options, const char* what,
              const std::vector<double>& values);

/// Mean of `body`'s returned seconds over enough calls to fill `min_s` of
/// them: one sample of a stage too short to time on its own.
[[nodiscard]] double mean_over(double min_s,
                               const std::function<double()>& body);

/// Runs `body` at least `min_reps` times, then again while another
/// repetition as long as the last one still fits in `budget_s` wall seconds.
void repeat_for(double budget_s, std::size_t min_reps,
                const std::function<void()>& body);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Minor page faults of this process so far.
[[nodiscard]] std::int64_t minor_faults();

/// Pins the calling thread to the `index`-th CPU of the process's allowed
/// set (wrapping); a no-op when the affinity call is refused.
void pin_to_cpu(std::size_t index);

/// The APAC scenario at `rate_scale` times the default call rate, with the
/// config universe drawn from `scenario_seed` and the trace from `seed`.
[[nodiscard]] sb::Scenario make_scenario(double rate_scale,
                                         const Options& options);

/// Counter value in a registry snapshot (0 when absent).
[[nodiscard]] double counter(const sb::obs::MetricsSnapshot& snap,
                             const char* name);
/// Sum of a histogram's samples (seconds for *_s histograms).
[[nodiscard]] double histogram_sum(const sb::obs::MetricsSnapshot& snap,
                                   const char* name);
/// Registry delta since `before`.
[[nodiscard]] sb::obs::MetricsSnapshot registry_since(
    const sb::obs::MetricsSnapshot& before);

// --- The benchmark's own spans -------------------------------------------
//
// One record per timed call into a library layer: name, layer, wall start
// and end, parent span and an optional call/event id. Records stay in
// memory (per thread, no locks) and are written out once at exit. Off by
// default; only the traced pass turns them on.

struct BenchSpanRecord {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t item = 0;  ///< call or event id; 0 = none
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  static SpanLog& global();
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Registers the calling thread under a benchmark thread index and
  /// records a library marker span, so library spans can be matched to it.
  void attach_thread(std::uint32_t index);
  /// Moves every thread's records into one list (call after all threads
  /// finished).
  [[nodiscard]] std::vector<BenchSpanRecord> take();
  /// Offset from library span clock to benchmark clock per library
  /// recorder thread, learnt from the markers (library thread -> bench
  /// thread index and ns offset).
  struct ThreadLink {
    std::uint32_t bench_thread = 0;
    std::int64_t offset_ns = 0;
  };
  [[nodiscard]] std::map<std::uint32_t, ThreadLink> thread_links(
      const std::vector<sb::obs::SpanData>& library_spans) const;

  struct ThreadState;

 private:
  friend class BenchSpan;
  static ThreadState& local();

  bool enabled_ = false;
  std::vector<ThreadState*> threads_;
  std::map<std::uint32_t, std::int64_t> marker_bench_ns_;  // bench idx -> ns
};

/// RAII span; parent is the innermost open BenchSpan on this thread.
class BenchSpan {
 public:
  BenchSpan(const char* name, const char* layer, std::uint64_t item = 0);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  bool on_ = false;
  std::size_t slot_ = 0;
};

/// The layers self time is reported for, shared by every workload so each
/// traced run prints the same metric set.
[[nodiscard]] const std::vector<std::string>& self_time_layers();

/// One traced pass: the benchmark spans and the library's span recorder
/// are on between construction and finish(). A workload calls end_stage()
/// between its stages, and drain() (directly or through TracedAllocator)
/// inside a stage whose library spans would overflow the recorder's
/// per-thread rings. Library spans are folded into per-layer self times as
/// they are drained (a span's self time is its duration less its direct
/// children's, matched by parent id), so every span of the stage counts;
/// obs.spans_dropped reports any a ring overwrote before a drain. Library
/// root spans are then nested under the benchmark spans by time.
class TracedPass {
 public:
  TracedPass(Report& report, const Options& options);
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  /// Folds the library spans recorded so far and empties the rings. Call
  /// only while no other thread records spans.
  void drain();
  void end_stage();
  /// Ends the current stage and drops its spans: a traced warm-up, so the
  /// library's per-thread rings exist and are touched before the stage
  /// that is timed.
  void discard_stage();
  /// Ends the last stage, turns recording off, writes the benchmark's spans
  /// to `.bench_build/traces/<workload>.json` under the working directory
  /// (the latest traced run of each workload), and reports
  /// obs.trace_overhead = traced_s / untraced_s - 1. Returns the registry
  /// delta over the whole pass.
  sb::obs::MetricsSnapshot finish(double traced_s, double untraced_s);

  struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
    const char* layer = "";
  };

 private:
  void fold(const std::vector<sb::obs::SpanData>& library);

  Report& report_;
  const Options& options_;
  sb::obs::MetricsSnapshot before_;
  std::map<std::string, double> self_ns_;
  /// Children's summed duration per parent span id not yet drained.
  std::map<std::uint64_t, std::int64_t> child_ns_;
  std::map<std::uint32_t, SpanLog::ThreadLink> links_;
  /// Library root spans of the current stage per benchmark thread.
  std::map<std::uint32_t, std::vector<Interval>> roots_;
  std::vector<BenchSpanRecord> bench_;
  std::uint64_t dropped_ = 0;
};

/// Forwards every simulator callback to `inner`. With a traced pass it
/// drains the pass every few batches and around fault hooks, so a long
/// replay's spans reach the self times instead of overwriting each other.
class TracedAllocator : public sb::CallAllocator {
 public:
  TracedAllocator(sb::CallAllocator& inner, TracedPass* pass)
      : inner_(&inner), pass_(pass) {}

  void batch_begin() override { inner_->batch_begin(); }
  void batch_end(sb::SimTime now) override;
  sb::DcId on_call_start(sb::CallId call, sb::LocationId first,
                         sb::SimTime now) override {
    return inner_->on_call_start(call, first, now);
  }
  sb::FreezeResult on_config_frozen(sb::CallId call,
                                    const sb::CallConfig& config,
                                    sb::SimTime now) override {
    return inner_->on_config_frozen(call, config, now);
  }
  sb::FreezeResult on_config_frozen(sb::CallId call, sb::ConfigId id,
                                    const sb::CallConfig& config,
                                    sb::SimTime now) override {
    return inner_->on_config_frozen(call, id, config, now);
  }
  void on_call_end(sb::CallId call, sb::SimTime now) override {
    inner_->on_call_end(call, now);
  }
  sb::fault::FailoverOutcome on_dc_failed(sb::DcId dc,
                                          sb::SimTime now) override;
  void on_dc_recovered(sb::DcId dc, sb::SimTime now) override;
  void on_link_failed(sb::LinkId link, sb::SimTime now) override {
    inner_->on_link_failed(link, now);
  }
  void on_link_recovered(sb::LinkId link, sb::SimTime now) override {
    inner_->on_link_recovered(link, now);
  }
  sb::fault::FailoverOutcome on_server_failed(sb::ServerId server,
                                              sb::SimTime now) override {
    return inner_->on_server_failed(server, now);
  }
  void on_server_recovered(sb::ServerId server, sb::SimTime now) override {
    inner_->on_server_recovered(server, now);
  }
  sb::fault::FailoverOutcome on_worker_failed(sb::WorkerId worker,
                                              sb::SimTime now) override {
    return inner_->on_worker_failed(worker, now);
  }
  void on_worker_recovered(sb::WorkerId worker, sb::SimTime now) override {
    inner_->on_worker_recovered(worker, now);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void drain() {
    if (pass_ != nullptr) pass_->drain();
  }

  sb::CallAllocator* inner_;
  TracedPass* pass_;
  std::size_t batches_ = 0;
};

}  // namespace perfbench
