#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void describe(const Options& options, const char* what,
              const std::vector<double>& values) {
  if (values.empty()) return;
  std::fprintf(stderr,
               "perfbench: %s: %-22s n=%-3zu min=%.6g med=%.6g max=%.6g\n",
               options.workload.c_str(), what, values.size(),
               *std::min_element(values.begin(), values.end()), median(values),
               max_of(values));
}

void repeat_for(double budget_s, std::size_t min_reps,
                const std::function<void()>& body) {
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  for (std::size_t reps = 0; reps < min_reps || seconds_since(t0) + last < budget_s;
       ++reps) {
    const Clock::time_point r0 = Clock::now();
    body();
    last = seconds_since(r0);
  }
}

double mean_over(double min_s, const std::function<double()>& body) {
  double total = 0.0;
  std::size_t calls = 0;
  while (total < min_s) {
    total += body();
    ++calls;
  }
  return total / static_cast<double>(calls);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void pin_to_cpu(std::size_t index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

sb::Scenario make_scenario(double rate_scale, const Options& options) {
  sb::ScenarioParams params;
  params.rate_scale = rate_scale;
  params.seed = options.scenario_seed;
  sb::Scenario scenario = sb::make_apac_scenario(params);
  sb::ConfigUniverse universe = scenario.trace->universe();
  scenario.trace = std::make_unique<sb::TraceGenerator>(
      scenario.world(), *scenario.registry, std::move(universe),
      sb::DiurnalShape{}, sb::TraceParams{}, options.seed);
  return scenario;
}

double counter(const sb::obs::MetricsSnapshot& snap, const char* name) {
  return static_cast<double>(snap.counter_value(name, 0));
}

double histogram_sum(const sb::obs::MetricsSnapshot& snap, const char* name) {
  const sb::obs::HistogramSample* h = snap.find_histogram(name);
  return h == nullptr ? 0.0 : h->data.sum;
}

sb::obs::MetricsSnapshot registry_since(
    const sb::obs::MetricsSnapshot& before) {
  return sb::obs::snapshot_diff(before,
                                sb::obs::MetricsRegistry::global().snapshot());
}

// --- SpanLog ---------------------------------------------------------------

struct SpanLog::ThreadState {
  std::uint32_t index = 0;
  std::uint64_t spans = 0;  ///< ids are (index + 1) << 40 | per-thread count
  std::vector<BenchSpanRecord> records;
  std::vector<std::size_t> open;  ///< indices into records
};

namespace {
std::mutex g_span_mutex;
std::vector<std::unique_ptr<SpanLog::ThreadState>> g_states;
constexpr const char* kMarkerName = "perfbench.thread";
}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::ThreadState& SpanLog::local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    std::lock_guard lock(g_span_mutex);
    g_states.push_back(std::make_unique<ThreadState>());
    state = g_states.back().get();
    global().threads_.push_back(state);
  }
  return *state;
}

void SpanLog::attach_thread(std::uint32_t index) {
  local().index = index;
  if (!sb::obs::SpanRecorder::global().enabled()) return;
  // The thread's first span allocates its ring; record one first, so the
  // marker's start is taken right after `at`.
  { sb::obs::Span warm(kMarkerName, sb::obs::Subsystem::kOther); }
  const std::int64_t at = now_ns();
  {
    sb::obs::Span marker(kMarkerName, sb::obs::Subsystem::kOther);
    marker.attr(sb::obs::AttrKey::kWorker, index);
  }
  std::lock_guard lock(g_span_mutex);
  marker_bench_ns_[index] = at;
}

std::vector<BenchSpanRecord> SpanLog::take() {
  std::vector<BenchSpanRecord> out;
  std::lock_guard lock(g_span_mutex);
  for (ThreadState* state : threads_) {
    for (BenchSpanRecord& r : state->records) {
      r.thread = state->index;
      out.push_back(r);
    }
    state->records.clear();
    state->open.clear();
  }
  return out;
}

std::map<std::uint32_t, SpanLog::ThreadLink> SpanLog::thread_links(
    const std::vector<sb::obs::SpanData>& library_spans) const {
  std::map<std::uint32_t, ThreadLink> links;
  std::lock_guard lock(g_span_mutex);
  for (const sb::obs::SpanData& s : library_spans) {
    if (std::strcmp(s.name, kMarkerName) != 0) continue;
    const sb::obs::SpanAttr* a = s.find_attr(sb::obs::AttrKey::kWorker);
    if (a == nullptr) continue;
    const auto index = static_cast<std::uint32_t>(a->value);
    const auto it = marker_bench_ns_.find(index);
    if (it == marker_bench_ns_.end()) continue;
    links[s.thread] = {index, it->second - s.wall_start_ns};
  }
  return links;
}

BenchSpan::BenchSpan(const char* name, const char* layer, std::uint64_t item) {
  if (!SpanLog::global().enabled()) return;
  SpanLog::ThreadState& state = SpanLog::local();
  BenchSpanRecord r;
  r.name = name;
  r.layer = layer;
  r.id = (static_cast<std::uint64_t>(state.index) + 1) << 40 | ++state.spans;
  r.parent = state.open.empty() ? 0 : state.records[state.open.back()].id;
  r.item = item;
  r.start_ns = now_ns();
  slot_ = state.records.size();
  state.records.push_back(r);
  state.open.push_back(slot_);
  on_ = true;
}

BenchSpan::~BenchSpan() {
  if (!on_) return;
  SpanLog::ThreadState& state = SpanLog::local();
  state.records[slot_].end_ns = now_ns();
  state.open.pop_back();
}

// --- Self time -------------------------------------------------------------

const std::vector<std::string>& self_time_layers() {
  static const std::vector<std::string> layers = {
      "forecast", "provision", "lp",         "plan",    "loop",
      "sim",      "fault",     "realtime",   "controller", "cluster",
      "pack",     "other"};
  return layers;
}

namespace {

const char* library_layer(sb::obs::Subsystem s) {
  using sb::obs::Subsystem;
  switch (s) {
    case Subsystem::kController: return "controller";
    case Subsystem::kRealtime: return "realtime";
    case Subsystem::kDrain: return "fault";
    case Subsystem::kLp: return "lp";
    case Subsystem::kProvisioner: return "provision";
    case Subsystem::kSim: return "sim";
    case Subsystem::kPack: return "pack";
    case Subsystem::kCluster: return "cluster";
    case Subsystem::kCheck:
    case Subsystem::kOther: return "other";
  }
  return "other";
}

using Interval = TracedPass::Interval;

std::int64_t midpoint(const Interval& v) { return v.start + (v.end - v.start) / 2; }

// Self time of one thread's benchmark spans, by time containment: sorted by
// start (longest first on ties), each span's nearest enclosing open span is
// its parent and loses the child's duration. A library root span (counted
// when drained) takes its duration from the innermost benchmark span open
// at its midpoint, so a small error in the clock offset cannot unnest it.
void add_thread_self_times(std::vector<Interval>& bench,
                           std::vector<Interval>& roots,
                           std::map<std::string, double>& self_ns) {
  std::sort(bench.begin(), bench.end(),
            [](const Interval& a, const Interval& b) {
              return a.start != b.start ? a.start < b.start : a.end > b.end;
            });
  std::sort(roots.begin(), roots.end(),
            [](const Interval& a, const Interval& b) {
              return midpoint(a) < midpoint(b);
            });
  std::vector<double> own(bench.size());
  std::vector<std::size_t> stack;
  std::size_t r = 0;
  // Charges every root whose midpoint lies before `t` to the innermost
  // benchmark span still open there.
  const auto charge_roots_before = [&](std::int64_t t) {
    for (; r < roots.size() && midpoint(roots[r]) < t; ++r) {
      const std::int64_t m = midpoint(roots[r]);
      while (!stack.empty() && bench[stack.back()].end <= m) stack.pop_back();
      if (!stack.empty()) {
        own[stack.back()] -= static_cast<double>(roots[r].end - roots[r].start);
      }
    }
  };
  for (std::size_t i = 0; i < bench.size(); ++i) {
    charge_roots_before(bench[i].start);
    own[i] = static_cast<double>(bench[i].end - bench[i].start);
    while (!stack.empty() && bench[stack.back()].end <= bench[i].start) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Interval& p = bench[stack.back()];
      own[stack.back()] -=
          static_cast<double>(std::min(bench[i].end, p.end) - bench[i].start);
    }
    stack.push_back(i);
  }
  charge_roots_before(std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < bench.size(); ++i) {
    self_ns[bench[i].layer] += std::max(0.0, own[i]);
  }
}

bool write_spans(const std::string& path,
                 const std::vector<BenchSpanRecord>& bench_spans) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"bench_spans\": [";
  for (std::size_t i = 0; i < bench_spans.size(); ++i) {
    const BenchSpanRecord& b = bench_spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << b.name
        << "\", \"layer\": \"" << b.layer << "\", \"id\": " << b.id
        << ", \"parent\": " << b.parent << ", \"item\": " << b.item
        << ", \"thread\": " << b.thread << ", \"start_ns\": " << b.start_ns
        << ", \"end_ns\": " << b.end_ns << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace

TracedPass::TracedPass(Report& report, const Options& options)
    : report_(report), options_(options) {
  auto& recorder = sb::obs::SpanRecorder::global();
  recorder.reset();
  recorder.set_enabled(true);
  SpanLog::global().set_enabled(true);
  SpanLog::global().attach_thread(0);
  before_ = sb::obs::MetricsRegistry::global().snapshot();
}

void TracedPass::fold(const std::vector<sb::obs::SpanData>& library) {
  // Markers in this batch map recorder threads to benchmark threads; a
  // recorder buffer can move to another thread between passes.
  for (const auto& [thread, link] : SpanLog::global().thread_links(library)) {
    links_[thread] = link;
  }
  for (const sb::obs::SpanData& s : library) {
    if (s.parent != 0) child_ns_[s.parent] += s.wall_end_ns - s.wall_start_ns;
  }
  for (const sb::obs::SpanData& s : library) {
    if (std::strcmp(s.name, kMarkerName) == 0) continue;
    std::int64_t own = s.wall_end_ns - s.wall_start_ns;
    const auto child = child_ns_.find(s.id);
    if (child != child_ns_.end()) {
      own -= child->second;
      child_ns_.erase(child);
    }
    self_ns_[library_layer(s.subsystem)] +=
        static_cast<double>(std::max<std::int64_t>(0, own));
    if (s.parent != 0) continue;
    const auto link = links_.find(s.thread);
    if (link == links_.end()) continue;
    const std::int64_t off = link->second.offset_ns;
    roots_[link->second.bench_thread].push_back(
        {s.wall_start_ns + off, s.wall_end_ns + off});
  }
}

void TracedPass::drain() {
  auto& recorder = sb::obs::SpanRecorder::global();
  const std::vector<sb::obs::SpanData> library = recorder.collect();
  dropped_ += recorder.dropped();
  recorder.reset();
  fold(library);
}

void TracedPass::end_stage() {
  drain();
  std::vector<BenchSpanRecord> bench = SpanLog::global().take();
  std::map<std::uint32_t, std::vector<Interval>> per_thread;
  for (const BenchSpanRecord& b : bench) {
    per_thread[b.thread].push_back({b.start_ns, b.end_ns, b.layer});
  }
  for (auto& [thread, iv] : per_thread) {
    add_thread_self_times(iv, roots_[thread], self_ns_);
  }
  roots_.clear();
  bench_.insert(bench_.end(), bench.begin(), bench.end());
}

void TracedPass::discard_stage() {
  (void)SpanLog::global().take();
  sb::obs::SpanRecorder& recorder = sb::obs::SpanRecorder::global();
  // Keep the thread links the discarded stage's markers carry.
  const std::vector<sb::obs::SpanData> library = recorder.collect();
  for (const auto& [thread, link] : SpanLog::global().thread_links(library)) {
    links_[thread] = link;
  }
  recorder.reset();
  child_ns_.clear();
  roots_.clear();
}

sb::obs::MetricsSnapshot TracedPass::finish(double traced_s,
                                            double untraced_s) {
  end_stage();
  SpanLog::global().set_enabled(false);
  sb::obs::SpanRecorder::global().set_enabled(false);
  sb::obs::MetricsSnapshot delta = registry_since(before_);
  for (const std::string& layer : self_time_layers()) {
    report_.layer("self_s." + layer, self_ns_[layer] * 1e-9, "s");
  }
  report_.layer("obs.trace_overhead",
                untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio");
  report_.layer("obs.spans_dropped", static_cast<double>(dropped_), "count");
  const std::string path = ".bench_build/traces/" + options_.workload + ".json";
  if (!write_spans(path, bench_)) {
    std::fprintf(stderr, "perfbench: cannot write span dump %s\n",
                 path.c_str());
  }
  return delta;
}

// --- TracedAllocator ---------------------------------------------------------

void TracedAllocator::batch_end(sb::SimTime now) {
  inner_->batch_end(now);
  // A batch holds at most a few hundred call events of a few spans each.
  if (++batches_ % 16 == 0) drain();
}

sb::fault::FailoverOutcome TracedAllocator::on_dc_failed(sb::DcId dc,
                                                         sb::SimTime now) {
  drain();
  sb::fault::FailoverOutcome out = inner_->on_dc_failed(dc, now);
  drain();
  return out;
}

void TracedAllocator::on_dc_recovered(sb::DcId dc, sb::SimTime now) {
  drain();
  inner_->on_dc_recovered(dc, now);
  drain();
}

}  // namespace perfbench
