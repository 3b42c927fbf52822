// The repository benchmark. Usage:
//
//   perfbench --workload table1|vocoder|campaign --seed N --seconds S
//             --trace 0|1 --out DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans and
// hook times and prints the per-layer metrics instead, writes the spans to
// DIR/trace-<workload>-<seed>.json (Chrome Trace Event JSON) and checks that
// the layers account for the items' wall time. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check fails, 2 on a usage or set-up error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr const char* kPinnedEnv[] = {
    "SCPERF_SEGMENT_CACHE", "SCPERF_FUSED_KERNELS", "SCPERF_CACHE_VALIDATE",
    "ORSIM_BLOCK_CACHE", "ORSIM_BLOCK_CACHE_VALIDATE"};
/// Largest share of the items' wall time the layer spans may leave
/// unattributed.
constexpr double kAccountingBar = 0.05;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// item_ms_tail: the run's items are cut into k = n / kTailWindow equal
/// windows of consecutive items, each window's p99 is taken (at least ten
/// samples beyond it), and the tail is the median over the windows — so
/// that host preemption bursting into one window does not set the figure.
/// Runs with fewer than kTailWindow items use the highest of p50, p90, ...
/// that has ten samples beyond it over the whole run.
constexpr std::size_t kTailWindow = 1000;

struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t windows = 0;
};

double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

Tail tail_of(const std::vector<double>& v) {
  const std::size_t n = v.size();
  const std::size_t k = n / kTailWindow;
  if (k == 0) {
    double pct = 50.0;
    for (double miss = 0.1; miss * static_cast<double>(n) >= 10.0; miss /= 10.0) {
      pct = 100.0 * (1.0 - miss);
    }
    return {pct, percentile(v, pct), 1};
  }
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const auto from = static_cast<std::ptrdiff_t>(w * n / k);
    const auto to = static_cast<std::ptrdiff_t>((w + 1) * n / k);
    per_window.push_back(percentile({v.begin() + from, v.begin() + to}, 99.0));
  }
  return {99.0, median(per_window), k};
}

/// item_ms_p50: the mean over the run's windows (Outcome::window_ends) of
/// each window's median item time; the whole run's median when it is
/// shorter than one window. The host alternates between a fast and a slow
/// state for seconds at a time, and the pooled median jumps by the
/// difference when the fast share crosses half the run. The mean over
/// windows moves only in proportion to that share.
double windowed_median(const Outcome& r) {
  if (r.window_ends.empty()) return median(r.item_ms);
  double sum = 0.0;
  std::size_t begin = 0;
  for (const std::size_t end : r.window_ends) {
    sum += median(std::vector<double>(
        r.item_ms.begin() + static_cast<std::ptrdiff_t>(begin),
        r.item_ms.begin() + static_cast<std::ptrdiff_t>(end)));
    begin = end;
  }
  return sum / static_cast<double>(r.window_ends.size());
}

/// VmHWM of this process image. getrusage's ru_maxrss would also count the
/// parent's pages at fork time, because Linux keeps it across execve.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string context_json(const Options& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"num_cpus\": %u, \"threads\": %u}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
                o.threads);
  return buf;
}

/// Per-layer metrics from the spans and hook counters of a traced run.
/// A span's self time is its duration minus its children's durations.
/// `unattributed_frac` receives the share of the items' wall time that no
/// layer span covers.
std::vector<Metric> layer_metrics(const Outcome& r, const TraceData& td,
                                  double* unattributed_frac) {
  const auto dur = [](const SpanRecord& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  };
  std::vector<double> own(td.spans.size());
  for (std::size_t i = 0; i < td.spans.size(); ++i) own[i] = dur(td.spans[i]);
  double items_wall = 0.0;
  for (std::size_t i = 0; i < td.spans.size(); ++i) {
    const SpanRecord& s = td.spans[i];
    if (s.parent >= 0) own[static_cast<std::size_t>(s.parent)] -= dur(s);
    if (std::strcmp(s.name, "item") == 0) items_wall += dur(s);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < td.spans.size(); ++i) self[td.spans[i].name] += own[i];

  const Counters& c = td.counters;
  const auto sec = [&](Bucket b) { return static_cast<double>(c.hook_ns[b]) / 1e9; };
  const double hooks = sec(kNodeReached) + sec(kNodeDone) + sec(kResumed) + sec(kLifecycle);
  const double spec = self["workloads.spec"];
  const double run_self = self["minisc.run"] - hooks;
  const double charge = run_self - spec;
  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses + c.cache_bypassed);
  const double items = static_cast<double>(r.item_ms.size());
  const double unattributed = self["item"];
  *unattributed_frac = items_wall > 0.0 ? unattributed / items_wall : 1.0;

  std::vector<Metric> m = {
      {"workloads.spec_s", spec, "s"},
      {"minisc.construct_s", self["construct"] + self["minisc.spawn"] + self["run_annotated"], "s"},
      {"minisc.spawns", static_cast<double>(c.spawns), "count"},
      {"minisc.dispatches", static_cast<double>(c.dispatches), "count"},
      {"minisc.dispatches_per_item", items > 0 ? static_cast<double>(c.dispatches) / items : 0.0, "count"},
      {"minisc.run.self_s", run_self, "s"},
      {"minisc.teardown_s", self["minisc.teardown"], "s"},
      {"scperf.charge_s", charge, "s"},
      {"scperf.ops", static_cast<double>(c.ops), "count"},
      {"scperf.charge.ns_per_op", c.ops ? charge / static_cast<double>(c.ops) * 1e9 : 0.0, "ns"},
      {"scperf.hook.node_reached_s", sec(kNodeReached), "s"},
      {"scperf.hook.node_done_s", sec(kNodeDone), "s"},
      {"scperf.hook.resumed_s", sec(kResumed), "s"},
      {"scperf.hook.lifecycle_s", sec(kLifecycle), "s"},
      {"scperf.hook.calls", static_cast<double>(c.hook_calls), "count"},
      {"scperf.segments", static_cast<double>(c.segments), "count"},
      {"scperf.segcache.hits", static_cast<double>(c.cache_hits), "count"},
      {"scperf.segcache.misses", static_cast<double>(c.cache_misses), "count"},
      {"scperf.segcache.bypassed", static_cast<double>(c.cache_bypassed), "count"},
      {"scperf.segcache.replayed_ops", static_cast<double>(c.cache_replayed_ops), "count"},
      {"scperf.segcache.kernel_hits", static_cast<double>(c.cache_kernel_hits), "count"},
      {"scperf.segcache.hit_ratio", lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0, "1"},
      {"scperf.report_s", self["scperf.report"], "s"},
      {"orsim.run_s", self["orsim.iss"], "s"},
      {"orsim.instructions", static_cast<double>(c.iss_instructions), "count"},
      {"orsim.ns_per_instr", c.iss_instructions ? self["orsim.iss"] / static_cast<double>(c.iss_instructions) * 1e9 : 0.0, "ns"},
      {"orsim.gain_x", r.gain_x, "x"},
      {"scfault.setup_s", self["scfault.setup"], "s"},
      {"scfault.faults", static_cast<double>(c.faults), "count"},
      {"sctrace.campaign.self_s", r.campaign_self_s, "s"},
      {"sctrace.pool.busy_frac", r.pool_busy_frac, "1"},
      {"sctrace.pool.scaling_x", r.scaling_x, "x"},
      {"sctrace.report_s", self["sctrace.report"], "s"},
      {"bench.check_s", self["bench.check"], "s"},
      {"bench.items_wall_s", items_wall, "s"},
      {"bench.unattributed_s", unattributed, "s"},
      {"bench.unattributed_frac", *unattributed_frac, "1"},
      {"traced.items_per_s", r.items_per_s, "1/s"},
  };
  return m;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table1|vocoder|campaign "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") { o.seed = std::strtoull(v, nullptr, 10); have_seed = true; }
    else if (k == "--seconds") o.seconds = std::atof(v);
    else if (k == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else if (k == "--out") o.out_dir = v;
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 == 0 || !have_seed || o.out_dir.empty() || !(o.seconds > 0)) {
    return usage("missing or malformed arguments");
  }
  for (const char* env : kPinnedEnv) {
    if (std::getenv(env) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures the default "
                   "configuration only — unset it and rerun\n", env);
      return 2;
    }
  }
#ifndef NDEBUG
  return usage("built with assertions on; only Release builds are measured");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return usage("not a Release build; only Release builds are measured");
  }
  o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::filesystem::create_directories(o.out_dir);

  Outcome r;
  try {
    if (o.workload == "table1") r = run_table1(o);
    else if (o.workload == "vocoder") r = run_vocoder(o);
    else if (o.workload == "campaign") r = run_campaign(o);
    else return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const std::string ctx = context_json(o);
  std::printf("context: %s\n", ctx.c_str());
  std::printf("digest: %016llx (simulated statistics of the set-up)\n",
              static_cast<unsigned long long>(r.digest));
  const Checks& chk = r.checks;
  bool correct = chk.failed == 0;
  for (const auto& msg : chk.messages) std::printf("FAILED: %s\n", msg.c_str());

  std::vector<Metric> metrics;
  if (!o.trace) {
    const Tail tail = tail_of(r.item_ms);
    metrics = {
        {"setup_s", r.setup_s, "s"},
        {"items_per_s", r.items_per_s, "1/s"},
        {"item_ms_p50", windowed_median(r), "ms"},
        {"item_ms_tail", tail.value, "ms"},
        {"overhead_x", r.overhead_x, "x"},
        {"err_pct_max", r.err_pct_max, "%"},
        {"err_pct_heldout", r.err_pct_heldout, "%"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("item_ms_tail is the median of the p%g of %zu windows of "
                "%zu items; item_ms_p50 the mean of the medians of %zu "
                "windows; %zu items\n",
                tail.pct, tail.windows, r.item_ms.size() / tail.windows,
                std::max<std::size_t>(r.window_ends.size(), 1), r.item_ms.size());
    std::printf("%-28s %.6g %s (%llu of %llu items failed)\n", "error_rate",
                chk.attempted ? static_cast<double>(chk.failed) / static_cast<double>(chk.attempted) : 0.0,
                "1", static_cast<unsigned long long>(chk.failed),
                static_cast<unsigned long long>(chk.attempted));
  } else {
    const TraceData td = drain();
    double unattributed = 1.0;
    metrics = layer_metrics(r, td, &unattributed);
    const bool accounted = unattributed <= kAccountingBar;
    const std::string path = o.out_dir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    constexpr std::size_t kMaxWritten = 100000;
    write_chrome_trace(path, td.spans, ctx, kMaxWritten);
    std::printf("spans: %zu recorded, the first %zu written to %s\n",
                td.spans.size(), std::min(td.spans.size(), kMaxWritten), path.c_str());
    std::printf("accounting: layers cover %.2f%% of the items' wall time; "
                "unattributed %.2f%% (bar %.0f%%) — %s\n",
                100.0 * (1.0 - unattributed), 100.0 * unattributed,
                100.0 * kAccountingBar, accounted ? "ok" : "FAILED");
    correct = correct && accounted;
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(chk.attempted);
  json += ", \"failed\": " + std::to_string(chk.failed);
  json += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
