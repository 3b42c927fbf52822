#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/estimator.hpp"
#include "kernel/simulator.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;  ///< parent holds a local index here
  std::int64_t open = -1;         ///< innermost open span (local index)
  std::uint64_t item = 0;
  Counters counters;
};

// Pool threads come and go with every FaultCampaign::run, so buffers are
// owned here and outlive their threads.
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf& buf() {
  thread_local ThreadBuf* tl = nullptr;
  if (tl == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    tl = g_bufs.back().get();
    tl->tid = static_cast<std::uint32_t>(g_bufs.size());
  }
  return *tl;
}

/// Generation of the proxy live on this thread (0 = none). A run that
/// stops at its time limit can leave a process suspended inside a hook
/// call; when the Simulator's teardown unwinds that process, the call's
/// proxy is gone and the generation tells it so.
thread_local std::uint64_t tl_live_proxy = 0;
thread_local std::uint64_t tl_proxy_generations = 0;

/// Forwarding hook installed over the Estimator (or the FaultInjector that
/// wraps it) for the duration of one Simulator::run. It forwards every call
/// unchanged and charges the host time between two stamps to the bucket
/// the running process is in.
class LayerProxy final : public minisc::KernelHook {
 public:
  LayerProxy(minisc::Simulator& sim, Counters& out)
      : sim_(sim),
        inner_(sim.hook()),
        out_(out),
        generation_(++tl_proxy_generations),
        saved_live_(tl_live_proxy),
        last_(now_ns()) {
    tl_live_proxy = generation_;
    sim_.set_hook(this);
  }
  ~LayerProxy() override {
    charge();
    sim_.set_hook(inner_);
    tl_live_proxy = saved_live_;
  }
  LayerProxy(const LayerProxy&) = delete;
  LayerProxy& operator=(const LayerProxy&) = delete;

  void process_started(minisc::Process& p) override {
    Call c(*this, p, kLifecycle);
    inner_->process_started(p);
  }
  void process_finished(minisc::Process& p) override {
    Call c(*this, p, kLifecycle);
    inner_->process_finished(p);
  }
  void process_resumed(minisc::Process& p) override {
    charge();  // the scheduler's time, to whoever yielded to it
    running_ = &p;
    ++out_.dispatches;
    Call c(*this, p, kResumed);
    inner_->process_resumed(p);
  }
  void node_reached(minisc::Process& p, minisc::NodeKind kind,
                    const char* label) override {
    Call c(*this, p, kNodeReached);
    inner_->node_reached(p, kind, label);
  }
  void node_done(minisc::Process& p, minisc::NodeKind kind,
                 const char* label) override {
    Call c(*this, p, kNodeDone);
    inner_->node_done(p, kind, label);
  }

 private:
  /// One hook call of process p. A call may suspend p (raw_wait while
  /// back-annotating); process_resumed then moves `running_` to the other
  /// processes and back, so their time never lands in p's bucket. The
  /// destructor also runs when a crash unwinds through the call.
  struct Call {
    Call(LayerProxy& x, minisc::Process& p, Bucket b)
        : x(x), p(p), generation(x.generation_) {
      x.charge();
      ++x.out_.hook_calls;
      saved = x.bucket_of(p);
      x.bucket_of(p) = b;
    }
    ~Call() {
      if (tl_live_proxy != generation) return;  // unwound after the run
      x.charge();
      x.bucket_of(p) = saved;
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    LayerProxy& x;
    minisc::Process& p;
    std::uint64_t generation;
    Bucket saved = kRunSelf;
  };

  Bucket& bucket_of(minisc::Process& p) {
    if (p.id() >= open_.size()) open_.resize(p.id() + 1, kRunSelf);
    return open_[p.id()];
  }
  void charge() {
    const std::int64_t t = now_ns();
    const Bucket b = running_ != nullptr ? bucket_of(*running_) : kRunSelf;
    out_.hook_ns[b] += t - last_;
    last_ = t;
  }

  minisc::Simulator& sim_;
  minisc::KernelHook* inner_;
  Counters& out_;
  std::uint64_t generation_;
  std::uint64_t saved_live_;
  std::int64_t last_;
  minisc::Process* running_ = nullptr;
  std::vector<Bucket> open_;  ///< per process id: the bucket it is in
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!tracing()) return;
  ThreadBuf& b = buf();
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back({name, now_ns(), 0, b.open, b.item, b.tid});
  b.open = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuf& b = buf();
  SpanRecord& r = b.spans[static_cast<std::size_t>(index_)];
  r.end_ns = now_ns();
  b.open = r.parent;
}

void set_item(std::uint64_t item) { buf().item = item; }

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kBucketCount; ++i) hook_ns[i] += o.hook_ns[i];
  hook_calls += o.hook_calls;
  dispatches += o.dispatches;
  spawns += o.spawns;
  ops += o.ops;
  segments += o.segments;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_bypassed += o.cache_bypassed;
  cache_replayed_ops += o.cache_replayed_ops;
  cache_kernel_hits += o.cache_kernel_hits;
  iss_instructions += o.iss_instructions;
  faults += o.faults;
  return *this;
}

void Counters::add_report(const scperf::Report& r) {
  for (const auto& p : r.processes) {
    ops += p.ops_executed;
    segments += p.segments_executed;
  }
  for (const auto& c : r.cache) {
    cache_hits += c.hits;
    cache_misses += c.misses;
    cache_bypassed += c.bypassed;
    cache_replayed_ops += c.replayed_ops;
    cache_kernel_hits += c.kernel_hits;
  }
}

Counters& counters() { return buf().counters; }

TraceData drain() {
  TraceData out;
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (auto& b : g_bufs) {
    const auto offset = static_cast<std::int64_t>(out.spans.size());
    for (SpanRecord r : b->spans) {
      if (r.parent >= 0) r.parent += offset;
      out.spans.push_back(r);
    }
    b->spans.clear();
    b->open = -1;
    out.counters += b->counters;
    b->counters = Counters{};
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::string& metadata_json,
                        std::size_t max_events) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  // The earliest spans of every thread, so the file covers the start of
  // the run on all of them.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t n = std::min(spans.size(), max_events);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return spans[a].start_ns < spans[b].start_ns;
                    });
  const std::int64_t t0 = n > 0 ? spans[order[0]].start_ns : 0;
  os << "{\"displayTimeUnit\": \"ns\", \"otherData\": " << metadata_json
     << ", \"droppedSpans\": " << spans.size() - n << ", \"traceEvents\": [";
  char line[320];
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[order[i]];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"item\":%llu,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, order[i],
                  static_cast<unsigned long long>(s.item),
                  static_cast<long long>(s.parent));
    os << line;
  }
  os << "\n]}\n";
  if (!os.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench

// ---- linker interposition (-Wl,--wrap=<symbol>, see CMakeLists.txt) ----
//
// The mangled names pin the exact signatures: if one changes, the link
// fails on the missing __real_ symbol instead of timing the wrong call.

using minisc::Simulator;

minisc::StopReason real_run(Simulator*, minisc::Time) asm(
    "__real__ZN6minisc9Simulator3runENS_4TimeE");
minisc::StopReason wrap_run(Simulator*, minisc::Time) asm(
    "__wrap__ZN6minisc9Simulator3runENS_4TimeE");
minisc::Process& real_spawn(Simulator*, std::string, std::function<void()>,
                            std::size_t)
    asm("__real__ZN6minisc9Simulator5spawnENSt7__cxx1112basic_stringIcSt11"
        "char_traitsIcESaIcEEESt8functionIFvvEEm");
minisc::Process& wrap_spawn(Simulator*, std::string, std::function<void()>,
                            std::size_t)
    asm("__wrap__ZN6minisc9Simulator5spawnENSt7__cxx1112basic_stringIcSt11"
        "char_traitsIcESaIcEEESt8functionIFvvEEm");
void real_dtor(Simulator*) asm("__real__ZN6minisc9SimulatorD1Ev");
void wrap_dtor(Simulator*) asm("__wrap__ZN6minisc9SimulatorD1Ev");
scperf::Report real_report(const scperf::Estimator*) asm(
    "__real__ZNK6scperf9Estimator6reportEv");
scperf::Report wrap_report(const scperf::Estimator*) asm(
    "__wrap__ZNK6scperf9Estimator6reportEv");

minisc::StopReason wrap_run(Simulator* sim, minisc::Time limit) {
  if (!perfbench::tracing()) return real_run(sim, limit);
  perfbench::Span span("minisc.run");
  if (sim->hook() == nullptr) return real_run(sim, limit);
  perfbench::LayerProxy proxy(*sim, perfbench::counters());
  return real_run(sim, limit);
}

minisc::Process& wrap_spawn(Simulator* sim, std::string name,
                            std::function<void()> body, std::size_t stack) {
  if (!perfbench::tracing()) {
    return real_spawn(sim, std::move(name), std::move(body), stack);
  }
  perfbench::Span span("minisc.spawn");
  ++perfbench::counters().spawns;
  return real_spawn(sim, std::move(name), std::move(body), stack);
}

void wrap_dtor(Simulator* sim) {
  perfbench::Span span("minisc.teardown");
  real_dtor(sim);
}

scperf::Report wrap_report(const scperf::Estimator* est) {
  perfbench::Span span("scperf.report");
  return real_report(est);
}

scperf::Report perfbench::untraced_report(const scperf::Estimator& est) {
  return real_report(&est);
}
