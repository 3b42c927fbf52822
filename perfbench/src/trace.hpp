// Tracing for the benchmark, kept outside the libraries it measures.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer. Four library entry points are interposed with the linker's --wrap
// (see CMakeLists.txt) so that calls the libraries make internally — the
// vocoder pipeline builds and runs its own Simulator — are timed too:
//
//   minisc::Simulator::run       span "minisc.run" + a forwarding KernelHook
//   minisc::Simulator::spawn     span "minisc.spawn"
//   minisc::Simulator::~Simulator span "minisc.teardown"
//   scperf::Estimator::report    span "scperf.report"
//
// With tracing off every wrapper is a direct call to the real function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"

namespace scperf {
class Estimator;
}

namespace perfbench {

std::int64_t now_ns();
/// CPU time of the calling thread. Item latencies use it: unlike wall
/// time it leaves out the time the host schedules the thread away, which on
/// a shared host moves a tail by several times from one run to the next.
std::int64_t thread_cpu_ns();

/// Global switch. Flip it only while no thread records.
void set_tracing(bool on);
bool tracing();

/// RAII span on the calling thread; a no-op while tracing is off. Spans
/// must not stay open across a coroutine switch, so the benchmark never
/// opens one inside a simulated process body.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Item id carried by the spans the calling thread opens from now on.
void set_item(std::uint64_t item);

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the drained vector, -1 = root
  std::uint64_t item = 0;
  std::uint32_t tid = 0;
};

/// Where the forwarding KernelHook puts the host time of a Simulator::run.
/// A hook bucket holds the self time of that hook call: the time during
/// which the scheduler dispatched other processes inside it is charged to
/// them, not to the suspended call.
enum Bucket {
  kRunSelf,      ///< process bodies and the scheduler outside any hook
  kNodeReached,  ///< node_reached, incl. segment close and back-annotation
  kNodeDone,
  kResumed,      ///< process_resumed
  kLifecycle,    ///< process_started + process_finished
  kBucketCount
};

/// Counters summed over every thread.
struct Counters {
  std::int64_t hook_ns[kBucketCount] = {};
  std::uint64_t hook_calls = 0;
  std::uint64_t dispatches = 0;  ///< process_resumed calls
  std::uint64_t spawns = 0;
  std::uint64_t ops = 0;         ///< Report::ProcessRow::ops_executed
  std::uint64_t segments = 0;    ///< Report::ProcessRow::segments_executed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bypassed = 0;
  std::uint64_t cache_replayed_ops = 0;
  std::uint64_t cache_kernel_hits = 0;
  std::uint64_t iss_instructions = 0;
  std::uint64_t faults = 0;

  Counters& operator+=(const Counters& o);
  /// Adds the process and replay-cache rows of an estimation report.
  void add_report(const scperf::Report& r);
};

/// This thread's counters (summed by drain()).
Counters& counters();

struct TraceData {
  std::vector<SpanRecord> spans;
  Counters counters;
};

/// Moves out what every thread recorded so far. Call only while no other
/// thread records (pool threads joined).
TraceData drain();

/// Estimator::report without the "scperf.report" span, for counters the
/// benchmark reads while tracing (charged to its own "bench.check" span).
scperf::Report untraced_report(const scperf::Estimator& est);

/// Writes spans as Chrome Trace Event JSON (opens in Perfetto): the
/// `max_events` earliest-starting spans, each with its index in `spans` as
/// "id" and its parent's index; the rest are counted in "droppedSpans".
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::string& metadata_json,
                        std::size_t max_events);

}  // namespace perfbench
