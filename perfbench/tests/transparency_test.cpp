// The benchmark observes the libraries through a forwarding KernelHook and
// linker-interposed spans. These tests pin that the observation changes no
// output: a vocoder item and campaign runs give byte-identical reports and
// CSVs with tracing on and off, and the hook is handed back to the
// Estimator before its destructor clears it.

#include <gtest/gtest.h>

#include <sstream>

#include "bench.hpp"
#include "core/scperf.hpp"
#include "workloads/vocoder/pipeline.hpp"

namespace {

using namespace perfbench;

/// Runs fn with tracing on, then drains what was recorded.
template <typename Fn>
TraceData traced(Fn&& fn) {
  set_tracing(true);
  fn();
  set_tracing(false);
  return drain();
}

std::string report_bytes(const scperf::Report& r) {
  std::ostringstream os;
  r.print(os);
  r.write_csv(os);
  r.write_process_csv(os);
  r.write_resource_csv(os);
  r.write_cache_csv(os);
  return os.str();
}

std::string campaign_bytes(std::size_t threads) {
  sctrace::FaultCampaign c(
      [](std::uint64_t seed) { return run_pipeline(seed, true); });
  sctrace::CampaignOptions opts;
  opts.threads = threads;
  c.run(1234, 24, opts);
  std::ostringstream os;
  c.report().print(os, true);
  c.write_csv(os, true);
  return os.str();
}

TEST(ProxyTransparency, VocoderItemReportIsByteIdentical) {
  namespace voc = workloads::vocoder;
  const voc::PipelineConfig cfg{.frames = 4, .cpu_mhz = 50.0,
                                .rtos_cycles_per_switch = 80.0, .num_cpus = 2};
  const voc::AnnotatedResult plain = voc::run_annotated(cfg);
  voc::AnnotatedResult observed;
  const TraceData td = traced([&] { observed = voc::run_annotated(cfg); });

  EXPECT_GT(td.counters.hook_calls, 0u) << "the proxy never saw a hook call";
  EXPECT_GT(td.counters.dispatches, 0u);
  EXPECT_EQ(td.counters.spawns, 7u);  // five stages, source and sink
  EXPECT_EQ(observed.checksum, plain.checksum);
  EXPECT_EQ(observed.process_cycles, plain.process_cycles);
  EXPECT_EQ(observed.sim_time, plain.sim_time);
  EXPECT_EQ(report_bytes(observed.report), report_bytes(plain.report));
}

TEST(ProxyTransparency, CampaignReportAndCsvAreByteIdentical) {
  const std::string plain = campaign_bytes(0);
  std::string seq, pooled;
  const TraceData td = traced([&] {
    seq = campaign_bytes(0);
    pooled = campaign_bytes(2);
  });
  EXPECT_GT(td.counters.hook_calls, 0u);
  EXPECT_EQ(seq, plain);
  EXPECT_EQ(pooled, plain);
}

TEST(ProxyTransparency, HookIsHandedBackBeforeTheEstimatorDies) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", 50.0, scperf::orsim_sw_cost_table());
  est.map("p", cpu);
  sim.spawn("p", [] { minisc::wait(minisc::Time::ns(10)); });
  const TraceData td = traced([&] { sim.run(); });
  EXPECT_EQ(sim.hook(), &est);
  EXPECT_EQ(td.counters.dispatches, 2u);  // start, and after the wait
}

TEST(ProxyTransparency, SpansNestAndHookTimeStaysInsideTheRunSpan) {
  const TraceData td = traced([] { (void)campaign_bytes(0); });
  double run_s = 0.0;
  for (const SpanRecord& s : td.spans) {
    ASSERT_GE(s.end_ns, s.start_ns) << s.name << " never closed";
    if (s.parent >= 0) {
      const SpanRecord& p = td.spans[static_cast<std::size_t>(s.parent)];
      EXPECT_LE(p.start_ns, s.start_ns);
      EXPECT_GE(p.end_ns, s.end_ns);
    }
    if (std::string(s.name) == "minisc.run") {
      run_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  double hook_s = 0.0;
  for (const std::int64_t ns : td.counters.hook_ns) hook_s += static_cast<double>(ns) / 1e9;
  EXPECT_GT(hook_s, 0.0);
  EXPECT_LE(hook_s, run_s);
}

}  // namespace
