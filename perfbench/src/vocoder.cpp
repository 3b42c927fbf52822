// Workload `vocoder`: one item is one run_annotated of the Table-3 pipeline
// (five processes, RTOS cost per switch) paired with run_reference on the
// same frames, on one thread. The seed draws the frame count and the 1- or
// 2-CPU mapping. Every segment repeats once per frame, so the replay cache
// and its fused kernels get repeated lookups; the ISS runs only in set-up.

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "workloads/vocoder/pipeline.hpp"

namespace perfbench {
namespace {

namespace voc = workloads::vocoder;

constexpr int kFrameCounts[] = {4, 8, 16};
constexpr int kCpuCounts[] = {1, 2};
constexpr double kCpuMhz = 50.0;
constexpr double kRtosCyclesPerSwitch = 80.0;

struct Config {
  std::string label;  ///< "vocoder <frames>f/<cpus>cpu"
  voc::PipelineConfig pipeline;
  // Results of the config's first run.
  std::map<std::string, double> process_cycles;
  minisc::Time sim_time;
};

struct Setup {
  std::map<int, long> checksum;  ///< per frame count, agreed by all forms
  std::map<int, double> iss_s;   ///< per frame count: ISS host seconds
  std::vector<Config> configs;
  double err_pct_max = 0.0;
  double err_pct_heldout = 0.0;
  std::uint64_t digest = 0;
};

Setup set_up() {
  Setup s;
  Digest digest;
  const Calibration cal = calibrate();
  digest.add(cal.digest);
  s.err_pct_heldout = cal.err_pct_heldout;
  for (const int frames : kFrameCounts) {
    const std::int64_t t0 = now_ns();
    const voc::IssPipelineResult iss = voc::run_iss(frames);
    s.iss_s[frames] = static_cast<double>(now_ns() - t0) / 1e9;
    const long ref = voc::run_reference(frames);
    if (iss.checksum != ref) {
      throw std::runtime_error("vocoder: ISS and reference checksums disagree");
    }
    s.checksum[frames] = ref;
    const std::uint64_t stage_cycles[5] = {iss.cycles.lsp, iss.cycles.lpc_int,
                                           iss.cycles.acb, iss.cycles.icb,
                                           iss.cycles.post};
    for (const int cpus : kCpuCounts) {
      Config c;
      c.label = "vocoder " + std::to_string(frames) + "f/" +
                std::to_string(cpus) + "cpu";
      c.pipeline = {.frames = frames,
                    .cpu_mhz = kCpuMhz,
                    .rtos_cycles_per_switch = kRtosCyclesPerSwitch,
                    .num_cpus = cpus};
      const voc::AnnotatedResult a = voc::run_annotated(c.pipeline);
      if (a.checksum != ref) {
        throw std::runtime_error("vocoder: annotated and reference checksums disagree");
      }
      for (int p = 0; p < 5; ++p) {
        const double lib = a.process_cycles.at(voc::kProcessNames[p]);
        const auto iss_p = static_cast<double>(stage_cycles[p]);
        s.err_pct_max = std::max(s.err_pct_max, std::fabs(100.0 * (lib - iss_p) / iss_p));
      }
      c.process_cycles = a.process_cycles;
      c.sim_time = a.sim_time;
      std::ostringstream report;
      a.report.print(report);
      digest.add(report.str());
      s.configs.push_back(std::move(c));
    }
  }
  s.digest = digest.value();
  return s;
}

}  // namespace

Outcome run_vocoder(const Options& o) {
  Outcome out;
  Setup setup;
  out.setup_s = timed_setups(5, [&] {
    Setup s = set_up();
    if (!setup.configs.empty() && s.digest != setup.digest) {
      throw std::runtime_error("vocoder: set-up is not deterministic");
    }
    setup = std::move(s);
  });
  out.err_pct_max = setup.err_pct_max;
  out.err_pct_heldout = setup.err_pct_heldout;
  out.digest = setup.digest;

  BlockSequence seq(setup.configs.size(), o.seed);
  std::int64_t spec_ns = 0, annotated_ns = 0;
  double iss_s = 0.0;
  set_tracing(o.trace);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::int64_t> done_ns;
  for (std::uint64_t item = 0; now_ns() < end; ++item) {
    const Config& cfg = setup.configs[seq.next()];
    const int frames = cfg.pipeline.frames;
    set_item(item);
    Span span("item");
    const std::int64_t cpu0 = thread_cpu_ns();
    const std::int64_t t0 = now_ns();
    long spec = 0;
    {
      Span s("workloads.spec");
      spec = voc::run_reference(frames);
    }
    const std::int64_t t1 = now_ns();
    voc::AnnotatedResult a;
    {
      Span s("run_annotated");
      a = voc::run_annotated(cfg.pipeline);
    }
    const std::int64_t t2 = now_ns();
    {
      Span s("bench.check");
      Checks& c = out.checks;
      c.expect(spec == setup.checksum.at(frames) &&
                   a.checksum == setup.checksum.at(frames),
               cfg.label, "checksums disagree");
      c.expect(a.process_cycles == cfg.process_cycles &&
                   a.sim_time == cfg.sim_time,
               cfg.label, "estimate differs from the config's first run");
      c.end_item();
      if (o.trace) counters().add_report(a.report);
    }
    spec_ns += t1 - t0;
    annotated_ns += t2 - t1;
    iss_s += setup.iss_s.at(frames);
    out.item_ms.push_back(static_cast<double>(thread_cpu_ns() - cpu0) / 1e6);
    done_ns.push_back(now_ns());
  }
  out.items_per_s = static_cast<double>(done_ns.size()) * 1e9 /
                    static_cast<double>(done_ns.back() - start);
  close_windows(done_ns, start, out.window_ends);
  set_tracing(false);
  out.overhead_x = static_cast<double>(annotated_ns) / static_cast<double>(spec_ns);
  out.gain_x = iss_s / (static_cast<double>(annotated_ns) / 1e9);
  return out;
}

}  // namespace perfbench
