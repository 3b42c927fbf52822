// Workload `table1`: one item is one Table-1 kernel, drawn by the seed, run
// in all three forms — plain reference(), annotated() on a fresh Simulator
// and Estimator with one 50 MHz SW resource, and iss() — on one thread.
// One process with one long segment: annotation charging and the ISS do
// nearly all the work, and every segment is seen once.

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/scperf.hpp"

namespace perfbench {
namespace {

constexpr double kCpuMhz = 50.0;

struct AnnotatedRun {
  long checksum = 0;
  double cycles = 0.0;
  minisc::Time sim_time;
  scperf::Report report;
};

AnnotatedRun annotated_form(const workloads::Benchmark& b) {
  struct Platform {
    explicit Platform(const std::string& process) {
      auto& cpu =
          est.add_sw_resource("cpu", kCpuMhz, scperf::orsim_sw_cost_table());
      est.map(process, cpu);
    }
    minisc::Simulator sim;
    scperf::Estimator est{sim};
  };
  AnnotatedRun r;
  std::unique_ptr<Platform> p;
  {
    Span s("construct");
    p = std::make_unique<Platform>(b.name);
  }
  p->sim.spawn(b.name, [&] { r.checksum = b.annotated(); });
  p->sim.run();
  r.cycles = p->est.process_cycles(b.name);
  r.sim_time = p->sim.now();
  r.report = p->est.report();
  Span s("minisc.teardown");
  p.reset();
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

Calibration calibrate() {
  Calibration cal;
  std::vector<workloads::Benchmark> benches = workloads::table1_suite();
  benches.push_back(workloads::make_matrix());
  Digest digest;
  for (auto& b : benches) {
    KernelRef k;
    k.checksum = b.reference();
    const AnnotatedRun a = annotated_form(b);
    const workloads::IssResult iss = b.iss();
    if (a.checksum != k.checksum || iss.checksum != k.checksum) {
      throw std::runtime_error(b.name + ": checksums disagree (reference " +
                               std::to_string(k.checksum) + ", annotated " +
                               std::to_string(a.checksum) + ", iss " +
                               std::to_string(iss.checksum) + ")");
    }
    k.cycles = a.cycles;
    k.sim_time = a.sim_time;
    k.iss_cycles = iss.cycles;
    k.iss_instructions = iss.instructions;
    k.err_pct = 100.0 * (a.cycles - static_cast<double>(iss.cycles)) /
                static_cast<double>(iss.cycles);
    digest.add(b.name);
    digest.add(k.checksum);
    digest.add(k.cycles);
    digest.add(k.sim_time);
    digest.add(k.iss_cycles);
    digest.add(k.iss_instructions);
    k.bench = std::move(b);
    cal.kernels.push_back(std::move(k));
  }
  for (std::size_t i = 0; i + 1 < cal.kernels.size(); ++i) {
    cal.err_pct_max = std::max(cal.err_pct_max, std::fabs(cal.kernels[i].err_pct));
  }
  cal.err_pct_heldout = std::fabs(cal.kernels.back().err_pct);
  cal.digest = digest.value();
  return cal;
}

Outcome run_table1(const Options& o) {
  Outcome out;
  Calibration cal;
  // A set-up takes milliseconds here, so take the median of more of them.
  out.setup_s = timed_setups(15, [&] {
    Calibration c = calibrate();
    if (!cal.kernels.empty() && c.digest != cal.digest) {
      throw std::runtime_error("table1: set-up is not deterministic");
    }
    cal = std::move(c);
  });
  out.err_pct_max = cal.err_pct_max;
  out.err_pct_heldout = cal.err_pct_heldout;
  out.digest = cal.digest;

  BlockSequence seq(cal.kernels.size(), o.seed);
  std::int64_t spec_ns = 0, annotated_ns = 0, iss_ns = 0;
  set_tracing(o.trace);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::int64_t> done_ns;
  for (std::uint64_t item = 0; now_ns() < end; ++item) {
    const KernelRef& k = cal.kernels[seq.next()];
    set_item(item);
    Span span("item");
    const std::int64_t cpu0 = thread_cpu_ns();
    const std::int64_t t0 = now_ns();
    long spec = 0;
    {
      Span s("workloads.spec");
      spec = k.bench.reference();
    }
    const std::int64_t t1 = now_ns();
    const AnnotatedRun a = annotated_form(k.bench);
    const std::int64_t t2 = now_ns();
    workloads::IssResult iss;
    {
      Span s("orsim.iss");
      iss = k.bench.iss();
    }
    const std::int64_t t3 = now_ns();
    {
      Span s("bench.check");
      Checks& c = out.checks;
      const std::string& name = k.bench.name;
      c.expect(spec == k.checksum && a.checksum == k.checksum &&
                   iss.checksum == k.checksum,
               name, "checksums disagree");
      c.expect(same_bits(a.cycles, k.cycles) && a.sim_time == k.sim_time,
               name, "estimate differs from its first run");
      c.expect(iss.cycles == k.iss_cycles &&
                   iss.instructions == k.iss_instructions,
               name, "ISS cycles differ from its first run");
      c.end_item();
      if (o.trace) {
        counters().add_report(a.report);
        counters().iss_instructions += iss.instructions;
      }
    }
    spec_ns += t1 - t0;
    annotated_ns += t2 - t1;
    iss_ns += t3 - t2;
    out.item_ms.push_back(static_cast<double>(thread_cpu_ns() - cpu0) / 1e6);
    done_ns.push_back(now_ns());
  }
  out.items_per_s = static_cast<double>(done_ns.size()) * 1e9 /
                    static_cast<double>(done_ns.back() - start);
  close_windows(done_ns, start, out.window_ends);
  set_tracing(false);
  out.overhead_x = static_cast<double>(annotated_ns) / static_cast<double>(spec_ns);
  out.gain_x = static_cast<double>(iss_ns) / static_cast<double>(annotated_ns);
  return out;
}

}  // namespace perfbench
