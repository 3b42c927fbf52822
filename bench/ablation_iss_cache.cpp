// Ablation D (DESIGN.md §4): cache-induced estimation error, plus the gates
// of the orsim block-level cost cache (iss/block_cache.hpp).
//
// Three modes in one binary:
//
//   (default)   The Ablation-D table. §1 of the paper discusses caches as
//               the classic error source in SW execution-time estimation
//               ("some error percentage is unavoidable which may require
//               providing confidence intervals"). Each Table-1 benchmark
//               runs on the ISS with I/D cache timing models enabled; the
//               library estimate, calibrated against the cache-less cycle
//               model, drifts by the miss cycles — exactly the class of
//               error the paper attributes to the memory hierarchy.
//
//   --verify    Byte-identity + soundness gates of the block cost cache
//               (the CI gate): every Table-1 ISS run (plain / I$ / I$+D$),
//               the vocoder ISS pipeline, and a fault-injected ISS-backed
//               campaign (threads in {seq, 1, 8}) must produce identical
//               results with the cache disabled, enabled, and in
//               ORSIM_BLOCK_CACHE_VALIDATE mode. Also checks engagement
//               (hits > 0 where the cache should fire), the D$ bypass
//               (memory blocks never fast-pathed under a d-cache model),
//               the tracing bypass, and a clean validate run. Exits
//               non-zero on any divergence.
//
//   --speedup   Chrono-measured speedup of persistent-machine ISS replay
//               (construct the Machine once, re-run the benchmark function
//               repeatedly — what a cost-table build or campaign replay
//               does) with the block cache on vs off; exits non-zero below
//               the 1.5x gate. Run separately from --verify so an
//               equivalence failure is never masked by a timing failure or
//               vice versa.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/scperf.hpp"
#include "fault/injector.hpp"
#include "iss/assembler.hpp"
#include "iss/machine.hpp"
#include "trace/campaign.hpp"
#include "workloads/table1.hpp"
#include "workloads/vocoder/pipeline.hpp"

using minisc::Time;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Bit pattern of a double — hit rates must match exactly, not approximately.
std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// The three block-cache modes the matrix crosses. The env var is how a user
/// toggles the cache, and iss::Machine reads it at construction — so setting
/// it here exercises the exact production path.
enum class BcMode { kOff, kOn, kValidate };

void set_bc_mode(BcMode m) {
  unsetenv("ORSIM_BLOCK_CACHE");
  unsetenv("ORSIM_BLOCK_CACHE_VALIDATE");
  if (m == BcMode::kOff) setenv("ORSIM_BLOCK_CACHE", "0", 1);
  if (m == BcMode::kValidate) setenv("ORSIM_BLOCK_CACHE_VALIDATE", "1", 1);
}

// ---- gate 1: Table-1 ISS runs, plain / I$ / I$+D$ -----------------------

struct IssArtifacts {
  long checksum = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t ic_bits = 0;
  std::uint64_t dc_bits = 0;

  bool operator==(const IssArtifacts& o) const {
    return checksum == o.checksum && cycles == o.cycles &&
           instructions == o.instructions && ic_bits == o.ic_bits &&
           dc_bits == o.dc_bits;
  }
};

IssArtifacts from_result(const workloads::IssResult& r) {
  return {r.checksum, r.cycles, r.instructions, bits(r.icache_hit_rate),
          bits(r.dcache_hit_rate)};
}

void gate_table1() {
  std::printf("-- gate: table1 ISS runs, cache off/on/validate --\n");
  struct CacheCase {
    const char* name;
    workloads::IssCacheConfig cfg;
  };
  const CacheCase cases[] = {
      {"plain", {}},
      {"icache", {.enable_icache = true}},
      {"icache+dcache", {.enable_icache = true, .enable_dcache = true}},
  };
  for (const auto& b : workloads::table1_suite()) {
    for (const CacheCase& c : cases) {
      std::optional<IssArtifacts> ref;
      bool all_equal = true;
      bool validate_clean = true;
      for (const BcMode m : {BcMode::kOff, BcMode::kOn, BcMode::kValidate}) {
        set_bc_mode(m);
        try {
          const IssArtifacts a = from_result(b.iss_cached(c.cfg));
          if (!ref) {
            ref = a;
          } else {
            all_equal &= a == *ref;
          }
        } catch (const std::logic_error&) {
          validate_clean = false;
        }
      }
      set_bc_mode(BcMode::kOn);
      const std::string label = b.name + " (" + c.name + ")";
      check(all_equal, label + ": cycles/instructions/checksum identical");
      check(validate_clean, label + ": validate mode clean");
    }
  }
  unsetenv("ORSIM_BLOCK_CACHE");
  unsetenv("ORSIM_BLOCK_CACHE_VALIDATE");
}

// ---- gate 2: vocoder ISS pipeline ---------------------------------------

void gate_vocoder() {
  std::printf("-- gate: vocoder ISS pipeline, cache off/on/validate --\n");
  std::optional<workloads::vocoder::IssPipelineResult> ref;
  bool all_equal = true;
  bool validate_clean = true;
  for (const BcMode m : {BcMode::kOff, BcMode::kOn, BcMode::kValidate}) {
    set_bc_mode(m);
    try {
      const auto r = workloads::vocoder::run_iss(/*frames=*/4);
      if (!ref) {
        ref = r;
      } else {
        all_equal &= r.checksum == ref->checksum &&
                     r.cycles.lsp == ref->cycles.lsp &&
                     r.cycles.lpc_int == ref->cycles.lpc_int &&
                     r.cycles.acb == ref->cycles.acb &&
                     r.cycles.icb == ref->cycles.icb &&
                     r.cycles.post == ref->cycles.post;
      }
    } catch (const std::logic_error&) {
      validate_clean = false;
    }
  }
  unsetenv("ORSIM_BLOCK_CACHE");
  unsetenv("ORSIM_BLOCK_CACHE_VALIDATE");
  check(all_equal, "vocoder: per-stage cycles and checksum identical");
  check(validate_clean, "vocoder: validate mode clean");
}

// ---- gate 3: fault-injected ISS-backed campaign, threads {seq,1,8} ------

/// Loop-heavy kernel used by the campaign and the engagement/speedup gates:
/// nested multiply-accumulate with the outer trip count in r3 — the shape of
/// the Table-1 FIR workload, parameterisable per seed.
constexpr const char* kGateAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
outer:
  sflt r13, r3
  bnf  done
  li   r14, 0
  li   r15, 0
inner:
  sflti r15, 16
  bnf  inner_done
  mul  r20, r15, r13
  add  r14, r14, r20
  addi r15, r15, 1
  j    inner
inner_done:
  srai r14, r14, 4
  add  r11, r11, r14
  addi r13, r13, 1
  j    outer
done:
  ret
)";

/// Per-seed run: an ISS execution (fresh Machine, block cache per env) whose
/// cycle count and checksum parameterise a fault-injected estimator run —
/// so the campaign CSV depends bit-for-bit on the ISS outputs, and byte-
/// identity across cache modes and thread counts gates the block cache
/// under fault injection and concurrency at once.
sctrace::FaultCampaign::RunFn make_iss_campaign_run() {
  return [](std::uint64_t seed) {
    iss::Machine m;
    m.enable_icache({64, 16, 20});
    m.load_program(iss::assemble(kGateAsm));
    m.set_reg(3, static_cast<std::int32_t>(40 + seed % 9));
    const std::int32_t sum = m.call("kernel");
    const std::uint64_t iss_cycles = m.stats().cycles;

    minisc::Simulator sim;
    scperf::Estimator est(sim);
    auto& cpu =
        est.add_sw_resource("cpu", 100.0, scperf::orsim_sw_cost_table());
    est.map("worker", cpu);

    // Short horizon: pulse instants are drawn across it, and the simulated
    // run itself only lasts a few microseconds — a long horizon would place
    // every pulse after the workload finished.
    scfault::ScenarioConfig cfg;
    cfg.horizon = Time::us(10);
    cfg.pulses.push_back({"cpu", 4, 150.0, 500.0});
    scfault::FaultScenario scenario(cfg, seed);
    scfault::FaultInjector inj(sim, est, scenario);

    constexpr int kItems = 16;
    const Time deadline = Time::us(4);
    sctrace::CampaignRunResult r;
    r.deadline_total = kItems;
    Time last;
    sim.spawn("worker", [&] {
      for (int i = 0; i < kItems; ++i) {
        const Time t0 = minisc::now();
        // Annotated work sized by the ISS checksum; wait jitter by the ISS
        // cycle count — any block-cache-induced divergence lands in the CSV.
        const int shape = static_cast<int>(
            (static_cast<std::uint64_t>(sum) + static_cast<unsigned>(i)) % 3);
        scperf::gint acc(scperf::detail::RawTag{}, 0);
        for (int k = 0; k < 30 + 15 * shape; ++k) acc = acc + k * 3;
        minisc::wait(Time::ns(100.0 + static_cast<double>(iss_cycles % 256)));
        last = minisc::now();
        if (last - t0 > deadline) ++r.deadline_missed;
      }
    });
    sim.run(Time::ms(2));
    r.makespan = last;
    r.faults_injected = inj.pulses_injected();
    r.energy_pj = est.total_energy_pj();
    r.fault_energy_pj = est.fault_energy_pj();
    return r;
  };
}

struct CampaignArtifacts {
  std::string csv;
  std::string report;
  std::uint64_t faults = 0;
};

CampaignArtifacts run_campaign(BcMode mode, std::size_t threads) {
  set_bc_mode(mode);
  sctrace::FaultCampaign campaign(make_iss_campaign_run());
  sctrace::CampaignOptions opts;
  opts.threads = threads;
  campaign.run(/*base_seed=*/11, /*n=*/10, opts);
  unsetenv("ORSIM_BLOCK_CACHE");
  unsetenv("ORSIM_BLOCK_CACHE_VALIDATE");
  CampaignArtifacts a;
  std::ostringstream os;
  campaign.write_csv(os);
  a.csv = os.str();
  os.str("");
  campaign.report().print(os);
  a.report = os.str();
  for (const auto& r : campaign.results()) a.faults += r.faults_injected;
  return a;
}

void gate_campaign() {
  std::printf(
      "-- gate: fault-injected ISS campaign, threads in {seq, 1, 8} --\n");
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    const CampaignArtifacts off = run_campaign(BcMode::kOff, threads);
    const CampaignArtifacts on = run_campaign(BcMode::kOn, threads);
    const std::string label = "threads=" + std::to_string(threads);
    check(on.csv == off.csv && on.report == off.report,
          label + ": campaign CSV/report byte-identical");
    check(on.faults > 0, label + ": faults actually injected");
  }
}

// ---- gate 4: engagement and soundness bypasses --------------------------

/// Memory-touching kernel: the inner loop loads/stores through r16, so its
/// blocks carry has_mem and must never take the fast path when a d-cache
/// timing model is live.
constexpr const char* kMemAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
loop:
  sflti r13, 200
  bnf  done
  sw   r13, 0(r16)
  lw   r14, 0(r16)
  add  r11, r11, r14
  addi r13, r13, 1
  j    loop
done:
  ret
)";

void gate_engagement() {
  std::printf("-- gate: block-cache engagement and bypasses --\n");

  {  // Engagement: persistent machine, repeated replay, hits dominate.
    iss::Machine m;
    m.load_program(iss::assemble(kGateAsm));
    m.set_reg(3, 200);
    for (int rep = 0; rep < 4; ++rep) m.call("kernel");
    const iss::BlockCacheStats st = m.block_cache_stats();
    check(st.hits > 0, "replayed run: cache engaged (hits > 0)");
    check(st.replayed_instructions > 0, "replayed run: instructions skipped");
  }

  {  // D$ bypass: identical cycles with the cache on and off, and the
     // memory blocks counted as bypassed rather than memoized.
    iss::Machine on, off;
    iss::BlockCacheConfig c_off;
    c_off.enabled = false;
    off.set_block_cache_config(c_off);
    for (iss::Machine* m : {&on, &off}) {
      m->enable_icache({64, 16, 20});
      m->enable_dcache({64, 16, 20});
      m->load_program(iss::assemble(kMemAsm));
      m->set_reg(16, 4096);
      for (int rep = 0; rep < 3; ++rep) m->call("kernel");
    }
    check(on.stats().cycles == off.stats().cycles,
          "d-cache model: cycles identical with cache on/off");
    check(on.block_cache_stats().bypassed > 0,
          "d-cache model: memory blocks bypassed");
  }

  {  // Tracing bypass: the ring must see every instruction, so the cache
     // must not engage at all while tracing is enabled.
    iss::Machine m;
    m.enable_trace(16);
    m.load_program(iss::assemble(kGateAsm));
    m.set_reg(3, 50);
    m.call("kernel");
    check(!m.block_cache_stats().engaged(),
          "tracing enabled: cache fully bypassed");
  }

  {  // Validate mode: conventional charging cross-checked against the
     // memoized entries; a clean program must never throw, and the
     // cross-checks must actually execute.
    iss::Machine m;
    iss::BlockCacheConfig cfg;
    cfg.validate = true;
    m.set_block_cache_config(cfg);
    m.enable_icache({64, 16, 20});
    m.load_program(iss::assemble(kGateAsm));
    m.set_reg(3, 120);
    bool threw = false;
    std::uint64_t validated = 0;
    try {
      for (int rep = 0; rep < 4; ++rep) m.call("kernel");
      validated = m.block_cache_stats().validated;
    } catch (const std::logic_error&) {
      threw = true;
    }
    check(!threw, "validate mode: no divergence on a sound cache");
    check(validated > 0, "validate mode: cross-checks executed");
    check(m.block_cache_stats().hits == 0,
          "validate mode: fast path never taken");
  }
}

int run_verify() {
  gate_table1();
  gate_vocoder();
  gate_campaign();
  gate_engagement();
  std::printf("%s (%d failure%s)\n",
              g_failures == 0 ? "EQUIVALENCE OK" : "EQUIVALENCE BROKEN",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

// ---- speedup gate -------------------------------------------------------

double time_replay(iss::Machine& m, int reps, long& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) sink += m.call("kernel");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run_speedup_gate() {
  std::printf(
      "-- speedup: block cost cache vs conventional ISS charging --\n");
  long sink = 0;
  double worst = 1e9;
  for (const bool with_ic : {false, true}) {
    iss::Machine on, off;
    iss::BlockCacheConfig c_off;
    c_off.enabled = false;
    off.set_block_cache_config(c_off);
    for (iss::Machine* m : {&on, &off}) {
      if (with_ic) m->enable_icache({64, 16, 20});
      m->load_program(iss::assemble(kGateAsm));
      m->set_reg(3, 200);
    }
    // Warm both (assembler pages, cache build), then measure medians.
    time_replay(on, 5, sink);
    time_replay(off, 5, sink);
    std::vector<double> r_on, r_off;
    for (int rep = 0; rep < 5; ++rep) {
      r_on.push_back(time_replay(on, 60, sink));
      r_off.push_back(time_replay(off, 60, sink));
    }
    std::sort(r_on.begin(), r_on.end());
    std::sort(r_off.begin(), r_off.end());
    const double speedup = r_off[r_off.size() / 2] / r_on[r_on.size() / 2];
    worst = std::min(worst, speedup);
    const iss::BlockCacheStats st = on.block_cache_stats();
    std::printf(
        "  %-10s speedup %.2fx  (hits %llu, replayed %llu instrs, cycles "
        "on/off %llu/%llu)\n",
        with_ic ? "icache:" : "plain:", speedup,
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.replayed_instructions),
        static_cast<unsigned long long>(on.stats().cycles),
        static_cast<unsigned long long>(off.stats().cycles));
    check(on.stats().cycles == off.stats().cycles,
          "cycle counts identical while timing");
    check(st.hits > 0, "speedup run actually hit the cache");
  }
  std::printf("  worst-case replay speedup: %.2fx (gate: >= 1.5x)\n", worst);
  check(worst >= 1.5, "ISS-backed replay speedup >= 1.5x");
  if (sink == 0) std::printf("  (sink %ld)\n", sink);
  return g_failures == 0 ? 0 : 1;
}

void print_help(const char* argv0) {
  std::printf(
      "usage: %s [--verify | --speedup | --help]\n"
      "\n"
      "  (default)  Ablation D: cache-induced estimation error table\n"
      "  --verify   block-cache byte-identity + soundness gates\n"
      "             (table1/vocoder/fault-campaign x cache off/on/validate\n"
      "             x threads {seq,1,8}); exits non-zero on divergence\n"
      "  --speedup  persistent-machine ISS replay speedup, gate >= 1.5x\n"
      "\n"
      "environment: ORSIM_BLOCK_CACHE=0 disables the block cost cache,\n"
      "             ORSIM_BLOCK_CACHE_VALIDATE=1 charges conventionally and\n"
      "             cross-checks every memoized block (throws on mismatch)\n",
      argv0);
}

// ---- default mode: the Ablation D table ---------------------------------

int run_ablation_table() {
  std::printf("Ablation: ISS cache model vs cache-less library calibration\n");
  std::printf("(I$ and D$: 64 lines x 16 B, 20-cycle miss penalty)\n\n");
  std::printf("%-12s | %12s %12s %9s | %8s %8s | %10s %10s\n", "Benchmark",
              "ISS (cyc)", "ISS+$ (cyc)", "slowdown", "I$ hit%", "D$ hit%",
              "err no-$", "err with-$");
  std::printf("-------------+--------------------------------------+--------"
              "-----------+----------------------\n");

  for (const auto& b : workloads::table1_suite()) {
    const workloads::IssResult base = b.iss();
    workloads::IssCacheConfig cfg;
    cfg.enable_icache = true;
    cfg.enable_dcache = true;
    const workloads::IssResult cached = b.iss_cached(cfg);

    // Library estimate (independent of any cache model).
    scperf::CostTable table = scperf::orsim_sw_cost_table();
    scperf::SegmentAccum accum;
    accum.table = &table;
    scperf::tl_accum = &accum;
    (void)b.annotated();
    scperf::tl_accum = nullptr;

    const double err_base =
        100.0 * (accum.sum_cycles - static_cast<double>(base.cycles)) /
        static_cast<double>(base.cycles);
    const double err_cached =
        100.0 * (accum.sum_cycles - static_cast<double>(cached.cycles)) /
        static_cast<double>(cached.cycles);
    std::printf(
        "%-12s | %12llu %12llu %8.2fx | %7.1f%% %7.1f%% | %+9.2f%% %+9.2f%%\n",
        b.name.c_str(), static_cast<unsigned long long>(base.cycles),
        static_cast<unsigned long long>(cached.cycles),
        static_cast<double>(cached.cycles) / static_cast<double>(base.cycles),
        cached.icache_hit_rate * 100.0, cached.dcache_hit_rate * 100.0,
        err_base, err_cached);
  }
  std::printf(
      "\nThe with-cache error is systematically more negative: the library's\n"
      "single per-operation weights cannot see misses, which is the paper's\n"
      "motivation for confidence intervals (SegmentStats::ci95_halfwidth).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) return run_verify();
    if (std::strcmp(argv[i], "--speedup") == 0) return run_speedup_gate();
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_help(argv[0]);
      return 0;
    }
  }
  return run_ablation_table();
}
