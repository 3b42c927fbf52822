// Workload `campaign`: one item is one seeded run of a resilient fault
// pipeline (modelled on ablation_fault_resilience's resilient design: five
// processes on two SW CPUs, lossy FaultyFifos, pulses, an outage and a
// crash/restart), driven by sctrace::FaultCampaign::run on a pool of
// min(num_cpus, 4) threads and journaled at the library's default flush
// cadence. Thousands of short simulations: construction, teardown,
// dispatch, hook calls per tiny segment, scfault, the pool and the journal
// dominate, and the replay cache is bypassed (fault-injected resources are
// memo-unsafe).

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/capture.hpp"
#include "core/scperf.hpp"
#include "fault/channels.hpp"
#include "fault/injector.hpp"
#include "trace/campaign.hpp"

namespace perfbench {

using minisc::Time;
using sctrace::CampaignRunResult;

namespace {

constexpr int kTokens = 32;
constexpr double kCpuMhz = 100.0;
constexpr int kStageCycles = 100;
constexpr auto kPeriod = Time::us(10);
constexpr auto kDeadline = Time::us(60);
constexpr auto kHorizon = Time::ms(2);
constexpr auto kStageTimeout = Time::us(30);
/// Seeds per FaultCampaign::run call.
constexpr std::size_t kBatch = 256;
/// Measured batches cycle through this many seed windows, so every batch
/// after the first cycle repeats one and must reproduce its bytes.
constexpr std::size_t kWindows = 16;

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

void burn(int n) {
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

struct Token {
  int id = 0;
  Time born;
};

scfault::ScenarioConfig fault_model() {
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(300);
  cfg.channel_faults.push_back(
      {"*", 0.05, 0.02, 0.10, Time::us(1), Time::us(5), {}});
  cfg.pulses.push_back({"cpu0", 4, 500.0, 2000.0});
  cfg.outages.push_back({"cpu0", 1, Time::us(20), Time::us(50)});
  cfg.crashes.push_back({"stage2", Time::us(120), Time::us(5)});
  return cfg;
}

}  // namespace

CampaignRunResult run_pipeline(std::uint64_t seed, bool timed) {
  std::optional<Span> phase;  // destroyed after every local below
  phase.emplace("scfault.setup");
  scfault::FaultScenario scenario(fault_model(), seed);

  phase.emplace("construct");
  minisc::Simulator sim;
  minisc::Watchdog wd;
  wd.max_deltas_per_instant = 100000;
  wd.wall_clock_ms = 30000;
  sim.set_watchdog(wd);
  std::optional<scperf::Estimator> est;
  if (timed) {
    est.emplace(sim);
    auto& cpu0 = est->add_sw_resource("cpu0", kCpuMhz, add_only_table(),
                                      {.rtos_cycles_per_switch = 20});
    auto& cpu1 = est->add_sw_resource("cpu1", kCpuMhz, add_only_table(),
                                      {.rtos_cycles_per_switch = 20});
    est->map("source", cpu0);
    est->map("stage1", cpu0);
    est->map("stage2", cpu0);
    est->map("stage3", cpu1);
    est->map("sink", cpu1);
  }

  phase.emplace("scfault.setup");
  std::optional<scfault::FaultInjector> inj;
  if (timed) inj.emplace(sim, *est, scenario);
  scfault::FaultyFifo<Token> ch0("ch0", 64), ch1("ch1", 64), ch2("ch2", 64),
      ch3("ch3", 64);
  for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) ch->attach(scenario);

  phase.emplace("construct");
  scperf::CaptureRegistry reg;
  scperf::CapturePoint delivered("delivered", reg);
  struct Arrival {
    Time born;
    Time at;
  };
  std::map<int, Arrival> arrival;
  std::vector<Time> arrival_order;
  bool source_done = false;
  phase.reset();

  sim.spawn("source", [&] {
    for (int id = 0; id < kTokens; ++id) {
      burn(kStageCycles);
      ch0.write(Token{id, minisc::now()});
      minisc::wait(kPeriod);
    }
    source_done = true;
  });
  // Loss-tolerant stages: conceal gaps by resyncing to the newest id and
  // bound every read with a timeout.
  auto stage = [&](scfault::FaultyFifo<Token>& in,
                   scfault::FaultyFifo<Token>& out) {
    return [&] {
      int expected = 0;
      while (true) {
        auto t = in.read_for(kStageTimeout);
        if (!t.has_value()) {
          if (source_done) break;
          continue;
        }
        if (t->id < expected) continue;
        expected = t->id + 1;
        burn(kStageCycles);
        out.write(*t);
      }
    };
  };
  sim.spawn("stage1", stage(ch0, ch1));
  sim.spawn("stage2", stage(ch1, ch2));
  sim.spawn("stage3", stage(ch2, ch3));
  sim.spawn("sink", [&] {
    while (true) {
      auto t = ch3.read_for(kStageTimeout);
      if (!t.has_value()) {
        if (source_done) break;
        continue;
      }
      if (arrival.emplace(t->id, Arrival{t->born, minisc::now()}).second) {
        delivered.record(t->id);
        arrival_order.push_back(minisc::now());
      }
    }
  });

  sim.run(kHorizon);

  CampaignRunResult r;
  r.seed = seed;
  r.deadline_total = kTokens;
  for (int id = 0; id < kTokens; ++id) {
    const auto it = arrival.find(id);
    if (it == arrival.end() || it->second.at > it->second.born + kDeadline) {
      ++r.deadline_missed;
    }
  }
  r.makespan = arrival_order.empty() ? kHorizon : arrival_order.back();
  for (const Time ft : scenario.fault_times()) {
    for (const Time at : arrival_order) {
      if (at > ft) {
        r.recovery_latencies_ns.push_back((at - ft).to_ns_d());
        break;
      }
    }
  }
  if (inj) {
    r.faults_injected = inj->pulses_injected() + inj->outages_applied() +
                        inj->crashes_applied();
  }
  for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) {
    r.faults_injected += ch->dropped() + ch->duplicated() + ch->delayed();
  }
  r.value_hash = reg.value_sequence_hash();
  if (tracing() && est) {
    Span s("bench.check");
    Counters& c = counters();
    c.add_report(untraced_report(*est));
    c.faults += r.faults_injected;
  }
  phase.emplace("minisc.teardown");
  return r;
}

namespace {

/// report() + write_csv() of a campaign, as bytes.
std::string campaign_bytes(const sctrace::FaultCampaign& c) {
  std::ostringstream os;
  c.report().print(os);
  c.write_csv(os);
  return os.str();
}

struct Setup {
  Calibration cal;
  std::string first_batch;  ///< sequential campaign over the first batch
};

}  // namespace

Outcome run_campaign(const Options& o) {
  Outcome out;
  const std::uint64_t base_seed = Rng(o.seed).next();
  Setup setup;
  out.setup_s = timed_setups(5, [&] {
    Setup s;
    s.cal = calibrate();
    sctrace::FaultCampaign seq(
        [](std::uint64_t seed) { return run_pipeline(seed, true); });
    seq.run(base_seed, kBatch);
    s.first_batch = campaign_bytes(seq);
    if (!setup.first_batch.empty() && s.first_batch != setup.first_batch) {
      throw std::runtime_error("campaign: set-up is not deterministic");
    }
    // The same seeds on the pool, journaled: warms the pool threads'
    // allocator arenas and checks the pooled bytes against the sequential.
    sctrace::FaultCampaign pooled(
        [](std::uint64_t seed) { return run_pipeline(seed, true); });
    sctrace::CampaignOptions opts;
    opts.threads = o.threads;
    opts.journal_path = o.out_dir + "/campaign.journal";
    pooled.run(base_seed, kBatch, opts);
    if (campaign_bytes(pooled) != s.first_batch) {
      throw std::runtime_error(
          "campaign: pooled report/CSV differ from the sequential run");
    }
    setup = std::move(s);
  });
  out.err_pct_max = setup.cal.err_pct_max;
  out.err_pct_heldout = setup.cal.err_pct_heldout;
  Digest digest;
  digest.add(setup.cal.digest);
  digest.add(setup.first_batch);
  out.digest = digest.value();

  std::vector<double> latency_ms(kBatch);  // per slot: thread CPU ms
  std::vector<double> busy_s(kBatch);       // per slot: wall seconds
  std::vector<std::string> window_bytes(kWindows);
  std::size_t batches = 0;
  std::uint64_t batch_base = 0;
  const sctrace::FaultCampaign::RunFn item = [&](std::uint64_t seed) {
    set_item(seed);
    Span span("item");
    const std::int64_t wall0 = now_ns();
    const std::int64_t cpu0 = thread_cpu_ns();
    CampaignRunResult r = run_pipeline(seed, true);
    latency_ms[seed - batch_base] = static_cast<double>(thread_cpu_ns() - cpu0) / 1e6;
    busy_s[seed - batch_base] = static_cast<double>(now_ns() - wall0) / 1e9;
    return r;
  };

  struct Phase {
    double run_wall_s = 0.0;  ///< Σ FaultCampaign::run wall × threads
    double busy_s = 0.0;      ///< Σ item wall time
    double wall_s = 0.0;      ///< Σ batch wall time, report and checks included
    std::size_t items = 0;
    double items_per_s() const { return static_cast<double>(items) / wall_s; }
  };
  // Runs batches of kBatch seeds on `threads` until `deadline`.
  const auto run_batches = [&](std::size_t threads, std::int64_t deadline) {
    Phase ph;
    sctrace::CampaignOptions opts;
    opts.threads = threads;
    opts.journal_path = o.out_dir + "/campaign.journal";
    while (now_ns() < deadline) {
      const std::size_t window = batches++ % kWindows;
      batch_base = base_seed + kBatch * (1 + window);
      sctrace::FaultCampaign c(item);
      const std::int64_t t0 = now_ns();
      {
        Span s("sctrace.campaign");
        c.run(batch_base, kBatch, opts);
      }
      const std::int64_t t1 = now_ns();
      std::string bytes;
      {
        Span s("sctrace.report");
        bytes = campaign_bytes(c);
      }
      if (window_bytes[window].empty()) window_bytes[window] = bytes;
      const bool same = bytes == window_bytes[window];
      for (const CampaignRunResult& r : c.results()) {
        const char* what = !r.completed ? "run failed"
                           : r.deadline_total != kTokens ? "deadlines lost"
                           : !same ? "report/CSV differ from the first run of the same seeds"
                                   : nullptr;
        if (what != nullptr) {
          out.checks.expect(false, "campaign seed " + std::to_string(r.seed), what);
        }
        out.checks.end_item();
      }
      out.item_ms.insert(out.item_ms.end(), latency_ms.begin(), latency_ms.end());
      out.window_ends.push_back(out.item_ms.size());
      for (const double s : busy_s) ph.busy_s += s;
      ph.run_wall_s += static_cast<double>(t1 - t0) / 1e9 * static_cast<double>(threads);
      ph.wall_s += static_cast<double>(now_ns() - t0) / 1e9;
      ph.items += kBatch;
    }
    return ph;
  };

  const std::int64_t start = now_ns();
  const auto seconds = static_cast<std::int64_t>(o.seconds * 1e9);
  set_tracing(o.trace);
  if (!o.trace) {
    // 85% of the time on the pool. The rest runs sequential pairs of the
    // timed and the untimed pipeline on one seed, for overhead_x.
    const Phase pool = run_batches(o.threads, start + seconds * 85 / 100);
    out.items_per_s = pool.items_per_s();
    std::int64_t timed_ns = 0, untimed_ns = 0;
    for (std::uint64_t seed = base_seed + kBatch * (1 + kWindows);
         now_ns() < start + seconds; ++seed) {
      const std::int64_t t0 = now_ns();
      const CampaignRunResult r = run_pipeline(seed, true);
      const std::int64_t t1 = now_ns();
      (void)run_pipeline(seed, false);
      timed_ns += t1 - t0;
      untimed_ns += now_ns() - t1;
      if (!r.completed) {
        out.checks.expect(false, "campaign seed " + std::to_string(seed), "run failed");
      }
      out.checks.end_item();
    }
    out.overhead_x = static_cast<double>(timed_ns) / static_cast<double>(untimed_ns);
  } else {
    // Half the time on the pool, half on one thread, for scaling_x.
    const Phase pool = run_batches(o.threads, start + seconds / 2);
    const Phase one = run_batches(1, start + seconds);
    out.items_per_s = pool.items_per_s();
    out.scaling_x = out.items_per_s / one.items_per_s();
    out.pool_busy_frac = pool.busy_s / pool.run_wall_s;
    out.campaign_self_s = pool.run_wall_s + one.run_wall_s - pool.busy_s - one.busy_s;
  }
  set_tracing(false);
  return out;
}

}  // namespace perfbench
