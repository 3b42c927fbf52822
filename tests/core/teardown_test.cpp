// Teardown in declaration order: `Simulator sim; Estimator est(sim);`
// destroys the estimator (and its resources) first, then the simulator
// unwinds every process still suspended inside a segment. The unwinding must
// not touch the destroyed resources.

#include <gtest/gtest.h>

#include "core/scperf.hpp"
#include "fault/injector.hpp"

namespace scperf {
namespace {

using minisc::Time;

constexpr double kMhz = 100.0;  // 10 ns per cycle

CostTable add_only_table() {
  CostTable t;
  t.set(Op::kAdd, 1.0);
  return t;
}

void burn_adds(int n) {
  gint a(detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    gint r = a + 1;
    (void)r;
  }
}

/// Counts the process bodies that were unwound.
struct Unwind {
  int& n;
  ~Unwind() { ++n; }
};

/// Two processes, 10 us of work each, on one CPU. Run for 5 us, so one of
/// them occupies the CPU and the other is still suspended waiting for it
/// (non-preemptive) or preempted (preemptive, the second has the higher
/// priority and arrives at 1 us).
void spawn_contenders(minisc::Simulator& sim, Estimator& est,
                      SwResource& cpu, int& unwound) {
  est.map("a", cpu, 1.0);
  est.map("b", cpu, 2.0);
  for (const char* name : {"a", "b"}) {
    sim.spawn(name, [&unwound, name] {
      Unwind u{unwound};
      if (name[0] == 'b') minisc::wait(Time::us(1));
      burn_adds(1000);
      minisc::wait(Time::zero());
    });
  }
}

TEST(EstimatorTeardown, WaitingSegmentUnwindsAfterTheEstimatorIsGone) {
  int unwound = 0;
  {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
    spawn_contenders(sim, est, cpu, unwound);
    EXPECT_EQ(sim.run(Time::us(5)), minisc::StopReason::kTimeLimit);
    EXPECT_EQ(cpu.waiting(), 1u);
  }
  EXPECT_EQ(unwound, 2);
}

TEST(EstimatorTeardown, PreemptedJobUnwindsAfterTheEstimatorIsGone) {
  int unwound = 0;
  {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& cpu = est.add_sw_resource(
        "cpu", kMhz, add_only_table(),
        {.policy = SchedulingPolicy::kPriority, .preemptive = true});
    spawn_contenders(sim, est, cpu, unwound);
    EXPECT_EQ(sim.run(Time::us(5)), minisc::StopReason::kTimeLimit);
    EXPECT_EQ(cpu.preempt_switches(), 2u);  // a dispatched, then b preempts
  }
  EXPECT_EQ(unwound, 2);
}

TEST(EstimatorTeardown, FaultInjectorOnTopUnwindsCleanly) {
  // The documented order with fault injection: Simulator, Estimator,
  // FaultInjector. Its outage and crash drivers are suspended too.
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(4);
  cfg.outages.push_back({"cpu", 1, Time::us(1), Time::us(2)});
  cfg.crashes.push_back({"a", Time::us(8), Time::us(1)});
  const scfault::FaultScenario scenario(cfg, 7);
  for (const bool preemptive : {false, true}) {
    int unwound = 0;
    {
      minisc::Simulator sim;
      Estimator est(sim);
      auto& cpu = est.add_sw_resource(
          "cpu", kMhz, add_only_table(),
          {.policy = SchedulingPolicy::kPriority, .preemptive = preemptive});
      spawn_contenders(sim, est, cpu, unwound);
      scfault::FaultInjector inj(sim, est, scenario);
      EXPECT_EQ(sim.run(Time::us(5)), minisc::StopReason::kTimeLimit);
    }
    EXPECT_EQ(unwound, 2) << (preemptive ? "preemptive" : "non-preemptive");
  }
}

}  // namespace
}  // namespace scperf
