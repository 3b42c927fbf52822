#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/scperf.hpp"

namespace scperf {
namespace {

constexpr double kMhz = 100.0;
minisc::Time cyc(double c) { return minisc::Time::from_ns(c * 10.0); }

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

/// Releases three processes simultaneously at t = 0 on one CPU and records
/// the order in which their segments complete.
std::vector<std::string> completion_order(SwResource::Options opts,
                                          double prio_a, double prio_b,
                                          double prio_c) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(), opts);
  est.map("a", cpu, prio_a);
  est.map("b", cpu, prio_b);
  est.map("c", cpu, prio_c);
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    sim.spawn(name, [&order, name] {
      burn_adds(50);
      minisc::wait(minisc::Time::zero());
      order.push_back(name);
    });
  }
  sim.run();
  return order;
}

TEST(Scheduling, FifoServesInArrivalOrder) {
  // All three reach their node in spawn order within the same delta.
  const auto order =
      completion_order({.policy = SchedulingPolicy::kFifo}, 0, 0, 0);
  const std::vector<std::string> want{"a", "b", "c"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, PriorityOverridesArrivalOrder) {
  const auto order = completion_order(
      {.policy = SchedulingPolicy::kPriority}, /*a=*/1.0, /*b=*/3.0,
      /*c=*/2.0);
  const std::vector<std::string> want{"b", "c", "a"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, EqualPrioritiesFallBackToArrival) {
  const auto order = completion_order(
      {.policy = SchedulingPolicy::kPriority}, 5.0, 5.0, 5.0);
  const std::vector<std::string> want{"a", "b", "c"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, PriorityDoesNotPreemptRunningSegment) {
  // A low-priority segment that already occupies the CPU completes before a
  // later-arriving high-priority one (non-preemptive, §4 granularity).
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource(
      "cpu", kMhz, add_only_table(),
      {.policy = SchedulingPolicy::kPriority});
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  minisc::Time low_end, high_end;
  sim.spawn("low", [&] {
    burn_adds(100);
    minisc::wait(minisc::Time::zero());
    low_end = minisc::now();
  });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));  // arrives while low occupies [0,1000)
    burn_adds(100);
    minisc::wait(minisc::Time::zero());
    high_end = minisc::now();
  });
  sim.run();
  EXPECT_EQ(low_end, cyc(100));
  EXPECT_EQ(high_end, cyc(200));  // runs right after low completes
}

TEST(Scheduling, MakespanIndependentOfPolicyWhenLoadIsSerial) {
  // Policy changes ordering, not total work: same makespan either way.
  const auto run = [](SchedulingPolicy p) {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& cpu =
        est.add_sw_resource("cpu", kMhz, add_only_table(), {.policy = p});
    est.map("a", cpu, 1.0);
    est.map("b", cpu, 2.0);
    sim.spawn("a", [] { burn_adds(70); });
    sim.spawn("b", [] { burn_adds(30); });
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run(SchedulingPolicy::kFifo), run(SchedulingPolicy::kPriority));
  EXPECT_EQ(run(SchedulingPolicy::kFifo), cyc(100));
}

TEST(Scheduling, ContentionSetBookkeeping) {
  // The waiting set holds exactly the registered, not yet granted segments.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  {.policy = SchedulingPolicy::kPriority});
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 5.0);
  for (const char* name : {"low", "high"}) {
    sim.spawn(name, [] {
      burn_adds(100);
      minisc::wait(minisc::Time::zero());
    });
  }
  std::vector<std::size_t> seen;
  sim.spawn("probe", [&] {  // unmapped: observes without contending
    seen.push_back(cpu.waiting());  // both registered, none granted yet
    minisc::wait(minisc::Time::ns(500));
    seen.push_back(cpu.waiting());  // high occupies [0, 1000), low waits
    minisc::wait(minisc::Time::ns(1000));
    seen.push_back(cpu.waiting());  // low occupies [1000, 2000)
  });
  sim.run();
  const std::vector<std::size_t> want{2, 1, 0};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(cpu.waiting(), 0u);
  EXPECT_EQ(cpu.dispatch_count(), 2u);
  EXPECT_EQ(sim.now(), cyc(200));
}

// ---- resource-granted occupation ----
//
// The expected instants below are the ones the earlier polling
// implementation (zero-time wait, busy_until poll, re-check per delta)
// produced for the same models; the grant protocol must reproduce them.

TEST(Scheduling, EachSegmentCostsOneResume) {
  // Two producers on one FIFO CPU, each writing three tokens after 100
  // cycles of work: FIFO alternation a [0,1) b [1,2) a [2,3) b [3,4)
  // a [4,5) b [5,6) us.
  minisc::Fifo<int> fa("fa", 3), fb("fb", 3);
  minisc::Simulator sim;
  sim.enable_exec_trace(true);
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  std::vector<minisc::Time> done_a, done_b;
  const auto producer = [](minisc::Fifo<int>& f, std::vector<minisc::Time>& done) {
    return [&f, &done] {
      for (int i = 0; i < 3; ++i) {
        burn_adds(100);
        f.write(i);  // one node: the segment closes, then the write
        done.push_back(minisc::now());
      }
    };
  };
  est.map("a", cpu);
  est.map("b", cpu);
  sim.spawn("a", producer(fa, done_a));
  sim.spawn("b", producer(fb, done_b));
  sim.run();
  const std::vector<minisc::Time> want_a{cyc(100), cyc(300), cyc(500)};
  const std::vector<minisc::Time> want_b{cyc(200), cyc(400), cyc(600)};
  EXPECT_EQ(done_a, want_a);
  EXPECT_EQ(done_b, want_b);
  // Two initial dispatches plus one wake per segment (the exit segments
  // are empty and occupy nothing).
  EXPECT_EQ(sim.exec_trace().size(), 2u + 6u);
}

TEST(Scheduling, OutageDefersTheGrantWhileTwoContendersWait) {
  // "a" occupies [0, 1 us); "b" and "c" arrive at 200 ns and wait. At 500 ns
  // an SW outage pins busy_until to 3 us, as scfault's outage driver does:
  // the occupation in flight completes, the waiters are granted from 3 us
  // on, in arrival order.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  std::vector<std::pair<std::string, minisc::Time>> done;
  for (const char* name : {"a", "b", "c"}) {
    est.map(name, cpu);
    sim.spawn(name, [&done, name] {
      if (name[0] != 'a') minisc::wait(minisc::Time::ns(200));
      burn_adds(100);
      minisc::wait(minisc::Time::zero());
      done.emplace_back(name, minisc::now());
    });
  }
  sim.spawn("outage", [&cpu] {
    minisc::wait(minisc::Time::ns(500));
    cpu.set_busy_until(minisc::Time::us(3));
  });
  sim.run();
  const std::vector<std::pair<std::string, minisc::Time>> want{
      {"a", minisc::Time::us(1)},
      {"b", minisc::Time::us(4)},
      {"c", minisc::Time::us(5)}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(cpu.dispatch_count(), 3u);
  EXPECT_EQ(cpu.busy_time(), minisc::Time::us(3));
}

TEST(Scheduling, CrashedWaiterLeavesAndCrashedGranteeKeepsItsOccupation) {
  // "a" occupies [0, 1 us); "b" and "c" wait from t = 0. "b" is killed while
  // waiting (500 ns): it leaves the set and is never granted. "c" is granted
  // at 1 us and killed at 1.5 us: its occupation [1, 2 us) stands, so "d",
  // arriving at 1.6 us, is granted only at 2 us.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  std::vector<std::pair<std::string, minisc::Time>> done;
  std::vector<minisc::Process*> procs;
  for (const char* name : {"a", "b", "c", "d"}) {
    est.map(name, cpu);
    procs.push_back(&sim.spawn(name, [&done, name] {
      if (name[0] == 'd') minisc::wait(minisc::Time::ns(1600));
      burn_adds(100);
      minisc::wait(minisc::Time::zero());
      done.emplace_back(name, minisc::now());
    }));
  }
  sim.spawn("crashes", [&sim, &procs] {
    minisc::wait(minisc::Time::ns(500));
    sim.kill(*procs[1]);
    minisc::wait(minisc::Time::ns(1000));
    sim.kill(*procs[2]);
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  const std::vector<std::pair<std::string, minisc::Time>> want{
      {"a", minisc::Time::us(1)}, {"d", minisc::Time::us(3)}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(cpu.dispatch_count(), 3u);  // a, c, d
  EXPECT_EQ(cpu.busy_time(), minisc::Time::us(3));
  EXPECT_EQ(sim.now(), minisc::Time::us(3));
}

TEST(Scheduling, WaiterKilledAtTheGrantInstantIsPassedOver) {
  // "a" occupies [0, 1 us); "b" and "c" wait. "b" is killed at exactly 1 us,
  // before the grant is made at that instant: "c" gets the processor at
  // 1 us and "b" is never booked.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  std::vector<std::pair<std::string, minisc::Time>> done;
  std::vector<minisc::Process*> procs;
  for (const char* name : {"a", "b", "c"}) {
    est.map(name, cpu);
    procs.push_back(&sim.spawn(name, [&done, name] {
      burn_adds(100);
      minisc::wait(minisc::Time::zero());
      done.emplace_back(name, minisc::now());
    }));
  }
  sim.spawn("crash", [&sim, &procs] {
    minisc::wait(minisc::Time::us(1));
    sim.kill(*procs[1]);
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  const std::vector<std::pair<std::string, minisc::Time>> want{
      {"a", minisc::Time::us(1)}, {"c", minisc::Time::us(2)}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(cpu.dispatch_count(), 2u);
  EXPECT_EQ(cpu.busy_time(), minisc::Time::us(2));
}

TEST(Scheduling, PolicyNamesRender) {
  EXPECT_STREQ(to_string(SchedulingPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(SchedulingPolicy::kPriority), "priority");
}

}  // namespace
}  // namespace scperf
