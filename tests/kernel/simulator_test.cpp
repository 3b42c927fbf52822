#include "kernel/simulator.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace minisc {
namespace {

TEST(Simulator, EmptyRunFinishesAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Simulator, SingleProcessRunsToCompletion) {
  Simulator sim;
  bool ran = false;
  sim.spawn("p", [&] { ran = true; });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(ran);
}

TEST(Simulator, TimedWaitAdvancesTime) {
  Simulator sim;
  Time seen;
  sim.spawn("p", [&] {
    wait(Time::ns(25));
    seen = now();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(seen, Time::ns(25));
  EXPECT_EQ(sim.now(), Time::ns(25));
}

TEST(Simulator, SequentialWaitsAccumulate) {
  Simulator sim;
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    wait(Time::us(1));
    wait(Time::ns(5));
  });
  sim.run();
  EXPECT_EQ(sim.now(), Time::ns(1015));
}

TEST(Simulator, TwoProcessesInterleaveByTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.spawn("a", [&] {
    wait(Time::ns(10));
    order.push_back("a@10");
    wait(Time::ns(20));
    order.push_back("a@30");
  });
  sim.spawn("b", [&] {
    wait(Time::ns(15));
    order.push_back("b@15");
  });
  sim.run();
  const std::vector<std::string> want{"a@10", "b@15", "a@30"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, SameInstantWakesFifoOrder) {
  Simulator sim;
  std::vector<std::string> order;
  for (const char* n : {"p0", "p1", "p2"}) {
    sim.spawn(n, [&order, n] {
      wait(Time::ns(10));
      order.push_back(n);
    });
  }
  sim.run();
  const std::vector<std::string> want{"p0", "p1", "p2"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, TimeLimitStopsRun) {
  Simulator sim;
  int laps = 0;
  sim.spawn("p", [&] {
    while (true) {
      wait(Time::ns(10));
      ++laps;
    }
  });
  EXPECT_EQ(sim.run(Time::ns(55)), StopReason::kTimeLimit);
  EXPECT_EQ(laps, 5);
  EXPECT_EQ(sim.now(), Time::ns(55));
}

TEST(Simulator, RunCanContinueAfterTimeLimit) {
  Simulator sim;
  int laps = 0;
  sim.spawn("p", [&] {
    while (true) {
      wait(Time::ns(10));
      ++laps;
    }
  });
  sim.run(Time::ns(35));
  EXPECT_EQ(laps, 3);
  EXPECT_EQ(sim.run(Time::ns(100)), StopReason::kTimeLimit);
  EXPECT_EQ(laps, 10);
}

TEST(Simulator, StopRequestHonoured) {
  Simulator sim;
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    Simulator::current().stop();
    wait(Time::ns(10));  // never completes within this run
  });
  EXPECT_EQ(sim.run(), StopReason::kStopped);
  EXPECT_EQ(sim.now(), Time::ns(10));
}

TEST(Simulator, EventImmediateNotifyWakesWaiter) {
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn("notifier", [&] {
    wait(Time::ns(5));
    ev.notify();
  });
  sim.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.now(), Time::ns(5));
}

TEST(Simulator, EventTimedNotify) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("notifier", [&] { ev.notify(Time::ns(42)); });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(42));
}

TEST(Simulator, EarlierTimedNotifyOverridesLater) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  int wakes = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
    ++wakes;
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(100));
    ev.notify(Time::ns(30));  // earlier: replaces the pending one
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(30));
  EXPECT_EQ(wakes, 1);
}

TEST(Simulator, LaterTimedNotifyIsDiscarded) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(30));
    ev.notify(Time::ns(100));  // later: ignored
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(30));
}

TEST(Simulator, CancelPreventsNotification) {
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(30));
    wait(Time::ns(10));
    ev.cancel();
  });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_FALSE(woke);
}

TEST(Simulator, DeltaNotifyWakesInSameInstant) {
  Simulator sim;
  Event ev("ev");
  Time woke_at = Time::max();
  std::uint64_t delta_at_wake = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
    delta_at_wake = Simulator::current().delta_count();
  });
  sim.spawn("notifier", [&] { ev.notify_delta(); });
  sim.run();
  EXPECT_EQ(woke_at, Time::zero());
  EXPECT_GE(delta_at_wake, 1u);  // woken in a later delta, same instant
}

TEST(Simulator, WaitWithTimeoutEventFirst) {
  Simulator sim;
  Event ev("ev");
  bool got_event = false;
  sim.spawn("waiter", [&] { got_event = wait(ev, Time::ns(100)); });
  sim.spawn("notifier", [&] {
    wait(Time::ns(20));
    ev.notify();
  });
  sim.run();
  EXPECT_TRUE(got_event);
  EXPECT_EQ(sim.now(), Time::ns(20));
}

TEST(Simulator, WaitWithTimeoutExpires) {
  Simulator sim;
  Event ev("ev");
  bool got_event = true;
  sim.spawn("waiter", [&] { got_event = wait(ev, Time::ns(100)); });
  sim.run();
  EXPECT_FALSE(got_event);
  EXPECT_EQ(sim.now(), Time::ns(100));
}

TEST(Simulator, DeadlockDetected) {
  Simulator sim;
  Event never("never");
  sim.spawn("stuck", [&] { wait(never); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  const auto blocked = sim.blocked_process_names();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0], "stuck");
}

TEST(Simulator, DeadlockAmongSeveralReportsAll) {
  Simulator sim;
  Event never("never");
  sim.spawn("a", [&] { wait(never); });
  sim.spawn("b", [&] { wait(never); });
  sim.spawn("done", [] {});
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_EQ(sim.blocked_process_names().size(), 2u);
}

TEST(Simulator, DynamicSpawnFromProcess) {
  Simulator sim;
  std::vector<std::string> order;
  sim.spawn("parent", [&] {
    order.push_back("parent");
    Simulator::current().spawn("child", [&] {
      order.push_back("child");
      wait(Time::ns(5));
      order.push_back("child@5");
    });
    wait(Time::ns(1));
    order.push_back("parent@1");
  });
  sim.run();
  const std::vector<std::string> want{"parent", "child", "parent@1",
                                      "child@5"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, ProcessExceptionPropagatesToRun) {
  Simulator sim;
  sim.spawn("boom", [] { throw std::runtime_error("bang"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, TeardownUnwindsBlockedProcessStacks) {
  // A blocked process holds an RAII object on its coroutine stack; simulator
  // destruction must run its destructor via stack unwinding.
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Simulator sim;
    Event never("never");
    sim.spawn("holder", [&] {
      Sentinel s{&destroyed};
      wait(never);
    });
    sim.run();  // deadlock; process still holds the sentinel
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Simulator, OnlyOneSimulatorPerThread) {
  Simulator sim;
  EXPECT_THROW(Simulator second, std::logic_error);
}

TEST(Simulator, CurrentReflectsLiveSimulator) {
  EXPECT_EQ(Simulator::current_or_null(), nullptr);
  {
    Simulator sim;
    EXPECT_EQ(Simulator::current_or_null(), &sim);
    EXPECT_EQ(&Simulator::current(), &sim);
  }
  EXPECT_EQ(Simulator::current_or_null(), nullptr);
}

TEST(Simulator, ExecTraceRecordsResumes) {
  Simulator sim;
  sim.enable_exec_trace(true);
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    wait(Time::ns(10));
  });
  sim.run();
  const auto& trace = sim.exec_trace();
  ASSERT_EQ(trace.size(), 3u);  // initial resume + two wake-ups
  EXPECT_EQ(trace[0].time, Time::zero());
  EXPECT_EQ(trace[1].time, Time::ns(10));
  EXPECT_EQ(trace[2].time, Time::ns(20));
  EXPECT_EQ(trace[2].process, "p");
}

TEST(Simulator, ZeroWaitBehavesLikeDeltaWait) {
  Simulator sim;
  int step = 0;
  sim.spawn("p", [&] {
    wait(Time::zero());
    step = 1;
  });
  sim.run();
  EXPECT_EQ(step, 1);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Simulator, ManyProcessesManyWaits) {
  Simulator sim;
  constexpr int kProcs = 50;
  constexpr int kLaps = 100;
  int total = 0;
  for (int i = 0; i < kProcs; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    sim.spawn(name, [&, i] {
      for (int lap = 0; lap < kLaps; ++lap) {
        wait(Time::ns(static_cast<std::uint64_t>(1 + i)));
        ++total;
      }
    });
  }
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(total, kProcs * kLaps);
  EXPECT_EQ(sim.now(), Time::ns(kProcs * kLaps));
}

TEST(Simulator, RenotifyAfterCancelWorks) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("driver", [&] {
    ev.notify(Time::ns(30));
    ev.cancel();
    ev.notify(Time::ns(60));  // the cancel must not kill this one
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(woke_at, Time::ns(60));
}

TEST(Simulator, ImmediateNotifyCancelsPendingTimed) {
  Simulator sim;
  Event ev("ev");
  int wakes = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    ++wakes;
    // A second wait must NOT be satisfied by the stale timed notification.
    const bool fired = wait(ev, Time::ns(500));
    EXPECT_FALSE(fired);
  });
  sim.spawn("driver", [&] {
    ev.notify(Time::ns(100));
    ev.notify();  // immediate: fires now and cancels the timed one
  });
  sim.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Simulator, NotifyWithNoWaitersIsLost) {
  // SystemC semantics: events are not latched.
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("driver", [&] { ev.notify(); });
  sim.spawn("late_waiter", [&] {
    wait(Time::ns(10));
    wait(ev);  // the earlier notification is gone
    woke = true;
  });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_FALSE(woke);
}

TEST(Simulator, TwoWaitersBothWoken) {
  Simulator sim;
  Event ev("ev");
  int woken = 0;
  for (const char* n : {"w1", "w2"}) {
    sim.spawn(n, [&] {
      wait(ev);
      ++woken;
    });
  }
  sim.spawn("driver", [&] {
    wait(Time::ns(5));
    ev.notify();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(woken, 2);
}

// Hook instrumentation: verify node callbacks fire around timed waits.
class RecordingHook : public KernelHook {
 public:
  std::vector<std::string> log;

  void process_started(Process& p) override {
    log.push_back("start:" + p.name());
  }
  void process_finished(Process& p) override {
    log.push_back("finish:" + p.name());
  }
  void node_reached(Process& p, NodeKind kind, const char* label) override {
    log.push_back("reach:" + p.name() + ":" + to_string(kind) + ":" + label);
  }
  void node_done(Process& p, NodeKind kind, const char* label) override {
    log.push_back("done:" + p.name() + ":" + to_string(kind) + ":" + label);
  }
};

TEST(Simulator, HookSeesProcessLifecycleAndTimedWaitNodes) {
  Simulator sim;
  RecordingHook hook;
  sim.set_hook(&hook);
  sim.spawn("p", [&] { wait(Time::ns(1)); });
  sim.run();
  const std::vector<std::string> want{
      "start:p", "reach:p:wait:wait", "done:p:wait:wait", "finish:p"};
  EXPECT_EQ(hook.log, want);
}

TEST(Simulator, RawWaitBypassesHooks) {
  Simulator sim;
  RecordingHook hook;
  sim.set_hook(&hook);
  sim.spawn("p", [&] { Simulator::current().raw_wait(Time::ns(1)); });
  sim.run();
  const std::vector<std::string> want{"start:p", "finish:p"};
  EXPECT_EQ(hook.log, want);
}

// Whether an addition rounds upward right now, in double arithmetic (SSE on
// x86-64: MXCSR) and long double arithmetic (x87: its control word). Below
// half an ulp of 1.0 in every format, so round-to-nearest gives exactly 1.
bool double_rounds_up() {
  volatile double one = 1.0, tiny = 0x1p-120;
  return one + tiny != one;
}
bool long_double_rounds_up() {
  volatile long double one = 1.0L, tiny = 0x1p-120L;
  return one + tiny != one;
}

// ---- kernel timer callbacks and parked processes ----

/// Appends `tag` to a log each time the kernel runs it.
struct LogCall final : TimerCallback {
  LogCall(std::vector<std::string>& log, std::string tag)
      : log(log), tag(std::move(tag)) {}
  void on_timer() override { log.push_back(tag); }
  std::vector<std::string>& log;
  std::string tag;
};

TEST(Simulator, ZeroDelayCallRunsOnceTheInstantQuiesces) {
  Simulator sim;
  std::vector<std::string> log;
  LogCall call(log, "call");
  Event ev("ev");
  std::uint64_t armed_at_delta = 0;
  sim.spawn("a", [&] {
    wait(Time::ns(10));
    log.push_back("a");
    wait(Time::zero());  // issued before the call is armed
    log.push_back("a woke");
  });
  sim.spawn("b", [&] {
    wait(Time::ns(10));
    sim.call_at(now(), call);
    armed_at_delta = sim.delta_count();
    for (int i = 0; i < 3; ++i) {  // three more delta cycles at 10 ns
      ev.notify_delta();
      wait(ev);
      log.push_back("delta");
    }
  });
  sim.run();
  const std::vector<std::string> want{"a",     "delta",  "delta",
                                      "delta", "a woke", "call"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.now(), Time::ns(10));
  EXPECT_GT(sim.delta_count(), armed_at_delta + 3);
}

TEST(Simulator, CancelledCallNeverFiresNorAdvancesTime) {
  Simulator sim;
  std::vector<std::string> log;
  LogCall late(log, "late"), second(log, "second");
  // Cancels `victim` from inside a call due at the same instant: both
  // entries have fired, so the cancel must catch the queued one.
  struct CancelOther final : TimerCallback {
    void on_timer() override { sim->cancel_call(victim); }
    Simulator* sim = nullptr;
    std::uint64_t victim = 0;
  } first;
  first.sim = &sim;
  sim.spawn("p", [&] {
    const std::uint64_t id = sim.call_at(now() + Time::ns(50), late);
    wait(Time::ns(10));
    sim.cancel_call(id);
    sim.call_at(now(), first);
    first.victim = sim.call_at(now(), second);
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.now(), Time::ns(10));  // the cancelled 50 ns entry is skipped
}

TEST(Simulator, KilledParkedProcessUnwindsAndItsWakeIsIgnored) {
  Simulator sim;
  int unwound = 0;
  int woke = 0;
  struct Unwind {
    int& n;
    ~Unwind() { ++n; }
  };
  Process& parked = sim.spawn("parked", [&] {
    Unwind u{unwound};
    sim.park("gate");
    ++woke;
  });
  sim.spawn("control", [&] {
    wait(Time::ns(5));
    sim.wake_at(parked, Time::ns(20));
    wait(Time::ns(5));
    sim.kill_and_restart(parked, Time::ns(2));  // at 10 ns, back at 12 ns
  });
  // The 20 ns wake was meant for the first incarnation; the restarted body
  // parks again and must stay parked.
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_EQ(unwound, 1);
  EXPECT_EQ(woke, 0);
  EXPECT_EQ(parked.restart_count(), 1u);
  EXPECT_EQ(sim.now(), Time::ns(12));
}

TEST(Simulator, WakeAtResumesAParkedProcessOnce) {
  Simulator sim;
  Time woke_at = Time::max();
  Process& parked = sim.spawn("parked", [&] {
    sim.park("gate");
    woke_at = now();
  });
  sim.spawn("control", [&] {
    wait(Time::ns(5));
    sim.wake_at(parked, Time::ns(30));
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(woke_at, Time::ns(30));
}

TEST(Simulator, DiagnosticsNameWhatAParkedProcessWaitsFor) {
  Simulator sim;
  Process& parked = sim.spawn("parked", [&] { sim.park("grant cpu0"); });
  sim.spawn("control", [&] {
    wait(Time::ns(5));
    sim.wake_at(parked, Time::ns(50));
  });
  const auto blocked_on = [&sim] {
    for (const ProcessDiagnostic& d : sim.process_diagnostics()) {
      if (d.name != "parked") continue;
      std::string s = d.state;
      s += ": ";
      s += d.blocked_on;
      return s;
    }
    return std::string("not live");
  };
  EXPECT_EQ(sim.run(Time::ns(2)), StopReason::kTimeLimit);
  EXPECT_EQ(blocked_on(), "waiting: grant cpu0");
  EXPECT_EQ(sim.run(Time::ns(10)), StopReason::kTimeLimit);
  std::string want = "waiting: grant cpu0 (wake @ ";
  want += Time::ns(50).str();
  want += ')';
  EXPECT_EQ(blocked_on(), want);
}

TEST(Simulator, FloatingPointControlStateIsPerProcess) {
  // The rounding mode belongs to the process that set it: other processes
  // and the kernel keep their own, and the setter finds its mode again when
  // it resumes.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Simulator sim;
  int other_mode = -1, resumed_mode = -1;
  bool other_double_up = true, other_long_up = true;
  bool resumed_double_up = false, resumed_long_up = false;
  sim.spawn("upward", [&] {
    std::fesetround(FE_UPWARD);
    wait(Time::ns(10));
    resumed_mode = std::fegetround();
    resumed_double_up = double_rounds_up();
    resumed_long_up = long_double_rounds_up();
  });
  sim.spawn("other", [&] {
    wait(Time::ns(5));
    other_mode = std::fegetround();
    other_double_up = double_rounds_up();
    other_long_up = long_double_rounds_up();
  });
  EXPECT_EQ(sim.run(Time::ns(7)), StopReason::kTimeLimit);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(double_rounds_up());
  EXPECT_FALSE(long_double_rounds_up());
  EXPECT_EQ(sim.run(), StopReason::kFinished);

  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_FALSE(other_double_up);
  EXPECT_FALSE(other_long_up);
  EXPECT_EQ(resumed_mode, FE_UPWARD);
  EXPECT_TRUE(resumed_double_up);
  EXPECT_TRUE(resumed_long_up);
  // The process finished in FE_UPWARD; its last switch back restored ours.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(double_rounds_up());
  EXPECT_FALSE(long_double_rounds_up());
  std::fesetround(FE_TONEAREST);  // never leak a mode into later tests
}

}  // namespace
}  // namespace minisc
