#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <list>

#include "core/cost_table.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"

namespace scperf {

/// Kinds of platform resources distinguished by the methodology (§2):
/// parallel (HW), sequential (SW), and components of the environment
/// (virtual components / testbench — not analysed).
enum class ResourceKind {
  kSw,
  kHw,
  kEnv,
};

const char* to_string(ResourceKind k);

/// A platform resource processes are mapped onto during architectural
/// mapping. Owns the per-C++-object cost table and the clock that converts
/// estimated cycles into simulated time; accumulates occupation statistics.
class Resource {
 public:
  Resource(std::string name, ResourceKind kind, double clock_mhz,
           CostTable table);
  virtual ~Resource() = default;
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  ResourceKind kind() const { return kind_; }
  double clock_mhz() const { return clock_mhz_; }
  double period_ns() const { return 1000.0 / clock_mhz_; }
  const CostTable& cost_table() const { return table_; }

  minisc::Time cycles_to_time(double cycles) const {
    return minisc::Time::from_ns(cycles * period_ns());
  }

  /// Optional per-operation energy characterisation; when set, reports
  /// include per-process and per-resource energy figures.
  void set_energy_table(const EnergyTable& t) { energy_ = t; }
  const std::optional<EnergyTable>& energy_table() const { return energy_; }

  /// Total time this resource spent executing segments.
  minisc::Time busy_time() const { return busy_time_; }
  /// Fraction of `total` the resource was busy (including RTOS time).
  double utilization(minisc::Time total) const;

  void add_busy(minisc::Time t) { busy_time_ += t; }

  // ---- downtime windows (fault injection on parallel / ENV resources) ----

  /// Registers [start, end) as resource downtime: no segment progress while
  /// a window is open. Windows may be added in any order; overlapping
  /// windows merge. SW resources use the busy_until claim mechanism instead
  /// — the estimator consults downtime only for HW back-annotation, and the
  /// fault injector for ENV node stalls.
  void add_downtime(minisc::Time start, minisc::Time end);
  const std::vector<std::pair<minisc::Time, minisc::Time>>& downtime() const {
    return downtime_;
  }
  /// End of the downtime window containing `t`, or `t` when the resource is
  /// up at `t`.
  minisc::Time downtime_stall_end(minisc::Time t) const;
  /// Completion instant of `work` uptime starting at `start`: progress
  /// pauses inside every downtime window, so the critical-path interval of
  /// a HW segment stretches by exactly the downtime it overlaps.
  minisc::Time finish_over_downtime(minisc::Time start,
                                    minisc::Time work) const;
  /// Total downtime overlapping segment executions (observability).
  minisc::Time stalled_time() const { return stalled_time_; }
  void add_stalled(minisc::Time t) { stalled_time_ += t; }

  // ---- fault energy (recovery overhead accounting) ----

  /// Energy drawn per cycle of fault activity (pulse glitch cycles, outage
  /// lockup cycles), in picojoules. Zero (the default) keeps fault cycles
  /// out of the energy books entirely.
  void set_fault_energy_per_cycle_pj(double pj) { fault_pj_per_cycle_ = pj; }
  double fault_energy_per_cycle_pj() const { return fault_pj_per_cycle_; }

  /// Fault cycles charged at resource level (outage lockups; pulse cycles
  /// are charged per process through the segment accumulators).
  void add_fault_cycles(double c) { fault_cycles_ += c; }
  double fault_cycles() const { return fault_cycles_; }
  double fault_energy_pj() const {
    return fault_cycles_ * fault_pj_per_cycle_;
  }

 private:
  std::string name_;
  ResourceKind kind_;
  double clock_mhz_;
  CostTable table_;
  std::optional<EnergyTable> energy_;
  minisc::Time busy_time_;
  minisc::Time stalled_time_;
  std::vector<std::pair<minisc::Time, minisc::Time>> downtime_;  ///< sorted
  double fault_pj_per_cycle_ = 0.0;
  double fault_cycles_ = 0.0;
};

/// How a sequential resource picks the next segment when several processes
/// compete for the processor (the paper's §1: "Deciding the most appropriate
/// scheduling policy for each processor is critical to ensure the correct
/// real-time behavior of the whole system").
enum class SchedulingPolicy {
  /// First-come first-served in segment arrival order (the paper's §4
  /// behaviour: "another process can take up the resource while it is
  /// waiting").
  kFifo,
  /// Static priorities: among the segments waiting when the processor frees,
  /// the highest-priority process runs first (non-preemptive at segment
  /// granularity, like everything in this methodology).
  kPriority,
};

const char* to_string(SchedulingPolicy p);

/// Sequential resource (a processor): segments of all mapped processes
/// serialise on it, and every channel access / wait executed by a mapped
/// process additionally pays the RTOS context-switch overhead (§4).
class SwResource final : public Resource {
 public:
  struct Options {
    /// Cycles the RTOS consumes at each node (channel access or timed wait)
    /// of a process mapped to this resource.
    double rtos_cycles_per_switch = 0.0;
    SchedulingPolicy policy = SchedulingPolicy::kFifo;
    /// With kPriority: a newly released higher-priority segment preempts the
    /// one occupying the processor (beyond the paper, which is
    /// non-preemptive at segment granularity; this models a preemptive RTOS
    /// as the §1 scheduling discussion anticipates). Ignored under kFifo.
    bool preemptive = false;
  };

  SwResource(std::string name, double clock_mhz, CostTable table)
      : SwResource(std::move(name), clock_mhz, table, Options{}) {}
  SwResource(std::string name, double clock_mhz, CostTable table,
             Options opts);

  double rtos_cycles_per_switch() const { return opts_.rtos_cycles_per_switch; }
  void set_rtos_cycles_per_switch(double c) {
    opts_.rtos_cycles_per_switch = c;
  }
  SchedulingPolicy policy() const { return opts_.policy; }

  // ---- arbitration waiting set (managed by the estimator) ----

  /// A process contending for the processor: higher `priority` wins under
  /// kPriority; `seq` breaks ties and implements kFifo order.
  struct Contender {
    double priority = 0.0;
    std::uint64_t seq = 0;
  };

  /// Registers a contender; returns its ticket.
  std::uint64_t enter_contention(double priority);
  void leave_contention(std::uint64_t ticket);
  /// True if the given ticket should claim the processor next under the
  /// configured policy.
  bool is_next(std::uint64_t ticket) const;

  // ---- preemptive-mode scheduler (Options::preemptive) ----

  bool preemptive() const {
    return opts_.preemptive && opts_.policy == SchedulingPolicy::kPriority;
  }

  /// One segment execution contending for the preemptive processor. `wake`
  /// is notified both when the job is dispatched and when it is preempted;
  /// the job distinguishes the two via `running`.
  struct PreemptJob {
    double priority = 0.0;
    std::uint64_t seq = 0;
    bool running = false;
    std::uint64_t preemptions = 0;  ///< times this job was preempted
    minisc::Event wake{"cpu.preempt"};
  };

  /// Adds a job and reschedules (possibly preempting the running one).
  PreemptJob& preempt_enter(double priority);
  /// Removes a completed job and dispatches the next one.
  void preempt_leave(PreemptJob& job);
  /// Total scheduler dispatches (context switches) in preemptive mode.
  std::uint64_t preempt_switches() const { return preempt_switches_; }

  /// Time until which the processor is already committed.
  minisc::Time busy_until() const { return busy_until_; }
  void set_busy_until(minisc::Time t) { busy_until_ = t; }

  /// Accumulated RTOS execution time (reported separately, §6: "The RTOS
  /// overload is evaluated").
  minisc::Time rtos_time() const { return rtos_time_; }
  void add_rtos(minisc::Time t) { rtos_time_ += t; }

  /// Number of segment occupations scheduled onto this processor.
  std::uint64_t dispatch_count() const { return dispatch_count_; }
  void count_dispatch() { ++dispatch_count_; }

 private:
  Options opts_;
  minisc::Time busy_until_;
  minisc::Time rtos_time_;
  std::uint64_t dispatch_count_ = 0;
  std::uint64_t next_ticket_ = 0;
  std::map<std::uint64_t, Contender> contenders_;  ///< keyed by ticket

  void preempt_reschedule();
  std::list<PreemptJob> preempt_jobs_;  ///< std::list: stable addresses
  PreemptJob* preempt_current_ = nullptr;
  std::uint64_t preempt_switches_ = 0;
};

/// Parallel resource (HW): mapped processes run concurrently; each segment's
/// time is the weighted mean T = Tmin + (Tmax - Tmin) * k between the
/// critical-path best case and the single-ALU worst case (§3, Fig. 4).
class HwResource final : public Resource {
 public:
  struct Options {
    /// Weight between best case (k = 0, performance-priority synthesis) and
    /// worst case (k = 1, cost-priority synthesis).
    double k = 0.0;
    /// Record each segment's dataflow graph for the synthesis substrate.
    bool record_dfg = false;
  };

  HwResource(std::string name, double clock_mhz, CostTable table)
      : HwResource(std::move(name), clock_mhz, table, Options{}) {}
  HwResource(std::string name, double clock_mhz, CostTable table,
             Options opts);

  double k() const { return opts_.k; }
  void set_k(double k);
  bool record_dfg() const { return opts_.record_dfg; }

 private:
  Options opts_;
};

/// Environment component (testbench, reused virtual component): mapped
/// processes are executed untimed and never analysed (§2).
class EnvResource final : public Resource {
 public:
  explicit EnvResource(std::string name);
};

}  // namespace scperf
