#include "fault/injector.hpp"

#include <algorithm>

#include "core/context.hpp"
#include "core/resource.hpp"

namespace scfault {

FaultInjector::FaultInjector(minisc::Simulator& sim, scperf::Estimator& est,
                             const FaultScenario& scenario)
    : sim_(sim), est_(est), scenario_(scenario),
      consumed_(scenario.pulses().size(), false) {
  inner_ = sim_.hook();
  sim_.set_hook(this);
  spawn_drivers();
}

FaultInjector::~FaultInjector() {
  if (sim_.hook() == this) sim_.set_hook(inner_);
}

void FaultInjector::spawn_drivers() {
  // HW and ENV outage windows are fully determined at t = 0: register them
  // as resource downtime up front (the estimator stretches HW segments over
  // the windows; node_reached stalls ENV processes inside one). Only SW
  // outages need a driver, because their effect rides the busy_until claim
  // protocol. Either way the lockup cycles are charged as fault energy.
  bool any_sw = false;
  for (const Outage& o : scenario_.outages()) {
    scperf::Resource* r = est_.find_resource(o.resource);
    if (r == nullptr) continue;  // unknown target: no effect
    if (r->kind() == scperf::ResourceKind::kSw) {
      any_sw = true;
      continue;
    }
    r->add_downtime(o.start, o.start + o.length);
    r->add_fault_cycles(o.length.to_ns_d() / r->period_ns());
    ++outages_applied_;
  }
  if (any_sw) {
    sim_.spawn("fault.outages", [this] {
      for (const Outage& o : scenario_.outages()) {
        const minisc::Time t = sim_.now();
        if (o.start > t) sim_.raw_wait(o.start - t);
        auto* sw = dynamic_cast<scperf::SwResource*>(
            est_.find_resource(o.resource));
        if (sw == nullptr) continue;  // HW/ENV: already registered above
        // Claims require busy_until <= now, so pinning it to the window end
        // stalls every occupation issued inside the window. An occupation
        // already running keeps its own (earlier) raw_wait and finishes, but
        // its successor on the same processor waits out the outage too.
        const minisc::Time end = o.start + o.length;
        if (sw->busy_until() < end) sw->set_busy_until(end);
        sw->add_fault_cycles(o.length.to_ns_d() / sw->period_ns());
        ++outages_applied_;
      }
    });
  }
  if (!scenario_.crashes().empty()) {
    sim_.spawn("fault.crashes", [this] {
      for (const CrashSpec& c : scenario_.crashes()) {
        const minisc::Time t = sim_.now();
        if (c.at > t) sim_.raw_wait(c.at - t);
        minisc::Process* victim = sim_.find_process(c.process);
        if (victim == nullptr || victim->terminated()) continue;
        if (c.restart_after == minisc::Time::max()) {
          sim_.kill(*victim);
        } else {
          sim_.kill_and_restart(*victim, c.restart_after);
        }
        ++crashes_applied_;
      }
    });
  }
}

void FaultInjector::drain_pulses(const scperf::Resource& r) {
  // Pulses are sorted; everything due at or before `now` targeting the
  // resource this process runs on is charged into the segment the estimator
  // is about to close. Due pulses for OTHER resources stay pending until one
  // of their own processes reaches a node — a pulse hits the first segment
  // boundary on its resource after the fault instant.
  if (next_pulse_ >= scenario_.pulses().size()) return;
  scperf::SegmentAccum* acc = scperf::tl_accum;
  if (acc == nullptr) return;
  const minisc::Time now = sim_.now();
  const auto& pulses = scenario_.pulses();
  // next_pulse_ skips the fully-consumed prefix; within the due window we
  // scan for matches so cross-resource ordering cannot starve a pulse whose
  // resource's processes reach their nodes later than another resource's.
  for (std::size_t i = next_pulse_; i < pulses.size(); ++i) {
    const Pulse& pulse = pulses[i];
    if (pulse.at > now) break;
    if (consumed_[i] || pulse.resource != r.name()) continue;
    // Charging both the sequential sum and the critical path stretches a HW
    // segment's [Tmin, Tmax] interval by the full pulse, so the estimate
    // T = Tmin + (Tmax - Tmin) * k grows by extra_cycles for every k.
    acc->sum_cycles += pulse.extra_cycles;
    if (acc->track_ready) acc->max_ready += pulse.extra_cycles;
    acc->fault_cycles += pulse.extra_cycles;
    consumed_[i] = true;
    ++pulses_injected_;
    extra_cycles_injected_ += pulse.extra_cycles;
  }
  while (next_pulse_ < pulses.size() && consumed_[next_pulse_]) ++next_pulse_;
}

void FaultInjector::apply_env_faults(scperf::Resource& env) {
  // Environment components are untimed, so there is no segment to charge:
  // a due pulse becomes a direct stall of its cycle cost at the ENV clock,
  // and an open outage window parks the process until the window closes —
  // the testbench goes quiet exactly while its resource is down.
  const auto& pulses = scenario_.pulses();
  minisc::Time stall;
  const minisc::Time now = sim_.now();
  for (std::size_t i = next_pulse_; i < pulses.size(); ++i) {
    const Pulse& pulse = pulses[i];
    if (pulse.at > now) break;
    if (consumed_[i] || pulse.resource != env.name()) continue;
    stall += env.cycles_to_time(pulse.extra_cycles);
    env.add_fault_cycles(pulse.extra_cycles);
    consumed_[i] = true;
    ++pulses_injected_;
    extra_cycles_injected_ += pulse.extra_cycles;
  }
  while (next_pulse_ < pulses.size() && consumed_[next_pulse_]) ++next_pulse_;
  const minisc::Time outage_end = env.downtime_stall_end(now);
  if (outage_end > now) {
    env.add_stalled(outage_end - now);
    stall += outage_end - now;
  }
  if (!stall.is_zero()) sim_.raw_wait(stall);
}

void FaultInjector::process_started(minisc::Process& p) {
  if (inner_ != nullptr) inner_->process_started(p);
}

void FaultInjector::process_finished(minisc::Process& p) {
  if (inner_ != nullptr) inner_->process_finished(p);
}

void FaultInjector::process_resumed(minisc::Process& p) {
  if (inner_ != nullptr) inner_->process_resumed(p);
}

scperf::Resource* FaultInjector::resource_of(const minisc::Process& p) {
  if (p.id() >= resource_of_.size()) resource_of_.resize(p.id() + 1);
  auto& slot = resource_of_[p.id()];
  if (!slot.has_value()) slot = est_.mapped_resource(p.name());
  return *slot;
}

void FaultInjector::node_reached(minisc::Process& p, minisc::NodeKind kind,
                                 const char* label) {
  if (scperf::Resource* r = resource_of(p)) {
    if (r->kind() == scperf::ResourceKind::kEnv) {
      apply_env_faults(*r);
    } else {
      drain_pulses(*r);
    }
  }
  if (inner_ != nullptr) inner_->node_reached(p, kind, label);
}

void FaultInjector::node_done(minisc::Process& p, minisc::NodeKind kind,
                              const char* label) {
  if (inner_ != nullptr) inner_->node_done(p, kind, label);
}

}  // namespace scfault
