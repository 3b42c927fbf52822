#include "core/resource.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace scperf {

const char* to_string(ResourceKind k) {
  switch (k) {
    case ResourceKind::kSw:
      return "SW";
    case ResourceKind::kHw:
      return "HW";
    case ResourceKind::kEnv:
      return "ENV";
  }
  return "?";
}

Resource::Resource(std::string name, ResourceKind kind, double clock_mhz,
                   CostTable table)
    : name_(std::move(name)), kind_(kind), clock_mhz_(clock_mhz),
      table_(table) {
  if (kind_ != ResourceKind::kEnv && !(clock_mhz_ > 0.0)) {
    throw std::invalid_argument("scperf: resource clock must be positive");
  }
}

double Resource::utilization(minisc::Time total) const {
  if (total.is_zero()) return 0.0;
  return static_cast<double>(busy_time_.to_ps()) /
         static_cast<double>(total.to_ps());
}

void Resource::add_downtime(minisc::Time start, minisc::Time end) {
  if (end <= start) return;
  downtime_.emplace_back(start, end);
  std::sort(downtime_.begin(), downtime_.end());
  // Merge overlapping / adjacent windows so the walk in
  // finish_over_downtime never revisits an instant.
  std::vector<std::pair<minisc::Time, minisc::Time>> merged;
  for (const auto& w : downtime_) {
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  downtime_ = std::move(merged);
}

minisc::Time Resource::downtime_stall_end(minisc::Time t) const {
  for (const auto& [s, e] : downtime_) {
    if (s > t) break;
    if (t < e) return e;
  }
  return t;
}

minisc::Time Resource::finish_over_downtime(minisc::Time start,
                                            minisc::Time work) const {
  minisc::Time t = start;
  minisc::Time remaining = work;
  for (const auto& [s, e] : downtime_) {
    if (e <= t) continue;
    if (s <= t) {
      t = e;  // currently down: no progress until the window closes
      continue;
    }
    const minisc::Time uptime = s - t;
    if (uptime >= remaining) return t + remaining;
    remaining -= uptime;
    t = e;
  }
  return t + remaining;
}

const char* to_string(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kPriority:
      return "priority";
  }
  return "?";
}

SwResource::SwResource(std::string name, double clock_mhz, CostTable table,
                       Options opts)
    : Resource(std::move(name), ResourceKind::kSw, clock_mhz, table),
      opts_(opts),
      grant_label_("grant ") {
  grant_label_ += this->name();
}

SwResource::~SwResource() {
  for (Contender* c : contenders_) c->cpu = nullptr;
  for (PreemptJob* j : preempt_jobs_) j->cpu = nullptr;
  if (armed_) sim_->cancel_call(armed_call_);
}

void SwResource::occupy(double priority, minisc::Time delay,
                        minisc::Time rtos) {
  minisc::Simulator& sim = minisc::Simulator::current();
  sim_ = &sim;
  Contender c{&sim.current_process(), priority, delay, rtos, this};
  contenders_.push_back(&c);
  // Segments released later in this same instant still register before the
  // grant: a call at now() runs only once the instant quiesces.
  if (!armed_) arm(std::max(sim.now(), busy_until_));
  // A crash (or teardown) unwinds the process out of park(); if it was
  // still waiting it must leave the set, or the policy could pick a dead
  // segment and the processor would sit idle.
  struct Withdraw {
    Contender& c;
    ~Withdraw() {
      if (c.cpu != nullptr) c.cpu->withdraw(c);
    }
  } withdraw_on_unwind{c};
  sim.park(grant_label_);
}

void SwResource::arm(minisc::Time at) {
  armed_call_ = sim_->call_at(at, *this);
  armed_ = true;
}

void SwResource::withdraw(Contender& c) {
  contenders_.erase(std::find(contenders_.begin(), contenders_.end(), &c));
  c.cpu = nullptr;
  if (contenders_.empty() && armed_) {
    sim_->cancel_call(armed_call_);
    armed_ = false;
  }
}

void SwResource::on_timer() {
  armed_ = false;
  assert(!contenders_.empty());  // withdraw() cancels the call on empty
  const minisc::Time now = sim_->now();
  if (busy_until_ > now) {  // an SW outage pinned the processor meanwhile
    arm(busy_until_);
    return;
  }
  // The policy's pick among the segments registered by now: the earliest
  // arrival under kFifo; under kPriority the highest priority, earliest
  // arrival among equals. A segment whose process was killed at this
  // instant is skipped: it withdraws when it unwinds.
  auto best = contenders_.end();
  for (auto it = contenders_.begin(); it != contenders_.end(); ++it) {
    if (!(*it)->proc->parked()) continue;
    if (best == contenders_.end()) {
      best = it;
      if (opts_.policy == SchedulingPolicy::kFifo) break;
    } else if ((*it)->priority > (*best)->priority) {
      best = it;
    }
  }
  if (best == contenders_.end()) return;
  Contender& c = **best;
  contenders_.erase(best);
  c.cpu = nullptr;
  const minisc::Time total = c.delay + c.rtos;
  busy_until_ = now + total;
  add_busy(c.delay);
  add_rtos(c.rtos);
  count_dispatch();
  sim_->wake_at(*c.proc, busy_until_);
  if (!contenders_.empty()) arm(busy_until_);
}

void SwResource::preempt_enter(PreemptJob& job, double priority) {
  job.priority = priority;
  job.seq = ++next_ticket_;
  job.cpu = this;
  preempt_jobs_.push_back(&job);
  preempt_reschedule();
}

void SwResource::preempt_leave(PreemptJob& job) {
  if (preempt_current_ == &job) preempt_current_ = nullptr;
  preempt_jobs_.erase(
      std::find(preempt_jobs_.begin(), preempt_jobs_.end(), &job));
  job.cpu = nullptr;
  preempt_reschedule();
}

void SwResource::preempt_reschedule() {
  PreemptJob* best = nullptr;
  for (PreemptJob* jp : preempt_jobs_) {
    PreemptJob& j = *jp;
    if (best == nullptr) {
      best = &j;
      continue;
    }
    // Highest priority wins; among equals prefer the running job (avoid
    // thrash), then earliest arrival.
    if (j.priority > best->priority ||
        (j.priority == best->priority && j.running && !best->running) ||
        (j.priority == best->priority && j.running == best->running &&
         j.seq < best->seq)) {
      best = &j;
    }
  }
  if (best == preempt_current_) return;
  if (preempt_current_ != nullptr) {
    PreemptJob* out = preempt_current_;
    out->running = false;
    ++out->preemptions;
    out->wake.notify();  // interrupts its timed occupation
  }
  preempt_current_ = best;
  if (best != nullptr) {
    best->running = true;
    ++preempt_switches_;
    best->wake.notify();  // dispatches it
  }
}

HwResource::HwResource(std::string name, double clock_mhz, CostTable table,
                       Options opts)
    : Resource(std::move(name), ResourceKind::kHw, clock_mhz, table),
      opts_(opts) {
  set_k(opts.k);
}

void HwResource::set_k(double k) {
  if (k < 0.0 || k > 1.0) {
    throw std::invalid_argument("scperf: k must lie in [0, 1]");
  }
  opts_.k = k;
}

EnvResource::EnvResource(std::string name)
    : Resource(std::move(name), ResourceKind::kEnv, 1.0, CostTable{}) {}

}  // namespace scperf
