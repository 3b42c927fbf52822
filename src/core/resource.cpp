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
      opts_(opts) {}

std::uint64_t SwResource::enter_contention(double priority) {
  const std::uint64_t ticket = ++next_ticket_;
  contenders_[ticket] = Contender{priority, ticket};
  return ticket;
}

void SwResource::leave_contention(std::uint64_t ticket) {
  contenders_.erase(ticket);
}

bool SwResource::is_next(std::uint64_t ticket) const {
  const auto self = contenders_.find(ticket);
  assert(self != contenders_.end());
  for (const auto& [t, c] : contenders_) {
    if (t == ticket) continue;
    if (opts_.policy == SchedulingPolicy::kPriority) {
      if (c.priority > self->second.priority) return false;
      if (c.priority == self->second.priority && c.seq < self->second.seq) {
        return false;
      }
    } else {
      if (c.seq < self->second.seq) return false;  // earlier arrival wins
    }
  }
  return true;
}

SwResource::PreemptJob& SwResource::preempt_enter(double priority) {
  preempt_jobs_.emplace_back();
  PreemptJob& j = preempt_jobs_.back();
  j.priority = priority;
  j.seq = ++next_ticket_;
  preempt_reschedule();
  return j;
}

void SwResource::preempt_leave(PreemptJob& job) {
  if (preempt_current_ == &job) preempt_current_ = nullptr;
  for (auto it = preempt_jobs_.begin(); it != preempt_jobs_.end(); ++it) {
    if (&*it == &job) {
      preempt_jobs_.erase(it);
      break;
    }
  }
  preempt_reschedule();
}

void SwResource::preempt_reschedule() {
  PreemptJob* best = nullptr;
  for (PreemptJob& j : preempt_jobs_) {
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
