#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/cost_table.hpp"
#include "core/dfg.hpp"
#include "core/op.hpp"

namespace scperf {

/// Provenance stamp carried by every annotated value.
///
/// `ready` is the value's completion time in cycles relative to the start of
/// the segment that produced it (the online critical-path computation for the
/// paper's HW best case); `node` is its producer in the recorded DFG. Both
/// are only meaningful while `epoch` matches the active segment's epoch —
/// values surviving across a segment boundary are inputs of the new segment
/// (ready = 0, node = external).
struct Stamp {
  std::uint64_t epoch = 0;
  double ready = 0.0;
  std::uint32_t node = 0;
};

/// Per-segment accounting: everything the overloaded operators write into.
///
/// - sum_cycles: plain sum of per-op costs. This is the SW segment time and
///   the HW worst case (single-ALU sequential execution, §3).
/// - max_ready: the running DAG critical path. This is the HW best case
///   ("critical path of the sequence of operations", §3).
/// - dfg: optional operation graph for the behavioural-synthesis substitute.
namespace detail {
/// Forwards to Simulator::probe_wall_clock() (defined in estimator.cpp so
/// this header stays free of the kernel include): converts an unbounded
/// compute segment into a kWallClockBudget SimError instead of a hang.
void annotation_watchdog_probe();
}  // namespace detail

struct SegmentAccum {
  const CostTable* table = nullptr;
  bool track_ready = false;  ///< HW resources propagate value ready-times
  bool record_dfg = false;   ///< HW resources may also record the DFG

  double sum_cycles = 0.0;
  double max_ready = 0.0;
  std::uint64_t op_count = 0;
  std::array<std::uint64_t, kNumOps> op_histogram{};
  /// Cumulative cycles charged by fault injection (pulse glitches) — like
  /// op_histogram this survives reset(): it feeds the process's energy
  /// figure, not any single segment's time.
  double fault_cycles = 0.0;
  std::uint64_t epoch = 1;
  Dfg dfg;

  /// Starts a fresh segment; bumping the epoch invalidates every stamp
  /// produced by earlier segments without touching the values themselves.
  void reset() {
    sum_cycles = 0.0;
    max_ready = 0.0;
    op_count = 0;
    ++epoch;
    dfg.nodes.clear();
  }

  double charge(Op op) {
    const double lat = (*table)[op];
    sum_cycles += lat;
    ++op_count;
    ++op_histogram[static_cast<std::size_t>(op)];
    // A segment that never reaches a node never passes through the
    // scheduler, so the kernel's wall-clock watchdog would sleep through an
    // in-segment hang; probe it from here, amortised to every 4096 charges
    // (op_count resets per segment — only long segments ever probe).
    if ((op_count & 0xFFFu) == 0u) detail::annotation_watchdog_probe();
    return lat;
  }
};

/// The accumulator of the process currently executing, switched by the
/// estimator at every scheduler dispatch; nullptr when the running process is
/// unmapped or no estimator is installed. Annotated operators are no-ops in
/// the nullptr case — this is what keeps the library "completely transparent
/// for the user" at near-zero cost when estimation is off.
extern thread_local SegmentAccum* tl_accum;

namespace detail {

inline double ready_of(const SegmentAccum& acc, const Stamp& s) {
  return s.epoch == acc.epoch ? s.ready : 0.0;
}
inline std::uint32_t node_of(const SegmentAccum& acc, const Stamp& s) {
  return s.epoch == acc.epoch ? s.node : 0u;
}

/// Charges a binary operation and computes the result's stamp.
inline void charge_binary(Op op, const Stamp& a, const Stamp& b, Stamp& out) {
  SegmentAccum* acc = tl_accum;
  if (acc == nullptr) return;
  const double lat = acc->charge(op);
  if (!acc->track_ready) return;
  out.epoch = acc->epoch;
  out.ready = std::max(ready_of(*acc, a), ready_of(*acc, b)) + lat;
  acc->max_ready = std::max(acc->max_ready, out.ready);
  if (acc->record_dfg) {
    acc->dfg.nodes.push_back({op, node_of(*acc, a), node_of(*acc, b)});
    out.node = static_cast<std::uint32_t>(acc->dfg.nodes.size());
  }
}

/// Charges a unary operation (including assignment, where `a` is the source).
inline void charge_unary(Op op, const Stamp& a, Stamp& out) {
  charge_binary(op, a, Stamp{}, out);
}

/// Charges an operation with no tracked result (branch conditions, indexing):
/// contributes to the running sums and the critical path but produces no
/// stamped value.
inline void charge_effect(Op op, const Stamp& a) {
  Stamp discard;
  charge_binary(op, a, Stamp{}, discard);
}

}  // namespace detail
}  // namespace scperf
