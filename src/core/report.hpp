#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace scperf {

/// Statistics of one process-graph segment, identified by its entry and exit
/// nodes ("Its initial and final statements identify each segment", §2).
/// Keeps enough moments for the confidence-interval extension (ref [17]).
struct SegmentStats {
  std::string from;
  std::string to;
  std::uint64_t count = 0;
  double cycles_sum = 0.0;
  double cycles_sq_sum = 0.0;
  double cycles_min = 0.0;
  double cycles_max = 0.0;
  // HW resources: the two extreme implementation points (§3).
  double bc_cycles_sum = 0.0;  ///< critical path (best case)
  double wc_cycles_sum = 0.0;  ///< single-ALU sequential (worst case)

  double mean() const { return count ? cycles_sum / count : 0.0; }
  double variance() const;
  /// Half-width of the 95% confidence interval of the mean.
  double ci95_halfwidth() const;

  std::string id() const { return from + "->" + to; }
};

/// Aggregated estimation results ("Total execution times for processes and
/// resources are generated automatically", §4).
struct Report {
  struct ProcessRow {
    std::string process;
    std::string resource;
    double total_cycles = 0.0;
    minisc::Time total_time;          ///< estimated computation time
    std::uint64_t segments_executed = 0;
    std::uint64_t ops_executed = 0;
    /// Estimated energy in picojoules (0 when the resource carries no
    /// energy table).
    double energy_pj = 0.0;
  };

  struct ResourceRow {
    std::string resource;
    std::string kind;
    minisc::Time busy;
    minisc::Time rtos;
    double utilization = 0.0;  ///< (busy + rtos) / sim_time
  };

  struct SegmentRow {
    std::string process;
    SegmentStats stats;
  };

  /// Always empty; kept only because perfbench reads these rows.
  struct CacheRow {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypassed = 0;
    std::uint64_t replayed_ops = 0;
    std::uint64_t kernel_hits = 0;
  };

  minisc::Time sim_time;
  std::vector<ProcessRow> processes;
  std::vector<ResourceRow> resources;
  std::vector<SegmentRow> segments;
  std::vector<CacheRow> cache;

  /// Human-readable summary tables.
  void print(std::ostream& os) const;
  /// Machine-readable per-segment dump for post-processing.
  void write_csv(std::ostream& os) const;
  /// Per-process totals (cycles, time, ops, energy) as CSV.
  void write_process_csv(std::ostream& os) const;
  /// Per-resource occupation (busy, rtos, utilisation) as CSV.
  void write_resource_csv(std::ostream& os) const;
  /// Writes nothing; kept only because perfbench's tests call it.
  void write_cache_csv(std::ostream&) const {}
};

}  // namespace scperf
