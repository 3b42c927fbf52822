#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/campaign.hpp"

/// The fleet command line of the fault benches: parsing and help for the
/// shared fleet flags, and the worker / merge / status / repartition
/// runners with their printouts. CI gates grep these printouts ("adopted N",
/// "stole N", "N shards lost", "campaign complete", "repartitioned A -> B",
/// "no fleet pinned yet", "quarantined", "fleet done"), so every bench
/// prints them the same way.
namespace fleet_cli {

/// A worker slot "i/N" (--shard, --sweep-shard).
struct Slot {
  bool given = false;
  std::size_t index = 0;
  std::size_t count = 1;
};

struct Flags {
  Slot shard;  ///< --shard i/N: campaign-fleet worker
  Slot sweep;  ///< --sweep-shard i/N: sweep-fleet worker
  std::string dir;  ///< --shard-dir ("" until the bench sets its default)
  bool dir_given = false;
  bool merge = false;          ///< --merge
  bool allow_partial = false;  ///< --allow-partial
  std::uint64_t lease_ttl_ms = 10000;
  std::uint64_t max_adoptions = 3;
  std::uint64_t steal_after_ms = 0;  ///< --steal MS (0 = off)
  std::size_t repartition = 0;       ///< --repartition N (0 = off)
};

/// Consumes the fleet flag at argv[*i] and its value, leaving *i on the
/// last argument consumed. With `sweep`, --sweep-shard is a fleet flag
/// too. Returns 1 when a flag was consumed, 0 when argv[*i] is no fleet
/// flag, and -1 for a malformed value (already reported on stdout).
int parse(int argc, char** argv, int* i, Flags* f, bool sweep);

/// Prints the help lines of the fleet flags (`sweep`: --sweep-shard too).
void print_help(bool sweep);

/// One campaign fleet of a bench, in its own directory.
struct Campaign {
  std::string label;  ///< printed as "[label] " before its lines; "" = none
  std::string dir;
  sctrace::FaultCampaign::RunFn fn;
  std::uint64_t base_seed = 0;
  std::size_t runs = 0;
  /// Threads, retry and budgets, plus the tag and digest the manifest pins.
  sctrace::CampaignOptions opts;
  /// Emits the merged report and CSV through the bench's live-run code, so
  /// a complete merge is byte-identical to an uninterrupted run.
  std::function<void(const sctrace::FaultCampaign&)> emit;
};

/// Runs the campaign-fleet mode the flags select over `fleets`, in order:
///   - `status`: read-only progress of every fleet; exit 0 once all are done;
///   - --merge: fold every fleet back into its report and CSV; exit 0, or 3
///     when --allow-partial degraded a merge, or 1 on a refusal;
///   - --repartition N: migrate every pinned fleet to N shards;
///   - a worker: --shard i/N, or --shard-dir alone for an elastic worker
///     that reads the layout from each fleet's manifest.
/// Returns the exit code, or -1 when the flags select no fleet mode.
int run_campaigns(const Flags& f, bool status,
                  const std::vector<Campaign>& fleets);

/// The sweep fleet of a bench: every mapping x scenario cell is one unit.
struct Sweep {
  std::string dir;
  std::vector<std::string> mappings;
  std::vector<std::string> scenarios;
  sctrace::CampaignSweep::Factory factory;
  std::uint64_t base_seed = 0;
  std::size_t runs = 0;  ///< seeds per cell
  sctrace::CampaignOptions opts;
  std::string csv_path;  ///< where a merge writes the grid CSV
};

/// Runs the sweep-fleet mode selected by `status`, `merge` or
/// --sweep-shard, with the same exit codes as run_campaigns. Returns -1
/// when none is selected.
int run_sweep(const Flags& f, bool merge, bool status, const Sweep& sweep);

}  // namespace fleet_cli
