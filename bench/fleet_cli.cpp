#include "fleet_cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "kernel/error.hpp"
#include "trace/shard.hpp"

namespace fleet_cli {
namespace {

bool parse_slot(const char* flag, const char* arg, Slot* slot) {
  if (std::sscanf(arg, "%zu/%zu", &slot->index, &slot->count) != 2 ||
      slot->count == 0 || slot->index >= slot->count) {
    std::printf("bad %s '%s' (want i/N with i < N)\n", flag, arg);
    return false;
  }
  slot->given = true;
  return true;
}

std::string prefix(const Campaign& c) {
  return c.label.empty() ? "  " : "  [" + c.label + "] ";
}

void print_progress(const std::string& who, const Slot& slot,
                    const sctrace::ShardProgress& p) {
  std::printf(
      "%sworker %zu/%zu: %zu shards run, adopted %zu, stole %zu, %zu runs "
      "executed, %zu lease conflicts, %zu shards lost, %zu abandoned, %zu "
      "quarantined, campaign %s\n",
      who.c_str(), slot.index, slot.count, p.shards_run, p.shards_adopted,
      p.shards_stolen, p.runs_executed, p.lease_conflicts, p.shards_lost,
      p.shards_abandoned, p.shards_quarantined,
      p.campaign_complete ? "complete"
                          : (p.fleet_done ? "done (degraded)" : "incomplete"));
}

sctrace::ShardOptions shard_options(const Flags& f, const Slot& slot,
                                    const std::string& dir) {
  sctrace::ShardOptions so;
  so.dir = dir;
  so.shard_index = slot.index;
  so.shard_count = slot.count;
  so.lease_ttl_ms = f.lease_ttl_ms;
  so.max_adoptions = f.max_adoptions;
  so.steal_after_ms = f.steal_after_ms;
  return so;
}

/// Prints the status of the fleet in `dir`; true once it is done.
bool print_status(const std::string& dir, std::uint64_t lease_ttl_ms) {
  try {
    const sctrace::FleetStatus st = sctrace::fleet_status(dir, lease_ttl_ms);
    std::ostringstream os;
    sctrace::print_fleet_status(os, st);
    std::fputs(os.str().c_str(), stdout);
    return st.fleet_done();
  } catch (const minisc::SimError& e) {
    std::printf("  %s\n", e.what());
    return false;
  }
}

void work(const Flags& f, const Campaign& c) {
  sctrace::ShardOptions so = shard_options(f, f.shard, c.dir);
  std::uint64_t base_seed = c.base_seed;
  std::size_t runs = c.runs;
  if (!f.shard.given) {
    // Elastic: the manifest pinned by the first explicit worker carries
    // the layout, and the worker follows it across a live --repartition.
    const sctrace::FleetManifest m = sctrace::read_fleet_manifest(c.dir);
    base_seed = m.base_seed;
    runs = m.runs;
    so.shard_count = 0;
  }
  print_progress(prefix(c), f.shard,
                 sctrace::run_sharded_campaign(c.fn, base_seed, runs, so,
                                               c.opts));
}

int merge(const Flags& f, const Campaign& c) {
  sctrace::MergeOptions mo;
  mo.allow_partial = f.allow_partial;
  const sctrace::MergedFleet merged = sctrace::merge_fleet(c.dir, mo);
  const sctrace::MergedCell& cell = merged.cells.at(0);
  const std::string who = prefix(c);
  std::printf("%smerged %zu shards: %zu runs, base seed %llu\n", who.c_str(),
              merged.manifest.shard_count, merged.manifest.runs,
              static_cast<unsigned long long>(merged.manifest.base_seed));
  if (!merged.complete) {
    std::printf(
        "%sDEGRADED merge: %zu of %zu runs recorded (%zu missing, %zu shards "
        "without journals, %zu quarantined)\n",
        who.c_str(), cell.records, cell.runs, cell.runs - cell.records,
        cell.missing_shards.size(), cell.quarantined.size());
    for (const sctrace::QuarantinedUnit& q : cell.quarantined) {
      std::printf("%squarantined %s: %llu adoptions, last owner '%s'%s%s\n",
                  who.c_str(), q.name.c_str(),
                  static_cast<unsigned long long>(q.info.adoptions),
                  q.info.owner.c_str(),
                  q.info.error.empty() ? "" : ", error: ",
                  q.info.error.c_str());
    }
  }
  sctrace::FaultCampaign campaign(cell.results);
  if (cell.decision) {
    campaign.set_smc_verdict(cell.decision->spec, cell.decision->verdict);
  }
  c.emit(campaign);
  // 3 = degraded-but-emitted, distinct from both success and refusal, so
  // scripts can tell "publishable" from "salvaged" without parsing output.
  return merged.complete ? 0 : 3;
}

void repartition(const Flags& f, const Campaign& c) {
  const std::string who = prefix(c);
  try {
    sctrace::read_fleet_manifest(c.dir);
  } catch (const minisc::SimError& e) {
    if (e.kind() != minisc::SimError::Kind::kMergeIncomplete) throw;
    // Nothing to migrate: the fleet's first worker pins the new layout.
    std::printf("%sno fleet pinned yet — skipped\n", who.c_str());
    return;
  }
  const sctrace::RepartitionResult r =
      sctrace::repartition_fleet(c.dir, f.repartition, f.lease_ttl_ms);
  std::printf(
      "%srepartitioned %zu -> %zu shards: %zu records migrated into %zu "
      "journals, %zu old files removed (%zu stale leases, %zu quarantines "
      "dropped)\n",
      who.c_str(), r.old_count, r.new_count, r.migrated_records,
      r.journals_written, r.old_files_removed, r.stale_leases_removed,
      r.dropped_quarantines);
}

}  // namespace

int parse(int argc, char** argv, int* i, Flags* f, bool sweep) {
  const char* flag = argv[*i];
  const bool has_value = *i + 1 < argc;
  const auto is = [flag](const char* name) {
    return std::strcmp(flag, name) == 0;
  };
  const auto number = [&] { return std::strtoull(argv[++*i], nullptr, 10); };
  if (is("--merge")) {
    f->merge = true;
  } else if (is("--allow-partial")) {
    f->allow_partial = true;
  } else if (!has_value) {
    return 0;
  } else if (is("--shard") || (sweep && is("--sweep-shard"))) {
    if (!parse_slot(flag, argv[++*i], is("--shard") ? &f->shard : &f->sweep)) {
      return -1;
    }
  } else if (is("--shard-dir")) {
    f->dir = argv[++*i];
    f->dir_given = true;
  } else if (is("--lease-ttl-ms")) {
    f->lease_ttl_ms = number();
  } else if (is("--max-adoptions")) {
    f->max_adoptions = number();
  } else if (is("--steal")) {
    f->steal_after_ms = number();
  } else if (is("--repartition")) {
    f->repartition = static_cast<std::size_t>(number());
    if (f->repartition == 0) {
      std::printf("bad --repartition '%s' (want a shard count > 0)\n",
                  argv[*i]);
      return -1;
    }
  } else {
    return 0;
  }
  return 1;
}

void print_help(bool sweep) {
  std::printf(
      "Fleet options:\n"
      "  --shard i/N        run as campaign-fleet worker i of N (the first\n"
      "                     worker pins the layout in fleet.manifest)\n"
      "  --shard-dir DIR    campaign fleet directory; given ALONE it runs an\n"
      "                     elastic worker following the manifest's layout\n"
      "  --merge            fold the fleet's journals into the report/CSV an\n"
      "                     uninterrupted run writes, byte-identically\n"
      "  --allow-partial    with a merge: emit DEGRADED output (exit 3)\n"
      "  --repartition N    re-tile the campaign fleet's completed records\n"
      "                     into N shards (refused while a lease is live)\n"
      "  --lease-ttl-ms MS  lease staleness threshold (default 10000)\n"
      "  --max-adoptions K  quarantine a unit after K adoptions (default 3)\n"
      "  --steal MS         split a live unit stalled for MS ms once the\n"
      "                     claim pass is drained, and run its tail (0 = off)\n"
      "%s",
      sweep ? "  --sweep-shard i/N  run as a sweep-fleet worker: every\n"
              "                     mapping x scenario grid cell is one unit\n"
            : "");
}

int run_campaigns(const Flags& f, bool status,
                  const std::vector<Campaign>& fleets) {
  if (status) {
    // Pure observation: stat+read of the fleet directories, no leases.
    bool all_done = true;
    for (const Campaign& c : fleets) {
      if (!c.label.empty()) std::printf("== %s fleet ==\n", c.label.c_str());
      all_done = print_status(c.dir, f.lease_ttl_ms) && all_done;
    }
    return all_done ? 0 : 1;
  }
  const bool worker = f.shard.given || f.dir_given;
  if (!f.merge && f.repartition == 0 && !worker) return -1;
  const char* mode = f.merge ? "MERGE" : f.repartition ? "REPARTITION"
                                                       : "WORKER";
  if (!f.merge && f.repartition == 0) {
    // Worker mode skips the benches' determinism gates: the merged output
    // is itself the gate — it must cmp-equal the uninterrupted run.
    const std::string who =
        f.shard.given ? "shard worker " + std::to_string(f.shard.index) + "/" +
                            std::to_string(f.shard.count) + " over " +
                            std::to_string(fleets.at(0).runs) + " runs"
                      : "elastic shard worker (manifest layout)";
    const std::string steal =
        f.steal_after_ms == 0
            ? ""
            : ", steal after " + std::to_string(f.steal_after_ms) + " ms";
    std::printf("%s, dir %s, TTL %llu ms%s\n", who.c_str(), f.dir.c_str(),
                static_cast<unsigned long long>(f.lease_ttl_ms),
                steal.c_str());
  }
  try {
    int rc = 0;
    for (const Campaign& c : fleets) {
      if (f.merge) {
        rc = std::max(rc, merge(f, c));
      } else if (f.repartition != 0) {
        repartition(f, c);
      } else {
        work(f, c);
      }
    }
    return rc;
  } catch (const minisc::SimError& e) {
    std::printf("%s REFUSED: %s\n", mode, e.what());
    return 1;
  }
}

int run_sweep(const Flags& f, bool merge, bool status, const Sweep& s) {
  if (status) return print_status(s.dir, f.lease_ttl_ms) ? 0 : 1;
  if (!merge && !f.sweep.given) return -1;
  try {
    if (merge) {
      sctrace::MergeOptions mo;
      mo.allow_partial = f.allow_partial;
      const sctrace::MergedFleet merged = sctrace::merge_fleet(s.dir, mo);
      std::printf("merged sweep: %zu of %zu cells complete\n",
                  merged.complete_cells(), merged.cells.size());
      std::ostringstream grid;
      merged.print(grid);
      std::fputs(grid.str().c_str(), stdout);
      std::ofstream csv(s.csv_path);
      merged.write_csv(csv);
      std::printf("  per-cell rows -> %s\n", s.csv_path.c_str());
      return merged.complete ? 0 : 3;
    }
    std::printf("sweep worker %zu/%zu over %zux%zu cells x %zu runs, dir %s\n",
                f.sweep.index, f.sweep.count, s.mappings.size(),
                s.scenarios.size(), s.runs, s.dir.c_str());
    print_progress("sweep ", f.sweep,
                   sctrace::run_sharded_sweep(
                       s.mappings, s.scenarios, s.factory, s.base_seed, s.runs,
                       shard_options(f, f.sweep, s.dir), s.opts));
    return 0;
  } catch (const minisc::SimError& e) {
    std::printf("%s REFUSED: %s\n", merge ? "MERGE" : "WORKER", e.what());
    return 1;
  }
}

}  // namespace fleet_cli
