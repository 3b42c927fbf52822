#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace/campaign.hpp"
#include "trace/journal.hpp"

namespace sctrace {

/// Fleet-scale campaigns and sweeps over a shared journal directory.
///
/// One unit model serves every fleet. A fleet directory pins one manifest
/// (`<dir>/fleet.manifest`: base seed, runs per cell, shard count, digest,
/// tag, and the mapping x scenario grid — empty for a campaign fleet, which
/// is the one-cell case). Each cell's runs are tiled into `shard_count`
/// canonical shards (a sweep pins one shard per cell), and every work unit
/// is one `Unit{cell, run range within the cell, parent shard}`; a tail
/// stolen from a live straggler is just another unit of its shard. Every
/// unit owns one journal and one lease named by unit_stem(), and
/// fleet_units() recovers the whole partition from the manifest plus one
/// directory listing. Independent *worker processes* — different PIDs,
/// potentially different machines on a shared filesystem — claim disjoint
/// units and run them through the ordinary FaultCampaign journal machinery;
/// merge_fleet() folds every unit journal back into its cell,
/// byte-identical to the single-process FaultCampaign / CampaignSweep.
///
/// Coordination is filesystem-only, built from ONE compare-and-swap: every
/// unit's lease is a sequence of immutable generation files
/// `<unit>.lease.g<N>`, and the only lease transition is creating
/// generation N+1 with O_CREAT | O_EXCL after reading generation N. The
/// highest generation is current; its creator holds the unit. Claim, adopt,
/// quarantine, reserve, steal, record-error and release are all such bumps,
/// each carrying the lease state forward, so two racing transitions from the
/// same generation have exactly one winner and the lease never vanishes
/// between them. No lease file is ever renamed, and the highest generation
/// of a unit is never unlinked (a creator of N+1 may unlink N-1).
///
/// A held lease is heartbeaten by refreshing its generation's mtime from a
/// background thread. A worker whose heartbeat stays fresher than
/// `lease_ttl_ms` owns its unit exclusively; a worker paused for longer
/// (SIGSTOP, VM freeze) may be adopted away, and its next run raises
/// LeaseLostError instead of recording anything further. A heartbeat mtime
/// in the *future* beyond the TTL (restored snapshot, clock skew) is stale
/// too — no live worker is refreshing it either.
///
/// Self-healing: the lease carries an adoption counter; a claim that would
/// adopt a unit past `max_adoptions` instead *quarantines* it — a terminal
/// generation recording the last owner, the adoption count and the last
/// recorded SimError — so one poison seed cannot crash-loop the fleet.
/// Adoption is safe because every run is a pure function of its seed
/// (DESIGN.md §7): a survivor re-running seeds writes bit-identical records.
///
/// Elastic layout: every worker re-reads the manifest between claim passes,
/// so repartition_fleet() — which re-tiles completed records and rewrites
/// the manifest — propagates to running workers without a restart.
///
/// Straggler work stealing: the owner's lease carries a `split_at`
/// reservation watermark — the owner reserves forward (in chunks, each a
/// generation bump) before dispatching an index, so every index it will
/// ever append is < split_at. A stealer bumps the lease with the steal
/// epoch incremented and split_at pinned, then creates the journal of the
/// tail unit [split_at, end). Reservation and steal are bumps from the same
/// generation, so exactly one of them wins; the displaced owner sees the
/// newer generation before its next append and aborts. A unit whose
/// campaign engages sequential model checking (CampaignOptions::smc) is
/// never split: its decision needs the campaign's global seed order.

/// Half-open run-index range [begin, end) within one cell.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Canonical contiguous partition of [0, total_runs) into shard_count
/// chunks: the first total_runs % shard_count shards get one extra run.
/// Every participant (workers and merge) must agree on this layout; it is
/// pinned per shard in the journal header and re-derived on merge.
ShardRange shard_range(std::size_t shard, std::size_t shard_count,
                       std::size_t total_runs);

/// The identity + layout of a fleet directory, pinned in
/// `<dir>/fleet.manifest` by the first worker (first-writer-wins) and
/// authoritative from then on: later workers must agree with it, and every
/// reader of the directory derives unit names, ranges and cell identities
/// from it alone.
struct FleetManifest {
  std::uint64_t base_seed = 0;
  std::size_t runs = 0;  ///< seeds per cell (common random numbers)
  std::size_t shard_count = 0;
  std::uint64_t scenario_digest = 0;
  std::string tag;  ///< journal tag (a sweep's per-cell tag prefix)
  /// The sweep grid; both empty for a campaign fleet (one cell).
  std::vector<std::string> mappings;
  std::vector<std::string> scenarios;

  bool sweep() const { return !mappings.empty(); }
  /// Cell count: |mappings| x |scenarios| in grid order (index =
  /// mapping_index * |scenarios| + scenario_index, CampaignSweep::run's
  /// execution order), or 1 for a campaign fleet.
  std::size_t cells() const {
    return sweep() ? mappings.size() * scenarios.size() : 1;
  }
  const std::string& cell_mapping(std::size_t cell) const {
    return mappings[cell / scenarios.size()];
  }
  const std::string& cell_scenario(std::size_t cell) const {
    return scenarios[cell % scenarios.size()];
  }
  /// The journal tag of one cell — the same derivation as CampaignSweep::run
  /// for sweep cells, the fleet tag itself for a campaign fleet.
  std::string cell_tag(std::size_t cell) const;
};

/// Reads `<dir>/fleet.manifest`. Throws minisc::SimError(kMergeIncomplete)
/// when missing (no fleet ever pinned a layout here) and kJournalCorrupt
/// when malformed.
FleetManifest read_fleet_manifest(const std::string& dir);

/// One work unit: the run range [range.begin, range.end) of cell `cell`
/// (cell-local indices). `shard` is the canonical shard the unit tiles — the
/// unit itself when epoch == 0, the parent of a stolen tail otherwise.
struct Unit {
  std::size_t cell = 0;
  std::size_t shard = 0;
  ShardRange range;
  std::uint64_t epoch = 0;  ///< steal epoch that created a tail; 0 = primary
};

/// The one filename stem of a unit: `<dir>/shard_<i>_of_<N>` for a
/// campaign fleet, `<dir>/cell_<c>_of_<C>` for a sweep, plus
/// `.steal<epoch>_at<begin>` for a stolen tail. The unit's journal is
/// `<stem>.journal`; its lease generations are `<stem>.lease.g<N>`. The
/// names carry the tiling so a repartitioned fleet (same dir, different N)
/// cannot silently collide with the old layout's files.
std::string unit_stem(const std::string& dir, const FleetManifest& m,
                      const Unit& u);

/// Every unit of the fleet: the primaries of the manifest's tiling, each
/// truncated where its stolen tails begin, plus every tail, sorted by
/// (cell, shard, begin). The tails are discovered from one listing of `dir`
/// — a tail's file names encode the partition. Throws minisc::SimError
/// (kIoError) when the directory cannot be listed: a missed tail would let
/// a worker re-claim its parent's whole range.
std::vector<Unit> fleet_units(const std::string& dir, const FleetManifest& m);

/// Generation `gen` (1-based) of the lease at `stem`: "<stem>.g<gen>".
std::string lease_generation_path(const std::string& stem, std::uint64_t gen);

/// The filesystem operations the lease protocol is built from. The default
/// (posix_lease_fs) is the real filesystem and wall clock; tests substitute
/// an in-memory fake with a stepped clock to enumerate interleavings.
class LeaseFs {
 public:
  virtual ~LeaseFs() = default;
  /// Creates `path` holding `content` only if it does not exist; readers
  /// never observe it partially written. False when it already exists;
  /// throws minisc::SimError(kIoError) on real I/O failure.
  virtual bool create_exclusive(const std::string& path,
                                const std::string& content) = 0;
  /// Whole-file read; false when the file does not exist or is unreadable.
  virtual bool read(const std::string& path, std::string* out) = 0;
  /// Modification time in ms since the clock's epoch; false when absent.
  virtual bool mtime_ms(const std::string& path, std::uint64_t* out) = 0;
  /// Sets the mtime to now: 0 on success, else the errno (ENOENT = absent).
  virtual int touch(const std::string& path) = 0;
  /// Generation numbers of `stem` present on disk, in any order.
  virtual std::vector<std::uint64_t> list_generations(
      const std::string& stem) = 0;
  /// Removes `path`; absent files are ignored.
  virtual void unlink(const std::string& path) = 0;
  /// The clock that mtimes and TTLs are measured against.
  virtual std::uint64_t now_ms() = 0;
};

/// The real filesystem and the system clock.
LeaseFs& posix_lease_fs();

/// One lease generation. Every generation uses the same six-line format:
///
///   state <held | released | quarantined>
///   owner <worker id of the last holder>
///   adoptions <count>
///   epoch <steal epoch: the steal-child name counter>
///   split_at <reservation watermark, unit-local run index; 0 = none>
///   error <last recorded SimError text, single sanitized line; may be empty>
struct LeaseInfo {
  enum class State { kHeld, kReleased, kQuarantined };
  State state = State::kHeld;
  std::string owner;
  std::uint64_t adoptions = 0;
  /// Steal epoch: bumped by every committed steal, so child journal names
  /// stay unique across adoptions.
  std::uint64_t epoch = 0;
  /// Reservation watermark: the holder has promised to append only records
  /// with unit-local index < split_at, and must raise it (by a generation
  /// bump) before dispatching beyond it. A stealer claims [split_at, end).
  /// 0 = no watermark (not stealable).
  std::uint64_t split_at = 0;
  std::string error;  ///< last recorded permanent SimError ("" = none)

  // Set by read_lease_info, not part of the file content.
  std::uint64_t generation = 0;  ///< which generation this is (0 = none)
  std::uint64_t mtime_ms = 0;    ///< its heartbeat mtime
};

std::string format_lease(const LeaseInfo& info);
LeaseInfo parse_lease(const std::string& content);

/// Reads the current (highest) generation of the lease at `stem`. Returns
/// false when the lease has no generation or it cannot be read — never
/// throws; status and merge probes must not fail on a racing bump.
bool read_lease_info(const std::string& stem, LeaseInfo* out,
                     LeaseFs& fs = posix_lease_fs());

/// Thrown between runs when the heartbeat observed this worker's lease
/// taken over (the worker was paused past the TTL and a survivor adopted
/// the shard). Deliberately NOT a minisc::SimError: the campaign machinery
/// records SimErrors as failed-run data points, but a lost lease must abort
/// the shard — the adopter owns those records now.
struct LeaseLostError : std::runtime_error {
  explicit LeaseLostError(const std::string& what) : std::runtime_error(what) {}
};

/// One held shard lease: created by claim_shard_lease, heartbeaten by a
/// background thread, released (bumped to `state released`) on destruction
/// — unless the lease was observed lost, in which case the newer generation
/// belongs to its creator and is left alone, or the lease was abandon()ed,
/// in which case it is deliberately left to go stale so another worker can
/// adopt it (and the adoption counter can eventually quarantine it).
class ShardLease {
 public:
  ~ShardLease();
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  const std::string& path() const { return stem_; }
  const std::string& worker_id() const { return worker_id_; }
  /// True when this claim adopted a stale lease from a dead worker.
  bool adopted() const { return adopted_; }
  /// How many times this shard has been adopted, this claim included.
  std::uint64_t adoptions() const { return adoptions_; }
  /// The steal epoch this claim holds (carried across adoption; bumped only
  /// by a committed steal, which this worker observes as loss).
  std::uint64_t epoch() const { return epoch_; }
  /// The generation this lease created last (its current one while held).
  std::uint64_t generation() const;
  /// True once a probe saw a generation this worker did not create.
  bool lost() const { return lost_.load(std::memory_order_acquire); }
  /// Non-empty once the heartbeat failed to refresh the lease mtime: the
  /// errno text of the failed touch (EIO, ENOSPC, ...). The fleet loop
  /// surfaces it as a structured minisc::SimError(kIoError) between runs.
  std::string io_error() const;

  /// Records `error` in a new generation. The error survives adoption: each
  /// adopter carries it forward, and a quarantine records the last one.
  void record_error(const std::string& error);

  /// Raises the reservation watermark so that unit-local index `idx` may be
  /// dispatched: a no-op when idx is already reserved, otherwise a
  /// generation bump with split_at advanced to min(limit, idx rounded up to
  /// the reserve chunk). Throws LeaseLostError — and marks the lease lost —
  /// when the bump loses to another generation: a steal committed between
  /// this worker's runs, and [split_at, end) belongs to the stealer now.
  /// Thread-safe (pool workers call it concurrently).
  void reserve_through(std::size_t idx, std::size_t limit);

  /// Synchronous loss probe: throws LeaseLostError (marking the lease lost)
  /// unless this lease's generation is still current. The fleet loop
  /// installs this as the campaign's pre-append hook, so a stolen or
  /// adopted-away unit aborts *before* its next record lands on disk — the
  /// "not a single duplicate run" half of the steal contract.
  void assert_still_mine();

  /// One heartbeat: probes ownership, then refreshes the mtime of this
  /// lease's generation. Returns false once the lease is lost. The
  /// background thread runs exactly this every heartbeat interval.
  bool heartbeat();

  /// Stops the heartbeat and bumps the lease to `state released` (no-op if
  /// lost or already released). Never throws: an I/O failure is recorded
  /// in io_error() and the held generation is left to go stale.
  void release();

  /// Stops the heartbeat but leaves the held generation in place: the shard
  /// is deliberately surrendered to go stale, so any worker (this one
  /// included) can adopt it after the TTL — and the adoption counter keeps
  /// counting toward quarantine. This is how a worker walks away from a
  /// shard whose execution failed permanently without crash-looping on it.
  void abandon();

 private:
  friend std::unique_ptr<ShardLease> claim_shard_lease(
      const std::string& stem, const std::string& worker_id,
      std::uint64_t lease_ttl_ms, std::uint64_t heartbeat_ms,
      std::uint64_t max_adoptions, LeaseFs* fs);

  ShardLease(LeaseFs& fs, std::string stem, LeaseInfo info, bool adopted);
  void start_beat(std::uint64_t heartbeat_ms);
  void stop_beat();
  /// True while no generation above this lease's exists (and its own still
  /// does). Callers hold mu_.
  bool still_mine_locked() const;
  /// The lease CAS from this lease's generation; callers hold mu_.
  bool bump_locked(const LeaseInfo& next);

  LeaseFs& fs_;
  const std::string stem_;
  const std::string worker_id_;
  const bool adopted_;
  const std::uint64_t adoptions_;
  const std::uint64_t epoch_;
  std::atomic<bool> lost_{false};
  bool released_ = false;

  /// Guards gen_/info_ so that a bump (create g<gen_+1>, then advance gen_)
  /// and a probe (is there a g<gen_+1>?) never interleave within this
  /// worker — its own pool threads reserve and probe concurrently.
  mutable std::mutex mu_;
  std::uint64_t gen_ = 0;
  LeaseInfo info_;            ///< content of generation gen_
  std::size_t reserved_ = 0;  ///< unit-local indices < reserved_ may dispatch
  std::string io_error_;

  std::mutex beat_mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread beat_;
};

/// Claims the lease at `stem` for `worker_id` by bumping its current
/// generation: a fresh claim when it has none (generation 1) or was
/// released, an adopt (adoption counter incremented) when it is held but
/// its heartbeat mtime is outside the TTL window — older than
/// `lease_ttl_ms`, or more than `lease_ttl_ms` in the future (clock skew:
/// nobody is refreshing that mtime either). On success returns the held
/// lease, heartbeating every `heartbeat_ms` (0 = ttl / 4). With an injected
/// `fs` no heartbeat thread is started: the fake's clock is not the one the
/// thread would sleep on, so the caller that injects it runs heartbeat().
///
/// Throws minisc::SimError:
///   - kLeaseConflict (*transient*, see minisc::is_transient) when the lease
///     is held by a live worker or another transition won the race;
///   - kShardQuarantined when the current generation is quarantined, or
///     when this claim would adopt the shard past `max_adoptions` — in which
///     case this claim *performs* the quarantine: it bumps the lease to the
///     terminal generation recording the last owner, adoption count and last
///     recorded error. Terminal, not retryable: the fleet loop marks the
///     shard quarantined and moves on. max_adoptions == 0 disables it.
///   - kBadConfig for empty worker ids; kIoError for I/O failures.
std::unique_ptr<ShardLease> claim_shard_lease(const std::string& stem,
                                              const std::string& worker_id,
                                              std::uint64_t lease_ttl_ms,
                                              std::uint64_t heartbeat_ms = 0,
                                              std::uint64_t max_adoptions = 0,
                                              LeaseFs* fs = nullptr);

/// The lease half of a steal (steal_shard_tail's commit): bumps the live
/// lease at `stem` with its steal epoch incremented and its watermark
/// pinned, and returns the committed generation. The displaced holder
/// aborts at its next probe. Throws kLeaseConflict (transient) when the
/// lease is missing, not held, stale (adopt it instead), carries no
/// watermark, has nothing left below `unit_runs`, or the bump lost a race.
LeaseInfo steal_lease(const std::string& stem, std::size_t unit_runs,
                      std::uint64_t lease_ttl_ms,
                      LeaseFs& fs = posix_lease_fs());

/// The steal pass's straggler clock: a unit is stalled once its held
/// lease's generation has not moved for the patience window. Every
/// reservation and every steal bumps the generation, so an owner making
/// progress (or a unit just split) resets the clock. A lease that is not
/// held — released, quarantined or absent — is never stalled.
class StallTracker {
 public:
  bool stalled(const std::string& stem, std::uint64_t patience_ms,
               std::chrono::steady_clock::time_point now);
  void forget(const std::string& stem) { seen_.erase(stem); }

 private:
  std::map<std::string,
           std::pair<std::uint64_t, std::chrono::steady_clock::time_point>>
      seen_;
};

/// How one worker should participate in a campaign or sweep fleet.
struct ShardOptions {
  /// Shared journal directory (created if missing). All workers of one
  /// fleet must point at the same directory.
  std::string dir;
  /// This worker's identity: its *preferred first unit* (workers start
  /// claiming at their own index and roam upward, so a fleet spreads out
  /// instead of stampeding unit 0) — "--shard i/N" on the benches.
  std::size_t shard_index = 0;
  /// The campaign's shard count (0 = elastic: read it from the manifest).
  /// Ignored by sweeps, whose grid defines the unit count.
  std::size_t shard_count = 1;
  /// Unique id for lease files; "" derives "w<shard_index>.pid<pid>".
  std::string worker_id;
  /// Heartbeat staleness threshold for adoption. Must comfortably exceed
  /// the heartbeat interval plus the worst scheduler pause a live worker
  /// can suffer; below ~4 heartbeats invites spurious adoption.
  std::uint64_t lease_ttl_ms = 10000;
  std::uint64_t heartbeat_ms = 0;  ///< 0 = lease_ttl_ms / 4
  /// Adoption cap: a unit adopted this many times whose next claim would
  /// adopt it again is quarantined instead (see claim_shard_lease). 0 =
  /// unlimited (adopt forever).
  std::uint64_t max_adoptions = 3;
  /// Delay between claim passes once every remaining unit is leased by a
  /// live peer (the waiting-for-the-fleet idle loop).
  std::uint64_t poll_ms = 200;
  /// Give up waiting for other workers' units after this long (0 = wait
  /// until the whole fleet is complete — the CI survivor mode).
  std::uint64_t max_wait_ms = 0;
  /// Straggler work stealing (0 = disabled). Once a claim pass makes no
  /// progress, a live unit whose reservation watermark has not advanced for
  /// this long has its unreserved tail [split_at, end) split off into a new
  /// unit this worker then claims. Units of an smc campaign never split.
  /// Choose a patience well below the lease TTL: between steal_after_ms and
  /// the TTL is the window where a frozen straggler is split rather than
  /// waited out.
  std::uint64_t steal_after_ms = 0;
};

/// What one worker did. fleet_done is the fleet-level statement: every
/// unit was either complete or quarantined when this worker exited;
/// campaign_complete is the stricter claim that every unit's journal held
/// all its records (nothing quarantined, nothing missing).
struct ShardProgress {
  std::size_t shards_run = 0;      ///< units this worker completed
  std::size_t shards_adopted = 0;  ///< of those, adopted from dead workers
  std::size_t runs_executed = 0;   ///< seeds actually simulated here
  std::size_t lease_conflicts = 0; ///< claims lost to live peers (transient)
  std::size_t shards_lost = 0;     ///< own leases taken over mid-unit
  /// Units observed in the quarantine terminal state, whether this worker
  /// performed the quarantine or merely found it.
  std::size_t shards_quarantined = 0;
  /// Units this worker walked away from after a permanent SimError escaped
  /// their execution (journal I/O failure, unhealable corruption, config
  /// mismatch): the error was recorded in the lease, the lease was left to
  /// go stale, and the adoption counter will eventually quarantine the
  /// unit if every adopter fails the same way.
  std::size_t shards_abandoned = 0;
  /// Live units whose tails this worker split off (work stealing); the
  /// stolen tails it then ran count under shards_run.
  std::size_t shards_stolen = 0;
  bool campaign_complete = false;  ///< all units complete, none quarantined
  bool fleet_done = false;         ///< all units complete OR quarantined
};

/// Runs one worker of a campaign fleet: claims units (preferred first, then
/// roaming), executes each as a journaled+resumed FaultCampaign over its
/// seed range, adopts stale leases of dead workers, skips quarantined
/// units, and keeps polling until every unit is complete or quarantined
/// (or max_wait_ms expires). The CampaignOptions journal and shard fields
/// are overwritten per unit; threads, retry, budgets, digest and tag apply
/// as usual.
///
/// The first worker pins the manifest; later workers verify their
/// {base_seed, total_runs, shard_count, digest, tag} against it and refuse
/// (kBadConfig) on disagreement. shard.shard_count == 0 is *elastic* mode:
/// the shard count is read from the manifest (which must already exist).
/// An smc campaign must stay single-shard (kBadConfig otherwise).
ShardProgress run_sharded_campaign(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed,
                                   std::size_t total_runs,
                                   const ShardOptions& shard,
                                   const CampaignOptions& opts = {});

/// Runs one worker of a CampaignSweep fleet: every (mapping, scenario) grid
/// cell is one unit, claimed/adopted/quarantined exactly like a campaign
/// shard, with the cell identity in its journal tag. All workers must agree
/// on the grid (the manifest enforces it). shard.shard_index is the
/// preferred starting cell.
ShardProgress run_sharded_sweep(const std::vector<std::string>& mappings,
                                const std::vector<std::string>& scenarios,
                                const CampaignSweep::Factory& factory,
                                std::uint64_t base_seed, std::size_t n,
                                const ShardOptions& shard,
                                const CampaignOptions& opts = {});

/// What one committed steal produced.
struct StealResult {
  std::uint64_t epoch = 0;      ///< the victim lease's post-steal epoch
  std::size_t split_at = 0;     ///< shard-local begin of the stolen tail
  std::size_t stolen_runs = 0;  ///< size of the tail unit [split_at, end)
  std::string child_journal;    ///< the tail journal created (header only)
};

/// Splits the live unit owning the tail of campaign shard `shard` of the
/// fleet in `dir` at its current reservation watermark: atomically bumps
/// the lease's steal epoch, pins split_at, and creates the tail unit's
/// journal (header only) — the tail is then an ordinary claimable unit, and
/// the displaced owner aborts at its next lease probe. This is the
/// primitive the worker's steal pass uses; it is exposed for tooling and
/// tests. Throws minisc::SimError:
///   - kBadConfig when the unit's journal carries a sequential-verdict
///     decision record — decided ('D') journals are never split (the error
///     names the unit) — or when `shard` is out of range;
///   - kMergeIncomplete when no fleet.manifest pins a layout;
///   - kLeaseConflict (transient) when the lease is missing, stale (adopt
///     it instead), carries no watermark yet, has nothing left to steal, or
///     the atomic takeover lost a race.
StealResult steal_shard_tail(const std::string& dir, std::size_t shard,
                             std::uint64_t lease_ttl_ms = 10000,
                             const std::string& thief_id = "steal");

/// Outcome of a repartition_fleet migration.
struct RepartitionResult {
  std::size_t old_count = 0;
  std::size_t new_count = 0;
  std::size_t migrated_records = 0;   ///< run records carried into the new tiling
  std::size_t journals_written = 0;   ///< new-layout journals created
  std::size_t old_files_removed = 0;  ///< old-layout journals and lease files
  std::size_t dropped_quarantines = 0;  ///< quarantines not carried (re-earned)
  std::size_t stale_leases_removed = 0;  ///< other old-layout leases
};

/// Migrates a campaign fleet to a new shard count: every record of every
/// readable unit journal (primaries, stolen tails, quarantined units) is
/// re-tiled into fresh journals under the new canonical shard_range
/// partition, the manifest is atomically rewritten, and the old layout's
/// files are removed — after which the merge of the directory is
/// byte-identical to the single-process run, and manifest-following workers
/// (elastic or re-launched) finish the campaign under the new layout.
/// Byte-identical duplicate records across journals (crash re-runs)
/// deduplicate silently; differing duplicates refuse. Quarantined leases
/// are dropped (reported in the result): a poison seed re-earns its
/// quarantine under the new layout via normal self-healing. Refuses, with a
/// structured minisc::SimError:
///   - kLeaseConflict: any unit lease still live (naming the owner) —
///     repartition requires the units it rewrites to be unowned;
///   - kBadConfig: a decided ('D') journal (the decision pins the global
///     seed order of a single-shard campaign), a sweep fleet (its grid is
///     its tiling), or new_count == 0;
///   - kMergeIncomplete: no manifest.
RepartitionResult repartition_fleet(const std::string& dir,
                                    std::size_t new_count,
                                    std::uint64_t lease_ttl_ms = 10000);

/// How a merge should treat an unfinished fleet.
struct MergeOptions {
  /// False (default): a missing unit journal, a missing record or a
  /// quarantined unit refuses with kMergeIncomplete — merging a partial
  /// fleet silently would bias every statistic the campaign measures.
  /// True: produce a clearly-marked degraded result instead — complete=false
  /// with the missing/quarantined units listed, statistics over the recorded
  /// runs only. Identity refusals (mixed digests, tags, layouts, format
  /// versions) are never relaxed: those are wrong fleets, not partial ones.
  bool allow_partial = false;
};

/// One quarantined work unit as a merge found it.
struct QuarantinedUnit {
  std::size_t index = 0;  ///< the unit's shard within its cell
  std::string name;       ///< "shard 2/4", "shard 2/4 tail@9" or "m/s"
  LeaseInfo info;         ///< last owner, adoption count, recorded error
};

/// Terminal/progress state of one merged cell.
enum class CellState {
  kComplete,     ///< every owed run record is present
  kPartial,      ///< journals exist but records are missing (or unreadable)
  kMissing,      ///< no journal at all
  kQuarantined,  ///< a unit lease is quarantined — terminal
};

const char* to_string(CellState s);

/// One merged cell: a campaign fleet's only cell, or one sweep grid cell.
struct MergedCell {
  std::size_t index = 0;
  std::string mapping;   ///< "" for a campaign fleet
  std::string scenario;  ///< "" for a campaign fleet
  CellState state = CellState::kMissing;
  std::size_t records = 0;  ///< run records recovered
  std::size_t runs = 0;     ///< records owed (the manifest's runs, or the
                            ///< decision's executed count when decided)
  std::string error;        ///< quarantine summaries / read-failure notes
  /// Recovered results in seed order; compacted over the recorded runs when
  /// the cell is not complete (deterministic for any worker interleaving,
  /// because journals hold the same records no matter who wrote them).
  /// Feed them to FaultCampaign's results constructor for report() /
  /// write_csv() byte-identical to the uninterrupted single-process run.
  std::vector<CampaignRunResult> results;
  /// Sequential verdict of an early-stopped cell: the cell is complete at
  /// decision->executed records; attach it to the rebuilt campaign via
  /// FaultCampaign::set_smc_verdict for byte-identical output.
  std::optional<JournalDecision> decision;
  std::vector<std::size_t> missing_shards;  ///< shards with no journal at all
  std::vector<QuarantinedUnit> quarantined;
};

/// A merged fleet: the manifest plus every cell in grid order. For a sweep
/// fleet, to_sweep()/print()/write_csv() are byte-identical to the
/// uninterrupted single-process CampaignSweep when complete. When degraded
/// (allow_partial against an unfinished fleet), print() emits a
/// clearly-marked DEGRADED banner, the grid with '-' holes, and one line per
/// unfinished cell; write_csv() appends records/runs/state columns so no
/// downstream reader can mistake a partial grid for a finished one.
struct MergedFleet {
  FleetManifest manifest;
  std::vector<MergedCell> cells;  ///< grid order, manifest.cells() long
  bool complete = true;

  std::size_t complete_cells() const;
  std::size_t quarantined_cells() const;

  /// Rebuilds the CampaignSweep (complete cells only).
  CampaignSweep to_sweep() const;
  void print(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
};

/// Folds every unit journal of the fleet in `dir` into its cell's slots by
/// run-range containment. Refuses, with a structured minisc::SimError:
///   - kMergeIncomplete when no manifest pins the fleet, when two journals
///     claim the same unit, and (unless opts.allow_partial) for missing
///     journals, missing records or quarantined units — every cell's
///     shortfall listed in one message, so one round trip fixes the fleet;
///   - kShardVersionMismatch for a journal of another format version;
///   - kBadConfig for identity disagreements (digest, tag, seed, layout, a
///     range escaping its shard), for a run recorded by two journals, and
///     for a decision record outside a one-journal, one-shard cell.
MergedFleet merge_fleet(const std::string& dir, const MergeOptions& opts = {});

// ---- read-only fleet status ------------------------------------------------

/// State of one canonical shard (a campaign shard or a sweep cell), derived
/// purely from reading the fleet directory — stat() and read() only, no
/// writes, no lease traffic: observing a fleet must never perturb it.
struct ShardStatusEntry {
  enum class State {
    kDone,         ///< journal complete
    kClaimed,      ///< live lease (heartbeat within TTL)
    kStale,        ///< lease present but heartbeat outside TTL (dead worker)
    kQuarantined,  ///< lease quarantined — terminal
    kUnclaimed,    ///< no lease, journal incomplete
  };

  std::size_t index = 0;
  std::string name;  ///< "shard 0/4" or "mapping/scenario"
  State state = State::kUnclaimed;
  std::string owner;            ///< lease owner ("" when none)
  std::uint64_t adoptions = 0;  ///< adoption counter from the lease
  /// Milliseconds since the lease heartbeat; negative = mtime in the future
  /// (clock skew). Meaningful for kClaimed/kStale only.
  std::int64_t heartbeat_age_ms = 0;
  std::size_t records = 0;  ///< journal records present (stolen tails included)
  std::size_t runs = 0;     ///< records expected
  /// Stolen tails of this shard. records counts their journals too; done
  /// requires the primary AND every tail done.
  std::size_t children = 0;
  std::string error;        ///< recorded/quarantined SimError text ("" = none)
};

const char* to_string(ShardStatusEntry::State s);

/// Snapshot of a whole fleet.
struct FleetStatus {
  std::size_t units = 0;  ///< canonical shard count over all cells
  std::size_t done = 0, claimed = 0, stale = 0, quarantined = 0, unclaimed = 0;
  std::size_t records = 0, runs = 0;  ///< run-record totals across units
  std::vector<ShardStatusEntry> entries;

  /// The fleet-level terminal statement: every unit done or quarantined.
  bool fleet_done() const { return done + quarantined == units && units > 0; }
};

/// Reads the status of a fleet directory (campaign or sweep): one entry per
/// canonical shard of every cell, its stolen tails folded in, named from the
/// manifest. `lease_ttl_ms` classifies claimed vs stale (use the fleet's
/// TTL). Throws kMergeIncomplete when no manifest pins a fleet there.
FleetStatus fleet_status(const std::string& dir,
                         std::uint64_t lease_ttl_ms = 10000);

/// Renders a FleetStatus: a one-line fleet summary, then one line per unit
/// (state, progress, owner, heartbeat age, adoption count, recorded error).
void print_fleet_status(std::ostream& os, const FleetStatus& status);

}  // namespace sctrace
