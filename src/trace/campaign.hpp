#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "trace/smc.hpp"
#include "trace/stats.hpp"

namespace sctrace {

/// Outcome of one seeded run of a resilience experiment. The run function
/// fills in whatever it measures; the campaign aggregates across seeds.
struct CampaignRunResult {
  std::uint64_t seed = 0;

  /// False when the run threw minisc::SimError (watchdog trip, bad config):
  /// the run is counted as failed and excluded from the timing statistics.
  bool completed = true;
  std::string error;  ///< the SimError message when !completed

  /// Attempts it took to produce this result (1 = first try). Transient
  /// SimErrors (minisc::is_transient — host-dependent wall-clock trips) are
  /// retried up to CampaignOptions::max_attempts with seed-derived
  /// deterministic backoff; permanent errors (bad config, storms) fail fast
  /// with attempts == 1. A run still failing after the retry budget keeps
  /// completed == false and records the attempts it burned.
  std::uint32_t attempts = 1;

  /// End-to-end makespan of the workload (whatever the experiment defines —
  /// typically first input to last output).
  minisc::Time makespan;

  /// Deadline accounting: of `deadline_total` checked deadlines,
  /// `deadline_missed` were missed.
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_missed = 0;

  /// Time from each fault instant to the system's recovery (experiment-
  /// defined: e.g. next completed output after the fault), in ns.
  std::vector<double> recovery_latencies_ns;

  /// Faults actually applied in this run (pulses + outages + crashes +
  /// channel faults) — for the CSV and for sanity checks.
  std::uint64_t faults_injected = 0;

  /// Importance sampling: log likelihood ratio log(P_nominal / P_biased) of
  /// this run's fault draws (sum of scfault::channel_log_lr over the biased
  /// channels). Leave at 0 for naive Monte Carlo — weight exp(0) = 1.
  double log_weight = 0.0;

  /// Estimated total energy of the run in picojoules, and the share of it
  /// charged by fault injection (Estimator::total_energy_pj /
  /// fault_energy_pj) — the campaign reports the energy overhead of
  /// recovery from these.
  double energy_pj = 0.0;
  double fault_energy_pj = 0.0;

  /// CaptureRegistry::value_sequence_hash of the run — equal seeds must
  /// yield equal hashes (determinism check across repeated campaigns).
  std::uint64_t value_hash = 0;
};

/// Aggregate view of a campaign. All ci95 fields are half-widths of normal-
/// approximation 95% confidence intervals: 1.96 * stderr — except the
/// degenerate miss-rate cases 0/N and N/N, which use the rule-of-three
/// bound 3/N instead of the Wald formula's misleading zero width.
struct CampaignReport {
  std::size_t runs = 0;
  std::size_t failed_runs = 0;
  /// Runs that needed more than one attempt (transient-failure retries).
  std::size_t retried_runs = 0;
  /// Sum of attempts across all runs (== runs when nothing retried).
  std::uint64_t total_attempts = 0;

  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_missed = 0;
  double miss_rate = 0.0;       ///< missed / total across all completed runs
  double miss_rate_ci95 = 0.0;  ///< binomial: 1.96 * sqrt(p(1-p)/n)

  Summary makespan_ns;          ///< over completed runs
  double makespan_ci95 = 0.0;   ///< 1.96 * stddev / sqrt(count)

  Summary recovery_ns;          ///< over all recovery samples, all runs
  double recovery_ci95 = 0.0;

  /// Mean per-run energy and fault-energy overhead, in picojoules (over
  /// completed runs; both 0 when the experiment reports no energy).
  double mean_energy_pj = 0.0;
  double mean_fault_energy_pj = 0.0;

  // ---- importance sampling (populated when any run carries a weight) ----

  /// True when at least one completed run had log_weight != 0: the campaign
  /// sampled from a biased scenario and the weighted estimate below is the
  /// unbiased one. False = naive MC; use miss_rate.
  bool importance_sampled = false;
  /// Unbiased estimate of the nominal per-run deadline-miss fraction:
  /// mean of weight_i * (missed_i / total_i) over completed runs.
  double weighted_miss_rate = 0.0;
  double weighted_miss_rate_ci95 = 0.0;  ///< 1.96 * stderr of the above
  /// Kish effective sample size (sum w)^2 / sum w^2 — how many naive runs
  /// the weighted sample is worth; a tiny ESS flags a badly chosen bias.
  double effective_sample_size = 0.0;
  /// Mean weight: should hover near 1; far off means the biased scenario
  /// explores a different region than the nominal one.
  double mean_weight = 0.0;

  // ---- sequential model checking (populated when the campaign ran with an
  //      engaged CampaignOptions::smc spec, or via set_smc_verdict on the
  //      merge path) ----

  /// True when a sequential verdict accompanies this report; print() then
  /// appends the smc lines (historical bytes are preserved otherwise).
  bool smc_engaged = false;
  SmcSpec smc_spec;
  SmcVerdict smc;

  std::size_t completed_runs() const { return runs - failed_runs; }
  /// Achieved ESS fraction effective_sample_size / completed_runs (0 when
  /// nothing completed). The adaptive-IS pilot targets this quantity.
  double ess_fraction() const;
  /// True when importance sampling collapsed: ESS below 10% of the
  /// completed runs.
  bool low_ess() const;
  /// The shared low-ESS warning text, carrying the achieved ESS fraction;
  /// empty when !low_ess(). Both print() and the per-cell sweep warning
  /// format through this one function, so the two surfaces can never
  /// drift apart (or double-report with different numbers).
  std::string ess_warning() const;

  /// The flag does nothing; kept only because perfbench's tests pass it.
  void print(std::ostream& os, bool = false) const;
};

/// The Bernoulli observation the campaign-level sequential test consumes:
/// a run violates its property when it failed outright (watchdog trip,
/// unrecovered error) or missed at least one deadline.
bool run_violates(const CampaignRunResult& r);

/// Half-width of the normal-approximation 95% CI of a sample mean.
double mean_ci95(const Summary& s);

/// Execution options for campaign drivers. The default is the legacy
/// sequential path (no pool, runs execute on the calling thread); threads
/// > 1 runs the seeds on a scperf::ThreadPool with every run writing into
/// its pre-sized result slot, so results order, report fields and CSV bytes
/// are identical for ANY thread count. The run function must then be
/// thread-safe: build everything per-run (one Simulator/Estimator/scenario/
/// CaptureRegistry per call) and share nothing mutable between calls — the
/// concurrency contract of DESIGN.md §7.
struct CampaignOptions {
  std::size_t threads = 0;  ///< 0 or 1 = sequential on the calling thread
  std::size_t chunk = 1;    ///< consecutive seeds claimed by a worker at once

  // ---- durability (crash-consistent run journal, see trace/journal.hpp) ----

  /// Non-empty enables journaling: every completed seed is appended to this
  /// file the moment it finishes, so a crashed campaign loses at most the
  /// in-flight runs. CampaignSweep derives one journal per cell from this
  /// path ("<path>.<mapping>.<scenario>").
  std::string journal_path;
  /// With resume set and an existing journal at journal_path, recorded runs
  /// are replayed bit-exactly into their slots and only the missing seeds
  /// re-run — report()/write_csv() are byte-identical to an uninterrupted
  /// campaign for any thread count. The journal header must match this
  /// campaign (base seed, run count, scenario_digest, tag) or run() throws
  /// minisc::SimError(kBadConfig). A missing journal file starts fresh.
  bool resume = false;
  /// Fault-model fingerprint stored in the journal header and checked on
  /// resume (scfault::config_digest; 0 = unchecked).
  std::uint64_t scenario_digest = 0;
  /// Free-form identity tag stored/checked alongside the digest.
  std::string journal_tag;
  /// fsync the journal every this many records (1 = every record; batching
  /// amortises the sync cost, at risk of losing only the unsynced tail to a
  /// host power cut — a killed *process* loses nothing).
  std::size_t journal_flush_every = 8;

  // ---- shard identity (journal header; set by trace/shard.hpp) ----
  //
  // A sharded fleet campaign runs this campaign as shard `shard_index` of
  // `shard_count`, covering global run indices [shard_begin, shard_begin +
  // n) of a `total_runs`-run campaign. The identity is pinned in the
  // journal header and checked on resume — except worker_id, which records
  // the journal's *creator* and is exempt so a surviving worker can adopt
  // and extend a dead worker's journal. The defaults are the degenerate
  // unsharded identity; plain campaigns never need to touch these.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::uint64_t shard_begin = 0;
  std::uint64_t total_runs = 0;  ///< 0 = the n passed to run()
  std::string worker_id;

  // ---- work stealing (journal header v3; set by trace/shard.hpp) ----

  /// Lease incarnation recorded in the journal header: 0 for a unit's
  /// primary journal, the victim lease's post-steal epoch for a child
  /// journal created by stealing the tail of a live unit.
  std::uint64_t steal_epoch = 0;
  /// Relaxes the resume identity check: accept a journal whose header
  /// `runs` exceeds the n passed to run(), restoring only the records with
  /// index < n and ignoring the rest. A stolen unit shrinks — its journal
  /// header still advertises the size the unit had when the journal was
  /// created, so a resuming worker of the shrunken unit must tolerate the
  /// superset header (the out-of-range records belong to a child journal's
  /// range and the merge layer folds them from there).
  bool accept_journal_superset = false;
  /// Called right before each run record is appended to the journal (and on
  /// the sequential path, before each completed run is committed). A fleet
  /// worker hooks this to re-probe its lease so a stolen/lost unit aborts
  /// *before* recording a run outside its shrunken range — the "not a
  /// single duplicate run" half of the steal contract. Exceptions propagate
  /// out of run() like any non-SimError (parallel mode drains in-flight
  /// runs first).
  std::function<void(std::size_t index)> pre_append;

  // ---- per-run retry and timeout budgets ----

  /// Attempts per seed: transient SimErrors (minisc::is_transient) retry up
  /// to this many times; 1 (the default) preserves the fail-on-first-error
  /// behaviour. Permanent errors never retry.
  std::size_t max_attempts = 1;
  /// Base host backoff before retry k, growing as base * 2^(k-1) and capped
  /// at retry_backoff_max_ms, scaled by a deterministic jitter factor in
  /// [0.75, 1.25) derived from (seed, attempt) — never ambient randomness,
  /// so retries cannot perturb reproducibility. 0 retries immediately.
  std::uint64_t retry_backoff_ms = 0;
  std::uint64_t retry_backoff_max_ms = 1000;
  /// Per-run wall-clock budget, enforced via minisc::RunBudgetScope by any
  /// Simulator the run function builds: a hung seed trips a kWallClockBudget
  /// SimError (transient, hence retried) and becomes a failed-with-timeout
  /// record instead of stalling the campaign. 0 = unlimited.
  std::uint64_t run_wall_clock_ms = 0;

  // ---- sequential model checking (trace/smc.hpp) ----

  /// Engaged (smc.engaged(), i.e. delta > 0) turns the n passed to run()
  /// into a *budget*: seeds are issued in windows of smc.window runs and
  /// the sequential test is evaluated between windows in seed order over
  /// the completed slots — so the campaign stops issuing seeds as soon as
  /// the verdict "P(run violates) <= threshold" is decided, with the
  /// stopping seed and every report/CSV byte identical for any thread
  /// count. The verdict lands in report() (smc fields), in write_csv()
  /// (a leading '#' summary line) and — when journaling — in a journal
  /// decision record that makes the early-stopped journal resumable (a
  /// resume replays the decision and runs nothing) and mergeable.
  /// Incompatible with sharded campaigns (shard_count > 1): the sequential
  /// decision needs the campaign's global seed order; shard a sweep
  /// instead, where every cell is a whole campaign.
  SmcSpec smc;
};

/// Resilience-campaign driver: runs one seeded experiment N times and
/// aggregates deadline-miss rate, makespan distribution and recovery
/// latency. The run function builds a fresh Simulator/Estimator/scenario
/// from the seed, simulates, and returns its measurements; a minisc::SimError
/// escaping it (e.g. a watchdog trip in a non-resilient mapping) is caught
/// and recorded as a failed run rather than aborting the campaign — a run
/// that hangs *is* a data point.
///
/// For rare-fault regimes, build the run function against a *biased*
/// scenario (inflated fault probabilities) and fill in log_weight with the
/// likelihood ratio of the nominal model (scfault::channel_log_lr): the
/// report then carries the unbiased weighted miss-rate estimate with its
/// effective sample size. With no weights set, everything reduces to naive
/// Monte Carlo.
class FaultCampaign {
 public:
  using RunFn = std::function<CampaignRunResult(std::uint64_t seed)>;

  explicit FaultCampaign(RunFn fn) : fn_(std::move(fn)) {}

  /// Builds a campaign directly from recorded results — the merge path:
  /// sctrace::merge_fleet folds unit journals into each cell's result
  /// vector and this constructor makes report()/write_csv() available on
  /// it, byte-identical to the single-process campaign that would have
  /// produced the same runs. run() on such a campaign throws
  /// minisc::SimError(kBadConfig): there is no run function to execute.
  explicit FaultCampaign(std::vector<CampaignRunResult> results)
      : results_(std::move(results)) {}

  /// Runs seeds base_seed .. base_seed + n - 1. With opts.threads > 1 the
  /// seeds run on a thread pool; every seed's result lands in its own slot,
  /// so results()/report()/write_csv() are byte-identical to the sequential
  /// path regardless of thread count. A minisc::SimError thrown by any run
  /// is recorded as a failed run in either mode — after opts.max_attempts
  /// tries with deterministic backoff when the error is transient
  /// (minisc::is_transient) — and opts.run_wall_clock_ms converts a hung
  /// seed into a failed-with-timeout record. The one SimError exempt from
  /// recording is kIoError (full disk, dying device): an infrastructure
  /// failure is not a property of the seed, so it propagates out of run()
  /// instead of biasing the statistics — fleet workers (trace/shard.hpp)
  /// catch it and quarantine the shard. Any other exception propagates
  /// (parallel mode finishes in-flight runs first and leaves unreached slots
  /// default-constructed).
  ///
  /// With opts.journal_path set, every finished seed is appended to a
  /// crash-consistent journal (trace/journal.hpp); with opts.resume, runs
  /// recorded by an interrupted campaign replay bit-exactly from the journal
  /// and only the missing seeds execute — report() and write_csv() are
  /// byte-identical to an uninterrupted campaign for any thread count.
  void run(std::uint64_t base_seed, std::size_t n,
           const CampaignOptions& opts = {});

  const std::vector<CampaignRunResult>& results() const { return results_; }
  CampaignReport report() const;

  /// The sequential verdict of the last run() with an engaged smc spec
  /// (nullptr otherwise). report() carries a copy in its smc fields.
  const SmcVerdict* smc_verdict() const {
    return smc_verdict_ ? &*smc_verdict_ : nullptr;
  }
  const SmcSpec& smc_spec() const { return smc_spec_; }

  /// Attaches a recorded verdict to a merge-constructed campaign (the
  /// journal decision record recovered by sctrace::merge_fleet), so
  /// report()/write_csv() reproduce the early-stopped campaign's bytes
  /// exactly.
  void set_smc_verdict(const SmcSpec& spec, const SmcVerdict& verdict) {
    smc_spec_ = spec;
    smc_verdict_ = verdict;
  }

  /// One row per run: seed, completed, makespan, deadlines, faults, weight,
  /// energy, hash. A campaign with a sequential verdict prefixes one '#'
  /// summary line (method, outcome, samples used, statistic, bound) so the
  /// decision travels with the per-run data. The flag does nothing; kept
  /// only because perfbench's tests pass it.
  void write_csv(std::ostream& os, bool = false) const;

 private:
  void run_sequential(std::uint64_t base_seed, std::size_t n,
                      const CampaignOptions& opts, std::size_t offset,
                      class JournalWriter* journal,
                      const std::vector<std::size_t>& todo);

  RunFn fn_;
  std::vector<CampaignRunResult> results_;
  SmcSpec smc_spec_;
  std::optional<SmcVerdict> smc_verdict_;
};

// ---- adaptive importance sampling ------------------------------------------

/// Pilot-batch auto-tuning of the importance-sampling bias factor: instead
/// of hand-picking a constant, probe candidate factors with small pilot
/// campaigns and keep the most aggressive one whose Kish ESS fraction still
/// meets `target_ess_fraction` — biases that explore a different region
/// than the nominal model collapse the ESS, and the pilot sees that before
/// the real campaign wastes its budget on it.
struct AdaptiveBiasOptions {
  /// Keep ESS / pilot_runs at or above this (0 < target <= 1).
  double target_ess_fraction = 0.5;
  /// Seeds per pilot probe. Small on purpose: the pilot's job is to rank
  /// factors, not to estimate anything.
  std::size_t pilot_runs = 32;
  double min_factor = 1.0;
  double max_factor = 64.0;
  /// Log-space bisection steps between min and max factor.
  std::size_t iterations = 6;
};

struct AdaptiveBiasResult {
  /// The chosen factor: the largest probed factor meeting the target (or
  /// min_factor when even that misses it — the pilot cannot do better).
  double factor = 1.0;
  /// Achieved ESS fraction of the chosen factor's pilot batch.
  double ess_fraction = 1.0;
  /// Total pilot seeds spent across all probes.
  std::size_t pilot_runs = 0;
  /// Every (factor, ess_fraction) probed, in probe order.
  std::vector<std::pair<double, double>> trace;
};

/// Runs the pilot search. `make_run(factor)` must return a run function
/// that simulates under the factor-inflated fault model and fills
/// log_weight against the nominal one (e.g. via scfault::scale_fault_bias +
/// channel_log_lr/scenario_log_lr). Deterministic: probes use the fixed
/// seeds [pilot_seed, pilot_seed + pilot_runs), so the chosen factor is a
/// pure function of (make_run, pilot_seed, opts).
AdaptiveBiasResult tune_bias_factor(
    const std::function<FaultCampaign::RunFn(double)>& make_run,
    std::uint64_t pilot_seed, const AdaptiveBiasOptions& opts = {});

/// Mapping × scenario campaign sweep: the grid-level driver the paper's
/// design-space exploration needs once faults enter the picture. For every
/// (mapping, scenario) pair the factory returns a seeded run function (the
/// same shape FaultCampaign takes); the sweep runs a full campaign per cell
/// and lays the reports out as a grid — which mapping stays schedulable
/// under which fault regime.
class CampaignSweep {
 public:
  struct Cell {
    std::string mapping;
    std::string scenario;
    CampaignReport report;
  };

  using Factory = std::function<FaultCampaign::RunFn(
      const std::string& mapping, const std::string& scenario)>;

  CampaignSweep(std::vector<std::string> mappings,
                std::vector<std::string> scenarios, Factory factory)
      : mappings_(std::move(mappings)),
        scenarios_(std::move(scenarios)),
        factory_(std::move(factory)) {}

  /// Builds a sweep directly from recorded cells — the fleet-merge path:
  /// sctrace::merge_fleet folds per-cell journals into Cell reports and
  /// this constructor makes print()/write_csv() available on them,
  /// byte-identical to the single-process sweep that would have produced the
  /// same cells. A missing (mapping, scenario) pair renders as '-' in the
  /// grid, which is how a degraded partial merge marks its holes. run() on
  /// such a sweep throws minisc::SimError(kBadConfig): there is no factory.
  CampaignSweep(std::vector<std::string> mappings,
                std::vector<std::string> scenarios, std::vector<Cell> cells)
      : mappings_(std::move(mappings)),
        scenarios_(std::move(scenarios)),
        cells_(std::move(cells)) {}

  /// Runs every cell's campaign with the same base seed and run count —
  /// common random numbers across cells, so cell differences are design
  /// differences, not sampling noise. Cells execute in grid order; within a
  /// cell the seeds are parallelised per `opts` (grid layout, reports and
  /// CSV are thread-count-invariant, like FaultCampaign::run).
  void run(std::uint64_t base_seed, std::size_t n,
           const CampaignOptions& opts = {});

  const std::vector<Cell>& cells() const { return cells_; }
  const CampaignReport* cell(const std::string& mapping,
                             const std::string& scenario) const;

  /// Miss-rate grid: one row per mapping, one column per scenario.
  void print(std::ostream& os) const;
  /// One row per cell: mapping, scenario, and the headline report fields.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> mappings_;
  std::vector<std::string> scenarios_;
  Factory factory_;
  std::vector<Cell> cells_;
};

}  // namespace sctrace
