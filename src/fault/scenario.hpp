#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace scfault {

/// Deterministic 64-bit generator (splitmix64). Chosen over <random> engines
/// because its output is fully specified by the algorithm — the same seed
/// produces the same fault timeline on every platform and standard library,
/// which is what makes resilience campaigns reproducible and their capture
/// hashes comparable across machines.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi].
  double uniform(double lo, double hi) { return lo + uniform() * (hi - lo); }

  /// Uniform integer in [0, n) without modulo bias (Lemire's multiply-shift
  /// with rejection). n == 0 is the full 64-bit range.
  std::uint64_t bounded(std::uint64_t n) {
    if (n == 0) return next();
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      // 2^64 mod n: values of `lo` below this threshold over-represent some
      // quotients; reject and redraw (expected < 2 draws even at worst n).
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) *
            static_cast<unsigned __int128>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform Time in [lo, hi] (picosecond granularity).
  minisc::Time time_in(minisc::Time lo, minisc::Time hi) {
    if (hi <= lo) return lo;
    const std::uint64_t span = hi.to_ps() - lo.to_ps();
    if (span == std::numeric_limits<std::uint64_t>::max()) {
      return minisc::Time::ps(next());  // degenerate full-range request
    }
    return minisc::Time::ps(lo.to_ps() + bounded(span + 1));
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a hash of a string — used to derive per-channel RNG streams from the
/// scenario seed so that adding or reordering channels never perturbs the
/// fault sequence another channel sees.
std::uint64_t fnv1a(const std::string& s);

/// Mixes a seed with a stream id into an independent-looking child seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---- scenario specification (what the user writes) ----

/// Transient extra-delay pulses on a resource: each pulse charges extra
/// estimated cycles into the segment that is executing on the resource when
/// the pulse fires (an EMI glitch, a DRAM refresh storm, a cache flush).
struct PulseSpec {
  std::string resource;
  std::size_t count = 0;
  double min_extra_cycles = 0.0;
  double max_extra_cycles = 0.0;
  /// Per-pulse occurrence probability: each of the `count` candidate pulses
  /// fires only when a Bernoulli(occur_p) draw succeeds. 1.0 (the default)
  /// makes no occurrence draw at all — existing timelines are bit-exact —
  /// while anything < 1 turns the spec into a rare-event knob the campaign
  /// can bias (scale_fault_bias) and re-weight (scenario_log_lr).
  double occur_p = 1.0;
};

/// Resource outage windows: while an outage is active the resource makes no
/// progress (a processor lockup, a bus reset, an accelerator in reset).
/// On SW resources every segment that tries to claim the processor stalls
/// until the window ends (in-flight occupations complete). On HW and ENV
/// resources the window is registered as resource downtime: a HW segment
/// overlapping the window is stretched by the overlap (work needs uptime),
/// and an ENV process reaching a node inside the window stalls until it ends.
struct OutageSpec {
  std::string resource;
  std::size_t count = 0;
  minisc::Time min_length;
  minisc::Time max_length;
  /// Per-outage occurrence probability, like PulseSpec::occur_p: 1.0 draws
  /// every outage unconditionally (bit-exact legacy timelines), < 1 gates
  /// each candidate on a Bernoulli(occur_p) draw — the handle that lets
  /// importance sampling inflate rare double-outage scenarios.
  double occur_p = 1.0;
};

/// Poisson-cluster outage *storms*: `count` storm centres are drawn uniformly
/// in [0, horizon); each storm opens with one outage at its centre and keeps
/// adding cluster members (offset uniformly in [0, window) after the centre)
/// while a per-member Bernoulli(continue_p) draw succeeds, capped at
/// max_cluster. The result is the correlated counterpart of OutageSpec:
/// rate-matched independent outages scatter, a storm concentrates them.
struct StormSpec {
  std::string resource;
  std::size_t count = 0;      ///< number of storm centres
  double continue_p = 0.0;    ///< P(one more outage in this cluster)
  std::size_t max_cluster = 16;
  minisc::Time window;        ///< cluster members land in [centre, centre+window)
  minisc::Time min_length;
  minisc::Time max_length;
};

/// Two-state Gilbert–Elliott burst model for a channel: each write first
/// draws its fate from the probabilities of the current state (the base
/// ChannelFaultSpec probabilities in the good state, the bad_* ones in the
/// bad state), then draws the state transition for the next write
/// (good -> bad with p_enter, bad -> good with p_exit). Channels start good.
/// The stationary bad-state occupancy is p_enter / (p_enter + p_exit), so a
/// rate-matched i.i.d. model has
///   drop_p_iid = pi_good * drop_p + pi_bad * bad_drop_p
/// — same long-run loss rate, none of the bursts.
struct GilbertElliottSpec {
  double p_enter = 0.0;  ///< good -> bad per write
  double p_exit = 1.0;   ///< bad -> good per write
  double bad_drop_p = 0.0;
  double bad_dup_p = 0.0;
  double bad_delay_p = 0.0;
};

/// Message faults on a channel wrapped in FaultyFifo / FaultyRendezvous.
/// Probabilities are per write and disjoint (drop_p + dup_p + delay_p <= 1;
/// the remainder delivers normally). `channel` is an exact channel name or
/// "*" for every attached channel. When `burst` is engaged the flat
/// probabilities become the good-state emission model of a Gilbert–Elliott
/// chain; leave it disengaged for the classic i.i.d. behaviour.
struct ChannelFaultSpec {
  std::string channel;
  double drop_p = 0.0;
  double dup_p = 0.0;
  double delay_p = 0.0;
  minisc::Time min_delay;
  minisc::Time max_delay;
  std::optional<GilbertElliottSpec> burst;
};

/// Per-channel draw accounting kept by the Faulty* wrappers, split by the
/// Gilbert–Elliott state the draw was made in (i.i.d. channels only ever
/// populate index kGood). These counts are exactly the sufficient statistics
/// of the per-write categorical + transition likelihood, which is what makes
/// importance-sampling weights computable after the run.
struct ChannelFaultCounts {
  static constexpr std::size_t kGood = 0;
  static constexpr std::size_t kBad = 1;

  std::array<std::uint64_t, 2> draws{};       ///< writes drawn in each state
  std::array<std::uint64_t, 2> dropped{};
  std::array<std::uint64_t, 2> duplicated{};
  std::array<std::uint64_t, 2> delayed{};
  std::array<std::uint64_t, 2> delivered{};
  std::uint64_t to_bad = 0;   ///< good -> bad transitions taken
  std::uint64_t to_good = 0;  ///< bad -> good transitions taken

  std::uint64_t total_draws() const { return draws[kGood] + draws[kBad]; }
  std::uint64_t total_faults() const {
    return dropped[kGood] + dropped[kBad] + duplicated[kGood] +
           duplicated[kBad] + delayed[kGood] + delayed[kBad];
  }
};

/// Log likelihood ratio log(P_nominal / P_biased) of one channel's observed
/// draw record, for importance-sampled campaigns: the run simulates under
/// `biased` (typically the nominal spec with inflated fault probabilities)
/// and each run is re-weighted by exp of this value to recover an unbiased
/// estimate under `nominal`. A spec without `burst` is treated as a chain
/// that never leaves the good state. Returns -infinity when the observed
/// record is impossible under `nominal` (weight 0); requires every event
/// observed to have positive probability under `biased`.
double channel_log_lr(const ChannelFaultSpec& nominal,
                      const ChannelFaultSpec& biased,
                      const ChannelFaultCounts& counts);

/// Sufficient statistics of the Bernoulli draws a FaultScenario made while
/// instantiating its timeline: per-spec occurrence successes/failures for
/// pulses and outages (in spec declaration order) and the storm
/// continue/stop draws (pooled per storm spec). Together with the channel
/// counts these are everything scenario_log_lr needs to re-weight a biased
/// scenario's draws against the nominal model.
struct ScenarioDrawCounts {
  struct Occurrence {
    std::uint64_t occurred = 0;
    std::uint64_t skipped = 0;
  };
  struct StormDraws {
    std::uint64_t continues = 0;  ///< Bernoulli(continue_p) successes
    std::uint64_t stops = 0;      ///< explicit failures (cap hits draw nothing)
  };
  std::vector<Occurrence> pulses;   ///< one per PulseSpec, in config order
  std::vector<Occurrence> outages;  ///< one per OutageSpec, in config order
  std::vector<StormDraws> storms;   ///< one per StormSpec, in config order
};

/// Crash-kill of a process at a fixed time; restart_after == Time::max()
/// means no restart (a permanent fault), anything else re-runs the process
/// body from the top after that recovery delay.
struct CrashSpec {
  std::string process;
  minisc::Time at;
  minisc::Time restart_after = minisc::Time::max();
};

struct ScenarioConfig {
  /// Fault times are drawn uniformly in [0, horizon).
  minisc::Time horizon;
  std::vector<PulseSpec> pulses;
  std::vector<OutageSpec> outages;
  std::vector<StormSpec> storms;
  std::vector<ChannelFaultSpec> channel_faults;
  std::vector<CrashSpec> crashes;
};

/// Stable 64-bit fingerprint of a scenario specification: an FNV-style fold
/// over every spec field, in declaration order, with doubles hashed by bit
/// pattern. A campaign journal stores this in its header so a *resumed*
/// campaign can prove it replays runs of the same fault model — any
/// edit to the scenario (one probability, one extra spec) changes the digest
/// and the resume is refused instead of silently mixing incompatible runs.
std::uint64_t config_digest(const ScenarioConfig& config);

/// Log likelihood ratio log(P_nominal / P_biased) of a scenario's recorded
/// timeline draws — the pulse/outage/storm counterpart of channel_log_lr.
/// `counts` must come from a FaultScenario built against `biased`
/// (FaultScenario::draw_counts); the two configs must agree on everything
/// except probabilities (same spec counts, resources, event counts, ranges —
/// differing shapes throw minisc::SimError(kBadConfig), because a count
/// observed under one timeline structure says nothing about the other).
/// Only the Bernoulli draws carry probability mass: occurrence gates
/// (occur_p) and storm continuation (continue_p). Uniform time/length draws
/// are identical under both models and cancel out of the ratio.
double scenario_log_lr(const ScenarioConfig& nominal,
                       const ScenarioConfig& biased,
                       const ScenarioDrawCounts& counts);

/// Returns `config` with every fault probability inflated by `factor` — the
/// one-knob bias the adaptive importance-sampling pilot turns. Scaled (all
/// capped at 0.95): channel drop/dup/delay in both states (proportionally
/// renormalised when the scaled sum would exceed 0.95), Gilbert–Elliott
/// p_enter, storm continue_p, and pulse/outage occur_p — the latter only
/// when already < 1, so an unconditioned spec stays unconditioned (and its
/// timeline bit-exact). factor <= 0 throws minisc::SimError(kBadConfig);
/// factor 1 returns the config unchanged.
ScenarioConfig scale_fault_bias(const ScenarioConfig& config, double factor);

// ---- concrete drawn faults (what one seed produces) ----

struct Pulse {
  std::string resource;
  minisc::Time at;
  double extra_cycles = 0.0;
};

struct Outage {
  std::string resource;
  minisc::Time start;
  minisc::Time length;
};

/// One seeded instantiation of a ScenarioConfig: every random choice in the
/// spec is resolved into a concrete, sorted fault timeline at construction.
/// The same (config, seed) pair always yields the same timeline and the same
/// per-channel fault streams; seeds index the campaign's sample space.
class FaultScenario {
 public:
  FaultScenario(ScenarioConfig config, std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }
  const ScenarioConfig& config() const { return config_; }

  /// Drawn pulses / outages, each sorted by time. Outages merge the
  /// independent OutageSpec draws and every StormSpec cluster member.
  const std::vector<Pulse>& pulses() const { return pulses_; }
  const std::vector<Outage>& outages() const { return outages_; }
  /// Crashes from the config, sorted by time.
  const std::vector<CrashSpec>& crashes() const { return crashes_; }

  /// The fault spec applying to a channel name (exact match wins over "*");
  /// nullptr when the scenario leaves the channel fault-free.
  const ChannelFaultSpec* channel_spec(const std::string& name) const;

  /// Independent deterministic stream for one channel, derived from the
  /// scenario seed and the channel name only — stable under any change to
  /// the rest of the scenario.
  Rng channel_stream(const std::string& name) const {
    return Rng(mix_seed(seed_, fnv1a(name)));
  }

  /// All drawn fault times (pulses, outage starts, crashes), sorted —
  /// recovery-latency analysis measures from these instants.
  std::vector<minisc::Time> fault_times() const;

  /// The Bernoulli draw record of this instantiation — feed it (with the
  /// nominal config) to scenario_log_lr to re-weight a biased timeline.
  const ScenarioDrawCounts& draw_counts() const { return draw_counts_; }

 private:
  ScenarioConfig config_;
  std::uint64_t seed_;
  std::vector<Pulse> pulses_;
  std::vector<Outage> outages_;
  std::vector<CrashSpec> crashes_;
  ScenarioDrawCounts draw_counts_;
};

}  // namespace scfault
