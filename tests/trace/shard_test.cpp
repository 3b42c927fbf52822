// Sharded fleet-scale campaigns: lease-based work claiming, crash-tolerant
// adoption and the byte-identical merge.
//
// The load-bearing claims pinned here:
//   - shard_range tiles the campaign exactly: contiguous, disjoint, total;
//   - the lease protocol picks exactly one winner: a double claim raises a
//     *transient* kLeaseConflict, a fresh lease is never adoptable, a stale
//     one (heartbeat mtime past the TTL) is adopted by exactly one claimer;
//   - a worker whose lease was adopted away observes lost() and leaves the
//     file to the adopter;
//   - adoption of a partially-journaled shard resumes the dead worker's
//     journal and executes only the missing seeds;
//   - two workers split a campaign with zero overlap, and the merged output
//     is byte-identical to the uninterrupted single-process run for
//     threads in {seq, 1, 8};
//   - merge refuses missing shards, missing records, mixed fault-model
//     digests and old format versions with structured SimErrors;
//   - the lease carries an adoption counter across crash generations, a
//     shard adopted past max_adoptions is quarantined by exactly one worker
//     (a terminal lease generation) and excluded from every later claim pass;
//   - a lease whose mtime sits in the FUTURE beyond the TTL (clock skew)
//     is stale too — a skewed worker cannot pin a shard forever;
//   - --allow-partial merges compact recorded runs in global seed order, so
//     the degraded CSV is byte-stable across threads in {seq, 1, 8}.

#include "trace/shard.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernel/error.hpp"
#include "trace/campaign.hpp"
#include "trace/journal.hpp"

namespace sctrace {
namespace {

using minisc::SimError;
using minisc::Time;

std::filesystem::path temp_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("scperf_shard_" + name + "_" + std::to_string(::getpid()));
}

/// RAII scratch directory: removed at both ends so a crashed previous run
/// cannot leak state into this one (ctest runs suites in parallel).
struct ScratchDir {
  explicit ScratchDir(const std::string& name) : path(temp_dir(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
  std::string str() const { return path.string(); }
};

/// Deterministic synthetic run, same spirit as the journal tests: every
/// field a pure function of the seed, doubles not decimal-representable.
CampaignRunResult synth_run(std::uint64_t seed) {
  CampaignRunResult r;
  r.seed = seed;
  r.makespan = Time::ns(1000 + 37 * seed);
  r.deadline_total = 16;
  r.deadline_missed = seed % 4;
  r.recovery_latencies_ns = {100.0 + 0.3 * static_cast<double>(seed)};
  r.faults_injected = seed % 3;
  r.log_weight = 0.25 * static_cast<double>(seed % 5) - 0.7;
  r.energy_pj = 1234.5 + 0.1 * static_cast<double>(seed);
  r.fault_energy_pj = 12.25 + static_cast<double>(seed);
  r.value_hash = 0x9e3779b97f4a7c15ull * (seed + 1);
  return r;
}

FaultCampaign::RunFn synth_fn() {
  return [](std::uint64_t seed) { return synth_run(seed); };
}

std::string csv_of(const FaultCampaign& c) {
  std::ostringstream os;
  c.write_csv(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

LeaseInfo lease_info(const std::string& owner, std::uint64_t adoptions,
                     LeaseInfo::State state = LeaseInfo::State::kHeld,
                     const std::string& error = "") {
  LeaseInfo info;
  info.state = state;
  info.owner = owner;
  info.adoptions = adoptions;
  info.error = error;
  return info;
}

/// Writes `info` as the next generation of the lease at `stem` (generation
/// 1 for a new lease), standing in for another worker's bump.
void put_lease(const std::string& stem, const LeaseInfo& info) {
  LeaseInfo cur;
  const std::uint64_t gen = read_lease_info(stem, &cur) ? cur.generation : 0;
  write_file(lease_generation_path(stem, gen + 1), format_lease(info));
}

/// The current generation of the lease at `stem` (state kHeld and
/// generation 0 when it has none).
LeaseInfo current(const std::string& stem) {
  LeaseInfo info;
  read_lease_info(stem, &info);
  return info;
}

/// Shifts the heartbeat mtime of the lease's current generation.
void shift_mtime(const std::string& stem, std::chrono::seconds by) {
  const std::string path = lease_generation_path(stem, current(stem).generation);
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) + by);
}

/// The journal / lease stem of campaign shard `shard` of `count`.
std::string stem_of(const std::string& dir, std::size_t shard,
                    std::size_t count) {
  FleetManifest m;
  m.shard_count = count;
  Unit u;
  u.shard = shard;
  return unit_stem(dir, m, u);
}
/// The journal of the tail that steal epoch `epoch` split off a one-shard
/// fleet at run `begin`.
std::string tail_journal_of(const std::string& dir, std::uint64_t epoch,
                            std::size_t begin) {
  FleetManifest m;
  m.shard_count = 1;
  Unit u;
  u.range.begin = begin;
  u.epoch = epoch;
  return unit_stem(dir, m, u) + ".journal";
}
std::string journal_of(const std::string& dir, std::size_t shard,
                       std::size_t count) {
  return stem_of(dir, shard, count) + ".journal";
}
std::string lease_of(const std::string& dir, std::size_t shard,
                     std::size_t count) {
  return stem_of(dir, shard, count) + ".lease";
}

/// Backdates the current generation far enough that any sane TTL sees it
/// stale.
void make_stale(const std::string& stem) {
  shift_mtime(stem, -std::chrono::hours(1));
}

// ---- shard_range ----------------------------------------------------------

TEST(ShardRange, TilesTheCampaignExactly) {
  for (const std::size_t count : {1u, 2u, 3u, 7u, 16u}) {
    for (const std::size_t total : {0u, 1u, 5u, 16u, 97u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const ShardRange r = shard_range(i, count, total);
        EXPECT_EQ(r.begin, prev_end) << i << "/" << count << " of " << total;
        EXPECT_LE(r.begin, r.end);
        // Remainder spread: sizes differ by at most one, big shards first.
        EXPECT_GE(r.size(), total / count);
        EXPECT_LE(r.size(), total / count + 1);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ShardRange, OutOfRangeShardIsRefused) {
  EXPECT_THROW(shard_range(2, 2, 10), SimError);
  EXPECT_THROW(shard_range(0, 0, 10), SimError);
}

// ---- lease protocol -------------------------------------------------------

TEST(ShardLease, FreshClaimWritesTheWorkerIdAndReleaseEndsTheHold) {
  ScratchDir dir("fresh");
  const std::string path = lease_of(dir.str(), 0, 2);
  auto lease = claim_shard_lease(path, "alice", 10000);
  EXPECT_FALSE(lease->adopted());
  EXPECT_FALSE(lease->lost());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.state, LeaseInfo::State::kHeld);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.owner, "alice");
  EXPECT_EQ(info.adoptions, 0u);
  EXPECT_TRUE(info.error.empty());
  lease->release();
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.state, LeaseInfo::State::kReleased);
  EXPECT_EQ(info.generation, 2u);
  // The shard is claimable again after a release.
  auto again = claim_shard_lease(path, "bob", 10000);
  EXPECT_FALSE(again->adopted());
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "bob");
}

TEST(ShardLease, DoubleClaimIsATransientConflict) {
  ScratchDir dir("double");
  const std::string path = lease_of(dir.str(), 0, 2);
  auto lease = claim_shard_lease(path, "alice", 10000);
  try {
    claim_shard_lease(path, "bob", 10000);
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
    // Transient by contract: retry loops treat it like any host hiccup.
    EXPECT_TRUE(minisc::is_transient(e.kind()));
    EXPECT_NE(std::string(e.what()).find("alice"), std::string::npos)
        << e.what();
  }
  // The conflict left the original claim untouched.
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "alice");
  EXPECT_FALSE(lease->lost());
}

TEST(ShardLease, FreshLeaseOfADeadlessWorkerIsNotAdoptable) {
  ScratchDir dir("not_stale");
  const std::string path = lease_of(dir.str(), 0, 1);
  // A lease file with a current mtime and no live process behind it is
  // indistinguishable from a just-started worker: it must NOT be adopted.
  put_lease(path, lease_info("maybe-alive", 0));
  EXPECT_THROW(claim_shard_lease(path, "bob", 10000), SimError);
  EXPECT_EQ(current(path).generation, 1u);
  EXPECT_EQ(current(path).owner, "maybe-alive");
}

TEST(ShardLease, StaleLeaseIsAdopted) {
  ScratchDir dir("stale");
  const std::string path = lease_of(dir.str(), 0, 1);
  put_lease(path, lease_info("dead-worker", 0));
  make_stale(path);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
  // The dead worker's lease had never been adopted; adoption makes one.
  EXPECT_EQ(info.adoptions, 1u);
  EXPECT_EQ(lease->adoptions(), 1u);
  // Nothing but generations of this lease left behind.
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().string().rfind(path + ".g", 0), 0u) << e.path();
  }
}

TEST(ShardLease, TakenOverLeaseIsObservedLostAndLeftToTheAdopter) {
  ScratchDir dir("takeover");
  const std::string path = lease_of(dir.str(), 0, 1);
  // Tight heartbeat so the probe notices quickly.
  auto lease = claim_shard_lease(path, "victim", 10000, /*heartbeat_ms=*/20);
  // Simulate the adopter's bump: a newer generation names it.
  put_lease(path, lease_info("adopter", 1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!lease->lost() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(lease->lost());
  lease->release();
  // A lost lease belongs to the adopter: release must not bump it.
  EXPECT_EQ(current(path).generation, 2u);
  EXPECT_EQ(current(path).owner, "adopter");
  EXPECT_EQ(current(path).state, LeaseInfo::State::kHeld);
}

// ---- clock skew -----------------------------------------------------------

/// Pushes the current generation's mtime into the future by `minutes`.
void make_future(const std::string& stem, int minutes) {
  shift_mtime(stem, std::chrono::minutes(minutes));
}

TEST(ShardLease, FutureMtimeBeyondTheTtlIsStaleToo) {
  ScratchDir dir("skew_far");
  const std::string path = lease_of(dir.str(), 0, 1);
  put_lease(path, lease_info("skewed-worker", 0));
  // An hour in the future with a 10 s TTL: no honest heartbeat can have
  // produced this mtime, so treating it as "alive until the wall clock
  // catches up" would pin the shard for an hour. It must be adoptable NOW.
  make_future(path, 60);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
}

TEST(ShardLease, FutureMtimeWithinTheTtlIsAlive) {
  ScratchDir dir("skew_near");
  const std::string path = lease_of(dir.str(), 0, 1);
  put_lease(path, lease_info("slightly-ahead", 0));
  // A few seconds ahead is ordinary NFS/VM clock slop around a live
  // heartbeat: within the TTL window in either direction means alive.
  shift_mtime(path, std::chrono::seconds(5));
  EXPECT_THROW(claim_shard_lease(path, "bob", 10000), SimError);
  EXPECT_EQ(current(path).generation, 1u);
  EXPECT_EQ(current(path).owner, "slightly-ahead");
}

// ---- adoption counter & quarantine ----------------------------------------

TEST(ShardLease, AdoptionCounterRoundTripsAcrossGenerations) {
  ScratchDir dir("counter");
  const std::string path = lease_of(dir.str(), 0, 1);
  // Generation 0: fresh claim, counter starts at zero...
  claim_shard_lease(path, "gen0", 10000)->abandon();
  // ...then every crash/adopt cycle increments it through the file.
  for (std::uint64_t gen = 1; gen <= 4; ++gen) {
    make_stale(path);
    const std::string worker = "gen" + std::to_string(gen);
    auto lease = claim_shard_lease(path, worker, 10000);
    EXPECT_TRUE(lease->adopted());
    EXPECT_EQ(lease->adoptions(), gen);
    LeaseInfo info;
    ASSERT_TRUE(read_lease_info(path, &info));
    EXPECT_EQ(info.owner, worker);
    EXPECT_EQ(info.adoptions, gen);
    lease->abandon();  // die without releasing, like a crashed worker
  }
}

TEST(ShardLease, RecordedErrorSurvivesAdoptionIntoTheTombstone) {
  ScratchDir dir("carry_error");
  const std::string path = lease_of(dir.str(), 0, 1);
  {
    auto lease = claim_shard_lease(path, "first", 10000, 0,
                                   /*max_adoptions=*/1);
    lease->record_error("deadline config rejects scenario 'storm'");
    lease->abandon();
  }
  make_stale(path);
  // Adoption 1 carries the recorded error forward in the lease file...
  {
    auto lease = claim_shard_lease(path, "second", 10000, 0, 1);
    EXPECT_EQ(lease->adoptions(), 1u);
    LeaseInfo info;
    ASSERT_TRUE(read_lease_info(path, &info));
    EXPECT_EQ(info.error, "deadline config rejects scenario 'storm'");
    lease->abandon();
  }
  make_stale(path);
  // ...and a second adoption would exceed max_adoptions: the claimer
  // quarantines instead, and the terminal generation still names the
  // original complaint.
  try {
    claim_shard_lease(path, "third", 10000, 0, 1);
    FAIL() << "expected SimError(kShardQuarantined)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kShardQuarantined);
    EXPECT_FALSE(minisc::is_transient(e.kind()));
    EXPECT_NE(std::string(e.what()).find("storm"), std::string::npos)
        << e.what();
  }
  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(path, &qinfo));
  EXPECT_EQ(qinfo.state, LeaseInfo::State::kQuarantined);
  EXPECT_EQ(qinfo.owner, "second");
  EXPECT_EQ(qinfo.adoptions, 1u);
  EXPECT_EQ(qinfo.error, "deadline config rejects scenario 'storm'");
}

TEST(ShardLease, QuarantinedShardRefusesEveryLaterClaim) {
  ScratchDir dir("quarantined_claim");
  const std::string path = lease_of(dir.str(), 0, 1);
  put_lease(path, lease_info("dead-worker", 0));
  make_stale(path);
  // Zero prior adoptions, so with max_adoptions=1 the first stale claim
  // still adopts normally.
  auto lease = claim_shard_lease(path, "adopter", 10000, 0, 1);
  EXPECT_TRUE(lease->adopted());
  lease->abandon();
  make_stale(path);
  // Second stale claim hits the cap and quarantines.
  EXPECT_THROW(claim_shard_lease(path, "late", 10000, 0, 1), SimError);
  ASSERT_EQ(current(path).state, LeaseInfo::State::kQuarantined);
  // From now on EVERY claim sees the terminal generation and reports
  // kShardQuarantined, forever.
  for (int i = 0; i < 2; ++i) {
    try {
      claim_shard_lease(path, "retrier", 10000, 0, 1);
      FAIL() << "expected SimError(kShardQuarantined)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kShardQuarantined);
    }
  }
}

TEST(ShardLease, RacingAdoptersQuarantineExactlyOnce) {
  ScratchDir dir("race_quarantine");
  const std::string path = lease_of(dir.str(), 0, 1);
  // Run the race several rounds: the quarantine bump must pick exactly one
  // winner each time, never two, never zero.
  for (int round = 0; round < 10; ++round) {
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      std::filesystem::remove(e.path());
    }
    put_lease(path, lease_info("doomed", 3));
    make_stale(path);
    std::atomic<int> quarantined{0};
    std::atomic<int> adopted{0};
    std::vector<std::thread> racers;
    for (int t = 0; t < 8; ++t) {
      racers.emplace_back([&, t] {
        try {
          auto lease =
              claim_shard_lease(path, "racer" + std::to_string(t), 10000,
                                /*heartbeat_ms=*/0, /*max_adoptions=*/3);
          ++adopted;  // would be a cap violation, counted and failed below
        } catch (const SimError& e) {
          if (e.kind() == SimError::Kind::kShardQuarantined) ++quarantined;
          // kLeaseConflict losers are fine: they'd retry and then see the
          // quarantined generation, which this loop also asserts.
        }
      });
    }
    for (auto& th : racers) th.join();
    EXPECT_EQ(adopted.load(), 0) << "round " << round;
    EXPECT_GE(quarantined.load(), 1) << "round " << round;
    // The quarantine is the generation right after the doomed one, and no
    // live generation follows it.
    LeaseInfo qinfo;
    ASSERT_TRUE(read_lease_info(path, &qinfo));
    EXPECT_EQ(qinfo.state, LeaseInfo::State::kQuarantined) << "round " << round;
    EXPECT_EQ(qinfo.generation, 2u) << "round " << round;
    EXPECT_EQ(qinfo.owner, "doomed");
    EXPECT_EQ(qinfo.adoptions, 3u);
  }
}

TEST(ShardLease, MaxAdoptionsZeroMeansUnlimited) {
  ScratchDir dir("unlimited");
  const std::string path = lease_of(dir.str(), 0, 1);
  claim_shard_lease(path, "gen0", 10000, 0, /*max_adoptions=*/0)->abandon();
  for (std::uint64_t gen = 1; gen <= 6; ++gen) {
    make_stale(path);
    auto lease = claim_shard_lease(path, "gen" + std::to_string(gen), 10000,
                                   0, /*max_adoptions=*/0);
    EXPECT_TRUE(lease->adopted());
    EXPECT_EQ(lease->adoptions(), gen);
    lease->abandon();
  }
  EXPECT_EQ(current(path).state, LeaseInfo::State::kHeld);
}

// ---- worker loop ----------------------------------------------------------

TEST(ShardWorker, SingleWorkerCompletesEveryShardAndMergesByteIdentically) {
  const std::uint64_t base = 40;
  const std::size_t total = 13;  // deliberately not divisible by 3
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  const std::string want_csv = csv_of(reference);

  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("single_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 3;
    so.worker_id = "solo";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, so, co);
    EXPECT_TRUE(p.campaign_complete);
    EXPECT_EQ(p.shards_run, 3u);
    EXPECT_EQ(p.shards_adopted, 0u);
    EXPECT_EQ(p.runs_executed, total);

    const MergedFleet merged = merge_fleet(dir.str());
    EXPECT_EQ(merged.manifest.base_seed, base);
    EXPECT_EQ(merged.manifest.runs, total);
    EXPECT_EQ(merged.manifest.shard_count, 3u);
    FaultCampaign folded(merged.cells[0].results);
    EXPECT_EQ(csv_of(folded), want_csv) << threads << " threads";
  }
}

TEST(ShardWorker, AdoptionResumesTheDeadWorkersJournalRunningOnlyMissingSeeds) {
  ScratchDir dir("adopt");
  const std::uint64_t base = 40;
  const std::size_t total = 10;  // 2 shards of 5
  const ShardRange r1 = shard_range(1, 2, total);

  // The dead worker journaled shard 1's first two runs before dying...
  JournalHeader h;
  h.base_seed = base + r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  h.worker_id = "dead-worker";
  {
    JournalWriter w(journal_of(dir.str(), 1, 2), h, 1);
    w.append(0, synth_run(base + r1.begin));
    w.append(1, synth_run(base + r1.begin + 1));
  }
  // ...and its lease went stale.
  const std::string lease = lease_of(dir.str(), 1, 2);
  put_lease(lease, lease_info("dead-worker", 0));
  make_stale(lease);

  std::mutex mu;
  std::set<std::uint64_t> executed;
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "survivor";
  const ShardProgress p = run_sharded_campaign(
      [&](std::uint64_t seed) {
        std::unique_lock<std::mutex> lk(mu);
        EXPECT_TRUE(executed.insert(seed).second) << "seed ran twice";
        return synth_run(seed);
      },
      base, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 2u);
  EXPECT_EQ(p.shards_adopted, 1u);
  // Own shard (5) plus only the 3 seeds missing from the adopted journal.
  EXPECT_EQ(p.runs_executed, 8u);
  EXPECT_EQ(executed.count(base + r1.begin), 0u);
  EXPECT_EQ(executed.count(base + r1.begin + 1), 0u);

  // The merge cannot tell who ran what.
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  FaultCampaign folded(merge_fleet(dir.str()).cells[0].results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

TEST(ShardWorker, CorruptAdoptedJournalIsHealedUnderTheExclusiveLease) {
  ScratchDir dir("heal");
  const std::size_t total = 6;
  // Shard 1's journal is bytes-but-no-header: a worker died inside its very
  // first write. The adopter holds the exclusive lease and every run is a
  // pure function of its seed, so it deletes the wreck and re-runs.
  write_file(journal_of(dir.str(), 1, 2), "garbage");
  const std::string lease = lease_of(dir.str(), 1, 2);
  put_lease(lease, lease_info("dead-worker", 0));
  make_stale(lease);

  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "survivor";
  const ShardProgress p = run_sharded_campaign(synth_fn(), 0, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);

  FaultCampaign reference(synth_fn());
  reference.run(0, total);
  FaultCampaign folded(merge_fleet(dir.str()).cells[0].results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

TEST(ShardWorker, TwoWorkersSplitTheCampaignWithZeroOverlap) {
  ScratchDir dir("two");
  const std::uint64_t base = 7;
  const std::size_t total = 24;
  std::mutex mu;
  std::set<std::uint64_t> executed;
  const auto counting_fn = [&](std::uint64_t seed) {
    {
      std::unique_lock<std::mutex> lk(mu);
      EXPECT_TRUE(executed.insert(seed).second)
          << "seed " << seed << " ran twice: the leases leaked a shard";
    }
    return synth_run(seed);
  };

  ShardProgress p0, p1;
  std::thread w0([&] {
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 2;
    so.worker_id = "w0";
    so.poll_ms = 20;
    p0 = run_sharded_campaign(counting_fn, base, total, so);
  });
  std::thread w1([&] {
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 1;
    so.shard_count = 2;
    so.worker_id = "w1";
    so.poll_ms = 20;
    p1 = run_sharded_campaign(counting_fn, base, total, so);
  });
  w0.join();
  w1.join();

  EXPECT_TRUE(p0.campaign_complete);
  EXPECT_TRUE(p1.campaign_complete);
  EXPECT_EQ(executed.size(), total);
  EXPECT_EQ(p0.runs_executed + p1.runs_executed, total);
  EXPECT_EQ(p0.shards_run + p1.shards_run, 2u);

  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  FaultCampaign folded(merge_fleet(dir.str()).cells[0].results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

// ---- merge refusals -------------------------------------------------------

/// Builds a complete, healthy 2-shard fleet in `dir` for refusal tests to
/// then damage.
void build_fleet(const std::string& dir, std::uint64_t base,
                 std::size_t total) {
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "builder";
  const ShardProgress p = run_sharded_campaign(synth_fn(), base, total, so);
  ASSERT_TRUE(p.campaign_complete);
}

TEST(ShardMerge, MissingShardJournalIsIncomplete) {
  ScratchDir dir("missing_shard");
  build_fleet(dir.str(), 0, 10);
  std::filesystem::remove(journal_of(dir.str(), 1, 2));
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("missing: 1"),
              std::string::npos) << e.what();
  }
}

TEST(ShardMerge, MissingRunRecordsAreIncomplete) {
  ScratchDir dir("missing_runs");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Rewrite shard 1's journal with one record missing: an unfinished fleet.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(journal_of(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i + 1 < r1.size(); ++i) {
      w.append(i, synth_run(r1.begin + i));
    }
  }
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("1 of 10 runs have no record"),
              std::string::npos) << e.what();
  }
}

TEST(ShardMerge, MixedScenarioDigestsAreRefused) {
  ScratchDir dir("mixed_digest");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Shard 1 re-written under a different fault model digest.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.scenario_digest = 0xdeadbeef;
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(journal_of(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i < r1.size(); ++i) {
      w.append(i, synth_run(r1.begin + i));
    }
  }
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("different fault models"),
              std::string::npos) << e.what();
  }
}

/// Journal framing (FNV-1a over type+len+payload), same as the writer's,
/// so the tests can fabricate files of a previous format version.
std::string frame_record(char type, const std::string& payload) {
  std::string out;
  out.push_back(type);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  out += payload;
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : out) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
  }
  return out;
}

/// Rewrites a current-version journal as version 2: the header payload
/// loses its trailing v3 steal block (a u64) and stamps version 2, run
/// records are carried verbatim (their framing is version-independent),
/// keeping only the first `keep_records` of them.
void downgrade_journal_to_v2(const std::string& path,
                             std::size_t keep_records) {
  const std::string bytes = read_file(path);
  const auto frame_len = [&bytes](std::size_t pos) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= std::uint32_t(static_cast<unsigned char>(bytes[pos + 1 + i]))
             << (8 * i);
    }
    return std::size_t{1} + 4 + len + 8;
  };
  const std::size_t header_frame = frame_len(0);
  std::string payload = bytes.substr(1 + 4, header_frame - 1 - 4 - 8);
  payload.resize(payload.size() - 8);  // drop the steal_epoch u64
  payload[0] = 2;  // version field: leading u32, little-endian
  payload[1] = payload[2] = payload[3] = 0;
  std::string out = frame_record('H', payload);
  std::size_t pos = header_frame;
  std::size_t kept = 0;
  while (pos < bytes.size() && kept < keep_records) {
    const std::size_t len = frame_len(pos);
    out += bytes.substr(pos, len);
    pos += len;
    ++kept;
  }
  write_file(path, out);
}

TEST(ShardMerge, OldFormatVersionsAreRefusedNamingBothVersions) {
  ScratchDir dir("old_version");
  build_fleet(dir.str(), 0, 10);
  // Shard 1 rewritten under a version-2 header: a journal of an earlier
  // release is a wrong fleet, not a partial one, so even a degraded merge
  // refuses it by both version numbers.
  downgrade_journal_to_v2(journal_of(dir.str(), 1, 2), SIZE_MAX);
  MergeOptions mo;
  mo.allow_partial = true;
  try {
    merge_fleet(dir.str(), mo);
    FAIL() << "expected SimError(kShardVersionMismatch)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kShardVersionMismatch);
    const std::string what = e.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("version 4"), std::string::npos) << what;
  }
}

TEST(ShardMerge, EmptyDirectoryIsIncomplete) {
  ScratchDir dir("empty");
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }
}

// ---- quarantine end-to-end ------------------------------------------------

TEST(ShardWorker, PermanentInfraErrorConvergesToQuarantine) {
  ScratchDir dir("infra_quarantine");
  const std::uint64_t base = 40;
  const std::size_t total = 6;  // 2 shards of 3
  const ShardRange r1 = shard_range(1, 2, total);
  // Shard 1's seeds hit a host whose disk is full: every attempt raises the
  // structured infrastructure error. The worker records it on the lease,
  // abandons, the (self-)adoption counter climbs, and the cap quarantines
  // the poison shard instead of crash-looping forever.
  const auto fn = [&](std::uint64_t seed) -> CampaignRunResult {
    if (seed >= base + r1.begin) {
      throw SimError(SimError::Kind::kIoError,
                     "append 'shard_1_of_2.journal': pwrite: "
                     "No space left on device");
    }
    return synth_run(seed);
  };
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "sick-host";
  so.lease_ttl_ms = 200;  // short TTL so abandoned leases go stale fast
  so.poll_ms = 20;
  so.max_adoptions = 2;
  const ShardProgress p = run_sharded_campaign(fn, base, total, so);
  EXPECT_TRUE(p.fleet_done);
  EXPECT_FALSE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 1u);
  EXPECT_EQ(p.shards_quarantined, 1u);
  // Initial claim plus max_adoptions crash generations, all abandoned.
  EXPECT_EQ(p.shards_abandoned, 3u);

  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(lease_of(dir.str(), 1, 2), &qinfo));
  EXPECT_EQ(qinfo.state, LeaseInfo::State::kQuarantined);
  EXPECT_EQ(qinfo.adoptions, 2u);
  EXPECT_NE(qinfo.error.find("No space left on device"), std::string::npos)
      << qinfo.error;

  // Strict merge refuses the quarantine by name, pointing at the escape
  // hatch; --allow-partial yields the explicitly degraded campaign.
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    EXPECT_NE(what.find("quarantined"), std::string::npos) << what;
    EXPECT_NE(what.find("--allow-partial"), std::string::npos) << what;
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedFleet merged = merge_fleet(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.cells[0].records, total - r1.size());
  EXPECT_EQ(merged.cells[0].runs - merged.cells[0].records, r1.size());
  ASSERT_EQ(merged.cells[0].quarantined.size(), 1u);
  EXPECT_EQ(merged.cells[0].quarantined[0].index, 1u);
  EXPECT_NE(merged.cells[0].quarantined[0].info.error.find("No space left"),
            std::string::npos);
}

// ---- partial merges -------------------------------------------------------

TEST(ShardMerge, AllowPartialCompactsMissingRecordsInSeedOrder) {
  ScratchDir dir("partial_records");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Rewrite shard 1's journal missing its SECOND record: the hole is in the
  // middle of the global seed sequence, so compaction order matters.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(journal_of(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i < r1.size(); ++i) {
      if (i == 1) continue;
      w.append(i, synth_run(r1.begin + i));
    }
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedFleet merged = merge_fleet(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.cells[0].runs - merged.cells[0].records, 1u);
  EXPECT_TRUE(merged.cells[0].missing_shards.empty());
  ASSERT_EQ(merged.cells[0].records, total - 1);
  ASSERT_EQ(merged.cells[0].results.size(), total - 1);
  // Global seed order with exactly the one seed skipped.
  std::size_t at = 0;
  for (std::uint64_t seed = 0; seed < total; ++seed) {
    if (seed == r1.begin + 1) continue;
    EXPECT_EQ(merged.cells[0].results[at].seed, seed);
    ++at;
  }
}

TEST(ShardMerge, AllowPartialListsAWholeMissingShard) {
  ScratchDir dir("partial_shard");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  std::filesystem::remove(journal_of(dir.str(), 1, 2));
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedFleet merged = merge_fleet(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  ASSERT_EQ(merged.cells[0].missing_shards.size(), 1u);
  EXPECT_EQ(merged.cells[0].missing_shards[0], 1u);
  EXPECT_EQ(merged.cells[0].runs - merged.cells[0].records, r1.size());
  EXPECT_EQ(merged.cells[0].records, total - r1.size());
}

TEST(ShardMerge, QuarantineTombstoneDegradesEvenWithAFullJournal) {
  ScratchDir dir("tomb_full");
  const std::size_t total = 10;
  build_fleet(dir.str(), 0, total);
  // The shard was quarantined AFTER journaling everything (e.g. the fatal
  // error hit on the final fsync). Every record is salvageable, but the
  // campaign must still present as degraded: a quarantine is a statement
  // that this fleet needed intervention, not a detail to launder away.
  put_lease(lease_of(dir.str(), 1, 2),
            lease_info("doomed", 3, LeaseInfo::State::kQuarantined,
                       "device reported EIO"));
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedFleet merged = merge_fleet(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.cells[0].records, total);
  EXPECT_EQ(merged.cells[0].runs - merged.cells[0].records, 0u);
  ASSERT_EQ(merged.cells[0].quarantined.size(), 1u);
  EXPECT_EQ(merged.cells[0].quarantined[0].index, 1u);
  EXPECT_EQ(merged.cells[0].quarantined[0].info.owner, "doomed");
  EXPECT_EQ(merged.cells[0].quarantined[0].info.adoptions, 3u);
  EXPECT_EQ(merged.cells[0].quarantined[0].info.error, "device reported EIO");
}

TEST(ShardMerge, PartialMergeIsByteStableAcrossThreads) {
  const std::uint64_t base = 11;
  const std::size_t total = 17;  // 3 shards: 6, 6, 5
  std::string want;
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("partial_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 3;
    so.worker_id = "builder";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, so, co);
    ASSERT_TRUE(p.campaign_complete);
    std::filesystem::remove(journal_of(dir.str(), 1, 3));
    MergeOptions mo;
    mo.allow_partial = true;
    const MergedFleet merged = merge_fleet(dir.str(), mo);
    EXPECT_FALSE(merged.complete);
    const std::string csv = csv_of(FaultCampaign(merged.cells[0].results));
    if (want.empty()) {
      want = csv;
    } else {
      EXPECT_EQ(csv, want) << threads << " threads";
    }
  }
}

// ---- elastic layout (fleet manifest) --------------------------------------

/// Hand-written fleet manifest, matching the pinned writer's format, for
/// tests that need a layout authority without first completing a campaign.
void write_manifest_for_test(const std::string& dir, std::uint64_t base,
                             std::size_t total, std::size_t count,
                             std::uint64_t digest = 0,
                             const std::string& tag = "") {
  write_file(dir + "/fleet.manifest",
             "scperf-fleet v2\nbase_seed " + std::to_string(base) +
                 "\nruns " + std::to_string(total) + "\nshard_count " +
                 std::to_string(count) + "\ndigest " +
                 std::to_string(digest) + "\ntag " + tag + "\n");
}

TEST(ShardElastic, FirstWorkerPinsTheManifestAndItReadsBack) {
  ScratchDir dir("pin");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 3;
  so.worker_id = "pinner";
  CampaignOptions co;
  co.scenario_digest = 777;
  co.journal_tag = "elastic";
  ASSERT_TRUE(run_sharded_campaign(synth_fn(), 40, 13, so, co)
                  .campaign_complete);
  const FleetManifest m = read_fleet_manifest(dir.str());
  EXPECT_EQ(m.base_seed, 40u);
  EXPECT_EQ(m.runs, 13u);
  EXPECT_EQ(m.shard_count, 3u);
  EXPECT_EQ(m.scenario_digest, 777u);
  EXPECT_EQ(m.tag, "elastic");
}

TEST(ShardElastic, UnpinnedDirectoryHasNoManifestToRead) {
  ScratchDir dir("nopin");
  try {
    read_fleet_manifest(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }
}

TEST(ShardElastic, ElasticWorkerWithoutAManifestRefuses) {
  ScratchDir dir("elastic_nomanifest");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // elastic: the manifest is the layout authority
  so.worker_id = "early";
  try {
    run_sharded_campaign(synth_fn(), 40, 13, so);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
  }
}

TEST(ShardElastic, ElasticWorkerRunsTheWholeCampaignFromTheManifestAlone) {
  const std::uint64_t base = 40;
  const std::size_t total = 13;
  FaultCampaign reference(synth_fn());
  reference.run(base, total);

  ScratchDir dir("elastic_runs");
  write_manifest_for_test(dir.str(), base, total, 3);
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // layout (including base seed + runs) from the pin
  so.worker_id = "elastic";
  const ShardProgress p = run_sharded_campaign(synth_fn(), base, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);
  EXPECT_EQ(p.shards_run, 3u);
  const MergedFleet merged = merge_fleet(dir.str());
  EXPECT_EQ(merged.manifest.shard_count, 3u);
  EXPECT_EQ(csv_of(FaultCampaign(merged.cells[0].results)), csv_of(reference));
}

TEST(ShardElastic, ExplicitWorkerDisagreeingWithThePinnedCountRefuses) {
  ScratchDir dir("count_mismatch");
  write_manifest_for_test(dir.str(), 40, 13, 3);
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 4;  // the pin says 3
  so.worker_id = "late";
  try {
    run_sharded_campaign(synth_fn(), 40, 13, so);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    // The refusal teaches the operator the elastic escape hatch.
    EXPECT_NE(std::string(e.what()).find("repartitioned"), std::string::npos)
        << e.what();
  }
}

// ---- live repartition -----------------------------------------------------

TEST(ShardRepartition, MidCampaignMigrationMergesByteIdenticallyAcrossThreads) {
  const std::uint64_t base = 40;
  const std::size_t total = 22;  // 4 shards: 6, 6, 5, 5
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  const std::string want_csv = csv_of(reference);

  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("repart_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 4;
    so.worker_id = "builder";
    ASSERT_TRUE(run_sharded_campaign(synth_fn(), base, total, so)
                    .campaign_complete);
    // Lose one shard's work entirely: the mid-campaign state a repartition
    // must carry forward (21 records live, 5 seeds still owed).
    std::filesystem::remove(journal_of(dir.str(), 3, 4));

    const RepartitionResult r = repartition_fleet(dir.str(), 7);
    EXPECT_EQ(r.old_count, 4u);
    EXPECT_EQ(r.new_count, 7u);
    EXPECT_EQ(r.migrated_records, 17u);  // total minus shard 3's 5 runs
    // Only shards holding migrated records get a journal up front (records
    // [0,17) span new shards 0-5); the all-owed tail shard's journal is
    // created by whichever worker claims it.
    EXPECT_EQ(r.journals_written, 6u);
    EXPECT_EQ(read_fleet_manifest(dir.str()).shard_count, 7u);

    // A manifest-only (elastic) worker finishes exactly the owed seeds.
    ShardOptions eso;
    eso.dir = dir.str();
    eso.shard_count = 0;
    eso.worker_id = "finisher";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, eso, co);
    EXPECT_TRUE(p.campaign_complete);
    EXPECT_EQ(p.runs_executed, 5u);

    const MergedFleet merged = merge_fleet(dir.str());
    EXPECT_EQ(merged.manifest.shard_count, 7u);
    EXPECT_EQ(merged.manifest.runs, total);
    EXPECT_EQ(csv_of(FaultCampaign(merged.cells[0].results)), want_csv)
        << threads << " threads";
  }
}

TEST(ShardRepartition, LiveLeaseRefusesNamingTheOwner) {
  ScratchDir dir("repart_live");
  build_fleet(dir.str(), 0, 10);
  auto lease =
      claim_shard_lease(lease_of(dir.str(), 0, 2), "holdout", 10000);
  try {
    repartition_fleet(dir.str(), 3);
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
    EXPECT_NE(std::string(e.what()).find("holdout"), std::string::npos)
        << e.what();
  }
  lease->release();
  EXPECT_EQ(repartition_fleet(dir.str(), 3).new_count, 3u);
}

TEST(ShardRepartition, QuarantineTombstonesAreDroppedForReearning) {
  ScratchDir dir("repart_tomb");
  build_fleet(dir.str(), 0, 10);
  put_lease(lease_of(dir.str(), 1, 2),
            lease_info("victim", 3, LeaseInfo::State::kQuarantined));
  const RepartitionResult r = repartition_fleet(dir.str(), 3);
  EXPECT_EQ(r.dropped_quarantines, 1u);
  // All 10 records existed, so the re-tiled fleet is already complete and
  // merges cleanly — the quarantine does not survive the new layout.
  const MergedFleet merged = merge_fleet(dir.str());
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.manifest.runs, 10u);
}

/// Completes a single-shard fleet and stamps a sequential-verdict decision
/// record into its journal: the one journal shape that is never split.
std::string build_decided_fleet(const std::string& dir, std::uint64_t base,
                                std::size_t total) {
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 1;
  so.worker_id = "decider";
  EXPECT_TRUE(run_sharded_campaign(synth_fn(), base, total, so)
                  .campaign_complete);
  const std::string path = journal_of(dir, 0, 1);
  const JournalContents before = read_journal(path);
  JournalDecision d;
  d.verdict.estimate = 0.25;
  d.executed = total;
  JournalWriter w(path, before.valid_bytes, /*flush_every=*/1);
  w.append_decision(d);
  w.sync();
  return path;
}

TEST(ShardRepartition, DecidedJournalRefuses) {
  ScratchDir dir("repart_decided");
  build_decided_fleet(dir.str(), 40, 6);
  try {
    repartition_fleet(dir.str(), 2);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("decided"), std::string::npos)
        << e.what();
  }
}

// ---- straggler work stealing ----------------------------------------------

TEST(ShardSteal, SplitsALiveUnitAtTheWatermarkAndMergesByteIdentically) {
  const std::uint64_t base = 40;
  const std::size_t total = 10;
  FaultCampaign reference(synth_fn());
  reference.run(base, total);

  ScratchDir dir("steal_split");
  write_manifest_for_test(dir.str(), base, total, 1);
  const std::string lease_path = lease_of(dir.str(), 0, 1);
  auto victim = claim_shard_lease(lease_path, "victim", 10000);
  victim->reserve_through(0, total);  // watermark at the reserve chunk: 8

  const StealResult s = steal_shard_tail(dir.str(), 0, 10000, "thief");
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.split_at, 8u);
  EXPECT_EQ(s.stolen_runs, 2u);
  EXPECT_TRUE(std::filesystem::exists(
      tail_journal_of(dir.str(), 1, 8)));
  const JournalContents child = read_journal(s.child_journal);
  EXPECT_EQ(child.header.base_seed, base + 8);
  EXPECT_EQ(child.header.runs, 2u);
  EXPECT_EQ(child.header.steal_epoch, 1u);

  // The displaced owner observes the epoch bump at its next probe and must
  // abort: the stolen tail belongs to the thief now.
  EXPECT_THROW(victim->assert_still_mine(), LeaseLostError);
  EXPECT_TRUE(victim->lost());
  victim->release();  // lost: leaves the lease to the steal's generation
  ASSERT_EQ(current(lease_path).state, LeaseInfo::State::kHeld);
  make_stale(lease_path);

  // A survivor adopts the truncated parent ([0,8)) and claims the child
  // ([8,10)); the merge folds both back into the canonical bytes.
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // elastic
  so.worker_id = "survivor";
  const ShardProgress p = run_sharded_campaign(synth_fn(), base, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);
  EXPECT_EQ(p.shards_adopted, 1u);

  const MergedFleet merged = merge_fleet(dir.str());
  EXPECT_EQ(merged.manifest.runs, total);
  EXPECT_EQ(csv_of(FaultCampaign(merged.cells[0].results)), csv_of(reference));
}

TEST(ShardSteal, RefusesWithoutAWatermarkAndAtTheUnitEnd) {
  ScratchDir dir("steal_refuse");
  write_manifest_for_test(dir.str(), 40, 10, 1);
  auto owner =
      claim_shard_lease(lease_of(dir.str(), 0, 1), "owner", 10000);
  // No run dispatched yet: no watermark, nothing can be split safely.
  try {
    steal_shard_tail(dir.str(), 0, 10000, "thief");
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
    EXPECT_NE(std::string(e.what()).find("watermark"), std::string::npos)
        << e.what();
  }
  // Watermark at the unit end: the owner reserved everything.
  owner->reserve_through(9, 10);
  try {
    steal_shard_tail(dir.str(), 0, 10000, "thief");
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
    EXPECT_NE(std::string(e.what()).find("nothing left"), std::string::npos)
        << e.what();
  }
  owner->release();
}

TEST(ShardSteal, DecidedJournalIsNeverSplitNamingTheUnit) {
  ScratchDir dir("steal_decided");
  build_decided_fleet(dir.str(), 40, 6);
  auto owner =
      claim_shard_lease(lease_of(dir.str(), 0, 1), "owner", 10000);
  owner->reserve_through(0, 6);
  try {
    steal_shard_tail(dir.str(), 0, 10000, "thief");
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find("never split"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 0/1"), std::string::npos) << what;
  }
  owner->release();
}

TEST(ShardSteal, SmcUnitIsNeverSplit) {
  // Sequential model checking consumes a campaign's seeds in global order,
  // so a straggling smc unit reserves no watermark and is waited out, never
  // split: a stolen tail would run its own decision over a different seed
  // prefix, and the fleet could no longer be merged.
  const std::uint64_t base = 40;
  const std::size_t total = 40;
  CampaignOptions co;
  co.smc.method = SmcMethod::kSprt;
  co.smc.threshold = 0.2;
  co.smc.delta = 0.05;
  FaultCampaign reference(synth_fn());
  reference.run(base, total, co);

  ScratchDir dir("steal_smc");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 1;
  so.lease_ttl_ms = 1500;
  so.steal_after_ms = 150;
  so.poll_ms = 20;
  // The victim freezes on its 4th seed, live (heartbeating) but stuck.
  std::mutex mu;
  std::condition_variable cv;
  bool frozen = false, thawed = false;
  const auto freezing_fn = [&](std::uint64_t seed) {
    if (seed == base + 3) {
      std::unique_lock<std::mutex> lk(mu);
      frozen = true;
      cv.notify_all();
      cv.wait(lk, [&] { return thawed; });
    }
    return synth_run(seed);
  };
  ShardProgress pv, ps;
  std::thread victim([&] {
    ShardOptions v = so;
    v.worker_id = "victim";
    pv = run_sharded_campaign(freezing_fn, base, total, v, co);
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return frozen; });
  }
  std::thread survivor([&] {
    ShardOptions v = so;
    v.worker_id = "survivor";
    ps = run_sharded_campaign(synth_fn(), base, total, v, co);
  });
  // Several patience windows pass with the victim frozen: a split would
  // have been committed by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  {
    std::lock_guard<std::mutex> lk(mu);
    thawed = true;
  }
  cv.notify_all();
  victim.join();
  survivor.join();

  EXPECT_EQ(ps.shards_stolen, 0u);
  EXPECT_EQ(pv.shards_lost, 0u);
  EXPECT_TRUE(pv.campaign_complete);
  EXPECT_TRUE(ps.campaign_complete);
  EXPECT_FALSE(std::filesystem::exists(tail_journal_of(dir.str(), 1, 8)));
  const MergedFleet merged = merge_fleet(dir.str());
  const MergedCell& cell = merged.cells.at(0);
  ASSERT_TRUE(cell.decision.has_value());
  FaultCampaign rebuilt(cell.results);
  rebuilt.set_smc_verdict(cell.decision->spec, cell.decision->verdict);
  EXPECT_EQ(csv_of(rebuilt), csv_of(reference));
}

TEST(ShardSteal, StolenUnitsSkewedVictimLeaseIsAdoptedExactlyOnce) {
  // Satellite of the clock-skew rule: after a steal, the victim's lease
  // (same owner, bumped epoch) with an mtime in the FUTURE beyond the TTL
  // is stale — and the adoption CAS still picks exactly one winner, so the
  // truncated parent unit is never double-claimed.
  ScratchDir dir("steal_skew");
  write_manifest_for_test(dir.str(), 40, 10, 1);
  const std::string lease_path = lease_of(dir.str(), 0, 1);
  auto victim = claim_shard_lease(lease_path, "victim", 10000);
  victim->reserve_through(0, 10);
  ASSERT_EQ(steal_shard_tail(dir.str(), 0, 10000, "thief").epoch, 1u);
  EXPECT_THROW(victim->assert_still_mine(), LeaseLostError);
  victim->release();
  make_future(lease_path, 60);  // an hour of skew vs a 10 s TTL

  std::atomic<int> winners{0};
  std::atomic<int> conflicts{0};
  std::vector<std::thread> racers;
  std::vector<std::unique_ptr<ShardLease>> held(2);
  for (int i = 0; i < 2; ++i) {
    racers.emplace_back([&, i] {
      try {
        held[i] = claim_shard_lease(lease_path, "adopter" + std::to_string(i),
                                    10000);
        ++winners;
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
        ++conflicts;
      }
    });
  }
  for (auto& t : racers) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(conflicts.load(), 1);
  for (auto& l : held) {
    if (l) l->release();
  }

  // Deterministic (un-raced) adoption of the same skewed post-steal lease
  // carries the steal epoch, so the child-journal partition stays pinned
  // across the ownership change.
  LeaseInfo stolen = lease_info("victim", 0);
  stolen.epoch = 1;
  stolen.split_at = 8;
  put_lease(lease_path, stolen);
  make_future(lease_path, 60);
  auto adopter = claim_shard_lease(lease_path, "adopter", 10000);
  EXPECT_TRUE(adopter->adopted());
  EXPECT_EQ(adopter->epoch(), 1u);
  adopter->release();
}

TEST(ShardSteal, ReleasedLeaseIsNeverCountedAsStalled) {
  ScratchDir dir("stall_clock");
  const std::string stem = lease_of(dir.str(), 0, 1);
  const auto t0 = std::chrono::steady_clock::now();
  const auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  StallTracker stalls;
  // A held lease whose generation does not move is stalled once the
  // patience window has passed...
  auto lease = claim_shard_lease(stem, "owner", 10000);
  EXPECT_FALSE(stalls.stalled(stem, 100, at(0)));
  EXPECT_TRUE(stalls.stalled(stem, 100, at(100)));
  // ...a bump (here a reservation) restarts its clock...
  lease->reserve_through(0, 10);
  EXPECT_FALSE(stalls.stalled(stem, 100, at(200)));
  EXPECT_TRUE(stalls.stalled(stem, 100, at(300)));
  // ...and a released lease is claimable, never stalled, however long its
  // generation sits still. Neither is a lease that does not exist.
  lease->release();
  for (const int ms : {400, 500, 60000}) {
    EXPECT_FALSE(stalls.stalled(stem, 100, at(ms))) << ms;
  }
  const std::string absent = lease_of(dir.str(), 1, 2);
  EXPECT_FALSE(stalls.stalled(absent, 100, at(0)));
  EXPECT_FALSE(stalls.stalled(absent, 100, at(60000)));
}

TEST(ShardSteal, WorkerStealPassSplitsAFrozenStragglerEndToEnd) {
  const std::uint64_t base = 40;
  const std::size_t total = 10;
  FaultCampaign reference(synth_fn());
  reference.run(base, total);

  ScratchDir dir("steal_e2e");
  write_manifest_for_test(dir.str(), base, total, 1);
  const std::string lease_path = lease_of(dir.str(), 0, 1);
  // The straggler: live (heartbeating) but frozen after reserving its
  // first chunk — the exact shape SIGSTOP produces in the CI gate.
  auto victim = claim_shard_lease(lease_path, "victim", 10000);
  victim->reserve_through(0, total);

  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // elastic
  so.worker_id = "survivor";
  so.steal_after_ms = 150;
  so.poll_ms = 50;
  ShardProgress p;
  std::thread survivor(
      [&] { p = run_sharded_campaign(synth_fn(), base, total, so); });

  // Wait for the survivor's steal pass to commit (child journal appears),
  // then let the victim notice, abort, and go stale so the parent can be
  // adopted instead of waited out.
  const std::string child = tail_journal_of(dir.str(), 1, 8);
  for (int i = 0; i < 400 && !std::filesystem::exists(child); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(std::filesystem::exists(child)) << "steal pass never fired";
  EXPECT_THROW(victim->assert_still_mine(), LeaseLostError);
  victim->release();
  make_stale(lease_path);
  survivor.join();

  EXPECT_EQ(p.shards_stolen, 1u);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);
  const MergedFleet merged = merge_fleet(dir.str());
  EXPECT_EQ(csv_of(FaultCampaign(merged.cells[0].results)), csv_of(reference));
}

TEST(ShardStatus, StolenTailsRenderAsChildrenOfTheirShard) {
  ScratchDir dir("status_steal");
  write_manifest_for_test(dir.str(), 40, 10, 1);
  auto victim = claim_shard_lease(lease_of(dir.str(), 0, 1),
                                  "victim", 10000);
  victim->reserve_through(0, 10);
  ASSERT_EQ(steal_shard_tail(dir.str(), 0, 10000, "thief").split_at, 8u);

  const FleetStatus st = fleet_status(dir.str(), 10000);
  ASSERT_EQ(st.entries.size(), 1u);
  EXPECT_EQ(st.entries[0].children, 1u);
  EXPECT_EQ(st.entries[0].runs, 10u);
  std::ostringstream os;
  print_fleet_status(os, st);
  EXPECT_NE(os.str().find("stolen tail"), std::string::npos) << os.str();
  victim->release();
}

// ---- aggregated incompleteness messages -----------------------------------

TEST(ShardMerge, EveryMissingShardIsListedInOneMessage) {
  ScratchDir dir("missing_many");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 4;
  so.worker_id = "builder";
  ASSERT_TRUE(run_sharded_campaign(synth_fn(), 0, 22, so).campaign_complete);
  std::filesystem::remove(journal_of(dir.str(), 1, 4));
  std::filesystem::remove(journal_of(dir.str(), 3, 4));
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    // One round trip tells the operator everything that is owed.
    EXPECT_NE(what.find("2 of 4"), std::string::npos) << what;
    EXPECT_NE(what.find("missing: 1, 3"), std::string::npos) << what;
  }
}

TEST(ShardMerge, EveryQuarantinedUnitIsListedInOneMessage) {
  ScratchDir dir("quarantine_many");
  build_fleet(dir.str(), 0, 10);
  put_lease(lease_of(dir.str(), 0, 2),
            lease_info("w0", 3, LeaseInfo::State::kQuarantined));
  put_lease(lease_of(dir.str(), 1, 2),
            lease_info("w1", 3, LeaseInfo::State::kQuarantined));
  try {
    merge_fleet(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sctrace
