#include "trace/shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <utility>

#include "kernel/error.hpp"

namespace sctrace {
namespace {

using minisc::SimError;

/// Host I/O failures on lease/manifest files are infrastructure errors, not
/// simulation outcomes: kIoError, non-transient, carrying the errno text —
/// same classification as journal appends (trace/journal.cpp).
[[noreturn]] void throw_io(const std::string& path, const char* op) {
  throw SimError(SimError::Kind::kIoError,
                 "'" + path + "': " + op + " failed: " + std::strerror(errno));
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The staleness rule, clock-skew edge included: a lease is alive only when
/// its heartbeat mtime is within one TTL of now in EITHER direction. An
/// mtime more than a TTL in the future (restored snapshot, a clock that
/// once lied forward) is not being refreshed by anyone either — treating it
/// as alive would make the shard unadoptable until the wall clock catches
/// up, which can be never.
bool lease_alive(std::uint64_t mtime_ms, std::uint64_t now_ms,
                 std::uint64_t ttl_ms) {
  return now_ms < mtime_ms + ttl_ms && mtime_ms < now_ms + ttl_ms;
}

/// Whole-file read; "" on any error.
std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Writes `content` to a new private file and fsyncs it: the first half of
/// every publish-by-link or publish-by-rename in this file.
void write_synced(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io(path, "open");
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      ::close(fd);
      ::unlink(path.c_str());
      throw_io(path, "write");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    throw_io(path, "fsync");
  }
  ::close(fd);
}

/// A tmp name no other thread or process of this host uses.
std::string private_tmp(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp-" + std::to_string(static_cast<long>(::getpid())) +
         "-" + std::to_string(counter.fetch_add(1));
}

/// Exclusive creation that is never observed torn: the content is written
/// to a private tmp file (fsynced) and link()ed into place — link fails
/// with EEXIST if the name exists, and the name appears with its full
/// content. Shared by lease generations and the fleet manifest.
bool create_file_exclusive(const std::string& path,
                           const std::string& content) {
  const std::string tmp = private_tmp(path);
  write_synced(tmp, content);
  const int rc = ::link(tmp.c_str(), path.c_str());
  const int saved_errno = errno;
  ::unlink(tmp.c_str());
  if (rc == 0) return true;
  if (saved_errno == EEXIST) return false;
  errno = saved_errno;
  throw_io(path, "link");
}

class PosixLeaseFs final : public LeaseFs {
 public:
  bool create_exclusive(const std::string& path,
                        const std::string& content) override {
    return create_file_exclusive(path, content);
  }
  bool read(const std::string& path, std::string* out) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    out->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return true;
  }
  bool mtime_ms(const std::string& path, std::uint64_t* out) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return false;
    *out = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000ull +
           static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000ull;
    return true;
  }
  int touch(const std::string& path) override {
    return ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) == 0 ? 0 : errno;
  }
  std::vector<std::uint64_t> list_generations(
      const std::string& stem) override {
    const std::filesystem::path p(stem);
    const std::string prefix = p.filename().string() + ".g";
    std::vector<std::uint64_t> gens;
    std::error_code ec;
    const std::filesystem::path dir =
        p.has_parent_path() ? p.parent_path() : std::filesystem::path(".");
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() <= prefix.size() || name.compare(0, prefix.size(),
                                                       prefix) != 0 ||
          name.find_first_not_of("0123456789", prefix.size()) !=
              std::string::npos) {
        continue;  // another unit, or a creator's tmp file
      }
      gens.push_back(std::strtoull(name.c_str() + prefix.size(), nullptr, 10));
    }
    return gens;
  }
  void unlink(const std::string& path) override { ::unlink(path.c_str()); }
  std::uint64_t now_ms() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
};

/// Calls fn(key, value) for every "key value" line of `content` (value ""
/// when the line has no space): the lease and manifest file formats.
template <class Fn>
void for_each_field(const std::string& content, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.find(' ');
    fn(line.substr(0, sp),
       sp == std::string::npos ? std::string() : line.substr(sp + 1));
  }
}

/// Error texts live on one line of the lease file; collapse any newlines.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

const char* state_name(LeaseInfo::State s) {
  static const char* const kNames[] = {"held", "released", "quarantined"};
  return kNames[static_cast<int>(s)];
}

/// The lease CAS: bump `stem` from generation `cur` (0 = none yet) to
/// cur + 1 holding `next`. Generation cur - 1 is unlinked first, never the
/// current one. Because every creator of N+2 removed N before creating,
/// generation N+1 can only vanish after N has — which is what makes the
/// two-file ownership probe (still_mine_locked) sound. A create that finds
/// a higher generation already present lost anyway: either a reader of its
/// generation moved on, or the caller was frozen past two newer generations
/// and re-used a collected name. It takes its generation back.
bool create_next_generation(LeaseFs& fs, const std::string& stem,
                            std::uint64_t cur, const LeaseInfo& next) {
  if (cur >= 2) fs.unlink(lease_generation_path(stem, cur - 1));
  const std::string path = lease_generation_path(stem, cur + 1);
  if (!fs.create_exclusive(path, format_lease(next))) return false;
  const std::vector<std::uint64_t> gens = fs.list_generations(stem);
  if (std::all_of(gens.begin(), gens.end(),
                  [cur](std::uint64_t g) { return g <= cur + 1; })) {
    return true;
  }
  fs.unlink(path);
  return false;
}

std::string quarantine_summary(const LeaseInfo& info) {
  std::string s = "quarantined after " + std::to_string(info.adoptions) +
                  " adoptions (last owner '" + info.owner + "')";
  if (info.error.empty()) {
    s += "; no error recorded — the owner died without reporting one";
  } else {
    s += ": " + info.error;
  }
  return s;
}

bool lease_quarantined(const std::string& stem, LeaseInfo* info) {
  return read_lease_info(stem, info) &&
         info->state == LeaseInfo::State::kQuarantined;
}

[[noreturn]] void throw_conflict(const std::string& stem,
                                 const std::string& why) {
  throw SimError(SimError::Kind::kLeaseConflict,
                 "shard lease '" + stem + "': " + why);
}

[[noreturn]] void throw_quarantined(const std::string& stem,
                                    const std::string& detail) {
  throw SimError(SimError::Kind::kShardQuarantined,
                 "shard lease '" + stem + "': " + detail);
}


}  // namespace

ShardRange shard_range(std::size_t shard, std::size_t shard_count,
                       std::size_t total_runs) {
  if (shard_count == 0 || shard >= shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard_range: shard " + std::to_string(shard) +
                       " out of range for " + std::to_string(shard_count) +
                       " shards");
  }
  const std::size_t base = total_runs / shard_count;
  const std::size_t rem = total_runs % shard_count;
  ShardRange r;
  r.begin = shard * base + std::min(shard, rem);
  r.end = r.begin + base + (shard < rem ? 1 : 0);
  return r;
}
std::string lease_generation_path(const std::string& stem,
                                  std::uint64_t gen) {
  return stem + ".g" + std::to_string(gen);
}


// ---- lease generations -----------------------------------------------------

LeaseFs& posix_lease_fs() {
  static PosixLeaseFs fs;
  return fs;
}

std::string format_lease(const LeaseInfo& info) {
  return std::string("state ") + state_name(info.state) + "\nowner " +
         info.owner + "\nadoptions " + std::to_string(info.adoptions) +
         "\nepoch " + std::to_string(info.epoch) + "\nsplit_at " +
         std::to_string(info.split_at) + "\nerror " + one_line(info.error) +
         "\n";
}

LeaseInfo parse_lease(const std::string& content) {
  LeaseInfo info;
  for_each_field(content, [&info](const std::string& key,
                                  const std::string& value) {
    const std::uint64_t num = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "state") {
      for (const auto s : {LeaseInfo::State::kHeld, LeaseInfo::State::kReleased,
                           LeaseInfo::State::kQuarantined}) {
        if (value == state_name(s)) info.state = s;
      }
    } else if (key == "owner") {
      info.owner = value;
    } else if (key == "adoptions") {
      info.adoptions = num;
    } else if (key == "epoch") {
      info.epoch = num;
    } else if (key == "split_at") {
      info.split_at = num;
    } else if (key == "error") {
      info.error = value;
    }
  });
  return info;
}

bool read_lease_info(const std::string& stem, LeaseInfo* out, LeaseFs& fs) {
  std::uint64_t failed = 0;
  for (;;) {
    const std::vector<std::uint64_t> gens = fs.list_generations(stem);
    if (gens.empty()) return false;
    const std::uint64_t gen = *std::max_element(gens.begin(), gens.end());
    const std::string path = lease_generation_path(stem, gen);
    std::string content;
    std::uint64_t mtime = 0;
    if (!fs.read(path, &content) || !fs.mtime_ms(path, &mtime)) {
      // Unlinked under us (two newer generations exist by now): look again.
      // The same generation failing twice is unreadable, not racing.
      if (gen == failed) return false;
      failed = gen;
      continue;
    }
    *out = parse_lease(content);
    out->generation = gen;
    out->mtime_ms = mtime;
    return true;
  }
}

// ---- ShardLease ----------------------------------------------------------

ShardLease::ShardLease(LeaseFs& fs, std::string stem, LeaseInfo info,
                       bool adopted)
    : fs_(fs),
      stem_(std::move(stem)),
      worker_id_(info.owner),
      adopted_(adopted),
      adoptions_(info.adoptions),
      epoch_(info.epoch),
      gen_(info.generation),
      info_(std::move(info)) {}

ShardLease::~ShardLease() { release(); }

void ShardLease::start_beat(std::uint64_t heartbeat_ms) {
  beat_ = std::thread([this, heartbeat_ms] {
    std::unique_lock<std::mutex> lk(beat_mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(heartbeat_ms),
                         [this] { return stop_; })) {
      lk.unlock();
      const bool mine = heartbeat();
      lk.lock();
      if (!mine) break;
    }
  });
}

std::uint64_t ShardLease::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return gen_;
}

std::string ShardLease::io_error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return io_error_;
}

bool ShardLease::still_mine_locked() const {
  // Order matters: "no g<N+1>" first, then "g<N> still there". A creator
  // of N+3 unlinks N+1 only after a creator of N+2 unlinked N, so a
  // vanished successor is always accompanied by a vanished g<N>.
  std::uint64_t mtime = 0;
  return !lost() &&
         !fs_.mtime_ms(lease_generation_path(stem_, gen_ + 1), &mtime) &&
         fs_.mtime_ms(lease_generation_path(stem_, gen_), &mtime);
}

bool ShardLease::bump_locked(const LeaseInfo& next) {
  if (lost() || !create_next_generation(fs_, stem_, gen_, next)) {
    lost_.store(true, std::memory_order_release);
    return false;
  }
  ++gen_;
  info_ = next;
  return true;
}

bool ShardLease::heartbeat() {
  std::lock_guard<std::mutex> lk(mu_);
  if (still_mine_locked()) {
    const int err = fs_.touch(lease_generation_path(stem_, gen_));
    if (err == 0) return true;
    if (err != ENOENT) {
      // A heartbeat that cannot touch its own lease is an infrastructure
      // failure (EIO, ENOSPC on some filesystems, a yanked mount). Record
      // the errno text — the fleet loop surfaces it as SimError(kIoError)
      // between runs — and keep trying: the flag is sticky either way.
      if (io_error_.empty()) {
        io_error_ = "lease heartbeat on '" + stem_ + "': touch failed: " +
                    std::strerror(err);
      }
      return true;
    }
  }
  // Refreshing someone else's generation would keep a shard we no longer
  // own looking alive: stop beating.
  lost_.store(true, std::memory_order_release);
  return false;
}

void ShardLease::record_error(const std::string& error) {
  // If the lease was already adopted away or stolen, the newer generation
  // belongs to someone else and the bump simply loses.
  std::lock_guard<std::mutex> lk(mu_);
  LeaseInfo next = info_;
  next.error = one_line(error);
  bump_locked(next);
}

void ShardLease::assert_still_mine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (still_mine_locked()) return;
  }
  lost_.store(true, std::memory_order_release);
  throw LeaseLostError(
      "shard lease '" + stem_ + "' has a generation newer than worker '" +
      worker_id_ + "' created (adopted away or stolen); aborting before "
      "appending another record");
}

void ShardLease::reserve_through(std::size_t idx, std::size_t limit) {
  // Reservation chunk: how far past the requested index the watermark jumps,
  // so the lease is bumped once per chunk, not once per run.
  constexpr std::size_t kReserveChunk = 8;
  std::lock_guard<std::mutex> lk(mu_);
  if (idx < reserved_) return;
  std::size_t target = idx + kReserveChunk;
  if (target > limit) target = limit;
  if (target <= idx) target = idx + 1;  // defensive: callers pass idx < limit
  LeaseInfo next = info_;
  next.split_at = target;
  if (!bump_locked(next)) {
    throw LeaseLostError("shard lease '" + stem_ +
                         "': a newer generation won the reservation (stolen "
                         "or adopted away) — the unreserved tail belongs to "
                         "its new owner; aborting the unit");
  }
  reserved_ = target;
}

void ShardLease::stop_beat() {
  {
    std::lock_guard<std::mutex> lk(beat_mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (beat_.joinable()) beat_.join();
}

void ShardLease::release() {
  stop_beat();
  if (released_) return;
  released_ = true;
  std::lock_guard<std::mutex> lk(mu_);
  LeaseInfo next = info_;
  next.state = LeaseInfo::State::kReleased;
  next.split_at = 0;
  try {
    bump_locked(next);  // loses harmlessly when the lease was taken over
  } catch (const SimError& e) {
    // Runs from the destructor too, so it must not throw. A release that
    // could not be written leaves the held generation to go stale; its
    // unit is complete or lost, so nobody needs it sooner.
    if (io_error_.empty()) io_error_ = e.what();
  }
}

void ShardLease::abandon() {
  stop_beat();
  // Deliberately no bump: the held generation stays behind with its error
  // recorded and its heartbeat frozen, goes stale after one TTL, and the
  // next claimer adopts it — or quarantines it once the adoption counter
  // says every adopter has failed the same way.
  released_ = true;
}

std::unique_ptr<ShardLease> claim_shard_lease(const std::string& stem,
                                              const std::string& worker_id,
                                              std::uint64_t lease_ttl_ms,
                                              std::uint64_t heartbeat_ms,
                                              std::uint64_t max_adoptions,
                                              LeaseFs* injected) {
  if (worker_id.empty() || worker_id.find('/') != std::string::npos) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard lease '" + stem + "': worker id '" + worker_id +
                       "' must be non-empty and slash-free");
  }
  if (lease_ttl_ms == 0) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard lease '" + stem + "': lease TTL must be > 0");
  }
  LeaseFs& fs = injected != nullptr ? *injected : posix_lease_fs();

  // Decide from the current generation; the bump below fails if any other
  // transition left it first, so the decision and the commit are one CAS.
  LeaseInfo cur;
  const bool exists = read_lease_info(stem, &cur, fs);
  LeaseInfo next;
  bool adopted = false;
  if (exists) {
    // Quarantine is terminal: no generation ever follows it.
    if (cur.state == LeaseInfo::State::kQuarantined) {
      throw_quarantined(stem, quarantine_summary(cur));
    }
    next = cur;
    next.split_at = 0;  // a new holder reserves afresh before dispatching
    if (cur.state == LeaseInfo::State::kHeld) {
      const std::uint64_t now = fs.now_ms();
      if (lease_alive(cur.mtime_ms, now, lease_ttl_ms)) {
        throw_conflict(stem, "held by live worker '" + cur.owner +
                                 "' (heartbeat " +
                                 std::to_string(now > cur.mtime_ms
                                                    ? now - cur.mtime_ms
                                                    : 0) +
                                 " ms ago, TTL " +
                                 std::to_string(lease_ttl_ms) + " ms)");
      }
      // Stale: the holder stopped heartbeating for a full TTL — dead
      // worker, or one that abandon()ed the shard after a permanent error.
      if (max_adoptions != 0 && cur.adoptions >= max_adoptions) {
        // Poison shard: every one of max_adoptions adopters died or gave up.
        // Quarantine instead of adopting, keeping the last owner's record.
        LeaseInfo tomb = cur;
        tomb.state = LeaseInfo::State::kQuarantined;
        if (!create_next_generation(fs, stem, cur.generation, tomb)) {
          throw_conflict(stem, "stale, but another worker moved it first");
        }
        throw_quarantined(stem, quarantine_summary(tomb));
      }
      ++next.adoptions;
      adopted = true;
    }
  }
  next.state = LeaseInfo::State::kHeld;
  next.owner = worker_id;
  if (!create_next_generation(fs, stem, cur.generation, next)) {
    throw_conflict(stem, "generation " + std::to_string(cur.generation + 1) +
                             " was created by another worker first");
  }
  next.generation = cur.generation + 1;
  std::unique_ptr<ShardLease> lease(
      new ShardLease(fs, stem, std::move(next), adopted));
  if (injected == nullptr) {
    std::uint64_t hb = heartbeat_ms != 0 ? heartbeat_ms : lease_ttl_ms / 4;
    lease->start_beat(hb != 0 ? hb : 1);
  }
  return lease;
}

LeaseInfo steal_lease(const std::string& stem, std::size_t unit_runs,
                      std::uint64_t lease_ttl_ms, LeaseFs& fs) {
  LeaseInfo cur;
  if (!read_lease_info(stem, &cur, fs) ||
      cur.state != LeaseInfo::State::kHeld) {
    throw_conflict(stem, "nothing to steal: no live lease (claim the unit "
                         "instead)");
  }
  if (!lease_alive(cur.mtime_ms, fs.now_ms(), lease_ttl_ms)) {
    throw_conflict(stem, "stale — adopt the whole unit instead of stealing "
                         "its tail");
  }
  if (cur.split_at == 0) {
    throw_conflict(stem, "owner '" + cur.owner +
                             "' maintains no reservation watermark "
                             "(stealing disabled, or no run dispatched yet)");
  }
  if (cur.split_at >= unit_runs) {
    throw_conflict(stem, "nothing left to steal (watermark at the unit end)");
  }
  // The holder's name stays for status; nobody heartbeats this generation,
  // so the truncated unit goes stale after one TTL and is adopted whole.
  LeaseInfo next = cur;
  ++next.epoch;
  if (!create_next_generation(fs, stem, cur.generation, next)) {
    throw_conflict(stem, "the lease moved mid-steal (reserved, released, "
                         "adopted or stolen first)");
  }
  next.generation = cur.generation + 1;
  return next;
}

bool StallTracker::stalled(const std::string& stem, std::uint64_t patience_ms,
                           std::chrono::steady_clock::time_point now) {
  LeaseInfo li;
  if (!read_lease_info(stem, &li) || li.state != LeaseInfo::State::kHeld) {
    seen_.erase(stem);  // claimable or terminal, not a straggler
    return false;
  }
  auto it = seen_.find(stem);
  if (it == seen_.end() || it->second.first != li.generation) {
    seen_[stem] = {li.generation, now};
    return false;
  }
  const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - it->second.second)
                        .count();
  return idle >= 0 && static_cast<std::uint64_t>(idle) >= patience_ms;
}

// ---- the manifest, unit names and the one directory scan -------------------

namespace {

constexpr const char* kManifestMagic = "scperf-fleet v2\n";

std::string manifest_path(const std::string& dir) {
  return dir + "/fleet.manifest";
}

std::string format_manifest(const FleetManifest& m) {
  std::string s = std::string(kManifestMagic) + "base_seed " +
                  std::to_string(m.base_seed) + "\nruns " +
                  std::to_string(m.runs) + "\nshard_count " +
                  std::to_string(m.shard_count) + "\ndigest " +
                  std::to_string(m.scenario_digest) + "\ntag " + m.tag + "\n";
  for (const std::string& name : m.mappings) s += "mapping " + name + "\n";
  for (const std::string& name : m.scenarios) s += "scenario " + name + "\n";
  return s;
}

/// "shard 2/4" or "mapping/scenario", plus " tail@<begin>" for a stolen tail.
std::string unit_name(const FleetManifest& m, const Unit& u) {
  std::string name = m.sweep() ? m.cell_mapping(u.cell) + "/" +
                                     m.cell_scenario(u.cell)
                               : "shard " + std::to_string(u.shard) + "/" +
                                     std::to_string(m.shard_count);
  if (u.epoch != 0) name += " tail@" + std::to_string(u.range.begin);
  return name;
}

/// Pins `mine` as the fleet's manifest, or verifies it against the one
/// already pinned, and returns the pinned manifest. Exactly one worker
/// creates it; everyone else compares and refuses on any difference — except
/// the shard count, where an explicit worker that disagrees is told the
/// fleet was repartitioned. mine.shard_count == 0 (elastic) requires the
/// manifest to exist and takes its shard count.
FleetManifest pin_manifest(const std::string& dir, const FleetManifest& mine,
                           const std::string& who) {
  const std::string path = manifest_path(dir);
  if (mine.shard_count != 0 &&
      create_file_exclusive(path, format_manifest(mine))) {
    return mine;
  }
  if (mine.shard_count == 0 && !file_exists(path)) {
    throw SimError(SimError::Kind::kBadConfig,
                   who + ": elastic worker (shard_count 0) needs the layout "
                         "authority '" + path + "', which does not exist — "
                         "launch one worker with an explicit shard count "
                         "first (it pins the manifest)");
  }
  const FleetManifest pinned = read_fleet_manifest(dir);
  FleetManifest same_count = pinned;
  same_count.shard_count = mine.shard_count;
  if (format_manifest(same_count) != format_manifest(mine)) {
    throw SimError(
        SimError::Kind::kBadConfig,
        who + ": this worker's fleet (seed " + std::to_string(mine.base_seed) +
            ", " + std::to_string(mine.runs) + " runs, digest " +
            std::to_string(mine.scenario_digest) + ", tag '" + mine.tag +
            "', " + std::to_string(mine.mappings.size()) + "x" +
            std::to_string(mine.scenarios.size()) +
            " grid) disagrees with the manifest pinned in '" + dir +
            "' — a worker from a different campaign would corrupt the "
            "fleet's units");
  }
  if (mine.shard_count != 0 && pinned.shard_count != mine.shard_count) {
    throw SimError(
        SimError::Kind::kBadConfig,
        who + ": this worker was launched for " +
            std::to_string(mine.shard_count) +
            " shards but the manifest pins " +
            std::to_string(pinned.shard_count) +
            " — the fleet was repartitioned; relaunch the worker elastic "
            "(shard_count 0, e.g. --shard-dir alone) to follow the manifest");
  }
  return pinned;
}

}  // namespace

std::string FleetManifest::cell_tag(std::size_t cell) const {
  if (!sweep()) return tag;
  const std::string name = cell_mapping(cell) + "/" + cell_scenario(cell);
  return tag.empty() ? name : tag + ":" + name;
}

FleetManifest read_fleet_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "fleet manifest '" + path +
                       "' does not exist — no fleet ever pinned a layout in "
                       "this directory");
  }
  const std::string content = read_whole_file(path);
  const auto corrupt = [&path](const std::string& why) {
    return SimError(SimError::Kind::kJournalCorrupt,
                    "fleet manifest '" + path + "': " + why);
  };
  const std::string magic = kManifestMagic;
  if (content.compare(0, magic.size(), magic) != 0) {
    throw corrupt("bad magic line '" +
                  content.substr(0, content.find('\n')) + "'");
  }
  FleetManifest m;
  for_each_field(content.substr(magic.size()), [&](const std::string& key,
                                                   const std::string& value) {
    const std::uint64_t num = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "base_seed") {
      m.base_seed = num;
    } else if (key == "runs") {
      m.runs = static_cast<std::size_t>(num);
    } else if (key == "shard_count") {
      m.shard_count = static_cast<std::size_t>(num);
    } else if (key == "digest") {
      m.scenario_digest = num;
    } else if (key == "tag") {
      m.tag = value;
    } else if (key == "mapping") {
      m.mappings.push_back(value);
    } else if (key == "scenario") {
      m.scenarios.push_back(value);
    } else if (!key.empty()) {
      throw corrupt("unrecognised line '" + key + " " + value + "'");
    }
  });
  if (m.shard_count == 0 || m.mappings.empty() != m.scenarios.empty()) {
    throw corrupt("zero shard_count, or a grid with only one axis");
  }
  return m;
}

std::string unit_stem(const std::string& dir, const FleetManifest& m,
                      const Unit& u) {
  std::string stem = dir + (m.sweep() ? "/cell_" : "/shard_") +
                     std::to_string(u.cell * m.shard_count + u.shard) +
                     "_of_" + std::to_string(m.cells() * m.shard_count);
  if (u.epoch != 0) {
    stem += ".steal" + std::to_string(u.epoch) + "_at" +
            std::to_string(u.range.begin);
  }
  return stem;
}

std::vector<Unit> fleet_units(const std::string& dir, const FleetManifest& m) {
  const std::size_t slots = m.cells() * m.shard_count;
  const std::string prefix = m.sweep() ? "cell_" : "shard_";
  // Stolen tails per canonical shard, by cell-local begin. Any journal or
  // lease generation of a tail marks a committed split.
  std::vector<std::map<std::size_t, std::uint64_t>> tails(slots);
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::size_t slot = 0, count = 0, begin = 0;
    unsigned long long epoch = 0;
    int used = 0;
    if (name.compare(0, prefix.size(), prefix) != 0 ||
        std::sscanf(name.c_str() + prefix.size(),
                    "%zu_of_%zu.steal%llu_at%zu%n", &slot, &count, &epoch,
                    &begin, &used) != 4 ||
        count != slots || slot >= slots) {
      continue;  // a primary's file, another layout's, or not a unit file
    }
    const std::string rest = name.substr(prefix.size() + used);
    if (rest != ".journal" && rest.compare(0, 8, ".lease.g") != 0) continue;
    std::uint64_t& e = tails[slot][begin];
    e = std::max<std::uint64_t>(e, epoch);
  }
  if (ec) {
    throw SimError(SimError::Kind::kIoError, "fleet directory '" + dir +
                                                 "': cannot list it: " +
                                                 ec.message());
  }
  // Each steal truncated exactly the unit it stole from, so the sorted
  // tail begins tile the shard: every unit ends where the next begins.
  std::vector<Unit> units;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    Unit u;
    u.cell = slot / m.shard_count;
    u.shard = slot % m.shard_count;
    const ShardRange shard = shard_range(u.shard, m.shard_count, m.runs);
    u.range = shard;
    for (const auto& [begin, epoch] : tails[slot]) {
      if (begin <= u.range.begin || begin >= shard.end) continue;  // stray
      u.range.end = begin;
      units.push_back(u);
      u.range = {begin, shard.end};
      u.epoch = epoch;
    }
    units.push_back(u);
  }
  return units;
}

// ---- the worker loop -------------------------------------------------------

namespace {

/// How many of a unit journal's first `runs` local indices hold a record (0
/// for a missing, torn-header or corrupt journal). `*complete` says whether
/// the journal owes nothing more: every index recorded, or — for an
/// early-stopped unit — every index below its decision's executed count.
/// Never throws: status probes must not fail, and a claimer heals what it
/// cannot read.
std::size_t journal_coverage(const std::string& path, std::size_t runs,
                             bool* complete) {
  *complete = runs == 0;
  JournalContents jc;
  try {
    jc = read_journal(path);
  } catch (const SimError&) {
    return 0;
  }
  std::vector<bool> done(runs, false);
  std::size_t have = 0;
  for (const JournalRecord& rec : jc.records) {
    if (rec.index < runs && !done[rec.index]) {
      done[rec.index] = true;
      ++have;
    }
  }
  const std::size_t owed =
      jc.decision ? std::min<std::size_t>(jc.decision->executed, runs) : runs;
  *complete = std::all_of(done.begin(), done.begin() + owed,
                          [](bool d) { return d; });
  return have;
}

/// The journal header of unit `u`, as its first writer creates it.
JournalHeader unit_header(const FleetManifest& m, const Unit& u,
                          const std::string& worker_id) {
  JournalHeader h;
  h.base_seed = m.base_seed + u.range.begin;
  h.runs = u.range.size();
  h.scenario_digest = m.scenario_digest;
  h.tag = m.cell_tag(u.cell);
  h.shard_index = u.shard;
  h.shard_count = m.shard_count;
  h.shard_begin = u.range.begin;
  h.total_runs = m.runs;
  h.worker_id = worker_id;
  h.steal_epoch = u.epoch;
  return h;
}

/// The steal commit: bump the victim lease (steal_lease: epoch incremented,
/// watermark pinned — the same CAS as the owner's reserve_through, so
/// exactly one of them wins), then create the tail's journal — the durable
/// split marker whose filename encodes the new partition. A crash between
/// the two steps is a harmless no-op: the epoch bumped but no tail exists,
/// so the displaced owner aborts, the lease goes stale, and the next
/// claimer adopts the unit whole.
StealResult steal_tail(const std::string& dir, const FleetManifest& m,
                       const Unit& u, std::uint64_t lease_ttl_ms,
                       const std::string& thief_id) {
  // Decided journals are never split: the decision record pins the global
  // seed order of the sequential campaign, and a tail would claim runs the
  // campaign chose never to execute.
  const std::string stem = unit_stem(dir, m, u);
  std::optional<JournalContents> jc;
  try {
    jc = read_journal(stem + ".journal");
  } catch (const SimError&) {
    // Missing or unreadable: nothing decided (the tail's claimer heals).
  }
  if (jc && jc->decision) {
    throw SimError(SimError::Kind::kBadConfig,
                   "work stealing: " + unit_name(m, u) + " ('" + stem +
                       ".journal') carries a sequential-verdict decision "
                       "record — decided journals are never split");
  }
  const LeaseInfo next =
      steal_lease(stem + ".lease", u.range.size(), lease_ttl_ms);
  Unit tail = u;
  tail.range.begin += static_cast<std::size_t>(next.split_at);
  tail.epoch = next.epoch;
  StealResult r;
  r.epoch = next.epoch;
  r.split_at =
      tail.range.begin - shard_range(u.shard, m.shard_count, m.runs).begin;
  r.stolen_runs = tail.range.size();
  r.child_journal = unit_stem(dir, m, tail) + ".journal";
  JournalWriter(r.child_journal, unit_header(m, tail, thief_id),
                /*flush_every=*/1)
      .sync();
  return r;
}

/// The self-healing claim/run/adopt/quarantine loop behind both worker
/// entry points. The manifest and the units are re-read every pass, so a
/// live repartition and a peer's steal show up without a restart. Each
/// pass (from the worker's preferred unit, roaming upward) skips
/// quarantined and complete units, claims the rest and runs them as
/// journaled+resumed campaigns. A lost lease aborts the unit (its new owner
/// owns the journal); kJournalCorrupt is healed by re-running the unit
/// under the held lease (runs are pure functions of their seeds); any other
/// SimError is recorded in the lease, which is abandoned to go stale — the
/// adoption counter quarantines the unit once every adopter has failed.
/// Exits when every unit is complete or quarantined, or when max_wait_ms
/// expires while peers hold the remaining leases.
ShardProgress run_fleet(const ShardOptions& shard, const FleetManifest& mine,
                        const std::vector<FaultCampaign::RunFn>& cell_fns,
                        const CampaignOptions& opts, const std::string& who) {
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   who + ": shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  if (pin_manifest(shard.dir, mine, who).shard_count > 1 &&
      opts.smc.engaged()) {
    throw SimError(
        SimError::Kind::kBadConfig,
        who + ": sequential model checking needs the campaign's global seed "
              "order, which a sharded campaign splits — run the smc campaign "
              "unsharded, or shard a sweep (cells are whole campaigns and "
              "prune independently)");
  }
  const std::string worker_id =
      !shard.worker_id.empty()
          ? shard.worker_id
          : "w" + std::to_string(shard.shard_index) + ".pid" +
                std::to_string(static_cast<long>(::getpid()));
  // A unit whose campaign engages smc is never split: its sequential
  // decision consumes the seeds in global order. It reserves no watermark
  // and is never a steal candidate.
  const bool splittable = !opts.smc.engaged() && shard.steal_after_ms > 0;

  ShardProgress prog;
  std::set<std::string> quarantined;  // terminal units, keyed by lease stem
  StallTracker stalls;  // straggler clock of the steal pass
  const auto started = std::chrono::steady_clock::now();
  FleetManifest m;
  std::vector<Unit> units;
  for (;;) {
    m = read_fleet_manifest(shard.dir);
    units = fleet_units(shard.dir, m);
    bool all_done = true;
    bool progressed = false;
    std::vector<std::size_t> steal_candidates;
    const std::size_t prefer =
        units.empty() ? 0 : shard.shard_index % units.size();
    for (std::size_t k = 0; k < units.size(); ++k) {
      // Start at our preferred unit and roam upward: a fleet spreads across
      // the units instead of stampeding the same lease.
      const std::size_t i = (prefer + k) % units.size();
      const Unit& unit = units[i];
      const std::string stem = unit_stem(shard.dir, m, unit);
      const std::string lease_stem = stem + ".lease";
      const std::size_t runs = unit.range.size();
      LeaseInfo li;
      if (quarantined.count(lease_stem) ||
          lease_quarantined(lease_stem, &li)) {
        quarantined.insert(lease_stem);  // terminal: skip without claiming
        continue;
      }
      bool complete = false;
      journal_coverage(stem + ".journal", runs, &complete);
      if (complete) continue;
      all_done = false;

      std::unique_ptr<ShardLease> lease;
      try {
        lease = claim_shard_lease(lease_stem, worker_id, shard.lease_ttl_ms,
                                  shard.heartbeat_ms, shard.max_adoptions);
      } catch (const SimError& e) {
        if (e.kind() == SimError::Kind::kLeaseConflict) {
          // Transient by contract: a live peer owns the unit (or won an
          // adoption race). The outer pass-and-poll loop is the backoff —
          // and a live peer's unit is what the steal pass may split.
          ++prog.lease_conflicts;
          if (splittable) steal_candidates.push_back(i);
          continue;
        }
        if (e.kind() == SimError::Kind::kShardQuarantined) {
          // Terminal by contract — whether this claim performed the
          // quarantine or merely found it, the fleet moves on.
          quarantined.insert(lease_stem);
          progressed = true;
          continue;
        }
        throw;
      }

      CampaignOptions co = opts;
      co.journal_path = stem + ".journal";
      co.journal_tag = m.cell_tag(unit.cell);
      co.resume = true;  // adoption = resuming the dead worker's journal
      co.worker_id = worker_id;
      co.shard_index = unit.shard;
      co.shard_count = m.shard_count;
      co.shard_begin = unit.range.begin;
      co.total_runs = m.runs;
      co.steal_epoch = unit.epoch;
      // A stolen-from unit shrinks after its journal header was written, so
      // resume must tolerate header.runs covering a superset of the unit.
      co.accept_journal_superset = true;
      const std::uint64_t base_seed = m.base_seed + unit.range.begin;

      std::atomic<std::size_t> executed{0};
      ShardLease* held = lease.get();
      // Pre-append lease probe: a stolen or adopted-away unit must abort
      // BEFORE its next record lands — "not a single duplicate run".
      co.pre_append = [held](std::size_t) { held->assert_still_mine(); };

      // With stealing enabled, every dispatch first raises the reservation
      // watermark past its unit-local index (chunked, so the lease rewrite
      // cost is amortised): the owner only ever appends indices below the
      // watermark, which is exactly what makes a concurrent steal of
      // [watermark, end) disjoint by construction.
      const FaultCampaign::RunFn& fn = cell_fns[unit.cell];
      const FaultCampaign::RunFn wrapped = [&, held](std::uint64_t seed) {
        if (held->lost()) {
          throw LeaseLostError(
              "shard lease '" + held->path() + "' was adopted away from '" +
              held->worker_id() +
              "' (heartbeat stalled past the TTL, or the unit's tail was "
              "stolen); aborting the unit — its new owner owns the journal "
              "now");
        }
        const std::string io = held->io_error();
        if (!io.empty()) {
          // Heartbeat I/O failure: surface it as the structured
          // infrastructure error it is. kIoError is exempt from failed-run
          // recording (FaultCampaign::run rethrows it), so it lands in the
          // abandon path below, not in the statistics.
          throw SimError(SimError::Kind::kIoError, io);
        }
        if (splittable) {
          held->reserve_through(static_cast<std::size_t>(seed - base_seed),
                                runs);
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        return fn(seed);
      };

      const auto run_unit = [&] {
        FaultCampaign campaign(wrapped);
        campaign.run(base_seed, runs, co);
      };
      const auto abandon_with = [&](const SimError& e) {
        // Permanent failure executing this unit. Record it and walk away:
        // the lease goes stale with the error attached, adoption keeps the
        // fleet trying, the adoption counter caps how long.
        lease->record_error(e.what());
        lease->abandon();
        ++prog.shards_abandoned;
      };

      bool completed_unit = false;
      try {
        run_unit();
        completed_unit = true;
      } catch (const LeaseLostError&) {
        ++prog.shards_lost;
      } catch (const SimError& e) {
        if (e.kind() == SimError::Kind::kJournalCorrupt) {
          // The journal is damaged beyond the torn-tail tolerance (torn
          // header, bit rot). We hold the exclusive lease and every run is
          // a pure function of its seed, so re-running the whole unit
          // reproduces bit-identical records: delete and start fresh.
          std::remove(co.journal_path.c_str());
          try {
            run_unit();
            completed_unit = true;
          } catch (const LeaseLostError&) {
            ++prog.shards_lost;
          } catch (const SimError& e2) {
            abandon_with(e2);
          }
        } else {
          abandon_with(e);
        }
      }
      prog.runs_executed += executed.load(std::memory_order_relaxed);
      if (completed_unit) {
        ++prog.shards_run;
        if (lease->adopted()) ++prog.shards_adopted;
        progressed = true;
        lease->release();
      }
    }

    if (all_done) {
      prog.fleet_done = true;
      break;
    }
    if (!progressed && !steal_candidates.empty()) {
      // Steal pass: the claim pass is drained (every remaining unit is
      // leased by a live peer), so look for a straggler: a unit whose held
      // lease generation has not moved for steal_after_ms (StallTracker).
      // Stealing splits the live unit at its watermark: the owner keeps
      // [begin, split_at), we take [split_at, end) as a new unit that the
      // next pass claims through the ordinary path.
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i : steal_candidates) {
        const std::string lease_stem = unit_stem(shard.dir, m, units[i]) +
                                       ".lease";
        if (!stalls.stalled(lease_stem, shard.steal_after_ms, now)) continue;
        try {
          steal_tail(shard.dir, m, units[i], shard.lease_ttl_ms, worker_id);
          ++prog.shards_stolen;
          progressed = true;
          stalls.forget(lease_stem);
        } catch (const SimError& e) {
          if (e.kind() == SimError::Kind::kLeaseConflict) {
            // Lost the steal race, the lease went stale (adopt instead),
            // or the owner holds no watermark. Transient: retry the
            // ordinary claim next pass.
            ++prog.lease_conflicts;
          } else if (e.kind() == SimError::Kind::kBadConfig) {
            // Decided journal: never split. Leave it to its owner.
            stalls.forget(lease_stem);
          } else {
            throw;
          }
        }
      }
    }
    if (!progressed) {
      // Every remaining unit is leased by a live peer (or was lost to an
      // adopter). Wait for the fleet — or for a peer's lease to go stale.
      if (shard.max_wait_ms != 0) {
        const auto waited =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (waited >= 0 &&
            static_cast<std::uint64_t>(waited) >= shard.max_wait_ms) {
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(shard.poll_ms));
    }
  }
  // Count terminal units against the final layout (a live repartition may
  // have retired lease paths quarantined under an earlier layout).
  for (const Unit& u : units) {
    const std::string lease_stem = unit_stem(shard.dir, m, u) + ".lease";
    LeaseInfo li;
    if (quarantined.count(lease_stem) || lease_quarantined(lease_stem, &li)) {
      ++prog.shards_quarantined;
    }
  }
  prog.campaign_complete = prog.fleet_done && prog.shards_quarantined == 0;
  return prog;
}

}  // namespace

ShardProgress run_sharded_campaign(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed,
                                   std::size_t total_runs,
                                   const ShardOptions& shard,
                                   const CampaignOptions& opts) {
  // shard_count == 0 is *elastic* mode: the layout is read from the fleet
  // manifest instead of the command line.
  if (shard.shard_count != 0 && shard.shard_index >= shard.shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_campaign: worker index " +
                       std::to_string(shard.shard_index) +
                       " out of range for " +
                       std::to_string(shard.shard_count) + " shards");
  }
  FleetManifest mine;
  mine.base_seed = base_seed;
  mine.runs = total_runs;
  mine.shard_count = shard.shard_count;
  mine.scenario_digest = opts.scenario_digest;
  mine.tag = opts.journal_tag;
  return run_fleet(shard, mine, {fn}, opts, "run_sharded_campaign");
}

ShardProgress run_sharded_sweep(const std::vector<std::string>& mappings,
                                const std::vector<std::string>& scenarios,
                                const CampaignSweep::Factory& factory,
                                std::uint64_t base_seed, std::size_t n,
                                const ShardOptions& shard,
                                const CampaignOptions& opts) {
  if (mappings.empty() || scenarios.empty() || !factory) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: the mapping x scenario grid must be "
                   "non-empty and a cell factory given");
  }
  FleetManifest mine;
  mine.base_seed = base_seed;  // common random numbers across cells
  mine.runs = n;
  mine.shard_count = 1;  // a cell is one shard; its tails may still split
  mine.scenario_digest = opts.scenario_digest;
  mine.tag = opts.journal_tag;
  mine.mappings = mappings;
  mine.scenarios = scenarios;
  std::vector<FaultCampaign::RunFn> cell_fns;
  for (std::size_t c = 0; c < mine.cells(); ++c) {
    cell_fns.push_back(factory(mine.cell_mapping(c), mine.cell_scenario(c)));
  }
  return run_fleet(shard, mine, cell_fns, opts, "run_sharded_sweep");
}

StealResult steal_shard_tail(const std::string& dir, std::size_t shard,
                             std::uint64_t lease_ttl_ms,
                             const std::string& thief_id) {
  const FleetManifest m = read_fleet_manifest(dir);
  if (shard >= m.shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "steal_shard_tail: shard " + std::to_string(shard) +
                       " out of range for " + std::to_string(m.shard_count) +
                       " shards");
  }
  // Steal from the unit that owns the tail: the deepest one whose lease is
  // held (the primary by default). steal_tail re-validates liveness and the
  // watermark.
  const std::vector<Unit> units = fleet_units(dir, m);
  const Unit* victim = nullptr;
  for (const Unit& u : units) {
    if (u.cell != 0 || u.shard != shard) continue;
    LeaseInfo li;
    if (victim == nullptr ||
        (read_lease_info(unit_stem(dir, m, u) + ".lease", &li) &&
         li.state == LeaseInfo::State::kHeld)) {
      victim = &u;
    }
  }
  return steal_tail(dir, m, *victim, lease_ttl_ms, thief_id);
}

// ---- repartition -----------------------------------------------------------

namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// Bit-exact record equality. The byte-identity contract says a re-run of a
/// seed reproduces the identical record, so duplicates across journals must
/// agree bit-for-bit — doubles compare by IEEE-754 bit pattern, not value
/// (NaN == NaN here, and -0.0 != +0.0, exactly like the journal bytes).
bool same_result(const CampaignRunResult& a, const CampaignRunResult& b) {
  if (a.seed != b.seed || a.completed != b.completed || a.error != b.error ||
      a.attempts != b.attempts || a.makespan != b.makespan ||
      a.deadline_total != b.deadline_total ||
      a.deadline_missed != b.deadline_missed ||
      a.faults_injected != b.faults_injected ||
      a.value_hash != b.value_hash ||
      !bits_equal(a.log_weight, b.log_weight) ||
      !bits_equal(a.energy_pj, b.energy_pj) ||
      !bits_equal(a.fault_energy_pj, b.fault_energy_pj) ||
      a.recovery_latencies_ns.size() != b.recovery_latencies_ns.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.recovery_latencies_ns.size(); ++i) {
    if (!bits_equal(a.recovery_latencies_ns[i], b.recovery_latencies_ns[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

RepartitionResult repartition_fleet(const std::string& dir,
                                    std::size_t new_count,
                                    std::uint64_t lease_ttl_ms) {
  if (new_count == 0) {
    throw SimError(SimError::Kind::kBadConfig,
                   "repartition_fleet: new shard count must be > 0");
  }
  const FleetManifest m = read_fleet_manifest(dir);
  if (m.sweep()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "repartition_fleet: '" + dir +
                       "' holds a sweep fleet — its grid is its tiling; "
                       "only campaign fleets repartition");
  }
  RepartitionResult res;
  res.old_count = m.shard_count;
  res.new_count = new_count;
  const std::vector<Unit> units = fleet_units(dir, m);

  // ---- validate everything before mutating anything ------------------------
  // Refuse while any unit lease is live: repartition rewrites the very
  // journals a live owner is appending to. All live leases in one message.
  const std::uint64_t now = posix_lease_fs().now_ms();
  std::string live;
  std::size_t n_live = 0, n_leases = 0;
  for (const Unit& u : units) {
    const std::string stem = unit_stem(dir, m, u) + ".lease";
    LeaseInfo info;
    if (!read_lease_info(stem, &info)) continue;
    ++n_leases;
    if (info.state == LeaseInfo::State::kQuarantined) ++res.dropped_quarantines;
    if (info.state != LeaseInfo::State::kHeld ||
        !lease_alive(info.mtime_ms, now, lease_ttl_ms)) {
      continue;
    }
    ++n_live;
    if (!live.empty()) live += "; ";
    live += "'" + stem + "' (owner '" + info.owner + "')";
  }
  if (n_live > 0) {
    throw SimError(
        SimError::Kind::kLeaseConflict,
        "repartition_fleet: " + std::to_string(n_live) +
            " unit lease(s) are live: " + live +
            " — repartition rewrites journals, so the units must be "
            "unowned; wait for the fleet to drain (workers release leases "
            "between units) or for the leases to go stale");
  }
  res.stale_leases_removed = n_leases - res.dropped_quarantines;

  // Collect every readable record, keyed by run index, refusing decided
  // journals, foreign journals and bit-differing duplicates.
  std::map<std::size_t, CampaignRunResult> records;
  for (const Unit& u : units) {
    const std::string jpath = unit_stem(dir, m, u) + ".journal";
    JournalContents jc;
    try {
      jc = read_journal(jpath);
    } catch (const SimError&) {
      // Missing, or torn beyond the tail tolerance: every run is a pure
      // function of its seed, so nothing is lost by re-running it.
      continue;
    }
    const JournalHeader& h = jc.header;
    if (jc.decision) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "repartition_fleet: journal '" + jpath +
              "' carries a sequential-verdict decision record — the "
              "decision pins the global seed order of a single-shard "
              "campaign, and decided units are never split or re-tiled");
    }
    if (h.scenario_digest != m.scenario_digest || h.tag != m.tag ||
        h.base_seed - h.shard_begin != m.base_seed ||
        h.total_runs != m.runs) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "repartition_fleet: journal '" + jpath +
              "' disagrees with the fleet manifest (seed/digest/tag/"
              "total_runs) — it belongs to a different campaign; remove it "
              "by hand before repartitioning");
    }
    for (JournalRecord& rec : jc.records) {
      const std::size_t index =
          static_cast<std::size_t>(h.shard_begin) + rec.index;
      if (rec.index >= h.runs || index >= m.runs) continue;  // defensive
      const auto [it, fresh] = records.emplace(index, rec.result);
      if (!fresh && !same_result(it->second, rec.result)) {
        throw SimError(
            SimError::Kind::kJournalCorrupt,
            "repartition_fleet: run " + std::to_string(index) +
                " is recorded twice with bit-differing results ('" + jpath +
                "' vs an earlier journal) — determinism is broken; refusing "
                "to pick one");
      }
    }
  }

  // ---- mutate: new journals, then the manifest, then old-file removal ------
  // This order is crash-tolerant: new journals appear additively
  // (tmp+rename) under names the old layout's scan does not see, and the
  // manifest flip is atomic; a crash before it leaves the old layout
  // authoritative, a crash after it leaves old files nothing reads.
  FleetManifest next = m;
  next.shard_count = new_count;
  std::set<std::string> keep;
  for (std::size_t i = 0; i < new_count; ++i) {
    Unit nu;
    nu.shard = i;
    nu.range = shard_range(i, new_count, m.runs);
    const std::string jpath = unit_stem(dir, next, nu) + ".journal";
    keep.insert(jpath);
    const auto lo = records.lower_bound(nu.range.begin);
    const auto hi = records.lower_bound(nu.range.end);
    if (lo == hi) continue;  // nothing recorded: workers start it fresh
    const std::string tmp = jpath + ".tmp-repartition";
    {
      JournalWriter w(tmp, unit_header(next, nu, "repartition"));
      for (auto it = lo; it != hi; ++it) {
        w.append(it->first - nu.range.begin, it->second);
        ++res.migrated_records;
      }
      w.sync();
    }
    if (::rename(tmp.c_str(), jpath.c_str()) != 0) throw_io(jpath, "rename");
    ++res.journals_written;
  }
  const std::string manifest_tmp = private_tmp(manifest_path(dir));
  write_synced(manifest_tmp, format_manifest(next));
  if (::rename(manifest_tmp.c_str(), manifest_path(dir).c_str()) != 0) {
    ::unlink(manifest_tmp.c_str());
    throw_io(manifest_path(dir), "rename");
  }

  // Old-layout files go. Every unit lease belongs to a retired unit (no
  // lease is live), so its generations are removed whole. Quarantines are
  // NOT carried into the new tiling: they name units that no longer exist,
  // and a genuinely poisoned seed re-earns its quarantine under the new
  // layout via the normal adoption-cap self-healing.
  for (const Unit& u : units) {
    const std::string stem = unit_stem(dir, m, u);
    std::vector<std::string> files;
    if (keep.count(stem + ".journal") == 0) files.push_back(stem + ".journal");
    for (const std::uint64_t g :
         posix_lease_fs().list_generations(stem + ".lease")) {
      files.push_back(lease_generation_path(stem + ".lease", g));
    }
    for (const std::string& p : files) {
      if (std::remove(p.c_str()) == 0) ++res.old_files_removed;
    }
  }
  return res;
}

// ---- merge ------------------------------------------------------------------

namespace {

[[noreturn]] void throw_merge_bad(const std::string& what) {
  throw SimError(SimError::Kind::kBadConfig, "fleet merge: " + what);
}

void append_note(std::string* list, const std::string& note) {
  if (!list->empty()) *list += "; ";
  *list += note;
}

/// One unit journal of a cell, read and checked against the manifest.
struct UnitJournal {
  std::string path;
  JournalContents contents;
};

/// Folds one cell: reads its units' journals, refuses identity mismatches,
/// duplicate units, cross-journal overlap and illegal decisions, and fills
/// `cell` — returning its shortfall ("" when complete).
std::string merge_cell(const std::string& dir, const FleetManifest& m,
                       const std::vector<Unit>& units, MergedCell* cell) {
  std::vector<UnitJournal> journals;
  std::vector<bool> shard_seen(m.shard_count, false);
  // Units are keyed by (shard, begin) as their headers declare them: two
  // journals claiming the same start are ambiguous however long they run.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> claims;
  std::string dups;
  for (const Unit& u : units) {
    const std::string stem = unit_stem(dir, m, u);
    QuarantinedUnit q{u.shard, unit_name(m, u), {}};
    if (lease_quarantined(stem + ".lease", &q.info)) {
      append_note(&cell->error, quarantine_summary(q.info));
      cell->quarantined.push_back(std::move(q));
    }
    UnitJournal j{stem + ".journal", {}};
    if (!file_exists(j.path)) continue;
    shard_seen[u.shard] = true;
    try {
      j.contents = read_journal(j.path);
    } catch (const SimError& e) {
      // Another format version is a wrong fleet, not a partial one. Any
      // other unreadable journal salvages nothing; its runs show as missing.
      if (e.kind() == SimError::Kind::kShardVersionMismatch) throw;
      append_note(&cell->error, e.what());
      continue;
    }
    const JournalHeader& h = j.contents.header;
    if (h.scenario_digest != m.scenario_digest) {
      throw_merge_bad("journal '" + j.path + "' has scenario digest " +
                      std::to_string(h.scenario_digest) +
                      " but the manifest pins " +
                      std::to_string(m.scenario_digest) +
                      " — different fault models do not merge");
    }
    // Range containment, not equality: a tail covers [split_at, end) of its
    // shard, and a stolen-from unit's header still advertises the range it
    // was created for. Either way it must sit inside its canonical shard.
    const ShardRange want = shard_range(u.shard, m.shard_count, m.runs);
    if (h.tag != m.cell_tag(u.cell) ||
        h.base_seed - h.shard_begin != m.base_seed ||
        h.shard_index != u.shard || h.shard_count != m.shard_count ||
        h.total_runs != m.runs || h.shard_begin < want.begin ||
        h.shard_begin + h.runs > want.end) {
      throw_merge_bad(
          "journal '" + j.path + "' (tag '" + h.tag + "', shard " +
          std::to_string(h.shard_index) + "/" + std::to_string(h.shard_count) +
          " at [" + std::to_string(h.shard_begin) + ", +" +
          std::to_string(h.runs) + ") of " + std::to_string(h.total_runs) +
          " runs from seed " + std::to_string(h.base_seed - h.shard_begin) +
          ") is not " + unit_name(m, u) + " of the manifest's fleet (tag '" +
          m.cell_tag(u.cell) + "', " + std::to_string(m.runs) +
          " runs from seed " + std::to_string(m.base_seed) +
          ") — mixed fleets and shard layouts do not merge");
    }
    auto [it, fresh] = claims.emplace(
        std::make_pair(h.shard_index, h.shard_begin), j.path);
    if (!fresh) {
      append_note(&dups, "shard " + std::to_string(h.shard_index) + " @" +
                             std::to_string(h.shard_begin) + " ('" +
                             it->second + "', '" + j.path + "')");
    }
    journals.push_back(std::move(j));
  }
  if (!dups.empty()) {
    // Ambiguity, not partial-ness: even a degraded merge cannot decide
    // which duplicate journal to trust.
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "fleet merge: the same unit appears in more than one "
                   "journal: " + dups +
                       " — ambiguous which journal to trust");
  }

  // A decision record legalises recorded-runs < runs: the campaign stopped
  // issuing seeds once the verdict crossed a boundary. Sequential campaigns
  // are single-shard and never split, so a decision beside other journals
  // can only mean corruption or a hand-mixed fleet.
  std::size_t owed = m.runs;
  for (const UnitJournal& j : journals) {
    if (!j.contents.decision) continue;
    if (m.shard_count > 1 || journals.size() > 1) {
      throw_merge_bad("journal '" + j.path +
                      "' carries a sequential-verdict decision record but "
                      "its cell has " + std::to_string(m.shard_count) +
                      " shards and " + std::to_string(journals.size()) +
                      " journals — a decided campaign is one journal "
                      "(decided units are never split), so this fleet is "
                      "corrupt or hand-mixed");
    }
    cell->decision = j.contents.decision;
    owed = std::min<std::size_t>(cell->decision->executed, m.runs);
  }

  // Fold records into the cell's slots. Duplicate indices within a journal
  // are benign (a lease-TTL violation appends bit-identical records); the
  // last one wins, like journal resume. One slot in two journals is not.
  std::vector<CampaignRunResult> slots(m.runs);
  std::vector<std::size_t> owner(m.runs, SIZE_MAX);
  std::size_t overlaps = 0;
  std::string overlap_list;
  for (std::size_t j = 0; j < journals.size(); ++j) {
    const JournalHeader& h = journals[j].contents.header;
    for (JournalRecord& rec : journals[j].contents.records) {
      if (rec.index >= h.runs) {
        throw SimError(SimError::Kind::kJournalCorrupt,
                       "fleet merge: journal '" + journals[j].path +
                           "': record index " + std::to_string(rec.index) +
                           " out of range (unit has " +
                           std::to_string(h.runs) + " runs)");
      }
      const std::size_t slot = h.shard_begin + rec.index;
      if (owner[slot] != SIZE_MAX && owner[slot] != j) {
        if (++overlaps <= 4) {
          append_note(&overlap_list,
                      "index " + std::to_string(slot) + " in '" +
                          journals[owner[slot]].path + "' and '" +
                          journals[j].path + "'");
        }
        continue;
      }
      owner[slot] = j;
      slots[slot] = std::move(rec.result);
    }
  }
  if (overlaps > 0) {
    throw_merge_bad(std::to_string(overlaps) +
                    " run slots are recorded by more than one journal (" +
                    overlap_list + (overlaps > 4 ? "; …" : "") +
                    ") — unit ranges must be disjoint; the steal partition "
                    "or the layout is corrupt");
  }

  // Everything the cell still owes, in one line.
  std::string why;
  for (std::size_t s = 0; s < m.shard_count; ++s) {
    if (!shard_seen[s] && !shard_range(s, m.shard_count, m.runs).empty()) {
      cell->missing_shards.push_back(s);
    }
  }
  if (!cell->missing_shards.empty()) {
    std::string list;
    for (const std::size_t s : cell->missing_shards) {
      list += (list.empty() ? "" : ", ") + std::to_string(s);
    }
    append_note(&why, "no journal for " +
                          std::to_string(cell->missing_shards.size()) +
                          " of " + std::to_string(m.shard_count) +
                          " shards (missing: " + list + ")");
  }
  std::string spans;
  std::size_t n_spans = 0, missing = 0;
  for (std::size_t i = 0; i < owed; ++i) {
    if (owner[i] != SIZE_MAX) continue;
    std::size_t e = i;
    while (e < owed && owner[e] == SIZE_MAX) ++e;
    missing += e - i;
    if (++n_spans <= 8) {
      append_note(&spans, "[" + std::to_string(i) + ", " +
                              std::to_string(e) + ")");
    }
    i = e;  // slot e is recorded (or the end); the ++ skips it
  }
  if (n_spans > 8) {
    append_note(&spans, "… " + std::to_string(n_spans - 8) + " more spans");
  }
  if (missing > 0) {
    append_note(&why, std::to_string(missing) + " of " +
                          std::to_string(owed) +
                          " runs have no record (missing spans: " + spans +
                          ")");
  }
  if (!cell->quarantined.empty()) {
    std::string list;
    for (const QuarantinedUnit& q : cell->quarantined) {
      append_note(&list, q.name + " (" + quarantine_summary(q.info) + ")");
    }
    append_note(&why, std::to_string(cell->quarantined.size()) +
                          " quarantined unit(s) never complete: " + list);
  }

  // Recorded runs in seed order: the whole prefix when complete, compacted
  // otherwise — deterministic for any worker interleaving either way.
  cell->runs = owed;
  cell->records = owed - missing;
  cell->results.reserve(cell->records);
  for (std::size_t i = 0; i < owed; ++i) {
    if (owner[i] != SIZE_MAX) cell->results.push_back(std::move(slots[i]));
  }
  cell->state = !cell->quarantined.empty() ? CellState::kQuarantined
                : missing == 0             ? CellState::kComplete
                : journals.empty() && cell->error.empty()
                    ? CellState::kMissing
                    : CellState::kPartial;
  return why;
}

}  // namespace

MergedFleet merge_fleet(const std::string& dir, const MergeOptions& opts) {
  MergedFleet out;
  out.manifest = read_fleet_manifest(dir);
  const FleetManifest& m = out.manifest;
  const std::vector<Unit> units = fleet_units(dir, m);
  std::string shortfall;
  std::size_t n_short = 0;
  auto first = units.begin();
  for (std::size_t c = 0; c < m.cells(); ++c) {
    MergedCell cell;
    cell.index = c;
    if (m.sweep()) {
      cell.mapping = m.cell_mapping(c);
      cell.scenario = m.cell_scenario(c);
    }
    const auto last = std::find_if(first, units.end(),
                                   [c](const Unit& u) { return u.cell != c; });
    const std::string why =
        merge_cell(dir, m, std::vector<Unit>(first, last), &cell);
    first = last;
    if (!why.empty()) {
      out.complete = false;
      // Every incomplete cell in one refusal (the first 16 spelled out):
      // an operator fixes the fleet in one round trip, not one per cell.
      if (++n_short <= 16) {
        append_note(&shortfall, m.sweep() ? cell.mapping + "/" +
                                                cell.scenario + " " +
                                                to_string(cell.state) +
                                                " (" + why + ")"
                                          : why);
      }
    }
    out.cells.push_back(std::move(cell));
  }
  if (!out.complete && !opts.allow_partial) {
    throw SimError(
        SimError::Kind::kMergeIncomplete,
        "fleet merge: " + shortfall +
            (n_short > 16 ? "; … " + std::to_string(n_short - 16) +
                                " more cells"
                          : "") +
            " — a partial merge would silently bias every statistic; finish "
            "the fleet (workers re-claim incomplete units), or merge with "
            "allow_partial (--allow-partial) for an explicitly degraded "
            "report");
  }
  return out;
}

const char* to_string(CellState s) {
  static const char* const kNames[] = {"complete", "partial", "missing",
                                       "quarantined"};
  return kNames[static_cast<int>(s)];
}

namespace {

std::size_t count_cells(const std::vector<MergedCell>& cells, CellState s) {
  return static_cast<std::size_t>(std::count_if(
      cells.begin(), cells.end(),
      [s](const MergedCell& c) { return c.state == s; }));
}

FaultCampaign rebuild(const MergedCell& c) {
  FaultCampaign campaign(c.results);
  if (c.decision) {
    campaign.set_smc_verdict(c.decision->spec, c.decision->verdict);
  }
  return campaign;
}

}  // namespace

std::size_t MergedFleet::complete_cells() const {
  return count_cells(cells, CellState::kComplete);
}

std::size_t MergedFleet::quarantined_cells() const {
  return count_cells(cells, CellState::kQuarantined);
}

CampaignSweep MergedFleet::to_sweep() const {
  std::vector<CampaignSweep::Cell> out;
  for (const MergedCell& c : cells) {
    if (c.state != CellState::kComplete) continue;
    out.push_back(CampaignSweep::Cell{c.mapping, c.scenario,
                                      rebuild(c).report()});
  }
  return CampaignSweep(manifest.mappings, manifest.scenarios, std::move(out));
}

void MergedFleet::print(std::ostream& os) const {
  if (!complete) {
    os << "DEGRADED sweep merge: " << complete_cells() << " of "
       << cells.size() << " cells complete ("
       << count_cells(cells, CellState::kPartial) << " partial, "
       << count_cells(cells, CellState::kMissing) << " missing, "
       << quarantined_cells()
       << " quarantined) — statistics cover recorded runs only\n";
  }
  to_sweep().print(os);
  if (complete) return;
  for (const MergedCell& c : cells) {
    if (c.state == CellState::kComplete) continue;
    os << "  cell " << c.mapping << "/" << c.scenario << ": ";
    switch (c.state) {
      case CellState::kPartial:
        os << "partial — " << c.records << " of " << c.runs
           << " runs recorded";
        if (!c.error.empty()) os << " (" << c.error << ")";
        break;
      case CellState::kMissing:
        os << "missing — no journal recorded";
        break;
      case CellState::kQuarantined:
        os << (c.error.empty() ? "quarantined" : c.error);
        if (c.records > 0) {
          os << " (" << c.records << " of " << c.runs << " runs salvaged)";
        }
        break;
      case CellState::kComplete:
        break;
    }
    os << '\n';
  }
}

void MergedFleet::write_csv(std::ostream& os) const {
  if (complete) {
    // Byte-identical to the uninterrupted single-process sweep CSV.
    to_sweep().write_csv(os);
    return;
  }
  // Degraded CSV: the normal columns over whatever each cell recorded, plus
  // completeness columns so no downstream reader can mistake a partial grid
  // for a finished one. Every cell appears, in grid order.
  os << "mapping,scenario,runs,failed_runs,deadline_total,deadline_missed,"
        "miss_rate,miss_rate_ci95,mean_makespan_ns,mean_energy_pj,"
        "mean_fault_energy_pj,records,expected_runs,state\n";
  for (const MergedCell& c : cells) {
    const CampaignReport rep = rebuild(c).report();
    os << c.mapping << ',' << c.scenario << ',' << rep.runs << ','
       << rep.failed_runs << ',' << rep.deadline_total << ','
       << rep.deadline_missed << ',' << rep.miss_rate << ','
       << rep.miss_rate_ci95 << ',' << rep.makespan_ns.mean << ','
       << rep.mean_energy_pj << ',' << rep.mean_fault_energy_pj << ','
       << c.records << ',' << c.runs << ',' << to_string(c.state) << '\n';
  }
}

// ---- read-only fleet status ------------------------------------------------

const char* to_string(ShardStatusEntry::State s) {
  static const char* const kNames[] = {"done", "claimed", "stale",
                                       "quarantined", "unclaimed"};
  return kNames[static_cast<int>(s)];
}

FleetStatus fleet_status(const std::string& dir, std::uint64_t lease_ttl_ms) {
  using State = ShardStatusEntry::State;
  const FleetManifest m = read_fleet_manifest(dir);
  const std::vector<Unit> units = fleet_units(dir, m);
  const std::uint64_t now = posix_lease_fs().now_ms();
  // Urgency when a shard's units disagree: quarantined, then claimed, then
  // stale, then unclaimed names the entry's state and owner.
  const auto rank = [](State s) {
    return s == State::kQuarantined ? 0 : static_cast<int>(s);
  };
  FleetStatus st;
  st.units = m.cells() * m.shard_count;
  for (std::size_t k = 0; k < units.size();) {
    // One entry per canonical shard, folded over its units (the primary
    // plus any stolen tails): records and runs sum across them, and done
    // requires every unit done. Pure observation: stat() and read() only.
    ShardStatusEntry e;
    e.index = units[k].cell * m.shard_count + units[k].shard;
    e.name = unit_name(m, units[k]);
    bool all_done = true;
    const std::size_t cell = units[k].cell, shard = units[k].shard;
    for (; k < units.size() && units[k].cell == cell && units[k].shard == shard;
         ++k) {
      const std::string stem = unit_stem(dir, m, units[k]);
      if (units[k].epoch != 0) ++e.children;
      bool complete = false;
      e.records +=
          journal_coverage(stem + ".journal", units[k].range.size(), &complete);
      e.runs += units[k].range.size();
      LeaseInfo info;
      const bool has_lease = read_lease_info(stem + ".lease", &info);
      State s = State::kUnclaimed;
      if (has_lease && info.state == LeaseInfo::State::kQuarantined) {
        s = State::kQuarantined;
      } else if (complete) {
        continue;  // done
      } else if (has_lease && info.state == LeaseInfo::State::kHeld) {
        s = lease_alive(info.mtime_ms, now, lease_ttl_ms) ? State::kClaimed
                                                          : State::kStale;
      }
      all_done = false;
      if (rank(s) >= rank(e.state)) continue;
      e.state = s;
      e.owner = info.owner;
      e.adoptions = info.adoptions;
      e.heartbeat_age_ms = static_cast<std::int64_t>(now) -
                           static_cast<std::int64_t>(info.mtime_ms);
      e.error = info.error;
    }
    if (all_done) e.state = State::kDone;
    std::size_t* const tally[] = {&st.done, &st.claimed, &st.stale,
                                  &st.quarantined, &st.unclaimed};
    ++*tally[static_cast<int>(e.state)];
    st.records += e.records;
    st.runs += e.runs;
    st.entries.push_back(std::move(e));
  }
  return st;
}

void print_fleet_status(std::ostream& os, const FleetStatus& st) {
  os << "fleet: " << st.units << " units — " << st.done << " done, "
     << st.claimed << " claimed, " << st.stale << " stale, " << st.quarantined
     << " quarantined, " << st.unclaimed << " unclaimed";
  if (st.runs > 0) os << "; runs " << st.records << "/" << st.runs;
  if (st.fleet_done()) os << " — fleet done";
  os << '\n';
  std::size_t name_w = 4;
  for (const ShardStatusEntry& e : st.entries) {
    name_w = std::max(name_w, e.name.size());
  }
  for (const ShardStatusEntry& e : st.entries) {
    os << "  [" << std::setw(3) << e.index << "] " << std::left
       << std::setw(static_cast<int>(name_w) + 2) << e.name << std::right
       << std::setw(12) << to_string(e.state) << "  " << e.records << "/"
       << e.runs;
    if (e.children > 0) {
      os << "  (+" << e.children << " stolen tail"
         << (e.children > 1 ? "s" : "") << ")";
    }
    if (e.state == ShardStatusEntry::State::kClaimed ||
        e.state == ShardStatusEntry::State::kStale) {
      os << "  owner '" << e.owner << "'";
      if (e.heartbeat_age_ms >= 0) {
        os << "  heartbeat " << e.heartbeat_age_ms << " ms ago";
      } else {
        os << "  heartbeat " << -e.heartbeat_age_ms
           << " ms in the future (clock skew)";
      }
      if (e.adoptions > 0) os << "  adoptions " << e.adoptions;
    } else if (e.state == ShardStatusEntry::State::kQuarantined) {
      os << "  last owner '" << e.owner << "'  adoptions " << e.adoptions;
    }
    if (!e.error.empty()) os << "  error: " << e.error;
    os << '\n';
  }
}

}  // namespace sctrace
