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
#include <tuple>
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
/// content. Shared by lease generations and the fleet/sweep manifests.
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

/// Error texts live on one line of the lease file; collapse any newlines.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

const char* state_name(LeaseInfo::State s) {
  switch (s) {
    case LeaseInfo::State::kHeld: return "held";
    case LeaseInfo::State::kReleased: return "released";
    case LeaseInfo::State::kQuarantined: return "quarantined";
  }
  return "?";
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

[[noreturn]] void throw_merge_bad(const std::string& what) {
  throw SimError(SimError::Kind::kBadConfig, "campaign merge: " + what);
}

[[noreturn]] void throw_merge_incomplete(const std::string& what) {
  throw SimError(SimError::Kind::kMergeIncomplete, "campaign merge: " + what);
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

std::string shard_journal_path(const std::string& dir, std::size_t shard,
                               std::size_t shard_count) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".journal";
}

std::string shard_lease_path(const std::string& dir, std::size_t shard,
                             std::size_t shard_count) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".lease";
}

std::string cell_journal_path(const std::string& dir, std::size_t cell,
                              std::size_t cell_count) {
  return dir + "/cell_" + std::to_string(cell) + "_of_" +
         std::to_string(cell_count) + ".journal";
}

std::string cell_lease_path(const std::string& dir, std::size_t cell,
                            std::size_t cell_count) {
  return dir + "/cell_" + std::to_string(cell) + "_of_" +
         std::to_string(cell_count) + ".lease";
}

std::string lease_generation_path(const std::string& stem,
                                  std::uint64_t gen) {
  return stem + ".g" + std::to_string(gen);
}

namespace {

std::string steal_stem(const std::string& dir, std::size_t shard,
                       std::size_t shard_count, std::uint64_t epoch,
                       std::size_t begin) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".steal" + std::to_string(epoch) +
         "_at" + std::to_string(begin);
}

/// One stolen-tail child unit, as recovered from the directory listing.
struct StealChild {
  std::size_t begin = 0;  ///< parent-local first run index of the child
  std::uint64_t epoch = 0;
};

/// Discovers the steal children of one shard from filenames alone: any
/// ".steal<epoch>_at<begin>" journal or lease generation marks a committed
/// split. Returned sorted by begin — the sorted begins tile the shard, each
/// sub-unit ending where the next begins (see the steal contract in the
/// header): the steal that created a child truncated exactly the unit it
/// stole from, so no further bookkeeping is needed to recover the partition.
std::vector<StealChild> scan_steal_children(const std::string& dir,
                                            std::size_t shard,
                                            std::size_t shard_count) {
  std::map<std::size_t, std::uint64_t> by_begin;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::size_t s = 0, count = 0, begin = 0;
    unsigned long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "shard_%zu_of_%zu.steal%llu_at%zu%n", &s,
                    &count, &epoch, &begin, &consumed) != 4 ||
        consumed <= 0) {
      continue;
    }
    const std::string rest = name.substr(static_cast<std::size_t>(consumed));
    if (rest != ".journal" && rest.compare(0, 8, ".lease.g") != 0) continue;
    if (s != shard || count != shard_count) continue;
    auto [it, inserted] =
        by_begin.emplace(begin, static_cast<std::uint64_t>(epoch));
    if (!inserted && epoch > it->second) it->second = epoch;
  }
  std::vector<StealChild> out;
  out.reserve(by_begin.size());
  for (const auto& [begin, epoch] : by_begin) out.push_back({begin, epoch});
  return out;
}

/// Recognises a primary unit's files, "shard_<i>_of_<N>.journal" and its
/// lease generations "shard_<i>_of_<N>.lease.g<k>"; false for anything else
/// (steal children, tmp files, other units' files).
bool parse_shard_file(const std::string& name, std::size_t* shard,
                      std::size_t* count, bool* is_lease) {
  int consumed = 0;
  if (std::sscanf(name.c_str(), "shard_%zu_of_%zu.%n", shard, count,
                  &consumed) != 2 ||
      consumed == 0) {
    return false;
  }
  const std::string rest = name.substr(static_cast<std::size_t>(consumed));
  *is_lease = rest.size() > 7 && rest.compare(0, 7, "lease.g") == 0 &&
              rest.find_first_not_of("0123456789", 7) == std::string::npos;
  return *is_lease || rest == "journal";
}

}  // namespace

std::string shard_steal_journal_path(const std::string& dir, std::size_t shard,
                                     std::size_t shard_count,
                                     std::uint64_t epoch, std::size_t begin) {
  return steal_stem(dir, shard, shard_count, epoch, begin) + ".journal";
}

std::string shard_steal_lease_path(const std::string& dir, std::size_t shard,
                                   std::size_t shard_count,
                                   std::uint64_t epoch, std::size_t begin) {
  return steal_stem(dir, shard, shard_count, epoch, begin) + ".lease";
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
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string value = sp == std::string::npos ? "" : line.substr(sp + 1);
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
  }
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

// ---- shard completion / coverage probes ------------------------------------

namespace {

/// A journal's done-bitmap over its first `bound` indices (bound 0 = the
/// header's run count), or nullopt for a missing, torn-header or corrupt
/// journal. Shared by the coverage and completeness probes.
struct JournalCoverage {
  JournalContents contents;
  std::vector<bool> done;
  std::size_t have = 0;
};

std::optional<JournalCoverage> journal_coverage(const std::string& path,
                                                std::size_t bound) {
  JournalCoverage c;
  try {
    c.contents = read_journal(path);
  } catch (const SimError&) {
    return std::nullopt;
  }
  if (bound == 0) bound = static_cast<std::size_t>(c.contents.header.runs);
  c.done.assign(bound, false);
  for (const JournalRecord& rec : c.contents.records) {
    if (rec.index < bound && !c.done[rec.index]) {
      c.done[rec.index] = true;
      ++c.have;
    }
  }
  return c;
}

}  // namespace

std::size_t shard_journal_coverage(const std::string& path, std::size_t runs) {
  const std::optional<JournalCoverage> c = journal_coverage(path, runs);
  return c ? c->have : 0;
}

bool shard_journal_complete(const std::string& path, std::size_t runs) {
  if (runs == 0) return true;  // an empty shard has nothing to record
  const std::optional<JournalCoverage> c = journal_coverage(path, runs);
  // v2 journals are mergeable read-only: one that already holds every record
  // is complete as-is and must NOT be re-claimed (resume would refuse to
  // extend it). v1 predates the shard layer and is never complete here.
  if (!c || c->contents.header.version < 2) return false;
  if (c->contents.decision) {
    // Early-stopped unit: the decision record marks the journal final at
    // `executed` runs — it is complete the moment every run it covers is
    // recorded, which is what makes a pruned sweep cell stop consuming
    // fleet budget (run_fleet skips complete units).
    const std::size_t executed = std::min(
        static_cast<std::size_t>(c->contents.decision->executed), runs);
    return std::all_of(c->done.begin(), c->done.begin() + executed,
                       [](bool d) { return d; });
  }
  return c->have == runs;
}

// ---- generic fleet worker loop ---------------------------------------------

namespace {

/// One lease-claimable work unit of a fleet: a campaign shard or a sweep
/// cell. `opts` arrives fully prepared (journal path, identity tag, shard
/// header fields); the loop only stamps the worker id and resume flag.
struct FleetUnit {
  std::size_t index = 0;
  std::string name;  ///< for progress and error messages
  std::string journal;
  std::string lease;  ///< lease stem
  std::uint64_t base_seed = 0;  ///< first seed of this unit
  std::size_t runs = 0;
  CampaignOptions opts;
  FaultCampaign::RunFn fn;

  // ---- work stealing (campaign shards only; sweeps leave these off) ----
  bool stealable = false;
  std::size_t shard_no = 0;     ///< parent shard index (child naming)
  std::size_t local_begin = 0;  ///< unit's first parent-local run index
};

/// The steal commit: bump the victim lease (steal_lease: epoch incremented,
/// watermark pinned — the same CAS as the owner's reserve_through, so
/// exactly one of them wins), then create the child journal — the
/// durable split marker whose filename encodes the new partition. A crash
/// between the two steps is a harmless no-op: the epoch bumped but no child
/// exists, so the displaced owner aborts, the lease goes stale, and the
/// next claimer adopts the unit whole. Throws kBadConfig for decided ('D')
/// journals, kLeaseConflict (transient) for every racy or not-stealable-yet
/// condition.
StealResult steal_tail(const std::string& dir, const FleetUnit& unit,
                       std::uint64_t lease_ttl_ms,
                       const std::string& thief_id) {
  // Decided journals are never split: the decision record pins the global
  // seed order of the (single-shard) sequential campaign, and a child
  // journal would claim runs the campaign chose never to execute.
  std::optional<JournalContents> jc;
  try {
    jc = read_journal(unit.journal);
  } catch (const SimError&) {
    // Missing or unreadable journal: nothing decided, stealing may proceed
    // (the claimer of the child resumes or heals as usual).
  }
  if (jc && jc->decision) {
    throw SimError(SimError::Kind::kBadConfig,
                   "work stealing: " + unit.name + " ('" + unit.journal +
                       "') carries a sequential-verdict decision record — "
                       "decided journals are never split");
  }

  // Commit, step 1: the lease bump.
  const LeaseInfo next = steal_lease(unit.lease, unit.runs, lease_ttl_ms);
  const std::size_t split = static_cast<std::size_t>(next.split_at);

  // Commit, step 2: the child journal (header only) — the durable marker
  // from which every pass of every worker recomputes the partition.
  JournalHeader h;
  h.base_seed = unit.base_seed + split;
  h.runs = unit.runs - split;
  h.scenario_digest = unit.opts.scenario_digest;
  h.tag = unit.opts.journal_tag;
  h.shard_index = unit.shard_no;
  h.shard_count = unit.opts.shard_count;
  h.shard_begin = unit.opts.shard_begin + split;
  h.total_runs = unit.opts.total_runs;
  h.worker_id = thief_id;
  h.steal_epoch = next.epoch;

  StealResult r;
  r.epoch = next.epoch;
  r.split_at = unit.local_begin + split;
  r.stolen_runs = unit.runs - split;
  r.child_journal = shard_steal_journal_path(
      dir, unit.shard_no, static_cast<std::size_t>(unit.opts.shard_count),
      next.epoch, unit.local_begin + split);
  {
    JournalWriter w(r.child_journal, h, /*flush_every=*/1);
    w.sync();
  }
  return r;
}

/// The sub-units of campaign shard `i` under the manifest `m`: the primary,
/// then the stolen tails the directory names. Child filenames tile the
/// shard: the primary covers [0, first child's begin) and child k covers
/// [begin_k, begin_{k+1}), the last child running to the shard end.
std::vector<FleetUnit> shard_units(const std::string& dir,
                                   const FleetManifest& m, std::size_t i,
                                   const CampaignOptions& opts,
                                   const FaultCampaign::RunFn& fn) {
  const std::size_t count = m.shard_count;
  const ShardRange range = shard_range(i, count, m.total_runs);
  std::vector<FleetUnit> units;
  const auto add = [&](std::size_t b, std::size_t e, const StealChild* kid) {
    FleetUnit u;
    u.index = i;
    u.name = "shard " + std::to_string(i) + "/" + std::to_string(count);
    u.journal = shard_journal_path(dir, i, count);
    u.lease = shard_lease_path(dir, i, count);
    if (kid != nullptr) {
      u.name += " tail@" + std::to_string(b);
      u.journal = shard_steal_journal_path(dir, i, count, kid->epoch, b);
      u.lease = shard_steal_lease_path(dir, i, count, kid->epoch, b);
    }
    u.base_seed = m.base_seed + range.begin + b;
    u.runs = e - b;
    u.opts = opts;
    u.opts.shard_index = i;
    u.opts.shard_count = count;
    u.opts.shard_begin = range.begin + b;
    u.opts.total_runs = m.total_runs;
    u.opts.steal_epoch = kid != nullptr ? kid->epoch : 0;
    // A stolen unit shrinks after its journal header was written, so
    // resume must tolerate header.runs covering a superset of the unit.
    u.opts.accept_journal_superset = true;
    u.fn = fn;
    u.stealable = true;
    u.shard_no = i;
    u.local_begin = b;
    units.push_back(std::move(u));
  };
  const std::vector<StealChild> kids = scan_steal_children(dir, i, count);
  add(0, kids.empty() ? range.size() : std::min(kids.front().begin,
                                                range.size()),
      nullptr);
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const std::size_t b = kids[k].begin;
    const std::size_t e =
        k + 1 < kids.size() ? kids[k + 1].begin : range.size();
    if (b < range.size() && b < e) add(b, e, &kids[k]);  // else: stray file
  }
  return units;
}

/// The self-healing claim/run/adopt/quarantine loop shared by
/// run_sharded_campaign and run_sharded_sweep. Per pass over the units
/// (starting at the worker's preferred one, then roaming): skip quarantined
/// and complete units, claim the rest, execute claimed ones as
/// journaled+resumed campaigns, and classify every failure —
///
///   - LeaseLostError: the shard was adopted away (we stalled past the
///     TTL); abort it, the adopter owns the journal now.
///   - kJournalCorrupt: heal — delete the damaged journal and re-run the
///     whole unit under the lease we hold (runs are pure functions of
///     their seeds, so the fresh journal is bit-identical).
///   - any other SimError (kIoError from journal/heartbeat I/O, config
///     mismatches, unhealable corruption): record the error in the lease
///     and abandon it — the lease goes stale, another worker adopts, and
///     the adoption counter quarantines the unit once every adopter has
///     failed. The worker stays alive for the rest of the fleet.
///
/// Exits when every unit is complete or quarantined (fleet_done), or when
/// max_wait_ms expires while peers hold the remaining leases.
///
/// The unit list is re-read from `provider` at the top of every pass, which
/// is what makes the fleet *elastic*: a campaign provider re-reads the
/// fleet manifest (so a live repartition changes the layout under running
/// workers) and re-scans for steal children (so a tail stolen by a peer
/// appears as a claimable unit on this worker's next pass).
using UnitsProvider = std::function<std::vector<FleetUnit>()>;

ShardProgress run_fleet(const UnitsProvider& provider,
                        const ShardOptions& shard,
                        const std::string& worker_id) {
  ShardProgress prog;
  std::set<std::string> quarantined;  // terminal units, keyed by lease stem
  StallTracker stalls;  // straggler clock of the steal pass
  const auto started = std::chrono::steady_clock::now();
  std::vector<FleetUnit> units;
  for (;;) {
    units = provider();
    bool all_done = true;
    bool progressed = false;
    std::vector<std::size_t> steal_candidates;
    const std::size_t prefer =
        units.empty() ? 0 : shard.shard_index % units.size();
    for (std::size_t k = 0; k < units.size(); ++k) {
      // Start at our preferred unit and roam upward: a fleet spreads across
      // the units instead of stampeding the same lease.
      const std::size_t i = (prefer + k) % units.size();
      const FleetUnit& unit = units[i];
      if (unit.runs == 0) continue;  // empty unit: trivially complete
      LeaseInfo li;
      if (quarantined.count(unit.lease) || lease_quarantined(unit.lease, &li)) {
        quarantined.insert(unit.lease);  // terminal: skip without claiming
        continue;
      }
      if (shard_journal_complete(unit.journal, unit.runs)) continue;
      all_done = false;

      std::unique_ptr<ShardLease> lease;
      try {
        lease = claim_shard_lease(unit.lease, worker_id, shard.lease_ttl_ms,
                                  shard.heartbeat_ms, shard.max_adoptions);
      } catch (const SimError& e) {
        if (e.kind() == SimError::Kind::kLeaseConflict) {
          // Transient by contract: a live peer owns the unit (or won an
          // adoption race). The outer pass-and-poll loop is the backoff —
          // and a live peer's unit is what the steal pass may split.
          ++prog.lease_conflicts;
          if (unit.stealable) steal_candidates.push_back(i);
          continue;
        }
        if (e.kind() == SimError::Kind::kShardQuarantined) {
          // Terminal by contract — whether this claim performed the
          // quarantine or merely found it, the unit is done
          // failing and the fleet moves on.
          quarantined.insert(unit.lease);
          progressed = true;
          continue;
        }
        throw;
      }

      // Old-format journal heal: resume refuses to extend a pre-current
      // header, which would otherwise turn every adoption of a v1/v2 journal
      // into a version-mismatch abandon and a spurious quarantine. We hold
      // the exclusive lease and runs are pure functions of their seeds, so
      // deleting the incomplete old-format journal and re-running the unit
      // reproduces bit-identical records under a current header. (A
      // *complete* old journal never reaches here — the completeness probe
      // above accepts v2.) Future versions are left alone: the resume path
      // refuses them loudly and the unit abandons rather than heals.
      try {
        if (read_journal(unit.journal).header.version <
            JournalHeader::kVersion) {
          std::remove(unit.journal.c_str());
        }
      } catch (const SimError&) {
        // Missing or corrupt: the campaign's own resume/heal path owns it.
      }

      CampaignOptions co = unit.opts;
      co.journal_path = unit.journal;
      co.resume = true;  // adoption = resuming the dead worker's journal
      co.worker_id = worker_id;

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
      const bool reserve = unit.stealable && shard.steal_after_ms > 0;
      const FaultCampaign::RunFn wrapped =
          [&unit, &executed, held, reserve](std::uint64_t seed) {
            if (held->lost()) {
              throw LeaseLostError(
                  "shard lease '" + held->path() + "' was adopted away from '" +
                  held->worker_id() +
                  "' (heartbeat stalled past the TTL, or the unit's tail was "
                  "stolen); aborting the shard — its new owner owns the "
                  "journal now");
            }
            const std::string io = held->io_error();
            if (!io.empty()) {
              // Heartbeat I/O failure: surface it as the structured
              // infrastructure error it is. kIoError is exempt from
              // failed-run recording (FaultCampaign::run rethrows it), so
              // it lands in the abandon path below, not in the statistics.
              throw SimError(SimError::Kind::kIoError, io);
            }
            if (reserve) {
              held->reserve_through(
                  static_cast<std::size_t>(seed - unit.base_seed), unit.runs);
            }
            executed.fetch_add(1, std::memory_order_relaxed);
            return unit.fn(seed);
          };

      const auto run_unit = [&] {
        FaultCampaign campaign(wrapped);
        campaign.run(unit.base_seed, unit.runs, co);
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
          std::remove(unit.journal.c_str());
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
    if (!progressed && shard.steal_after_ms > 0 && !steal_candidates.empty()) {
      // Steal pass: the claim pass is drained (every remaining unit is
      // leased by a live peer), so look for a straggler: a unit whose held
      // lease generation has not moved for steal_after_ms (StallTracker).
      // Stealing splits the live unit at its watermark: the owner keeps
      // [0, split_at), we take [split_at, end) as a child unit with its own
      // journal.
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i : steal_candidates) {
        const FleetUnit& unit = units[i];
        if (!stalls.stalled(unit.lease, shard.steal_after_ms, now)) continue;
        try {
          steal_tail(shard.dir, unit, shard.lease_ttl_ms, worker_id);
          ++prog.shards_stolen;
          progressed = true;
          stalls.forget(unit.lease);
          // The child unit appears in the next provider() pass and is
          // claimed through the ordinary path.
        } catch (const SimError& e) {
          if (e.kind() == SimError::Kind::kLeaseConflict) {
            // Lost the steal race, the lease went stale (adopt instead),
            // or the owner holds no watermark. Transient: retry the
            // ordinary claim next pass.
            ++prog.lease_conflicts;
          } else if (e.kind() == SimError::Kind::kBadConfig) {
            // Decided journal: never split. Leave it to its owner.
            stalls.forget(unit.lease);
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
  for (const FleetUnit& u : units) {
    LeaseInfo li;
    if (quarantined.count(u.lease) || lease_quarantined(u.lease, &li)) {
      ++prog.shards_quarantined;
    }
  }
  prog.campaign_complete = prog.fleet_done && prog.shards_quarantined == 0;
  return prog;
}

std::string default_worker_id(const ShardOptions& shard) {
  return !shard.worker_id.empty()
             ? shard.worker_id
             : "w" + std::to_string(shard.shard_index) + ".pid" +
                   std::to_string(static_cast<long>(::getpid()));
}

// ---- fleet manifest (campaign layout authority) ---------------------------

std::string fleet_manifest_path(const std::string& dir) {
  return dir + "/fleet.manifest";
}

constexpr const char* kFleetManifestMagic = "scperf-fleet v1";

std::string format_fleet_manifest(const FleetManifest& m) {
  std::string s = std::string(kFleetManifestMagic) + "\n";
  s += "base_seed " + std::to_string(m.base_seed) + "\n";
  s += "total_runs " + std::to_string(m.total_runs) + "\n";
  s += "shard_count " + std::to_string(m.shard_count) + "\n";
  s += "digest " + std::to_string(m.scenario_digest) + "\n";
  s += "tag " + m.tag + "\n";
  return s;
}

[[noreturn]] void throw_fleet_manifest_corrupt(const std::string& path,
                                               const std::string& why) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "fleet manifest '" + path + "': " + why);
}

FleetManifest parse_fleet_manifest(const std::string& path,
                                   const std::string& content) {
  FleetManifest m;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_magic = false;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kFleetManifestMagic) {
        throw_fleet_manifest_corrupt(path, "bad magic line '" + line + "'");
      }
      saw_magic = true;
      continue;
    }
    if (line.compare(0, 10, "base_seed ") == 0) {
      m.base_seed = std::strtoull(line.c_str() + 10, nullptr, 10);
    } else if (line.compare(0, 11, "total_runs ") == 0) {
      m.total_runs = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 11, nullptr, 10));
    } else if (line.compare(0, 12, "shard_count ") == 0) {
      m.shard_count = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 12, nullptr, 10));
    } else if (line.compare(0, 7, "digest ") == 0) {
      m.scenario_digest = std::strtoull(line.c_str() + 7, nullptr, 10);
    } else if (line.compare(0, 4, "tag ") == 0) {
      m.tag = line.substr(4);
    } else if (line == "tag") {
      m.tag.clear();
    } else if (!line.empty()) {
      throw_fleet_manifest_corrupt(path, "unrecognised line '" + line + "'");
    }
  }
  if (!saw_magic || m.shard_count == 0) {
    throw_fleet_manifest_corrupt(path, "missing magic or zero shard_count");
  }
  return m;
}

}  // namespace

FleetManifest read_fleet_manifest(const std::string& dir) {
  const std::string path = fleet_manifest_path(dir);
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "fleet manifest '" + path +
                       "' does not exist — no campaign fleet ever pinned a "
                       "layout in this directory");
  }
  return parse_fleet_manifest(path, read_whole_file(path));
}

ShardProgress run_sharded_campaign(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed,
                                   std::size_t total_runs,
                                   const ShardOptions& shard,
                                   const CampaignOptions& opts) {
  // shard_count == 0 is *elastic* mode: the layout is read from the fleet
  // manifest instead of the command line, and re-read every claim pass so a
  // live repartition propagates to this worker without a restart.
  const bool elastic = shard.shard_count == 0;
  if (!elastic && shard.shard_index >= shard.shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_campaign: worker index " +
                       std::to_string(shard.shard_index) +
                       " out of range for " +
                       std::to_string(shard.shard_count) + " shards");
  }
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_campaign: shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  const std::string worker_id = default_worker_id(shard);

  // Pin (or verify) the layout before touching any shard: the manifest is
  // the single authority on {base_seed, total_runs, shard_count, digest,
  // tag}. Exactly one worker creates it; everyone else compares and refuses
  // on any difference — except the shard count, where an explicit worker
  // that disagrees is told the fleet was repartitioned.
  FleetManifest mine;
  mine.base_seed = base_seed;
  mine.total_runs = total_runs;
  mine.shard_count = shard.shard_count;
  mine.scenario_digest = opts.scenario_digest;
  mine.tag = opts.journal_tag;

  const auto identity_mismatch = [&](const FleetManifest& pinned) {
    return pinned.base_seed != base_seed || pinned.total_runs != total_runs ||
           pinned.scenario_digest != opts.scenario_digest ||
           pinned.tag != opts.journal_tag;
  };
  FleetManifest pinned;
  if (elastic) {
    if (!file_exists(fleet_manifest_path(shard.dir))) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_campaign: elastic worker (shard_count 0) needs the "
          "layout authority '" +
              fleet_manifest_path(shard.dir) +
              "', which does not exist — launch one worker with an explicit "
              "shard count first (it pins the manifest)");
    }
    pinned = read_fleet_manifest(shard.dir);
  } else if (create_file_exclusive(fleet_manifest_path(shard.dir),
                                   format_fleet_manifest(mine))) {
    pinned = mine;
  } else {
    pinned = read_fleet_manifest(shard.dir);
    if (!identity_mismatch(pinned) &&
        pinned.shard_count != shard.shard_count) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_campaign: this worker was launched for " +
              std::to_string(shard.shard_count) +
              " shards but the manifest pins " +
              std::to_string(pinned.shard_count) +
              " — the fleet was repartitioned; relaunch the worker elastic "
              "(shard_count 0, e.g. --shard-dir alone) to follow the "
              "manifest");
    }
  }
  if (identity_mismatch(pinned)) {
    throw SimError(
        SimError::Kind::kBadConfig,
        "run_sharded_campaign: this worker's campaign (seed " +
            std::to_string(base_seed) + ", " + std::to_string(total_runs) +
            " runs, digest " + std::to_string(opts.scenario_digest) +
            ", tag '" + opts.journal_tag +
            "') disagrees with the manifest pinned in '" + shard.dir +
            "' — a worker from a different campaign would corrupt the "
            "fleet's shards");
  }
  if (opts.smc.engaged() && pinned.shard_count > 1) {
    throw SimError(
        SimError::Kind::kBadConfig,
        "run_sharded_campaign: sequential model checking needs the "
        "campaign's global seed order, which a sharded campaign splits — "
        "run the smc campaign unsharded, or shard a sweep (cells are whole "
        "campaigns and prune independently)");
  }

  // Units are re-derived from the manifest (and the directory's steal
  // children) at the top of every claim pass — that is what makes a live
  // repartition and a peer's steal visible without a restart.
  const std::string dir = shard.dir;
  const auto provider = [dir, fn, opts]() {
    const FleetManifest m = read_fleet_manifest(dir);
    std::vector<FleetUnit> units;
    for (std::size_t i = 0; i < m.shard_count; ++i) {
      for (FleetUnit& u : shard_units(dir, m, i, opts, fn)) {
        units.push_back(std::move(u));
      }
    }
    return units;
  };
  return run_fleet(provider, shard, worker_id);
}

StealResult steal_shard_tail(const std::string& dir, std::size_t shard,
                             std::uint64_t lease_ttl_ms,
                             const std::string& thief_id) {
  if (!file_exists(fleet_manifest_path(dir))) {
    throw SimError(SimError::Kind::kBadConfig,
                   "steal_shard_tail: no fleet manifest in '" + dir +
                       "' — only a pinned campaign fleet can be stolen from");
  }
  const FleetManifest m = read_fleet_manifest(dir);
  if (shard >= m.shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "steal_shard_tail: shard " + std::to_string(shard) +
                       " out of range for " + std::to_string(m.shard_count) +
                       " shards");
  }
  CampaignOptions identity;
  identity.scenario_digest = m.scenario_digest;
  identity.journal_tag = m.tag;
  const std::vector<FleetUnit> units = shard_units(dir, m, shard, identity, {});
  // Steal from the *last* live sub-unit of the shard — the unit that owns
  // the tail: the deepest one whose lease is held (the primary by default).
  // steal_tail itself re-validates liveness and the watermark.
  const FleetUnit* victim = &units.front();
  for (std::size_t k = 1; k < units.size(); ++k) {
    LeaseInfo li;
    if (read_lease_info(units[k].lease, &li) &&
        li.state == LeaseInfo::State::kHeld) {
      victim = &units[k];
    }
  }
  return steal_tail(dir, *victim, lease_ttl_ms, thief_id);
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
      a.value_hash != b.value_hash || a.cache_hits != b.cache_hits ||
      a.cache_misses != b.cache_misses ||
      a.cache_bypassed != b.cache_bypassed) {
    return false;
  }
  if (!bits_equal(a.log_weight, b.log_weight) ||
      !bits_equal(a.energy_pj, b.energy_pj) ||
      !bits_equal(a.fault_energy_pj, b.fault_energy_pj) ||
      !bits_equal(a.cache_cycles_saved, b.cache_cycles_saved)) {
    return false;
  }
  if (a.recovery_latencies_ns.size() != b.recovery_latencies_ns.size()) {
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
  FleetManifest m = read_fleet_manifest(dir);
  RepartitionResult res;
  res.old_count = m.shard_count;
  res.new_count = new_count;

  // ---- validate everything before mutating anything ------------------------
  // One directory scan collects every shard-layer file from ANY layout
  // (a crash mid-repartition leaves the previous layout's files behind;
  // re-running the repartition heals by folding them all back in).
  std::vector<std::string> journals, lease_files, leftovers;
  std::set<std::string> stems;  // every unit lease, by stem
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.compare(0, 6, "shard_") != 0) continue;
    const std::string path = entry.path().string();
    const std::size_t g = path.rfind(".lease.g");
    if (name.ends_with(".journal")) {
      journals.push_back(path);
    } else if (g != std::string::npos &&
               path.find_first_not_of("0123456789", g + 8) ==
                   std::string::npos) {
      lease_files.push_back(path);
      stems.insert(path.substr(0, g + 6));
    } else {
      leftovers.push_back(path);  // a crashed creator's tmp file
    }
  }
  if (ec) {
    throw SimError(SimError::Kind::kIoError,
                   "repartition_fleet: cannot scan '" + dir +
                       "': " + ec.message());
  }
  std::sort(journals.begin(), journals.end());

  // Refuse while any unit lease is live: repartition rewrites the very
  // journals a live owner is appending to. All live leases in one message.
  std::size_t n_quarantined = 0;
  {
    const std::uint64_t now = posix_lease_fs().now_ms();
    std::string live;
    std::size_t n_live = 0;
    for (const std::string& stem : stems) {
      LeaseInfo info;
      if (!read_lease_info(stem, &info)) continue;
      if (info.state == LeaseInfo::State::kQuarantined) ++n_quarantined;
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
  }

  // Collect every readable record, keyed by global run index, refusing
  // decided journals, foreign journals and bit-differing duplicates.
  std::map<std::size_t, CampaignRunResult> records;
  for (const std::string& jpath : journals) {
    JournalContents jc;
    try {
      jc = read_journal(jpath);
    } catch (const SimError&) {
      // Torn beyond the tail tolerance, or an unmergeable v1: every run is
      // a pure function of its seed, so nothing is lost by re-running —
      // the file is dropped with the old layout below.
      continue;
    }
    const JournalHeader& h = jc.header;
    if (h.version < 2) continue;  // no shard fields: cannot place records
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
        h.total_runs != m.total_runs) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "repartition_fleet: journal '" + jpath +
              "' disagrees with the fleet manifest (seed/digest/tag/"
              "total_runs) — it belongs to a different campaign; remove it "
              "by hand before repartitioning");
    }
    for (JournalRecord& rec : jc.records) {
      if (rec.index >= h.runs) continue;  // defensive: outside own header
      const std::size_t global =
          static_cast<std::size_t>(h.shard_begin) + rec.index;
      if (global >= m.total_runs) continue;
      auto it = records.find(global);
      if (it == records.end()) {
        records.emplace(global, std::move(rec.result));
        continue;
      }
      if (!same_result(it->second, rec.result)) {
        throw SimError(
            SimError::Kind::kJournalCorrupt,
            "repartition_fleet: global run " + std::to_string(global) +
                " is recorded twice with bit-differing results ('" + jpath +
                "' vs an earlier journal) — determinism is broken; refusing "
                "to pick one");
      }
      // Bit-identical duplicate (crash re-run): dedupe silently.
    }
  }

  // ---- mutate: new journals, then the manifest, then old-file removal ------
  // This order is crash-tolerant: new journals appear additively
  // (tmp+rename), the manifest flip is atomic, and a crash before the
  // removal pass leaves extra old-layout files that a re-run folds back in.
  std::set<std::string> keep;
  keep.insert(fleet_manifest_path(dir));
  for (std::size_t i = 0; i < new_count; ++i) {
    const ShardRange range = shard_range(i, new_count, m.total_runs);
    const std::string jpath = shard_journal_path(dir, i, new_count);
    keep.insert(jpath);
    if (range.empty()) continue;
    const auto lo = records.lower_bound(range.begin);
    const auto hi = records.lower_bound(range.end);
    if (lo == hi) continue;  // nothing recorded: workers start it fresh
    JournalHeader h;
    h.base_seed = m.base_seed + range.begin;
    h.runs = range.size();
    h.scenario_digest = m.scenario_digest;
    h.tag = m.tag;
    h.shard_index = i;
    h.shard_count = new_count;
    h.shard_begin = range.begin;
    h.total_runs = m.total_runs;
    h.worker_id = "repartition";
    const std::string tmp = jpath + ".tmp-repartition";
    {
      JournalWriter w(tmp, h);
      for (auto it = lo; it != hi; ++it) {
        w.append(it->first - range.begin, it->second);
        ++res.migrated_records;
      }
      w.sync();
    }
    if (::rename(tmp.c_str(), jpath.c_str()) != 0) {
      throw_io(jpath, "rename");
    }
    ++res.journals_written;
  }

  m.shard_count = new_count;
  const std::string manifest_tmp = private_tmp(fleet_manifest_path(dir));
  write_synced(manifest_tmp, format_fleet_manifest(m));
  if (::rename(manifest_tmp.c_str(), fleet_manifest_path(dir).c_str()) != 0) {
    ::unlink(manifest_tmp.c_str());
    throw_io(fleet_manifest_path(dir), "rename");
  }

  // Old-layout files go. Every unit lease belongs to a retired unit (no
  // lease is live), so its generations are removed whole. Quarantines are
  // NOT carried into the new tiling: they name units that no longer exist,
  // and a genuinely poisoned seed re-earns its quarantine under the new
  // layout via the normal adoption-cap self-healing.
  res.dropped_quarantines = n_quarantined;
  res.stale_leases_removed = stems.size() - n_quarantined;
  for (const std::vector<std::string>* files :
       {&journals, &lease_files, &leftovers}) {
    for (const std::string& p : *files) {
      if (keep.count(p) == 0 && std::remove(p.c_str()) == 0) {
        ++res.old_files_removed;
      }
    }
  }
  return res;
}

// ---- sharded sweeps --------------------------------------------------------

namespace {

std::string manifest_path(const std::string& dir) {
  return dir + "/sweep.manifest";
}

constexpr const char* kManifestMagic = "scperf-sweep v1";

std::string format_manifest(const SweepManifest& m) {
  std::string s = std::string(kManifestMagic) + "\n";
  s += "base_seed " + std::to_string(m.base_seed) + "\n";
  s += "runs " + std::to_string(m.runs) + "\n";
  s += "digest " + std::to_string(m.scenario_digest) + "\n";
  s += "tag " + m.tag + "\n";
  for (const std::string& name : m.mappings) s += "mapping " + name + "\n";
  for (const std::string& name : m.scenarios) s += "scenario " + name + "\n";
  return s;
}

[[noreturn]] void throw_manifest_corrupt(const std::string& path,
                                         const std::string& why) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "sweep manifest '" + path + "': " + why);
}

SweepManifest parse_manifest(const std::string& path,
                             const std::string& content) {
  SweepManifest m;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_magic = false;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kManifestMagic) {
        throw_manifest_corrupt(path, "bad magic line '" + line + "'");
      }
      saw_magic = true;
      continue;
    }
    if (line.compare(0, 10, "base_seed ") == 0) {
      m.base_seed = std::strtoull(line.c_str() + 10, nullptr, 10);
    } else if (line.compare(0, 5, "runs ") == 0) {
      m.runs = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 5, nullptr, 10));
    } else if (line.compare(0, 7, "digest ") == 0) {
      m.scenario_digest = std::strtoull(line.c_str() + 7, nullptr, 10);
    } else if (line.compare(0, 4, "tag ") == 0) {
      m.tag = line.substr(4);
    } else if (line == "tag") {
      m.tag.clear();
    } else if (line.compare(0, 8, "mapping ") == 0) {
      m.mappings.push_back(line.substr(8));
    } else if (line.compare(0, 9, "scenario ") == 0) {
      m.scenarios.push_back(line.substr(9));
    } else if (!line.empty()) {
      throw_manifest_corrupt(path, "unrecognised line '" + line + "'");
    }
  }
  if (!saw_magic || m.mappings.empty() || m.scenarios.empty()) {
    throw_manifest_corrupt(path, "missing magic, mappings or scenarios");
  }
  return m;
}

}  // namespace

std::string SweepManifest::cell_tag(std::size_t cell) const {
  const std::string& m = cell_mapping(cell);
  const std::string& s = cell_scenario(cell);
  // Same derivation as CampaignSweep::run's per-cell journal tag, so fleet
  // cell journals pin the identity a single-process sweep would pin.
  return tag.empty() ? m + "/" + s : tag + ":" + m + "/" + s;
}

SweepManifest read_sweep_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "sweep manifest '" + path +
                       "' does not exist — no sweep fleet ever started in "
                       "this directory");
  }
  return parse_manifest(path, read_whole_file(path));
}

ShardProgress run_sharded_sweep(const std::vector<std::string>& mappings,
                                const std::vector<std::string>& scenarios,
                                const CampaignSweep::Factory& factory,
                                std::uint64_t base_seed, std::size_t n,
                                const ShardOptions& shard,
                                const CampaignOptions& opts) {
  if (mappings.empty() || scenarios.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: the mapping x scenario grid must be "
                   "non-empty");
  }
  if (!factory) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: no cell factory given");
  }
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  const std::string worker_id = default_worker_id(shard);

  // Pin (or verify) the grid identity before touching any cell: every
  // worker of one fleet must agree on the grid, the seed, the run count and
  // the fault-model digest, or its cell journals would silently disagree
  // with everyone else's. Exactly one worker creates the manifest; the rest
  // compare and refuse on any difference.
  SweepManifest manifest;
  manifest.base_seed = base_seed;
  manifest.runs = n;
  manifest.scenario_digest = opts.scenario_digest;
  manifest.tag = opts.journal_tag;
  manifest.mappings = mappings;
  manifest.scenarios = scenarios;
  if (!create_file_exclusive(manifest_path(shard.dir),
                             format_manifest(manifest))) {
    const SweepManifest pinned = read_sweep_manifest(shard.dir);
    if (format_manifest(pinned) != format_manifest(manifest)) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_sweep: this worker's sweep (seed " +
              std::to_string(base_seed) + ", " + std::to_string(n) +
              " runs, " + std::to_string(mappings.size()) + "x" +
              std::to_string(scenarios.size()) + " grid, digest " +
              std::to_string(opts.scenario_digest) +
              ") disagrees with the manifest pinned in '" + shard.dir +
              "' — a worker from a different sweep would corrupt the fleet's "
              "cells");
    }
  }

  const std::size_t cells = manifest.cells();
  std::vector<FleetUnit> units;
  units.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const std::string& m = manifest.cell_mapping(c);
    const std::string& s = manifest.cell_scenario(c);
    FleetUnit u;
    u.index = c;
    u.name = m + "/" + s;
    u.journal = cell_journal_path(shard.dir, c, cells);
    u.lease = cell_lease_path(shard.dir, c, cells);
    u.base_seed = base_seed;  // common random numbers across cells
    u.runs = n;
    u.opts = opts;
    u.opts.journal_tag = manifest.cell_tag(c);
    // Each cell is its own degenerate single-shard campaign: the cell
    // identity lives in the tag (and the filename), not the shard fields.
    u.opts.shard_index = 0;
    u.opts.shard_count = 1;
    u.opts.shard_begin = 0;
    u.opts.total_runs = n;
    u.fn = factory(m, s);
    units.push_back(std::move(u));
  }
  // A sweep's layout is static (cells don't repartition and don't steal —
  // a cell is already the mobility granularity), so the provider returns
  // the same unit list every pass.
  return run_fleet([units]() { return units; }, shard, worker_id);
}

// ---- merge ----------------------------------------------------------------

MergedCampaign merge_journals(const std::vector<std::string>& paths,
                              const MergeOptions& opts) {
  if (paths.empty()) {
    throw_merge_bad("no shard journals given");
  }

  MergedCampaign out;
  std::vector<JournalContents> shards;
  shards.reserve(paths.size());
  for (const std::string& p : paths) shards.push_back(read_journal(p));

  // Identity checks. Every journal must carry the shard-layout fields of
  // version 2+ (read_journal already rejected unknown futures; v2 journals
  // merge read-only, v1 predates the shard layer), and all must agree on
  // the campaign: digest, tag, base seed, total runs, layout. These
  // refusals hold in partial mode too — a mixed fleet is a *wrong* fleet,
  // not an unfinished one.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JournalHeader& h = shards[s].header;
    if (h.version < 2) {
      throw SimError(
          SimError::Kind::kShardVersionMismatch,
          "campaign merge: shard journal '" + paths[s] + "' has format "
              "version " + std::to_string(h.version) +
              " but the merge needs the shard-layout fields of version 2+ "
              "— v1 journals predate the shard layer and cannot merge");
    }
  }
  const JournalHeader& first = shards[0].header;
  out.scenario_digest = first.scenario_digest;
  out.tag = first.tag;
  out.shard_count = static_cast<std::size_t>(first.shard_count);
  out.runs = static_cast<std::size_t>(first.total_runs);
  out.base_seed = first.base_seed - first.shard_begin;

  std::vector<bool> shard_seen(out.shard_count, false);
  // Sub-units of one shard are keyed by (shard index, global begin): a
  // steal child starts mid-slot, and two journals claiming the same start
  // are ambiguous however long they run.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> dup;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JournalHeader& h = shards[s].header;
    if (h.scenario_digest != out.scenario_digest) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' has scenario digest " +
                      std::to_string(h.scenario_digest) + " but '" + paths[0] +
                      "' has " + std::to_string(out.scenario_digest) +
                      " — different fault models do not merge");
    }
    if (h.tag != out.tag) {
      throw_merge_bad("shard journal '" + paths[s] + "' has tag '" + h.tag +
                      "' but '" + paths[0] + "' has '" + out.tag + "'");
    }
    if (h.shard_count != out.shard_count || h.total_runs != out.runs) {
      throw_merge_bad("shard journal '" + paths[s] + "' is shard " +
                      std::to_string(h.shard_index) + "/" +
                      std::to_string(h.shard_count) + " of " +
                      std::to_string(h.total_runs) + " runs but '" + paths[0] +
                      "' declares " + std::to_string(out.shard_count) +
                      " shards of " + std::to_string(out.runs) +
                      " runs — mixed shard layouts do not merge");
    }
    if (h.base_seed - h.shard_begin != out.base_seed) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' implies campaign base seed " +
                      std::to_string(h.base_seed - h.shard_begin) + " but '" +
                      paths[0] + "' implies " + std::to_string(out.base_seed));
    }
    if (h.shard_index >= h.shard_count) {
      throw_merge_bad("shard journal '" + paths[s] + "' claims shard " +
                      std::to_string(h.shard_index) + " of only " +
                      std::to_string(h.shard_count));
    }
    // Sub-range containment, not equality: a steal child covers a tail
    // [split_at, end) of its shard, and a stolen parent's header still
    // advertises the full slot it was created for. Either way the
    // journal's own range must sit inside the canonical slot of its index.
    const ShardRange want = shard_range(
        static_cast<std::size_t>(h.shard_index), out.shard_count, out.runs);
    if (h.shard_begin < want.begin || h.shard_begin + h.runs > want.end) {
      throw_merge_bad("shard journal '" + paths[s] + "' covers [" +
                      std::to_string(h.shard_begin) + ", +" +
                      std::to_string(h.runs) +
                      ") which is not contained in shard " +
                      std::to_string(h.shard_index) +
                      "'s canonical slot [" + std::to_string(want.begin) +
                      ", +" + std::to_string(want.size()) + ") of " +
                      std::to_string(out.shard_count) + " shards");
    }
    shard_seen[static_cast<std::size_t>(h.shard_index)] = true;
    dup[{static_cast<std::size_t>(h.shard_index),
         static_cast<std::size_t>(h.shard_begin)}]
        .push_back(s);
  }
  {
    // Ambiguity, not partial-ness: even a degraded merge cannot decide
    // which duplicate journal to trust — and every ambiguous unit is
    // reported in one message so one fix-up pass suffices.
    std::string dups;
    for (const auto& [key, idxs] : dup) {
      if (idxs.size() < 2) continue;
      if (!dups.empty()) dups += "; ";
      dups += "shard " + std::to_string(key.first) + " @" +
              std::to_string(key.second) + " (";
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        if (k) dups += ", ";
        dups += "'" + paths[idxs[k]] + "'";
      }
      dups += ")";
    }
    if (!dups.empty()) {
      throw_merge_incomplete(
          "the same unit appears in more than one journal: " + dups +
          " — ambiguous which journal to trust");
    }
  }
  {
    // Missing shards are aggregated into one refusal: a fleet operator
    // fixes them all in one pass instead of replaying merge-fail-fix N
    // times.
    std::string missing_list;
    std::size_t n_missing = 0;
    for (std::size_t i = 0; i < out.shard_count; ++i) {
      if (shard_seen[i] ||
          shard_range(i, out.shard_count, out.runs).empty()) {
        continue;
      }
      ++n_missing;
      if (!opts.allow_partial) {
        if (!missing_list.empty()) missing_list += ", ";
        missing_list += std::to_string(i);
      } else {
        out.complete = false;
        out.missing_shards.push_back(i);
      }
    }
    if (n_missing > 0 && !opts.allow_partial) {
      throw_merge_incomplete(
          "no journal for " + std::to_string(n_missing) + " of " +
          std::to_string(out.shard_count) + " shards (missing: " +
          missing_list +
          ") — a partial fleet merge would silently bias every campaign "
          "statistic; finish the campaign, or merge with allow_partial "
          "(--allow-partial) for an explicitly degraded report");
    }
  }

  // Sequential-verdict decisions. A decision record makes recorded-runs <
  // header total_runs legal: the campaign stopped issuing seeds once the
  // verdict crossed a boundary. FaultCampaign::run and run_sharded_campaign
  // both refuse SMC with shard_count > 1, so a decision in a multi-shard
  // fleet can only mean journal corruption or a hand-mixed layout — refuse.
  std::size_t expected_end = out.runs;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s].decision) continue;
    if (out.shard_count > 1) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' carries a sequential-verdict decision record but "
                      "declares " + std::to_string(out.shard_count) +
                      " shards — sequential campaigns are single-shard, so "
                      "this journal is corrupt or hand-mixed");
    }
    if (shards.size() > 1) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' carries a sequential-verdict decision record but " +
                      std::to_string(shards.size()) +
                      " journals were given — a decided campaign is one "
                      "journal (decided units are never split), so this set "
                      "is hand-mixed");
    }
    out.decision = shards[s].decision;
    expected_end = std::min(
        static_cast<std::size_t>(out.decision->executed), out.runs);
  }

  // Fold records into global slots. Duplicate indices within a journal are
  // benign (a lease-TTL violation appends bit-identical records — runs are
  // deterministic); the last one wins, like journal resume.
  out.results.resize(out.runs);
  std::vector<bool> done(out.runs, false);
  std::vector<std::size_t> slot_owner(out.runs, std::size_t(-1));
  std::size_t overlaps = 0;
  std::string overlap_list;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JournalHeader& h = shards[s].header;
    for (JournalRecord& rec : shards[s].records) {
      if (rec.index >= h.runs) {
        throw SimError(SimError::Kind::kJournalCorrupt,
                       "campaign merge: shard journal '" + paths[s] +
                           "': record index " + std::to_string(rec.index) +
                           " out of range (shard has " +
                           std::to_string(h.runs) + " runs)");
      }
      const std::size_t global =
          static_cast<std::size_t>(h.shard_begin) + rec.index;
      if (slot_owner[global] != std::size_t(-1) && slot_owner[global] != s) {
        // Cross-journal overlap: the steal partition guarantees disjoint
        // sub-units, so two journals recording one slot means a corrupt or
        // hand-mixed layout. Collected, then reported in one message.
        ++overlaps;
        if (overlaps <= 4) {
          if (!overlap_list.empty()) overlap_list += "; ";
          overlap_list += "global index " + std::to_string(global) +
                          " in '" + paths[slot_owner[global]] + "' and '" +
                          paths[s] + "'";
        }
        continue;
      }
      slot_owner[global] = s;
      out.results[global] = std::move(rec.result);
      done[global] = true;
    }
  }
  if (overlaps > 0) {
    throw_merge_bad(
        std::to_string(overlaps) +
        " global run slots are recorded by more than one journal (" +
        overlap_list + (overlaps > 4 ? "; …" : "") +
        ") — sub-unit ranges must be disjoint; the steal partition or the "
        "layout is corrupt");
  }
  // An early-stopped campaign only owes records for the runs it executed:
  // completeness (and the degraded-merge bookkeeping) is judged over
  // [0, expected_end), and the merged results are truncated to match so the
  // merge is byte-identical to the early-stopped single-process campaign.
  std::size_t missing = 0;
  std::string span_list;
  std::size_t n_spans = 0;
  for (std::size_t i = 0; i < expected_end; ++i) {
    if (done[i]) continue;
    std::size_t j = i;
    while (j < expected_end && !done[j]) ++j;
    missing += j - i;
    ++n_spans;
    if (n_spans <= 8) {
      if (!span_list.empty()) span_list += ", ";
      span_list += "[" + std::to_string(i) + ", " + std::to_string(j) + ")";
    }
    i = j;  // the slot at j is recorded (or the end); the ++ skips it
  }
  if (missing > 0) {
    if (!opts.allow_partial) {
      // Every missing span in one message: one fix-up pass, not N.
      throw_merge_incomplete(
          std::to_string(missing) + " of " + std::to_string(expected_end) +
          " runs have no record (missing global spans: " + span_list +
          (n_spans > 8
               ? ", … " + std::to_string(n_spans - 8) + " more spans"
               : "") +
          ") — finish the campaign (workers re-claim incomplete units) "
          "before merging, or merge with allow_partial (--allow-partial) "
          "for an explicitly degraded report");
    }
    // Degraded merge: compact the recorded runs, keeping global seed order
    // so the result is deterministic for any worker interleaving.
    out.complete = false;
    out.missing_records = missing;
    std::vector<CampaignRunResult> compact;
    compact.reserve(expected_end - missing);
    for (std::size_t i = 0; i < expected_end; ++i) {
      if (done[i]) compact.push_back(std::move(out.results[i]));
    }
    out.results = std::move(compact);
  } else if (expected_end < out.results.size()) {
    out.results.resize(expected_end);
  }
  out.recorded_runs = out.results.size();
  return out;
}

MergedCampaign merge_shard_dir(const std::string& dir,
                               const MergeOptions& opts) {
  // Primaries first; the shard count learned from their names then drives
  // the per-shard scan for steal children, whose journals merge as
  // ordinary sub-units.
  std::vector<std::pair<std::size_t, std::string>> found;
  std::map<std::string, QuarantinedUnit> primaries;  // by lease stem
  std::size_t shard_count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::size_t shard = 0, count = 0;
    bool is_lease = false;
    if (!parse_shard_file(name, &shard, &count, &is_lease)) continue;
    if (shard_count == 0) shard_count = count;
    if (is_lease) {
      primaries[shard_lease_path(dir, shard, count)] = QuarantinedUnit{
          shard, "shard " + std::to_string(shard) + "/" +
                     std::to_string(count), {}};
    } else {
      found.emplace_back(shard, entry.path().string());
    }
  }
  if (ec) {
    throw_merge_bad("cannot scan shard directory '" + dir +
                    "': " + ec.message());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [shard, path] : found) paths.push_back(std::move(path));
  std::vector<QuarantinedUnit> quarantined;
  for (auto& [stem, unit] : primaries) {
    if (lease_quarantined(stem, &unit.info)) quarantined.push_back(unit);
  }
  for (std::size_t i = 0; i < shard_count; ++i) {
    for (const StealChild& kid : scan_steal_children(dir, i, shard_count)) {
      const std::string stem =
          steal_stem(dir, i, shard_count, kid.epoch, kid.begin);
      if (file_exists(stem + ".journal")) {
        paths.push_back(stem + ".journal");
      }
      QuarantinedUnit q{i, "shard " + std::to_string(i) + "/" +
                               std::to_string(shard_count) + " tail@" +
                               std::to_string(kid.begin), {}};
      if (lease_quarantined(stem + ".lease", &q.info)) {
        quarantined.push_back(std::move(q));
      }
    }
  }
  std::stable_sort(quarantined.begin(), quarantined.end(),
                   [](const QuarantinedUnit& a, const QuarantinedUnit& b) {
                     return a.index < b.index;
                   });
  if (!quarantined.empty() && !opts.allow_partial) {
    // Every quarantined unit in one refusal, so the operator sees the whole
    // damage at once.
    std::string list;
    for (const QuarantinedUnit& q : quarantined) {
      if (!list.empty()) list += "; ";
      list += q.name + " (" + quarantine_summary(q.info) + ")";
    }
    throw_merge_incomplete(
        std::to_string(quarantined.size()) +
        " quarantined unit(s) never complete: " + list +
        " — merge with allow_partial (--allow-partial) for an explicitly "
        "degraded report over the completed units");
  }
  if (paths.empty()) {
    std::string what = "no shard journals (shard_<i>_of_<N>.journal) in '" +
                       dir + "'";
    if (!quarantined.empty()) {
      what += " (" + std::to_string(quarantined.size()) +
              " quarantined units, but nothing recorded to merge)";
    }
    throw_merge_incomplete(what);
  }
  MergedCampaign out = merge_journals(paths, opts);
  out.quarantined = std::move(quarantined);
  if (!out.quarantined.empty()) out.complete = false;
  return out;
}

// ---- sweep merge -----------------------------------------------------------

const char* to_string(CellState s) {
  switch (s) {
    case CellState::kComplete: return "complete";
    case CellState::kPartial: return "partial";
    case CellState::kMissing: return "missing";
    case CellState::kQuarantined: return "quarantined";
  }
  return "?";
}

MergedSweep merge_sweep_dir(const std::string& dir, const MergeOptions& opts) {
  MergedSweep out;
  out.manifest = read_sweep_manifest(dir);
  const std::size_t cells = out.manifest.cells();
  const std::size_t runs = out.manifest.runs;
  out.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    MergedSweepCell& cell = out.cells[c];
    cell.index = c;
    cell.mapping = out.manifest.cell_mapping(c);
    cell.scenario = out.manifest.cell_scenario(c);
    cell.runs = runs;
    const std::string jpath = cell_journal_path(dir, c, cells);

    LeaseInfo qinfo;
    const bool is_quarantined =
        lease_quarantined(cell_lease_path(dir, c, cells), &qinfo);
    if (is_quarantined) {
      cell.state = CellState::kQuarantined;
      cell.error = quarantine_summary(qinfo);
    }

    if (!file_exists(jpath)) {
      if (!is_quarantined) cell.state = CellState::kMissing;
      continue;
    }
    JournalContents jc;
    try {
      jc = read_journal(jpath);
    } catch (const SimError& e) {
      // Unreadable journal: salvage nothing from this cell, but a merge
      // probe must not abort the whole sweep over one torn header — the
      // cell simply reports as partial (or stays quarantined) with the
      // reader's complaint attached.
      if (!is_quarantined) {
        cell.state = CellState::kPartial;
        cell.error = e.what();
      }
      continue;
    }
    // Identity refusals hold even in partial mode: a cell journal that
    // disagrees with the manifest belongs to a different sweep.
    const JournalHeader& h = jc.header;
    if (h.version != JournalHeader::kVersion) {
      throw SimError(
          SimError::Kind::kShardVersionMismatch,
          "sweep merge: cell journal '" + jpath + "' has format version " +
              std::to_string(h.version) + " but the merge requires version " +
              std::to_string(JournalHeader::kVersion));
    }
    if (h.base_seed != out.manifest.base_seed ||
        h.runs != out.manifest.runs ||
        h.scenario_digest != out.manifest.scenario_digest ||
        h.tag != out.manifest.cell_tag(c)) {
      throw_merge_bad(
          "cell journal '" + jpath + "' (tag '" + h.tag + "', seed " +
          std::to_string(h.base_seed) + ", " + std::to_string(h.runs) +
          " runs, digest " + std::to_string(h.scenario_digest) +
          ") disagrees with the sweep manifest (tag '" +
          out.manifest.cell_tag(c) + "', seed " +
          std::to_string(out.manifest.base_seed) + ", " +
          std::to_string(out.manifest.runs) + " runs, digest " +
          std::to_string(out.manifest.scenario_digest) +
          ") — this journal belongs to a different sweep");
    }
    // A sequential-verdict decision shrinks what the cell owes: it executed
    // only `decision->executed` runs before the verdict crossed a boundary,
    // so completeness is judged over that prefix and cell.runs reports it.
    std::size_t cell_end = runs;
    if (jc.decision) {
      cell.decision = jc.decision;
      cell_end = std::min(
          static_cast<std::size_t>(jc.decision->executed), runs);
      cell.runs = cell_end;
    }
    std::vector<CampaignRunResult> slots(cell_end);
    std::vector<bool> done(cell_end, false);
    for (JournalRecord& rec : jc.records) {
      if (rec.index >= cell_end) continue;  // defensive; header pinned runs
      if (!done[rec.index]) ++cell.records;
      slots[rec.index] = std::move(rec.result);
      done[rec.index] = true;
    }
    if (cell.records == cell_end) {
      cell.results = std::move(slots);
      if (!is_quarantined) cell.state = CellState::kComplete;
    } else {
      // Compact the recorded runs in seed order — deterministic for any
      // worker interleaving, like the campaign-level partial merge.
      cell.results.reserve(cell.records);
      for (std::size_t i = 0; i < cell_end; ++i) {
        if (done[i]) cell.results.push_back(std::move(slots[i]));
      }
      if (!is_quarantined) cell.state = CellState::kPartial;
    }
  }

  std::size_t n_complete = 0;
  for (const MergedSweepCell& cell : out.cells) {
    if (cell.state == CellState::kComplete) ++n_complete;
  }
  out.complete = n_complete == cells;
  if (!out.complete && !opts.allow_partial) {
    // Every incomplete cell in one refusal: a sweep operator re-runs the
    // fleet once, not once per cell discovered.
    std::string list;
    std::size_t listed = 0;
    for (const MergedSweepCell& cell : out.cells) {
      if (cell.state == CellState::kComplete) continue;
      ++listed;
      if (listed > 16) continue;
      if (!list.empty()) list += "; ";
      list += cell.mapping + "/" + cell.scenario + " " +
              to_string(cell.state) + " (" + std::to_string(cell.records) +
              "/" + std::to_string(cell.runs) + " runs)";
    }
    throw_merge_incomplete(
        std::to_string(cells - n_complete) + " of " + std::to_string(cells) +
        " sweep cells are incomplete: " + list +
        (listed > 16 ? "; … " + std::to_string(listed - 16) + " more" : "") +
        " — finish the fleet, or merge with allow_partial "
        "(--allow-partial) for an explicitly degraded report");
  }
  return out;
}

std::size_t MergedSweep::complete_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == CellState::kComplete) ++n;
  }
  return n;
}

std::size_t MergedSweep::quarantined_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == CellState::kQuarantined) ++n;
  }
  return n;
}

CampaignSweep MergedSweep::to_sweep() const {
  std::vector<CampaignSweep::Cell> out;
  out.reserve(cells.size());
  for (const MergedSweepCell& c : cells) {
    if (c.state != CellState::kComplete) continue;
    FaultCampaign campaign(c.results);
    if (c.decision) {
      campaign.set_smc_verdict(c.decision->spec, c.decision->verdict);
    }
    out.push_back(CampaignSweep::Cell{c.mapping, c.scenario,
                                      campaign.report()});
  }
  return CampaignSweep(manifest.mappings, manifest.scenarios, std::move(out));
}

void MergedSweep::print(std::ostream& os) const {
  if (!complete) {
    std::size_t n_partial = 0, n_missing = 0;
    for (const MergedSweepCell& c : cells) {
      if (c.state == CellState::kPartial) ++n_partial;
      if (c.state == CellState::kMissing) ++n_missing;
    }
    os << "DEGRADED sweep merge: " << complete_cells() << " of "
       << cells.size() << " cells complete (" << n_partial << " partial, "
       << n_missing << " missing, " << quarantined_cells()
       << " quarantined) — statistics cover recorded runs only\n";
  }
  to_sweep().print(os);
  if (complete) return;
  for (const MergedSweepCell& c : cells) {
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

void MergedSweep::write_csv(std::ostream& os) const {
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
  for (const MergedSweepCell& c : cells) {
    FaultCampaign campaign(c.results);
    if (c.decision) {
      campaign.set_smc_verdict(c.decision->spec, c.decision->verdict);
    }
    const CampaignReport rep = campaign.report();
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
  switch (s) {
    case ShardStatusEntry::State::kDone: return "done";
    case ShardStatusEntry::State::kClaimed: return "claimed";
    case ShardStatusEntry::State::kStale: return "stale";
    case ShardStatusEntry::State::kQuarantined: return "quarantined";
    case ShardStatusEntry::State::kUnclaimed: return "unclaimed";
  }
  return "?";
}

namespace {

/// Classifies one unit from its journal and lease. Pure observation:
/// stat() and read() only — a status probe must never perturb the fleet it
/// watches.
ShardStatusEntry unit_status(std::size_t index, const std::string& name,
                             const std::string& journal,
                             const std::string& lease, std::size_t runs,
                             std::uint64_t lease_ttl_ms) {
  ShardStatusEntry e;
  e.index = index;
  e.name = name;
  e.runs = runs;
  e.records = shard_journal_coverage(journal, runs);

  LeaseInfo info;
  const bool has_lease = read_lease_info(lease, &info);
  using State = ShardStatusEntry::State;
  if (has_lease && info.state == LeaseInfo::State::kQuarantined) {
    e.state = State::kQuarantined;
  } else if (runs > 0 && shard_journal_complete(journal, runs)) {
    e.state = State::kDone;
    return e;
  } else if (has_lease && info.state == LeaseInfo::State::kHeld) {
    const std::uint64_t now = posix_lease_fs().now_ms();
    e.state = lease_alive(info.mtime_ms, now, lease_ttl_ms) ? State::kClaimed
                                                            : State::kStale;
    e.heartbeat_age_ms = static_cast<std::int64_t>(now) -
                         static_cast<std::int64_t>(info.mtime_ms);
  } else {
    e.state = runs == 0 ? State::kDone : State::kUnclaimed;
    return e;
  }
  e.owner = info.owner;
  e.adoptions = info.adoptions;
  e.error = info.error;
  return e;
}

void tally(FleetStatus* st, const ShardStatusEntry& e) {
  switch (e.state) {
    case ShardStatusEntry::State::kDone: ++st->done; break;
    case ShardStatusEntry::State::kClaimed: ++st->claimed; break;
    case ShardStatusEntry::State::kStale: ++st->stale; break;
    case ShardStatusEntry::State::kQuarantined: ++st->quarantined; break;
    case ShardStatusEntry::State::kUnclaimed: ++st->unclaimed; break;
  }
  st->records += e.records;
  st->runs += e.runs;
}

}  // namespace

FleetStatus fleet_status(const std::string& dir, std::uint64_t lease_ttl_ms) {
  // Layout authority: the fleet manifest when one is pinned (always, for
  // fleets started by this release); otherwise fall back to deriving the
  // layout from the shard filenames, which all carry "<i>_of_<N>".
  std::size_t shard_count = 0;
  std::size_t total_runs = 0;
  if (file_exists(fleet_manifest_path(dir))) {
    const FleetManifest m = read_fleet_manifest(dir);
    shard_count = m.shard_count;
    total_runs = m.total_runs;
  } else {
    bool mixed = false;
    std::vector<std::string> journals;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      std::size_t shard = 0, count = 0;
      bool is_lease = false;
      if (!parse_shard_file(name, &shard, &count, &is_lease)) continue;
      if (shard_count == 0) shard_count = count;
      if (count != shard_count) mixed = true;
      if (!is_lease) journals.push_back(entry.path().string());
    }
    if (ec) {
      throw SimError(SimError::Kind::kBadConfig,
                     "fleet status: cannot scan shard directory '" + dir +
                         "': " + ec.message());
    }
    if (shard_count == 0) {
      throw SimError(
          SimError::Kind::kMergeIncomplete,
          "fleet status: no shard files (shard_<i>_of_<N>.*) in '" + dir +
              "' — no fleet ever started here");
    }
    if (mixed) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "fleet status: '" + dir + "' holds files from differently "
          "sized fleets and no manifest to arbitrate — mixed shard layouts "
          "cannot be summarised");
    }
    // The campaign's total run count lives in any journal header; until the
    // first journal exists, per-shard run counts are simply unknown (0).
    for (const std::string& j : journals) {
      try {
        total_runs =
            static_cast<std::size_t>(read_journal(j).header.total_runs);
        break;
      } catch (const SimError&) {
        continue;  // torn or corrupt journal; try another shard's
      }
    }
  }

  FleetStatus st;
  st.units = shard_count;
  st.entries.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    const ShardRange range =
        total_runs != 0 ? shard_range(i, shard_count, total_runs)
                        : ShardRange{};
    // One entry per shard, folded over its sub-units (the primary plus any
    // steal children): records and runs sum across the tiling, done
    // requires every sub-unit done, and the most urgent sub-unit state
    // (quarantined > claimed > stale > unclaimed) names the owner.
    const std::vector<StealChild> kids =
        scan_steal_children(dir, i, shard_count);
    std::vector<ShardStatusEntry> subs;
    const std::size_t cut =
        kids.empty() ? range.size()
                     : std::min(kids.front().begin, range.size());
    subs.push_back(unit_status(
        i, "shard " + std::to_string(i) + "/" + std::to_string(shard_count),
        shard_journal_path(dir, i, shard_count),
        shard_lease_path(dir, i, shard_count), cut, lease_ttl_ms));
    for (std::size_t k = 0; k < kids.size(); ++k) {
      const std::size_t b = kids[k].begin;
      const std::size_t e =
          k + 1 < kids.size() ? kids[k + 1].begin : range.size();
      if (total_runs != 0 && (b >= range.size() || b >= e)) continue;
      const std::string stem =
          steal_stem(dir, i, shard_count, kids[k].epoch, b);
      subs.push_back(unit_status(i, "tail@" + std::to_string(b),
                                 stem + ".journal", stem + ".lease",
                                 total_runs != 0 ? e - b : 0, lease_ttl_ms));
    }
    ShardStatusEntry e = subs.front();
    e.children = subs.size() - 1;
    bool all_done = true;
    for (const ShardStatusEntry& s : subs) {
      if (s.state != ShardStatusEntry::State::kDone) all_done = false;
    }
    for (std::size_t k = 1; k < subs.size(); ++k) {
      e.records += subs[k].records;
      e.runs += subs[k].runs;
    }
    const auto pick = [&](ShardStatusEntry::State want) {
      for (const ShardStatusEntry& s : subs) {
        if (s.state != want) continue;
        e.state = s.state;
        e.owner = s.owner;
        e.adoptions = s.adoptions;
        e.heartbeat_age_ms = s.heartbeat_age_ms;
        e.error = s.error;
        return true;
      }
      return false;
    };
    if (all_done) {
      e.state = ShardStatusEntry::State::kDone;
    } else if (!pick(ShardStatusEntry::State::kQuarantined) &&
               !pick(ShardStatusEntry::State::kClaimed) &&
               !pick(ShardStatusEntry::State::kStale)) {
      e.state = ShardStatusEntry::State::kUnclaimed;
    }
    tally(&st, e);
    st.entries.push_back(std::move(e));
  }
  return st;
}

FleetStatus sweep_fleet_status(const std::string& dir,
                               std::uint64_t lease_ttl_ms) {
  const SweepManifest manifest = read_sweep_manifest(dir);
  const std::size_t cells = manifest.cells();
  FleetStatus st;
  st.units = cells;
  st.entries.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    ShardStatusEntry e = unit_status(
        c, manifest.cell_mapping(c) + "/" + manifest.cell_scenario(c),
        cell_journal_path(dir, c, cells), cell_lease_path(dir, c, cells),
        manifest.runs, lease_ttl_ms);
    tally(&st, e);
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
