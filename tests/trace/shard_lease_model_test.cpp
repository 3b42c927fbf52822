// Exhaustive interleaving check of the lease protocol.
//
// The lease code reaches the filesystem only through LeaseFs. Here that is
// an in-memory fake with a stepped clock, and every call into it is a
// scheduling point: each actor runs on its own thread, but only one moves at
// a time, and the explorer runs the scenario once per order of their steps.
// The search is stateless depth-first with sleep sets, so two orders that
// differ only by swapping independent steps (say, two reads) run once, and
// every other interleaving runs. Each actor runs a short script of protocol
// operations, which bounds the depth. Heartbeats are the same
// ShardLease::heartbeat() step the background thread runs.
//
// After every interleaving the recorded history must satisfy:
//   1. at most one owner per generation — no generation file is created
//      twice, unless its creator took its own create back at once;
//   2. quarantine is terminal — no generation follows a quarantined one,
//      and no claim succeeds after it;
//   3. the adoption counter never decreases from one generation to the next;
//   4. no run index is appended both by the unit's holder and by the child
//      of a steal.
// The fake also refuses to unlink the current generation of a lease.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <semaphore>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kernel/error.hpp"
#include "trace/shard.hpp"

namespace sctrace {
namespace {

using minisc::SimError;

constexpr std::uint64_t kTtl = 1000;
const std::string kStem = "fleet/unit.lease";

/// One filesystem step, as the explorer sees it before it runs.
struct Op {
  // Reads first: everything from kTouch on changes state.
  enum Kind { kList, kRead, kMtime, kTouch, kCreate, kUnlink, kAppend, kTick };
  Kind kind = kList;
  std::string path;
};

const char* kind_name(Op::Kind k) {
  static const char* names[] = {"list",   "read",   "mtime",  "touch",
                                "create", "unlink", "append", "tick"};
  return names[k];
}

/// Whether swapping two adjacent steps of different actors can change what
/// either observes or leaves behind.
bool dependent(const Op& a, const Op& b) {
  if (a.kind == Op::kTick || b.kind == Op::kTick) return true;  // TTLs read it
  if (a.kind < Op::kTouch && b.kind < Op::kTouch) return false;
  const auto lists = [](const Op& l, const Op& w) {
    return l.kind == Op::kList &&
           (w.kind == Op::kCreate || w.kind == Op::kUnlink) &&
           w.path.rfind(l.path + ".g", 0) == 0;
  };
  if (lists(a, b) || lists(b, a)) return true;
  if (a.path != b.path) return false;
  // A touch moves only the mtime, which a read does not see.
  return !((a.kind == Op::kTouch && b.kind == Op::kRead) ||
           (a.kind == Op::kRead && b.kind == Op::kTouch));
}

thread_local int tl_actor = -1;  // -1: fixture set-up on the main thread

/// Depth-first enumeration of interleavings, one execution at a time.
/// Exactly one actor thread moves at a time: the one holding the turn. At
/// each of its steps it picks who moves next (itself, usually) and hands
/// the turn over, so a step costs a thread switch only when the mover
/// changes.
class Explorer {
 public:
  explicit Explorer(std::size_t actors) : pending_(actors), go_(actors) {}

  /// Runs one execution of `actors` (one thread each) to completion.
  void run(const std::vector<std::function<void()>>& actors) {
    std::fill(pending_.begin(), pending_.end(), std::nullopt);
    started_.clear();
    depth_ = 0;
    schedule_.clear();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < actors.size(); ++i) {
      // Started one by one: each runs up to its first step, then waits.
      threads.emplace_back([this, &actors, i] {
        tl_actor = static_cast<int>(i);
        try {
          actors[i]();
        } catch (const std::exception& e) {
          ADD_FAILURE() << "actor " << i << " threw: " << e.what();
        }
        finish();
      });
      main_.acquire();
    }
    if (const int first = decide(); first >= 0) {
      go_[static_cast<std::size_t>(first)].sem.release();
      main_.acquire();  // the last actor to finish hands the turn back
    }
    for (std::thread& t : threads) t.join();
  }

  /// Actor side: announce the next step and wait for the turn.
  void gate(const Op& op) {
    if (tl_actor < 0) return;  // fixture set-up on the main thread
    const std::size_t me = static_cast<std::size_t>(tl_actor);
    pending_[me] = op;
    if (!started_.count(me)) {
      started_.insert(me);
      main_.release();
    } else {
      const int next = decide();
      if (next == tl_actor) return;
      go_[static_cast<std::size_t>(next)].sem.release();
    }
    go_[me].sem.acquire();
  }

  /// Moves the search to the next unexplored interleaving; false when done.
  bool backtrack() {
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      for (std::size_t a = 0; a < f.pending.size(); ++a) {
        const int ai = static_cast<int>(a);
        if (f.pending[a] && !f.sleep.count(ai) && !f.explored.count(ai)) {
          f.chosen = ai;
          f.explored.insert(ai);
          return true;
        }
      }
      stack_.pop_back();
    }
    return false;
  }

  bool diverged() const { return diverged_; }
  const std::string& schedule() const { return schedule_; }

 private:
  struct Frame {
    std::vector<std::optional<Op>> pending;  ///< per actor; nullopt = ended
    std::set<int> sleep, explored;
    int chosen = -1;
  };

  void finish() {
    const std::size_t me = static_cast<std::size_t>(tl_actor);
    pending_[me].reset();
    if (!started_.count(me)) {  // ended before its first step
      started_.insert(me);
      main_.release();
      return;
    }
    const int next = decide();
    if (next < 0) {
      main_.release();
    } else {
      go_[static_cast<std::size_t>(next)].sem.release();
    }
  }

  /// Picks the actor that takes the next step (-1 once all have ended):
  /// the recorded choice while a prefix is replayed, otherwise the first
  /// actor not asleep, recording a new frame to branch from later.
  int decide() {
    std::vector<int> enabled;
    for (std::size_t a = 0; a < pending_.size(); ++a) {
      if (pending_[a]) enabled.push_back(static_cast<int>(a));
    }
    if (enabled.empty()) return -1;
    if (depth_ == stack_.size()) {
      Frame f;
      f.pending = pending_;
      if (depth_ > 0) {
        // Sleep-set propagation: what the parent already covered stays
        // asleep while it commutes with the step just taken.
        const Frame& up = stack_[depth_ - 1];
        const auto op_of = [&up](int a) {
          return *up.pending[static_cast<std::size_t>(a)];
        };
        for (const std::set<int>* from : {&up.explored, &up.sleep}) {
          for (const int b : *from) {
            if (b != up.chosen && !dependent(op_of(b), op_of(up.chosen))) {
              f.sleep.insert(b);
            }
          }
        }
      }
      for (const int a : enabled) {
        if (!f.sleep.count(a)) {
          f.chosen = a;
          break;
        }
      }
      if (f.chosen < 0) {
        // Every order from here is covered elsewhere: finish unbranched.
        f.chosen = enabled.front();
        f.explored.insert(enabled.begin(), enabled.end());
      }
      f.explored.insert(f.chosen);
      stack_.push_back(std::move(f));
    }
    const Frame& f = stack_[depth_];
    int a = f.chosen;
    const std::optional<Op>& op = pending_[static_cast<std::size_t>(a)];
    if (!op || op->path != f.pending[static_cast<std::size_t>(a)]->path) {
      diverged_ = true;  // nondeterministic scenario: finish, then report
      a = enabled.front();
    }
    const Op& taken = *pending_[static_cast<std::size_t>(a)];
    schedule_ += " a" + std::to_string(a) + ":" + kind_name(taken.kind) +
                 " " + taken.path + "\n";
    ++depth_;
    return a;
  }

  std::vector<std::optional<Op>> pending_;
  std::set<std::size_t> started_;  ///< actors past their first step
  struct Turn {
    std::binary_semaphore sem{0};
  };
  std::deque<Turn> go_;  ///< per actor: released when it has the turn
  std::binary_semaphore main_{0};
  std::vector<Frame> stack_;
  std::size_t depth_ = 0;
  bool diverged_ = false;
  std::string schedule_;
};

/// The in-memory filesystem, clock and journal of one interleaving, with the
/// history the invariants are checked against.
class ModelFs final : public LeaseFs {
 public:
  struct Creation {
    int actor;
    std::string path;
    LeaseInfo info;
    bool taken_back = false;
  };
  struct Append {
    bool child;
    std::uint64_t begin, end;
  };

  explicit ModelFs(Explorer& e) : explorer_(e) {}

  bool create_exclusive(const std::string& path,
                        const std::string& content) override {
    explorer_.gate({Op::kCreate, path});
    if (files_.count(path)) return false;
    files_[path] = {content, clock_};
    created_.push_back({tl_actor, path, parse_lease(content)});
    fresh_[tl_actor] = created_.size();
    return true;
  }
  bool read(const std::string& path, std::string* out) override {
    explorer_.gate({Op::kRead, path});
    fresh_[tl_actor] = 0;
    const auto it = files_.find(path);
    if (it == files_.end()) return false;
    *out = it->second.content;
    return true;
  }
  bool mtime_ms(const std::string& path, std::uint64_t* out) override {
    explorer_.gate({Op::kMtime, path});
    fresh_[tl_actor] = 0;
    const auto it = files_.find(path);
    if (it == files_.end()) return false;
    *out = it->second.mtime;
    return true;
  }
  int touch(const std::string& path) override {
    explorer_.gate({Op::kTouch, path});
    fresh_[tl_actor] = 0;
    const auto it = files_.find(path);
    if (it == files_.end()) return ENOENT;
    it->second.mtime = clock_;
    return 0;
  }
  std::vector<std::uint64_t> list_generations(
      const std::string& stem) override {
    explorer_.gate({Op::kList, stem});
    return generations(stem);
  }
  void unlink(const std::string& path) override {
    explorer_.gate({Op::kUnlink, path});
    // Create, list, unlink of the same file: the CAS taking its own
    // generation back.
    const std::size_t mine = fresh_[tl_actor];
    fresh_[tl_actor] = 0;
    if (mine != 0 && created_[mine - 1].path == path) {
      created_[mine - 1].taken_back = true;
    }
    if (files_.erase(path) == 0) return;
    const std::string stem = path.substr(0, path.rfind(".g"));
    const std::vector<std::uint64_t> left = generations(stem);
    if (left.empty() || *std::max_element(left.begin(), left.end()) <
                            generation_of(path)) {
      violations_.push_back("unlinked the current generation " + path);
    }
  }
  std::uint64_t now_ms() override { return clock_; }

  /// Model-only steps: time passing, and records landing in the journal.
  void tick(std::uint64_t ms) {
    explorer_.gate({Op::kTick, "clock"});
    clock_ += ms;
  }
  void append(bool child, std::uint64_t begin, std::uint64_t end) {
    explorer_.gate({Op::kAppend, "journal"});
    appends_.push_back({child, begin, end});
  }

  /// Fixture helper: writes a generation directly, no scheduling.
  void put(const std::string& stem, std::uint64_t gen, const LeaseInfo& info) {
    create_exclusive(lease_generation_path(stem, gen), format_lease(info));
  }

  static std::uint64_t generation_of(const std::string& path) {
    return std::strtoull(path.c_str() + path.rfind(".g") + 2, nullptr, 10);
  }

  const std::vector<Creation>& created() const { return created_; }
  const std::vector<Append>& appends() const { return appends_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::vector<std::uint64_t> generations(const std::string& stem) const {
    std::vector<std::uint64_t> out;
    for (const auto& [path, file] : files_) {
      if (path.rfind(stem + ".g", 0) == 0) out.push_back(generation_of(path));
    }
    return out;
  }

  struct File {
    std::string content;
    std::uint64_t mtime;
  };
  Explorer& explorer_;
  std::map<std::string, File> files_;
  std::uint64_t clock_ = 1000000;
  std::vector<Creation> created_;
  std::map<int, std::size_t> fresh_;  ///< per actor: 1 + creation index
                                      ///< while its create is the last step
  std::vector<Append> appends_;
  std::vector<std::string> violations_;
};

/// One execution of a scenario: the fake, the actors' scripts and what they
/// won.
struct World {
  explicit World(Explorer& e) : fs(e) {}
  ModelFs fs;
  std::vector<std::function<void()>> actors;
  std::vector<std::unique_ptr<ShardLease>> fixture_leases;
  std::vector<std::uint64_t> claimed;  ///< generations won by claims

  std::unique_ptr<ShardLease> claim(const std::string& who,
                                    std::uint64_t max_adoptions) {
    try {
      auto lease =
          claim_shard_lease(kStem, who, kTtl, 0, max_adoptions, &fs);
      claimed.push_back(lease->generation());
      return lease;
    } catch (const SimError& e) {
      EXPECT_TRUE(e.kind() == SimError::Kind::kLeaseConflict ||
                  e.kind() == SimError::Kind::kShardQuarantined)
          << e.what();
      return nullptr;
    }
  }
  /// The fleet loop's append: the pre-append probe, then the record.
  bool append(ShardLease& lease, std::uint64_t index) {
    try {
      lease.assert_still_mine();
    } catch (const LeaseLostError&) {
      return false;
    }
    fs.append(false, index, index + 1);
    return true;
  }
};

std::vector<std::string> check_invariants(const World& w) {
  std::vector<std::string> bad = w.fs.violations();
  std::map<std::uint64_t, const ModelFs::Creation*> by_gen;
  std::uint64_t quarantined_at = UINT64_MAX;
  for (const ModelFs::Creation& c : w.fs.created()) {
    if (c.taken_back) continue;
    const std::uint64_t gen = ModelFs::generation_of(c.path);
    if (!by_gen.emplace(gen, &c).second) {
      bad.push_back("two owners of generation " + std::to_string(gen));
    }
    if (c.info.state == LeaseInfo::State::kQuarantined) {
      quarantined_at = std::min(quarantined_at, gen);
    }
  }
  std::uint64_t adoptions = 0;
  for (const auto& [gen, c] : by_gen) {
    if (gen > quarantined_at) {
      bad.push_back("generation " + std::to_string(gen) +
                    " follows the quarantine at " +
                    std::to_string(quarantined_at));
    }
    if (c->info.adoptions < adoptions) {
      bad.push_back("adoption counter fell to " +
                    std::to_string(c->info.adoptions) + " at generation " +
                    std::to_string(gen));
    }
    adoptions = c->info.adoptions;
  }
  for (const std::uint64_t gen : w.claimed) {
    if (gen > quarantined_at) {
      bad.push_back("a claim won generation " + std::to_string(gen) +
                    " after the quarantine");
    }
  }
  for (const ModelFs::Append& p : w.fs.appends()) {
    for (const ModelFs::Append& c : w.fs.appends()) {
      if (!p.child && c.child && p.begin < c.end && c.begin < p.end) {
        bad.push_back("run " + std::to_string(std::max(p.begin, c.begin)) +
                      " appended by the holder and by the steal child");
      }
    }
  }
  return bad;
}

using Scenario = std::function<void(World&)>;

/// Runs `scenario` once per interleaving of its actors' steps (sleep-set
/// reduced) and checks the invariants after each. Returns how many
/// interleavings ran.
std::size_t explore(std::size_t actors, const Scenario& scenario) {
  Explorer explorer(actors);
  std::size_t runs = 0;
  do {
    World w(explorer);
    scenario(w);
    explorer.run(w.actors);
    ++runs;
    if (explorer.diverged()) {
      ADD_FAILURE() << "replay diverged in interleaving #" << runs << ":\n"
                    << explorer.schedule();
      return runs;
    }
    const std::vector<std::string> bad = check_invariants(w);
    if (!bad.empty()) {
      std::string all;
      for (const std::string& v : bad) all += "  " + v + "\n";
      ADD_FAILURE() << "interleaving #" << runs << " violates:\n"
                    << all << "schedule:\n"
                    << explorer.schedule();
      return runs;
    }
  } while (explorer.backtrack());
  std::printf("[ model    ] %zu interleavings\n", runs);
  return runs;
}

LeaseInfo held_by(const std::string& owner, std::uint64_t adoptions) {
  LeaseInfo info;
  info.owner = owner;
  info.adoptions = adoptions;
  return info;
}

TEST(ShardLeaseModel, RacingClaimsAtTheCapQuarantineOnceAndNobodyAdopts) {
  const std::size_t runs = explore(3, [](World& w) {
    w.fs.put(kStem, 1, held_by("doomed", 3));
    w.fs.tick(3 * kTtl);  // the holder died long ago
    for (int i = 0; i < 3; ++i) {
      w.actors.push_back([&w, i] {
        EXPECT_FALSE(w.claim("racer" + std::to_string(i), 3) != nullptr)
            << "a claim at the cap got the lease";
      });
    }
  });
  EXPECT_GT(runs, 1u);
}

TEST(ShardLeaseModel, RecordErrorAdoptAndQuarantineRaceFromOneGeneration) {
  const std::size_t runs = explore(3, [](World& w) {
    w.fs.put(kStem, 1, held_by("dead", 2));
    w.fs.tick(3 * kTtl);
    w.fixture_leases.push_back(w.claim("holder", 3));  // adoption #3
    w.fs.tick(3 * kTtl);  // ...and the holder stalled past its TTL too
    ShardLease* holder = w.fixture_leases.back().get();
    w.actors = {
        [holder] {
          holder->record_error("boom");
          holder->abandon();
        },
        [&w] { w.claim("capped", 3); },  // quarantines: 3 adoptions already
        [&w] {
          if (auto lease = w.claim("uncapped", 0)) lease->abandon();
        },
    };
  });
  EXPECT_GT(runs, 1u);
}

TEST(ShardLeaseModel, ReservationsStealAndAppendsNeverOverlap) {
  constexpr std::size_t kRuns = 12;
  const std::size_t runs = explore(2, [](World& w) {
    w.fixture_leases.push_back(w.claim("holder", 3));
    ShardLease* holder = w.fixture_leases.back().get();
    w.actors = {
        [&w, holder] {
          try {
            holder->reserve_through(0, kRuns);  // watermark 8
            if (!w.append(*holder, 7)) return;
            holder->reserve_through(8, kRuns);  // watermark 12
            if (!w.append(*holder, 8)) return;
            holder->heartbeat();
          } catch (const LeaseLostError&) {
            // The steal won the bump: the tail is the child's.
          }
        },
        [&w] {
          try {
            const LeaseInfo s = steal_lease(kStem, kRuns, kTtl, w.fs);
            w.fs.append(true, s.split_at, kRuns);
          } catch (const SimError&) {
            // No watermark yet, or the holder's reservation won.
          }
        },
    };
  });
  EXPECT_GT(runs, 1u);
}

TEST(ShardLeaseModel, HeartbeatAppendAndReleaseRaceAnAdopter) {
  const std::size_t runs = explore(3, [](World& w) {
    w.fixture_leases.push_back(w.claim("holder", 3));
    ShardLease* holder = w.fixture_leases.back().get();
    w.actors = {
        [&w, holder] {
          if (holder->heartbeat() && w.append(*holder, 0)) holder->release();
        },
        [&w] { w.fs.tick(3 * kTtl); },  // the holder stalls past its TTL
        [&w] {
          if (auto lease = w.claim("adopter", 3)) lease->release();
        },
    };
  });
  EXPECT_GT(runs, 1u);
}

TEST(ShardLeaseModel, FreshClaimsAndReleasesHandTheUnitOn) {
  const std::size_t runs = explore(2, [](World& w) {
    for (const char* who : {"w0", "w1"}) {
      w.actors.push_back([&w, who] {
        if (auto lease = w.claim(who, 3)) lease->release();
      });
    }
  });
  EXPECT_GT(runs, 1u);
}

}  // namespace
}  // namespace sctrace
