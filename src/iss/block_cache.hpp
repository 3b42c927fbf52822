#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "iss/cache.hpp"
#include "iss/cycle_model.hpp"
#include "iss/isa.hpp"

namespace iss {

struct ExecStats;

/// Configuration of the orsim block-level cost cache (see BlockCache below).
/// Defaults come from the environment at Machine construction:
/// ORSIM_BLOCK_CACHE=0 disables it, ORSIM_BLOCK_CACHE_VALIDATE=1 switches to
/// validate mode (charge conventionally and cross-check every cacheable
/// block's cost against the memoized entry, throwing on divergence).
struct BlockCacheConfig {
  bool enabled = true;
  bool validate = false;
  /// Longest basic block memoized, in instructions. Straight-line runs
  /// longer than this are split into consecutive blocks; the cap bounds the
  /// per-entry signature work and the recompute walk on a miss.
  std::size_t max_block_len = 64;
  /// Distinct (exit PC, signature) entries recorded per entry PC before the
  /// block is declared uncacheable (a computed-jump fan-out that never
  /// repeats would otherwise grow the cache without ever hitting).
  std::size_t max_entries_per_block = 64;

  static BlockCacheConfig from_env();
};

/// Block-cache counters (Machine::block_cache_stats).
struct BlockCacheStats {
  std::uint64_t hits = 0;       ///< blocks costed by an O(1) memoized entry
  std::uint64_t misses = 0;     ///< fast-path blocks whose key was new
  std::uint64_t bypassed = 0;   ///< blocks costed conventionally
  std::uint64_t validated = 0;  ///< validate-mode cross-checks that passed
  std::uint64_t replayed_instructions = 0;  ///< per-instr costings skipped
  std::uint64_t cycles_replayed = 0;  ///< cycles applied via memoized entries
  std::uint64_t entries = 0;          ///< live (entry, exit, sig) entries

  /// True when the cache ever skipped per-instruction costing (the property
  /// the soundness tests assert is FALSE wherever a bypass rule applies).
  bool engaged() const { return hits + misses > 0; }
};

/// Block-level cost cache for the orsim interpreter: memoizes the cycle cost
/// of one basic block — the longest statically deterministic execution path
/// from an entry PC, i.e. a straight-line run extended across unconditional
/// jumps (their targets are immediates), ending at the first conditional
/// branch, register jump, halt, loop closure or length cap — so steady-state
/// loop iterations charge per *block* instead of per *instruction*, and the
/// Machine's fast path can execute the block architecturally in a tight loop
/// with no per-instruction fetch/halt/trace/costing checks (DESIGN.md §4).
///
/// Key derivation. An entry is keyed by (entry PC, exit PC) — which pins the
/// exact instruction sequence *and* the branch outcome, since a conditional
/// branch's two exits are distinct PCs — plus an *i-cache tag-state
/// signature*: an FNV-style hash over the tags currently held by the i-cache
/// lines the block's fetches touch (the touched-line set is static, because
/// instruction addresses are). Identical entry tags imply identical per-fetch
/// hit/miss outcomes, identical penalty cycles, and identical final tags, so
/// a hit can replay all three in O(#touched lines).
///
/// Soundness bypasses (the block is costed conventionally, per instruction):
///  - d-cache divergence: a block containing loads/stores while the d-cache
///    timing model is enabled — data addresses are register-dependent, so no
///    static signature captures the d-cache state the cost depends on;
///  - ambiguous exits: a conditional branch whose target equals its
///    fall-through (taken and not-taken costs differ but share one exit PC);
///  - saturation: an entry PC accumulating more than max_entries_per_block
///    distinct (exit, signature) pairs is demoted to uncacheable;
///  - instruction tracing (Machine::enable_trace) and budget edges (fewer
///    instructions left in max_steps than the block is long);
///  - validate mode: charges conventionally and cross-checks instead.
///
/// Byte-identity argument. The cache touches cost accounting only — the
/// architectural switch always executes, so registers, memory, checksums and
/// instruction counts are untouched by construction. Cycles are integers
/// (no FP-order concerns): a hit applies the same per-block sum a
/// conventional walk would produce; a miss *is* that conventional walk
/// (classify + CycleModel + icache access in fetch order), so the recorded
/// entry equals conventional charging exactly. Per-class stats are static
/// per block; i-cache hit/miss counters and final tags are replayed from the
/// memoized entry, whose equality the signature guarantees.
class BlockCache {
 public:
  explicit BlockCache(const BlockCacheConfig& cfg) : cfg_(cfg) {}

  /// Called once per run: sizes the per-PC descriptor table and cancels any
  /// validate snapshot left dangling by a max_steps-truncated previous run
  /// (whose per-run cycle base is meaningless now).
  void bind(const Program& program) {
    if (descs_.size() < program.instrs.size()) {
      descs_.resize(program.instrs.size());
    }
    pending_.active = false;
  }

  /// Mode decision for the block starting at `pc` (called by Machine at
  /// every block boundary). `fast=false` means the machine charges this
  /// block conventionally; the cache still reports its extent (len) so the
  /// next boundary is recognised, and in validate mode snapshots the state
  /// needed for the finish_charged cross-check.
  struct Decision {
    bool fast = false;
    std::uint32_t len = 1;  ///< instructions in the block (>= 1)
  };
  Decision arm(const Program& program, const DirectMappedCache* icache,
               const DirectMappedCache* dcache, std::uint32_t pc,
               std::uint64_t remaining_steps, std::uint64_t cycles_so_far) {
    BlockDesc& d = descs_[pc];
    if (!d.built) build(d, program, icache, dcache, pc);
    if (d.fast_ok && remaining_steps >= d.len) {
      if (!cfg_.validate) return {true, d.len};
      begin_validate(d, icache, pc, cycles_so_far);
      return {false, d.len};
    }
    ++stats_.bypassed;
    return {false, d.len != 0 ? d.len : 1};
  }

  /// Closes a fast-path block: looks up (entry, exit, sig), applies the
  /// memoized cost on a hit or recomputes it conventionally (and records it)
  /// on a miss. Returns the block's cycle cost; applies per-class counts and
  /// i-cache state itself (ExecStats is a complete type wherever Machine
  /// calls this, so the per-class template keeps the header decoupled).
  template <typename Stats>
  std::uint64_t finish_fast(const Program& program, const CycleModel& model,
                            DirectMappedCache* icache, std::uint32_t entry,
                            std::uint32_t exit, Stats& stats) {
    BlockDesc& d = descs_[entry];
    for (std::size_t c = 0; c < d.per_class.size(); ++c) {
      stats.per_class[c] += d.per_class[c];
    }
    const std::uint64_t sig = entry_signature(d, icache);
    for (const Entry& e : d.entries) {
      if (e.exit == exit && e.sig == sig) {
        if (icache != nullptr) {
          for (std::size_t i = 0; i < d.lines.size(); ++i) {
            icache->restore_tag(d.lines[i], d.final_tags[i]);
          }
          icache->account(e.ic_hits, e.ic_misses);
        }
        ++stats_.hits;
        stats_.replayed_instructions += d.len;
        stats_.cycles_replayed += e.cycles;
        return e.cycles;
      }
    }
    return finish_fast_miss(d, program, model, icache, exit, sig);
  }

  /// Closes a conventionally charged block in validate mode: cross-checks
  /// the charged cost delta against the memoized entry (recording it when
  /// new) and throws std::logic_error on divergence.
  void finish_charged(std::uint32_t entry, std::uint32_t exit,
                      std::uint64_t cycles_now, const DirectMappedCache* icache);

  BlockCacheStats stats() const;

  /// Test hook: perturbs every recorded cost so a validate-mode run trips
  /// the cross-check. Never call outside tests.
  void debug_perturb_entries(std::uint32_t extra_cycles);

 private:
  enum class BlockEnd : std::uint8_t {
    kBranch,  ///< ends in bf/bnf: exit is fall-through or target
    kJump,    ///< ends in jr (register exit) or a jump at the length cap
    kHalt,    ///< runs into the halt instruction (exit = halt PC)
    kSplit,   ///< length cap or loop closure mid-path (exit static)
  };

  /// One memoized cost: everything conventional charging of this block with
  /// this entry tag-state would have added.
  struct Entry {
    std::uint32_t exit = 0;
    std::uint64_t sig = 0;
    std::uint64_t cycles = 0;
    std::uint32_t ic_hits = 0;
    std::uint32_t ic_misses = 0;
  };

  /// Static shape of the block at one entry PC (lazy, vector-indexed by PC —
  /// no hashing on the hot path).
  struct BlockDesc {
    bool built = false;
    /// All static soundness rules pass for the Machine's current cache
    /// configuration (which is frozen for this BlockCache's lifetime — the
    /// Machine drops the cache whenever icache/dcache/model change).
    bool fast_ok = false;
    bool uncacheable = false;
    bool has_mem = false;
    BlockEnd end = BlockEnd::kSplit;
    std::uint32_t len = 0;     ///< instructions incl. the transfer
    std::uint32_t target = 0;  ///< branch target (BlockEnd::kBranch only)
    std::vector<std::uint32_t> pcs;  ///< the static path, in execution order
    std::array<std::uint64_t, static_cast<std::size_t>(InstrClass::kCount_)>
        per_class{};
    std::vector<std::uint32_t> lines;      ///< distinct i-cache line indices
    std::vector<std::int64_t> final_tags;  ///< tag per line after the block
    std::vector<Entry> entries;            ///< linear-searched (short)
  };

  void build(BlockDesc& d, const Program& program,
             const DirectMappedCache* icache, const DirectMappedCache* dcache,
             std::uint32_t entry);
  void begin_validate(const BlockDesc& d, const DirectMappedCache* icache,
                      std::uint32_t pc, std::uint64_t cycles_so_far);
  std::uint64_t entry_signature(const BlockDesc& d,
                                const DirectMappedCache* icache) const {
    if (icache == nullptr || d.lines.empty()) return 0;
    constexpr std::uint64_t kP = 1099511628211ull;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint32_t idx : d.lines) {
      h = (h ^ static_cast<std::uint64_t>(icache->tag_at(idx))) * kP;
    }
    h ^= h >> 29;
    return h;
  }
  /// Miss path of finish_fast: the conventional costing walk (classify +
  /// CycleModel + icache access in fetch order, mutating the icache exactly
  /// as per-instruction charging would), recorded as a new entry.
  std::uint64_t finish_fast_miss(BlockDesc& d, const Program& program,
                                 const CycleModel& model,
                                 DirectMappedCache* icache, std::uint32_t exit,
                                 std::uint64_t sig);
  std::uint64_t walk_cost(const BlockDesc& d, const Program& program,
                          const CycleModel& model, DirectMappedCache* icache,
                          std::uint32_t exit) const;

  BlockCacheConfig cfg_;
  BlockCacheStats stats_;
  std::vector<BlockDesc> descs_;  ///< indexed by entry PC

  // Validate-mode snapshot between arm() and finish_charged().
  struct PendingValidate {
    bool active = false;
    std::uint32_t entry = 0;
    std::uint64_t sig = 0;
    std::uint64_t cycles_before = 0;
    std::uint64_t ic_hits_before = 0;
    std::uint64_t ic_misses_before = 0;
  };
  PendingValidate pending_;
};

}  // namespace iss
