#include "core/segment_cache.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/context.hpp"
#include "core/resource.hpp"

namespace scperf {

SegmentCacheConfig SegmentCacheConfig::from_env() {
  SegmentCacheConfig cfg;
  if (const char* v = std::getenv("SCPERF_SEGMENT_CACHE")) {
    cfg.enabled = !(v[0] == '0' && v[1] == '\0');
  }
  if (const char* v = std::getenv("SCPERF_CACHE_VALIDATE")) {
    cfg.validate = !(v[0] == '0' && v[1] == '\0');
  }
  if (const char* v = std::getenv("SCPERF_FUSED_KERNELS")) {
    cfg.fuse_kernels = !(v[0] == '0' && v[1] == '\0');
  }
  return cfg;
}

SegmentCacheStats& SegmentCacheStats::operator+=(const SegmentCacheStats& o) {
  hits += o.hits;
  misses += o.misses;
  bypassed += o.bypassed;
  validated += o.validated;
  replayed_ops += o.replayed_ops;
  cycles_saved += o.cycles_saved;
  entries += o.entries;
  kernel_builds += o.kernel_builds;
  kernel_hits += o.kernel_hits;
  kernel_ops_folded += o.kernel_ops_folded;
  return *this;
}

// The trace buffer grows in place (doubling, 4096-aligned so trace_push's
// low-bits test lands exactly on block edges); the watchdog probe fires at
// every edge, preserving the one-probe-per-4096-charges cadence of charge().
void SegmentAccum::trace_block_edge() {
  detail::annotation_watchdog_probe();
  if (trace_pos != trace_end) return;  // mid-buffer block edge: probe only
  const std::size_t used = static_cast<std::size_t>(trace_pos - trace_begin);
  if (used >= trace_limit) {
    // Segment outgrew the trace: fold what was traced back into the
    // conventional accounting (same op order, so the same double sum) and
    // finish the segment uncached.
    trace_overflow = true;
    const bool fold = replaying;  // validate mode charged all along
    replaying = false;
    tracing = false;
    if (fold) {
      for (const unsigned char* p = trace_begin; p != trace_pos; ++p) {
        const Op op = static_cast<Op>(*p);
        sum_cycles += (*table)[op];
        ++op_count;
        ++op_histogram[*p];
      }
    }
    return;
  }
  const std::size_t cap = used == 0 ? 4096 : used * 2;
  auto* grown = static_cast<unsigned char*>(std::aligned_alloc(4096, cap));
  if (grown == nullptr) throw std::bad_alloc();
  // The first grow has no old buffer, and memcpy forbids null even for 0.
  if (used != 0) std::memcpy(grown, trace_begin, used);
  std::free(trace_begin);
  trace_begin = grown;
  trace_pos = grown + used;
  trace_end = grown + cap;
}

namespace {
/// One kernel block: matches the 4096-op cadence of the trace buffer (and of
/// the watchdog probe), so prefix folds line up with trace_block_edge().
constexpr std::size_t kKernelBlock = 4096;
}  // namespace

std::uint64_t SegmentCache::signature(const unsigned char* p, std::size_t n,
                                      std::vector<LaneState>* checkpoints) {
  // Four independent FNV-style lanes over 8-byte words: the multiply chains
  // stay short enough that hashing a multi-thousand-op trace costs a small
  // fraction of the replay it authorises.
  constexpr std::uint64_t kP = 1099511628211ull;
  std::uint64_t h0 = 0x9e3779b97f4a7c15ull, h1 = 0xbf58476d1ce4e5b9ull;
  std::uint64_t h2 = 0x94d049bb133111ebull, h3 = 0x2545f4914f6cdd1dull;
  const std::size_t words = n / 8;
  std::size_t i = 0;
  if (checkpoints != nullptr) {
    // Full 4096-byte blocks first, snapshotting the lane state after each:
    // the fused-kernel prefix match compares these snapshots, so the block
    // comparison rides this pass for free. 4096 is a multiple of the 32-byte
    // stride, so the boundaries land exactly between iterations.
    constexpr std::size_t kBlockWords = kKernelBlock / 8;
    const std::size_t full_words = (n / kKernelBlock) * kBlockWords;
    checkpoints->reserve(n / kKernelBlock);
    while (i < full_words) {
      for (const std::size_t edge = i + kBlockWords; i < edge; i += 4) {
        std::uint64_t w0, w1, w2, w3;
        std::memcpy(&w0, p + 8 * i, 8);
        std::memcpy(&w1, p + 8 * (i + 1), 8);
        std::memcpy(&w2, p + 8 * (i + 2), 8);
        std::memcpy(&w3, p + 8 * (i + 3), 8);
        h0 = (h0 ^ w0) * kP;
        h1 = (h1 ^ w1) * kP;
        h2 = (h2 ^ w2) * kP;
        h3 = (h3 ^ w3) * kP;
      }
      checkpoints->push_back({h0, h1, h2, h3});
    }
  }
  for (; i + 4 <= words; i += 4) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p + 8 * i, 8);
    std::memcpy(&w1, p + 8 * (i + 1), 8);
    std::memcpy(&w2, p + 8 * (i + 2), 8);
    std::memcpy(&w3, p + 8 * (i + 3), 8);
    h0 = (h0 ^ w0) * kP;
    h1 = (h1 ^ w1) * kP;
    h2 = (h2 ^ w2) * kP;
    h3 = (h3 ^ w3) * kP;
  }
  std::uint64_t tail = 0;
  for (; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + 8 * i, 8);
    tail = (tail ^ w) * kP;
  }
  std::uint64_t last = 0;
  if (n % 8 != 0) std::memcpy(&last, p + 8 * words, n % 8);
  tail = (tail ^ last ^ (static_cast<std::uint64_t>(n) * kP)) * kP;
  std::uint64_t out = tail;
  for (std::uint64_t v : {h0, h1, h2, h3}) {
    out = (out ^ v) * kP;
    out ^= out >> 29;
  }
  return out ^ (out >> 32);
}

void SegmentCache::arm(SegmentAccum& a, const std::string& from,
                       const Resource& r) {
  a.replaying = false;
  a.tracing = false;
  a.trace_overflow = false;
  a.trace_pos = a.trace_begin;
  a.trace_limit = cfg_.trace_limit;
  if (!cfg_.enabled) return;
  // Ready tracking and DFG recording are per-op recurrences over operand
  // state; an aggregate delta cannot replay them (same class of reason the
  // paper computes the HW critical path online).
  if (a.track_ready || a.record_dfg) return;
  // Pulse / downtime / crash injection makes per-op cost execution-time-
  // dependent on this resource: never memoize there.
  if (r.memo_unsafe()) return;
  const auto it = nodes_.find(from);
  if (it == nodes_.end() || !it->second.seen || it->second.uncacheable) return;
  if (cfg_.validate) {
    a.tracing = true;
  } else {
    a.replaying = true;
  }
}

SegmentCache::Delta SegmentCache::derive_plain(const SegmentAccum& a) const {
  Delta d;
  for (const unsigned char* p = a.trace_begin; p != a.trace_pos; ++p) {
    d.sum_cycles += (*a.table)[static_cast<Op>(*p)];
    ++d.op_count;
    ++d.op_histogram[*p];
  }
  // SW-style accumulators only (arm() excludes track_ready): the critical
  // path is never live during a trace, so the replayed max_ready is zero —
  // exactly what conventional charging would have left.
  return d;
}

SegmentCache::Delta SegmentCache::derive(
    const SegmentAccum& a, const std::string& id,
    const std::vector<LaneState>& checkpoints) {
  Delta d;
  const unsigned char* begin = a.trace_begin;
  Kernel* k = cfg_.fuse_kernels ? &kernels_[id] : nullptr;
  std::size_t blk = 0;
  if (k != nullptr) {
    // Longest common block-aligned prefix between this trace and the kernel:
    // the lane states were snapshotted by resolve()'s signature pass, so the
    // comparison is four word compares per 4096 ops — no re-hashing. Lane
    // states are running folds, so the first mismatch ends the prefix.
    const std::size_t lim = std::min(checkpoints.size(), k->block_state.size());
    while (blk < lim && checkpoints[blk] == k->block_state[blk]) {
      ++blk;
    }
    if (blk != 0) {
      // Seed from the memoized fold. Bit-identical to walking the prefix:
      // the fold starts from the same exact 0.0 over the same bytes, and
      // IEEE addition is deterministic.
      d.sum_cycles = k->prefix_sum[blk - 1];
      d.op_count = static_cast<std::uint64_t>(blk) * kKernelBlock;
      d.op_histogram = k->prefix_hist[blk - 1];
      ++stats_.kernel_hits;
      stats_.kernel_ops_folded += d.op_count;
      // One probe stands in for the per-4096-op cadence of the skipped walk.
      detail::annotation_watchdog_probe();
    }
  }
  // Walk the suffix; while this trace extends the kernel's known prefix
  // (it matched ALL recorded blocks), compile the newly walked full blocks
  // into the kernel so the next miss can skip them too. A trace that
  // *diverged* mid-kernel leaves the kernel untouched (first stream wins;
  // traces with other control paths still reuse the shared prefix).
  const bool extend = k != nullptr && blk == k->block_state.size();
  bool extended = false;
  std::size_t done = blk * kKernelBlock;
  for (const unsigned char* p = begin + done; p != a.trace_pos; ++p) {
    d.sum_cycles += (*a.table)[static_cast<Op>(*p)];
    ++d.op_count;
    ++d.op_histogram[*p];
    ++done;
    if (extend && (done & (kKernelBlock - 1)) == 0) {
      // The lane state of every full block of this trace is already in
      // `checkpoints`; extension is three push_backs, no hashing.
      k->block_state.push_back(checkpoints[done / kKernelBlock - 1]);
      k->prefix_sum.push_back(d.sum_cycles);
      k->prefix_hist.push_back(d.op_histogram);
      extended = true;
    }
  }
  if (extended) ++stats_.kernel_builds;
  return d;
}

void SegmentCache::record(NodeState& ns,
                          std::unordered_map<std::uint64_t, Delta>& by_sig,
                          std::uint64_t sig, const Delta& d) {
  if (ns.uncacheable) return;
  if (ns.entries >= cfg_.max_entries_per_node) {
    // A node whose control path never repeats would grow the cache without
    // bound; stop both recording and arming for it.
    ns.uncacheable = true;
    return;
  }
  by_sig.emplace(sig, d);
  ++ns.entries;
}

void SegmentCache::resolve(SegmentAccum& a, const std::string& from,
                           const std::string& to) {
  NodeState& ns = nodes_[from];
  if (a.trace_overflow) {
    ns.uncacheable = true;
    ns.seen = true;
    ++stats_.bypassed;
    // The segment outgrew trace_limit: its prefix aggregates can never be
    // checked against a full trace again, so demote the kernel exactly as
    // the entry node is demoted.
    kernels_.erase(from + "->" + to);
    return;
  }
  if (!a.replaying && !a.tracing) {
    // Conventionally charged: cold node, memo-unsafe resource, or disabled.
    ns.seen = true;
    ++stats_.bypassed;
    return;
  }
  const std::size_t n = static_cast<std::size_t>(a.trace_pos - a.trace_begin);
  // One pass serves both: the entry signature and (when kernels are on) the
  // per-block lane snapshots the fused derive compares against.
  std::vector<LaneState>& ckpt = scratch_ckpt_;
  ckpt.clear();
  const std::uint64_t sig =
      signature(a.trace_begin, n, cfg_.fuse_kernels ? &ckpt : nullptr);
  const std::string id = from + "->" + to;
  auto& by_sig = entries_[id];
  const auto it = by_sig.find(sig);
  if (a.replaying) {
    if (it != by_sig.end()) {
      const Delta& e = it->second;
      a.sum_cycles += e.sum_cycles;
      a.max_ready = std::max(a.max_ready, e.max_ready);
      a.op_count += e.op_count;
      for (std::size_t i = 0; i < kNumOps; ++i) {
        a.op_histogram[i] += e.op_histogram[i];
      }
      ++stats_.hits;
      stats_.replayed_ops += e.op_count;
      stats_.cycles_saved += e.sum_cycles;
    } else {
      const Delta d = derive(a, id, ckpt);
      a.sum_cycles += d.sum_cycles;
      a.op_count += d.op_count;
      for (std::size_t i = 0; i < kNumOps; ++i) {
        a.op_histogram[i] += d.op_histogram[i];
      }
      ++stats_.misses;
      record(ns, by_sig, sig, d);
    }
    return;
  }
  // Validate mode: the accumulator was charged conventionally; the trace
  // gives the delta replay WOULD have applied. Cross-check both against each
  // other and against any recorded entry before trusting the cache design.
  const Delta d = derive_plain(a);
  const auto mismatch = [&](const char* what, double got, double want) {
    std::ostringstream os;
    os << "scperf: segment cache validation failed for segment \"" << from
       << "->" << to << "\" (" << what << ": replay " << got
       << " != charged " << want << ")";
    throw std::logic_error(os.str());
  };
  if (cfg_.fuse_kernels) {
    // Exercise the fused path too (building/extending the kernel as replay
    // would) and require it to be bitwise equal to the plain walk.
    const Delta f = derive(a, id, ckpt);
    if (f.sum_cycles != d.sum_cycles) {
      mismatch("fused sum_cycles", f.sum_cycles, d.sum_cycles);
    }
    if (f.op_count != d.op_count) {
      mismatch("fused op_count", static_cast<double>(f.op_count),
               static_cast<double>(d.op_count));
    }
    if (f.op_histogram != d.op_histogram) {
      mismatch("fused op_histogram", 0.0, 0.0);
    }
  }
  if (it != by_sig.end()) {
    const Delta& e = it->second;
    if (e.sum_cycles != d.sum_cycles) {
      mismatch("sum_cycles", e.sum_cycles, d.sum_cycles);
    }
    if (e.op_count != d.op_count) {
      mismatch("op_count", static_cast<double>(e.op_count),
               static_cast<double>(d.op_count));
    }
    if (e.op_histogram != d.op_histogram) {
      mismatch("op_histogram", 0.0, 0.0);
    }
    ++stats_.validated;
  } else {
    ++stats_.misses;
    record(ns, by_sig, sig, d);
  }
}

SegmentCacheStats SegmentCache::stats() const {
  SegmentCacheStats s = stats_;
  s.entries = 0;
  for (const auto& [id, by_sig] : entries_) s.entries += by_sig.size();
  return s;
}

void SegmentCache::debug_perturb_entries(double extra_cycles) {
  for (auto& [id, by_sig] : entries_) {
    for (auto& [sig, d] : by_sig) d.sum_cycles += extra_cycles;
  }
}

void SegmentCache::debug_perturb_kernels(double extra_cycles) {
  for (auto& [id, k] : kernels_) {
    for (double& s : k.prefix_sum) s += extra_cycles;
  }
}

}  // namespace scperf
