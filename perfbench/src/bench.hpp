// Shared pieces of the benchmark's workloads: options, seeded item
// sequences, correctness bookkeeping and the outcome each workload reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "trace.hpp"
#include "trace/campaign.hpp"
#include "workloads/table1.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;   ///< files the benchmark owns (journal, span file)
  unsigned threads = 1;  ///< campaign pool size: min(num_cpus, 4)
};

/// splitmix64: the seed alone fixes every input a workload generates.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// Item kinds in seeded order, drawn in shuffled blocks that hold every
/// kind once: the seed fixes the order, while the mix stays the same for
/// every seed, so the seed does not move throughput through the mix.
class BlockSequence {
 public:
  BlockSequence(std::size_t kinds, std::uint64_t seed) : kinds_(kinds), rng_(seed) {}
  std::size_t next() {
    if (pos_ == block_.size()) {
      block_.resize(kinds_);
      for (std::size_t i = 0; i < kinds_; ++i) block_[i] = i;
      for (std::size_t i = kinds_; i > 1; --i) std::swap(block_[i - 1], block_[rng_.below(i)]);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  std::size_t kinds_;
  Rng rng_;
  std::vector<std::size_t> block_;
  std::size_t pos_ = 0;
};

/// FNV-1a over the simulated statistics a workload produces, so that two
/// commits can be compared exactly.
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(long v) { add(&v, sizeof v); }
  void add(minisc::Time t) { add(t.to_ps()); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Counts failed correctness checks; keeps the first messages for the log.
class Checks {
 public:
  /// Records a failure of the current item when !ok.
  void expect(bool ok, const std::string& subject, const char* what) {
    if (ok) return;
    item_failed_ = true;
    if (messages.size() < 8) messages.push_back(subject + ": " + what);
  }
  /// Closes the current item; true when all of its checks passed.
  bool end_item() {
    ++attempted;
    const bool ok = !item_failed_;
    failed += item_failed_ ? 1 : 0;
    item_failed_ = false;
    return ok;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

 private:
  bool item_failed_ = false;
};

/// What a workload measured. End-to-end fields come from untraced runs;
/// the traced run fills the pool fields and reads spans and counters.
struct Outcome {
  double setup_s = 0.0;         ///< median over the set-ups of the run
  std::vector<double> item_ms;  ///< thread CPU time per measured item
  /// Windows of consecutive items (≥ kWindowS, or one campaign batch):
  /// the index in item_ms where each ends.
  std::vector<std::size_t> window_ends;
  double items_per_s = 0.0;     ///< closed-loop throughput: items / elapsed
  double overhead_x = 0.0;
  double err_pct_max = 0.0;
  double err_pct_heldout = 0.0;
  std::uint64_t digest = 0;
  Checks checks;
  double gain_x = 0.0;   ///< ISS host time / annotated host time

  // campaign, traced run only
  double campaign_self_s = 0.0;  ///< Σ run() wall × threads − Σ item time
  double pool_busy_frac = 0.0;   ///< Σ item time / (Σ run() wall × threads)
  double scaling_x = 0.0;        ///< items/s at the pool size / at 1 thread
};

/// One Table-1 kernel with the results of its first run in each form.
struct KernelRef {
  workloads::Benchmark bench;
  long checksum = 0;        ///< agreed by all three forms
  double cycles = 0.0;      ///< library estimate
  minisc::Time sim_time;    ///< strict-timed simulated time
  std::uint64_t iss_cycles = 0;
  std::uint64_t iss_instructions = 0;
  double err_pct = 0.0;     ///< 100 (cycles - iss_cycles) / iss_cycles
};

/// Estimation accuracy of the library on the six Table-1 kernels and the
/// held-out make_matrix against the ISS, at a 50 MHz target clock.
/// Deterministic.
struct Calibration {
  std::vector<KernelRef> kernels;  ///< the six kernels, then make_matrix
  double err_pct_max = 0.0;        ///< worst |err| of the six kernels
  double err_pct_heldout = 0.0;    ///< |err| of make_matrix
  std::uint64_t digest = 0;
};

/// Runs every kernel once in each form. Throws std::runtime_error when the
/// three forms disagree on a checksum.
Calibration calibrate();

template <typename T>
T median(std::vector<T> v) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Shortest window of consecutive items for item_ms_p50, in seconds.
inline constexpr double kWindowS = 1.0;

/// Cuts a one-thread run into consecutive windows of at least kWindowS
/// (each ends at the first item completed past it; a trailing partial
/// window is dropped) and appends each window's end, an item index, to
/// `window_ends`.
inline void close_windows(const std::vector<std::int64_t>& done_ns,
                          std::int64_t start_ns,
                          std::vector<std::size_t>& window_ends) {
  const auto w = static_cast<std::int64_t>(kWindowS * 1e9);
  std::int64_t from = start_ns;
  for (std::size_t i = 0; i < done_ns.size(); ++i) {
    if (done_ns[i] - from < w) continue;
    window_ends.push_back(i + 1);
    from = done_ns[i];
  }
}

/// Runs `setup` `reps` times; returns the median wall time in seconds.
template <typename Fn>
double timed_setups(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(s);
}

/// One run of the campaign's fault pipeline. `timed` = false runs the same
/// specification untimed on a bare Simulator — no Estimator and no
/// FaultInjector, the channels still lossy — for the campaign's overhead_x.
sctrace::CampaignRunResult run_pipeline(std::uint64_t seed, bool timed);

Outcome run_table1(const Options& o);
Outcome run_vocoder(const Options& o);
Outcome run_campaign(const Options& o);

}  // namespace perfbench

