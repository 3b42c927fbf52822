// Ablation C (DESIGN.md §4): host-side cost of the annotation fabric,
// measured with google-benchmark. Three configurations per kernel:
//   - plain:     raw C++ types (the untimed specification);
//   - inactive:  annotated types with no active accumulator (estimation off:
//                one thread-local load + branch per op);
//   - active:    annotated types charging into an accumulator (estimation on,
//                including HW-style ready tracking).
// This quantifies the "library overload" mechanism behind Table 1's
// host-time columns.

#include <benchmark/benchmark.h>

#include "core/annot.hpp"
#include "core/context.hpp"
#include "core/cost_table.hpp"

namespace {

constexpr int kN = 1000;

void BM_PlainArithmetic(benchmark::State& state) {
  for (auto _ : state) {
    int acc = 0;
    for (int i = 0; i < kN; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PlainArithmetic);

void BM_AnnotatedInactive(benchmark::State& state) {
  scperf::tl_accum = nullptr;
  for (auto _ : state) {
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < kN; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc.value());
  }
}
BENCHMARK(BM_AnnotatedInactive);

void BM_AnnotatedActiveSw(benchmark::State& state) {
  const scperf::CostTable table = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum accum;
  accum.table = &table;
  scperf::tl_accum = &accum;
  for (auto _ : state) {
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < kN; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc.value());
  }
  scperf::tl_accum = nullptr;
}
BENCHMARK(BM_AnnotatedActiveSw);

void BM_AnnotatedActiveHwReadyTracking(benchmark::State& state) {
  const scperf::CostTable table = scperf::asic_hw_cost_table();
  scperf::SegmentAccum accum;
  accum.table = &table;
  accum.track_ready = true;
  scperf::tl_accum = &accum;
  for (auto _ : state) {
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < kN; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc.value());
  }
  scperf::tl_accum = nullptr;
}
BENCHMARK(BM_AnnotatedActiveHwReadyTracking);

void BM_AnnotatedActiveHwDfgRecording(benchmark::State& state) {
  const scperf::CostTable table = scperf::asic_hw_cost_table();
  scperf::SegmentAccum accum;
  accum.table = &table;
  accum.track_ready = true;
  accum.record_dfg = true;
  scperf::tl_accum = &accum;
  for (auto _ : state) {
    accum.reset();
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < kN; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc.value());
  }
  scperf::tl_accum = nullptr;
}
BENCHMARK(BM_AnnotatedActiveHwDfgRecording);

void BM_ArrayIndexingPlain(benchmark::State& state) {
  std::vector<int> a(256, 7);
  for (auto _ : state) {
    int acc = 0;
    for (int i = 0; i < 256; ++i) acc += a[static_cast<std::size_t>(i)];
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ArrayIndexingPlain);

void BM_ArrayIndexingAnnotated(benchmark::State& state) {
  const scperf::CostTable table = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum accum;
  accum.table = &table;
  scperf::tl_accum = &accum;
  scperf::garray<int> a(256);
  for (std::size_t i = 0; i < 256; ++i) a.at_raw(i).set_raw(7);
  for (auto _ : state) {
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < 256; ++i) acc += a[static_cast<std::size_t>(i)];
    benchmark::DoNotOptimize(acc.value());
  }
  scperf::tl_accum = nullptr;
}
BENCHMARK(BM_ArrayIndexingAnnotated);

}  // namespace

// JSON-context injection (bench_context.cpp).
void add_build_type_context();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  add_build_type_context();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
