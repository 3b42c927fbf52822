// Google-benchmark context injection for ablation_annotation_overhead.
//
// Deliberately a leaf TU with no scperf includes: the bench measures inlined
// charging paths whose codegen (and even final-binary layout) shifts when
// sibling TUs emit different sets of weak inline symbols. A TU that only
// touches benchmark.h cannot move those measurements.

#include <benchmark/benchmark.h>

// "library_build_type" in the JSON context reflects how libbenchmark itself
// was compiled (Debian ships it assert-enabled, so it reads "debug" even
// under -O3); this key records how *this* binary was built, and the CI
// bench-artifact step refuses snapshots whose value is "debug".
void add_build_type_context() {
#ifdef NDEBUG
  benchmark::AddCustomContext("scperf_build_type", "release");
#else
  benchmark::AddCustomContext("scperf_build_type", "debug");
#endif
}
