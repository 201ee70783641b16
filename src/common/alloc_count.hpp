// Process-wide heap-allocation counting — the test hook behind the
// simulator's "zero heap allocations per steady-state step" invariant.
//
// alloc_count.cpp replaces the global operator new/delete with thin wrappers
// that bump relaxed atomic counters before delegating to malloc/free. The
// counters are process-wide and monotone; tests snapshot them around a window
// (AllocCounts::operator-) and assert on the delta.
//
// The replacement is opt-in. It is built as the CMake OBJECT library
// mm_alloc_count, not as part of mm_common, and only mm_tests and bench_micro
// link it (bench_micro publishes allocs_per_step/bytes_per_step in
// BENCH_runtime.json). Every other binary — tools, experiment benches, the
// benchmark harness — uses the toolchain's operator new, because the shared
// counters cost every allocation on every thread a contended RMW. A binary
// that includes this header must link mm_alloc_count, or the two functions
// below are undefined at link time.
//
// Under AddressSanitizer the replacement is compiled out (ASan owns operator
// new for poisoning/quarantine); alloc_counting_active() reports false and
// counting tests skip themselves.
#pragma once

#include <cstdint>

namespace mm::common {

struct AllocCounts {
  std::uint64_t allocs = 0;  ///< operator new calls (all variants)
  std::uint64_t frees = 0;   ///< operator delete calls (all variants)
  std::uint64_t bytes = 0;   ///< total bytes requested through operator new

  friend AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) noexcept {
    return AllocCounts{a.allocs - b.allocs, a.frees - b.frees, a.bytes - b.bytes};
  }
};

/// Snapshot of the process-wide counters (monotone since process start).
[[nodiscard]] AllocCounts alloc_counts() noexcept;

/// False when the counting operators are compiled out (sanitizer builds);
/// deltas are then always zero and assertions on them are vacuous.
[[nodiscard]] bool alloc_counting_active() noexcept;

}  // namespace mm::common
