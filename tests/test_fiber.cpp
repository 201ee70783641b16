// Tests for the stackful fiber primitive underlying the coroutine execution
// backend: resume/yield ordering, completion, stack integrity, many
// concurrent fibers, nesting (fibers inside fibers, simulators inside
// fibers — the shape the parallel trial engine produces), and the per-thread
// cache of guarded stack mappings (guard page kept on reuse, bounded size).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fiber_probe.hpp"
#include "graph/generators.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

using test_util::count_mapped;
using test_util::mapping_start;
using test_util::run_probe_fibers;

TEST(Fiber, ResumeYieldOrdering) {
  std::string log;
  Fiber f{[&] {
    log += "b";
    f.yield();
    log += "d";
    f.yield();
    log += "f";
  }};
  log += "a";
  f.resume();
  log += "c";
  f.resume();
  log += "e";
  f.resume();
  log += "g";
  EXPECT_EQ(log, "abcdefg");
  EXPECT_TRUE(f.done());
}

TEST(Fiber, DoneOnlyAfterEntryReturns) {
  Fiber f{[&] { f.yield(); }};
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_FALSE(f.done());  // suspended at the yield
  f.resume();
  EXPECT_TRUE(f.done());
}

TEST(Fiber, NeverStartedDestructsCleanly) {
  Fiber f{[] { FAIL() << "entry must not run"; }};
  EXPECT_FALSE(f.done());
}

TEST(Fiber, LocalsSurviveYield) {
  std::uint64_t out = 0;
  Fiber f{[&] {
    std::uint64_t acc = 1;
    for (int i = 0; i < 64; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      f.yield();
    }
    out = acc;
  }};
  while (!f.done()) f.resume();

  // Same recurrence computed without any switches.
  std::uint64_t want = 1;
  for (int i = 0; i < 64; ++i) want = want * 6364136223846793005ULL + 1442695040888963407ULL;
  EXPECT_EQ(out, want);
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 32;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counts(kFibers, 0);
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counts[static_cast<std::size_t>(i)];
        fibers[static_cast<std::size_t>(i)]->yield();
      }
    }));
  }
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->done()) {
        f->resume();
        any = true;
      }
    }
  }
  for (int c : counts) EXPECT_EQ(c, kRounds);
}

// Recursion that touches a real call stack across yields — the reason the
// backend uses stackful fibers rather than stackless coroutines.
std::uint64_t yielding_fib(Fiber& self, int n) {
  self.yield();
  if (n < 2) return static_cast<std::uint64_t>(n);
  return yielding_fib(self, n - 1) + yielding_fib(self, n - 2);
}

TEST(Fiber, DeepCallStackAcrossYields) {
  std::uint64_t result = 0;
  Fiber f{[&] { result = yielding_fib(f, 15); }};
  while (!f.done()) f.resume();
  EXPECT_EQ(result, 610u);
}

TEST(Fiber, NestedFibers) {
  std::string log;
  Fiber outer{[&] {
    Fiber inner{[&] {
      log += "2";
      inner.yield();
      log += "4";
    }};
    log += "1";
    inner.resume();
    log += "3";
    outer.yield();  // suspend the outer fiber while the inner one is parked
    inner.resume();
    log += "5";
  }};
  outer.resume();
  outer.resume();
  EXPECT_EQ(log, "12345");
  EXPECT_TRUE(outer.done());
}

// The parallel trial engine runs whole simulators on worker threads; with the
// coroutine backend that means fibers whose caller stack is a worker thread
// and, in nested-simulation tests, fibers created inside fibers. Exercise a
// full SimRuntime from inside a fiber to cover that composition.
TEST(Fiber, SimRuntimeInsideFiber) {
  std::uint64_t delivered = 0;
  Fiber f{[&] {
    SimConfig cfg;
    cfg.gsm = graph::complete(3);
    cfg.seed = 7;
    SimRuntime rt{cfg};
    for (std::uint32_t p = 0; p < 3; ++p) {
      rt.add_process([p](Env& env) {
        Message m;
        m.kind = 1;
        env.send(Pid{(p + 1) % 3}, m);
        std::vector<Message> drained;
        for (int i = 0; i < 20; ++i) {
          env.drain_inbox(drained);
          env.step();
        }
      });
    }
    EXPECT_TRUE(rt.run_until_all_done(10'000));
    rt.rethrow_process_error();
    delivered = rt.metrics().msgs_delivered;
    f.yield();  // suspend with the finished runtime still alive
  }};
  f.resume();
  EXPECT_EQ(delivered, 3u);
  f.resume();
  EXPECT_TRUE(f.done());
}

/// Recurse `depth` levels deep with a live 1 KiB frame per level.
[[gnu::noinline]] unsigned burn_stack(unsigned depth) {
  volatile unsigned char frame[1024];
  frame[0] = static_cast<unsigned char>(depth);
  if (depth == 0) return frame[0];
  return burn_stack(depth - 1) + frame[0];  // not a tail call: frames pile up
}

// A mapping reused from the per-thread stack cache keeps its PROT_NONE guard
// page: running past kDefaultStackBytes on it must fault, not scribble over
// whatever lies below the mapping. A writable sentinel placed right below
// the guard makes a missing guard page show up as an overflow that returns.
TEST(Fiber, GuardPageFaultsOnReusedStack) {
  const auto overflow_reused_stack = [] {
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    const void* first = nullptr;
    {
      Fiber warm{[&] { first = __builtin_frame_address(0); }};
      warm.resume();
    }
    // Still mapped after its fiber died: the mapping sits in the cache, and
    // the next fiber's stack can only land in that range by reusing it.
    const std::uintptr_t stack_lo = mapping_start(first);
    if (stack_lo == 0) std::_Exit(3);
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    constexpr std::size_t kSentinelBytes = 1 << 20;
    // Best effort: if the range is taken, whatever holds it stays below.
    (void)::mmap(reinterpret_cast<void*>(stack_lo - page - kSentinelBytes), kSentinelBytes,
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE,
                 -1, 0);
    Fiber reused{[&] {
      if (mapping_start(__builtin_frame_address(0)) != stack_lo) std::_Exit(4);
      (void)burn_stack(2 * Fiber::kDefaultStackBytes / 1024);
    }};
    reused.resume();
    std::_Exit(0);  // the overflow ran to completion: no guard page
  };
#if defined(MM_FIBER_ASAN) || defined(MM_FIBER_TSAN)
  // The sanitizer's deadly-signal handler reports the fault and exits.
  EXPECT_DEATH(overflow_reused_stack(), "SEGV|stack-overflow");
#else
  EXPECT_EXIT(overflow_reused_stack(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

// The cache parks at most kStackCacheMappings mappings per thread; the
// stacks of every other dead fiber are unmapped.
TEST(Fiber, StackCacheIsBounded) {
  std::size_t parked = 0;
  std::thread fresh{[&] {  // a new thread starts with an empty cache
    parked = count_mapped(run_probe_fibers(1000));
  }};
  fresh.join();
  EXPECT_EQ(parked, Fiber::kStackCacheMappings);
}

}  // namespace
}  // namespace mm::runtime
