// Stackful symmetric-transfer fiber: the userspace context switch behind the
// simulator's coroutine execution backend.
//
// Algorithm bodies are ordinary sequential C++ that calls Env::step() deep
// inside a real call stack, so a stackless C++20 coroutine cannot host them
// unchanged. A Fiber gives each process its own (small, guarded, lazily
// committed) stack and swaps the callee-saved register state directly, which
// makes a scheduler↔process handoff two userspace register swaps instead of
// two semaphore round-trips across OS threads — no syscalls, no kernel
// context switch, no scheduler latency.
//
// Stacks: a fiber's private stack is one mapping with a PROT_NONE guard page
// at its low end, so an overflow faults. Fresh mappings cost mmap + mprotect
// and, on exit, munmap — kernel work under the process-wide mm lock that
// would dominate short simulation trials and serialize parallel trial
// workers. So ~Fiber parks the whole mapping, guard page included and still
// PROT_NONE, on a per-thread free list keyed by mapping size, and the next
// fiber created on that thread with the same size reuses it without a
// syscall. The list holds at most kStackCacheMappings (64) per thread;
// beyond that, and at thread exit, mappings are unmapped. Reuse is
// invisible to algorithms: nothing reads a stack slot it did not write.
// FiberStackPool (guardless, for dense populations) and caller-provided
// stacks bypass the cache.
//
// On x86-64 the switch is a hand-rolled assembly routine (callee-saved GPRs
// only — no code run on these fibers alters the x87/SSE control words, so
// the switch deliberately skips them), and resume()/yield()
// are defined inline here so the scheduler's hot loop compiles down to a
// direct call of that routine. Elsewhere it falls back to POSIX ucontext,
// which is slower (swapcontext saves the signal mask via a syscall) but
// portable; the thread backend remains the reference semantics either way.
//
// Exceptions must never propagate out of the entry function (the simulator's
// process wrapper catches everything); control must never leave a fiber
// except through yield() or entry return. AddressSanitizer builds annotate
// every switch with the __sanitizer_*_switch_fiber protocol, so fiber stacks
// are first-class citizens under ASan (and the inline fast path is disabled:
// switches go through the out-of-line annotated versions).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/assert.hpp"

// Sanitizer detection, needed here because it decides whether
// resume()/yield() may be inlined without the fiber-switch annotations.
#if defined(__SANITIZE_ADDRESS__)
#define MM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MM_FIBER_ASAN 1
#endif
#endif

// ThreadSanitizer tracks a shadow state per thread; switching stacks behind
// its back makes it read the wrong shadow and report phantom races. TSan
// builds therefore register every fiber via the __tsan_*_fiber API and
// announce every transfer (see fiber.cpp) — which, like ASan, forces the
// out-of-line switch path.
#if defined(__SANITIZE_THREAD__)
#define MM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MM_FIBER_TSAN 1
#endif
#endif

#if defined(__x86_64__) && !defined(MM_FIBER_ASAN) && !defined(MM_FIBER_TSAN)
#define MM_FIBER_INLINE_SWITCH 1
extern "C" void mm_fiber_switch(void** save_sp, void* target_sp);
#endif

namespace mm::runtime {

class Fiber {
 public:
  /// Usable stack bytes per fiber (rounded up to the page size; a PROT_NONE
  /// guard page sits below it). Deliberately far smaller than a thread stack:
  /// algorithm bodies are shallow, and pages are committed only when touched.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// Most private stack mappings a thread keeps parked for reuse (see the
  /// header comment); the rest are unmapped when their fibers die.
  static constexpr std::size_t kStackCacheMappings = 64;

  /// Create a suspended fiber that will run `entry` on first resume(), on a
  /// private guarded stack (reused from this thread's cache when one of the
  /// same size is parked there; see the header comment).
  /// `entry` must not throw and must return (or yield forever); destroying a
  /// fiber that is suspended mid-entry skips the destructors of everything
  /// live on its stack, so owners drain fibers to completion first.
  explicit Fiber(std::function<void()> entry,
                 std::size_t stack_bytes = kDefaultStackBytes);

  /// Run on caller-provided stack memory [stack_lo, stack_lo + stack_bytes)
  /// instead of a private guarded mapping — the million-fiber form, paired
  /// with FiberStackPool. No guard page: an overflow corrupts the
  /// neighbouring stack instead of faulting, so size generously. The memory
  /// must outlive the fiber; the fiber never frees it.
  Fiber(std::function<void()> entry, void* stack_lo, std::size_t stack_bytes);

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber. Returns when the fiber calls yield()
  /// or its entry function returns. Must not be called re-entrantly or after
  /// done().
#if defined(MM_FIBER_INLINE_SWITCH)
  // The inline-switch build trades the state-machine asserts (and the
  // running_ bookkeeping they need) for a handoff that is just the register
  // swap — this pair is the floor under every simulator step, so each saved
  // load/store counts. The ucontext/sanitizer build below keeps the checks.
  void resume() {
    started_ = true;
    mm_fiber_switch(&caller_sp_, sp_);
  }
#else
  void resume();
#endif

  /// Transfer control back to the most recent resumer. Only callable from
  /// inside the fiber.
#if defined(MM_FIBER_INLINE_SWITCH)
  void yield() { mm_fiber_switch(&sp_, caller_sp_); }
#else
  void yield();
#endif

  /// True once the entry function has returned; resume() is then forbidden.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Implementation hook: the C++ side of the assembly trampoline. Public
  /// only because the extern "C" thunk must reach it; never call directly.
  static void run_entry(Fiber* self);

 private:
#if !defined(__x86_64__)
  static void ucontext_trampoline(unsigned hi, unsigned lo);
#endif

  /// Shared tail of both constructors: seed the switch frame / ucontext on
  /// the (already chosen) stack.
  void init_context();

  std::function<void()> entry_;
  void* stack_map_ = nullptr;   ///< mmap base (guard page at the low end); null for external stacks
  std::size_t map_bytes_ = 0;   ///< guard + usable
  void* stack_lo_ = nullptr;    ///< lowest usable stack address
  std::size_t stack_bytes_ = 0; ///< usable stack size
  bool started_ = false;
  bool running_ = false;
  bool done_ = false;

  // Saved machine contexts. On x86-64 a context is just a stack pointer (the
  // callee-saved registers live on the owning stack); the ucontext fallback
  // keeps full ucontext_t blobs out-of-line to spare the common-case header.
  void* sp_ = nullptr;        ///< fiber's stack pointer while suspended
  void* caller_sp_ = nullptr; ///< resumer's stack pointer while fiber runs
#if !defined(__x86_64__)
  void* uctx_ = nullptr;        ///< ucontext_t of the fiber
  void* caller_uctx_ = nullptr; ///< ucontext_t of the resumer
#endif

  // AddressSanitizer fake-stack bookkeeping (unused members cost nothing in
  // plain builds and keep the layout identical across configurations).
  void* caller_fake_stack_ = nullptr;       ///< saved by resume()
  void* fiber_fake_stack_ = nullptr;        ///< saved by yield()
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;

  // ThreadSanitizer fiber identities (TSan builds only; see fiber.cpp).
  void* tsan_fiber_ = nullptr;   ///< this fiber's __tsan_create_fiber handle
  void* tsan_caller_ = nullptr;  ///< the resumer's identity, saved by resume()
};

/// Bulk stack storage for dense fiber populations (n ≥ 10^5).
//
// One private guarded mapping per fiber costs two VMAs (guard + stack),
// and the kernel caps a process at vm.max_map_count mappings (~65k by
// default) — a hard wall far below a million fibers. The pool instead
// carves guardless stacks out of large MAP_NORESERVE chunks, so a million
// 32 KiB stacks need only ~2k mappings and commit physical pages lazily as
// each fiber first touches its stack. The trade: no overflow fault — pick
// stack sizes with headroom. Released stacks are recycled LIFO.
//
// Not thread-safe; one pool per owning runtime. The pool must outlive every
// fiber whose stack it provided.
class FiberStackPool {
 public:
  explicit FiberStackPool(std::size_t stack_bytes, std::size_t stacks_per_chunk = 512);
  ~FiberStackPool();
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// Lowest address of a fresh (or recycled) stack of stack_bytes().
  [[nodiscard]] void* acquire();
  /// Return a stack obtained from acquire() for reuse.
  void release(void* stack_lo) { free_.push_back(stack_lo); }

  [[nodiscard]] std::size_t stack_bytes() const noexcept { return stack_bytes_; }
  /// Number of chunk mappings created so far (VMA budget introspection).
  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  std::size_t stack_bytes_;
  std::size_t per_chunk_;
  std::size_t next_in_chunk_;  ///< slots handed out of the newest chunk
  std::vector<void*> chunks_;
  std::vector<void*> free_;
};

}  // namespace mm::runtime
