// Out-of-line state of SimRuntime's partitioned engine. Only the two
// translation units that implement the runtime include this; everyone else
// sees the forward declarations in sim_runtime.hpp and pays a null pointer.
//
// Concurrency contract (the whole of it — everything else is owner-private):
//   * PubClock::v     — published local clocks. Written by the owning LP
//                       (release), read by every other LP (acquire). These
//                       are the Chandy–Misra–Bryant null messages.
//   * Inbox           — cross-partition handoff. Senders push under mu and
//                       bump `pushed`; the owning LP swap-drains under mu.
//                       The horizon rule guarantees every message that may
//                       deliver at the LP's current step was pushed before
//                       the sender's clock made the horizon check pass, so
//                       the acquire on that clock makes the push visible.
//   * live / stop     — termination: the unique LP that drops `live` to 0
//                       publishes `stop`. An LP observing stop late is
//                       harmless (post-stop picks are all no-ops).
// Per-pid arrays in SimRuntime (proc_state_, pending_, obs_hash_, the
// per-process Metrics vectors, ...) and each register shard are touched only
// by the owner LP during a run chunk; chunks are bracketed by thread join,
// which orders them against the driver thread. Everything else an LP writes
// lives in its own SliceCtx (the context sequential mode has one of).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {

struct SimRuntime::PartitionState {
  /// A message crossing into another partition: destination pid plus the
  /// fully-formed pending-queue entry (delivery step and tie-break seq are
  /// fixed by the sender — they are schedule facts, not receiver choices).
  struct XMsg {
    std::uint32_t to;
    InFlight m;
  };

  struct alignas(64) PubClock {
    std::atomic<Step> v{0};
  };

  struct alignas(64) Inbox {
    std::mutex mu;
    std::vector<XMsg> q;
    std::atomic<std::uint64_t> pushed{0};
  };

  std::vector<Lp> lps;  ///< sized once in start(); never reallocated
  std::vector<PubClock> clocks;
  std::vector<Inbox> inbox;
  /// Per-sender streams replacing the sequential link_rng_/fault_rng_:
  /// global streams would make draw order depend on the interleaving.
  std::vector<Rng> link_rng_of;
  std::vector<Rng> fault_rng_of;
  std::atomic<std::uint32_t> live{0};
  /// CAS-max of every LP's completion step, accumulated BEFORE its live
  /// decrement: real-time completion order can invert virtual-step order
  /// (a crash at s can apply after a finish at t > s when s < t < s + d),
  /// so the unique decrementer-to-zero must publish the max, not its own.
  std::atomic<Step> final_step{0};
  std::atomic<Step> stop{kNever};
};

/// One logical partition: a slice context (whose clock is the LP's local
/// clock — the global step it will evaluate next, and within a slice the
/// step being executed) plus the CMB bookkeeping. Everything here is private
/// to the owning LP while a chunk runs; the driver thread reads/merges
/// between chunks.
struct SimRuntime::Lp : SliceCtx {
  /// Replica of the partitioned scheduler stream. Every LP draws the same
  /// pick sequence — the replicated-scheduler tax that buys lock-free
  /// agreement on the global schedule.
  Rng sched;
  /// This LP's slice of the crash plan: (step, local pid), sorted.
  std::vector<std::pair<Step, std::uint32_t>> crashes;
  std::size_t crash_next = 0;
  /// Horizon cache: local steps strictly below this need no peer-clock scan
  /// (peer clocks only grow, so min observed clock + lookahead stays safe).
  Step safe_until = 0;
  std::uint32_t sends_in_slice = 0;   ///< seq low bits; reset per slice
  std::uint64_t cross_msgs = 0;       ///< sends that left this partition
  std::uint64_t inbox_pulled = 0;     ///< pushes consumed from our inbox
  std::vector<PartitionState::XMsg> drain_scratch;  ///< inbox swap target
  /// Wall-clock CMB stall counters; merged into the runtime's after each
  /// chunk.
  StallProfile stalls;
};

}  // namespace mm::runtime
