// The partitioned (LP-sharded) engine of SimRuntime.
//
// K logical partitions advance the same global virtual-step line
// concurrently under Chandy–Misra–Bryant conservative synchronization. Every
// LP replays an identical replica of the scheduler stream, so all LPs agree
// on which process owns every step without communicating; an LP executes the
// steps of its own processes and treats everyone else's as no-ops. The link
// delay lower bound is the lookahead: before executing a local slice at step
// t, an LP waits until every peer's published clock c_q satisfies
// c_q + min_delay > t, which guarantees every message deliverable at or
// before t has already been pushed (and, via the acquire on the clock, is
// visible). The minimum-clock LP always passes the check, so the scheme is
// deadlock-free without explicit null messages — the atomic clock stores ARE
// the null messages.
//
// Determinism: the trajectory is a pure function of (seed, config) — by
// construction invariant in the partition count and MM_JOBS — but it is its
// OWN schedule contract, intentionally distinct from sequential mode (see
// docs/RUNTIME.md "Partitioned execution").
#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "exec/worker_pool.hpp"
#include "graph/partitioner.hpp"
#include "runtime/sim_partition_detail.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {

thread_local SimRuntime::PartCtx SimRuntime::tl_part_;

void SimRuntime::init_partitions() {
  if (!config_.partitions.has_value()) return;  // sequential mode
  const std::uint32_t req = *config_.partitions;  // validate() enforced every eligibility rule
  if (!config_.partition_of.empty()) {
    // Explicit plan, already validated. Used as-is: a partition left with no
    // processes is legal and runs as a pure no-op scanner.
    part_of_ = config_.partition_of;
    nparts_ = req;
  } else {
    graph::PartitionPlan plan = graph::partition_components(config_.gsm, req);
    part_of_ = std::move(plan.part_of);
    nparts_ = plan.k;
  }
  partitioned_ = true;
  part_ = std::make_unique<PartitionState>();
  // Shards exist from construction so register_value/register_dump work on a
  // runtime that never ran.
  shards_ = std::vector<RegShard>(nparts_);
}

void SimRuntime::start_partitioned() {
  const std::size_t n = config_.n();
  PartitionState& ps = *part_;
  ps.lps = std::vector<Lp>(nparts_);
  ps.clocks = std::vector<PartitionState::PubClock>(nparts_);
  ps.inbox = std::vector<PartitionState::Inbox>(nparts_);
  // Per-sender split streams, derived in pid order from the same seed bases
  // the sequential global streams use.
  Rng link_seeder{config_.seed * 0xc2b2ae3d27d4eb4fULL + 2};
  Rng fault_seeder{config_.seed * 0xd6e8feb86659fd93ULL + 3};
  ps.link_rng_of.reserve(n);
  ps.fault_rng_of.reserve(n);
  for (std::size_t p = 0; p < n; ++p) ps.link_rng_of.push_back(link_seeder.split());
  for (std::size_t p = 0; p < n; ++p) ps.fault_rng_of.push_back(fault_seeder.split());
  for (std::size_t p = 0; p < n; ++p) procs_[p].env->ctx_ = &ps.lps[part_of_[p]];
  for (std::uint32_t q = 0; q < nparts_; ++q) {
    Lp& lp = ps.lps[q];
    lp.index = q;
    // Every LP replays the same pick stream — replicas of sched_rng_'s
    // initial state, never the live object. This is the replicated-scheduler
    // tax that buys lock-free agreement on the global schedule.
    lp.sched = Rng{config_.seed * 0x9e3779b97f4a7c15ULL + 1};
    lp.burst = main_.burst;
    ctxs_.push_back(&lp);
  }
  for (const auto& [step, pid] : crash_schedule_)
    ps.lps[part_of_[pid]].crashes.emplace_back(step, pid);
  ps.live.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
}

Step SimRuntime::run_partitioned(Step k) {
  MM_ASSERT_MSG(!schedule_policy_,
                "schedule policies are sequential-only (the partitioned pick "
                "schedule is static)");
  MM_ASSERT_MSG(main_.injector == nullptr,
                "partitioned mode takes per-partition injector replicas "
                "(set_partition_fault_injectors), not a single global injector");
  PartitionState& ps = *part_;
  if (k == 0 || ps.live.load(std::memory_order_acquire) == 0) return 0;
  const Step base = main_.clock;
  const Step target = base + k;
  std::vector<exec::WorkerTiming> timings;
  exec::WorkerPool::run_per_worker(
      nparts_,
      [this, target](std::uint64_t q) {
        lp_run(part_->lps[static_cast<std::size_t>(q)], target);
      },
      profile_stalls_ ? &timings : nullptr);
  for (const exec::WorkerTiming& wt : timings) {
    stall_profile_.worker_busy_ns += wt.busy_ns;
    stall_profile_.worker_wall_ns += wt.wall_ns;
  }
  main_.clock = std::min(ps.stop.load(std::memory_order_acquire), target);
  // Post-chunk bookkeeping on the driver thread (the joins above order every
  // LP's writes before this): flush messages still parked in handoff inboxes
  // into the pending heaps — state_hash and the next chunk's first slices
  // must see them — and merge the per-LP counters and recorders into main_.
  Metrics& m = main_.metrics;
  for (Lp& lp : ps.lps) {
    drain_handoff(lp);
    m.msgs_sent += lp.metrics.msgs_sent;
    m.msgs_delivered += lp.metrics.msgs_delivered;
    m.msgs_dropped += lp.metrics.msgs_dropped;
    m.reg_reads += lp.metrics.reg_reads;
    m.reg_writes += lp.metrics.reg_writes;
    m.reg_cas_ops += lp.metrics.reg_cas_ops;
    m.reg_reads_local += lp.metrics.reg_reads_local;
    m.reg_writes_local += lp.metrics.reg_writes_local;
    m.reg_cas_local += lp.metrics.reg_cas_local;
    lp.metrics = Metrics{0};
    cross_msgs_ += lp.cross_msgs;
    lp.cross_msgs = 0;
    if (!lp.obs.empty()) main_.obs.merge_from(lp.obs);
    stall_profile_.merge_from(lp.stalls);
    lp.stalls.reset();
  }
  return main_.clock - base;
}

void SimRuntime::lp_run(Lp& lp, Step target) {
  PartitionState& ps = *part_;
  const PartCtx saved = tl_part_;
  tl_part_ = PartCtx{this, &lp};
  const std::size_t n = config_.n();
  const double dn = static_cast<double>(n);
  const std::uint32_t me = lp.index;
  const std::uint32_t* const part_of = part_of_.data();
  std::atomic<Step>& my_clock = ps.clocks[me].v;
  Step t = lp.clock;
  while (t < target) {
    if (t >= ps.stop.load(std::memory_order_acquire)) break;
    if (lp.injector != nullptr) [[unlikely]]
      lp.injector->on_step(*this);
    while (lp.crash_next < lp.crashes.size() &&
           lp.crashes[lp.crash_next].first <= t) [[unlikely]] {
      const std::size_t ci = lp.crashes[lp.crash_next].second;
      ++lp.crash_next;
      if (runnable(ci)) {
        proc_state_[ci] = static_cast<std::uint8_t>(ProcState::kCrashed);
        trace_event(lp, Pid{static_cast<std::uint32_t>(ci)}, TraceEvent::Kind::kCrash);
        mark_done_parted(t, true);
      }
    }
    // The replicated global pick: every LP draws the same pid for step t.
    // Remote or non-runnable picks are no-op steps (time still advances).
    const double r = lp.sched.uniform01() * dn;
    std::size_t pick = static_cast<std::size_t>(r);
    if (pick >= n) pick = n - 1;
    if (part_of[pick] == me && runnable(pick)) {
      if (t >= lp.safe_until) wait_horizon(lp, t);
      drain_handoff(lp);
      // Only the locally-executed pick runs a slice (and traces kSchedule):
      // every LP replays the same pick stream, so tracing the replicated
      // no-op draws would duplicate each kSchedule K times in the merged
      // trace.
      lp.sends_in_slice = 0;
      if (run_slice(lp, pick)) mark_done_parted(t, false);
    }
    ++t;
    lp.clock = t;
    my_clock.store(t, std::memory_order_release);
  }
  lp.clock = t;
  // Unblock any peer still spinning on our clock: we execute nothing past
  // this point in the chunk, so publishing the chunk target is sound.
  my_clock.store(target, std::memory_order_release);
  tl_part_ = saved;
}

void SimRuntime::wait_horizon(Lp& lp, Step t) noexcept {
  const Step lookahead = config_.min_delay;
  const PartitionState& ps = *part_;
  Step min_clock = kNever;
  // Stall accounting is lazy: the timestamp is taken only on the first
  // blocking re-read, so an unblocked scan (the common case) costs one
  // `blocked` test per lagging peer and nothing else.
  std::uint64_t rounds = 0;
  bool blocked = false;
  std::chrono::steady_clock::time_point t0{};
  for (std::uint32_t q = 0; q < nparts_; ++q) {
    if (q == lp.index) continue;
    const std::atomic<Step>& c = ps.clocks[q].v;
    Step cq = c.load(std::memory_order_acquire);
    std::uint32_t spins = 0;
    while (cq + lookahead <= t) {
      if (!blocked) [[unlikely]] {
        blocked = true;
        if (profile_stalls_) t0 = std::chrono::steady_clock::now();
      }
      ++rounds;
      if (++spins >= 256) {
        std::this_thread::yield();
        spins = 0;
      }
      cq = c.load(std::memory_order_acquire);
    }
    min_clock = std::min(min_clock, cq);
  }
  // Peer clocks only grow, so every step below min observed + lookahead is
  // safe without rescanning (kNever when K == 1: never scan again).
  lp.safe_until = min_clock == kNever ? kNever : min_clock + lookahead;
  if (blocked) [[unlikely]] {
    if (profile_stalls_) {
      ++lp.stalls.horizon_waits;
      lp.stalls.null_scan_rounds += rounds;
      lp.stalls.horizon_stall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    // Wall-clock fact, not a trajectory fact: kHorizon events are the one
    // trace kind whose presence depends on K and scheduling noise.
    trace_event(lp, Pid{lp.index}, TraceEvent::Kind::kHorizon, lp.safe_until, rounds);
  }
}

void SimRuntime::drain_handoff(Lp& lp) {
  PartitionState::Inbox& ib = part_->inbox[lp.index];
  if (ib.pushed.load(std::memory_order_acquire) == lp.inbox_pulled) return;
  lp.drain_scratch.clear();
  {
    std::unique_lock<std::mutex> lock(ib.mu, std::defer_lock);
    if (profile_stalls_) [[unlikely]] {
      ++lp.stalls.handoff_locks;
      if (!lock.try_lock()) {
        ++lp.stalls.handoff_contended;
        lock.lock();
      }
    } else {
      lock.lock();
    }
    lp.drain_scratch.swap(ib.q);
  }
  lp.inbox_pulled += lp.drain_scratch.size();
  // Insertion order is irrelevant: the heap pop order is the strict total
  // order (deliver_at, seq), both fixed by the sender.
  for (PartitionState::XMsg& xm : lp.drain_scratch) {
    auto& pend = pending_[xm.to];
    pend.push_back(std::move(xm.m));
    std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    pending_head_[xm.to] = pend.front().deliver_at;
  }
  lp.drain_scratch.clear();
}

void SimRuntime::mark_done_parted(Step t, bool crash) {
  PartitionState& ps = *part_;
  // A finish during step t stops the run after t (t+1 steps executed); a
  // crash at the step-t boundary stops it at t. CAS-max BEFORE the live
  // decrement: real-time completion order can invert virtual-step order, so
  // the unique decrementer-to-zero must publish the max, not its own step.
  const Step fin = crash ? t : t + 1;
  Step cur = ps.final_step.load(std::memory_order_relaxed);
  while (cur < fin &&
         !ps.final_step.compare_exchange_weak(cur, fin, std::memory_order_relaxed)) {
  }
  if (ps.live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ps.stop.store(ps.final_step.load(std::memory_order_relaxed), std::memory_order_release);
  }
}

void SimRuntime::parted_enqueue(Lp& lp, Pid to, Step deliver_at, std::uint64_t seq,
                                Message m) {
  const std::size_t d = to.index();
  if (part_of_[d] == lp.index) {
    auto& pend = pending_[d];
    pend.push_back(InFlight{deliver_at, seq, lp.clock, std::move(m)});
    std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    pending_head_[d] = pend.front().deliver_at;
    return;
  }
  ++lp.cross_msgs;
  PartitionState::Inbox& ib = part_->inbox[part_of_[d]];
  std::unique_lock<std::mutex> lock(ib.mu, std::defer_lock);
  if (profile_stalls_) [[unlikely]] {
    // Contention is charged to the SENDER (the thread that waited), so the
    // per-LP counters decompose who pays for cross-partition traffic.
    ++lp.stalls.handoff_locks;
    if (!lock.try_lock()) {
      ++lp.stalls.handoff_contended;
      lock.lock();
    }
  } else {
    lock.lock();
  }
  ib.q.push_back(PartitionState::XMsg{static_cast<std::uint32_t>(d),
                                      InFlight{deliver_at, seq, lp.clock, std::move(m)}});
  ib.pushed.store(ib.pushed.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
}

std::uint32_t SimRuntime::send_partitioned(SliceCtx& c, Pid from, Pid to, Message&& m) {
  Lp& lp = static_cast<Lp&>(c);  // partitioned mode: every pid's context is an LP
  // Per-sender streams (a global stream's draw order would depend on the
  // LP interleaving); the burst window lives on the sender's local clock.
  Rng& lrng = part_->link_rng_of[from.index()];
  if (config_.link_type == LinkType::kFairLossy && lrng.bernoulli(config_.drop_prob)) {
    record_drop(lp, from, to, m.kind);
    return 0;
  }
  Rng& frng = part_->fault_rng_of[from.index()];
  const bool burst = lp.clock < lp.burst.until;
  if (burst && frng.bernoulli(lp.burst.drop_prob)) {
    record_drop(lp, from, to, m.kind);
    return 0;
  }
  m.from = from;
  Step deliver_at = lp.clock + lrng.between(config_.min_delay, config_.max_delay);
  if (burst && lp.burst.extra_delay_max > 0)
    deliver_at += frng.between(0, lp.burst.extra_delay_max);
  // Sender-assigned tie-break seq: globally unique because exactly one
  // process executes per virtual step ((step << 16) | slice send index).
  std::uint32_t copies = 1;
  if (burst && frng.bernoulli(lp.burst.dup_prob)) {
    Step dup_at = lp.clock + frng.between(config_.min_delay, config_.max_delay);
    if (lp.burst.extra_delay_max > 0) dup_at += frng.between(0, lp.burst.extra_delay_max);
    parted_enqueue(lp, to, dup_at, (lp.clock << 16) | lp.sends_in_slice++, m);
    copies = 2;
  }
  const std::uint64_t seq = (lp.clock << 16) | lp.sends_in_slice++;
  trace_event(lp, from, TraceEvent::Kind::kSend, to.value(), m.kind, seq);
  parted_enqueue(lp, to, deliver_at, seq, std::move(m));
  return copies;
}

void SimRuntime::set_partition_fault_injectors(
    const std::vector<FaultInjector*>& injectors) {
  MM_ASSERT_MSG(partitioned_,
                "set_partition_fault_injectors requires partitioned mode");
  start();
  if (injectors.empty()) {
    for (Lp& lp : part_->lps) lp.injector = nullptr;
    return;
  }
  MM_ASSERT_MSG(injectors.size() == nparts_,
                "need exactly one injector replica per partition");
  for (std::uint32_t q = 0; q < nparts_; ++q) part_->lps[q].injector = injectors[q];
  // Replicas may open memory-failure windows from LP context, where writing
  // the shared armed flag would race — arm it once here instead.
  mem_faults_armed_ = true;
}

}  // namespace mm::runtime
