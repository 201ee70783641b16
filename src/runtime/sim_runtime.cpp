#include "runtime/sim_runtime.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/assert.hpp"
#include "runtime/sim_partition_detail.hpp"

namespace mm::runtime {

namespace {

/// Fibonacci/Murmur-style 64-bit finalizer: the mixing primitive behind the
/// observation hashes and state_hash(). Not cryptographic — 128 bits of
/// state hash make accidental collisions negligible for exploration sizes.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Observation kind tags (domain-separate the rolling hash inputs).
constexpr std::uint64_t kObsRead = 0xA1;
constexpr std::uint64_t kObsCas = 0xA2;
constexpr std::uint64_t kObsCoin = 0xA3;
constexpr std::uint64_t kObsRand = 0xA4;
constexpr std::uint64_t kObsDrain = 0xA5;
constexpr std::uint64_t kObsMsg = 0xA6;
constexpr std::uint64_t kObsNow = 0xA7;
constexpr std::uint64_t kObsSlice = 0xA8;

constexpr std::uint64_t kObsSeed = 0x5851f42d4c957f2dULL;
constexpr std::uint64_t kSliceSigSeed = 0x2545f4914f6cdd1dULL;

}  // namespace

// ---------------------------------------------------------------------------
// SimEnv — forwards to the runtime, tagged with the calling pid and its slice
// context. Each method calls one Env backend; register ops yield first.
// ---------------------------------------------------------------------------

std::size_t SimEnv::n() const { return rt_->config().n(); }
void SimEnv::send(Pid to, Message m) { rt_->env_send(*ctx_, self_, to, std::move(m)); }
void SimEnv::drain_inbox(std::vector<Message>& out) { rt_->env_drain(*ctx_, self_, out); }
RegId SimEnv::reg(RegKey key) { return rt_->env_reg(self_, key); }
std::uint64_t SimEnv::read(RegId r) {
  if (rt_->auto_step_on_shm_) step();
  return rt_->env_read(*ctx_, self_, r);
}
void SimEnv::write(RegId r, std::uint64_t v) {
  if (rt_->auto_step_on_shm_) step();
  rt_->env_write(*ctx_, self_, r, v);
}
std::uint64_t SimEnv::cas(RegId r, std::uint64_t expected, std::uint64_t desired) {
  if (rt_->auto_step_on_shm_) step();
  return rt_->env_cas(*ctx_, self_, r, expected, desired);
}
bool SimEnv::coin() { return rt_->env_coin(*ctx_, self_); }
std::uint64_t SimEnv::rand_below(std::uint64_t bound) {
  return rt_->env_rand_below(*ctx_, self_, bound);
}
void SimEnv::step() {
  if (fiber_ != nullptr) {
    fiber_->yield();
  } else {
    exec_->yield();
  }
  if (*kill_flag_ != 0) throw ProcessKilled{};
}
Step SimEnv::now() const { return rt_->env_now(*ctx_, self_); }
bool SimEnv::stop_requested() const {
  return rt_->stop_requested_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

SimRuntime::SimRuntime(SimConfig config)
    : config_(std::move(config)),
      sched_rng_(config_.seed * 0x9e3779b97f4a7c15ULL + 1),
      link_rng_(config_.seed * 0xc2b2ae3d27d4eb4fULL + 2),
      fault_rng_(config_.seed * 0xd6e8feb86659fd93ULL + 3),
      mem_window_(config_.n()),
      shards_(1),
      pending_(config_.n()),
      pending_head_(config_.n(), kNever),
      trace_capacity_(config_.trace_capacity),
      main_(config_.n()),
      ctxs_{&main_} {
  config_.validate();
  Rng seeder{config_.seed ^ 0xa5a5a5a5a5a5a5a5ULL};
  proc_rng_.reserve(config_.n());
  for (std::size_t i = 0; i < config_.n(); ++i) proc_rng_.push_back(seeder.split());
  if (!config_.crash_at.empty()) {
    for (std::size_t i = 0; i < config_.crash_at.size(); ++i)
      if (config_.crash_at[i].has_value())
        crash_schedule_.emplace_back(*config_.crash_at[i], static_cast<std::uint32_t>(i));
    std::sort(crash_schedule_.begin(), crash_schedule_.end());
  }
  for (std::size_t i = 0; i < config_.memory_fail_at.size(); ++i) {
    if (!config_.memory_fail_at[i].has_value()) continue;
    mem_window_[i].fail_at = *config_.memory_fail_at[i];
    if (i < config_.memory_recover_at.size() && config_.memory_recover_at[i].has_value())
      mem_window_[i].recover_at = *config_.memory_recover_at[i];
    mem_faults_armed_ = true;
  }
  if (config_.explore_faults.has_value()) {
    const ExploreFaults& ef = *config_.explore_faults;
    ef_drop_base_ = ef.crashes.size();
    ef_part_base_ = ef_drop_base_ + (ef.drop_budget > 0 ? config_.n() : 0);
    ef_width_ = ef.width(config_.n());
    ef_drops_left_ = ef.drop_budget;
  }
  init_partitions();
}

SimRuntime::~SimRuntime() { shutdown(); }

void SimRuntime::add_process(std::function<void(Env&)> body) {
  MM_ASSERT_MSG(!started_, "cannot add processes after start");
  MM_ASSERT_MSG(procs_.size() < config_.n(), "more bodies than config.n()");
  Proc proc;
  proc.body = std::move(body);
  procs_.push_back(std::move(proc));
}

void SimRuntime::start() {
  if (started_) return;
  MM_ASSERT_MSG(procs_.size() == config_.n(), "add exactly n process bodies before start");
  started_ = true;
  const std::size_t n = procs_.size();
  proc_state_.assign(n, static_cast<std::uint8_t>(ProcState::kParked));
  proc_kill_.assign(n, 0);
  proc_finished_.assign(n, 0);
  fiber_.assign(n, nullptr);
  runnable_.reserve(n);
  // Pre-size the pending queues past any capacity high-water mark a
  // realistic run can reach (a scheduler starvation stretch of ~32·n steps
  // has probability (1-1/n)^(32n) ≈ e⁻³² per step), so queue growth cannot
  // leak a late heap allocation into the steady state the allocation
  // counters pin to zero. Population-scale runs skip this: 32 slots per
  // destination is real memory at n = 10⁶, and those runs do not assert the
  // zero-alloc invariant.
  if (n <= 1024) {
    for (auto& pend : pending_) pend.reserve(32);
  }
  ExecOptions exec_opts;
  exec_opts.fiber_stack_bytes = config_.fiber_stack_bytes;
  if (config_.pooled_fiber_stacks && config_.backend == SimBackend::kCoroutine) {
    stack_pool_ = std::make_unique<FiberStackPool>(
        config_.fiber_stack_bytes == 0 ? Fiber::kDefaultStackBytes
                                       : config_.fiber_stack_bytes);
    exec_opts.stack_pool = stack_pool_.get();
  }
  for (std::size_t i = 0; i < n; ++i) {
    Proc& pr = procs_[i];
    pr.env = std::make_unique<SimEnv>(*this, Pid{static_cast<std::uint32_t>(i)});
    runnable_.push_back(i);
    // The wrapper is the whole process lifecycle — kill check, body,
    // exception capture, finished flag — so every backend runs identical
    // code and differs only in how control is transferred.
    pr.exec = make_proc_exec(
        config_.backend,
        [this, i] {
          if (proc_kill_[i] == 0) {
            try {
              procs_[i].body(*procs_[i].env);
            } catch (const ProcessKilled&) {
              // Normal teardown path.
            } catch (...) {
              procs_[i].error = std::current_exception();
            }
          }
          proc_finished_[i] = 1;
        },
        exec_opts);
    fiber_[i] = pr.exec->fiber();
    pr.env->fiber_ = fiber_[i];
    pr.env->exec_ = pr.exec.get();
    pr.env->kill_flag_ = proc_kill_.data() + i;
    pr.env->ctx_ = &main_;
  }
  if (partitioned_) start_partitioned();
}

void SimRuntime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (started_) {
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      // Drain to completion: each resume re-enters the body, whose next
      // yield throws ProcessKilled and unwinds through the wrapper. Looping
      // (rather than resuming once) tolerates bodies that swallow a kill.
      proc_kill_[i] = 1;
      while (proc_finished_[i] == 0) resume_proc(i);
      procs_[i].exec->join();
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

SimRuntime::SliceCtx& SimRuntime::ctx_of(Pid p) const { return *procs_[p.index()].env->ctx_; }

void SimRuntime::remove_runnable(std::size_t idx) {
  const auto it = std::lower_bound(runnable_.begin(), runnable_.end(), idx);
  if (it != runnable_.end() && *it == idx) runnable_.erase(it);
}

void SimRuntime::apply_crash_plan() {
  while (crash_next_ < crash_schedule_.size() &&
         crash_schedule_[crash_next_].first <= main_.clock) {
    const std::size_t i = crash_schedule_[crash_next_].second;
    ++crash_next_;
    if (runnable(i)) {
      proc_state_[i] = static_cast<std::uint8_t>(ProcState::kCrashed);
      remove_runnable(i);
      trace_event(main_, Pid{static_cast<std::uint32_t>(i)}, TraceEvent::Kind::kCrash);
    }
  }
}

void SimRuntime::crash_now(Pid p) {
  MM_ASSERT(p.index() < procs_.size());
  // From an LP's injector replica only p's owner applies the crash — every
  // other replica reaches the same call on its own timeline and drops it
  // here, so the crash lands exactly once, at the owner's local step.
  // Driver-context calls (between chunks) apply directly.
  SliceCtx* const caller = hook_ctx();
  if (caller != nullptr && &ctx_of(p) != caller) return;
  if (!runnable(p.index())) return;
  proc_state_[p.index()] = static_cast<std::uint8_t>(ProcState::kCrashed);
  trace_event(caller != nullptr ? *caller : main_, p, TraceEvent::Kind::kCrash);
  if (partitioned_) {
    mark_done_parted(now(), true);
  } else {
    remove_runnable(p.index());
  }
}

// ---------------------------------------------------------------------------
// Explorer fault plan: faults as pseudo-processes (SimConfig::explore_faults)
// ---------------------------------------------------------------------------

void SimRuntime::ef_append_enabled(std::vector<Pid>& out) {
  const ExploreFaults& ef = *config_.explore_faults;
  const auto base = static_cast<std::uint32_t>(config_.n());
  for (std::size_t i = 0; i < ef.crashes.size(); ++i)
    if (runnable(ef.crashes[i].index()))
      out.push_back(Pid{base + static_cast<std::uint32_t>(i)});
  if (ef_drops_left_ > 0) {
    for (std::size_t d = 0; d < config_.n(); ++d)
      if (!pending_[d].empty())
        out.push_back(Pid{base + static_cast<std::uint32_t>(ef_drop_base_ + d)});
  }
  if (ef.partition_mask.has_value()) {
    if (!ef_on_fired_)
      out.push_back(Pid{base + static_cast<std::uint32_t>(ef_part_base_)});
    else if (!ef_off_fired_)
      out.push_back(Pid{base + static_cast<std::uint32_t>(ef_part_base_ + 1)});
  }
}

void SimRuntime::ef_fire(std::size_t idx) {
  const ExploreFaults& ef = *config_.explore_faults;
  StepFootprint* fp = nullptr;
  if (record_footprints_) [[unlikely]] {
    fp = &main_.scratch.footprint;
    fp->clear(Pid{static_cast<std::uint32_t>(config_.n() + idx)});
  }
  if (idx < ef_drop_base_) {  // crash event
    const std::size_t target = ef.crashes[idx].index();
    MM_ASSERT_MSG(runnable(target), "crash event fired on a non-parked process");
    proc_state_[target] = static_cast<std::uint8_t>(ProcState::kCrashed);
    remove_runnable(target);
    trace_event(main_, Pid{static_cast<std::uint32_t>(target)}, TraceEvent::Kind::kCrash);
    if (fp != nullptr) fp->crash_mask = 1ULL << target;
    return;
  }
  if (idx < ef_part_base_) {  // drop event: destroy the head of d's queue
    const std::size_t d = idx - ef_drop_base_;
    auto& pend = pending_[d];
    MM_ASSERT_MSG(ef_drops_left_ > 0 && !pend.empty(),
                  "drop event fired with no budget or no in-flight message");
    --ef_drops_left_;
    std::pop_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    const Message dropped = std::move(pend.back().msg);
    pend.pop_back();
    pending_head_[d] = pend.empty() ? kNever : pend.front().deliver_at;
    ++main_.metrics.msgs_dropped;
    trace_event(main_, dropped.from, TraceEvent::Kind::kDrop, d, dropped.kind);
    if (fp != nullptr) fp->drop_mask = 1ULL << d;
    return;
  }
  // Partition toggles.
  if (fp != nullptr) {
    fp->part_toggle = true;
    fp->part_mask = *ef.partition_mask;
  }
  if (idx == ef_part_base_) {
    MM_ASSERT_MSG(!ef_on_fired_, "partition-on toggle fired twice");
    ef_on_fired_ = true;
    ef_part_active_ = true;
    return;
  }
  MM_ASSERT_MSG(ef_on_fired_ && !ef_off_fired_, "partition-off toggle out of order");
  ef_off_fired_ = true;
  ef_part_active_ = false;
  // Re-inject the held messages with their original (deliver_at, seq)
  // stamps: the window added pure asynchrony, never a loss or a re-draw, so
  // the flush commutes with unrelated steps (nothing here reads the clock
  // or an RNG). The flush is recorded as sends so drains and drops at the
  // destinations order against this toggle through the channel rules.
  for (auto& [dest, inf] : ef_held_) {
    if (fp != nullptr) fp->add_send(Pid{dest});
    auto& pend = pending_[dest];
    pend.push_back(std::move(inf));
    std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    pending_head_[dest] = pend.front().deliver_at;
  }
  ef_held_.clear();
}

// ---------------------------------------------------------------------------
// Dynamic fault actuators
// ---------------------------------------------------------------------------

void SimRuntime::fail_memory_now(Pid host, std::optional<Step> recover_at) {
  MM_ASSERT(host.index() < config_.n());
  // Only the host's owner context opens the window, on its own clock (the
  // owner filter of crash_now).
  SliceCtx* const caller = hook_ctx();
  if (caller != nullptr && &ctx_of(host) != caller) return;
  SliceCtx& c = caller != nullptr ? *caller : main_;
  MM_ASSERT_MSG(!recover_at.has_value() || *recover_at > c.clock,
                "memory recovery must lie in the future");
  mem_window_[host.index()] = MemWindow{c.clock, recover_at.value_or(kNever)};
  // LP threads only ever read the shared gate: set_partition_fault_injectors
  // armed it before any replica could fire.
  if (!mem_faults_armed_) mem_faults_armed_ = true;
  trace_event(c, host, TraceEvent::Kind::kMemFail, recover_at.value_or(0));
}

void SimRuntime::recover_memory_now(Pid host) {
  MM_ASSERT(host.index() < config_.n());
  SliceCtx* const caller = hook_ctx();
  if (caller != nullptr && &ctx_of(host) != caller) return;
  SliceCtx& c = caller != nullptr ? *caller : main_;
  MemWindow& w = mem_window_[host.index()];
  if (w.fail_at <= c.clock && c.clock < w.recover_at) {
    w.recover_at = c.clock;
    trace_event(c, host, TraceEvent::Kind::kMemRecover);
  }
}

void SimRuntime::set_partition_now(std::uint64_t side_a, Step until) {
  MM_ASSERT_MSG(!partitioned_,
                "partition windows are sequential-only (they hold messages on the "
                "single global clock); use a kLinkBurst rule in partitioned mode");
  MM_ASSERT_MSG(config_.n() <= 64, "partition masks require n <= 64");
  config_.partition = Partition{side_a, main_.clock, until};
}

void SimRuntime::clear_partition_now() { config_.partition.reset(); }

void SimRuntime::begin_link_burst(const LinkBurst& burst) {
  // From a hook, each injector replica arms its own LP's window at its own
  // local step — together they reproduce the sequential burst exactly.
  if (SliceCtx* const caller = hook_ctx(); caller != nullptr) {
    caller->burst = burst;
    return;
  }
  for (SliceCtx* c : ctxs_) c->burst = burst;
}

void SimRuntime::enable_trace(std::size_t capacity) {
  trace_capacity_ = capacity;
  for (SliceCtx* c : ctxs_) {
    c->trace_buf.clear();
    c->trace_buf.shrink_to_fit();
    c->trace_head = 0;
  }
}

void SimRuntime::trace_event_slow(SliceCtx& c, Pid pid, TraceEvent::Kind kind, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t seq) {
  const TraceEvent e{c.clock, pid, kind, a, b, seq};
  if (c.trace_buf.size() < trace_capacity_) {
    c.trace_buf.push_back(e);
    return;
  }
  // Ring is full: overwrite the oldest slot. No per-event allocation or
  // shifting — a deque here would churn chunk allocations while rotating.
  c.trace_buf[c.trace_head] = e;
  c.trace_head = c.trace_head + 1 == trace_capacity_ ? 0 : c.trace_head + 1;
}

void SimRuntime::trace_fault(Pid context, std::uint64_t action, std::uint64_t rule) {
  SliceCtx* const caller = hook_ctx();
  trace_event(caller != nullptr ? *caller : main_, context, TraceEvent::Kind::kFault, action,
              rule);
}

std::vector<SimRuntime::TraceEvent> SimRuntime::trace() const {
  std::vector<TraceEvent> out;
  std::size_t rings = 0;
  for (const SliceCtx* c : ctxs_) {
    // head is the oldest slot once a ring has wrapped; before that it is 0
    // and the buffer is already chronological.
    const std::size_t size = c->trace_buf.size();
    rings += size != 0 ? 1 : 0;
    out.reserve(out.size() + size);
    for (std::size_t i = 0; i < size; ++i) {
      std::size_t j = c->trace_head + i;
      if (j >= size) j -= size;
      out.push_back(c->trace_buf[j]);
    }
  }
  if (rings > 1) {
    // Merge the per-context rings into virtual-step order. Same-step process
    // events always come from exactly one LP (one process executes per
    // global step), so stable_sort keeps their slice order; only wall-clock
    // kHorizon events can tie across LPs and they fall back to LP index
    // (the concatenation order).
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& x, const TraceEvent& y) { return x.step < y.step; });
  }
  return out;
}

std::string SimRuntime::dump_trace(std::size_t last_n) const {
  static constexpr const char* kNames[] = {"sched", "send ", "deliv", "drop ", "read ",
                                           "write", "cas  ", "crash", "mfail", "mrecv",
                                           "fault", "horzn"};
  const std::vector<TraceEvent> events = trace();
  std::string out;
  const std::size_t start = events.size() > last_n ? events.size() - last_n : 0;
  Step prev = events.empty() ? 0 : events[start].step;
  char line[192];
  char detail[96];
  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Decode the (a, b, seq) payload per kind so triage reads protocol
    // facts, not raw integers.
    switch (e.kind) {
      case TraceEvent::Kind::kSend:
      case TraceEvent::Kind::kDeliver:
        std::snprintf(detail, sizeof detail, "-> p%llu kind=%llu flow=%llu", u(e.a), u(e.b),
                      u(e.seq));
        break;
      case TraceEvent::Kind::kDrop:
        std::snprintf(detail, sizeof detail, "-> p%llu kind=%llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegRead:
        std::snprintf(detail, sizeof detail, "r%llu == %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegWrite:
        std::snprintf(detail, sizeof detail, "r%llu := %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegCas:
        std::snprintf(detail, sizeof detail, "r%llu saw %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kMemFail:
        if (e.a == 0) {
          std::snprintf(detail, sizeof detail, "recover=never");
        } else {
          std::snprintf(detail, sizeof detail, "recover=%llu", u(e.a));
        }
        break;
      case TraceEvent::Kind::kFault:
        std::snprintf(detail, sizeof detail, "action=%llu rule=%llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kHorizon:
        std::snprintf(detail, sizeof detail, "safe_until=%llu scans=%llu", u(e.a), u(e.b));
        break;
      default:
        detail[0] = '\0';
        break;
    }
    // Sim-time delta since the previous retained event: stalls and bursts
    // show up as the +Δ column without cross-referencing absolute steps.
    std::snprintf(line, sizeof line, "%8llu +%-5llu %s %s %s\n", u(e.step), u(e.step - prev),
                  to_string(e.pid).c_str(), kNames[static_cast<std::size_t>(e.kind)], detail);
    prev = e.step;
    out += line;
  }
  return out;
}

ObsReport SimRuntime::obs_report() const {
  // run_partitioned merges every LP's recorder into main_'s after each
  // chunk, so between chunks (the documented call point) it holds everything.
  return build_obs_report(main_.obs);
}

void SimRuntime::activate(std::size_t pick) {
  if (run_slice(main_, pick)) remove_runnable(pick);
  ++main_.clock;
}

// ---------------------------------------------------------------------------
// Footprint / observation recording (model-checker hooks)
// ---------------------------------------------------------------------------

void SimRuntime::set_footprint_recording(bool on) {
  record_footprints_ = on;
  if (on && obs_hash_.empty()) {
    obs_hash_.assign(config_.n(), kObsSeed);
    idle_sig_ring_.assign(config_.n() * kIdleRing, 0);
    idle_post_ring_.assign(config_.n() * kIdleRing, 0);
    idle_streak_.assign(config_.n(), 0);
  }
}

void SimRuntime::obs_note(Pid self, std::uint64_t tag, std::uint64_t value,
                          std::uint64_t& sig) {
  const std::uint64_t v = mix64(tag ^ mix64(value));
  std::uint64_t& h = obs_hash_[self.index()];
  h = mix64(h ^ v);
  sig = mix64(sig ^ v);
}

void SimRuntime::begin_slice(std::size_t pick, SliceScratch& sc) {
  sc.footprint.clear(Pid{static_cast<std::uint32_t>(pick)});
  sc.sig = kSliceSigSeed;
  sc.got_messages = false;
}

void SimRuntime::end_slice(std::size_t pick, SliceScratch& sc) {
  // Effect-free: nothing another process (or the oracle) could ever see —
  // no writes, no sends, no randomness consumed, no clock read, and any
  // drain came back empty. Metrics counters still tick, which is why
  // step/read-count metrics are not merge-stable oracles (docs/RUNTIME.md).
  const bool effect_free = sc.footprint.writes.empty() && sc.footprint.send_to.empty() &&
                           !sc.footprint.drew_rand && !sc.footprint.observed_clock &&
                           !sc.got_messages;
  const std::uint64_t sig = sc.sig;
  std::uint64_t& h = obs_hash_[pick];
  if (!idle_collapse_ || !effect_free) {
    // Default: every slice advances the observation hash (slices folded
    // with their signature), so iteration counts distinguish states —
    // required for timer-driven loops like Ω's monitor. An effectful slice
    // also ends any effect-free streak.
    h = mix64(h ^ mix64(kObsSlice ^ mix64(sig)));
    if (idle_collapse_) idle_streak_[pick] = 0;
    return;
  }
  // Effect-free slice inside a streak. If the streak's signature stream is
  // periodic with period L (the last L signatures, current included, repeat
  // the L before them), one whole spin period has recurred: roll the
  // observation hash back to its value L slices ago, so states at the same
  // spin phase map to the same hash and the explorer's state cache
  // recognises the cycle. L = 1 is the classic identical-iteration spin;
  // L > 1 covers await loops whose one iteration spans several scheduler
  // slices (e.g. a remote-register read yields before the drain+step
  // slice). Only same-phase states are ever conflated, and only under the
  // documented spin-stateless contract (docs/RUNTIME.md).
  std::uint64_t* sigs = &idle_sig_ring_[pick * kIdleRing];
  std::uint64_t* posts = &idle_post_ring_[pick * kIdleRing];
  const std::uint32_t t = idle_streak_[pick];  // current slice's streak index
  std::size_t period = 0;
  for (std::size_t L = 1; L <= kIdleMaxPeriod; ++L) {
    if (t + 1 < 2 * L) break;  // need 2L slices, current included
    bool match = sig == sigs[(t - L) % kIdleRing];
    for (std::size_t i = 1; match && i < L; ++i)
      match = sigs[(t - i) % kIdleRing] == sigs[(t - L - i) % kIdleRing];
    if (match) {
      period = L;
      break;
    }
  }
  if (period != 0) {
    h = posts[(t - period) % kIdleRing];
  } else {
    h = mix64(h ^ mix64(kObsSlice ^ mix64(sig)));
  }
  sigs[t % kIdleRing] = sig;
  posts[t % kIdleRing] = h;
  idle_streak_[pick] = t + 1;
}

StateHash SimRuntime::state_hash() const {
  MM_ASSERT_MSG(record_footprints_, "state_hash requires footprint recording armed");
  std::uint64_t lo = 0x6a09e667f3bcc908ULL;
  std::uint64_t hi = 0xbb67ae8584caa73bULL;
  const auto fold = [&lo, &hi](std::uint64_t v) {
    lo = mix64(lo ^ v);
    hi = mix64(hi ^ (v * 0x9e3779b97f4a7c15ULL + 0x165667b19e3779f9ULL));
  };
  fold(config_.n());
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    fold(static_cast<std::uint64_t>(proc_state_[i]));
    fold(obs_hash_[i]);
  }
  // Registers in key order, zero-valued entries skipped: a register holding
  // 0 is indistinguishable from one never materialised (env_reg creates
  // storage holding 0), so including them would split states by RegId
  // creation order — a difference no process can observe. register_dump()
  // is the mode-independent view (partitioned shards fold identically).
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> regs = register_dump();
  fold(regs.size());
  for (const auto& [k, v] : regs) {
    fold(k);
    fold(v);
  }
  // In-flight messages per destination in (deliver_at, seq) order — i.e.
  // exactly the order they will be drained in — with *relative* delivery
  // delays. Raw seq numbers and absolute steps differ across interleavings
  // that reach the same state, so neither enters the hash. (Nothing is ever
  // buffered between steps outside pending_: deliveries happen only inside
  // env_drain, which pops eligible messages straight into the caller.)
  //
  // With an explore_faults plan armed, messages held by the partition
  // window fold into the SAME per-destination sequence at their merge
  // position (stamps are preserved across the window), tagged held: the
  // future of the queue is its merged order plus which entries a drain can
  // currently see, and both must be part of the canonical state.
  struct Flight {
    const InFlight* f;
    bool held;
  };
  std::vector<Flight> order;
  for (std::size_t d = 0; d < pending_.size(); ++d) {
    const auto& pend = pending_[d];
    order.clear();
    order.reserve(pend.size());
    for (const InFlight& f : pend) order.push_back(Flight{&f, false});
    if (ef_width_ != 0) {
      for (const auto& [dest, f] : ef_held_)
        if (dest == d) order.push_back(Flight{&f, true});
    }
    fold(order.size());
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(), [](const Flight& a, const Flight& b) {
      return a.f->deliver_at != b.f->deliver_at ? a.f->deliver_at < b.f->deliver_at
                                                : a.f->seq < b.f->seq;
    });
    for (const Flight& fl : order) {
      const InFlight* f = fl.f;
      fold(f->deliver_at > main_.clock ? f->deliver_at - main_.clock : 0);
      if (ef_width_ != 0) fold(fl.held ? 1 : 0);
      fold(f->msg.from.value());
      fold((static_cast<std::uint64_t>(f->msg.kind) << 32) ^ f->msg.round);
      fold(f->msg.value);
      fold(f->msg.aux);
      fold(f->msg.tuples.size());
      for (const RepTuple& t : f->msg.tuples) {
        fold(t.pid.value());
        fold(t.value);
      }
    }
  }
  // Explorer fault-plan scalars: the remaining drop budget and the toggle
  // lifecycle decide which pseudo-events are still enabled, so states that
  // differ there must not coincide. (Crash firings already show through
  // proc_state_.) Folded only when a plan is armed, so legacy hashes are
  // byte-identical.
  if (ef_width_ != 0) {
    fold(ef_drops_left_);
    fold((ef_on_fired_ ? 1ULL : 0ULL) | (ef_off_fired_ ? 2ULL : 0ULL));
  }
  return StateHash{lo, hi};
}

bool SimRuntime::step_once() {
  if (main_.injector != nullptr) [[unlikely]]
    main_.injector->on_step(*this);
  apply_crash_plan();
  if (runnable_.empty()) return false;

  // Externally driven schedules (exhaustive exploration) bypass the
  // adversary entirely. With an explore_faults plan armed, the enabled
  // fault pseudo-pids follow the real runnable pids in the list; choosing
  // one fires the fault as a zero-time transition. (Pseudo events are only
  // offered while at least one real process is runnable — the empty check
  // above returns first — which keeps run loops free of zero-progress
  // tails; each pseudo event fires at most budget-many times, so a run
  // still terminates.)
  if (schedule_policy_) {
    policy_scratch_.clear();
    policy_scratch_.reserve(runnable_.size() + ef_width_);
    for (const std::size_t i : runnable_) policy_scratch_.push_back(Pid{static_cast<std::uint32_t>(i)});
    const std::size_t nreal = policy_scratch_.size();
    if (ef_width_ != 0) ef_append_enabled(policy_scratch_);
    const std::size_t choice = schedule_policy_(policy_scratch_);
    MM_ASSERT_MSG(choice < policy_scratch_.size(), "schedule policy choice out of range");
    if (choice < nreal) {
      activate(runnable_[choice]);
    } else {
      ef_fire(policy_scratch_[choice].index() - config_.n());
    }
    return true;
  }

  // Timeliness guarantee (§3): force-schedule the timely process before its
  // window closes; otherwise pick adversarially at random (weighted).
  std::size_t pick = runnable_.front();
  bool forced = false;
  ++steps_since_timely_;
  if (config_.timely.has_value()) {
    const std::size_t t = config_.timely->index();
    if (t < procs_.size() && runnable(t) && steps_since_timely_ >= config_.timely_bound) {
      pick = t;
      forced = true;
    }
  }
  if (!forced) {
    if (config_.sched_weight.empty()) {
      // Uniform weights: the prefix-sum walk collapses to an index lookup.
      // This consumes the same uniform01() draw and selects the same index
      // the walk would (total is exactly double(size); repeated `r -= 1.0`
      // is exact for r < 2^53, so the walk lands on floor(r)).
      const double r = sched_rng_.uniform01() * static_cast<double>(runnable_.size());
      std::size_t idx = static_cast<std::size_t>(r);
      if (idx >= runnable_.size()) idx = runnable_.size() - 1;
      pick = runnable_[idx];
    } else {
      double total = 0.0;
      for (const std::size_t i : runnable_) total += config_.sched_weight[i];
      if (total <= 0.0) {
        pick = runnable_[sched_rng_.below(runnable_.size())];
      } else {
        double r = sched_rng_.uniform01() * total;
        pick = runnable_.back();
        for (const std::size_t i : runnable_) {
          const double w = config_.sched_weight[i];
          if (r < w) {
            pick = i;
            break;
          }
          r -= w;
        }
      }
    }
  }
  if (config_.timely.has_value() && pick == config_.timely->index()) steps_since_timely_ = 0;

  activate(pick);
  return true;
}

Step SimRuntime::run_fast(Step k) {
  // The common-configuration inner loop. Per step it does exactly what
  // step_once does for this configuration — one crash-plan check, one
  // uniform01() draw, one handoff — with every disarmed hook (policy,
  // injector, timeliness, weights, tracing, recording) hoisted out of the
  // loop by fast_path_eligible(). Keep the RNG consumption in lockstep with
  // step_once: one uniform01() per step, even with one runnable process.
  //
  // Scheduler state that process bodies cannot touch (the RNG, the runnable
  // list, the crash cursor, the SoA base pointers) is cached in locals for
  // the whole loop: the resume() below is an opaque call, so anything left
  // in memory would be re-loaded every iteration. The clock is the one
  // value env calls *do* read, so it is stored back before each handoff.
  Fiber* const* const fibers = fiber_.data();
  const std::uint8_t* const finished_flags = proc_finished_.data();
  std::uint64_t* const steps_by_proc = main_.metrics.steps_by_proc.data();
  Rng rng = sched_rng_;
  Step step = main_.clock;
  Step next_crash = crash_next_ < crash_schedule_.size()
                        ? crash_schedule_[crash_next_].first
                        : kNever;
  const std::size_t* run_data = runnable_.data();
  std::size_t nrun = runnable_.size();
  Step done = 0;
  while (done < k) {
    if (next_crash <= step) [[unlikely]] {
      main_.clock = step;
      apply_crash_plan();
      next_crash = crash_next_ < crash_schedule_.size()
                       ? crash_schedule_[crash_next_].first
                       : kNever;
      run_data = runnable_.data();
      nrun = runnable_.size();
    }
    if (nrun == 0) break;
    const double r = rng.uniform01() * static_cast<double>(nrun);
    std::size_t idx = static_cast<std::size_t>(r);
    if (idx >= nrun) idx = nrun - 1;
    const std::size_t pick = run_data[idx];
    ++steps_by_proc[pick];
    main_.clock = step;
    Fiber* const f = fibers[pick];
    if (f != nullptr) {
      f->resume();
    } else {
      procs_[pick].exec->resume();
    }
    if (finished_flags[pick] != 0) [[unlikely]] {
      proc_state_[pick] = static_cast<std::uint8_t>(ProcState::kFinished);
      remove_runnable(pick);
      run_data = runnable_.data();
      nrun = runnable_.size();
    }
    ++step;
    ++done;
  }
  main_.clock = step;
  sched_rng_ = rng;
  return done;
}

Step SimRuntime::run_steps(Step k) {
  start();
  MM_ASSERT_MSG(!shut_down_, "runtime already shut down");
  if (partitioned_) [[unlikely]]
    return run_partitioned(k);
  if (fast_path_eligible()) return run_fast(k);
  Step done = 0;
  while (done < k && step_once()) ++done;
  return done;
}

bool SimRuntime::run_until_all_done(Step budget) {
  start();
  if (partitioned_) [[unlikely]] {
    if (budget > main_.clock) run_partitioned(budget - main_.clock);
    return all_done();
  }
  if (fast_path_eligible()) {
    if (budget > main_.clock) run_fast(budget - main_.clock);
    return all_done();
  }
  while (main_.clock < budget) {
    if (!step_once()) break;
  }
  return all_done();
}

bool SimRuntime::finished(Pid p) const {
  MM_ASSERT(p.index() < procs_.size());
  return proc_state_[p.index()] == static_cast<std::uint8_t>(ProcState::kFinished);
}

bool SimRuntime::crashed(Pid p) const {
  MM_ASSERT(p.index() < procs_.size());
  return proc_state_[p.index()] == static_cast<std::uint8_t>(ProcState::kCrashed);
}

bool SimRuntime::all_done() const {
  return std::all_of(proc_state_.begin(), proc_state_.end(), [](std::uint8_t s) {
    return s == static_cast<std::uint8_t>(ProcState::kFinished) ||
           s == static_cast<std::uint8_t>(ProcState::kCrashed);
  });
}

void SimRuntime::rethrow_process_error() const {
  for (const Proc& pr : procs_)
    if (pr.error) std::rethrow_exception(pr.error);
}

const std::vector<std::uint64_t>& SimRuntime::register_values() const noexcept {
  static const std::vector<std::uint64_t> kNone;
  return partitioned_ ? kNone : shards_.front().values;
}

std::optional<std::uint64_t> SimRuntime::register_value(RegKey key) const {
  // Keys are unique across shards, so the first hit is the only one.
  for (const RegShard& sh : shards_) {
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) return sh.values[it->second];
  }
  return std::nullopt;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SimRuntime::register_dump() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const RegShard& sh : shards_)
    for (std::size_t i = 0; i < sh.values.size(); ++i)
      if (sh.values[i] != 0) out.emplace_back(sh.keys[i].bits(), sh.values[i]);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Env backends — run on the (single) active process thread.
// ---------------------------------------------------------------------------

Step SimRuntime::partition_hold(Pid from, Pid to, Step deliver_at, Rng& rng) {
  if (!config_.partition.has_value()) return deliver_at;
  const Partition& part = *config_.partition;
  // A message crossing the partition during its window is held until the
  // window closes: pure extra asynchrony, never a loss.
  if (part.crosses(from, to) && main_.clock < part.until && deliver_at >= part.from) {
    deliver_at = part.until + rng.between(config_.min_delay, config_.max_delay);
  }
  return deliver_at;
}

void SimRuntime::enqueue_message(Pid to, Step deliver_at, Message m) {
  auto& pend = pending_[to.index()];
  pend.push_back(InFlight{deliver_at, send_seq_++, main_.clock, std::move(m)});
  std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
  pending_head_[to.index()] = pend.front().deliver_at;
}

bool SimRuntime::send_hooks(SliceCtx& c, Pid from, Pid to, Message& m) {
  const HookScope scope{*this, c};
  c.injector->on_send(*this, from, to);
  return c.injector->on_byz_send(from, to, m);
}

std::uint64_t SimRuntime::write_hooks(SliceCtx& c, Pid writer, RegKey key, std::uint64_t v) {
  const HookScope scope{*this, c};
  c.injector->on_reg_write(*this, writer, key);
  c.injector->on_byz_reg_write(writer, key, v);
  return v;
}

// The Env backends are defined inline: each has one caller, its SimEnv
// method, and folding it in saves a call per Env operation.
inline void SimRuntime::env_send(SliceCtx& c, Pid from, Pid to, Message m) {
  MM_ASSERT(to.index() < config_.n());
  bool deliver = true;
  if (c.injector != nullptr) [[unlikely]]
    deliver = send_hooks(c, from, to, m);
  ++c.metrics.msgs_sent;
  ++main_.metrics.sends_by_proc[from.index()];
  std::uint32_t copies = 0;
  if (!deliver) [[unlikely]] {  // Byzantine selective silence
    record_drop(c, from, to, m.kind);
  } else {
    copies = partitioned_ ? send_partitioned(c, from, to, std::move(m))
                          : send_sequential(c, from, to, std::move(m));
  }
  if (record_footprints_ || record_obs_) [[unlikely]]
    note_send(c, to, copies);
}

void SimRuntime::note_send(SliceCtx& c, Pid to, std::uint32_t copies) {
  if (record_footprints_) c.scratch.footprint.add_send(to);
  if (record_obs_) {
    for (std::uint32_t i = 0; i < copies; ++i)
      c.obs.channel_events.push_back(ChannelEvent{c.clock, to.value(), +1});
  }
}

void SimRuntime::record_drop(SliceCtx& c, Pid from, Pid to, std::uint32_t kind) {
  ++c.metrics.msgs_dropped;
  trace_event(c, from, TraceEvent::Kind::kDrop, to.value(), kind);
}

std::uint32_t SimRuntime::send_sequential(SliceCtx& c, Pid from, Pid to, Message&& m) {
  if (config_.link_type == LinkType::kFairLossy && link_rng_.bernoulli(config_.drop_prob)) {
    record_drop(c, from, to, m.kind);
    return 0;
  }
  // Injected burst hostility (drops / delay spikes / duplicates) draws from
  // the dedicated fault stream; outside a burst window this block is free
  // and burst-free runs stay bit-identical.
  const bool burst = c.clock < c.burst.until;
  if (burst && fault_rng_.bernoulli(c.burst.drop_prob)) {
    record_drop(c, from, to, m.kind);
    return 0;
  }
  m.from = from;
  Step deliver_at = c.clock + link_rng_.between(config_.min_delay, config_.max_delay);
  if (burst && c.burst.extra_delay_max > 0)
    deliver_at += fault_rng_.between(0, c.burst.extra_delay_max);
  deliver_at = partition_hold(from, to, deliver_at, link_rng_);
  if (ef_part_active_) [[unlikely]] {
    // Explorer partition window: crossing sends are held (with their
    // already-drawn stamp and the next seq, exactly as if enqueued) until
    // the off toggle re-injects them. The send was counted above, so
    // send-metrics oracles are window-invariant.
    if (detail::mask_crosses(*config_.explore_faults->partition_mask, from, to)) {
      trace_event(c, from, TraceEvent::Kind::kSend, to.value(), m.kind, send_seq_);
      ef_held_.emplace_back(to.index(),
                            InFlight{deliver_at, send_seq_++, c.clock, std::move(m)});
      return 1;
    }
  }
  std::uint32_t copies = 1;
  if (burst && fault_rng_.bernoulli(c.burst.dup_prob)) {
    // Link-level duplication: the copy travels independently (own delay,
    // own partition hold) and is not counted as a send by `from`.
    Step dup_at = c.clock + fault_rng_.between(config_.min_delay, config_.max_delay);
    if (c.burst.extra_delay_max > 0) dup_at += fault_rng_.between(0, c.burst.extra_delay_max);
    dup_at = partition_hold(from, to, dup_at, fault_rng_);
    enqueue_message(to, dup_at, m);
    copies = 2;
  }
  // Flow id = the seq enqueue_message is about to assign, pairing this
  // kSend with its kDeliver.
  trace_event(c, from, TraceEvent::Kind::kSend, to.value(), m.kind, send_seq_);
  enqueue_message(to, deliver_at, std::move(m));
  return copies;
}

void SimRuntime::drain_pending(SliceCtx& c, Pid to, std::vector<Message>& out) {
  auto& pend = pending_[to.index()];
  const Step now_step = c.clock;
  const bool obs = record_obs_;
  std::uint64_t delivered = 0;
  while (!pend.empty() && pend.front().deliver_at <= now_step) {
    std::pop_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    InFlight f = std::move(pend.back());
    pend.pop_back();
    if (obs) [[unlikely]]
      c.obs.delivery_latency.add(now_step >= f.sent_at ? now_step - f.sent_at : 0);
    trace_event(c, f.msg.from, TraceEvent::Kind::kDeliver, to.value(), f.msg.kind, f.seq);
    out.push_back(std::move(f.msg));
    ++delivered;
  }
  pending_head_[to.index()] = pend.empty() ? kNever : pend.front().deliver_at;
  if (obs) [[unlikely]] {
    // The cached pending_head_ guarantees delivered >= 1 here.
    c.obs.inbox_depth.add(delivered);
    c.obs.channel_events.push_back(
        ChannelEvent{now_step, to.value(), -static_cast<std::int32_t>(delivered)});
  }
  c.metrics.msgs_delivered += delivered;
}

inline void SimRuntime::env_drain(SliceCtx& c, Pid self, std::vector<Message>& out) {
  // Pop eligible messages straight from the heap into the caller's buffer —
  // delivery order is (deliver_at, seq), exactly the heap's pop order, so no
  // intermediate inbox is needed. Reused caller buffers keep their capacity:
  // the steady-state drain allocates nothing, and when nothing is due the
  // cached pending_head_ skips the heap entirely.
  out.clear();
  if (pending_head_[self.index()] <= c.clock) drain_pending(c, self, out);
  if (record_footprints_) [[unlikely]]
    note_drain(c.scratch, self, out);
}

void SimRuntime::note_drain(SliceScratch& sc, Pid self, const std::vector<Message>& out) {
  // Even an empty drain is a channel touch: it would have observed any
  // message sent before it, so it must order against sends to `self`.
  sc.footprint.drained = true;
  if (!out.empty()) sc.got_messages = true;
  obs_note(self, kObsDrain, out.size(), sc.sig);
  for (const Message& m : out) {
    obs_note(self, kObsMsg, m.from.value(), sc.sig);
    obs_note(self, kObsMsg, (static_cast<std::uint64_t>(m.kind) << 32) ^ m.round, sc.sig);
    obs_note(self, kObsMsg, m.value, sc.sig);
    obs_note(self, kObsMsg, m.aux, sc.sig);
    obs_note(self, kObsMsg, m.tuples.size(), sc.sig);
    for (const RepTuple& t : m.tuples) {
      obs_note(self, kObsMsg, t.pid.value(), sc.sig);
      obs_note(self, kObsMsg, t.value, sc.sig);
    }
  }
}

inline SimRuntime::RegShard& SimRuntime::shard_of(RegId r) {
  const std::uint32_t s = r.value() >> kShardShift;
  MM_ASSERT(s < shards_.size() && (r.value() & kLocalMask) < shards_[s].values.size());
  return shards_[s];
}

void SimRuntime::check_access(Pid accessor, std::uint32_t acl) const {
  // Domain (GSM) check only: naming a register via env.reg() must stay
  // legal during a memory-failure window — availability is checked per
  // access by check_memory_alive, matching the thread runtime's split.
  if (acl == kGlobalOwner || acl == accessor.value()) return;
  if (!config_.gsm.has_edge(accessor, Pid{acl})) {
    throw ModelViolation{to_string(accessor) + " accessed register owned by " +
                         to_string(Pid{acl}) + " outside its shared-memory domain"};
  }
}

void SimRuntime::check_memory_alive(const SliceCtx& c, const RegShard& sh,
                                    std::size_t li) const {
  if (!mem_faults_armed_) return;
  if (sh.acl[li] == kGlobalOwner) return;
  const std::uint32_t owner = sh.owner[li];
  const MemWindow& w = mem_window_[owner];
  if (w.fail_at <= c.clock && c.clock < w.recover_at) {
    throw MemoryFailure{"memory hosted at " + to_string(Pid{owner}) + " has failed"};
  }
}

RegId SimRuntime::env_reg(Pid self, RegKey key) {
  // The domain check runs BEFORE materialising: a denied probe must not
  // create a register (in partitioned mode it would also write a foreign
  // partition's shard, racing with its owner).
  std::uint32_t shard = 0;
  std::uint32_t acl = kGlobalOwner;
  if (key.is_global()) {
    if (partitioned_) [[unlikely]] {
      throw ModelViolation{
          "global-key registers are sequential-only: a shard pinned to one "
          "partition cannot be accessed by every process"};
    }
  } else {
    const Pid owner = key.owner();
    MM_ASSERT_MSG(owner.index() < config_.n(), "register owner out of range");
    acl = owner.value();
    shard = ctx_of(owner).index;
  }
  check_access(self, acl);
  RegShard& sh = shards_[shard];
  auto it = sh.index.find(key);
  if (it == sh.index.end()) {
    const auto local = static_cast<std::uint32_t>(sh.values.size());
    MM_ASSERT_MSG(local <= kLocalMask, "register shard overflow");
    sh.values.push_back(0);
    sh.acl.push_back(acl);
    sh.owner.push_back(key.owner().value());
    sh.keys.push_back(key);
    it = sh.index.emplace(key, local).first;
  }
  return RegId{(shard << kShardShift) | it->second};
}

inline std::uint64_t SimRuntime::env_read(SliceCtx& c, Pid self, RegId r) {
  RegShard& sh = shard_of(r);
  const std::size_t li = r.value() & kLocalMask;
  check_access(self, sh.acl[li]);
  check_memory_alive(c, sh, li);
  ++c.metrics.reg_reads;
  ++main_.metrics.reads_by_proc[self.index()];
  if (sh.owner[li] == self.value()) {
    ++c.metrics.reg_reads_local;
  } else {
    ++main_.metrics.remote_reads_by_proc[self.index()];
  }
  trace_event(c, self, TraceEvent::Kind::kRegRead, r.value(), sh.values[li]);
  if (record_footprints_ || record_obs_) [[unlikely]]
    note_reg(c, self, sh.keys[li], TraceEvent::Kind::kRegRead, sh.values[li]);
  return sh.values[li];
}

inline void SimRuntime::env_write(SliceCtx& c, Pid self, RegId r, std::uint64_t v) {
  RegShard& sh = shard_of(r);
  const std::size_t li = r.value() & kLocalMask;
  if (c.injector != nullptr) [[unlikely]]
    v = write_hooks(c, self, sh.keys[li], v);
  check_access(self, sh.acl[li]);
  check_memory_alive(c, sh, li);
  ++c.metrics.reg_writes;
  ++main_.metrics.writes_by_proc[self.index()];
  if (sh.owner[li] == self.value()) {
    ++c.metrics.reg_writes_local;
  } else {
    ++main_.metrics.remote_writes_by_proc[self.index()];
  }
  trace_event(c, self, TraceEvent::Kind::kRegWrite, r.value(), v);
  if (record_footprints_ || record_obs_) [[unlikely]]
    note_reg(c, self, sh.keys[li], TraceEvent::Kind::kRegWrite, v);
  sh.values[li] = v;
}

inline std::uint64_t SimRuntime::env_cas(SliceCtx& c, Pid self, RegId r,
                                         std::uint64_t expected, std::uint64_t desired) {
  RegShard& sh = shard_of(r);
  const std::size_t li = r.value() & kLocalMask;
  // A CAS is a write-class mutation: fault rules keyed on register writes
  // (kOnFirstWrite / kOnRoundEntry) must see CAS-based object protocols too.
  if (c.injector != nullptr) [[unlikely]]
    desired = write_hooks(c, self, sh.keys[li], desired);
  check_access(self, sh.acl[li]);
  check_memory_alive(c, sh, li);
  ++c.metrics.reg_cas_ops;
  if (sh.owner[li] == self.value()) ++c.metrics.reg_cas_local;
  const std::uint64_t old = sh.values[li];
  trace_event(c, self, TraceEvent::Kind::kRegCas, r.value(), old);
  if (record_footprints_ || record_obs_) [[unlikely]]
    note_reg(c, self, sh.keys[li], TraceEvent::Kind::kRegCas, old);
  if (old == expected) sh.values[li] = desired;
  return old;
}

void SimRuntime::note_reg(SliceCtx& c, Pid self, RegKey key, TraceEvent::Kind op,
                          std::uint64_t value) {
  if (record_obs_) ++c.obs.reg_touches[key.bits()];
  if (!record_footprints_) return;
  // A read observes the value it returns; a CAS both observes and
  // (potentially) mutates: read+write footprint, with the observed old value
  // as the observation. Whether the swap hit is a deterministic function of
  // (old, expected), so old alone suffices. A write observes nothing.
  StepFootprint& fp = c.scratch.footprint;
  if (op != TraceEvent::Kind::kRegWrite) {
    fp.add_read(key);
    obs_note(self, op == TraceEvent::Kind::kRegRead ? kObsRead : kObsCas, value, c.scratch.sig);
  }
  if (op != TraceEvent::Kind::kRegRead) fp.add_write(key);
}

inline bool SimRuntime::env_coin(SliceCtx& c, Pid self) {
  const bool v = proc_rng_[self.index()].coin();
  if (record_footprints_) [[unlikely]] {
    c.scratch.footprint.drew_rand = true;
    obs_note(self, kObsCoin, v ? 1 : 0, c.scratch.sig);
  }
  return v;
}

inline std::uint64_t SimRuntime::env_rand_below(SliceCtx& c, Pid self, std::uint64_t bound) {
  const std::uint64_t v = proc_rng_[self.index()].below(bound);
  if (record_footprints_) [[unlikely]] {
    c.scratch.footprint.drew_rand = true;
    obs_note(self, kObsRand, v, c.scratch.sig);
  }
  return v;
}

inline Step SimRuntime::env_now(SliceCtx& c, Pid self) {
  if (record_footprints_) [[unlikely]] {
    // Reading the clock makes the step depend on *every* other step (time
    // advances with each), so it is recorded as a global conflict.
    c.scratch.footprint.observed_clock = true;
    obs_note(self, kObsNow, c.clock, c.scratch.sig);
  }
  return c.clock;
}

}  // namespace mm::runtime
