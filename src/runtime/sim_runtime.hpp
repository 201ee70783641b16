// Deterministic cooperative simulator for the m&m model.
//
// Each process body is a suspended execution context — a userspace fiber by
// default, a parked OS thread under the reference backend (see
// runtime/exec_backend.hpp) — and exactly one of {scheduler, process} is
// ever running: control is handed back and forth through ProcExec
// resume()/yield(). Algorithms therefore execute real sequential C++ (no
// state-machine contortions) while the schedule — the interleaving of steps,
// message delays, drops, partitions, and crashes — is a pure function of
// (SimConfig.seed, config), independent of the backend. Every test failure
// is replayable from its seed.
//
// Adversary strength: by default every shared-register access yields to the
// scheduler first (auto_step_on_shm), so interleavings are adversarial at
// register-operation granularity — the granularity at which linearizability
// of the register layer matters for the algorithms' safety proofs.
//
// Hot-path layout (docs/RUNTIME.md "Memory layout"): per-process scheduler
// state lives in dense parallel arrays (proc_state_/proc_kill_/
// proc_finished_/fiber_), registers in struct-of-arrays RegShards (one in
// sequential mode, one per partition otherwise), and messages carry inline
// small-buffer payloads (runtime/message.hpp) — a steady-state step performs
// zero heap allocations. Both engines run the same Env backends against a
// per-slice context (SliceCtx: clock, counters, trace ring, recorders);
// sequential mode owns exactly one. Footprint recording and observability
// are cold branches inside each Env backend (see SimEnv below).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime/env.hpp"
#include "runtime/exec_backend.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/fiber.hpp"
#include "runtime/footprint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/obs_recorder.hpp"
#include "runtime/sim_config.hpp"

namespace mm::runtime {

class SimEnv;  // defined after SimRuntime: it holds a SimRuntime::SliceCtx*

class SimRuntime {
 public:
  explicit SimRuntime(SimConfig config);
  ~SimRuntime();
  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  /// Register the body of the next process (call exactly n times, in pid
  /// order, before start()).
  void add_process(std::function<void(Env&)> body);

  /// Spawn the (parked) process threads. Implicit in the first run call.
  void start();

  /// Execute up to `k` scheduler steps. Returns the number executed, which
  /// is smaller only if every process finished or crashed first.
  Step run_steps(Step k);

  /// Run until all processes are finished/crashed or `budget` total steps
  /// have elapsed since construction. True iff all are done.
  bool run_until_all_done(Step budget);

  /// Kill parked processes and join all threads. Idempotent; also called by
  /// the destructor. After shutdown the runtime can only be inspected.
  void shutdown();

  /// Crash p at the next scheduling decision (dynamic injection).
  void crash_now(Pid p);
  /// Cooperative stop flag, visible through Env::stop_requested(). In
  /// partitioned mode a set from inside a process body reaches other
  /// partitions at a racy real time — drive partitioned runs by fixed step
  /// budgets instead when the trajectory must be reproducible.
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  // -- dynamic fault actuators (reactive injection; see fault_hook.hpp) ------
  // All of these may be called between run chunks or from FaultInjector
  // hooks mid-run; each takes effect immediately and is part of the
  // deterministic trajectory (any randomness they introduce is drawn from a
  // dedicated seeded fault stream that fault-free runs never touch).

  /// Open a memory-failure window for the registers hosted at `host`,
  /// starting now. Accesses throw MemoryFailure until `recover_at` (nullopt
  /// = permanent, the memory_fail_at semantics); values survive the window.
  void fail_memory_now(Pid host, std::optional<Step> recover_at = std::nullopt);
  /// Close `host`'s memory-failure window now (idempotent).
  void recover_memory_now(Pid host);
  /// Install a partition with the given mask from now until `until`,
  /// replacing any configured one. Requires n <= 64.
  void set_partition_now(std::uint64_t side_a, Step until);
  /// Remove the active partition (configured or injected).
  void clear_partition_now();

  /// A bounded window of extra link hostility: while `global step < until`,
  /// each sent message is independently dropped with `drop_prob`, duplicated
  /// with `dup_prob` (the copy gets its own delay), and delayed by an extra
  /// uniform draw from [0, extra_delay_max]. Draws come from the fault RNG
  /// stream, so burst-free traffic is untouched. Applies on top of the
  /// configured link model, to reliable links too — callers asserting
  /// no-loss invariants should not arm drops on reliable-link runs.
  struct LinkBurst {
    Step until = 0;
    double drop_prob = 0.0;
    double dup_prob = 0.0;
    Step extra_delay_max = 0;
  };
  void begin_link_burst(const LinkBurst& burst);

  /// Revoke the §3 timeliness guarantee from now on: the timely process
  /// becomes an ordinary weighted pick (the adversary Theorem 5.2 forbids).
  void revoke_timely() { config_.timely.reset(); }

  /// Install a reactive fault injector (non-owning; must outlive the run).
  /// Null detaches. Fault-free runs (no injector, no actuator calls) are
  /// bit-identical to runs before this hook existed.
  void set_fault_injector(FaultInjector* injector) { main_.injector = injector; }

  /// Partitioned mode only: install one reactive injector per logical
  /// partition — K independent replicas of the same rules, fired on each
  /// partition's local clock (see docs/RUNTIME.md "Partitioned execution"
  /// for which rule shapes replicate faithfully). Non-owning; `injectors`
  /// must be empty (detach) or have exactly partitions() entries.
  void set_partition_fault_injectors(const std::vector<FaultInjector*>& injectors);

  [[nodiscard]] bool finished(Pid p) const;
  [[nodiscard]] bool crashed(Pid p) const;
  [[nodiscard]] bool all_done() const;
  /// Rethrows the first non-kill exception that escaped a process body, if
  /// any. Call after a run to surface algorithm bugs in tests.
  void rethrow_process_error() const;

  /// The current global step. From a FaultInjector hook in partitioned mode
  /// this is the calling partition's local clock (each LP replays the rules
  /// on its own timeline); everywhere else it is the single global counter.
  /// The partitioned_ gate both skips the TLS read on the sequential hot
  /// path (tl_part_.rt can only equal a partitioned runtime) and keeps
  /// gcc's UBSan from hoisting the thread-local's null check above the
  /// wrapper call in tight caller loops (a false positive at -O2).
  [[nodiscard]] Step now() const noexcept {
    if (partitioned_ && tl_part_.rt == this) [[unlikely]] return tl_part_.ctx->clock;
    return main_.clock;
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return main_.metrics; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  /// The execution backend this runtime runs (SimConfig::backend).
  [[nodiscard]] SimBackend backend() const noexcept { return config_.backend; }

  /// True when this runtime runs the partitioned (LP-sharded) schedule
  /// contract — selected by setting SimConfig::partitions.
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  /// Logical partitions actually in use — the graph-aware planner clamps the
  /// request down to the GSM's component count. 0 when sequential.
  [[nodiscard]] std::uint32_t partitions() const noexcept { return nparts_; }
  /// pid → logical partition index (empty when sequential).
  [[nodiscard]] const std::vector<std::uint32_t>& partition_of() const noexcept {
    return part_of_;
  }
  /// Messages that crossed a partition boundary so far (0 when sequential).
  /// Deliberately not a Metrics field: the count depends on the partition
  /// plan, while Metrics must stay invariant in the partition count.
  [[nodiscard]] std::uint64_t cross_partition_msgs() const noexcept { return cross_msgs_; }
  /// Register values indexed by RegId — i.e. in creation order, which is
  /// itself part of the deterministic trajectory. Differential-backend tests
  /// compare this table verbatim. Sequential mode only (empty when
  /// partitioned: RegId creation order is per-shard there).
  [[nodiscard]] const std::vector<std::uint64_t>& register_values() const noexcept;
  /// Value of the register materialised under `key`, or nullopt if no
  /// process ever touched it. Key-addressed (unlike register_values(), whose
  /// RegId order depends on the schedule), so explorer oracles can read
  /// results a process published to a well-known key on ANY interleaving.
  [[nodiscard]] std::optional<std::uint64_t> register_value(RegKey key) const;

  /// Mode-independent register dump: (key bits, value) for every
  /// materialised register with a non-zero value, sorted by key bits. Works
  /// in sequential and partitioned mode alike (the PartitionDiff tests
  /// compare it verbatim); register_values() stays sequential-only because
  /// RegId creation order is per-shard under partitioning.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> register_dump() const;

  /// Interleave at register-op granularity (default on; see header comment).
  void set_auto_step_on_shm(bool on) noexcept { auto_step_on_shm_ = on; }

  /// Externally controlled scheduling: the policy receives the runnable
  /// processes (pid order) and returns the index into that list to schedule.
  /// Overrides weights and the timeliness guarantee. This is the hook the
  /// exhaustive schedule explorer drives.
  using SchedulePolicy = std::function<std::size_t(const std::vector<Pid>& runnable)>;
  void set_schedule_policy(SchedulePolicy policy) { schedule_policy_ = std::move(policy); }

  /// Schedule width a policy-driven run exposes: the n real processes plus
  /// the fault pseudo-processes of SimConfig::explore_faults (== n when no
  /// plan is armed). Enabled pseudo-pids (indices n .. sched_width()-1) are
  /// appended after the real runnable pids in the policy's list; choosing
  /// one fires the fault as a zero-time transition (global step unchanged)
  /// whose footprint carries the matching fault dependency class. The
  /// explorer sizes its masks and per-pid tables with this, not n().
  [[nodiscard]] std::size_t sched_width() const noexcept { return config_.n() + ef_width_; }

  // -- model-checker hooks (footprints + canonical state hashes) -------------
  // The third runtime hook family, next to trace_event and FaultInjector:
  // when armed, every scheduler step records which shared objects the slice
  // touched (runtime/footprint.hpp) and folds everything the process
  // *observed* (read values, drained messages, coin draws, clock reads) into
  // a per-process rolling observation hash. The DPOR explorer in check/dpor.*
  // consumes both. Off by default, and cheap by default: each Env backend
  // holds its instrumentation on an [[unlikely]] branch on
  // record_footprints_ (the larger bodies out of line). The flag is read per
  // call, so recording may still be armed after a deterministic warmup
  // prefix.

  /// Arm/disarm per-step footprint + observation recording.
  void set_footprint_recording(bool on);
  [[nodiscard]] bool footprint_recording() const noexcept { return record_footprints_; }
  /// Footprint of the most recently executed scheduler step. Valid while
  /// recording is armed and at least one step has run (sequential mode only
  /// — partitioned slices retire concurrently, one scratch per LP).
  [[nodiscard]] const StepFootprint& last_footprint() const noexcept {
    return main_.scratch.footprint;
  }

  /// Opt-in spin-cycle collapse: an *effect-free* slice (no writes, sends,
  /// clock reads, or randomness; drained nothing) whose observation sequence
  /// is identical to the process's previous effect-free slice does not
  /// advance the observation hash, so busy-wait spins map to a fixed point
  /// and the explorer's state cache can prune the cycle. Only sound for
  /// algorithms whose await loops are spin-stateless (no iteration counters,
  /// no timeouts) — see docs/RUNTIME.md. Off by default: every slice then
  /// advances the hash, which is always sound.
  void set_idle_slice_collapse(bool on) noexcept { idle_collapse_ = on; }

  /// 128-bit canonical hash of the current simulator state: per-process
  /// (lifecycle state, observation hash), non-zero register contents, and
  /// in-flight messages with *relative* delivery delays. Deliberately
  /// excludes the global step counter so states that differ only by elapsed
  /// time (e.g. spin iterations) coincide; sound for the explorer's
  /// restricted configs (crashes at step 0 only, unit delays) because every
  /// other time dependence flows through observations that are hashed.
  /// Requires footprint recording to be armed since construction.
  [[nodiscard]] StateHash state_hash() const;

  // -- event tracing (debugging adversarial schedules) -----------------------
  struct TraceEvent {
    enum class Kind : std::uint8_t {
      kSchedule,  ///< pid scheduled for one step
      kSend,      ///< a = destination pid, b = message kind, seq = flow id
      kDeliver,   ///< a = destination pid, b = message kind (pid = sender), seq = flow id
      kDrop,      ///< a = destination pid, b = message kind (fair-lossy)
      kRegRead,    ///< a = register index, b = value read
      kRegWrite,   ///< a = register index, b = value written
      kRegCas,     ///< a = register index, b = value observed
      kCrash,      ///< pid crashed
      kMemFail,    ///< pid = host whose memory failed, a = recover step (0 = never)
      kMemRecover, ///< pid = host whose memory recovered
      kFault,      ///< fault rule fired: pid = context, a = action code, b = rule index
      kHorizon,    ///< CMB horizon wait: pid = LP index, a = safe_until, b = scan rounds
    };
    Step step = 0;
    Pid pid;
    Kind kind = Kind::kSchedule;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /// Flow id pairing a kSend with its kDeliver (the pending-queue seq);
    /// 0 for every other kind. Trails the struct so five-field aggregate
    /// initialisers keep working.
    std::uint64_t seq = 0;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
  };

  /// Keep the last `capacity` events (0 disables tracing, the default unless
  /// SimConfig::trace_capacity armed it at construction). Storage is a fixed
  /// ring per slice context: memory use is bounded by the capacity, never by
  /// run length. In partitioned mode each LP records into its own ring of
  /// this capacity (events on a shared ring would race); trace() merges them
  /// by step.
  void enable_trace(std::size_t capacity = 65'536);
  /// The retained events, oldest first (a copy — the live buffer is a ring).
  /// Partitioned mode merges the per-LP rings into virtual-step order;
  /// same-step process events come from exactly one LP so the order is
  /// deterministic (wall-clock kHorizon events tie-break by LP index).
  [[nodiscard]] std::vector<TraceEvent> trace() const;
  /// Render the last `last_n` events, one per line (for failure triage):
  /// sim-time step deltas plus decoded per-kind payloads.
  [[nodiscard]] std::string dump_trace(std::size_t last_n = 100) const;

  /// Instant trace event for a fault-rule firing (called by the fault
  /// engine so rule firings — including kGoByzantine — appear in exported
  /// traces). Safe from LP context: routes to the calling LP's ring.
  void trace_fault(Pid context, std::uint64_t action, std::uint64_t rule);

  // -- sim-time observability (docs/RUNTIME.md "Observability") --------------
  /// Arm/disarm sim-time observability recording: delivery-latency,
  /// inbox-depth, pending-depth, and register-contention histograms. Like
  /// footprint recording, the instrumentation sits on [[unlikely]] branches
  /// of the Env backends — disabled runs skip it with one not-taken branch
  /// per feed, and trajectories are unchanged by arming (recording only
  /// observes).
  void set_observability(bool on) noexcept { record_obs_ = on; }
  [[nodiscard]] bool observability() const noexcept { return record_obs_; }
  /// Merge every context's recorder into one report, bit-identical at any
  /// partition count, backend, and MM_JOBS. Call between run chunks.
  [[nodiscard]] ObsReport obs_report() const;

  /// Arm wall-clock CMB stall profiling: horizon stall time, null-message
  /// scan rounds, handoff-lock contention (sequential runs record nothing).
  /// Wall-clock facts are K- and machine-dependent by nature, so they live
  /// outside Metrics/ObsReport and never affect the trajectory.
  void set_stall_profiling(bool on) noexcept { profile_stalls_ = on; }
  [[nodiscard]] const StallProfile& stall_profile() const noexcept { return stall_profile_; }

 private:
  friend class SimEnv;

  // Partitioned-engine state, defined in sim_partition_detail.hpp (only the
  // runtime's own translation units see the definitions).
  struct Lp;
  struct PartitionState;
  struct SliceCtx;  // defined below, with the Env backends that use it

  enum class ProcState : std::uint8_t { kNew, kParked, kFinished, kCrashed };

  /// Cold per-process handles. Everything the scheduler and Env hot paths
  /// touch per step lives in the parallel arrays below instead (SoA), so a
  /// scheduling decision reads dense bytes/words, not scattered structs.
  struct Proc {
    std::function<void(Env&)> body;
    std::unique_ptr<SimEnv> env;
    std::unique_ptr<ProcExec> exec;  ///< backend-specific execution context
    std::exception_ptr error;
  };

  /// RegShard::acl sentinel: register readable/writable by everyone (global
  /// key; sequential mode only).
  static constexpr std::uint32_t kGlobalOwner = ~std::uint32_t{0};

  /// The register store, struct-of-arrays so env_read/env_write touch one
  /// cache line each: value words, access-control words (owner pid, or
  /// kGlobalOwner), raw key owners (metrics, memory windows) and keys
  /// (injector hooks, dumps). Sequential mode has one shard; partitioned mode
  /// pins one to each partition. RegIds encode (shard << kShardShift) | slot,
  /// so sequential RegIds are plain creation-order indices.
  struct RegShard {
    std::unordered_map<RegKey, std::uint32_t> index;
    std::vector<std::uint64_t> values;
    std::vector<std::uint32_t> acl;
    std::vector<std::uint32_t> owner;
    std::vector<RegKey> keys;
  };
  static constexpr std::uint32_t kShardShift = 24;
  static constexpr std::uint32_t kLocalMask = (1u << kShardShift) - 1;

  /// Memory-failure window for one host: failed while
  /// `fail_at <= global step < recover_at` (kNever = unbounded end / never
  /// opened). Built from the config plans; reopened/closed dynamically by
  /// fail_memory_now / recover_memory_now.
  static constexpr Step kNever = ~Step{0};
  struct MemWindow {
    Step fail_at = kNever;
    Step recover_at = kNever;
  };

  struct InFlight {
    Step deliver_at;
    std::uint64_t seq;
    /// Step the message was sent at. Written unconditionally (it rides the
    /// existing store), read only by the observability recorder — never by
    /// the schedule or the state hash, so trajectories are unaffected.
    Step sent_at;
    Message msg;
  };
  /// Heap order for pending_: true when `a` delivers after `b`, so
  /// std::push_heap/pop_heap with this comparator keep the *earliest*
  /// (deliver_at, seq) at the front — the same order the old std::map
  /// iterated in, without per-message node allocations.
  static bool delivers_later(const InFlight& a, const InFlight& b) noexcept {
    return a.deliver_at != b.deliver_at ? a.deliver_at > b.deliver_at : a.seq > b.seq;
  }

  /// One scheduler step; returns false when no process is runnable. The
  /// general path: honours policy/timely/weights/injector hooks.
  bool step_once();
  /// The specialised inner loop for the common configuration (no policy, no
  /// injector, no timeliness, uniform weights, tracing off, recording off):
  /// consumes exactly the same RNG draws and produces the same trajectory as
  /// step_once, minus every disarmed-hook branch. Runs up to `k` steps.
  Step run_fast(Step k);
  [[nodiscard]] bool fast_path_eligible() const noexcept {
    return !schedule_policy_ && main_.injector == nullptr && !config_.timely.has_value() &&
           config_.sched_weight.empty() && trace_capacity_ == 0 && !record_footprints_ &&
           !record_obs_;
  }
  /// Hand one step to process `pick` and park again, bookkeeping included
  /// (sequential engine: run_slice, the runnable list and the clock).
  void activate(std::size_t pick);
  /// One slice of process `pick` in context `c`, the body both engines
  /// share: step count, kSchedule trace, footprint slice lifecycle, handoff
  /// and the finished transition. Returns true when the body finished.
  bool run_slice(SliceCtx& c, std::size_t pick) {
    ++main_.metrics.steps_by_proc[pick];
    trace_event(c, Pid{static_cast<std::uint32_t>(pick)}, TraceEvent::Kind::kSchedule);
    if (record_footprints_) [[unlikely]]
      begin_slice(pick, c.scratch);
    resume_proc(pick);
    const bool done = proc_finished_[pick] != 0;
    if (record_footprints_) [[unlikely]] {
      c.scratch.footprint.finishes = done;
      end_slice(pick, c.scratch);
    }
    if (done) proc_state_[pick] = static_cast<std::uint8_t>(ProcState::kFinished);
    return done;
  }
  /// Devirtualised handoff: direct inline fiber switch when fiber-backed.
  void resume_proc(std::size_t i) {
    Fiber* f = fiber_[i];
    if (f != nullptr) {
      f->resume();
    } else {
      procs_[i].exec->resume();
    }
  }
  [[nodiscard]] bool runnable(std::size_t i) const {
    return proc_state_[i] == static_cast<std::uint8_t>(ProcState::kParked);
  }
  /// Drop a pid from the incrementally-maintained runnable list (kParked →
  /// kFinished/kCrashed transitions are one-way, so the list only shrinks).
  void remove_runnable(std::size_t idx);
  void apply_crash_plan();
  // -- explorer fault plan (SimConfig::explore_faults) -----------------------
  /// Append the currently-enabled fault pseudo-pids to `out` (policy path
  /// only). Enabledness is a pure function of the canonically-hashed state:
  /// a crash event is enabled while its target is parked, a drop event
  /// while the shared budget is positive and its destination has in-flight
  /// messages, the partition toggles while unfired (off only after on).
  void ef_append_enabled(std::vector<Pid>& out);
  /// Fire pseudo-event `idx` (relative to n): a zero-time transition that
  /// records its footprint directly (no process slice runs).
  void ef_fire(std::size_t idx);
  /// The shard a RegId names (asserts the shard and the slot exist).
  /// Inline: every register op runs it (defined in sim_runtime.cpp, its
  /// only user).
  [[nodiscard]] inline RegShard& shard_of(RegId r);
  /// GSM domain check against a register's acl word: throws ModelViolation
  /// unless `accessor` is the owner, a GSM neighbour, or the key is global.
  void check_access(Pid accessor, std::uint32_t acl) const;
  /// Throws MemoryFailure while the slot's host is inside a failure window
  /// at `c`'s clock. Split from check_access so env_reg (naming) stays
  /// available during the window — mirrors the thread runtime's
  /// check_memory_alive.
  void check_memory_alive(const SliceCtx& c, const RegShard& sh, std::size_t li) const;
  /// Pop every message for `to` eligible at `c`'s clock straight into `out`
  /// (delivery order), maintaining pending_head_. `c` is `to`'s context: the
  /// drain runs in the destination's slice.
  void drain_pending(SliceCtx& c, Pid to, std::vector<Message>& out);
  /// Apply the partition hold rule to a tentative delivery step; re-draws
  /// the post-window delay from `rng` (the link stream for originals, the
  /// fault stream for injected duplicates).
  [[nodiscard]] Step partition_hold(Pid from, Pid to, Step deliver_at, Rng& rng);
  void enqueue_message(Pid to, Step deliver_at, Message m);
  /// Partitioned enqueue: local destinations go straight into pending_,
  /// remote ones through the destination LP's mutex-protected inbox. `seq`
  /// is sender-assigned ((step << 16) | slice send index — globally unique
  /// because exactly one process executes per virtual step).
  void parted_enqueue(Lp& lp, Pid to, Step deliver_at, std::uint64_t seq, Message m);
  /// The two send schedules past the shared prefix of env_send: link loss,
  /// delay and burst draws, the tie-break seq, and the enqueue. Sequential
  /// mode draws from the global link/fault streams and numbers messages
  /// with one counter; partitioned mode draws from per-sender streams and
  /// numbers them (step << 16) | slice send index. Both return how many
  /// copies entered the network (0 = dropped, 2 = burst duplicate).
  std::uint32_t send_sequential(SliceCtx& c, Pid from, Pid to, Message&& m);
  std::uint32_t send_partitioned(SliceCtx& c, Pid from, Pid to, Message&& m);
  /// Count and trace one message loss (Byzantine silence, fair-lossy or
  /// burst drop) in the sender's context.
  void record_drop(SliceCtx& c, Pid from, Pid to, std::uint32_t kind);
  /// Run `c`'s injector hooks for a send (returns false when the Byzantine
  /// interposer silences it) or a register write/CAS (returns the value to
  /// store, which the interposer may have rewritten), under a HookScope.
  /// Out of line: the hot Env paths only test for an injector.
  bool send_hooks(SliceCtx& c, Pid from, Pid to, Message& m);
  std::uint64_t write_hooks(SliceCtx& c, Pid writer, RegKey key, std::uint64_t v);

  // Env backends (called from the running process thread; serialized by the
  // semaphore handoff — in partitioned mode by the per-partition handoff —
  // so no locking is needed). Each call runs against the calling process's
  // slice context, so both engines run the same code. One function per
  // operation: footprint recording and observability are [[unlikely]]
  // branches on record_footprints_ / record_obs_, so a disarmed call pays
  // one predictable not-taken branch per feed. The register ops' auto-step
  // yield happens in SimEnv, before the call.
  void env_send(SliceCtx& c, Pid from, Pid to, Message m);
  void env_drain(SliceCtx& c, Pid self, std::vector<Message>& out);
  RegId env_reg(Pid self, RegKey key);
  std::uint64_t env_read(SliceCtx& c, Pid self, RegId r);
  void env_write(SliceCtx& c, Pid self, RegId r, std::uint64_t v);
  std::uint64_t env_cas(SliceCtx& c, Pid self, RegId r, std::uint64_t expected,
                        std::uint64_t desired);
  bool env_coin(SliceCtx& c, Pid self);
  std::uint64_t env_rand_below(SliceCtx& c, Pid self, std::uint64_t bound);
  Step env_now(SliceCtx& c, Pid self);

  /// Scratch for the recording state of the slice in flight (one per slice
  /// context, so footprint recording composes with concurrent LP slices).
  struct SliceScratch {
    StepFootprint footprint;   ///< footprint of the slice in flight / just retired
    std::uint64_t sig = 0;     ///< observation signature of the slice in flight
    bool got_messages = false; ///< slice drained a non-empty inbox
  };

  /// Everything a slice writes besides per-pid state and registers: the
  /// clock it executes at, the scalar counters, recording scratch,
  /// recorders, trace ring, burst window and injector. Sequential mode owns
  /// exactly one (main_, which also holds the run's Metrics); each partition
  /// LP embeds its own, merged into main_ after every chunk. Env calls get
  /// the context bound to the calling pid (SimEnv::ctx_), never one from
  /// thread-local state, which is unset on the thread backend's process
  /// threads.
  struct SliceCtx {
    explicit SliceCtx(std::size_t n = 0) : metrics(n) {}
    std::uint32_t index = 0;  ///< LP index = register shard index (0 in sequential mode)
    /// The global step this context executes (sequential: the global step
    /// counter; LP: its local clock, merged into main_ after each chunk).
    Step clock = 0;
    /// main_: the run's Metrics. LP: scalar counters only, merged after joins.
    Metrics metrics;
    SliceScratch scratch;
    ObsRecorder obs;
    /// Trace ring: grows once to trace_capacity_ and then wraps, trace_head
    /// pointing at the oldest (= next overwritten) slot.
    std::vector<TraceEvent> trace_buf;
    std::size_t trace_head = 0;
    LinkBurst burst;
    FaultInjector* injector = nullptr;  ///< non-owning
  };

  /// Fold one observation (tagged by kind) into `self`'s rolling observation
  /// hash and into the slice signature `sig` (for idle-slice collapse).
  void obs_note(Pid self, std::uint64_t tag, std::uint64_t value, std::uint64_t& sig);
  /// Cold instrumentation of the Env backends, out of line so the disarmed
  /// hot paths stay small enough to inline: each feeds whichever of
  /// footprint recording and observability is armed. note_drain runs with
  /// recording armed and folds every drained message; note_reg takes the
  /// op as its trace kind (kRegRead, kRegWrite or kRegCas) and `value`
  /// as the value read, written or observed.
  void note_send(SliceCtx& c, Pid to, std::uint32_t copies);
  void note_drain(SliceScratch& sc, Pid self, const std::vector<Message>& out);
  void note_reg(SliceCtx& c, Pid self, RegKey key, TraceEvent::Kind op, std::uint64_t value);
  /// Slice lifecycle around ProcExec::resume() while recording is armed.
  void begin_slice(std::size_t pick, SliceScratch& sc);
  void end_slice(std::size_t pick, SliceScratch& sc);
  /// Hot-path tracing hook: records into `c`'s ring, stamped with c's
  /// clock. A branch-predictable no-op unless enable_trace armed it (the
  /// capacity check inlines; the ring push stays out of line).
  void trace_event(SliceCtx& c, Pid pid, TraceEvent::Kind kind, std::uint64_t a = 0,
                   std::uint64_t b = 0, std::uint64_t seq = 0) {
    if (trace_capacity_ == 0) [[likely]] {
      return;
    }
    trace_event_slow(c, pid, kind, a, b, seq);
  }
  void trace_event_slow(SliceCtx& c, Pid pid, TraceEvent::Kind kind, std::uint64_t a,
                        std::uint64_t b, std::uint64_t seq);

  SimConfig config_;
  SchedulePolicy schedule_policy_;
  /// Pooled fiber stacks (config_.pooled_fiber_stacks). Declared before
  /// procs_ so it outlives the fibers whose stacks it owns.
  std::unique_ptr<FiberStackPool> stack_pool_;
  std::vector<Proc> procs_;

  // Per-process scheduler state, struct-of-arrays (hot; indexed by pid).
  std::vector<std::uint8_t> proc_state_;     ///< ProcState values
  std::vector<std::uint8_t> proc_kill_;      ///< kill flag read by SimEnv::step
  std::vector<std::uint8_t> proc_finished_;  ///< set by the wrapper before its final yield
  std::vector<Fiber*> fiber_;  ///< devirtualised handoff; null under the thread backend

  /// Runnable pids in pid order, maintained incrementally (see
  /// remove_runnable) instead of being rebuilt by scanning every step.
  std::vector<std::size_t> runnable_;
  std::vector<Pid> policy_scratch_;  ///< reused buffer for schedule_policy_ calls
  /// Crash plan flattened to (step, pid), sorted; crash_next_ advances as
  /// steps pass so apply_crash_plan is O(1) when nothing is due.
  std::vector<std::pair<Step, std::uint32_t>> crash_schedule_;
  std::size_t crash_next_ = 0;

  // Explorer fault plan state (all zero/empty without explore_faults, so
  // legacy runs and hashes are untouched). Layout cached from the config:
  // crash events at [0, ef_drop_base_), per-destination drop events at
  // [ef_drop_base_, ef_part_base_), then partition-on and partition-off.
  std::size_t ef_width_ = 0;         ///< pseudo-process count (0 = no plan)
  std::size_t ef_drop_base_ = 0;
  std::size_t ef_part_base_ = 0;
  std::uint32_t ef_drops_left_ = 0;  ///< shared drop budget remaining
  bool ef_on_fired_ = false;
  bool ef_off_fired_ = false;
  bool ef_part_active_ = false;      ///< explorer partition window open
  /// Messages held across the window, (destination, in-flight) in send
  /// order; re-injected with their original stamps by the off toggle.
  std::vector<std::pair<std::uint32_t, InFlight>> ef_held_;
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> stop_requested_{false};
  bool auto_step_on_shm_ = true;

  Step steps_since_timely_ = 0;
  std::uint64_t send_seq_ = 0;

  Rng sched_rng_;
  Rng link_rng_;
  /// Dedicated stream for injected-fault randomness (burst drops, duplicate
  /// delays). Never drawn from unless a burst is active, so fault-free
  /// trajectories are unchanged by its existence.
  Rng fault_rng_;
  std::vector<Rng> proc_rng_;

  /// Per-host memory-failure windows; mem_faults_armed_ keeps the fault-free
  /// register hot path to a single predictable branch.
  std::vector<MemWindow> mem_window_;
  bool mem_faults_armed_ = false;

  /// Register shards, sized once at construction (one per partition, or
  /// one in sequential mode, which alone admits global keys).
  std::vector<RegShard> shards_;

  // Per-destination pending messages: a binary min-heap on (deliver_at, seq)
  // (see delivers_later). pending_head_[d] caches the earliest deliver_at
  // (kNever when empty) so a drain with nothing due never touches the heap.
  std::vector<std::vector<InFlight>> pending_;
  std::vector<Step> pending_head_;

  /// Per-context trace ring capacity (0 = tracing off).
  std::size_t trace_capacity_ = 0;

  // Sim-time observability (set_observability) records into each context's
  // ObsRecorder; LP recorders are merged into main_'s after each chunk.
  // Wall-clock stall counters are accumulated the same way (per-LP, merged
  // post-chunk).
  bool record_obs_ = false;
  bool profile_stalls_ = false;
  StallProfile stall_profile_;

  // Footprint / observation recording (see the model-checker hooks above).
  bool record_footprints_ = false;
  bool idle_collapse_ = false;
  std::vector<std::uint64_t> obs_hash_;  ///< per-process rolling observation hash
  // Idle-spin collapse state (set_idle_slice_collapse): per process, a ring
  // of the last kIdleRing effect-free slice signatures and post-slice
  // observation hashes, plus the current effect-free streak length. A spin
  // whose signature stream is periodic with period <= kIdleMaxPeriod rolls
  // its observation hash back one full period, so same-phase states hash
  // equal and the explorer's state cache recognises the cycle. Periods > 1
  // arise whenever one await iteration spans several scheduler slices (a
  // remote-register read is its own yield point ahead of the drain+step
  // slice — e.g. ABD servers polling a global result register).
  static constexpr std::size_t kIdleRing = 8;
  static constexpr std::size_t kIdleMaxPeriod = 4;
  std::vector<std::uint64_t> idle_sig_ring_;   ///< n * kIdleRing signatures
  std::vector<std::uint64_t> idle_post_ring_;  ///< n * kIdleRing post-slice obs
  std::vector<std::uint32_t> idle_streak_;     ///< consecutive effect-free slices

  /// The sequential engine's slice context; in partitioned mode the
  /// driver context between chunks and the merge target of the LPs'.
  SliceCtx main_;
  /// main_ followed by every LP (pointers stable once start() ran).
  std::vector<SliceCtx*> ctxs_;
  /// Slice context of process p (its SimEnv's binding; valid after start()).
  [[nodiscard]] SliceCtx& ctx_of(Pid p) const;

  // -- partitioned engine (docs/RUNTIME.md "Partitioned execution") ----------
  // K logical partitions (LPs) advance concurrently under Chandy–Misra–Bryant
  // conservative synchronization: the link delay lower bound is the
  // lookahead, each LP publishes its clock atomically (the null-message
  // broadcast), and a cross-partition send travels through the destination
  // LP's mutex-protected inbox. The trajectory is a pure function of the
  // seed, invariant in K and MM_JOBS — but it is its OWN schedule contract,
  // not the sequential one. All heavyweight state lives behind part_ (defined
  // in sim_partition_detail.hpp) so sequential runtimes pay one null pointer.
  /// Set while a thread executes inside lp_run or a partitioned injector
  /// hook, so now() and the dynamic actuators resolve to the calling LP's
  /// local timeline (FaultEngine replicas fire on it). rt discriminates
  /// nested runtimes on one thread.
  struct PartCtx {
    const SimRuntime* rt = nullptr;
    SliceCtx* ctx = nullptr;  ///< lets actuators filter to the caller's pids
  };
  static thread_local PartCtx tl_part_;
  /// Binds `c` as this thread's calling context while a partitioned
  /// injector hook runs: under the thread backend hooks fire on the
  /// process's own thread, where lp_run's binding is not visible. Sequential
  /// hooks stay unbound — every actuator's driver-context path is the
  /// sequential one.
  class HookScope {
   public:
    HookScope(const SimRuntime& rt, SliceCtx& c) : bound_(rt.partitioned_) {
      if (bound_) {
        saved_ = tl_part_;
        tl_part_ = PartCtx{&rt, &c};
      }
    }
    ~HookScope() {
      if (bound_) tl_part_ = saved_;
    }
    HookScope(const HookScope&) = delete;
    HookScope& operator=(const HookScope&) = delete;

   private:
    bool bound_;
    PartCtx saved_;
  };
  /// The LP an actuator acts in when called from a partitioned injector
  /// hook or an LP thread; null from the driver (between chunks) and in
  /// sequential mode.
  [[nodiscard]] SliceCtx* hook_ctx() const noexcept {
    return tl_part_.rt == this ? tl_part_.ctx : nullptr;
  }

  void init_partitions();      ///< ctor tail: resolve K, build/validate plan
  void start_partitioned();    ///< start() tail: LPs, shards, per-pid streams
  Step run_partitioned(Step k);
  void lp_run(Lp& lp, Step target);
  void wait_horizon(Lp& lp, Step t) noexcept;
  void drain_handoff(Lp& lp);
  /// One process finished (crash=false, during step t) or crashed (crash=
  /// true, at the step-t boundary) under the partitioned engine.
  void mark_done_parted(Step t, bool crash);

  bool partitioned_ = false;
  std::uint32_t nparts_ = 0;
  std::vector<std::uint32_t> part_of_;  ///< pid → LP index
  std::uint64_t cross_msgs_ = 0;        ///< merged after each run chunk
  std::unique_ptr<PartitionState> part_;
};

/// Per-process Env implementation; a thin facade over the runtime.
///
/// Each method calls exactly one SimRuntime Env backend (or, for step(),
/// holds the yield itself). The backends branch on the runtime's recording
/// and observability flags per call, so set_footprint_recording stays
/// armable after a deterministic warmup prefix (the instance corpus relies
/// on that). Register ops yield through step() first when auto-step is on:
/// that is the one yield path, fiber-backed or not.
class SimEnv final : public Env {
 public:
  SimEnv(SimRuntime& rt, Pid self) : rt_(&rt), self_(self) {}

  [[nodiscard]] Pid self() const override { return self_; }
  [[nodiscard]] std::size_t n() const override;
  void send(Pid to, Message m) override;
  void drain_inbox(std::vector<Message>& out) override;
  [[nodiscard]] RegId reg(RegKey key) override;
  [[nodiscard]] std::uint64_t read(RegId r) override;
  void write(RegId r, std::uint64_t v) override;
  std::uint64_t cas(RegId r, std::uint64_t expected, std::uint64_t desired) override;
  [[nodiscard]] bool coin() override;
  [[nodiscard]] std::uint64_t rand_below(std::uint64_t bound) override;
  void step() override;
  [[nodiscard]] Step now() const override;
  [[nodiscard]] bool stop_requested() const override;

 private:
  friend class SimRuntime;

  SimRuntime* rt_;
  Pid self_;
  /// Bound by SimRuntime::start(): step() — the single hottest Env call —
  /// needs no runtime indirection, just the inline fiber switch (or the
  /// thread backend's yield when fiber_ is null) and one kill-flag load.
  Fiber* fiber_ = nullptr;
  ProcExec* exec_ = nullptr;
  const std::uint8_t* kill_flag_ = nullptr;
  /// This process's slice context, bound by start() from its pid: the
  /// runtime's one context in sequential mode, the owner LP's when
  /// partitioned. Every Env backend call carries it.
  SimRuntime::SliceCtx* ctx_ = nullptr;
};

}  // namespace mm::runtime
