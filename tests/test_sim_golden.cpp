// Absolute trajectory pins for SimRuntime.
//
// The differential grids (BackendDiff, PartitionDiff, the Obs K-grid)
// compare runs with each other, so a change that shifts every side the same
// way passes them all. These tests compare against constants instead: a
// fixed-seed mixed workload — global-key and neighbour registers, CAS, a
// crash plan, fair-lossy links, a link-burst injector, a memory-failure
// window and one Byzantine sender — is reduced to a 128-bit digest of
// metrics(), register_dump(), register_values(), trace() and state_hash(),
// and that digest must equal the committed value. A failing pin prints the
// digest it got; update a constant only for a deliberate, documented change
// of the schedule contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tags.hpp"
#include "fault/byzantine.hpp"
#include "fault/engine.hpp"
#include "fault/rule.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

constexpr std::uint32_t kN = 8;
constexpr int kIters = 90;

/// GSM = four disjoint edges {2i, 2i+1}: every process has one neighbour,
/// and K ∈ {1, 2, 4} are all legal component-level partition plans.
graph::Graph paired_gsm() {
  graph::Graph g{kN};
  for (std::uint32_t i = 0; i + 1 < kN; i += 2) g.add_edge(Pid{i}, Pid{i + 1});
  return g;
}

/// Two-lane 128-bit digest (the same finalizer family as state_hash).
class Digest {
 public:
  void add(std::uint64_t v) {
    lo_ = mix(lo_ ^ v);
    hi_ = mix(hi_ ^ (v * 0x9e3779b97f4a7c15ULL + 0x7f4a7c159e3779b9ULL));
  }
  void add(const std::vector<std::uint64_t>& vs) {
    add(vs.size());
    for (const std::uint64_t v : vs) add(v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
    return buf;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 33;
    return x;
  }
  std::uint64_t lo_ = 0x243f6a8885a308d3ULL;
  std::uint64_t hi_ = 0x13198a2e03707344ULL;
};

struct Cell {
  std::optional<std::uint32_t> partitions;  ///< unset = sequential mode
  SimBackend backend = SimBackend::kCoroutine;
  bool record = true;  ///< footprint recording (state_hash needs it)
  bool observe = false;
};

struct Outcome {
  std::string digest;       ///< everything, state_hash included (record only)
  std::string trajectory;   ///< metrics, registers, trace and sums only
  std::uint64_t dropped = 0;
  std::uint64_t drop_events = 0;
};

std::vector<fault::FaultRule> golden_rules() {
  fault::FaultRule burst;
  burst.trigger = fault::Trigger::kAtStep;
  burst.count = 120;
  burst.action = fault::Action::kLinkBurst;
  burst.duration = 150;
  burst.drop_prob = 0.2;
  burst.dup_prob = 0.2;
  burst.extra_delay = 3;
  fault::FaultRule byz;
  byz.trigger = fault::Trigger::kAtStep;
  byz.count = 60;
  byz.action = fault::Action::kGoByzantine;
  byz.target = Pid{6};
  byz.byz_behaviors = fault::kByzSilence | fault::kByzCorrupt;
  byz.byz_silence_mask = (1ULL << 1) | (1ULL << 7);
  byz.drop_prob = 0.5;
  return {burst, byz};
}

/// The mixed workload. Sequential cells also CAS one global-key counter,
/// which partitioned mode rejects by contract.
Outcome run_cell(const Cell& cell) {
  const bool global_regs = !cell.partitions.has_value();
  SimConfig cfg;
  cfg.gsm = paired_gsm();
  cfg.seed = 0x5eed'2018;
  cfg.backend = cell.backend;
  cfg.partitions = cell.partitions;
  cfg.link_type = LinkType::kFairLossy;
  cfg.drop_prob = 0.1;
  cfg.min_delay = 2;
  cfg.max_delay = 7;
  cfg.crash_at.assign(kN, std::nullopt);
  cfg.crash_at[5] = 700;
  cfg.memory_fail_at.assign(kN, std::nullopt);
  cfg.memory_recover_at.assign(kN, std::nullopt);
  cfg.memory_fail_at[2] = 300;
  cfg.memory_recover_at[2] = 900;
  cfg.trace_capacity = std::size_t{1} << 18;  // larger than the whole run
  SimRuntime rt{cfg};
  rt.set_footprint_recording(cell.record);
  rt.set_observability(cell.observe);
  std::vector<std::uint64_t> sums(kN, 0);
  std::vector<std::uint64_t> mem_failures(kN, 0);
  for (std::uint32_t p = 0; p < kN; ++p) {
    rt.add_process([&sums, &mem_failures, p, global_regs](Env& env) {
      const Pid partner{p % 2 == 0 ? p + 1 : p - 1};
      const RegId mine = env.reg(RegKey::make(core::kTagState, env.self(), 0, 0));
      const RegId theirs = env.reg(RegKey::make(core::kTagState, partner, 0, 1));
      std::optional<RegId> global;
      if (global_regs) global = env.reg(RegKey::make_global(core::kTagState, Pid{0}, 0, 2));
      std::vector<Message> drained;
      std::uint64_t acc = p;
      for (int i = 0; i < kIters; ++i) {
        acc = acc * 0x100000001b3ULL + env.now() + (env.coin() ? 1 : 0);
        try {
          env.write(mine, acc);
          acc ^= env.cas(theirs, acc & 0xff, acc + 1);
          acc += env.read(mine);
          if (global.has_value()) acc += env.cas(*global, acc % 5, acc % 7);
        } catch (const MemoryFailure&) {
          ++mem_failures[p];
          acc += 0x77;
        }
        acc += env.rand_below(1000);
        Message m;
        m.kind = 1;
        m.round = static_cast<std::uint64_t>(i);
        m.value = acc;
        env.send(Pid{(p + 3) % kN}, m);
        if (i % 3 == 0) env.send(partner, m);
        env.drain_inbox(drained);
        for (const Message& r : drained) acc = acc * 31 + r.value + r.from.value();
        env.step();
      }
      sums[p] = acc;
    });
  }
  std::vector<std::unique_ptr<fault::FaultEngine>> engines;
  if (cell.partitions.has_value()) {
    std::vector<FaultInjector*> raw;
    for (std::uint32_t q = 0; q < rt.partitions(); ++q) {
      engines.push_back(std::make_unique<fault::FaultEngine>(golden_rules()));
      raw.push_back(engines.back().get());
    }
    rt.set_partition_fault_injectors(raw);
  } else {
    engines.push_back(std::make_unique<fault::FaultEngine>(golden_rules()));
    rt.set_fault_injector(engines.back().get());
  }
  EXPECT_TRUE(rt.run_until_all_done(500'000));
  rt.rethrow_process_error();
  // Every fault class of the workload really fired.
  EXPECT_TRUE(rt.crashed(Pid{5}));
  EXPECT_GT(mem_failures[2] + mem_failures[3], 0u);
  for (const auto& engine : engines) {
    EXPECT_EQ(engine->fired_count(), 2u);
    EXPECT_TRUE(engine->adversary().is_byzantine(Pid{6}));
  }

  Outcome out;
  Digest d;
  const Metrics& m = rt.metrics();
  for (const std::uint64_t v : {m.msgs_sent, m.msgs_delivered, m.msgs_dropped, m.reg_reads,
                                m.reg_writes, m.reg_cas_ops, m.reg_reads_local,
                                m.reg_writes_local, m.reg_cas_local})
    d.add(v);
  for (const auto* per : {&m.steps_by_proc, &m.sends_by_proc, &m.reads_by_proc,
                          &m.writes_by_proc, &m.remote_reads_by_proc, &m.remote_writes_by_proc})
    d.add(*per);
  const auto dump = rt.register_dump();
  d.add(dump.size());
  for (const auto& [k, v] : dump) {
    d.add(k);
    d.add(v);
  }
  d.add(rt.register_values());
  std::uint64_t events = 0;
  for (const SimRuntime::TraceEvent& e : rt.trace()) {
    // kHorizon events are wall-clock facts (their presence depends on how
    // the LP threads happened to interleave), never trajectory facts.
    if (e.kind == SimRuntime::TraceEvent::Kind::kHorizon) continue;
    if (e.kind == SimRuntime::TraceEvent::Kind::kDrop) {
      ++out.drop_events;
      // The partitioned pins predate partitioned drop tracing, so they leave
      // kDrop out; SimTrace.EveryDropIsTraced covers those events.
      if (cell.partitions.has_value()) continue;
    }
    ++events;
    for (const std::uint64_t v : {e.step, std::uint64_t{e.pid.value()},
                                  static_cast<std::uint64_t>(e.kind), e.a, e.b, e.seq})
      d.add(v);
  }
  d.add(events);
  d.add(sums);
  d.add(rt.now());
  out.trajectory = d.hex();
  if (cell.record) {
    const StateHash h = rt.state_hash();
    d.add(h.lo);
    d.add(h.hi);
  }
  out.digest = d.hex();
  out.dropped = m.msgs_dropped;
  return out;
}

std::string cell_name(const Cell& c) {
  std::string s = c.partitions.has_value() ? "K=" + std::to_string(*c.partitions) : "sequential";
  s += c.backend == SimBackend::kThread ? " thread" : " coroutine";
  return s;
}

// A refactor must reproduce these exactly; a new value means the schedule
// contract changed, which must be deliberate and documented.
constexpr const char* kSequentialDigest = "9081805a59bd23e91dd55f3afc4cf956";
constexpr const char* kPartitionedK1Digest = "76c54dfa45c94bd84e73fdad39028735";
constexpr const char* kPartitionedK4Digest = "8da38e9029a8fd3e613f74f20033841f";

TEST(SimGolden, TrajectoryDigestsArePinned) {
  const struct {
    std::optional<std::uint32_t> partitions;
    const char* want;
  } pins[] = {{std::nullopt, kSequentialDigest},
              {1u, kPartitionedK1Digest},
              {4u, kPartitionedK4Digest}};
  for (const auto& pin : pins) {
    for (const SimBackend backend : {SimBackend::kCoroutine, SimBackend::kThread}) {
      const Cell cell{pin.partitions, backend};
      EXPECT_EQ(run_cell(cell).digest, pin.want) << cell_name(cell);
    }
  }
}

// Disarmed recording and armed observability only skip or take their
// branches in the Env backends: both must produce the trajectory the pinned
// recording runs produce.
TEST(SimGolden, UnrecordedObservedRunsFollowTheSameTrajectory) {
  for (const std::optional<std::uint32_t> k : {std::optional<std::uint32_t>{}, {1u}, {4u}}) {
    const Outcome recorded = run_cell(Cell{k, SimBackend::kCoroutine, true, false});
    const Outcome plain = run_cell(Cell{k, SimBackend::kCoroutine, false, false});
    const Outcome observed = run_cell(Cell{k, SimBackend::kCoroutine, false, true});
    EXPECT_EQ(plain.trajectory, recorded.trajectory) << cell_name(Cell{k});
    EXPECT_EQ(observed.trajectory, recorded.trajectory) << cell_name(Cell{k});
  }
}

TEST(SimTrace, EveryDropIsTraced) {
  // Byzantine silence, fair-lossy loss and burst drops all bump
  // msgs_dropped; each must also leave a kDrop event, in both engines.
  for (const std::optional<std::uint32_t> k : {std::optional<std::uint32_t>{}, {2u}}) {
    const Outcome o = run_cell(Cell{k, SimBackend::kCoroutine, false, false});
    EXPECT_GT(o.dropped, 0u) << cell_name(Cell{k});
    EXPECT_EQ(o.drop_events, o.dropped) << cell_name(Cell{k});
  }
}

}  // namespace
}  // namespace mm::runtime
