// Differential tests for the execution backends: the coroutine (fiber) and
// thread backends must produce bit-identical trajectories — same metrics,
// same register tables, same traces, same algorithm decisions — for every
// seed and adversary configuration, because backend selection swaps only the
// transfer-of-control primitive, never a scheduling decision.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tags.hpp"
#include "core/trial.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_runtime.hpp"

namespace mm::runtime {
namespace {

/// Everything observable about a finished run.
struct Snapshot {
  Metrics metrics;
  std::vector<std::uint64_t> regs;
  std::vector<std::uint64_t> sums;  ///< per-process values computed by the bodies
  Step now = 0;
  std::vector<SimRuntime::TraceEvent> trace;
};

/// A workload that exercises every Env facility: coins, bounded draws,
/// register reads/writes/CAS (on own and neighbours' registers), messaging,
/// inbox drains, and steps. Any divergence in scheduling or RNG shows up in
/// `sums`, the register table, or the metrics.
Snapshot run_mixed_workload(SimConfig cfg, SimBackend backend, bool trace) {
  const std::size_t n = cfg.n();
  cfg.backend = backend;
  SimRuntime rt{std::move(cfg)};
  if (trace) rt.enable_trace();

  std::vector<std::uint64_t> sums(n, 0);
  std::vector<Message> drained;
  for (std::uint32_t p = 0; p < n; ++p) {
    rt.add_process([&sums, &drained, p, n](Env& env) {
      const RegId mine = env.reg(RegKey::make(core::kTagState, env.self(), 0, 0));
      const RegId theirs =
          env.reg(RegKey::make(core::kTagState, Pid{(p + 1) % static_cast<std::uint32_t>(n)}, 0, 0));
      std::uint64_t acc = p;
      for (int i = 0; i < 120; ++i) {
        acc = acc * 3 + (env.coin() ? 1 : 0) + env.rand_below(17);
        env.write(mine, acc);
        acc ^= env.read(theirs);
        (void)env.cas(theirs, acc, acc + 1);
        Message m;
        m.kind = 1;
        m.value = acc;
        env.send(Pid{(p + 1) % static_cast<std::uint32_t>(n)}, m);
        env.drain_inbox(drained);
        for (const Message& r : drained) acc += r.value;
        env.step();
        sums[p] = acc;
      }
    });
  }
  rt.run_until_all_done(1'000'000);
  rt.shutdown();
  rt.rethrow_process_error();

  Snapshot s;
  s.metrics = rt.metrics();
  s.regs = rt.register_values();
  s.sums = std::move(sums);
  s.now = rt.now();
  s.trace = rt.trace();
  return s;
}

void expect_identical(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.sums, b.sums);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.trace, b.trace);
}

constexpr std::uint64_t kSeeds[] = {1, 42, 99'991};

SimConfig base(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.gsm = graph::complete(n);
  cfg.seed = seed;
  return cfg;
}

TEST(BackendDiff, PlainWorkload) {
  for (const std::uint64_t seed : kSeeds) {
    expect_identical(run_mixed_workload(base(4, seed), SimBackend::kCoroutine, false),
                     run_mixed_workload(base(4, seed), SimBackend::kThread, false));
  }
}

TEST(BackendDiff, WithCrashes) {
  for (const std::uint64_t seed : kSeeds) {
    SimConfig cfg = base(5, seed);
    cfg.crash_at.assign(5, std::nullopt);
    cfg.crash_at[1] = 40;
    cfg.crash_at[3] = 200;
    expect_identical(run_mixed_workload(cfg, SimBackend::kCoroutine, false),
                     run_mixed_workload(cfg, SimBackend::kThread, false));
  }
}

TEST(BackendDiff, FairLossyLinks) {
  for (const std::uint64_t seed : kSeeds) {
    SimConfig cfg = base(4, seed);
    cfg.link_type = LinkType::kFairLossy;
    cfg.drop_prob = 0.4;
    expect_identical(run_mixed_workload(cfg, SimBackend::kCoroutine, false),
                     run_mixed_workload(cfg, SimBackend::kThread, false));
  }
}

TEST(BackendDiff, WeightedSchedulerWithTimelyProcess) {
  for (const std::uint64_t seed : kSeeds) {
    SimConfig cfg = base(4, seed);
    cfg.sched_weight = {1.0, 0.1, 0.1, 3.0};
    cfg.timely = Pid{1};
    cfg.timely_bound = 8;
    expect_identical(run_mixed_workload(cfg, SimBackend::kCoroutine, false),
                     run_mixed_workload(cfg, SimBackend::kThread, false));
  }
}

TEST(BackendDiff, PartitionWindow) {
  for (const std::uint64_t seed : kSeeds) {
    SimConfig cfg = base(4, seed);
    Partition part;
    part.side_a = 0b0011;
    part.from = 50;
    part.until = 400;
    cfg.partition = part;
    expect_identical(run_mixed_workload(cfg, SimBackend::kCoroutine, false),
                     run_mixed_workload(cfg, SimBackend::kThread, false));
  }
}

TEST(BackendDiff, TracesMatchEventForEvent) {
  for (const std::uint64_t seed : kSeeds) {
    SimConfig cfg = base(3, seed);
    cfg.crash_at.assign(3, std::nullopt);
    cfg.crash_at[2] = 100;
    const Snapshot a = run_mixed_workload(cfg, SimBackend::kCoroutine, true);
    const Snapshot b = run_mixed_workload(cfg, SimBackend::kThread, true);
    ASSERT_FALSE(a.trace.empty());
    expect_identical(a, b);
  }
}

TEST(BackendDiff, FastLoopMatchesGeneralLoop) {
  // run_steps picks run_fast when every hook is disarmed and step_once
  // otherwise; armed tracing changes nothing else, so the traced run takes
  // the general loop and the untraced one the fast loop. They must agree.
  for (const std::uint64_t seed : kSeeds) {
    SimConfig crashes = base(5, seed);
    crashes.crash_at.assign(5, std::nullopt);
    crashes.crash_at[1] = 40;
    crashes.crash_at[3] = 200;
    SimConfig lossy = base(4, seed);
    lossy.link_type = LinkType::kFairLossy;
    lossy.drop_prob = 0.4;
    for (const SimConfig& cfg : {base(4, seed), crashes, lossy}) {
      const Snapshot general = run_mixed_workload(cfg, SimBackend::kCoroutine, true);
      const Snapshot fast = run_mixed_workload(cfg, SimBackend::kCoroutine, false);
      ASSERT_FALSE(general.trace.empty());
      EXPECT_EQ(general.metrics, fast.metrics) << "seed " << seed;
      EXPECT_EQ(general.regs, fast.regs) << "seed " << seed;
      EXPECT_EQ(general.sums, fast.sums) << "seed " << seed;
      EXPECT_EQ(general.now, fast.now) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: whole algorithm trials decide identically on both backends.
// ---------------------------------------------------------------------------

void expect_identical(const core::ConsensusTrialResult& a,
                      const core::ConsensusTrialResult& b) {
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.validity, b.validity);
  EXPECT_EQ(a.all_correct_decided, b.all_correct_decided);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.max_decided_round, b.max_decided_round);
  EXPECT_EQ(a.steps_used, b.steps_used);
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.reg_ops, b.reg_ops);
  EXPECT_EQ(a.crashed, b.crashed);
}

TEST(BackendDiff, ConsensusTrialsDecideIdentically) {
  for (const std::uint64_t seed : kSeeds) {
    for (const core::Algo algo : {core::Algo::kHbo, core::Algo::kBenOr}) {
      core::ConsensusTrialConfig cfg;
      cfg.gsm = graph::complete(6);
      cfg.seed = seed;
      cfg.algo = algo;
      cfg.f = 2;
      cfg.budget = 200'000;

      core::ConsensusTrialConfig coro = cfg;
      coro.backend = SimBackend::kCoroutine;
      core::ConsensusTrialConfig thrd = cfg;
      thrd.backend = SimBackend::kThread;

      const auto a = core::run_consensus_trial(coro);
      const auto b = core::run_consensus_trial(thrd);
      expect_identical(a, b);
      EXPECT_TRUE(a.agreement);
      EXPECT_TRUE(a.validity);
    }
  }
}

TEST(BackendDiff, OmegaTrialStabilizesIdentically) {
  core::OmegaTrialConfig cfg;
  cfg.n = 5;
  cfg.seed = 7;
  cfg.algo = core::OmegaAlgo::kMnmFairLossy;
  cfg.drop_prob = 0.3;
  cfg.budget = 120'000;
  cfg.check_every = 200;
  cfg.stable_checks = 5;

  core::OmegaTrialConfig coro = cfg;
  coro.backend = SimBackend::kCoroutine;
  core::OmegaTrialConfig thrd = cfg;
  thrd.backend = SimBackend::kThread;

  const auto a = core::run_omega_trial(coro);
  const auto b = core::run_omega_trial(thrd);
  EXPECT_EQ(a.stabilized, b.stabilized);
  EXPECT_EQ(a.final_leader, b.final_leader);
  EXPECT_EQ(a.stabilization_step, b.stabilization_step);
  EXPECT_EQ(a.failover_step, b.failover_step);
  EXPECT_EQ(a.steady_msgs_per_1k, b.steady_msgs_per_1k);
  EXPECT_EQ(a.leader_writes_per_1k, b.leader_writes_per_1k);
  EXPECT_EQ(a.leader_reads_per_1k, b.leader_reads_per_1k);
}

}  // namespace
}  // namespace mm::runtime
