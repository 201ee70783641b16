// perfbench_raw — runs one benchmark workload (or, with --trace 1, the
// per-layer ledger) and prints its raw measurements as one JSON object.
//
// The metric math (rates, percentiles, fractions, residuals) lives in
// perfbench/metrics.py; this binary only times calls into the program's
// public API, checks the program's outputs, and reports what it saw.
//
//   perfbench_raw --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: trial_sweep and chaos (see BENCHMARK.json and
// perfbench/claims.json for why each exists). The DPOR corpus and the
// 2048-process ring run in the ledger only; claims.json says why.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/instances.hpp"
#include "common/rng.hpp"
#include "core/hbo.hpp"
#include "core/tags.hpp"
#include "core/trial.hpp"
#include "exec/parallel_map.hpp"
#include "fault/chaos.hpp"
#include "fault/json.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mm::Pid;
using mm::Rng;
using mm::Step;
namespace core = mm::core;
namespace exec = mm::exec;
namespace fault = mm::fault;
namespace check = mm::check;
namespace graph = mm::graph;
namespace rt = mm::runtime;

// ---------------------------------------------------------------------------
// Raw output, built with the program's own JSON type (doubles print with
// all 17 significant digits).
// ---------------------------------------------------------------------------

using Json = fault::Json;

Json num(double v) { return Json::number(v); }
Json num(std::uint64_t v) { return Json::uint(v); }
Json num(std::int64_t v) { return Json::number(static_cast<double>(v)); }  // exact below 2^53

template <typename T>
Json list(const std::vector<T>& v) {
  Json a = Json::array();
  for (const T& x : v) {
    if constexpr (std::is_floating_point_v<T>) a.push(num(static_cast<double>(x)));
    else if constexpr (std::is_signed_v<T>) a.push(num(static_cast<std::int64_t>(x)));
    else a.push(num(static_cast<std::uint64_t>(x)));
  }
  return a;
}

// ---------------------------------------------------------------------------
// Shared helpers: resource usage, checks, setup timing.
// ---------------------------------------------------------------------------

struct Usage {
  std::int64_t utime_ns = 0;
  std::int64_t stime_ns = 0;
  std::int64_t minflt = 0;
  std::int64_t wall_ns = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.utime_ns = ru.ru_utime.tv_sec * 1'000'000'000LL + ru.ru_utime.tv_usec * 1'000LL;
  u.stime_ns = ru.ru_stime.tv_sec * 1'000'000'000LL + ru.ru_stime.tv_usec * 1'000LL;
  u.minflt = ru.ru_minflt;
  u.wall_ns = now_ns();
  return u;
}

Json usage_json(const Usage& u) {
  Json o = Json::object();
  o.set("utime_ns", num(u.utime_ns));
  o.set("stime_ns", num(u.stime_ns));
  o.set("minflt", num(u.minflt));
  o.set("wall_ns", num(u.wall_ns));
  return o;
}

/// High-water resident memory of this process image (VmHWM). Unlike
/// getrusage's ru_maxrss, it does not carry over the resident size the
/// parent had when it forked this process.
std::int64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error{"cannot read /proc/self/status"};
  char line[256];
  std::int64_t kib = -1;
  while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
  std::fclose(f);
  if (kib < 0) throw std::runtime_error{"no VmHWM in /proc/self/status"};
  return kib;
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

struct Checks {
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> entries;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(const std::string& name, bool ok, const std::string& detail) {
    entries.push_back({name, ok, detail});
  }
  void write(Json& out) const {
    out.set("attempted", num(attempted));
    out.set("failed", num(failed));
    Json a = Json::array();
    for (const auto& e : entries) {
      Json o = Json::object();
      o.set("name", Json::str(e.name));
      o.set("ok", Json::boolean(e.ok));
      o.set("detail", Json::str(e.detail));
      a.push(std::move(o));
    }
    out.set("checks", std::move(a));
  }
};

/// One timed pass: per-batch wall times and item counts, per-item wall and
/// thread CPU times, and resource usage around each batch.
struct Pass {
  std::size_t workers = 1;
  std::vector<std::int64_t> batch_wall_ns;
  std::vector<std::uint64_t> batch_items;
  std::vector<std::int64_t> item_ns;
  std::vector<std::int64_t> item_cpu_ns;
  std::vector<std::pair<Usage, Usage>> usage;  // (before, after) each batch
  std::vector<SpanTotals> spans;  // empty unless traced

  /// Times one batch of `items` operations run by `body`.
  template <typename Body>
  void batch(std::uint64_t items, Body&& body) {
    const Usage before = usage_now();
    body();
    const Usage after = usage_now();
    batch_wall_ns.push_back(after.wall_ns - before.wall_ns);
    batch_items.push_back(items);
    usage.emplace_back(before, after);
  }

  void append(const Pass& o) {
    workers = o.workers;
    batch_wall_ns.insert(batch_wall_ns.end(), o.batch_wall_ns.begin(), o.batch_wall_ns.end());
    batch_items.insert(batch_items.end(), o.batch_items.begin(), o.batch_items.end());
    item_ns.insert(item_ns.end(), o.item_ns.begin(), o.item_ns.end());
    item_cpu_ns.insert(item_cpu_ns.end(), o.item_cpu_ns.begin(), o.item_cpu_ns.end());
    usage.insert(usage.end(), o.usage.begin(), o.usage.end());
    spans.resize(std::max(spans.size(), o.spans.size()));
    for (std::size_t i = 0; i < o.spans.size(); ++i) {
      spans[i].count += o.spans[i].count;
      spans[i].total_ns += o.spans[i].total_ns;
      spans[i].self_ns += o.spans[i].self_ns;
    }
  }

  [[nodiscard]] Json to_json() const {
    Json o = Json::object();
    o.set("workers", num(std::uint64_t{workers}));
    o.set("batch_wall_ns", list(batch_wall_ns));
    o.set("batch_items", list(batch_items));
    o.set("item_ns", list(item_ns));
    o.set("item_cpu_ns", list(item_cpu_ns));
    Json u = Json::array();
    for (const auto& [before, after] : usage) {
      Json pair = Json::object();
      pair.set("before", usage_json(before));
      pair.set("after", usage_json(after));
      u.push(std::move(pair));
    }
    o.set("usage", std::move(u));
    if (!spans.empty()) {
      Json sp = Json::object();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].count == 0) continue;
        Json t = Json::object();
        t.set("count", num(spans[i].count));
        t.set("total_ns", num(spans[i].total_ns));
        t.set("self_ns", num(spans[i].self_ns));
        sp.set(span_label(static_cast<SpanName>(i)), std::move(t));
      }
      o.set("spans", std::move(sp));
    }
    return o;
  }
};

constexpr int kSetupReps = 9;

/// Set-up, timed kSetupReps times over the run: once before the passes,
/// which need it, and again each time another share of the run has gone by
/// (tick() between timed batches; finish() tops up at the end). A set-up
/// takes tens of milliseconds, so reps timed back to back would all see the
/// host's load of one moment; spread out, their median sees the run's.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> setup, double seconds)
      : setup_(std::move(setup)),
        start_(now_ns()),
        every_ns_(static_cast<std::int64_t>(seconds * 1e9) / kSetupReps) {
    once();
  }
  void tick() {
    while (times_.size() < kSetupReps &&
           now_ns() - start_ >= static_cast<std::int64_t>(times_.size()) * every_ns_)
      once();
  }
  std::vector<double> finish() {
    while (times_.size() < kSetupReps) once();
    return times_;
  }

 private:
  void once() {
    const std::int64_t t0 = now_ns();
    setup_();
    times_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::function<void()> setup_;
  std::int64_t start_;
  std::int64_t every_ns_;
  std::vector<double> times_;
};

/// The result fields every workload reports: set-up times and its passes.
void put_passes(Json& out, const std::vector<double>& setups,
                std::initializer_list<std::pair<const char*, const Pass*>> passes) {
  out.set("setup_s", list(setups));
  Json p = Json::object();
  for (const auto& [name, pass] : passes) p.set(name, pass->to_json());
  out.set("passes", std::move(p));
}

/// Items in a latency sample that must exist for a p99 with ten beyond it.
constexpr std::uint64_t kMinItems = 1'100;

/// Closed-loop batch of items 0..count-1 at `jobs` workers through
/// exec::parallel_map: a worker takes its next index only after its previous
/// item returned. `item(i)` returns a digest of item i's result.
template <typename Digest, typename Item>
Pass closed_loop(std::uint64_t count, std::size_t jobs, SpanName span_name, Item&& item,
                 std::vector<Digest>* digests) {
  Pass pass;
  pass.workers = jobs;
  std::vector<std::int64_t> lat(count, 0);
  std::vector<std::int64_t> cpu(count, 0);
  std::vector<Digest> out;
  pass.batch(count, [&] {
    Scope map_span{SpanName::kParallelMap};
    const std::uint64_t parent = Tracer::get().on() ? Tracer::get().current() : 0;
    out = exec::parallel_map(
        count,
        [&](std::uint64_t i) {
          const std::int64_t c0 = thread_cpu_ns();
          const std::int64_t s0 = now_ns();
          Digest d;
          {
            Scope span{span_name, parent};
            d = item(i);
          }
          lat[i] = now_ns() - s0;
          cpu[i] = thread_cpu_ns() - c0;
          return d;
        },
        jobs);
  });
  pass.item_ns = std::move(lat);
  pass.item_cpu_ns = std::move(cpu);
  if (digests != nullptr) *digests = std::move(out);
  return pass;
}

// ---------------------------------------------------------------------------
// trial_sweep: HBO consensus trials through parallel_map.
// ---------------------------------------------------------------------------

core::ConsensusTrialConfig hbo_config() {
  core::ConsensusTrialConfig cfg;
  cfg.gsm = graph::chordal_ring(8);
  cfg.algo = core::Algo::kHbo;
  cfg.impl = mm::shm::ConsensusImpl::kCas;
  cfg.f = 2;
  cfg.crash_pick = core::CrashPick::kRandom;
  cfg.min_delay = 1;
  cfg.max_delay = 8;
  return cfg;
}

/// The fields of a trial result that a correct run reproduces exactly.
struct TrialDigest {
  bool ok = false;  // ran without throwing and kept agreement + validity
  bool decided = false;
  std::int64_t decision = -1;
  std::uint64_t round = 0;
  Step steps = 0;
  std::uint64_t msgs = 0;
  std::uint64_t reg_ops = 0;
  friend bool operator==(const TrialDigest&, const TrialDigest&) = default;
};

std::uint64_t trial_seed_base(std::uint64_t seed) { return 1 + seed * 10'000'000ULL; }

Pass run_trials(const core::ConsensusTrialConfig& base, std::uint64_t seed0, std::size_t jobs,
                std::uint64_t count, std::vector<TrialDigest>* digests) {
  return closed_loop(
      count, jobs, SpanName::kConsensusTrial,
      [&](std::uint64_t i) {
        core::ConsensusTrialConfig cfg = base;
        cfg.seed = seed0 + i;
        TrialDigest d;
        try {
          const core::ConsensusTrialResult r = core::run_consensus_trial(cfg);
          d.ok = r.agreement && r.validity;
          d.decided = r.all_correct_decided;
          d.decision = r.decision.has_value() ? static_cast<std::int64_t>(*r.decision) : -1;
          d.round = r.max_decided_round;
          d.steps = r.steps_used;
          d.msgs = r.msgs_sent;
          d.reg_ops = r.reg_ops;
        } catch (const std::exception&) {
          d.ok = false;
        }
        return d;
      },
      digests);
}

/// Same-range comparison of two passes: every trial must keep safety and
/// reproduce bit-for-bit at either worker count.
void check_trials(Checks& ck, const std::vector<TrialDigest>& j1,
                  const std::vector<TrialDigest>& full) {
  std::uint64_t unsafe = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const bool bad_safety = !full[i].ok || (i < j1.size() && !j1[i].ok);
    const bool bad_match = i >= j1.size() || !(j1[i] == full[i]);
    unsafe += bad_safety ? 1 : 0;
    mismatched += bad_match ? 1 : 0;
    ck.attempted += 2;
    ck.failed += (bad_safety || bad_match) ? 2 : 0;
  }
  ck.expect("trial_sweep.safety", unsafe == 0, std::to_string(unsafe) + " unsafe or throwing trials");
  ck.expect("trial_sweep.j1_equals_nproc", mismatched == 0 && j1.size() == full.size(),
            std::to_string(mismatched) + " trials differ between 1 job and nproc jobs");
}

constexpr std::uint64_t kWarmTrials = 256;
constexpr std::uint64_t kTrialBatch = 512;
constexpr std::uint64_t kMinPairs = (kMinItems + kTrialBatch - 1) / kTrialBatch;

/// Alternates 1-job and nproc-job batches over the same seed ranges until
/// `seconds` have passed, so both passes see the same machine conditions.
/// Stores in `rss_kib`, if given, the memory high-water mark after the first
/// kMinPairs pairs: from there on it grows only with this harness's record
/// of every trial, that is with how many trials fit in the run. Calls
/// `between`, if given, after each pair.
void trial_pairs(const core::ConsensusTrialConfig& cfg, std::uint64_t seed0, double seconds,
                 Pass& j1, Pass& full, Checks& ck, std::int64_t* rss_kib = nullptr,
                 const std::function<void()>& between = {}) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<TrialDigest> d1;
  std::vector<TrialDigest> dn;
  for (std::uint64_t b = 0; b < kMinPairs || now_ns() < deadline; ++b) {
    std::vector<TrialDigest> a;
    std::vector<TrialDigest> c;
    const std::uint64_t first = seed0 + b * kTrialBatch;
    j1.append(run_trials(cfg, first, 1, kTrialBatch, &a));
    full.append(run_trials(cfg, first, nproc(), kTrialBatch, &c));
    d1.insert(d1.end(), a.begin(), a.end());
    dn.insert(dn.end(), c.begin(), c.end());
    if (b + 1 == kMinPairs && rss_kib != nullptr) *rss_kib = peak_rss_kib();
    if (between) between();
  }
  check_trials(ck, d1, dn);
}

void run_trial_sweep(std::uint64_t seed, double seconds, Json& out) {
  core::ConsensusTrialConfig cfg;
  const std::uint64_t seed0 = trial_seed_base(seed);
  SetupTimer setup{[&] {
    cfg = hbo_config();
    // Warm-up on seeds below the timed range: slab pools and the allocator
    // reach steady state before timing. It runs at 1 job, whose speed moves
    // least with the host's load; the first nproc batch then creates the
    // workers' allocator arenas, one batch of a hundred or more.
    (void)run_trials(cfg, seed0 - kWarmTrials, 1, kWarmTrials, nullptr);
  }, seconds * 0.9};
  Pass j1;
  Pass full;
  Checks ck;
  std::int64_t rss_kib = 0;
  trial_pairs(cfg, seed0, seconds * 0.9, j1, full, ck, &rss_kib, [&] { setup.tick(); });
  out.set("peak_rss_kib", num(rss_kib));
  put_passes(out, setup.finish(), {{"j1", &j1}, {"full", &full}});
  ck.write(out);
}

// ---------------------------------------------------------------------------
// chaos: randomized fault cases through parallel_map → run_chaos_case.
// ---------------------------------------------------------------------------

constexpr std::size_t kArmedRing = 4096;  // the ring tools/chaos show arms

// Termination and Ω stabilization are liveness within a step budget; a miss
// is recorded (and must repeat exactly) but is not a failed case. Only a
// thrown case or a broken safety oracle fails.
bool is_liveness(fault::Oracle o) {
  return o == fault::Oracle::kTermination || o == fault::Oracle::kOmegaStabilizes;
}

struct CaseDigest {
  bool ok = false;  // no exception, no safety violation
  int oracle = -1;  // the violated oracle, -1 if none (-2: the case threw)
  bool decided = false;
  Step steps = 0;
  std::uint64_t rules_fired = 0;
  int kind = 0;
  bool traced = false;  // the outcome carried a trace tail (armed runs only)
  /// Equal outcomes; arming the trace ring must not change any of them.
  friend bool operator==(const CaseDigest& a, const CaseDigest& b) {
    return a.ok == b.ok && a.oracle == b.oracle && a.decided == b.decided &&
           a.steps == b.steps && a.rules_fired == b.rules_fired && a.kind == b.kind;
  }
};

/// The chaos corpus: cases drawn from one fixed stream (Ω, Byzantine and
/// consensus cases with only true invariants armed), taken in a seeded
/// order. Case costs are heavy-tailed (the longest 1% take ~40% of the
/// time), so a corpus drawn afresh per seed would swing the rate by the
/// luck of the draw; the seed permutes the order instead.
class Corpus {
 public:
  Corpus(std::uint64_t stream, std::uint64_t size, std::uint64_t order_seed) {
    Rng gen{stream};
    cases_.reserve(size);
    for (std::uint64_t i = 0; i < size; ++i)
      cases_.push_back(fault::random_case(gen, /*include_omega=*/true,
                                          /*assert_termination=*/false,
                                          /*include_byzantine=*/true));
    Rng rng{order_seed * 0x9e3779b97f4a7c15ULL + 1};
    for (std::size_t i = cases_.size() - 1; i > 0; --i)
      std::swap(cases_[i], cases_[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  [[nodiscard]] const fault::ChaosCase& operator[](std::uint64_t i) const { return cases_[i]; }
  [[nodiscard]] std::uint64_t size() const { return cases_.size(); }

 private:
  std::vector<fault::ChaosCase> cases_;
};

constexpr std::uint64_t kCorpusStream = 0xc4a05;

/// Runs corpus cases [first, first + count).
Pass run_cases(const Corpus& corpus, std::uint64_t first, std::uint64_t count, std::size_t jobs,
               std::size_t trace_capacity, std::vector<CaseDigest>* digests) {
  return closed_loop(
      count, jobs, SpanName::kChaosCase,
      [&](std::uint64_t i) {
        const fault::ChaosCase& c = corpus[first + i];
        CaseDigest d;
        d.kind = static_cast<int>(c.kind);
        try {
          const fault::ChaosOutcome o = fault::run_chaos_case(c, trace_capacity);
          d.ok = !o.violation.has_value() || is_liveness(o.violation->oracle);
          d.oracle = o.violation.has_value() ? static_cast<int>(o.violation->oracle) : -1;
          d.decided = o.decided;
          d.steps = o.steps_used;
          d.rules_fired = o.rules_fired;
          d.traced = !o.trace_tail.empty();
        } catch (const std::exception&) {
          d.ok = false;
          d.oracle = -2;
        }
        return d;
      },
      digests);
}

/// Every case keeps safety and, given a reference pass, reproduces its
/// outcome exactly.
void check_cases(Checks& ck, const std::string& what, const std::vector<CaseDigest>& other,
                 const std::vector<CaseDigest>* ref = nullptr) {
  std::uint64_t unsafe = 0;
  std::uint64_t mismatched = 0;
  std::string first_bad;
  for (std::size_t i = 0; i < other.size(); ++i) {
    const bool bad_safety = !other[i].ok;
    const bool bad_match = ref != nullptr && (i >= ref->size() || !((*ref)[i] == other[i]));
    if (bad_safety && first_bad.empty())
      first_bad = " (first: case " + std::to_string(i) + ", kind " +
                  std::to_string(other[i].kind) + ", oracle " + std::to_string(other[i].oracle) + ")";
    unsafe += bad_safety ? 1 : 0;
    mismatched += bad_match ? 1 : 0;
    ++ck.attempted;
    ck.failed += (bad_safety || bad_match) ? 1 : 0;
  }
  ck.expect("chaos." + what + ".safety", unsafe == 0,
            std::to_string(unsafe) + " cases threw or broke a safety oracle" + first_bad);
  if (ref != nullptr)
    ck.expect("chaos." + what + ".matches_unarmed_nproc", mismatched == 0,
              std::to_string(mismatched) + " cases differ from the unarmed nproc pass");
}

/// The armed pass must really arm the ring: most outcomes carry a trace tail
/// (cases whose configuration is rejected before running carry none).
void check_armed(Checks& ck, const std::vector<CaseDigest>& armed) {
  std::uint64_t traced = 0;
  for (const CaseDigest& d : armed) traced += d.traced ? 1 : 0;
  ck.expect("chaos.armed.trace_tails", traced * 10 >= armed.size() * 9,
            std::to_string(traced) + " of " + std::to_string(armed.size()) +
                " armed cases returned a trace tail");
}

void put_case_kinds(Json& out, const std::vector<CaseDigest>& d) {
  std::vector<std::int64_t> kinds;
  std::uint64_t missed = 0;
  kinds.reserve(d.size());
  for (const auto& c : d) {
    kinds.push_back(c.kind);
    missed += c.oracle >= 0 ? 1 : 0;
  }
  out.set("case_kinds", list(kinds));
  out.set("liveness_missed", num(missed));
}

constexpr std::uint64_t kWarmCases = 128;
constexpr std::uint64_t kJ1Cases = 128;

/// Corpus size for a run of `seconds`: about 0.4 s of nproc cases per
/// second on a 4-core box, and enough for a p99 with ten beyond it.
std::uint64_t corpus_size(double seconds) {
  return std::max<std::uint64_t>(kMinItems, static_cast<std::uint64_t>(seconds * 256.0));
}

void run_chaos(std::uint64_t seed, double seconds, Json& out) {
  std::unique_ptr<Corpus> corpus;
  // Corpus generation plus a warm-up on a fixed stream of other cases. A
  // rep between the passes rebuilds the same corpus.
  SetupTimer setup{[&] {
    corpus.reset();
    corpus = std::make_unique<Corpus>(kCorpusStream, corpus_size(seconds), seed);
    const Corpus warm{kCorpusStream + 1, kWarmCases, 0};
    (void)run_cases(warm, 0, warm.size(), nproc(), 0, nullptr);
  }, seconds};
  std::vector<CaseDigest> full_d;
  std::vector<CaseDigest> armed_d;
  std::vector<CaseDigest> j1_d;
  const Pass full = run_cases(*corpus, 0, corpus->size(), nproc(), 0, &full_d);
  setup.tick();
  const Pass armed = run_cases(*corpus, 0, corpus->size(), nproc(), kArmedRing, &armed_d);
  setup.tick();
  // The 1-job reference covers the first cases only (correctness, untimed).
  const Pass j1 = run_cases(*corpus, 0, kJ1Cases, 1, 0, &j1_d);
  Checks ck;
  check_cases(ck, "nproc", full_d);
  check_cases(ck, "armed", armed_d, &full_d);
  check_armed(ck, armed_d);
  check_cases(ck, "j1", j1_d, &full_d);
  put_passes(out, setup.finish(), {{"full", &full}, {"armed", &armed}, {"j1", &j1}});
  put_case_kinds(out, full_d);
  ck.write(out);
}

// ---------------------------------------------------------------------------
// dpor (ledger only): check_instance_dpor over the fixed clean corpus.
// ---------------------------------------------------------------------------

struct PinnedInstance {
  const char* name;
  std::uint64_t runs;
  std::size_t final_states;
};
constexpr PinnedInstance kCorpus[] = {
    {"abd4-drop", 30'910, 2'107}, {"abd4-drop2", 67'359, 4'338}, {"ac5", 45'631, 1'747}};

struct Verdict {
  std::string name;
  bool ok = false;
  std::string detail;
  std::uint64_t runs = 0;
  std::uint64_t cache_pruned = 0;
  std::uint64_t sleep_pruned = 0;
  std::int64_t wall_ns = 0;
};

/// Checks one instance, recording make/check spans when traced.
Verdict check_one(const check::Instance& inst, const PinnedInstance& pin,
                  std::optional<std::uint64_t> max_runs = std::nullopt) {
  check::Instance wrapped = inst;
  wrapped.make = [&inst]() {
    Scope span{SpanName::kInstanceMake};
    return inst.make();
  };
  wrapped.check = [&inst](const rt::SimRuntime& r) {
    Scope span{SpanName::kInstanceCheck};
    return inst.check(r);
  };
  check::DporOptions opts = inst.dpor;
  if (max_runs.has_value()) opts.max_runs = *max_runs;
  Verdict v;
  v.name = inst.name;
  const std::int64_t t0 = now_ns();
  check::InstanceVerdict iv;
  {
    Scope span{SpanName::kCheckDpor};
    iv = check::check_instance_dpor(wrapped, opts);
  }
  v.wall_ns = now_ns() - t0;
  const check::ExploreResult& r = iv.result;
  v.runs = r.runs;
  v.cache_pruned = r.runs_pruned_by_state_cache;
  v.sleep_pruned = r.runs_pruned_by_sleep_set;
  v.ok = !iv.violation.has_value() && r.exhaustiveness == check::Exhaustiveness::kFull &&
         r.runs == pin.runs && r.final_states.size() == pin.final_states;
  v.detail = std::string{pin.name} + ": " + std::to_string(r.runs) + " runs, " +
             std::to_string(r.final_states.size()) + " final states, " +
             check::to_string(r.exhaustiveness) +
             (iv.violation.has_value() ? ", violation: " + *iv.violation : "");
  return v;
}

std::vector<std::size_t> corpus_order(std::uint64_t seed) {
  std::vector<std::size_t> order{0, 1, 2};
  Rng rng{seed + 0xd0e5};
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<std::size_t>(rng.below(i + 1))]);
  return order;
}

const check::Instance& corpus_instance(std::size_t i) {
  const check::Instance* inst = check::find_instance(kCorpus[i].name);
  if (inst == nullptr) throw std::runtime_error{std::string{"missing instance "} + kCorpus[i].name};
  return *inst;
}

/// One sequential corpus pass: the three instances in `order`.
void corpus_pass(const std::vector<std::size_t>& order, std::vector<Verdict>& verdicts) {
  for (const std::size_t i : order) verdicts.push_back(check_one(corpus_instance(i), kCorpus[i]));
}

void check_verdicts(Checks& ck, const std::string& what, const std::vector<Verdict>& vs) {
  std::uint64_t bad = 0;
  std::string detail;
  for (const Verdict& v : vs) {
    ++ck.attempted;
    if (!v.ok) {
      ++bad;
      ++ck.failed;
      detail += v.detail + "; ";
    }
  }
  ck.expect("dpor." + what + ".verdicts", bad == 0,
            bad == 0 ? std::to_string(vs.size()) + " verdicts full, clean and pinned" : detail);
}

Json verdicts_json(const std::vector<Verdict>& vs) {
  Json a = Json::array();
  for (const Verdict& v : vs) {
    Json o = Json::object();
    o.set("name", Json::str(v.name));
    o.set("runs", num(v.runs));
    o.set("cache_pruned", num(v.cache_pruned));
    o.set("sleep_pruned", num(v.sleep_pruned));
    o.set("wall_ns", num(v.wall_ns));
    a.push(std::move(o));
  }
  return a;
}

// ---------------------------------------------------------------------------
// ring (ledger only): 2048 processes on an edgeless GSM, each step sends to
// its successor and drains. Sequential and K=4 partitions, at one fixed delay.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRingProcs = 2048;
constexpr std::uint32_t kRingParts = 4;

enum class Body : std::uint8_t { kRing, kStepOnly, kRegWrite };

std::unique_ptr<rt::SimRuntime> make_ring(std::uint64_t seed, Step delay,
                                          std::optional<std::uint32_t> parts,
                                          Body body = Body::kRing) {
  rt::SimConfig cfg;
  cfg.gsm = graph::Graph{kRingProcs};
  cfg.seed = seed;
  cfg.min_delay = delay;
  cfg.max_delay = delay;
  if (parts.has_value()) {
    cfg.partitions = *parts;
    cfg.partition_of = graph::partition_contiguous(kRingProcs, *parts).part_of;
  }
  cfg.fiber_stack_bytes = 32 * 1024;
  cfg.pooled_fiber_stacks = true;
  std::unique_ptr<rt::SimRuntime> r;
  {
    Scope span{SpanName::kRtConstruct};
    r = std::make_unique<rt::SimRuntime>(std::move(cfg));
  }
  for (std::uint32_t p = 0; p < kRingProcs; ++p) {
    Scope span{SpanName::kRtAddProcess};
    switch (body) {
      case Body::kRing:
        r->add_process([p](rt::Env& env) {
          std::vector<rt::Message> drained;
          drained.reserve(16);
          rt::Message m;
          m.kind = 1;
          for (;;) {
            m.value = env.now();
            env.send(Pid{(p + 1) % kRingProcs}, m);
            env.drain_inbox(drained);
            env.step();
          }
        });
        break;
      case Body::kStepOnly:
        r->add_process([](rt::Env& env) {
          for (;;) env.step();
        });
        break;
      case Body::kRegWrite:
        r->add_process([](rt::Env& env) {
          const mm::RegId mine = env.reg(rt::RegKey::make(core::kTagState, env.self(), 0, 0));
          for (std::uint64_t i = 0;; ++i) {
            env.write(mine, i);
            env.step();
          }
        });
        break;
    }
  }
  {
    Scope span{SpanName::kRtStart};
    r->start();
  }
  return r;
}

void destroy(std::unique_ptr<rt::SimRuntime>& r) {
  if (r == nullptr) return;
  {
    Scope span{SpanName::kRtShutdown};
    r->shutdown();
  }
  Scope span{SpanName::kRtDestroy};
  r.reset();
}

Step run_steps(rt::SimRuntime& r, Step k) {
  Scope span{SpanName::kRtRunSteps};
  return r.run_steps(k);
}

constexpr Step kRingWarmup = 200'000;
// A K=4 run_steps call pays a fixed dispatch and synchronisation cost, so
// partitioned slices stay long (the workload is long runs); sequential
// slices are a quarter of that, for more samples of the same steps.
constexpr Step kPartedSlice = 1 << 20;
constexpr Step kSeqSlice = kPartedSlice / 4;  // 128 rounds of 2048 steps
constexpr Step kProbeSteps = 1 << 20;
constexpr Step kRingVerify = 300'000;

std::uint64_t ring_seed(std::uint64_t seed) { return 77 + seed * 1'000'003ULL; }

/// The ring's correctness gate: two fresh runs with the same seed and K must
/// report identical metrics() after the same number of steps.
void check_ring_determinism(Checks& ck, std::uint64_t seed, Step delay,
                            std::optional<std::uint32_t> parts, const std::string& what) {
  auto a = make_ring(seed, delay, parts);
  auto b = make_ring(seed, delay, parts);
  const Step ra = run_steps(*a, kRingVerify);
  const Step rb = run_steps(*b, kRingVerify);
  const bool same = ra == kRingVerify && rb == kRingVerify && a->metrics() == b->metrics() &&
                    a->metrics().msgs_sent > 0;
  ck.attempted += 2;
  ck.failed += same ? 0 : 2;
  ck.expect("ring." + what + ".metrics_repeat", same,
            "msgs_sent " + std::to_string(a->metrics().msgs_sent) + " vs " +
                std::to_string(b->metrics().msgs_sent));
  destroy(a);
  destroy(b);
}

struct RingPair {
  Pass seq;
  Pass parted;
};

/// One round of equal numbers of steps on the sequential and the K=4
/// runtime; the sequential slices are timed per 2048-step round too.
RingPair ring_round(rt::SimRuntime& seq_rt, rt::SimRuntime& parted_rt) {
  RingPair out;
  out.parted.workers = kRingParts;
  for (Step slice = 0; slice < kPartedSlice; slice += kSeqSlice) {
    out.seq.batch(kSeqSlice, [&] {
      for (Step done = 0; done < kSeqSlice; done += kRingProcs) {
        const std::int64_t r0 = now_ns();
        (void)run_steps(seq_rt, kRingProcs);
        out.seq.item_ns.push_back(now_ns() - r0);
      }
    });
  }
  out.parted.batch(kPartedSlice, [&] { (void)run_steps(parted_rt, kPartedSlice); });
  return out;
}

// ---------------------------------------------------------------------------
// Ledger (--trace 1): fixed-size traced and untraced passes of every
// workload plus the layer probes. Sizes are fixed so exact counts repeat.
// ---------------------------------------------------------------------------

template <typename F>
Pass traced(F&& f) {
  Tracer::get().set_on(true);
  Pass p = f();
  Tracer::get().set_on(false);
  p.spans = Tracer::get().summarize_and_clear();
  return p;
}

Json ledger_trials(std::uint64_t seed, Checks& ck) {
  const core::ConsensusTrialConfig cfg = hbo_config();
  const std::uint64_t seed0 = trial_seed_base(seed);
  (void)run_trials(cfg, seed0 - kWarmTrials, nproc(), kWarmTrials, nullptr);
  Pass j1;
  Pass full;
  trial_pairs(cfg, seed0, 0.0, j1, full, ck);
  // Untraced and traced nproc batches alternate on the same seeds, so the
  // span overhead compares like with like; the traced batches also give the
  // exact step count over a fixed seed range.
  Pass plain;
  Pass with_spans;
  std::vector<std::int64_t> steps;
  for (std::uint64_t b = 0; b < 4; ++b) {
    const std::uint64_t first = seed0 + b * kTrialBatch;
    plain.append(run_trials(cfg, first, nproc(), kTrialBatch, nullptr));
    std::vector<TrialDigest> d;
    with_spans.append(traced([&] { return run_trials(cfg, first, nproc(), kTrialBatch, &d); }));
    for (const TrialDigest& t : d) steps.push_back(static_cast<std::int64_t>(t.steps));
  }
  Json o = Json::object();
  o.set("j1", j1.to_json());
  o.set("full", full.to_json());
  o.set("full_plain", plain.to_json());
  o.set("full_traced", with_spans.to_json());
  o.set("steps", list(steps));
  return o;
}

/// The trial_sweep HBO configuration built through SimRuntime's public API,
/// phase by phase (what run_consensus_trial does, minus result bookkeeping).
Json ledger_lifecycle(std::uint64_t seed) {
  const core::ConsensusTrialConfig base = hbo_config();
  constexpr int kIters = 2'000;
  std::vector<std::int64_t> construct;
  std::vector<std::int64_t> run;
  std::vector<std::int64_t> teardown;
  std::vector<std::int64_t> steps;
  auto once = [&](std::uint64_t s, bool keep) {
    Rng rng{s};
    const std::size_t n = base.gsm.size();
    rt::SimConfig sim;
    sim.gsm = base.gsm;
    sim.seed = s;
    sim.link_type = rt::LinkType::kReliable;
    sim.min_delay = base.min_delay;
    sim.max_delay = base.max_delay;
    sim.crash_at.assign(n, std::nullopt);
    for (std::size_t k = 0; k < base.f; ++k)
      sim.crash_at[static_cast<std::size_t>(rng.below(n))] = rng.below(base.crash_window + 1);
    std::vector<std::unique_ptr<core::HboConsensus>> algs;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<rt::SimRuntime> r;
    {
      Scope span{SpanName::kRtConstruct};
      r = std::make_unique<rt::SimRuntime>(std::move(sim));
    }
    for (std::size_t p = 0; p < n; ++p) {
      core::HboConsensus::Config hc;
      hc.gsm = &base.gsm;
      hc.impl = base.impl;
      hc.max_rounds = base.max_rounds;
      algs.push_back(std::make_unique<core::HboConsensus>(hc, static_cast<std::uint32_t>(rng.below(2))));
      Scope span{SpanName::kRtAddProcess};
      r->add_process([alg = algs.back().get()](rt::Env& env) { alg->run(env); });
    }
    const std::int64_t t1 = now_ns();
    {
      Scope span{SpanName::kRtStart};
      r->start();
    }
    {
      Scope span{SpanName::kRtRunUntilAllDone};
      (void)r->run_until_all_done(base.budget);
    }
    const std::int64_t t2 = now_ns();
    const Step used = r->now();
    destroy(r);
    const std::int64_t t3 = now_ns();
    if (keep) {
      construct.push_back(t1 - t0);
      run.push_back(t2 - t1);
      teardown.push_back(t3 - t2);
      steps.push_back(static_cast<std::int64_t>(used));
    }
  };
  const std::uint64_t s0 = trial_seed_base(seed);
  for (int i = 0; i < 200; ++i) once(s0 + static_cast<std::uint64_t>(i), false);  // warm-up
  const Pass spans = traced([&] {
    for (int i = 0; i < kIters; ++i) once(s0 + static_cast<std::uint64_t>(i), true);
    return Pass{};
  });
  Json o = Json::object();
  o.set("construct_ns", list(construct));
  o.set("run_ns", list(run));
  o.set("teardown_ns", list(teardown));
  o.set("steps", list(steps));
  o.set("traced", spans.to_json());
  return o;
}

Json ledger_chaos(std::uint64_t seed, Checks& ck) {
  const Corpus warm{kCorpusStream + 1, kWarmCases, 0};
  (void)run_cases(warm, 0, warm.size(), nproc(), 0, nullptr);
  // Unarmed, armed and traced runs of the same cases alternate in thirds of
  // the corpus, so their per-case times are compared under like conditions.
  constexpr std::uint64_t kPart = 200;
  const Corpus corpus{kCorpusStream, 3 * kPart, seed};
  std::vector<CaseDigest> full_d;
  std::vector<CaseDigest> armed_d;
  Pass full;
  Pass armed;
  Pass full_t;
  for (std::uint64_t first = 0; first < corpus.size(); first += kPart) {
    std::vector<CaseDigest> a;
    std::vector<CaseDigest> b;
    full.append(run_cases(corpus, first, kPart, nproc(), 0, &a));
    armed.append(run_cases(corpus, first, kPart, nproc(), kArmedRing, &b));
    full_t.append(traced([&] { return run_cases(corpus, first, kPart, nproc(), 0, nullptr); }));
    full_d.insert(full_d.end(), a.begin(), a.end());
    armed_d.insert(armed_d.end(), b.begin(), b.end());
  }
  check_cases(ck, "armed", armed_d, &full_d);
  check_armed(ck, armed_d);
  std::vector<std::int64_t> fired;
  std::vector<std::int64_t> decided;
  for (const CaseDigest& d : full_d) {
    fired.push_back(static_cast<std::int64_t>(d.rules_fired));
    decided.push_back(d.decided ? 1 : 0);
  }
  Json o = Json::object();
  o.set("full", full.to_json());
  o.set("armed", armed.to_json());
  o.set("full_traced", full_t.to_json());
  put_case_kinds(o, full_d);
  o.set("rules_fired", list(fired));
  o.set("decided", list(decided));
  return o;
}

Json ledger_dpor(std::uint64_t seed, Checks& ck) {
  const auto order = corpus_order(seed);
  for (const std::size_t i : order) (void)check_one(corpus_instance(i), kCorpus[i], 200);
  // Span overhead on the smallest instance; the traced corpus gives the rest.
  Pass small;
  std::vector<Verdict> small_v;
  small.batch(kCorpus[0].runs,
              [&] { small_v.push_back(check_one(corpus_instance(0), kCorpus[0])); });
  std::vector<Verdict> traced_v;
  const Pass corpus = traced([&] {
    Pass p;
    p.batch(order.size(), [&] { corpus_pass(order, traced_v); });
    return p;
  });
  check_verdicts(ck, "small", small_v);
  check_verdicts(ck, "traced", traced_v);
  Json o = Json::object();
  o.set("small", small.to_json());
  o.set("traced", corpus.to_json());
  o.set("small_verdicts", verdicts_json(small_v));
  o.set("verdicts", verdicts_json(traced_v));
  return o;
}

/// ns per scheduler step of a 2048-process runtime running `body`.
double probe_step_ns(std::uint64_t seed, Body body, Step delay) {
  auto r = make_ring(seed, delay, std::nullopt, body);
  (void)run_steps(*r, kRingWarmup);
  std::vector<double> per;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    (void)run_steps(*r, kProbeSteps);
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(kProbeSteps));
  }
  destroy(r);
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

/// ns per Fiber::resume + yield pair over 2048 pooled 32 KiB fibers resumed
/// round robin (the scheduler's switch pattern, without the scheduler).
double probe_fiber_ns() {
  rt::FiberStackPool pool{32 * 1024};
  bool stop = false;
  std::vector<std::unique_ptr<rt::Fiber>> fibers(kRingProcs);
  std::vector<void*> stacks;
  for (std::uint32_t i = 0; i < kRingProcs; ++i) {
    stacks.push_back(pool.acquire());
    fibers[i] = std::make_unique<rt::Fiber>(
        [&stop, &fibers, i] {
          while (!stop) fibers[i]->yield();
        },
        stacks.back(), pool.stack_bytes());
    fibers[i]->resume();
  }
  constexpr int kRounds = 512;
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < kRounds; ++round)
      for (auto& f : fibers) f->resume();
    per.push_back(static_cast<double>(now_ns() - t0) / (kRounds * static_cast<double>(kRingProcs)));
  }
  // A few rounds with a span per resume, recorded when the ledger traces.
  for (int round = 0; round < 4; ++round)
    for (auto& f : fibers) {
      Scope span{SpanName::kFiberResume};
      f->resume();
    }
  stop = true;
  for (auto& f : fibers)
    while (!f->done()) f->resume();
  fibers.clear();
  for (void* s : stacks) pool.release(s);
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

Json ledger_ring(std::uint64_t seed, Checks& ck) {
  const std::uint64_t s = ring_seed(seed);
  double fiber_ns = 0.0;
  const Pass fiber_spans = traced([&] {
    fiber_ns = probe_fiber_ns();
    return Pass{};
  });
  const double sched_ns = probe_step_ns(s, Body::kStepOnly, 64);
  const double write_ns = probe_step_ns(s, Body::kRegWrite, 64);
  const double ring_ns = probe_step_ns(s, Body::kRing, 64);
  Json o = Json::object();
  o.set("fiber_switch_ns", num(fiber_ns));
  o.set("sched_step_ns", num(sched_ns));
  o.set("reg_write_step_ns", num(write_ns));
  o.set("ring_step_ns", num(ring_ns));
  o.set("fiber_traced", fiber_spans.to_json());
  for (const Step delay : {Step{64}, Step{1}}) {
    const std::string tag = delay == 64 ? "loose" : "tight";
    auto seq_rt = make_ring(s, delay, std::nullopt);
    auto parted_rt = make_ring(s, delay, kRingParts);
    (void)run_steps(*seq_rt, kRingWarmup);
    (void)run_steps(*parted_rt, kRingWarmup);
    // Untraced and traced rounds alternate on the same runtimes.
    RingPair plain;
    RingPair with_spans;
    for (int round = 0; round < 3; ++round) {
      const RingPair a = ring_round(*seq_rt, *parted_rt);
      Tracer::get().set_on(true);
      const RingPair b = ring_round(*seq_rt, *parted_rt);
      Tracer::get().set_on(false);
      plain.seq.append(a.seq);
      plain.parted.append(a.parted);
      with_spans.seq.append(b.seq);
      with_spans.parted.append(b.parted);
    }
    with_spans.seq.spans = Tracer::get().summarize_and_clear();
    destroy(seq_rt);
    destroy(parted_rt);
    // CMB counters over a fixed window of a fresh K=4 run (exact counts).
    auto cmb = make_ring(s, delay, kRingParts);
    (void)run_steps(*cmb, kRingWarmup);
    cmb->set_stall_profiling(true);
    const std::uint64_t cross0 = cmb->cross_partition_msgs();
    (void)run_steps(*cmb, kProbeSteps);
    const rt::StallProfile sp = cmb->stall_profile();
    const std::uint64_t cross = cmb->cross_partition_msgs() - cross0;
    destroy(cmb);
    check_ring_determinism(ck, s, delay, std::nullopt, "seq_" + tag);
    check_ring_determinism(ck, s, delay, kRingParts, "k4_" + tag);
    Json cfg = Json::object();
    cfg.set("seq", plain.seq.to_json());
    cfg.set("parted", plain.parted.to_json());
    cfg.set("traced_seq", with_spans.seq.to_json());
    cfg.set("traced_parted", with_spans.parted.to_json());
    Json c = Json::object();
    c.set("steps", num(kProbeSteps));
    c.set("cross_msgs", num(cross));
    c.set("horizon_waits", num(sp.horizon_waits));
    c.set("horizon_stall_ns", num(sp.horizon_stall_ns));
    c.set("null_scan_rounds", num(sp.null_scan_rounds));
    c.set("handoff_locks", num(sp.handoff_locks));
    c.set("handoff_contended", num(sp.handoff_contended));
    c.set("worker_busy_ns", num(sp.worker_busy_ns));
    c.set("worker_wall_ns", num(sp.worker_wall_ns));
    cfg.set("cmb", std::move(c));
    o.set(tag, std::move(cfg));
  }
  return o;
}

void run_ledger(std::uint64_t seed, Json& out) {
  Checks ck;
  Json l = Json::object();
  l.set("trial_sweep", ledger_trials(seed, ck));
  l.set("lifecycle", ledger_lifecycle(seed));
  l.set("chaos", ledger_chaos(seed, ck));
  l.set("dpor", ledger_dpor(seed, ck));
  l.set("ring", ledger_ring(seed, ck));
  out.set("ledger", std::move(l));
  ck.write(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_raw --workload trial_sweep|chaos "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v, nullptr);
    else if (a == "--trace") trace = std::atoi(v);
    else return usage();
  }
  Json out = Json::object();
  out.set("workload", Json::str(workload));
  out.set("seed", num(seed));
  out.set("trace", num(std::uint64_t{trace != 0}));
  out.set("nproc", num(std::uint64_t{nproc()}));
  try {
    if (trace != 0) run_ledger(seed, out);
    else if (workload == "trial_sweep") run_trial_sweep(seed, seconds, out);
    else if (workload == "chaos") run_chaos(seed, seconds, out);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_raw: %s\n", e.what());
    return 1;
  }
  if (out.find("peak_rss_kib") == nullptr) out.set("peak_rss_kib", num(peak_rss_kib()));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
