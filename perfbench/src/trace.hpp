// Span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public functions; nothing inside the program is instrumented.
// Each thread appends to its own buffer (no locks on the hot path), spans
// stay in memory, and summarize_and_clear() folds them into per-name totals
// and self times when a pass ends. With recording off a Scope costs one
// relaxed load.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. It leaves out time the thread spent
/// preempted and, under a hypervisor that reports steal time, time its
/// virtual CPU was not running.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

// One name per public boundary the benchmark calls into.
enum class SpanName : std::uint8_t {
  kParallelMap,         // exec::parallel_map
  kConsensusTrial,      // core::run_consensus_trial
  kChaosCase,           // fault::run_chaos_case
  kCheckDpor,           // check::check_instance_dpor
  kInstanceMake,        // check::Instance::make
  kInstanceCheck,       // check::Instance::check
  kRtConstruct,         // runtime::SimRuntime::SimRuntime
  kRtAddProcess,        // runtime::SimRuntime::add_process
  kRtStart,             // runtime::SimRuntime::start
  kRtRunSteps,          // runtime::SimRuntime::run_steps
  kRtRunUntilAllDone,   // runtime::SimRuntime::run_until_all_done
  kRtShutdown,          // runtime::SimRuntime::shutdown
  kRtDestroy,           // runtime::SimRuntime::~SimRuntime
  kFiberResume,         // runtime::Fiber::resume
  kCount,
};

inline const char* span_label(SpanName n) {
  static constexpr const char* kLabels[] = {
      "exec.parallel_map",       "core.run_consensus_trial",   "fault.run_chaos_case",
      "check.check_instance_dpor", "check.Instance.make",      "check.Instance.check",
      "runtime.SimRuntime.ctor", "runtime.SimRuntime.add_process", "runtime.SimRuntime.start",
      "runtime.SimRuntime.run_steps", "runtime.SimRuntime.run_until_all_done",
      "runtime.SimRuntime.shutdown", "runtime.SimRuntime.dtor", "runtime.Fiber.resume"};
  return kLabels[static_cast<std::size_t>(n)];
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t thread = 0;
  SpanName name = SpanName::kCount;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus children run on the same thread
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }

  struct Buffer {
    std::uint32_t thread = 0;
    std::uint64_t next_seq = 1;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // ids of the spans open on this thread
  };

  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock{mu_};
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->thread = static_cast<std::uint32_t>(buffers_.size());
    }
    return *buf;
  }

  /// Id of the innermost span open on the calling thread (0 if none); pass it
  /// as the explicit parent of spans opened on worker threads.
  std::uint64_t current() {
    Buffer& b = local();
    return b.open.empty() ? 0 : b.open.back();
  }

  /// Fold every recorded span into per-name totals and clear the buffers.
  /// Call only while no thread is recording.
  std::vector<SpanTotals> summarize_and_clear() {
    std::lock_guard<std::mutex> lock{mu_};
    std::vector<const Span*> all;
    for (const auto& b : buffers_)
      for (const Span& s : b->spans) all.push_back(&s);
    std::vector<SpanTotals> out(static_cast<std::size_t>(SpanName::kCount));
    // Ids encode (thread, seq), so a sorted id list finds each parent.
    std::vector<std::pair<std::uint64_t, const Span*>> by_id;
    by_id.reserve(all.size());
    for (const Span* s : all) by_id.emplace_back(s->id, s);
    std::sort(by_id.begin(), by_id.end());
    // Children on other threads (parallel_map items under the caller's
    // map span) overlap the parent rather than nest in it: no self time.
    std::vector<std::int64_t> child_ns(all.size(), 0);
    for (const Span* s : all) {
      if (s->parent == 0) continue;
      auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                 std::make_pair(s->parent, static_cast<const Span*>(nullptr)));
      if (it == by_id.end() || it->first != s->parent || it->second->thread != s->thread) continue;
      child_ns[static_cast<std::size_t>(it - by_id.begin())] += s->end - s->start;
    }
    for (std::size_t i = 0; i < by_id.size(); ++i) {
      const Span& s = *by_id[i].second;
      SpanTotals& t = out[static_cast<std::size_t>(s.name)];
      const std::int64_t dur = s.end - s.start;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
    for (auto& b : buffers_) {
      b->spans.clear();
      b->open.clear();
    }
    return out;
  }

 private:
  Tracer() = default;
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

inline constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

/// RAII span: records [construction, destruction) when the tracer is on.
class Scope {
 public:
  explicit Scope(SpanName name, std::uint64_t parent = kInheritParent) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    buf_ = &t.local();
    Span s;
    s.id = (static_cast<std::uint64_t>(buf_->thread) << 40) | buf_->next_seq++;
    s.parent = parent != kInheritParent ? parent : (buf_->open.empty() ? 0 : buf_->open.back());
    s.thread = buf_->thread;
    s.name = name;
    index_ = buf_->spans.size();
    buf_->open.push_back(s.id);
    s.start = now_ns();
    buf_->spans.push_back(s);
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    buf_->spans[index_].end = now_ns();
    buf_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  std::size_t index_ = 0;
};

}  // namespace perfbench
