// Helpers for tests that pin the per-thread cache of fiber stack mappings:
// which stacks fibers run on, and whether those mappings are still mapped
// (parked in the cache) after the fibers died.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fiber.hpp"

namespace mm::test_util {

/// Start of the mapping of this process that contains `addr`, or 0.
inline std::uintptr_t mapping_start(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream in{"/proc/self/maps"};
  for (std::string line; std::getline(in, line);) {
    const std::size_t dash = line.find('-');
    const std::uintptr_t lo = std::stoull(line.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(line.substr(dash + 1), nullptr, 16);
    if (lo <= a && a < hi) return lo;
  }
  return 0;
}

/// Run `count` default-stack fibers, all alive at once, to completion on
/// this thread and destroy them; returns the frame address each one saw,
/// sorted. The fibers take their stacks from this thread's cache first.
inline std::vector<const void*> run_probe_fibers(std::size_t count) {
  std::vector<const void*> frames(count);
  std::vector<std::unique_ptr<runtime::Fiber>> fibers;
  fibers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fibers.push_back(std::make_unique<runtime::Fiber>(
        [&frames, i] { frames[i] = __builtin_frame_address(0); }));
  }
  for (auto& f : fibers) f->resume();
  fibers.clear();
  std::sort(frames.begin(), frames.end());
  return frames;
}

/// How many of `addrs` still lie inside some mapping of this process.
inline std::size_t count_mapped(const std::vector<const void*>& addrs) {
  return static_cast<std::size_t>(std::count_if(
      addrs.begin(), addrs.end(), [](const void* a) { return mapping_start(a) != 0; }));
}

}  // namespace mm::test_util
