// Deterministic, seedable randomness.
//
// All randomness in the simulator flows through these generators so that a
// run is reproducible from (seed, config). We use xoshiro256++ seeded via
// splitmix64 — fast, well-distributed, and independent of the standard
// library's unspecified distributions (std::uniform_int_distribution output
// differs across implementations; ours must not).
#pragma once

#include <array>
#include <cstdint>

#include "common/assert.hpp"

namespace mm {

/// splitmix64: used to expand a 64-bit seed into generator state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ pseudo-random generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x6d26d26d26d26d2ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Debiased via rejection sampling.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    MM_ASSERT(bound > 0);
    // Lemire-style threshold rejection on the low 64 bits.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Total: the full range [0, 2^64-1]
  /// (where hi - lo + 1 wraps to 0) is one raw draw.
  [[nodiscard]] std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    MM_ASSERT(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    return span == 0 ? (*this)() : lo + below(span);
  }

  /// Fair coin: the paper's processes "toss coins" (§4).
  [[nodiscard]] bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    // 53-bit mantissa comparison keeps it deterministic across platforms.
    const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    return u < p;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Derive an independent child generator (e.g. one per process) such that
  /// streams do not overlap in practice.
  [[nodiscard]] Rng split() noexcept {
    std::uint64_t s = (*this)();
    std::uint64_t sm = s ^ 0xa0761d6478bd642fULL;
    return Rng{splitmix64(sm)};
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher-Yates shuffle driven by Rng (std::shuffle's ordering is
/// implementation-defined; this one is stable across platforms).
template <typename RandomIt>
void shuffle(RandomIt first, RandomIt last, Rng& rng) {
  const auto n = static_cast<std::uint64_t>(last - first);
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    using std::swap;
    swap(first[static_cast<std::ptrdiff_t>(i - 1)], first[static_cast<std::ptrdiff_t>(j)]);
  }
}

}  // namespace mm
