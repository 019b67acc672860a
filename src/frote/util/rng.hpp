// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit 64-bit seed
// (the paper runs all experiments with a fixed seed, §5.1). `Rng` wraps a
// xoshiro256** engine seeded via splitmix64 so that (a) runs are reproducible
// across platforms (std::mt19937_64 would also be portable, but the
// distributions are not — we implement our own), and (b) independent streams
// can be derived cheaply for per-run / per-component use.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "frote/util/error.hpp"

namespace frote {

/// splitmix64 step; used both for seeding and for deriving child seeds.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive a child seed for an independent stream (e.g. per experiment run).
inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(s);
}

/// Complete serialisable state of an Rng: the four xoshiro256** words plus
/// the Box–Muller spare. `cached_normal` is carried as raw IEEE-754 bits so
/// a checkpointed stream resumes bit-identically (core/checkpoint.hpp).
struct RngState {
  std::uint64_t words[4] = {};
  std::uint64_t cached_normal_bits = 0;
  bool cached_normal_valid = false;

  /// Exact state identity (checkpoint and workspace stream checks).
  friend bool operator==(const RngState&, const RngState&) = default;
};

/// Deterministic PRNG with the distribution helpers the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    cached_normal_valid_ = false;
  }

  /// Raw 64 random bits (xoshiro256**).
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    FROTE_CHECK(n > 0);
    // Lemire-style rejection-free bounded draw is overkill here; modulo bias
    // for n << 2^64 is negligible, but we still use the multiply-shift trick.
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  long long int_range(long long lo, long long hi) {
    FROTE_CHECK(lo <= hi);
    return lo + static_cast<long long>(
                    index(static_cast<std::size_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller (cached pair for speed).
  double normal() {
    if (cached_normal_valid_) {
      cached_normal_valid_ = false;
      return cached_normal_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586476925286766559 * u2;
    cached_normal_ = r * std::sin(theta);
    cached_normal_valid_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Draw an index from an unnormalised non-negative weight vector.
  std::size_t categorical(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample `count` distinct indices from [0, n) (partial Fisher–Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t count);

  /// Snapshot / restore the full generator state; set_state(state()) resumes
  /// the stream exactly where it was, including the cached normal spare.
  RngState state() const {
    RngState s;
    for (int i = 0; i < 4; ++i) s.words[i] = state_[i];
    std::memcpy(&s.cached_normal_bits, &cached_normal_, sizeof(double));
    s.cached_normal_valid = cached_normal_valid_;
    return s;
  }
  void set_state(const RngState& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s.words[i];
    std::memcpy(&cached_normal_, &s.cached_normal_bits, sizeof(double));
    cached_normal_valid_ = s.cached_normal_valid;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double cached_normal_ = 0.0;
  bool cached_normal_valid_ = false;
};

}  // namespace frote
