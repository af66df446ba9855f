#include "common/random.h"

namespace dyno {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the four lanes via SplitMix64, as recommended by the xoshiro
  // authors; avoids the all-zero state for any seed.
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  // Rejection sampling to remove modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  std::vector<uint64_t> out;
  if (k >= n) {
    out.resize(n);
    for (uint64_t i = 0; i < n; ++i) out[i] = i;
    Shuffle(&out);
    return out;
  }
  // Classic reservoir sampling, then shuffle so order carries no bias.
  out.reserve(k);
  for (uint64_t i = 0; i < n; ++i) {
    if (out.size() < k) {
      out.push_back(i);
    } else {
      uint64_t j = Uniform(i + 1);
      if (j < k) out[j] = i;
    }
  }
  Shuffle(&out);
  return out;
}

}  // namespace dyno
