#include "stats/kmv.h"

#include <algorithm>

namespace dyno {

KmvSynopsis::KmvSynopsis(int k) : k_(k) { hashes_.reserve(2 * k); }

void KmvSynopsis::Add(const Value& v) { AddHash(v.Hash()); }

void KmvSynopsis::AddHash(uint64_t h) {
  hashes_.push_back(h);
  compacted_ = false;
  if (hashes_.size() >= static_cast<size_t>(2 * k_)) Compact();
}

void KmvSynopsis::Compact() const {
  std::sort(hashes_.begin(), hashes_.end());
  hashes_.erase(std::unique(hashes_.begin(), hashes_.end()), hashes_.end());
  if (hashes_.size() > static_cast<size_t>(k_)) {
    hashes_.resize(k_);
  }
  compacted_ = true;
}

void KmvSynopsis::EnsureCompacted() const {
  if (!compacted_) Compact();
}

double KmvSynopsis::Estimate() const {
  EnsureCompacted();
  if (hashes_.empty()) return 0.0;
  if (hashes_.size() < static_cast<size_t>(k_)) {
    // Fewer than k distincts observed: the synopsis is exact.
    return static_cast<double>(hashes_.size());
  }
  double hk = static_cast<double>(hashes_.back());
  if (hk <= 0.0) return static_cast<double>(hashes_.size());
  // M = 2^64; (k-1) * M / h_k.
  constexpr double kDomain = 18446744073709551616.0;  // 2^64
  return (static_cast<double>(k_) - 1.0) * kDomain / hk;
}

}  // namespace dyno
