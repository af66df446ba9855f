#include "stats/kmv.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"

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

void KmvSynopsis::Merge(const KmvSynopsis& other) {
  hashes_.insert(hashes_.end(), other.hashes_.begin(), other.hashes_.end());
  compacted_ = false;
  // Same amortization as AddHash: defer the sort until the buffer doubles
  // or a reader needs a compact view.
  if (hashes_.size() >= static_cast<size_t>(2 * k_)) Compact();
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

std::string KmvSynopsis::Serialize() const {
  EnsureCompacted();
  std::string out;
  out.resize(8 + 8 * hashes_.size());
  uint64_t k64 = static_cast<uint64_t>(k_);
  std::memcpy(out.data(), &k64, 8);
  if (!hashes_.empty()) {
    std::memcpy(out.data() + 8, hashes_.data(), 8 * hashes_.size());
  }
  return out;
}

Result<KmvSynopsis> KmvSynopsis::Deserialize(const std::string& data) {
  if (data.size() < 8) {
    return Status::InvalidArgument(
        StrFormat("KMV synopsis too short: %zu bytes", data.size()));
  }
  if ((data.size() - 8) % 8 != 0) {
    return Status::InvalidArgument(
        StrFormat("KMV synopsis misaligned: %zu trailing bytes",
                  (data.size() - 8) % 8));
  }
  uint64_t k64 = 0;
  std::memcpy(&k64, data.data(), 8);
  if (k64 == 0 || k64 > static_cast<uint64_t>(kMaxK)) {
    return Status::InvalidArgument(
        StrFormat("KMV synopsis k out of range: %llu",
                  static_cast<unsigned long long>(k64)));
  }
  size_t n = (data.size() - 8) / 8;
  if (n > k64) {
    return Status::InvalidArgument(
        StrFormat("KMV synopsis holds %zu hashes but k is %llu", n,
                  static_cast<unsigned long long>(k64)));
  }
  KmvSynopsis out(static_cast<int>(k64));
  out.hashes_.resize(n);
  if (n > 0) std::memcpy(out.hashes_.data(), data.data() + 8, 8 * n);
  // Serialize() writes a sorted deduped list, but defend against payloads
  // produced elsewhere: recompact rather than trust the wire format.
  out.compacted_ = false;
  out.Compact();
  return out;
}

}  // namespace dyno
