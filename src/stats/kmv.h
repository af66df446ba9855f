#ifndef DYNO_STATS_KMV_H_
#define DYNO_STATS_KMV_H_

#include <cstdint>
#include <vector>

#include "json/value.h"

namespace dyno {

/// K-Minimum-Values distinct-value synopsis (Beyer et al., SIGMOD'07), as
/// DYNO uses it (paper §4.3): the unbiased estimator `DV = (k-1)·M / h_k`
/// gives the distinct count, where `h_k` is the k-th smallest hash over
/// domain [0, M). With k = 1024 the expected relative error is about 6%.
/// The paper's client unions per-task synopses; here one synopsis sees a
/// whole job output, through the engine's output observer.
class KmvSynopsis {
 public:
  static constexpr int kDefaultK = 1024;

  explicit KmvSynopsis(int k = kDefaultK);

  /// Inserts a value (hashed internally, duplicates collapse).
  void Add(const Value& v);

  /// Inserts a pre-hashed value.
  void AddHash(uint64_t h);

  /// Unbiased distinct-value estimate. Exact (= number of stored hashes)
  /// while fewer than k distinct values have been seen.
  double Estimate() const;

 private:
  /// Sorts, dedups, and truncates the buffer to the k smallest hashes.
  /// Logically const: the set of distinct values represented is unchanged.
  void Compact() const;
  void EnsureCompacted() const;

  int k_;
  /// Kept as an unsorted buffer that is compacted (sorted, deduped,
  /// truncated to k) when it overflows 2k — amortizing maintenance — or
  /// lazily on first read. `mutable` because compaction is a cache-like
  /// state change invisible to callers.
  mutable std::vector<uint64_t> hashes_;
  mutable bool compacted_ = true;
};

}  // namespace dyno

#endif  // DYNO_STATS_KMV_H_
