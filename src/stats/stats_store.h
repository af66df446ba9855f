#ifndef DYNO_STATS_STATS_STORE_H_
#define DYNO_STATS_STATS_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "stats/table_stats.h"

namespace dyno {

/// The statistics metastore (paper §4.1). Entries are keyed by an
/// *expression signature* — a deterministic rendering of a leaf expression
/// (table + pushed-down predicates/UDFs) or of an executed sub-plan — so
/// statistics can be reused across pilot runs, across re-optimization
/// steps, and across recurring queries.
///
/// One store is shared by every concurrent QueryService session; the
/// service runs them all on one thread, so the store takes no lock (the
/// hit/miss instrumentation is `mutable`, so Get stays `const`).
///
/// Entries carry the data version (Catalog::TableVersion at observation
/// time) they were computed against. A Get with a version only returns an
/// entry whose version matches; `kAnyVersion` on either side acts as a
/// wildcard, which keeps version-oblivious callers (exact-stats baselines,
/// sub-plan signatures whose inputs are run-local temps) working unchanged.
class StatsStore {
 public:
  /// Wildcard data version: matches any version on lookup, and marks an
  /// entry as version-oblivious when used in Put.
  static constexpr uint64_t kAnyVersion = 0;

  StatsStore() = default;

  /// Inserts or replaces the statistics for `signature` with no data
  /// version attached (matches any versioned or unversioned Get).
  void Put(const std::string& signature, TableStats stats);

  /// Inserts or replaces the statistics for `signature`, recording the data
  /// version of the inputs they were observed on.
  void Put(const std::string& signature, uint64_t version, TableStats stats);

  /// Statistics for `signature`, if present (any version).
  std::optional<TableStats> Get(const std::string& signature) const;

  /// Statistics for `signature` valid at `version`. An entry whose stored
  /// version is neither `version` nor `kAnyVersion` is a *stale miss*: the
  /// data was rewritten since the stats were observed, so they are not
  /// returned.
  std::optional<TableStats> Get(const std::string& signature,
                                uint64_t version) const;

  /// Number of Get calls that found a valid entry / missed — instrumentation
  /// for the statistics-reuse ablation. `stale_misses` counts the subset of
  /// misses where an entry existed but its data version no longer matched.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t stale_misses() const { return stale_misses_; }

 private:
  struct Entry {
    TableStats stats;
    uint64_t version = kAnyVersion;
  };

  std::map<std::string, Entry> entries_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  mutable uint64_t stale_misses_ = 0;
};

}  // namespace dyno

#endif  // DYNO_STATS_STATS_STORE_H_
