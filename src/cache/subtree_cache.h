#ifndef DYNO_CACHE_SUBTREE_CACHE_H_
#define DYNO_CACHE_SUBTREE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "storage/dfs.h"

namespace dyno {

/// Sizing knobs for the cross-query materialized-subtree cache.
struct SubtreeCacheOptions {
  /// Byte budget across all pinned result files (DYNO_SUBTREE_CACHE_MB).
  uint64_t max_bytes = 64ull * 1024 * 1024;
  /// Entry-count bound (DYNO_SUBTREE_CACHE_ENTRIES).
  size_t max_entries = 1024;
  /// DFS directory cached results are pinned under.
  std::string dfs_prefix = "/cache/subtree";
};

/// Cross-query materialized-subtree result cache (DESIGN.md §6.7): the
/// CheckpointEntry triple (subtree signature, DFS path, observed stats),
/// promoted from crash-recovery metadata into a first-class shared cache.
///
/// Keys are the *canonical* subtree signatures of PlanExecutor (grounded in
/// "table|filter" leaf signatures plus join keys/filters/projection), so
/// two queries computing the same subtree over the same base data collide
/// on purpose. Each entry records the Catalog::TableVersion of every base
/// table the subtree reads at publish time; Lookup re-validates those
/// versions, so a DFS rewrite of any input invalidates the entry instead of
/// serving pre-rewrite rows (the stale-reuse bug class this PR fixes).
///
/// Published results are *copied* into a pinned file under `dfs_prefix` —
/// query temp directories are deleted when sessions finish, and a cache
/// must outlive its publishers. Eviction is LRU by sim-time (with a
/// monotonic tick as tiebreak, so equal timestamps stay deterministic),
/// bounded by both bytes and entry count.
///
/// One cache is shared by every session of a QueryService, which runs them
/// all on one thread, so the cache takes no lock. Determinism: the service
/// switches between sessions only at submission points, so lookup/publish
/// order — and therefore hit patterns and eviction decisions — is a
/// deterministic function of admission order.
class SubtreeCache {
 public:
  /// A valid cache hit: the pinned result file plus the statistics observed
  /// when the subtree originally executed (identical to what re-executing
  /// would observe, which is what keeps cached plans byte-identical).
  struct Hit {
    std::shared_ptr<DfsFile> file;
    TableStats stats;
  };

  /// `dfs` and `catalog` must outlive the cache; `metrics`/`trace` may be
  /// null (standalone/unit-test use).
  SubtreeCache(Dfs* dfs, Catalog* catalog, SubtreeCacheOptions options,
               obs::MetricsRegistry* metrics = nullptr,
               obs::TraceSink* trace = nullptr);
  SubtreeCache(const SubtreeCache&) = delete;
  SubtreeCache& operator=(const SubtreeCache&) = delete;

  /// Returns the entry for `key` if present AND still valid against the
  /// current table versions. A version mismatch drops the entry (lazy
  /// invalidation on DFS writes) and counts as invalidate + miss.
  std::optional<Hit> Lookup(const std::string& key, SimMillis now);

  /// Pins `result` under `key`. `table_versions` maps every base table the
  /// subtree reads to its Catalog::TableVersion at execution time. Results
  /// larger than the whole byte budget are not admitted. A fresh entry
  /// already under `key` is kept (first publisher wins — concurrent
  /// sessions produce identical bytes for identical keys).
  Status Publish(const std::string& key,
                 const std::map<std::string, uint64_t>& table_versions,
                 const DfsFile& result, const TableStats& stats,
                 SimMillis now);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t invalidations() const { return invalidations_; }

 private:
  struct Entry {
    std::string path;  ///< Pinned copy on the DFS.
    std::shared_ptr<DfsFile> file;
    TableStats stats;
    std::map<std::string, uint64_t> table_versions;
    uint64_t bytes = 0;
    SimMillis last_used = 0;
    uint64_t tick = 0;  ///< LRU tiebreak for equal sim-times.
  };

  /// Drops `it`'s pinned file and erases it.
  void DropEntry(std::map<std::string, Entry>::iterator it);
  /// Evicts LRU entries until both bounds hold.
  void EvictToFit(SimMillis now);
  bool IsValid(const Entry& entry) const;
  void RecordEvent(const char* name, const std::string& key, SimMillis now,
                   uint64_t entry_bytes);

  Dfs* dfs_;
  Catalog* catalog_;
  SubtreeCacheOptions options_;
  obs::MetricsRegistry* metrics_;
  obs::TraceSink* trace_;

  std::map<std::string, Entry> entries_;
  uint64_t bytes_ = 0;
  uint64_t tick_counter_ = 0;
  int instance_id_ = 0;
  uint64_t pin_counter_ = 0;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace dyno

#endif  // DYNO_CACHE_SUBTREE_CACHE_H_
