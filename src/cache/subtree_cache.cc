#include "cache/subtree_cache.h"

#include <utility>

#include "common/string_util.h"

namespace dyno {

namespace {
// Process-wide instance counter so several caches sharing one Dfs (tests)
// never collide on pinned-file paths.
int g_cache_instances = 0;
}  // namespace

SubtreeCache::SubtreeCache(Dfs* dfs, Catalog* catalog,
                           SubtreeCacheOptions options,
                           obs::MetricsRegistry* metrics,
                           obs::TraceSink* trace)
    : dfs_(dfs),
      catalog_(catalog),
      options_(std::move(options)),
      metrics_(metrics),
      trace_(trace),
      instance_id_(++g_cache_instances) {}

void SubtreeCache::RecordEvent(const char* name, const std::string& key,
                               SimMillis now, uint64_t entry_bytes) {
  if (trace_ == nullptr) return;
  trace_->Record(obs::TraceEvent(now, -1, obs::TraceLane::kDriver, "cache",
                                 name)
                     .Arg("key", key)
                     .ArgInt("bytes", static_cast<int64_t>(entry_bytes)));
}

bool SubtreeCache::IsValid(const Entry& entry) const {
  for (const auto& [table, version] : entry.table_versions) {
    if (catalog_->TableVersion(table) != version) return false;
  }
  return true;
}

void SubtreeCache::DropEntry(
    std::map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.bytes;
  (void)dfs_->Delete(it->second.path);  // Already-gone files are fine.
  entries_.erase(it);
  if (metrics_ != nullptr) {
    metrics_->GetGauge("cache.bytes")->Set(static_cast<int64_t>(bytes_));
    metrics_->GetGauge("cache.entries")
        ->Set(static_cast<int64_t>(entries_.size()));
  }
}

void SubtreeCache::EvictToFit(SimMillis now) {
  while (!entries_.empty() && (bytes_ > options_.max_bytes ||
                               entries_.size() > options_.max_entries)) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           it->second.tick < victim->second.tick)) {
        victim = it;
      }
    }
    ++evictions_;
    if (metrics_ != nullptr) metrics_->GetCounter("cache.evictions")->Add();
    RecordEvent("cache_evict", victim->first, now, victim->second.bytes);
    DropEntry(victim);
  }
}

std::optional<SubtreeCache::Hit> SubtreeCache::Lookup(const std::string& key,
                                                      SimMillis now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    if (metrics_ != nullptr) metrics_->GetCounter("cache.misses")->Add();
    return std::nullopt;
  }
  if (!IsValid(it->second)) {
    // A base table was rewritten since this entry was published: drop it
    // rather than serve pre-rewrite rows.
    ++invalidations_;
    ++misses_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("cache.invalidations")->Add();
      metrics_->GetCounter("cache.misses")->Add();
    }
    RecordEvent("cache_invalidate", key, now, it->second.bytes);
    DropEntry(it);
    return std::nullopt;
  }
  it->second.last_used = now;
  it->second.tick = ++tick_counter_;
  ++hits_;
  if (metrics_ != nullptr) metrics_->GetCounter("cache.hits")->Add();
  RecordEvent("cache_hit", key, now, it->second.bytes);
  return Hit{it->second.file, it->second.stats};
}

Status SubtreeCache::Publish(
    const std::string& key,
    const std::map<std::string, uint64_t>& table_versions,
    const DfsFile& result, const TableStats& stats, SimMillis now) {
  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    if (IsValid(existing->second)) return Status::OK();
    ++invalidations_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("cache.invalidations")->Add();
    }
    RecordEvent("cache_invalidate", key, now, existing->second.bytes);
    DropEntry(existing);
  }
  if (result.num_bytes() > options_.max_bytes) {
    return Status::ResourceExhausted("result exceeds cache byte budget");
  }
  // Pin a copy: the publisher's file lives in a per-query temp directory
  // that is reclaimed when the session ends.
  std::string path = StrFormat("%s/c%d_e%llu", options_.dfs_prefix.c_str(),
                               instance_id_,
                               (unsigned long long)++pin_counter_);
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> pinned, dfs_->Create(path));
  pinned->set_replicas(result.replicas());
  for (const Split& split : result.splits()) pinned->AppendSplit(split);

  Entry entry;
  entry.path = path;
  entry.file = std::move(pinned);
  entry.stats = stats;
  entry.table_versions = table_versions;
  entry.bytes = entry.file->num_bytes();
  entry.last_used = now;
  entry.tick = ++tick_counter_;
  bytes_ += entry.bytes;
  uint64_t entry_bytes = entry.bytes;
  entries_.emplace(key, std::move(entry));
  if (metrics_ != nullptr) {
    metrics_->GetCounter("cache.publishes")->Add();
    metrics_->GetGauge("cache.bytes")->Set(static_cast<int64_t>(bytes_));
    metrics_->GetGauge("cache.entries")
        ->Set(static_cast<int64_t>(entries_.size()));
  }
  RecordEvent("cache_publish", key, now, entry_bytes);
  EvictToFit(now);
  return Status::OK();
}

}  // namespace dyno
