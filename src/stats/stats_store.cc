#include "stats/stats_store.h"

#include <utility>

namespace dyno {

void StatsStore::Put(const std::string& signature, TableStats stats) {
  Put(signature, kAnyVersion, std::move(stats));
}

void StatsStore::Put(const std::string& signature, uint64_t version,
                     TableStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[signature] = Entry{std::move(stats), version};
}

std::optional<TableStats> StatsStore::Get(const std::string& signature) const {
  return Get(signature, kAnyVersion);
}

std::optional<TableStats> StatsStore::Get(const std::string& signature,
                                          uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const Entry& entry = it->second;
  if (version != kAnyVersion && entry.version != kAnyVersion &&
      entry.version != version) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    stale_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return entry.stats;
}

}  // namespace dyno
