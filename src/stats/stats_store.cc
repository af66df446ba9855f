#include "stats/stats_store.h"

#include <utility>

namespace dyno {

void StatsStore::Put(const std::string& signature, TableStats stats) {
  Put(signature, kAnyVersion, std::move(stats));
}

void StatsStore::Put(const std::string& signature, uint64_t version,
                     TableStats stats) {
  entries_[signature] = Entry{std::move(stats), version};
}

std::optional<TableStats> StatsStore::Get(const std::string& signature) const {
  return Get(signature, kAnyVersion);
}

std::optional<TableStats> StatsStore::Get(const std::string& signature,
                                          uint64_t version) const {
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  const Entry& entry = it->second;
  if (version != kAnyVersion && entry.version != kAnyVersion &&
      entry.version != version) {
    ++misses_;
    ++stale_misses_;
    return std::nullopt;
  }
  ++hits_;
  return entry.stats;
}

}  // namespace dyno
