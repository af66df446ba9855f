#include "obs/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace dyno::obs {

std::vector<int64_t> DefaultLatencyBounds() {
  // 1ms .. ~17min, doubling.
  std::vector<int64_t> bounds;
  for (int64_t b = 1; b <= 1 << 20; b *= 2) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1) {}

void Histogram::Observe(int64_t value) {
  // Bounds are inclusive upper limits (Prometheus "le" style): bucket i
  // counts observations <= bounds_[i].
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  if (gauges_.count(name) || histograms_.count(name)) return nullptr;
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  if (counters_.count(name) || histograms_.count(name)) return nullptr;
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds) {
  if (counters_.count(name) || gauges_.count(name)) return nullptr;
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::Serialize() const {
  // Merge the three sorted maps into one name-ordered rendering.
  std::vector<std::string> lines;
  lines.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    lines.push_back(StrFormat("counter %s %llu", name.c_str(),
                              (unsigned long long)c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    lines.push_back(
        StrFormat("gauge %s %lld", name.c_str(), (long long)g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    std::string buckets;
    for (size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i > 0) buckets += ",";
      buckets += StrFormat("%llu", (unsigned long long)h->bucket_count(i));
    }
    lines.push_back(StrFormat("histogram %s count=%llu sum=%lld buckets=%s",
                              name.c_str(), (unsigned long long)h->count(),
                              (long long)h->sum(), buckets.c_str()));
  }
  std::sort(lines.begin(), lines.end(),
            [](const std::string& a, const std::string& b) {
              // Sort by metric name (second token), then kind.
              auto name_of = [](const std::string& s) {
                size_t sp1 = s.find(' ');
                size_t sp2 = s.find(' ', sp1 + 1);
                return s.substr(sp1 + 1, sp2 - sp1 - 1);
              };
              std::string na = name_of(a), nb = name_of(b);
              if (na != nb) return na < nb;
              return a < b;
            });
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

}  // namespace dyno::obs
