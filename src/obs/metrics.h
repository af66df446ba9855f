#ifndef DYNO_OBS_METRICS_H_
#define DYNO_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dyno::obs {

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], plus
/// one overflow bucket. Bounds are fixed at registration, so Observe() is a
/// branchless-ish upper_bound plus one increment.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; empty selects
  /// DefaultLatencyBounds().
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t value);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the overflow bucket.
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }

 private:
  std::vector<int64_t> bounds_;
  std::vector<uint64_t> buckets_;  ///< bounds_.size() + 1.
  uint64_t count_ = 0;
  int64_t sum_ = 0;
};

/// Exponential sim-millisecond bounds, 1 ms .. ~17 min.
std::vector<int64_t> DefaultLatencyBounds();

/// Named metrics the engine, pilot, optimizer and driver register into, all
/// on one thread. Registration (Get*) returns a pointer that stays valid
/// for the registry's lifetime, so hot paths look a name up once and update
/// through the pointer. Re-registering a
/// name returns the same instrument, so independent components may share
/// one metric. A name must keep its kind: requesting an existing name as a
/// different instrument kind returns nullptr.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first registration (empty = default latency
  /// buckets).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds = {});

  /// Deterministic text rendering: one line per metric, sorted by name —
  /// "counter <name> <value>", "gauge <name> <value>",
  /// "histogram <name> count=<n> sum=<s> buckets=<c0,c1,...>".
  std::string Serialize() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dyno::obs

#endif  // DYNO_OBS_METRICS_H_
