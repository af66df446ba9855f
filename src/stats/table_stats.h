#ifndef DYNO_STATS_TABLE_STATS_H_
#define DYNO_STATS_TABLE_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "json/value.h"
#include "stats/kmv.h"

namespace dyno {

/// Per-attribute statistics: min/max and a distinct-value estimate (paper
/// §4.3 — "statistics per attribute: min/max values, and number of distinct
/// values"). Only join-relevant attributes are tracked, to bound collection
/// overhead.
struct ColumnStats {
  std::optional<Value> min_value;
  std::optional<Value> max_value;
  /// Estimated number of distinct values, already extrapolated to the full
  /// relation when the source was a sample.
  double ndv = 0.0;

  void UpdateMinMax(const Value& v);
};

/// Statistics describing one (possibly virtual) relation: a base table, the
/// output of a leaf expression measured by a pilot run, or a materialized
/// intermediate join result.
struct TableStats {
  /// Estimated row count.
  double cardinality = 0.0;
  /// Average encoded record size in bytes.
  double avg_record_size = 0.0;
  /// True when derived from a sample (pilot run) rather than a full pass.
  bool from_sample = false;

  std::map<std::string, ColumnStats> columns;

  double SizeBytes() const { return cardinality * avg_record_size; }

  /// NDV for `column`, defaulting to `cardinality` (unique-key assumption)
  /// when the column was not tracked.
  double ColumnNdv(const std::string& column) const;
};

/// Streaming statistics collector over a job's output. Tracks record
/// count, byte size, and per-column min/max + KMV synopses. Pilot and
/// executed jobs alike feed it through the engine's output observer, once
/// per record of each task's committed output (paper §4.3, §5.4).
class StatsCollector {
 public:
  StatsCollector(std::vector<std::string> tracked_columns,
                 int kmv_k = KmvSynopsis::kDefaultK);

  /// Updates all statistics with one output record (a struct Value).
  void Observe(const Value& record);

  uint64_t num_records() const { return num_records_; }
  uint64_t num_bytes() const { return num_bytes_; }
  const std::vector<std::string>& tracked_columns() const {
    return tracked_columns_;
  }

  /// Declared CPU cost per observed record, charged by the MR simulator.
  double CpuCostPerRecord() const {
    return 2.0 + 3.0 * static_cast<double>(tracked_columns_.size());
  }

  /// Produces TableStats for the observed output, extrapolated from a
  /// sample: `scanned_fraction` is (bytes scanned)/(total relation bytes)
  /// and must be in (0, 1]. Cardinality scales by 1/scanned_fraction. NDV
  /// uses the GEE estimator sqrt(1/q)·f1 + (d − f1) over the tracked value
  /// frequencies (Charikar et al., the paper's [9] — robust whether the
  /// column is a near-key or a small domain); when frequency tracking
  /// overflowed, it falls back to the paper's linear rule
  /// DV_R = (|R|/|Rs|)·DV_Rs. Either way the result is capped by the
  /// extrapolated cardinality.
  TableStats Finalize(double scanned_fraction) const;

  /// Frequency-tracking cap: beyond this many distinct values per column
  /// the collector stops tracking exact frequencies (the KMV/linear path
  /// takes over, which is accurate in the many-distincts regime anyway).
  static constexpr size_t kMaxTrackedFrequencies = 1 << 16;

 private:
  struct ColumnState {
    ColumnStats minmax;
    KmvSynopsis synopsis;
    /// Value-hash -> occurrence count, for the GEE distinct-value
    /// estimator (Charikar et al., the paper's [9]); disabled (cleared,
    /// `freq_valid=false`) when it outgrows kMaxTrackedFrequencies.
    std::map<uint64_t, uint32_t> frequencies;
    bool freq_valid = true;
    explicit ColumnState(int k) : synopsis(k) {}
  };

  std::vector<std::string> tracked_columns_;
  uint64_t num_records_ = 0;
  uint64_t num_bytes_ = 0;
  std::vector<ColumnState> column_states_;
};

}  // namespace dyno

#endif  // DYNO_STATS_TABLE_STATS_H_
