#ifndef DYNO_STATS_HISTOGRAM_H_
#define DYNO_STATS_HISTOGRAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "json/value.h"
#include "stats/table_stats.h"

namespace dyno {

/// Equi-depth histogram over one attribute, as maintained by the
/// traditional shared-nothing optimizer the paper compares against
/// ("DBMS-X is capable of using more detailed statistics (e.g.,
/// histograms)", §6.1). DYNO itself does not use histograms — they exist
/// here so the RELOPT baseline can estimate simple-predicate selectivity
/// well while still being blind to UDFs and cross-column correlation.
class EquiDepthHistogram {
 public:
  /// Builds from a full pass over the values (base-table ANALYZE).
  static EquiDepthHistogram Build(std::vector<Value> values,
                                  int num_buckets = 64);

  /// Estimated selectivity of `col <op> literal` under uniformity within
  /// buckets. Returns a value in [0, 1].
  double EstimateSelectivity(Expr::CompareOp op, const Value& literal) const;

  uint64_t total_count() const { return total_count_; }
  size_t num_buckets() const { return bucket_uppers_.size(); }
  double distinct_estimate() const { return distinct_estimate_; }

 private:
  /// bucket_uppers_[i] is the largest value in bucket i; buckets hold
  /// counts_[i] rows each. bucket_lowers_[i] the smallest.
  std::vector<Value> bucket_lowers_;
  std::vector<Value> bucket_uppers_;
  std::vector<uint64_t> counts_;
  std::vector<double> bucket_ndv_;
  uint64_t total_count_ = 0;
  double distinct_estimate_ = 0.0;
};

/// What ANALYZE learns about a table: its exact cardinality and average
/// record size, and for each analyzed column an equi-depth histogram with
/// the column's NDV, min and max.
struct TableAnalysis {
  TableStats stats;
  std::map<std::string, EquiDepthHistogram> histograms;
};

}  // namespace dyno

#endif  // DYNO_STATS_HISTOGRAM_H_
