#include "stats/table_stats.h"

#include <algorithm>
#include <cmath>

namespace dyno {

void ColumnStats::UpdateMinMax(const Value& v) {
  if (v.is_null()) return;
  if (!min_value || v.Compare(*min_value) < 0) min_value = v;
  if (!max_value || v.Compare(*max_value) > 0) max_value = v;
}

double TableStats::ColumnNdv(const std::string& column) const {
  auto it = columns.find(column);
  if (it == columns.end() || it->second.ndv <= 0.0) return cardinality;
  return std::min(it->second.ndv, std::max(cardinality, 1.0));
}

StatsCollector::StatsCollector(std::vector<std::string> tracked_columns,
                               int kmv_k)
    : tracked_columns_(std::move(tracked_columns)) {
  column_states_.reserve(tracked_columns_.size());
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    column_states_.emplace_back(kmv_k);
  }
}

void StatsCollector::Observe(const Value& record) {
  ++num_records_;
  num_bytes_ += record.EncodedSize();
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    const Value* v = record.FindField(tracked_columns_[i]);
    if (v == nullptr || v->is_null()) continue;
    ColumnState& state = column_states_[i];
    state.minmax.UpdateMinMax(*v);
    uint64_t h = v->Hash();
    state.synopsis.AddHash(h);
    if (state.freq_valid) {
      ++state.frequencies[h];
      if (state.frequencies.size() > kMaxTrackedFrequencies) {
        state.frequencies.clear();
        state.freq_valid = false;
      }
    }
  }
}

TableStats StatsCollector::Finalize(double scanned_fraction) const {
  TableStats out;
  double scale = 1.0;
  if (scanned_fraction > 0.0 && scanned_fraction < 1.0) {
    scale = 1.0 / scanned_fraction;
    out.from_sample = true;
  }
  out.cardinality = static_cast<double>(num_records_) * scale;
  out.avg_record_size =
      num_records_ == 0
          ? 0.0
          : static_cast<double>(num_bytes_) / static_cast<double>(num_records_);
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    const ColumnState& state = column_states_[i];
    ColumnStats cs = state.minmax;
    double sample_ndv = state.synopsis.Estimate();
    double ndv;
    if (scale <= 1.0) {
      ndv = sample_ndv;  // Full pass: the synopsis is (near-)exact.
    } else if (state.freq_valid && !state.frequencies.empty()) {
      // GEE: sqrt(1/q)·f1 + (d − f1). Saturated domains (few singletons)
      // barely extrapolate; near-key columns (mostly singletons) scale by
      // sqrt(1/q) — the provably best guarantee for sampling-based
      // distinct counting.
      double d = static_cast<double>(state.frequencies.size());
      double f1 = 0.0;
      for (const auto& [hash, count] : state.frequencies) {
        if (count == 1) f1 += 1.0;
      }
      ndv = std::sqrt(scale) * f1 + (d - f1);
      ndv = std::max(ndv, d);
    } else {
      // Fallback: the paper's linear rule DV_R = (|R|/|Rs|)·DV_Rs.
      ndv = sample_ndv * scale;
    }
    cs.ndv = std::min(ndv, std::max(out.cardinality, 1.0));
    out.columns[tracked_columns_[i]] = std::move(cs);
  }
  return out;
}

}  // namespace dyno
