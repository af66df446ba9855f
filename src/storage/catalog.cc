#include "storage/catalog.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/hash.h"
#include "common/knobs.h"

namespace dyno {

Status Catalog::RegisterTable(const std::string& name,
                              const std::string& dfs_path) {
  if (!dfs_->Exists(dfs_path)) {
    return Status::NotFound("no dfs file at " + dfs_path);
  }
  auto [it, inserted] = tables_.emplace(name, TableEntry{name, dfs_path});
  if (!inserted) return Status::AlreadyExists("table exists: " + name);
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name,
                             const std::string& dfs_path) {
  if (!dfs_->Exists(dfs_path)) {
    return Status::NotFound("no dfs file at " + dfs_path);
  }
  tables_.insert_or_assign(name, TableEntry{name, dfs_path});
  ++replace_epochs_[name];
  return Status::OK();
}

Status Catalog::WriteTable(const std::string& name,
                           uint64_t target_split_bytes,
                           const std::function<void(TableWriter&)>& fill) {
  const std::string path = "/tables/" + name;
  SplitFormat format = KnobEnabled(Knob::DYNO_COLUMNAR)
                           ? SplitFormat::kColumnar
                           : SplitFormat::kRow;
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file, dfs_->Create(path));
  TableWriter writer(std::move(file), target_split_bytes, format);
  fill(writer);
  writer.Close();
  return RegisterTable(name, path);
}

Status Catalog::CreateTable(const std::string& name,
                            const std::vector<Value>& rows,
                            uint64_t target_split_bytes) {
  return WriteTable(name, target_split_bytes, [&](TableWriter& out) {
    for (const Value& row : rows) out.Append(row);
  });
}

Result<TableEntry> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return it->second;
}

Result<std::shared_ptr<DfsFile>> Catalog::OpenTable(
    const std::string& name) const {
  DYNO_ASSIGN_OR_RETURN(TableEntry entry, Lookup(name));
  return dfs_->Open(entry.dfs_path);
}

uint64_t Catalog::TableVersion(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return 0;
  uint64_t v = HashBytes(it->second.dfs_path.data(),
                         it->second.dfs_path.size());
  v = HashCombine(v, Mix64(dfs_->WriteEpoch(it->second.dfs_path)));
  auto epoch = replace_epochs_.find(name);
  uint64_t replace = epoch == replace_epochs_.end() ? 0 : epoch->second;
  v = HashCombine(v, Mix64(replace));
  // Reserve 0 for "unknown table" even in the astronomically unlikely event
  // the hash lands there.
  return v == 0 ? 1 : v;
}

Catalog::HeldFacts& Catalog::Facts(const std::string& name) {
  const uint64_t version = TableVersion(name);
  HeldFacts& facts = facts_[name];
  if (facts.version != version) {
    facts = HeldFacts();
    facts.version = version;
  }
  return facts;
}

Result<const TableAnalysis*> Catalog::Analyze(
    const std::string& name, const std::vector<std::string>& columns) {
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file, OpenTable(name));
  HeldFacts& facts = Facts(name);
  TableAnalysis& analysis = facts.analysis;
  std::set<std::string> wanted(columns.begin(), columns.end());
  for (const auto& [col, hist] : analysis.histograms) wanted.erase(col);
  if (wanted.empty() && facts.analyzed) return &analysis;

  std::map<std::string, std::vector<Value>> values;
  uint64_t records = 0;
  uint64_t bytes = 0;
  for (const Split& split : file->splits()) {
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, DecodeSplitRows(split));
    for (const Value& row : rows) {
      ++records;
      bytes += row.EncodedSize();
      for (const std::string& col : wanted) {
        const Value* v = row.FindField(col);
        if (v != nullptr && !v->is_null()) values[col].push_back(*v);
      }
    }
  }
  analysis.stats.cardinality = static_cast<double>(records);
  analysis.stats.avg_record_size =
      records == 0 ? 0.0
                   : static_cast<double>(bytes) / static_cast<double>(records);
  for (const std::string& col : wanted) {
    EquiDepthHistogram hist = EquiDepthHistogram::Build(values[col]);
    ColumnStats cs;
    cs.ndv = hist.distinct_estimate();
    if (!values[col].empty()) {
      auto [min_it, max_it] = std::minmax_element(
          values[col].begin(), values[col].end(),
          [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
      cs.min_value = *min_it;
      cs.max_value = *max_it;
    }
    analysis.stats.columns[col] = std::move(cs);
    analysis.histograms.emplace(col, std::move(hist));
  }
  facts.analyzed = true;
  return &analysis;
}

Result<TableStats> Catalog::ExactStats(
    const std::string& name, const ExprPtr& filter,
    const std::vector<std::string>& columns) {
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file, OpenTable(name));
  auto key = std::make_pair(filter == nullptr ? "" : filter->ToString(),
                            columns);
  HeldFacts& facts = Facts(name);
  if (auto held = facts.exact.find(key);
      held != facts.exact.end() &&
      (held->second.first == filter || !filter->ContainsUdf())) {
    return held->second.second;
  }
  std::vector<std::unordered_set<uint64_t>> distinct(columns.size());
  std::vector<ColumnStats> column_stats(columns.size());
  uint64_t records = 0;
  uint64_t bytes = 0;
  for (const Split& split : file->splits()) {
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, DecodeSplitRows(split));
    for (const Value& row : rows) {
      if (filter != nullptr) {
        DYNO_ASSIGN_OR_RETURN(Value keep, filter->Eval(row));
        if (keep.type() != Value::Type::kBool || !keep.bool_value()) continue;
      }
      ++records;
      bytes += row.EncodedSize();
      for (size_t i = 0; i < columns.size(); ++i) {
        const Value* v = row.FindField(columns[i]);
        if (v == nullptr || v->is_null()) continue;
        distinct[i].insert(v->Hash());
        column_stats[i].UpdateMinMax(*v);
      }
    }
  }
  TableStats stats;
  stats.cardinality = static_cast<double>(records);
  stats.avg_record_size =
      records == 0 ? 0.0
                   : static_cast<double>(bytes) / static_cast<double>(records);
  for (size_t i = 0; i < columns.size(); ++i) {
    column_stats[i].ndv = static_cast<double>(distinct[i].size());
    stats.columns[columns[i]] = column_stats[i];
  }
  facts.exact.insert_or_assign(std::move(key), std::make_pair(filter, stats));
  return stats;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) out.push_back(name);
  return out;
}

}  // namespace dyno
