#include "exec/broadcast.h"

#include <utility>

#include "columnar/batch_eval.h"
#include "exec/row_ops.h"

namespace dyno {

namespace {

/// The rows of one split that pass `filter` (every row when it is null), in
/// order. A columnar split evaluates the filter over its frame and builds
/// only the rows it keeps.
Result<std::vector<Value>> ReadKeptRows(const Split& split,
                                        const ExprPtr& filter) {
  std::vector<Value> kept;
  if (split.format == SplitFormat::kRow) {
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, DecodeSplitRows(split));
    DYNO_ASSIGN_OR_RETURN(std::vector<uint8_t> keep,
                          FilterKeepMask(filter, rows));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (keep[i]) kept.push_back(std::move(rows[i]));
    }
    return kept;
  }
  DYNO_RETURN_IF_ERROR(VerifySplit(split));
  DYNO_ASSIGN_OR_RETURN(columnar::FrameReader frame, OpenColumnarFrame(split));
  columnar::FrameRows rows(std::move(frame));
  std::vector<uint8_t> keep(rows.size(), 1);
  if (filter != nullptr) {
    DYNO_ASSIGN_OR_RETURN(columnar::BatchFilterResult filtered,
                          columnar::EvalFilterOverFrame(filter, &rows));
    keep = std::move(filtered.keep);
  }
  for (uint64_t i = 0; i < rows.size(); ++i) {
    if (keep[i]) kept.push_back(rows.Take(i));
  }
  return kept;
}

}  // namespace

Result<std::shared_ptr<BroadcastTable>> BuildBroadcastTable(
    const DfsFile& file, const ExprPtr& filter,
    const std::vector<std::string>& key_columns, uint64_t* splits_pruned) {
  auto table = std::make_shared<BroadcastTable>();
  std::vector<size_t> split_indexes;
  if (splits_pruned != nullptr) {
    PruneResult pruned = PruneSplitIndexes(file, filter);
    *splits_pruned = pruned.pruned;
    split_indexes = std::move(pruned.kept);
  } else {
    split_indexes.reserve(file.splits().size());
    for (size_t i = 0; i < file.splits().size(); ++i) {
      split_indexes.push_back(i);
    }
  }
  for (size_t index : split_indexes) {
    const Split& split = file.splits()[index];
    table->load_bytes += split.num_bytes();
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows,
                          ReadKeptRows(split, filter));
    for (Value& row : rows) {
      table->built_bytes += row.EncodedSize();
      ++table->num_rows;
      table->rows_by_key[EncodeJoinKey(row, key_columns)].push_back(
          std::move(row));
    }
  }
  return table;
}

}  // namespace dyno
