#include "storage/dfs.h"

#include <algorithm>
#include <utility>

#include "columnar/column.h"
#include "common/crc32c.h"
#include "common/string_util.h"

namespace dyno {

Status VerifySplit(const Split& split) {
  if (Crc32c(split.data) != split.crc32c) {
    return Status::DataLoss(
        StrFormat("split checksum mismatch (%llu bytes, stored crc %08x)",
                  (unsigned long long)split.num_bytes(), split.crc32c));
  }
  return Status::OK();
}

void DfsFile::AppendSplit(Split split) {
  // No-op for an exact payload; a payload grown in place loses its slack.
  split.data.shrink_to_fit();
  split.crc32c = Crc32c(split.data);
  // Callers that don't track logical size (job committers write row format)
  // get the exact row-format answer.
  if (split.logical_bytes == 0) split.logical_bytes = split.data.size();
  num_records_ += split.num_records;
  num_bytes_ += split.num_bytes();
  logical_bytes_ += split.logical_bytes;
  splits_.push_back(std::move(split));
}

Status DfsFile::CorruptByteForTesting(size_t split_index, size_t byte_offset,
                                      uint8_t mask) {
  if (split_index >= splits_.size()) {
    return Status::InvalidArgument("corrupt: split index out of range");
  }
  Split& split = splits_[split_index];
  if (byte_offset >= split.data.size()) {
    return Status::InvalidArgument("corrupt: byte offset out of range");
  }
  if (mask == 0) {
    return Status::InvalidArgument("corrupt: mask must flip at least one bit");
  }
  split.data[byte_offset] = static_cast<char>(
      static_cast<uint8_t>(split.data[byte_offset]) ^ mask);
  return Status::OK();
}

Result<std::shared_ptr<DfsFile>> Dfs::Create(const std::string& path) {
  auto [it, inserted] =
      files_.emplace(path, std::make_shared<DfsFile>(path));
  if (!inserted) {
    return Status::AlreadyExists("dfs file exists: " + path);
  }
  ++write_epochs_[path];
  return it->second;
}

Result<std::shared_ptr<DfsFile>> Dfs::Open(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("dfs file not found: " + path);
  }
  return it->second;
}

bool Dfs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Status Dfs::Delete(const std::string& path) {
  if (files_.erase(path) == 0) {
    return Status::NotFound("dfs file not found: " + path);
  }
  ++write_epochs_[path];
  return Status::OK();
}

int Dfs::DeleteWithPrefix(const std::string& prefix) {
  int n = 0;
  for (auto it = files_.lower_bound(prefix); it != files_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    ++write_epochs_[it->first];
    it = files_.erase(it);
    ++n;
  }
  return n;
}

std::vector<std::string> Dfs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && StartsWith(it->first, prefix); ++it) {
    out.push_back(it->first);
  }
  return out;
}

uint64_t Dfs::WriteEpoch(const std::string& path) const {
  auto it = write_epochs_.find(path);
  return it == write_epochs_.end() ? 0 : it->second;
}

std::string QueryTempDir(const std::string& query_id) {
  const std::string root = "/tmp/dyno";
  return query_id.empty() ? root : root + "/q/" + query_id;
}

std::vector<std::string> ListQueryTemp(const Dfs& dfs,
                                       const std::string& query_id) {
  return dfs.List(QueryTempDir(query_id) + "/");
}

void ReclaimQueryTemp(Dfs* dfs, const std::string& query_id,
                      const std::string& result,
                      const std::vector<std::string>& existing) {
  for (const std::string& path : ListQueryTemp(*dfs, query_id)) {
    if (path != result && !EndsWith(path, ".quarantine") &&
        !std::binary_search(existing.begin(), existing.end(), path)) {
      dfs->Delete(path).ok();
    }
  }
}

TableWriter::TableWriter(std::shared_ptr<DfsFile> file,
                         uint64_t target_split_bytes, SplitFormat format)
    : file_(std::move(file)),
      target_split_bytes_(target_split_bytes),
      format_(format) {}

void TableWriter::Append(const Value& row) {
  if (format_ == SplitFormat::kRow) {
    row.EncodeTo(&buffer_);
    pending_logical_bytes_ = buffer_.size();
  } else {
    // Size the row encoding without building it: the seal decision must
    // match row format byte-for-byte.
    pending_logical_bytes_ += row.EncodedSize();
    pending_rows_.push_back(row);
  }
  ++pending_records_;
  zone_builder_.Observe(row);
  if (pending_logical_bytes_ >= target_split_bytes_) Seal();
}

void TableWriter::Close() {
  if (pending_records_ > 0) Seal();
}

void TableWriter::Seal() {
  Split split;
  if (format_ == SplitFormat::kColumnar) {
    columnar::ColumnBatch::FromRows(pending_rows_).EncodeTo(&buffer_);
    split.format = SplitFormat::kColumnar;
    pending_rows_.clear();
  }
  split.data = std::string(buffer_);
  split.num_records = pending_records_;
  split.logical_bytes = pending_logical_bytes_;
  split.zone_map =
      std::make_shared<const columnar::ZoneMap>(zone_builder_.Build());
  buffer_.clear();
  pending_records_ = 0;
  pending_logical_bytes_ = 0;
  file_->AppendSplit(std::move(split));
}

Result<Value> SplitReader::Next() {
  if (AtEnd()) return Status::NotFound("end of split");
  Result<Value> row = Value::Decode(split_->data, &offset_);
  // Stored bytes that do not decode are lost data, whatever the codec
  // calls the failure.
  if (!row.ok()) return Status::DataLoss(row.status().message());
  return row;
}

namespace {

Status RecordCountMismatch(uint64_t decoded, uint64_t expected) {
  return Status::DataLoss(StrFormat("split decoded %llu records, expected %llu",
                                    (unsigned long long)decoded,
                                    (unsigned long long)expected));
}

}  // namespace

Result<columnar::FrameReader> OpenColumnarFrame(const Split& split) {
  DYNO_ASSIGN_OR_RETURN(columnar::FrameReader frame,
                        columnar::FrameReader::Open(split.data));
  if (frame.num_rows() != split.num_records) {
    return RecordCountMismatch(frame.num_rows(), split.num_records);
  }
  return frame;
}

Result<std::vector<Value>> DecodeSplitRows(const Split& split) {
  DYNO_RETURN_IF_ERROR(VerifySplit(split));
  if (split.format == SplitFormat::kColumnar) {
    DYNO_ASSIGN_OR_RETURN(columnar::FrameReader frame,
                          OpenColumnarFrame(split));
    return frame.Rows();
  }
  std::vector<Value> rows;
  rows.reserve(split.num_records);
  SplitReader reader(&split);
  while (!reader.AtEnd()) {
    DYNO_ASSIGN_OR_RETURN(Value row, reader.Next());
    rows.push_back(std::move(row));
  }
  if (rows.size() != split.num_records) {
    return RecordCountMismatch(rows.size(), split.num_records);
  }
  return rows;
}

Result<std::vector<Value>> ReadAllRows(const DfsFile& file) {
  std::vector<Value> rows;
  rows.reserve(file.num_records());
  for (const Split& split : file.splits()) {
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> split_rows,
                          DecodeSplitRows(split));
    for (Value& row : split_rows) rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::shared_ptr<DfsFile>> WriteRows(Dfs* dfs, const std::string& path,
                                           const std::vector<Value>& rows,
                                           uint64_t target_split_bytes,
                                           SplitFormat format) {
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file, dfs->Create(path));
  TableWriter writer(file, target_split_bytes, format);
  for (const Value& row : rows) writer.Append(row);
  writer.Close();
  return file;
}

PruneResult PruneSplitIndexes(const DfsFile& file, const ExprPtr& filter) {
  PruneResult result;
  const std::vector<Split>& splits = file.splits();
  result.kept.reserve(splits.size());
  for (size_t i = 0; i < splits.size(); ++i) {
    if (filter != nullptr && splits[i].zone_map != nullptr &&
        !columnar::ZoneMapMayMatch(*splits[i].zone_map, *filter)) {
      ++result.pruned;
      continue;
    }
    result.kept.push_back(i);
  }
  return result;
}

}  // namespace dyno
