#ifndef DYNO_STORAGE_DFS_H_
#define DYNO_STORAGE_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "columnar/column.h"
#include "columnar/zone_map.h"
#include "common/status.h"
#include "expr/expr.h"
#include "json/value.h"

namespace dyno {

/// On-disk encoding of one split's payload.
enum class SplitFormat : uint8_t {
  kRow = 0,       ///< Concatenated Value encodings (the original format).
  kColumnar = 1,  ///< One columnar::ColumnBatch frame.
};

/// "This split's bytes matched its checksum": set by VerifySplit's first
/// good check and cleared by CorruptByteForTesting, so each version of a
/// split's bytes is checksummed once however often it is read. A copy
/// starts unverified, since its bytes may be changed before it is read (the
/// engine's corruption scratch copies are); a move keeps the bit.
class VerifiedBit {
 public:
  VerifiedBit() = default;
  VerifiedBit(const VerifiedBit&) noexcept {}
  VerifiedBit(VerifiedBit&& other) noexcept : set_(other.set_) {}
  VerifiedBit& operator=(const VerifiedBit&) noexcept {
    set_ = false;
    return *this;
  }
  VerifiedBit& operator=(VerifiedBit&& other) noexcept {
    set_ = other.set_;
    return *this;
  }

  bool get() const { return set_; }
  /// Const: a check records what it learned on a split it only reads.
  void set(bool set) const { set_ = set; }

 private:
  mutable bool set_ = false;
};

/// One HDFS-style block: a run of binary-encoded rows (or one columnar
/// batch). Splits are the unit of map-task assignment and of pilot-run
/// sampling.
struct Split {
  std::string data;       ///< Payload bytes per `format`.
  uint64_t num_records = 0;
  /// CRC32C of `data`, stamped by DfsFile::AppendSplit when the block is
  /// committed (HDFS writes the block checksum alongside the block). Readers
  /// verify via VerifySplit; a mismatch is DataLoss, never a wrong answer.
  uint32_t crc32c = 0;
  SplitFormat format = SplitFormat::kRow;
  /// Size of the split's rows under the row encoding, independent of the
  /// physical format. All statistics the optimizer and pilot consume are in
  /// logical bytes, so plans are identical whichever format a table was
  /// written in. Normalized to `data.size()` by AppendSplit when left 0
  /// (exact for row splits).
  uint64_t logical_bytes = 0;
  /// Per-column min/max over the split's rows, stamped at write time by
  /// TableWriter (file metadata, like the checksum: not part of `data`).
  /// Null for splits written without one (job outputs, hand-built splits) —
  /// readers must treat a missing zone map as "may match anything".
  std::shared_ptr<const columnar::ZoneMap> zone_map;
  VerifiedBit verified;

  uint64_t num_bytes() const { return data.size(); }
};

// std::vector<Split> relocates splits on growth; a throwing move would make
// it copy every payload instead.
static_assert(std::is_nothrow_move_constructible_v<Split>);

/// Verifies `split.data` against its stored checksum. Returns DataLoss on
/// mismatch. A split that passed once is not checksummed again until its
/// bytes change (`Split::verified`).
Status VerifySplit(const Split& split);

/// A file in the simulated DFS: an ordered list of splits. Files are
/// immutable once sealed (MapReduce semantics — jobs write whole files).
class DfsFile {
 public:
  /// Replication factor a file is created with (the HDFS default). Each
  /// replica is an independent chance to read a block back intact; the
  /// engine re-reads the next replica on checksum mismatch.
  static constexpr int kDefaultReplicas = 3;

  explicit DfsFile(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }
  const std::vector<Split>& splits() const { return splits_; }
  uint64_t num_records() const { return num_records_; }
  uint64_t num_bytes() const { return num_bytes_; }
  /// Row-encoded size of the file's contents (== num_bytes() for row-format
  /// files). Optimizer/pilot statistics use this so plans do not depend on
  /// the physical format.
  uint64_t logical_bytes() const { return logical_bytes_; }

  int replicas() const { return replicas_; }
  void set_replicas(int replicas) { replicas_ = replicas >= 1 ? replicas : 1; }

  /// Average row-encoded record size in bytes (0 for an empty file). This
  /// is the `rec_size_avg` statistic of the paper (§4.3); logical so it is
  /// format-independent.
  double avg_record_size() const {
    return num_records_ == 0
               ? 0.0
               : static_cast<double>(logical_bytes_) /
                     static_cast<double>(num_records_);
  }

  /// Appends a raw split (used by writers and by job output committers).
  /// The split's checksum is (re)stamped here: whatever bytes are committed
  /// are the bytes the checksum covers. This is the one commit point of
  /// every payload, and it holds the payload at its exact size (a block
  /// takes the bytes it holds); writers that build into a reused buffer
  /// hand over an exact copy, so nothing is copied again here.
  void AppendSplit(Split split);

  /// Test/fault-injection hook: XORs `mask` into one stored byte WITHOUT
  /// restamping the checksum, modelling at-rest bit rot. The next verified
  /// read of the split must surface DataLoss. `mask` must be nonzero.
  Status CorruptByteForTesting(size_t split_index, size_t byte_offset,
                               uint8_t mask);

 private:
  std::string path_;
  std::vector<Split> splits_;
  uint64_t num_records_ = 0;
  uint64_t num_bytes_ = 0;
  uint64_t logical_bytes_ = 0;
  int replicas_ = kDefaultReplicas;
};

/// The simulated distributed filesystem: a flat namespace of immutable
/// files. A single process-wide instance plays the role of the HDFS cluster.
class Dfs {
 public:
  Dfs() = default;
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Creates an empty file. Fails with AlreadyExists on path collision.
  Result<std::shared_ptr<DfsFile>> Create(const std::string& path);

  /// Opens an existing file.
  Result<std::shared_ptr<DfsFile>> Open(const std::string& path) const;

  bool Exists(const std::string& path) const;

  Status Delete(const std::string& path);

  /// Removes every file whose path starts with `prefix`; returns the count.
  int DeleteWithPrefix(const std::string& prefix);

  /// The paths that start with `prefix` (all paths by default), in
  /// lexicographic order.
  std::vector<std::string> List(const std::string& prefix = "") const;

  /// Monotone per-path write epoch: bumped every time `path` is created or
  /// deleted. Two opens of the same path with equal epochs are guaranteed to
  /// see the same immutable file; a differing epoch means the path was
  /// rewritten in between. Starts at 0 for never-written paths, so epoch 0
  /// doubles as "no such data version". Caches key their entries by this.
  uint64_t WriteEpoch(const std::string& path) const;

 private:
  std::map<std::string, std::shared_ptr<DfsFile>> files_;
  std::map<std::string, uint64_t> write_epochs_;
};

/// DFS directory of one query's intermediates: "/tmp/dyno", extended with
/// "/q/<query_id>" when `query_id` is non-empty. Executor, driver and pilot
/// outputs all land under it, so everything a finished query wrote is
/// reclaimed by this one prefix.
std::string QueryTempDir(const std::string& query_id);

/// The files under `QueryTempDir(query_id)`, sorted: the snapshot a run
/// takes at entry and hands to ReclaimQueryTemp.
std::vector<std::string> ListQueryTemp(const Dfs& dfs,
                                       const std::string& query_id);

/// Reclaims a finished query's intermediates, as Hadoop removes a job's
/// temporary files once the query ends: deletes every file under
/// `QueryTempDir(query_id)` except `result`, the `<output>.quarantine` files
/// (poison records are kept, like results) and the sorted `existing` paths
/// (files that were there before the run).
void ReclaimQueryTemp(Dfs* dfs, const std::string& query_id,
                      const std::string& result,
                      const std::vector<std::string>& existing = {});

/// Buffers rows and seals them into splits of roughly `target_split_bytes`.
/// The default mirrors an HDFS block: at simulator scale we use 64 KiB so a
/// few-MB table still spans enough splits for sampling to be meaningful.
///
/// Split boundaries are decided by accumulated *row-encoded* bytes in both
/// formats, so a table written columnar has exactly the rows-per-split of
/// its row-format twin (plans and pilot samples stay comparable). Every
/// sealed split carries a zone map, whichever format it is written in.
class TableWriter {
 public:
  static constexpr uint64_t kDefaultSplitBytes = 64 * 1024;

  explicit TableWriter(std::shared_ptr<DfsFile> file,
                       uint64_t target_split_bytes = kDefaultSplitBytes,
                       SplitFormat format = SplitFormat::kRow);

  /// Encodes and buffers one row; seals a split when the target is reached.
  void Append(const Value& row);

  /// Flushes any buffered rows into a final split.
  void Close();

 private:
  void Seal();

  std::shared_ptr<DfsFile> file_;
  uint64_t target_split_bytes_;
  SplitFormat format_;
  /// Reused buffer: the row encodings of the pending split, or its
  /// columnar frame while it is sealed. Each split gets an exact copy.
  std::string buffer_;
  std::vector<Value> pending_rows_;    ///< Columnar-format accumulation.
  uint64_t pending_records_ = 0;
  uint64_t pending_logical_bytes_ = 0;
  columnar::ZoneMapBuilder zone_builder_;
};

/// Decodes the rows of one split, in order.
class SplitReader {
 public:
  explicit SplitReader(const Split* split) : split_(split) {}

  /// Returns the next row, NotFound at end of split, or DataLoss when the
  /// bytes at the current offset do not decode.
  Result<Value> Next();

  bool AtEnd() const { return offset_ >= split_->data.size(); }

  /// Bytes consumed so far; equals the split size after a clean scan. Lets
  /// callers bill partially-scanned splits (failed map attempts) exactly.
  size_t offset() const { return offset_; }

 private:
  const Split* split_;
  size_t offset_ = 0;
};

/// Format-aware split read: checksum-verifies `split.data`, then decodes it
/// per `split.format` into rows. Any decode failure after a clean checksum
/// (truncated frame, bad magic, record-count mismatch) is also DataLoss —
/// corruption never surfaces as a wrong answer.
Result<std::vector<Value>> DecodeSplitRows(const Split& split);

/// Opens the frame of a columnar split whose checksum the caller has just
/// verified: the frame's own CRC and every value are checked, and the frame
/// must hold `split.num_records` rows. Every failure is DataLoss. The
/// reader views `split.data`, which must outlive it.
Result<columnar::FrameReader> OpenColumnarFrame(const Split& split);

/// Reads an entire file into a row vector (test/debug helper; real scans go
/// through map tasks). Every split is checksum-verified first; a corrupt
/// split surfaces as DataLoss.
Result<std::vector<Value>> ReadAllRows(const DfsFile& file);

/// Writes `rows` as a new file on `dfs`.
Result<std::shared_ptr<DfsFile>> WriteRows(
    Dfs* dfs, const std::string& path, const std::vector<Value>& rows,
    uint64_t target_split_bytes = TableWriter::kDefaultSplitBytes,
    SplitFormat format = SplitFormat::kRow);

/// Outcome of zone-map pruning over a file's splits.
struct PruneResult {
  /// Indexes of splits some row of which may satisfy the filter, ascending.
  std::vector<size_t> kept;
  /// Splits proven to contain no matching row.
  uint64_t pruned = 0;
};

/// Evaluates `filter` against each split's zone map. Splits without a zone
/// map (job outputs, pre-zone-map files) are always kept, as are all splits
/// when `filter` is null. Pruning is an over-approximation: a kept split may
/// still yield zero rows, but a pruned split never loses one.
PruneResult PruneSplitIndexes(const DfsFile& file, const ExprPtr& filter);

}  // namespace dyno

#endif  // DYNO_STORAGE_DFS_H_
