#ifndef DYNO_STORAGE_CATALOG_H_
#define DYNO_STORAGE_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/dfs.h"

namespace dyno {

/// Metadata for one registered table: where its rows live on the DFS.
/// Schemas are dynamic (the data model is self-describing JSON), so the
/// catalog only tracks names and file locations.
struct TableEntry {
  std::string name;
  std::string dfs_path;
};

/// Maps table names to DFS files — the Hive-metastore stand-in.
class Catalog {
 public:
  explicit Catalog(Dfs* dfs) : dfs_(dfs) {}
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers `name` -> `dfs_path`. The file must already exist.
  Status RegisterTable(const std::string& name, const std::string& dfs_path);

  /// Re-points `name` at `dfs_path`, registering it if absent. This is the
  /// only sanctioned way to rewrite a table in place; it bumps the table's
  /// replace epoch so `TableVersion` changes even if the new file happens to
  /// live at the old path.
  Status ReplaceTable(const std::string& name, const std::string& dfs_path);

  /// Forgets `name` (its file stays). Its replace epoch is kept, so a later
  /// registration under the same name never repeats a TableVersion.
  void DropTable(const std::string& name) { tables_.erase(name); }

  /// Streams a new table into "/tables/<name>": `fill` appends its rows one
  /// at a time, then the last split is sealed and the table registered, so
  /// no more than one split's rows are ever buffered. Base tables are
  /// written columnar when DYNO_COLUMNAR=1, row format otherwise; either
  /// way every split carries a zone map.
  Status WriteTable(const std::string& name, uint64_t target_split_bytes,
                    const std::function<void(TableWriter&)>& fill);

  /// WriteTable over `rows`. `target_split_bytes` lets tests script exact
  /// split layouts (pinned pruning counts).
  Status CreateTable(
      const std::string& name, const std::vector<Value>& rows,
      uint64_t target_split_bytes = TableWriter::kDefaultSplitBytes);

  Result<TableEntry> Lookup(const std::string& name) const;

  /// Opens the DFS file backing `name`.
  Result<std::shared_ptr<DfsFile>> OpenTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Version fingerprint for the data currently backing `name`: a hash of
  /// the backing DFS path, that path's DFS write epoch, and the table's
  /// catalog replace epoch. Any rewrite — re-pointing the name, or deleting
  /// and re-creating the file at the same path — changes the version, so
  /// caches keyed by (signature, version) can never serve pre-rewrite data.
  /// Returns 0 for unknown tables (0 is never a valid version).
  uint64_t TableVersion(const std::string& name) const;

  Dfs* dfs() const { return dfs_; }

 private:
  Dfs* dfs_;
  std::map<std::string, TableEntry> tables_;
  std::map<std::string, uint64_t> replace_epochs_;
};

}  // namespace dyno

#endif  // DYNO_STORAGE_CATALOG_H_
