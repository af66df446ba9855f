#include "storage/catalog.h"

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

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) out.push_back(name);
  return out;
}

}  // namespace dyno
