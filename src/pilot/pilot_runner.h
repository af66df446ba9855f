#ifndef DYNO_PILOT_PILOT_RUNNER_H_
#define DYNO_PILOT_PILOT_RUNNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "stats/stats_store.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dyno {

/// Configuration of the PILR algorithm (paper §4).
struct PilotRunOptions {
  /// Execution variants (paper §4.2): ST submits one leaf job at a time
  /// over all splits, interrupted at k records by the engine's count of
  /// committed output (the paper's global ZooKeeper counter); MT submits
  /// every leaf job simultaneously over m/|R| random splits each, adding
  /// splits on demand — 4.6x faster on average and insensitive to the
  /// dataset size (Table 1).
  enum class Mode { kSerial, kParallel };

  Mode mode = Mode::kParallel;
  /// Target number of output records per relation ("enough results to
  /// collect meaningful statistics").
  int k = 1024;
  /// Look up the StatsStore by expression signature and skip runs whose
  /// statistics are already known (recurring queries, §4.1).
  bool reuse_stats = true;
  /// Seed for random split selection.
  uint64_t seed = 42;
  /// Query scope stamped onto every pilot JobSpec (JobSpec::query_id).
  /// Empty keeps legacy single-query behavior. Pilot job names are
  /// "pilr:<alias>", so without the scope two concurrent queries piloting
  /// the same alias would share one engine fault stream. Pilot outputs
  /// land under QueryTempDir(query_id), with the query's other
  /// intermediates.
  std::string query_id;
};

/// What one pilot run produced for one leaf expression.
struct PilotLeafResult {
  std::string alias;
  std::string signature;
  TableStats stats;
  bool reused_cached_stats = false;
  /// When the pilot run consumed the *entire* relation before producing k
  /// records (very selective predicates), its output is a full
  /// materialization of the leaf and can replace the scan during actual
  /// query execution (paper §4.1, "optimization for selective predicates").
  std::shared_ptr<DfsFile> full_output;
};

struct PilotRunReport {
  SimMillis elapsed_ms = 0;
  int runs_executed = 0;
  int runs_skipped_cached = 0;
  std::vector<PilotLeafResult> leaves;

  const PilotLeafResult* Find(const std::string& alias) const;
};

/// Executes pilot runs: each leaf expression (scan + pushed-down local
/// predicates/UDFs) runs as a map-only job over a sample of its relation
/// until k output records exist, collecting cardinality, record size,
/// min/max and KMV distinct-value statistics over the post-predicate
/// output. The engine's output observer collects them exactly once per
/// committed task output, where the paper's tasks publish partial
/// statistics files through ZooKeeper for the client to merge.
class PilotRunner {
 public:
  PilotRunner(MapReduceEngine* engine, Catalog* catalog, StatsStore* store,
              PilotRunOptions options);

  /// Runs PILR over the given leaf expressions (Algorithm 1).
  Result<PilotRunReport> Run(const std::vector<LeafExpr>& leaves);

 private:
  struct LeafJobState;

  /// The two modes fill `report`'s leaves and run counts; Run() times the
  /// run and writes the pilot.* metrics.
  Status RunSerial(const std::vector<LeafExpr>& leaves,
                   PilotRunReport* report);
  Status RunParallel(const std::vector<LeafExpr>& leaves,
                     PilotRunReport* report);

  /// The StatsStore reuse check both modes make before piloting a leaf
  /// (recurring queries, §4.1): on a hit for (signature, table version) it
  /// records the known statistics in `report` and returns true.
  bool ReuseKnownStats(const LeafExpr& leaf, const std::string& signature,
                       uint64_t table_version, PilotRunReport* report);

  MapReduceEngine* engine_;
  Catalog* catalog_;
  StatsStore* store_;
  PilotRunOptions options_;
  int run_counter_ = 0;
};

}  // namespace dyno

#endif  // DYNO_PILOT_PILOT_RUNNER_H_
