#ifndef DYNO_DYNO_JOIN_BLOCK_RUN_H_
#define DYNO_DYNO_JOIN_BLOCK_RUN_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dyno/driver.h"

namespace dyno {

/// The units one BESTSTATIC run has executed, for replay when a later
/// candidate plan reaches the same unit (DESIGN.md §8). Entries are keyed
/// by the unit's chain flags, canonical signature and request, and hold
/// for executors sharing one engine and one ExecOptions.
struct UnitReplayLog {
  struct Entry {
    StepResult step;
    /// Engine-clock delta of the unit's wave, including any build-side
    /// filter job that PlanExecutor::Prepare ran for it.
    SimMillis wave_ms = 0;
  };
  std::map<std::string, Entry> units;
  int replayed = 0;  ///< Units served from `units` instead of executed.
};

/// DynoOptions that run a given plan the way Jaql does, for the RELOPT and
/// BESTSTATIC baselines: all ready jobs per wave, no broadcast fallback (an
/// over-memory broadcast fails with OutOfMemory), one attempt per job and
/// no OOM ladder.
DynoOptions JaqlRunOptions(const ExecOptions& exec);

/// One join block run through Algorithm 2's loop: plan, pick a wave of
/// ready units, serve what a memo holds, execute the rest, recover failed
/// units, commit each finished step and test whether to re-plan. Every
/// strategy runs its units here. What differs is data:
///  - the plan: optimized from pilot (or base) statistics, or given;
///  - whether the run can re-plan (not a DYNOPT-SIMPLE strategy). Only such
///    a run asks for online statistics on non-root units, commits steps to
///    the block's join graph, the StatsStore, the checkpoint manifest and
///    the subtree cache, traces `checkpoint` / `final_step` events, and
///    abandons a permanently failed unit to re-plan instead of failing;
///  - recovery, from DynoOptions (fallback, job attempts, OOM ladder).
class JoinBlockRun {
 public:
  /// A run is used once, through Run or RunPlan; `report` accounts every
  /// job it executes. `store` may be null for RunPlan; `manifest` is
  /// written only when options.checkpoint_path is set. `block` must outlive
  /// the run.
  JoinBlockRun(MapReduceEngine* engine, Catalog* catalog, StatsStore* store,
               DynoOptions options, const JoinBlock& block,
               QueryRunReport* report, CheckpointManifest* manifest = nullptr);

  /// DYNOPT and DYNOPT-SIMPLE: binds the leaves, acquires their statistics
  /// (pilot runs, or base statistics), applies `resume` (may be null), and
  /// runs the loop from the optimizer's plan. Returns the block's output.
  Result<std::shared_ptr<DfsFile>> Run(const CheckpointManifest* resume);

  /// Binds the leaves and runs `plan` as given (the run must not re-plan:
  /// pass a DYNOPT-SIMPLE strategy); a one-leaf plan is the block's scan
  /// job, as in Run. With a `replay` log, every unit of a one-unit wave is
  /// recorded in it when it succeeds, and replayed when already recorded —
  /// only where replay is exact: no fault can fire and no submit gate is
  /// installed.
  Result<std::shared_ptr<DfsFile>> RunPlan(const PlanNode& plan,
                                           UnitReplayLog* replay = nullptr);

 private:
  /// Mutable optimization state: the relations still to be joined (base
  /// leaves and virtual intermediates), the surviving join edges, and the
  /// not-yet-applied non-local predicates.
  struct BlockState {
    std::map<std::string, TableStats> relations;
    std::vector<OptEdge> edges;
    std::vector<OptNonLocalPred> preds;

    /// Replaces the executed relation set `covered` with the virtual
    /// relation `new_id` carrying `stats`: edges inside `covered` are
    /// consumed, crossing edges re-attach to `new_id`, and non-local
    /// predicates whose relations have all been merged are dropped (the
    /// join applied them).
    void Substitute(const std::set<std::string>& covered,
                    const std::string& new_id, TableStats stats);
    /// Columns of relations in `covered` that future joins still need —
    /// the attribute set online statistics are collected for (§5.4).
    std::vector<std::string> StatsColumnsFor(
        const std::set<std::string>& covered) const;
  };

  /// The units picked for one iteration, with their requests, the relation
  /// ids each consumes, and their subtree-cache and replay keys.
  struct Wave {
    std::vector<const JobUnit*> units;
    std::vector<PlanExecutor::UnitRequest> requests;
    std::vector<std::set<std::string>> covered;
    std::vector<std::string> cache_keys;
    std::string replay_key;  ///< Set for a replayable one-unit wave.
    bool final = false;      ///< The root's wave: its output ends the run.
  };

  using UnitRequest = PlanExecutor::UnitRequest;

  // Phases, in loop order.
  Status BindLeaves();
  Status AcquireStats();
  Result<std::shared_ptr<DfsFile>> ScanSingleTable();
  Status ApplyResume(const CheckpointManifest& resume);
  Status Plan();
  Result<Wave> PickWave();
  /// Serves unit `i` of `wave` from the subtree cache (no job counted) or
  /// the replay log (the clock advances by the recorded delta and the unit
  /// counts as executed). `*from_cache` tells which.
  std::optional<StepResult> ConsultMemo(const Wave& wave, size_t i,
                                        bool* from_cache);
  Result<std::vector<StepResult>> Execute(const Wave& wave,
                                          const std::vector<size_t>& to_run);
  /// Runs the OOM ladder, the broadcast fallback or whole-job retries for
  /// a failed step. A step that still fails is returned with its error;
  /// the Result's own error ends the run.
  Result<StepResult> Recover(const UnitRequest& request, StepResult step);
  /// Gives up on a permanently failed unit: returns OK to re-plan around
  /// the materialized subtrees, or the error when the run cannot.
  Status Abandon(const JobUnit& unit, const Status& error);
  /// Folds a finished step into the run; returns the block's output for
  /// the root, null otherwise.
  Result<std::shared_ptr<DfsFile>> Commit(const Wave& wave, size_t i,
                                          const StepResult& step,
                                          bool from_cache);
  /// Sets the re-plan flag when the step's observed size or spilling says
  /// the plan was wrong.
  void ReplanTest(const JobUnit& unit, const StepResult& step,
                  bool from_cache);
  Result<std::shared_ptr<DfsFile>> Loop();

  // Helpers.
  void CommitToStores(const Wave& wave, size_t i, const StepResult& step,
                      bool from_cache);
  void BindMemoized(const JobUnit& unit, std::shared_ptr<DfsFile> file,
                    StepResult* step);
  Result<StepResult> ExecuteWithRetry(const UnitRequest& request,
                                      Status first_error);
  Result<StepResult> OomLadder(const UnitRequest& original,
                               int planned_reducers, Status first_error);
  Result<StepResult> RepartitionFallback(const UnitRequest& original);
  obs::TraceEvent DriverEvent(const char* name) const;
  void Count(const char* name, uint64_t n = 1) const;

  MapReduceEngine* engine_;
  Catalog* catalog_;
  StatsStore* store_;
  const DynoOptions options_;
  const JoinBlock& block_;
  QueryRunReport* report_;
  CheckpointManifest* manifest_;
  obs::TraceSink* trace_;
  const bool can_replan_;
  /// The subtree cache a re-planning run consults and publishes to.
  SubtreeCache* cache_;
  UnitReplayLog* replay_ = nullptr;  ///< Non-null only where replay is exact.
  const SimMillis block_start_;

  PlanExecutor executor_;
  std::vector<LeafExpr> leaves_;
  std::vector<Predicate> non_local_;
  BlockState state_;
  /// Base-leaf cover set of every live relation: which original leaves it
  /// embodies. Checkpoint entries are keyed by cover, because relation ids
  /// are run-local — a resumed run matches entries through this map.
  std::map<std::string, std::set<std::string>> base_cover_;

  std::unique_ptr<PlanNode> plan_;  ///< The optimizer's current plan.
  std::vector<JobUnit> units_;
  std::set<int64_t> executed_;
  std::string previous_plan_;
  bool replan_ = false;
  int permanent_failures_ = 0;
};

}  // namespace dyno

#endif  // DYNO_DYNO_JOIN_BLOCK_RUN_H_
