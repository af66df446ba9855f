// End-to-end data integrity (DESIGN.md §6.5): checksummed DFS blocks with
// replica re-reads, checksummed shuffle fetches with bounded re-fetch,
// bad-record quarantine with a skip-mode budget, and the driver-side
// recovery pieces (two-generation checkpoint manifests, resume signature
// verification). The tests pit every corrupted run against a clean oracle:
// corruption may cost time, but it must never change a byte of output.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyno/checkpoint.h"
#include "dyno/driver.h"
#include "expr/expr.h"
#include "mr/engine.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "storage/dfs.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

using ScriptedCorruption = FaultConfig::ScriptedCorruption;

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

std::vector<Value> MakeRows(int n) {
  std::vector<Value> rows;
  for (int i = 0; i < n; ++i) rows.push_back(Row(i, i % 7));
  return rows;
}

std::shared_ptr<DfsFile> MakeInput(Dfs* dfs, const std::vector<Value>& rows,
                                   const std::string& path) {
  auto file = WriteRows(dfs, path, rows, /*target_split_bytes=*/128);
  EXPECT_TRUE(file.ok());
  return *file;
}

std::string FileBytes(const DfsFile& file) {
  std::string all;
  for (const Split& split : file.splits()) all += split.data;
  return all;
}

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.job_startup_ms = 1000;
  config.map_slots = 4;
  config.reduce_slots = 2;
  // Pin fault settings: the corruption ctest preset's env vars must not
  // perturb the scripted scenarios below.
  config.faults.use_env_defaults = false;
  config.faults.retry_backoff_ms = 100;
  return config;
}

JobSpec CountByGroup(std::shared_ptr<DfsFile> input,
                     const std::string& out_path) {
  JobSpec spec;
  spec.name = "count-by-group";
  spec.output_path = out_path;
  MapInput mi;
  mi.file = std::move(input);
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), Value::Int(1));
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow(
        {{"g", key},
         {"n", Value::Int(static_cast<int64_t>(values.size()))}}));
    return Status::OK();
  };
  return spec;
}

JobSpec IdentityScan(std::shared_ptr<DfsFile> input,
                     const std::string& out_path) {
  JobSpec spec;
  spec.name = "identity-scan";
  spec.output_path = out_path;
  MapInput mi;
  mi.file = std::move(input);
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  return spec;
}

/// Runs `make_spec` on a fresh cluster with `faults` and returns the result.
JobResult RunJob(const FaultConfig& faults, bool reduce_job,
                 int num_reduce_tasks = 0) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults = faults;
  config.faults.use_env_defaults = false;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);
  auto input = MakeInput(&dfs, MakeRows(400), "/in");
  JobSpec spec =
      reduce_job ? CountByGroup(input, "/out") : IdentityScan(input, "/out");
  spec.num_reduce_tasks = num_reduce_tasks;
  auto result = engine.Submit(spec);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// Block corruption: replica re-reads, attempt retry, permanent DataLoss.
// ---------------------------------------------------------------------------

TEST(BlockCorruptionTest, CorruptReplicasAreHealedByRereadByteIdentically) {
  FaultConfig clean;
  JobResult reference = RunJob(clean, /*reduce_job=*/true);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  FaultConfig faults;
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kBlock, "count-by-group", /*task_id=*/0,
       /*attempt=*/1, /*count=*/2}};
  JobResult healed = RunJob(faults, /*reduce_job=*/true);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();

  // Two bad replicas out of three: the attempt re-reads and succeeds
  // without a retry, paying one extra block read per bad copy.
  EXPECT_EQ(healed.block_corruptions, 2);
  EXPECT_EQ(healed.task_retries, 0);
  EXPECT_GT(healed.Elapsed(), reference.Elapsed());
  ASSERT_NE(healed.output, nullptr);
  EXPECT_EQ(FileBytes(*healed.output), FileBytes(*reference.output))
      << "healed corruption must not change a byte of output";
  EXPECT_EQ(healed.counters.map_input_records,
            reference.counters.map_input_records);
}

TEST(BlockCorruptionTest, AllReplicasCorruptFailsTheAttemptThenRetryHeals) {
  FaultConfig clean;
  JobResult reference = RunJob(clean, /*reduce_job=*/true);
  ASSERT_TRUE(reference.status.ok());

  FaultConfig faults;
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kBlock, "count-by-group", /*task_id=*/0,
       /*attempt=*/1, /*count=*/DfsFile::kDefaultReplicas}};
  JobResult retried = RunJob(faults, /*reduce_job=*/true);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();

  // Every replica read failed its checksum: the attempt dies with DataLoss
  // and the PR2 task-retry ladder re-runs it (attempt 2 reads clean).
  EXPECT_EQ(retried.block_corruptions, DfsFile::kDefaultReplicas);
  EXPECT_GE(retried.task_retries, 1);
  ASSERT_NE(retried.output, nullptr);
  EXPECT_EQ(FileBytes(*retried.output), FileBytes(*reference.output));
}

TEST(BlockCorruptionTest, PersistentCorruptionFailsTheJobWithDataLoss) {
  FaultConfig faults;
  faults.max_task_attempts = 2;
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kBlock, "count-by-group", 0, /*attempt=*/1,
       DfsFile::kDefaultReplicas},
      {ScriptedCorruption::Target::kBlock, "count-by-group", 0, /*attempt=*/2,
       DfsFile::kDefaultReplicas}};
  JobResult doomed = RunJob(faults, /*reduce_job=*/true);
  EXPECT_FALSE(doomed.status.ok());
  EXPECT_EQ(doomed.status.code(), StatusCode::kDataLoss)
      << doomed.status.ToString();
  EXPECT_EQ(doomed.output, nullptr);
}

TEST(BlockCorruptionTest, AtRestBitRotSurfacesAsDataLossNeverWrongAnswer) {
  // Fault model OFF: a genuinely rotten stored byte must still be caught by
  // the mandatory read-side checksum verification, as DataLoss — the job
  // must never silently produce output from the garbled bytes.
  Dfs dfs;
  MapReduceEngine engine(&dfs, BaseConfig());
  auto input = MakeInput(&dfs, MakeRows(400), "/in");
  ASSERT_TRUE(input->CorruptByteForTesting(/*split_index=*/0,
                                           /*byte_offset=*/3, /*mask=*/0x40)
                  .ok());
  auto result = engine.Submit(CountByGroup(input, "/out"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kDataLoss)
      << result->status.ToString();
  EXPECT_EQ(result->output, nullptr);
}

TEST(BlockCorruptionTest, UndecodableRowUnderCleanChecksumIsDataLoss) {
  // The checksum covers what was committed, so it passes; but 0x7f is no
  // value tag, and a row that does not decode is lost data all the same.
  Dfs dfs;
  auto file = dfs.Create("/in");
  ASSERT_TRUE(file.ok());
  Split split;
  split.data = std::string(1, '\x7f');
  split.num_records = 1;
  (*file)->AppendSplit(std::move(split));

  auto rows = DecodeSplitRows((*file)->splits()[0]);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss)
      << rows.status().ToString();
  EXPECT_NE(rows.status().message().find("unknown value tag"),
            std::string::npos)
      << rows.status().ToString();

  MapReduceEngine engine(&dfs, BaseConfig());
  auto result = engine.Submit(IdentityScan(*file, "/out"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kDataLoss)
      << result->status.ToString();
  EXPECT_EQ(result->output, nullptr);
}

// ---------------------------------------------------------------------------
// Shuffle corruption: in-attempt re-fetch, attempt retry, permanent loss.
// ---------------------------------------------------------------------------

TEST(ShuffleCorruptionTest, ChecksumMismatchRefetchesWithinTheAttempt) {
  FaultConfig clean;
  JobResult reference = RunJob(clean, /*reduce_job=*/true);
  ASSERT_TRUE(reference.status.ok());

  FaultConfig faults;
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kShuffle, "count-by-group", /*task_id=*/0,
       /*attempt=*/1, /*count=*/2}};
  JobResult healed = RunJob(faults, /*reduce_job=*/true);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();

  // Two corrupt fetches, budget of max_shuffle_fetch_retries (3): both are
  // re-fetched inside the attempt, reusing the shuffle-retry machinery.
  EXPECT_EQ(healed.checksum_refetches, 2);
  EXPECT_EQ(healed.shuffle_fetch_retries, 2);
  EXPECT_EQ(healed.task_retries, 0);
  EXPECT_GT(healed.Elapsed(), reference.Elapsed());
  ASSERT_NE(healed.output, nullptr);
  EXPECT_EQ(FileBytes(*healed.output), FileBytes(*reference.output));
}

TEST(ShuffleCorruptionTest, RefetchExhaustionFailsTheAttemptThenRetryHeals) {
  FaultConfig clean;
  JobResult reference = RunJob(clean, /*reduce_job=*/true);
  ASSERT_TRUE(reference.status.ok());

  FaultConfig faults;
  faults.max_shuffle_fetch_retries = 3;
  // 4 corrupt fetches > 1 try + 3 re-fetches: the attempt exhausts its
  // budget, fails with DataLoss, and the task-retry ladder takes over.
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kShuffle, "count-by-group", /*task_id=*/0,
       /*attempt=*/1, /*count=*/4}};
  JobResult retried = RunJob(faults, /*reduce_job=*/true);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_EQ(retried.checksum_refetches, 3);
  EXPECT_GE(retried.task_retries, 1);
  ASSERT_NE(retried.output, nullptr);
  EXPECT_EQ(FileBytes(*retried.output), FileBytes(*reference.output));
}

TEST(ShuffleCorruptionTest, PersistentShuffleCorruptionIsDataLoss) {
  FaultConfig faults;
  faults.max_task_attempts = 2;
  faults.scripted_corruptions = {
      {ScriptedCorruption::Target::kShuffle, "count-by-group", 0,
       /*attempt=*/1, /*count=*/4},
      {ScriptedCorruption::Target::kShuffle, "count-by-group", 0,
       /*attempt=*/2, /*count=*/4}};
  JobResult doomed = RunJob(faults, /*reduce_job=*/true);
  EXPECT_FALSE(doomed.status.ok());
  EXPECT_EQ(doomed.status.code(), StatusCode::kDataLoss)
      << doomed.status.ToString();
  EXPECT_EQ(doomed.output, nullptr);
}

TEST(ShuffleCorruptionTest, RandomCorruptionRatesStillYieldCleanOutput) {
  FaultConfig clean;
  JobResult reference = RunJob(clean, /*reduce_job=*/true,
                               /*num_reduce_tasks=*/8);
  ASSERT_TRUE(reference.status.ok());

  FaultConfig faults;
  faults.seed = 17;
  faults.block_corruption_rate = 0.05;
  faults.shuffle_corruption_rate = 0.5;
  JobResult noisy = RunJob(faults, /*reduce_job=*/true,
                           /*num_reduce_tasks=*/8);
  ASSERT_TRUE(noisy.status.ok()) << noisy.status.ToString();
  EXPECT_GT(noisy.block_corruptions, 0)
      << "the Bernoulli block-corruption stream must fire at this rate";
  EXPECT_GT(noisy.checksum_refetches, 0)
      << "the Bernoulli shuffle-corruption stream must fire at this rate";
  ASSERT_NE(noisy.output, nullptr);
  EXPECT_EQ(FileBytes(*noisy.output), FileBytes(*reference.output));
  EXPECT_EQ(noisy.counters.output_records, reference.counters.output_records);
}

// ---------------------------------------------------------------------------
// Poison records: skip mode, quarantine file, budget exhaustion.
// ---------------------------------------------------------------------------

TEST(QuarantineTest, PoisonRecordsArePartitionedExactlyIntoQuarantine) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 5;
  config.faults.poison_record_rate = 0.03;
  config.faults.max_skipped_records = -1;  // unlimited
  MapReduceEngine engine(&dfs, config);
  std::vector<Value> rows = MakeRows(400);
  auto input = MakeInput(&dfs, rows, "/in");

  auto result = engine.Submit(IdentityScan(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  ASSERT_GT(result->records_quarantined, 0u)
      << "no poison record fired at this rate/seed";
  // Two failed attempts per poisoned task before skip mode kicks in.
  EXPECT_GE(result->task_retries, 2);

  // The quarantine file holds exactly the poison records...
  ASSERT_EQ(result->quarantine_path, "/out.quarantine");
  auto qfile = dfs.Open(result->quarantine_path);
  ASSERT_TRUE(qfile.ok());
  std::vector<Value> quarantined = MustReadAll(**qfile);
  ASSERT_EQ(quarantined.size(), result->records_quarantined);

  // ...and output ∪ quarantine reassembles the input exactly: every record
  // is either processed or quarantined, never dropped, never duplicated.
  std::vector<Value> output = MustReadAll(*result->output);
  EXPECT_EQ(output.size() + quarantined.size(), rows.size());
  EXPECT_EQ(result->counters.output_records,
            rows.size() - result->records_quarantined);
  std::vector<Value> reunion = output;
  reunion.insert(reunion.end(), quarantined.begin(), quarantined.end());
  std::vector<Value> want = rows;
  SortRowsForComparison(&reunion);
  SortRowsForComparison(&want);
  ASSERT_EQ(reunion.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(reunion[i].Compare(want[i]), 0) << "row " << i;
  }
}

TEST(QuarantineTest, OutputAndStatsMatchOracleRunOnPrePoisonedData) {
  // Acceptance oracle: a poisoned run must produce byte-for-byte the rows —
  // and the observed statistics — of a clean run over the input with the
  // quarantined records already removed.
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 5;
  config.faults.poison_record_rate = 0.03;
  config.faults.max_skipped_records = 100;
  MapReduceEngine engine(&dfs, config);
  std::vector<Value> rows = MakeRows(400);
  auto input = MakeInput(&dfs, rows, "/in");

  uint64_t observed = 0;
  JobSpec spec = CountByGroup(input, "/out");
  spec.output_observer = [&observed](const Value&) { ++observed; };
  auto poisoned = engine.Submit(spec);
  ASSERT_TRUE(poisoned.ok());
  ASSERT_TRUE(poisoned->status.ok()) << poisoned->status.ToString();
  ASSERT_GT(poisoned->records_quarantined, 0u);

  auto qfile = dfs.Open(poisoned->quarantine_path);
  ASSERT_TRUE(qfile.ok());
  std::multiset<int64_t> poison_ids;
  for (const Value& record : MustReadAll(**qfile)) {
    poison_ids.insert(record.FindField("id")->int_value());
  }

  // Oracle: same job, clean cluster, input minus exactly those records.
  Dfs oracle_dfs;
  MapReduceEngine oracle_engine(&oracle_dfs, BaseConfig());
  std::vector<Value> pruned;
  for (const Value& row : rows) {
    auto it = poison_ids.find(row.FindField("id")->int_value());
    if (it != poison_ids.end()) {
      poison_ids.erase(it);
      continue;
    }
    pruned.push_back(row);
  }
  EXPECT_TRUE(poison_ids.empty()) << "quarantined a record not in the input";
  auto oracle_input = MakeInput(&oracle_dfs, pruned, "/in");
  uint64_t oracle_observed = 0;
  JobSpec oracle_spec = CountByGroup(oracle_input, "/out");
  oracle_spec.output_observer = [&oracle_observed](const Value&) {
    ++oracle_observed;
  };
  auto oracle = oracle_engine.Submit(oracle_spec);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->status.ok()) << oracle->status.ToString();

  std::vector<Value> got = MustReadAll(*poisoned->output);
  std::vector<Value> want = MustReadAll(*oracle->output);
  SortRowsForComparison(&got);
  SortRowsForComparison(&want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].Compare(want[i]), 0) << "row " << i;
  }
  EXPECT_EQ(poisoned->counters.output_records,
            oracle->counters.output_records);
  // Observed stats count quarantined records as excluded: the observer saw
  // exactly what it would have seen on the pre-poisoned data.
  EXPECT_EQ(observed, oracle_observed);
}

TEST(QuarantineTest, ExceedingTheSkipBudgetIsPermanentDataLoss) {
  FaultConfig faults;
  faults.seed = 5;
  faults.poison_record_rate = 0.2;
  faults.max_skipped_records = 2;
  JobResult doomed = RunJob(faults, /*reduce_job=*/false);
  EXPECT_FALSE(doomed.status.ok());
  EXPECT_EQ(doomed.status.code(), StatusCode::kDataLoss)
      << doomed.status.ToString();
  EXPECT_NE(doomed.status.ToString().find("max_skipped_records"),
            std::string::npos)
      << doomed.status.ToString();
  EXPECT_EQ(doomed.output, nullptr);
}

// ---------------------------------------------------------------------------
// Checkpoint manifest: CRC framing + previous-generation fallback.
// ---------------------------------------------------------------------------

TableStats SampleStats(double card) {
  TableStats stats;
  stats.cardinality = card;
  stats.avg_record_size = 21.0;
  stats.from_sample = true;
  return stats;
}

TEST(ManifestFallbackTest, TornLiveManifestFallsBackToPreviousGeneration) {
  Dfs dfs;
  CheckpointManifest manifest;
  manifest.temp_counter = 1;
  CheckpointEntry entry;
  entry.signature = "join(a,b)";
  entry.relation_id = "t1";
  entry.path = "/tmp/dyno/e1_t1";
  entry.covered = {"a", "b"};
  entry.stats = SampleStats(10.0);
  manifest.entries.push_back(entry);
  ASSERT_TRUE(manifest.WriteTo(&dfs, "/ckpt").ok());

  // Second write: the first generation is preserved as /ckpt.prev.
  manifest.temp_counter = 2;
  ASSERT_TRUE(manifest.WriteTo(&dfs, "/ckpt").ok());
  ASSERT_TRUE(dfs.Exists("/ckpt" + std::string(CheckpointManifest::kPrevSuffix)));

  // Bit-rot the live manifest: the CRC framing turns it into DataLoss...
  auto live = dfs.Open("/ckpt");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->CorruptByteForTesting(0, 5, 0x10).ok());
  auto direct = CheckpointManifest::ReadFrom(dfs, "/ckpt");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kDataLoss)
      << direct.status().ToString();

  // ...and the fallback recovers the previous generation.
  bool used_fallback = false;
  auto recovered =
      CheckpointManifest::ReadWithFallback(dfs, "/ckpt", &used_fallback);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(recovered->temp_counter, 1);
  ASSERT_EQ(recovered->entries.size(), 1u);
  EXPECT_EQ(recovered->entries[0].signature, "join(a,b)");

  // Both generations gone reports the live manifest's own error.
  ASSERT_TRUE(
      dfs.Delete("/ckpt" + std::string(CheckpointManifest::kPrevSuffix)).ok());
  auto lost = CheckpointManifest::ReadWithFallback(dfs, "/ckpt", &used_fallback);
  EXPECT_FALSE(lost.ok());
  EXPECT_FALSE(used_fallback);
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Driver: manifest fallback on resume, and resume signature verification.
// ---------------------------------------------------------------------------

class DriverIntegrityTest : public ::testing::Test {
 protected:
  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    config.faults.use_env_defaults = false;
    return config;
  }

  static DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    options.cost.memory_factor = 1.5;
    options.checkpoint_path = "/ckpt/query";
    return options;
  }

  struct Site {
    Dfs dfs;
    Catalog catalog{&dfs};
    MapReduceEngine engine{&dfs, MakeConfig()};
    Site() {
      TpchConfig config;
      config.scale = 0.0005;
      config.split_bytes = 8 * 1024;
      EXPECT_TRUE(GenerateTpch(&catalog, config).ok());
    }
  };
};

TEST_F(DriverIntegrityTest, ResumeFallsBackToPreviousManifestGeneration) {
  Query query = MakeTpchQ10();
  const std::string prev_path =
      MakeOptions().checkpoint_path + CheckpointManifest::kPrevSuffix;

  // Reference: the same query, never interrupted.
  Site ref_site;
  StatsStore ref_store;
  DynoDriver ref_driver(&ref_site.engine, &ref_site.catalog, &ref_store,
                        MakeOptions());
  auto ref_report = ref_driver.Execute(query);
  ASSERT_TRUE(ref_report.ok()) << ref_report.status().ToString();
  ASSERT_NE(ref_report->result, nullptr);
  const std::string ref_bytes = FileBytes(*ref_report->result);

  // Kill the driver late enough that the manifest was rewritten at least
  // once (so a previous generation exists on the DFS).
  std::unique_ptr<Site> site;
  bool staged = false;
  for (int abort_after = 2; abort_after <= 6 && !staged; ++abort_after) {
    site = std::make_unique<Site>();
    StatsStore store;
    DynoOptions kill = MakeOptions();
    kill.abort_after_jobs = abort_after;
    DynoDriver driver(&site->engine, &site->catalog, &store, kill);
    auto report = driver.Execute(query);
    staged = !report.ok() &&
             report.status().code() == StatusCode::kCancelled &&
             site->dfs.Exists(prev_path);
  }
  ASSERT_TRUE(staged) << "no kill point left a two-generation checkpoint";

  // Tear the live manifest (a mid-rewrite death): its CRC no longer checks.
  auto live = site->dfs.Open(MakeOptions().checkpoint_path);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->CorruptByteForTesting(0, 7, 0x20).ok());

  StatsStore resumed_store;
  DynoDriver resumed(&site->engine, &site->catalog, &resumed_store,
                     MakeOptions());
  auto resumed_report = resumed.Resume(query);
  ASSERT_TRUE(resumed_report.ok()) << resumed_report.status().ToString();
  EXPECT_EQ(resumed_report->manifest_fallbacks, 1);
  EXPECT_GT(resumed_report->resumed_steps, 0)
      << "the previous generation's steps must be reused";
  ASSERT_NE(resumed_report->result, nullptr);
  EXPECT_EQ(FileBytes(*resumed_report->result), ref_bytes)
      << "resume via the fallback generation must still be byte-identical";
  EXPECT_EQ(resumed_report->result_records, ref_report->result_records);
}

TEST_F(DriverIntegrityTest, ResumeRefusesWhenQueryTextChanged) {
  Site site;
  StatsStore store;
  DynoDriver driver(&site.engine, &site.catalog, &store, MakeOptions());
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Same aliases, different predicate constant: the leaf signature drifts,
  // so the checkpointed subtrees no longer describe this query.
  Query changed = MakeTpchQ10();
  changed.join_block.predicates[1] = {Eq(Col("l_returnflag"),
                                         LitString("N")),
                                      {"l"}};
  StatsStore changed_store;
  DynoDriver changed_driver(&site.engine, &site.catalog, &changed_store,
                            MakeOptions());
  auto refused = changed_driver.Resume(changed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("leaf"), std::string::npos)
      << refused.status().ToString();

  // A structurally different query (other aliases entirely) is refused too.
  StatsStore other_store;
  DynoDriver other_driver(&site.engine, &site.catalog, &other_store,
                          MakeOptions());
  auto other = other_driver.Resume(MakeTpchQ2());
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kInvalidArgument)
      << other.status().ToString();

  // The unchanged query still resumes fine against the same manifest.
  StatsStore same_store;
  DynoDriver same_driver(&site.engine, &site.catalog, &same_store,
                         MakeOptions());
  auto same = same_driver.Resume(MakeTpchQ10());
  EXPECT_TRUE(same.ok()) << same.status().ToString();
}

}  // namespace
}  // namespace dyno
