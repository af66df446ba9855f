// Tests of the cross-query subtree-result cache (DESIGN.md §6.7) and the
// data-version plumbing underneath it: hit/miss/eviction/invalidation
// units, the stale pilot-statistics regression (a table rewritten between
// two queries must not serve pre-rewrite statistics), checkpoint-manifest
// version gating, cache-on vs cache-off byte identity for a repeated TPC-H
// batch through the QueryService, and resume-after-kill with a warm cache.

#include "cache/subtree_cache.h"

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dyno/checkpoint.h"
#include "dyno/driver.h"
#include "pilot/pilot_runner.h"
#include "service/query_service.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

std::string FileBytes(const DfsFile& file) {
  std::string out;
  for (const Split& split : file.splits()) out += split.data;
  return out;
}

std::vector<Value> MakeRows(int n, int tag = 0) {
  std::vector<Value> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)}, {"tag", Value::Int(tag)}}));
  }
  return rows;
}

// --- SubtreeCache units ---

class SubtreeCacheUnitTest : public ::testing::Test {
 protected:
  SubtreeCacheUnitTest() : catalog_(&dfs_) {
    EXPECT_TRUE(catalog_.CreateTable("t", MakeRows(50)).ok());
  }

  std::map<std::string, uint64_t> Versions() {
    return {{"t", catalog_.TableVersion("t")}};
  }

  std::shared_ptr<DfsFile> Rows(const std::string& path, int n, int tag = 0) {
    auto file = WriteRows(&dfs_, path, MakeRows(n, tag));
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return *file;
  }

  static TableStats StatsOf(double cardinality) {
    TableStats stats;
    stats.cardinality = cardinality;
    return stats;
  }

  /// The entry count and pinned bytes a cache built with `&metrics_`
  /// publishes.
  int64_t Entries() { return metrics_.GetGauge("cache.entries")->value(); }
  int64_t Bytes() { return metrics_.GetGauge("cache.bytes")->value(); }

  Dfs dfs_;
  Catalog catalog_;
  obs::MetricsRegistry metrics_;
};

TEST_F(SubtreeCacheUnitTest, HitReturnsPinnedBytesAndStats) {
  SubtreeCache cache(&dfs_, &catalog_, SubtreeCacheOptions(), &metrics_);
  auto result = Rows("/tmp/r1", 10);
  ASSERT_TRUE(cache.Publish("k1", Versions(), *result, StatsOf(10), 5).ok());
  EXPECT_EQ(Entries(), 1);
  EXPECT_GT(Bytes(), 0);

  auto hit = cache.Lookup("k1", 6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(FileBytes(*hit->file), FileBytes(*result));
  EXPECT_DOUBLE_EQ(hit->stats.cardinality, 10.0);
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_FALSE(cache.Lookup("nosuch", 7).has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(SubtreeCacheUnitTest, PinnedCopySurvivesSourceDeletion) {
  SubtreeCache cache(&dfs_, &catalog_, SubtreeCacheOptions());
  auto result = Rows("/tmp/doomed", 8);
  std::string want = FileBytes(*result);
  ASSERT_TRUE(cache.Publish("k", Versions(), *result, StatsOf(8), 1).ok());
  // The publisher's temp directory is reclaimed when its session ends; the
  // cached entry must not dangle.
  ASSERT_TRUE(dfs_.Delete("/tmp/doomed").ok());
  auto hit = cache.Lookup("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(FileBytes(*hit->file), want);
}

TEST_F(SubtreeCacheUnitTest, TableRewriteInvalidatesLazily) {
  SubtreeCache cache(&dfs_, &catalog_, SubtreeCacheOptions(), &metrics_);
  ASSERT_TRUE(
      cache.Publish("k", Versions(), *Rows("/tmp/r", 10), StatsOf(10), 1).ok());
  ASSERT_TRUE(cache.Lookup("k", 2).has_value());

  // Re-point the table at new data: the recorded version no longer matches,
  // so the next lookup must drop the entry instead of serving stale rows.
  Rows("/data/t_v2", 20, /*tag=*/1);
  ASSERT_TRUE(catalog_.ReplaceTable("t", "/data/t_v2").ok());
  EXPECT_FALSE(cache.Lookup("k", 3).has_value());
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(Entries(), 0);
  EXPECT_EQ(Bytes(), 0);
}

TEST_F(SubtreeCacheUnitTest, LruEvictsLeastRecentlyUsed) {
  auto size_of = [&](const char* path) {
    return Rows(path, 40)->num_bytes();
  };
  SubtreeCacheOptions options;
  // Budget for two 40-row results but not three.
  options.max_bytes = 2 * size_of("/tmp/probe") + 1;
  SubtreeCache cache(&dfs_, &catalog_, options);
  ASSERT_TRUE(
      cache.Publish("a", Versions(), *Rows("/tmp/a", 40), StatsOf(40), 1).ok());
  ASSERT_TRUE(
      cache.Publish("b", Versions(), *Rows("/tmp/b", 40), StatsOf(40), 2).ok());
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(cache.Lookup("a", 3).has_value());
  ASSERT_TRUE(
      cache.Publish("c", Versions(), *Rows("/tmp/c", 40), StatsOf(40), 4).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup("a", 5).has_value());
  EXPECT_TRUE(cache.Lookup("c", 6).has_value());
  EXPECT_FALSE(cache.Lookup("b", 7).has_value());
}

TEST_F(SubtreeCacheUnitTest, EntryCountBoundEvicts) {
  SubtreeCacheOptions options;
  options.max_entries = 1;
  SubtreeCache cache(&dfs_, &catalog_, options, &metrics_);
  ASSERT_TRUE(
      cache.Publish("a", Versions(), *Rows("/tmp/a", 5), StatsOf(5), 1).ok());
  ASSERT_TRUE(
      cache.Publish("b", Versions(), *Rows("/tmp/b", 5), StatsOf(5), 2).ok());
  EXPECT_EQ(Entries(), 1);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup("a", 3).has_value());
  EXPECT_TRUE(cache.Lookup("b", 4).has_value());
}

TEST_F(SubtreeCacheUnitTest, OversizedResultNotAdmitted) {
  SubtreeCacheOptions options;
  options.max_bytes = 16;  // Smaller than any real result.
  SubtreeCache cache(&dfs_, &catalog_, options, &metrics_);
  Status st = cache.Publish("big", Versions(), *Rows("/tmp/big", 100),
                            StatsOf(100), 1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(Entries(), 0);
  EXPECT_EQ(Bytes(), 0);
}

TEST_F(SubtreeCacheUnitTest, FirstPublisherWins) {
  SubtreeCache cache(&dfs_, &catalog_, SubtreeCacheOptions(), &metrics_);
  ASSERT_TRUE(
      cache.Publish("k", Versions(), *Rows("/tmp/one", 10), StatsOf(1), 1)
          .ok());
  // Concurrent sessions produce identical bytes for identical keys; the
  // second publish of a still-fresh key is a no-op.
  ASSERT_TRUE(
      cache.Publish("k", Versions(), *Rows("/tmp/two", 10, 9), StatsOf(2), 2)
          .ok());
  EXPECT_EQ(Entries(), 1);
  auto hit = cache.Lookup("k", 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->stats.cardinality, 1.0);
}

// --- The stale pilot-statistics regression ---

// The bug this PR fixes: PilotRunner reused StatsStore entries purely by
// expression signature, so a query running after a table rewrite planned
// from the *old* table's statistics. Stats are now versioned by
// Catalog::TableVersion, making the rewrite a stale miss.
TEST(StalePilotStatsRegressionTest, TableRewriteForcesFreshPilotRun) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 1000;
  config.map_slots = 8;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  ASSERT_TRUE(catalog.CreateTable("t", MakeRows(200)).ok());

  LeafExpr leaf;
  leaf.alias = "a";
  leaf.table = "t";
  leaf.join_columns = {"id"};

  StatsStore store;
  PilotRunOptions options;
  options.reuse_stats = true;
  options.k = 4096;  // Larger than either table: exact cardinalities.

  PilotRunner first(&engine, &catalog, &store, options);
  auto before = first.Run({leaf});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->runs_executed, 1);
  EXPECT_DOUBLE_EQ(before->leaves[0].stats.cardinality, 200.0);

  // Rewrite the table between the two queries (10x more rows).
  auto bigger = WriteRows(&dfs, "/data/t_v2", MakeRows(2000, /*tag=*/1));
  ASSERT_TRUE(bigger.ok());
  ASSERT_TRUE(catalog.ReplaceTable("t", "/data/t_v2").ok());

  // Same signature, same shared store, new data: the cached entry is stale
  // and must be re-measured. (The old behavior reused it — this assertion
  // is the regression tripwire.)
  PilotRunner second(&engine, &catalog, &store, options);
  auto after = second.Run({leaf});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->runs_skipped_cached, 0)
      << "pilot reused statistics of the pre-rewrite table";
  EXPECT_EQ(after->runs_executed, 1);
  EXPECT_DOUBLE_EQ(after->leaves[0].stats.cardinality, 2000.0);
  EXPECT_GT(store.stale_misses(), 0u);

  // Without a rewrite the versioned entry still serves reuse.
  PilotRunner third(&engine, &catalog, &store, options);
  auto again = third.Run({leaf});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->runs_skipped_cached, 1);
  EXPECT_EQ(again->runs_executed, 0);
}

// --- Checkpoint manifest version gating ---

TEST(CheckpointManifestVersionTest, RoundTripPreservesTableVersions) {
  CheckpointManifest manifest;
  manifest.temp_counter = 3;
  manifest.leaf_signatures = {{"a", "t|f"}};
  CheckpointEntry entry;
  entry.signature = "sig";
  entry.relation_id = "t1";
  entry.path = "/p";
  entry.covered = {"a"};
  entry.stats.cardinality = 5;
  entry.table_versions = {{"t", 0xdeadbeefdeadbeefull}, {"u", 1}};
  manifest.entries.push_back(entry);

  auto back = CheckpointManifest::FromValue(manifest.ToValue());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].table_versions, entry.table_versions);
}

TEST(CheckpointManifestVersionTest, RejectsNewerVersion) {
  // A newer manifest is refused outright rather than half-parsed: a rolled-
  // back driver must not trust fields it does not understand.
  StructFields f;
  f.emplace_back("version", Value::Int(CheckpointManifest::kVersion + 1));
  f.emplace_back("temp_counter", Value::Int(0));
  f.emplace_back("leaf_signatures", Value::Array({}));
  f.emplace_back("entries", Value::Array({}));
  auto parsed = CheckpointManifest::FromValue(Value::Struct(std::move(f)));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unsupported version"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointManifestVersionTest, RejectsEntryWithoutTableVersions) {
  // v3 entries must carry their data versions; an entry without them could
  // be substituted over rewritten data.
  StructFields stats;
  stats.emplace_back("cardinality", Value::Double(1));
  stats.emplace_back("avg_record_size", Value::Double(1));
  stats.emplace_back("from_sample", Value::Bool(false));
  stats.emplace_back("columns", Value::Array({}));
  StructFields entry;
  entry.emplace_back("signature", Value::String("s"));
  entry.emplace_back("relation_id", Value::String("t1"));
  entry.emplace_back("path", Value::String("/p"));
  entry.emplace_back("covered", Value::Array({Value::String("a")}));
  entry.emplace_back("stats", Value::Struct(std::move(stats)));
  StructFields f;
  f.emplace_back("version", Value::Int(CheckpointManifest::kVersion));
  f.emplace_back("temp_counter", Value::Int(0));
  f.emplace_back("leaf_signatures", Value::Array({}));
  f.emplace_back("entries", Value::Array({Value::Struct(std::move(entry))}));
  EXPECT_FALSE(
      CheckpointManifest::FromValue(Value::Struct(std::move(f))).ok());
}

// --- End-to-end: cache on/off byte identity over a repeated TPC-H batch ---

class CacheBatchTest : public ::testing::Test {
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

  struct BatchResult {
    std::vector<std::string> result_bytes;  ///< Per query, enqueue order.
    int total_jobs = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_evictions = 0;
  };

  static BatchResult RunBatch(bool with_cache, int repeats = 3) {
    Dfs dfs;
    Catalog catalog(&dfs);
    MapReduceEngine engine(&dfs, MakeConfig());
    TpchConfig tpch;
    tpch.scale = 0.001;
    tpch.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

    StatsStore store;
    QueryServiceOptions opts;
    opts.max_concurrent = 2;
    opts.enable_subtree_cache = with_cache;
    QueryService service(&engine, &catalog, &store, opts);
    for (int i = 0; i < 2 * repeats; ++i) {
      QuerySubmission sub;
      sub.query_id = StrFormat("q%d", i);
      sub.query = (i % 2 == 0) ? MakeTpchQ10() : MakeTpchQ5();
      sub.options.pilot.k = 256;
      sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
      sub.options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
      sub.options.cost.memory_factor = 1.5;
      sub.arrival_offset_ms = 0;
      EXPECT_TRUE(service.Enqueue(std::move(sub)).ok());
    }
    BatchResult out;
    for (const QueryOutcome& outcome : service.RunAll()) {
      EXPECT_TRUE(outcome.status.ok())
          << outcome.query_id << ": " << outcome.status.ToString();
      out.result_bytes.push_back(outcome.report.result == nullptr
                                     ? std::string()
                                     : FileBytes(*outcome.report.result));
      out.total_jobs += outcome.report.jobs_run;
    }
    if (service.subtree_cache() != nullptr) {
      out.cache_hits = service.subtree_cache()->hits();
      out.cache_evictions = service.subtree_cache()->evictions();
    }
    return out;
  }
};

TEST_F(CacheBatchTest, CacheOnOffByteIdentity) {
  BatchResult off = RunBatch(false);
  BatchResult on = RunBatch(true);
  ASSERT_EQ(off.result_bytes.size(), on.result_bytes.size());
  for (size_t i = 0; i < off.result_bytes.size(); ++i) {
    EXPECT_FALSE(off.result_bytes[i].empty()) << "query " << i;
    EXPECT_EQ(off.result_bytes[i], on.result_bytes[i])
        << "query " << i << " result diverged under the cache";
  }
  // The repeated portion of the batch was genuinely served from the cache.
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_GT(on.cache_hits, 0u);
  EXPECT_LT(on.total_jobs, off.total_jobs)
      << "cache hits must replace execution steps, not add to them";
}

TEST_F(CacheBatchTest, TinyCacheEvictsButStaysCorrect) {
  // Degenerate budget: every publish evicts something. Results must still
  // be byte-identical; only the hit rate may suffer.
  Dfs dfs;
  Catalog catalog(&dfs);
  MapReduceEngine engine(&dfs, MakeConfig());
  TpchConfig tpch;
  tpch.scale = 0.001;
  tpch.split_bytes = 8 * 1024;
  ASSERT_TRUE(GenerateTpch(&catalog, tpch).ok());
  StatsStore store;
  QueryServiceOptions opts;
  opts.enable_subtree_cache = true;
  opts.subtree_cache.max_entries = 1;
  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);
  QueryService service(&engine, &catalog, &store, opts);
  BatchResult reference = RunBatch(false, /*repeats=*/2);
  for (int i = 0; i < 4; ++i) {
    QuerySubmission sub;
    sub.query_id = StrFormat("q%d", i);
    sub.query = (i % 2 == 0) ? MakeTpchQ10() : MakeTpchQ5();
    sub.options.pilot.k = 256;
    sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
    sub.options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    sub.options.cost.memory_factor = 1.5;
    sub.arrival_offset_ms = 0;
    ASSERT_TRUE(service.Enqueue(std::move(sub)).ok());
  }
  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    EXPECT_EQ(FileBytes(*outcomes[i].report.result),
              reference.result_bytes[i])
        << "query " << i;
  }
  EXPECT_GT(service.subtree_cache()->evictions(), 0u);
  EXPECT_LE(metrics.GetGauge("cache.entries")->value(), 1);
}

// --- Resume after a driver kill, with a cache warmed by other queries ---

TEST(SubtreeCacheResumeTest, ResumeAfterKillWithWarmCache) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  ASSERT_TRUE(GenerateTpch(&catalog, tpch).ok());

  obs::MetricsRegistry metrics;
  SubtreeCache cache(&dfs, &catalog, SubtreeCacheOptions(), &metrics);
  StatsStore store;
  Query query = MakeTpchQ10();
  DynoOptions base;
  base.pilot.k = 256;
  base.pilot.mode = PilotRunOptions::Mode::kParallel;
  base.cost.max_memory_bytes = config.memory_per_task_bytes;
  base.cost.memory_factor = 1.5;
  base.subtree_cache = &cache;

  // The victim dies after its first accounted step (cold cache: that step
  // executed for real and was published + checkpointed).
  DynoOptions kill = base;
  kill.exec.query_id = "victim";
  kill.checkpoint_path = "/ckpt/warm";
  kill.abort_after_jobs = 1;
  DynoDriver killed(&engine, &catalog, &store, kill);
  auto killed_report = killed.Execute(query);
  ASSERT_FALSE(killed_report.ok());
  EXPECT_EQ(killed_report.status().code(), StatusCode::kCancelled);

  // Another session of the same query runs to completion meanwhile,
  // warming the cache with every subtree.
  DynoOptions other = base;
  other.exec.query_id = "other";
  DynoDriver bystander(&engine, &catalog, &store, other);
  auto other_report = bystander.Execute(query);
  ASSERT_TRUE(other_report.ok()) << other_report.status().ToString();
  ASSERT_GT(metrics.GetGauge("cache.entries")->value(), 0);

  // The resumed victim substitutes its checkpointed step AND serves the
  // rest from the warm cache; the result is byte-identical to the
  // uninterrupted run.
  DynoOptions resume = base;
  resume.exec.query_id = "victim2";
  resume.checkpoint_path = "/ckpt/warm";
  DynoDriver resumed(&engine, &catalog, &store, resume);
  uint64_t hits_before = cache.hits();
  auto resumed_report = resumed.Resume(query);
  ASSERT_TRUE(resumed_report.ok()) << resumed_report.status().ToString();
  EXPECT_GT(resumed_report->resumed_steps, 0)
      << "the checkpointed step must be substituted, not re-executed";
  EXPECT_GT(cache.hits(), hits_before)
      << "the warm cache must serve the remaining steps";
  EXPECT_EQ(FileBytes(*resumed_report->result),
            FileBytes(*other_report->result));
  EXPECT_EQ(resumed_report->result_records, other_report->result_records);
  EXPECT_LT(resumed_report->jobs_run, other_report->jobs_run);

  // And it is still the right answer.
  auto expected = NaiveEvaluateJoinBlock(&catalog, query.join_block);
  ASSERT_TRUE(expected.ok());
  std::vector<Value> actual = MustReadAll(*resumed_report->result);
  std::vector<Value> want = std::move(expected).value();
  SortRowsForComparison(&actual);
  SortRowsForComparison(&want);
  ASSERT_EQ(actual.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(actual[i].Compare(want[i]), 0) << "row " << i;
  }
}

// --- Env knob plumbing ---

TEST(SubtreeCacheOptionsTest, EnvOverridesParse) {
  ScopedEnv env({{"DYNO_SUBTREE_CACHE_MB", "8"},
                 {"DYNO_SUBTREE_CACHE_ENTRIES", "12"},
                 {"DYNO_STATS_CACHE", "0"}});

  QueryServiceOptions service_options;
  service_options.ApplyEnvOverrides();
  EXPECT_TRUE(service_options.enable_subtree_cache);
  EXPECT_EQ(service_options.subtree_cache.max_bytes, 8ull * 1024 * 1024);
  EXPECT_EQ(service_options.subtree_cache.max_entries, 12u);
  EXPECT_FALSE(service_options.share_pilot_stats);

  ScopedEnv off({{"DYNO_SUBTREE_CACHE_MB", "0"}});
  QueryServiceOptions disabled;
  disabled.enable_subtree_cache = true;
  disabled.ApplyEnvOverrides();
  EXPECT_FALSE(disabled.enable_subtree_cache) << "0 MB must disable";
}

}  // namespace
}  // namespace dyno
