// Unit tests of the multi-query service (DESIGN.md §6.6): admission-queue
// backpressure, per-tenant slot quotas, mid-flight cancellation, and the
// cross-query isolation the service depends on — two concurrent identical
// queries must not share temp paths, checkpoint manifests, catalog block
// registrations or engine fault streams.

#include "service/query_service.h"

#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    config.faults.use_env_defaults = false;
    return config;
  }

  DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    options.cost.memory_factor = 1.5;
    return options;
  }

  QuerySubmission MakeSubmission(const std::string& id, const Query& query,
                                 SimMillis arrival = 0) {
    QuerySubmission sub;
    sub.query_id = id;
    sub.query = query;
    sub.options = MakeOptions();
    sub.arrival_offset_ms = arrival;
    return sub;
  }

  void ExpectMatchesOracle(const Query& query, const QueryRunReport& report) {
    auto expected = NaiveEvaluateJoinBlock(&catalog_, query.join_block);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_NE(report.result, nullptr);
    std::vector<Value> actual = MustReadAll(*report.result);
    std::vector<Value> want = std::move(expected).value();
    SortRowsForComparison(&actual);
    SortRowsForComparison(&want);
    ASSERT_EQ(actual.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(actual[i].Compare(want[i]), 0) << "row " << i;
    }
  }

  /// Every DFS path under the per-query temp directories.
  std::set<std::string> QueryTempFiles() const {
    std::set<std::string> paths;
    for (const std::string& path : dfs_.List()) {
      if (StartsWith(path, "/tmp/dyno/q/")) paths.insert(path);
    }
    return paths;
  }

  /// Every DFS path that is not a catalog table's file.
  std::set<std::string> NonTableFiles() const {
    std::set<std::string> tables;
    for (const std::string& name : catalog_.TableNames()) {
      auto file = catalog_.OpenTable(name);
      if (file.ok()) tables.insert((*file)->path());
    }
    std::set<std::string> paths;
    for (const std::string& path : dfs_.List()) {
      if (tables.count(path) == 0) paths.insert(path);
    }
    return paths;
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
};

TEST_F(QueryServiceTest, TwoConcurrentIdenticalQueriesAreIsolated) {
  // The acid test for per-query scoping: the same query text twice, both
  // admitted at t=0, with a *shared* checkpoint-path template. Without
  // query-scoped temp paths / manifests the sessions would overwrite each
  // other's DFS artifacts.
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  // The `concurrency` ctest preset drives these knobs via DYNO_* env vars;
  // distinct tenants keep both sessions admissible under a 1-slot quota.
  opts.ApplyEnvOverrides();
  QueryService service(&engine_, &catalog_, &store_, opts);

  QuerySubmission a = MakeSubmission("qa", MakeTpchQ10());
  QuerySubmission b = MakeSubmission("qb", MakeTpchQ10());
  a.tenant = "ta";
  b.tenant = "tb";
  a.options.checkpoint_path = "/ckpt/svc";
  b.options.checkpoint_path = "/ckpt/svc";
  ASSERT_TRUE(service.Enqueue(a).ok());
  ASSERT_TRUE(service.Enqueue(b).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const QueryOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.query_id << ": "
                                     << outcome.status.ToString();
    EXPECT_EQ(outcome.admit_ms, outcomes[0].arrival_ms);
    EXPECT_GT(outcome.slot_ms, 0) << "slot accounting missing for "
                                  << outcome.query_id;
    ExpectMatchesOracle(MakeTpchQ10(), outcome.report);
  }
  // Interleaved execution genuinely happened: both were admitted together
  // and the checkpoint manifests landed in per-query namespaces.
  EXPECT_TRUE(dfs_.Exists("/ckpt/svc/q/qa"));
  EXPECT_TRUE(dfs_.Exists("/ckpt/svc/q/qb"));
  // Identical queries produce identical accounting (the fault model is off,
  // so their per-query fault streams cannot diverge them).
  EXPECT_EQ(outcomes[0].report.jobs_run, outcomes[1].report.jobs_run);
  EXPECT_EQ(outcomes[0].report.result_records,
            outcomes[1].report.result_records);
}

TEST_F(QueryServiceTest, SessionsRunOnTheCallersThread) {
  // Every session runs on a fiber of RunAll's caller: a UDF evaluated by
  // the driver itself (predicate reordering samples each conjunct) and by
  // the engine's map tasks sees one thread id, the test's own.
  std::vector<std::thread::id> seen;
  Query query = MakeTpchQ10();
  query.join_block.predicates.push_back(
      {MakeUdf("record_thread", 1.0,
               [&seen](const Value&) -> Result<Value> {
                 seen.push_back(std::this_thread::get_id());
                 return Value::Bool(true);
               }),
       {"o"}});
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  QueryService service(&engine_, &catalog_, &store_, opts);
  for (const char* id : {"qa", "qb"}) {
    QuerySubmission sub = MakeSubmission(id, query);
    sub.options.reorder_local_predicates = true;
    ASSERT_TRUE(service.Enqueue(sub).ok());
  }

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_FALSE(seen.empty());
  for (const std::thread::id& id : seen) {
    ASSERT_EQ(id, std::this_thread::get_id());
  }
  ASSERT_EQ(outcomes.size(), 2u);
  for (const QueryOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.query_id << ": "
                                     << outcome.status.ToString();
    EXPECT_EQ(outcome.admit_ms, outcomes[0].arrival_ms);
    ExpectMatchesOracle(query, outcome.report);
  }
}

TEST_F(QueryServiceTest, AdmissionQueueOverflowIsBackpressure) {
  QueryServiceOptions opts;
  opts.max_concurrent = 1;
  opts.admission_queue_limit = 2;
  QueryService service(&engine_, &catalog_, &store_, opts);

  ASSERT_TRUE(service.Enqueue(MakeSubmission("q1", MakeTpchQ10())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("q2", MakeTpchQ10())).ok());
  Status overflow = service.Enqueue(MakeSubmission("q3", MakeTpchQ10()));
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted)
      << overflow.ToString();

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[1].status.ok());
  // max_concurrent=1 serializes them: q2 is admitted only after q1 is done.
  EXPECT_GE(outcomes[1].admit_ms, outcomes[0].finish_ms);
}

TEST_F(QueryServiceTest, RejectsEmptyAndDuplicateQueryIds) {
  QueryService service(&engine_, &catalog_, &store_, QueryServiceOptions());
  EXPECT_EQ(service.Enqueue(MakeSubmission("", MakeTpchQ10())).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Enqueue(MakeSubmission("dup", MakeTpchQ10())).ok());
  EXPECT_EQ(service.Enqueue(MakeSubmission("dup", MakeTpchQ10())).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, TenantQuotaDoesNotBlockOtherTenants) {
  QueryServiceOptions opts;
  opts.max_concurrent = 4;
  opts.tenant_slots = 1;
  QueryService service(&engine_, &catalog_, &store_, opts);

  QuerySubmission a1 = MakeSubmission("a1", MakeTpchQ10());
  QuerySubmission a2 = MakeSubmission("a2", MakeTpchQ10());
  QuerySubmission b1 = MakeSubmission("b1", MakeTpchQ10());
  a1.tenant = "a";
  a2.tenant = "a";
  b1.tenant = "b";
  ASSERT_TRUE(service.Enqueue(a1).ok());
  ASSERT_TRUE(service.Enqueue(a2).ok());
  ASSERT_TRUE(service.Enqueue(b1).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const QueryOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.query_id;
  }
  // a1 and b1 start together: b1 queued *behind* the quota-blocked a2 but
  // must not wait behind it. a2 waits for tenant a's slot.
  EXPECT_EQ(outcomes[2].admit_ms, outcomes[0].admit_ms);
  EXPECT_GE(outcomes[1].admit_ms, outcomes[0].finish_ms);
}

TEST_F(QueryServiceTest, CancelBeforeAdmissionNeverStarts) {
  QueryService service(&engine_, &catalog_, &store_, QueryServiceOptions());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("gone", MakeTpchQ10())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("kept", MakeTpchQ10())).ok());
  ASSERT_TRUE(service.Cancel("gone").ok());
  EXPECT_EQ(service.Cancel("nosuch").code(), StatusCode::kNotFound);

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcomes[0].admit_ms, -1) << "cancelled query must not admit";
  ASSERT_TRUE(outcomes[1].status.ok());
  ExpectMatchesOracle(MakeTpchQ10(), outcomes[1].report);
}

TEST_F(QueryServiceTest, MidFlightCancellationStopsAtNextSubmission) {
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  opts.ApplyEnvOverrides();
  QueryService service(&engine_, &catalog_, &store_, opts);
  QuerySubmission victim = MakeSubmission("victim", MakeTpchQ10());
  QuerySubmission bystander = MakeSubmission("bystander", MakeTpchQ10());
  victim.tenant = "ta";
  bystander.tenant = "tb";
  ASSERT_TRUE(service.Enqueue(victim).ok());
  ASSERT_TRUE(service.Enqueue(bystander).ok());
  // Applied once the cluster clock passes 1 ms — i.e. after the first wave
  // of pilot jobs, squarely mid-query.
  ASSERT_TRUE(service.CancelAt("victim", 1).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kCancelled);
  EXPECT_GE(outcomes[0].admit_ms, 0) << "victim should have been admitted";
  EXPECT_GE(outcomes[0].finish_ms, outcomes[0].admit_ms);
  ASSERT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();
  ExpectMatchesOracle(MakeTpchQ10(), outcomes[1].report);
}

TEST_F(QueryServiceTest, CancelIsIdempotent) {
  // Double-cancelling a queued query, cancelling an already-finished one,
  // and a timed cancel landing after the fact must all be OK no-ops — one
  // cancelled outcome, one finalization, no crash. NotFound stays reserved
  // for ids the service has never seen.
  QueryService service(&engine_, &catalog_, &store_, QueryServiceOptions());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("gone", MakeTpchQ10())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("kept", MakeTpchQ10())).ok());
  EXPECT_TRUE(service.Cancel("gone").ok());
  EXPECT_TRUE(service.Cancel("gone").ok()) << "double cancel must be a no-op";
  EXPECT_TRUE(service.CancelAt("gone", 10).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();

  // After RunAll both sessions are finished; cancelling them again (in any
  // flavor) is an OK no-op, and unknown ids are still NotFound.
  EXPECT_TRUE(service.Cancel("kept").ok());
  EXPECT_TRUE(service.Cancel("kept").ok());
  EXPECT_TRUE(service.Cancel("gone").ok());
  EXPECT_TRUE(service.CancelAt("kept", 1).ok());
  EXPECT_EQ(service.Cancel("nosuch").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CancelAt("nosuch", 1).code(), StatusCode::kNotFound);
}

// Finalization reclaims a session's intermediates: once RunAll returns, the
// only file left under a finished query's temp directory is its result.
TEST_F(QueryServiceTest, FinishedSessionsLeaveOnlyTheirResultFiles) {
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  QueryService service(&engine_, &catalog_, &store_, opts);
  ASSERT_TRUE(service.Enqueue(MakeSubmission("ra", MakeTpchQ10())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("rb", MakeTpchQ10())).ok());
  std::set<std::string> results;
  for (const QueryOutcome& outcome : service.RunAll()) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    results.insert(outcome.report.result->path());
  }
  // Nothing else a session wrote outlives it, pilot outputs included.
  EXPECT_EQ(NonTableFiles(), results);
}

// A halt reclaims nothing: the halted session's checkpointed intermediates
// are what its successor resumes from. The successor's finalization then
// reclaims them.
TEST_F(QueryServiceTest, HaltedSessionKeepsIntermediatesUntilRecovered) {
  QueryServiceOptions opts;
  opts.checkpoint_root = "/svc";
  opts.halt_at_ms = 6000;
  QuerySubmission sub = MakeSubmission("rh", MakeTpchQ10());
  {
    QueryService crashed(&engine_, &catalog_, &store_, opts);
    ASSERT_TRUE(crashed.Enqueue(sub).ok());
    std::vector<QueryOutcome> first = crashed.RunAll();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status.code(), StatusCode::kCancelled);
  }
  EXPECT_FALSE(QueryTempFiles().empty())
      << "a halted session's intermediates must survive for recovery";

  opts.halt_at_ms = -1;
  QueryService recovered(&engine_, &catalog_, &store_, opts);
  auto count = recovered.RecoverPending({sub});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count.value(), 1);
  std::vector<QueryOutcome> second = recovered.RunAll();
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].status.ok()) << second[0].status.ToString();
  EXPECT_GE(second[0].report.resumed_steps, 1);
  ExpectMatchesOracle(MakeTpchQ10(), second[0].report);
  EXPECT_EQ(QueryTempFiles(),
            std::set<std::string>{second[0].report.result->path()});
}

// Reclamation keeps the poison records: every `<output>.quarantine` file
// survives finalization. Here that is the result's, next to the result, and
// those of the two pilot full outputs that hold skipped records, customer
// (c) and orders (o). The pilot run counter in their names is process-wide,
// so it is read off the listing.
TEST_F(QueryServiceTest, FinalizationKeepsQuarantineFiles) {
  ClusterConfig config = MakeConfig();
  config.faults.seed = 3;
  config.faults.poison_record_rate = 0.01;
  config.faults.max_skipped_records = -1;
  MapReduceEngine engine(&dfs_, config);
  QueryService service(&engine, &catalog_, &store_, QueryServiceOptions{});
  ASSERT_TRUE(service.Enqueue(MakeSubmission("rp", MakeTpchQ10())).ok());
  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  ASSERT_GT(outcomes[0].report.records_quarantined, 0u)
      << "no poison record fired at this rate/seed";
  const std::string result = outcomes[0].report.result->path();
  const std::string full = QueryTempDir("rp") + "/full_";
  std::string run;
  for (const std::string& path : QueryTempFiles()) {
    if (StartsWith(path, full)) {
      run = path.substr(full.size(), path.find('_', full.size()) - full.size());
      break;
    }
  }
  EXPECT_EQ(QueryTempFiles(),
            (std::set<std::string>{result, result + ".quarantine",
                                   full + run + "_c.quarantine",
                                   full + run + "_o.quarantine"}));
}

// The service owns the temp directory it reclaims: a caller-set
// exec.query_id shared by two submissions is replaced by each submission's
// own id, so neither session's finalization deletes the other's files.
TEST_F(QueryServiceTest, CallerQueryIdDoesNotShareTempDirectory) {
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  QueryService service(&engine_, &catalog_, &store_, opts);
  for (const char* id : {"sa", "sb"}) {
    QuerySubmission sub = MakeSubmission(id, MakeTpchQ10());
    sub.options.exec.query_id = "shared";
    ASSERT_TRUE(service.Enqueue(sub).ok());
  }
  std::set<std::string> results;
  for (const QueryOutcome& outcome : service.RunAll()) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    const std::string path = outcome.report.result->path();
    EXPECT_TRUE(StartsWith(path, "/tmp/dyno/q/" + outcome.query_id + "/"))
        << path;
    ExpectMatchesOracle(MakeTpchQ10(), outcome.report);
    results.insert(path);
  }
  EXPECT_EQ(QueryTempFiles(), results);
}

TEST_F(QueryServiceTest, ArrivalScheduleIsSeededAndDeterministic) {
  auto arrivals = [&](uint64_t seed) {
    QueryServiceOptions opts;
    opts.seed = seed;
    opts.arrival_window_ms = 10000;
    QueryService service(&engine_, &catalog_, &store_, opts);
    std::string out;
    for (int i = 0; i < 4; ++i) {
      QuerySubmission sub =
          MakeSubmission(StrFormat("q%d", i), MakeTpchQ10());
      sub.arrival_offset_ms = -1;  // draw from the service stream
      EXPECT_TRUE(service.Enqueue(sub).ok());
    }
    // Arrival offsets surface through outcomes; avoid running 4 queries by
    // cancelling everything first — cancelled-before-admission outcomes
    // still report their arrival times.
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(service.Cancel(StrFormat("q%d", i)).ok());
    }
    for (const QueryOutcome& outcome : service.RunAll()) {
      out += StrFormat("%lld,", (long long)outcome.arrival_ms);
    }
    return out;
  };
  std::string a = arrivals(7);
  EXPECT_EQ(a, arrivals(7));
  EXPECT_NE(a, arrivals(8));
}

// Satellite regression for the engine audit: the per-job fault stream used
// to be seeded by job name alone, so two queries running an identically
// named job drew *the same* faults — correlated failures that do not exist
// on a real cluster. The stream is now salted with JobSpec::query_id.
TEST(QueryFaultStreamTest, IdenticalJobNamesDrawIndependentFaultStreams) {
  auto run = [](const std::string& query_id) {
    Dfs dfs;
    Catalog catalog(&dfs);
    ClusterConfig config;
    config.map_slots = 4;
    config.reduce_slots = 2;
    config.job_startup_ms = 500;
    config.faults.use_env_defaults = false;
    config.faults.seed = 42;
    config.faults.task_failure_rate = 0.35;
    config.faults.straggler_rate = 0.3;
    config.faults.straggler_slowdown = 6.0;
    config.faults.retry_backoff_ms = 200;
    MapReduceEngine engine(&dfs, config);

    std::vector<Value> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back(MakeRow({{"id", Value::Int(i)},
                              {"pad", Value::String(std::string(40, 'x'))}}));
    }
    EXPECT_TRUE(catalog.CreateTable("t", rows).ok());
    auto file = catalog.OpenTable("t");
    EXPECT_TRUE(file.ok());

    JobSpec spec;
    spec.name = "samename";  // deliberately identical across queries
    spec.query_id = query_id;
    spec.output_path = "/out/" + (query_id.empty() ? "legacy" : query_id);
    MapInput input;
    input.file = *file;
    input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {std::move(input)};

    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    return StrFormat("inj=%d retry=%d spec=%d finish=%lld",
                     result->task_failures_injected, result->task_retries,
                     result->speculative_launches,
                     (long long)(result->finish_time_ms -
                                 result->submit_time_ms));
  };
  // Same query id → same stream (reproducibility preserved).
  EXPECT_EQ(run("qa"), run("qa"));
  // Different query ids → independent streams for the same job name.
  EXPECT_NE(run("qa"), run("qb"));
  // Empty id → the pre-service legacy stream, still stable.
  EXPECT_EQ(run(""), run(""));
}

}  // namespace
}  // namespace dyno
