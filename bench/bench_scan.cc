// Scan/shuffle microbenchmark for the columnar data plane (DESIGN.md §6.8):
// the same scripted workload runs once with the row data plane and once
// with DYNO_COLUMNAR + DYNO_ZONE_MAPS on, at engine level so the numbers
// are pure scan/shuffle cost (no pilot or optimizer time). Three legs:
//
//   pruned   - selective range window over a timestamp-clustered table;
//              zone maps skip ~7/8 of the splits before any read.
//   residual - unclustered predicate (no split is provably empty); the
//              columnar arm still wins on smaller physical reads and the
//              vectorized predicate discount.
//   shuffle  - unfiltered map-reduce group-count; columnar decode feeding
//              the full shuffle/merge path.
//
// Writes BENCH_scan.json (override the path with DYNO_BENCH_SCAN_OUT).
//
// CI gates: every leg's output must be byte-identical across the two arms,
// the pruned leg must prune at least half the splits AND run at least 2x
// faster columnar, and no leg may be slower columnar.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/knobs.h"
#include "exec/row_ops.h"
#include "expr/expr.h"
#include "mr/engine.h"
#include "storage/dfs.h"

using namespace dyno;
using namespace dyno::bench;

namespace {

constexpr int kRows = 40000;
constexpr uint64_t kSplitBytes = 64 * 1024;

void SetKnobs(bool on) {
  setenv("DYNO_COLUMNAR", on ? "1" : "0", 1);
  setenv("DYNO_ZONE_MAPS", on ? "1" : "0", 1);
}

/// The scripted table: timestamp-clustered event log. `ts` increases with
/// the row index (zone-map friendly); `ev` cycles (never prunable).
std::vector<Value> MakeEventRows() {
  std::vector<Value> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(MakeRow({{"ts", Value::Int(1000000 + i)},
                            {"ev", Value::Int(i % 23)},
                            {"v", Value::Double(i * 0.5)},
                            {"pad", Value::String(std::string(80, 'p'))}}));
  }
  return rows;
}

struct LegResult {
  SimMillis elapsed_ms = 0;
  std::string output_bytes;     ///< Concatenated result split payloads.
  uint64_t output_records = 0;
  uint64_t input_bytes = 0;     ///< Billed map input bytes.
  uint64_t splits_total = 0;
  uint64_t splits_pruned = 0;
};

/// One engine-level scan job, configured exactly like the driver's leaf
/// scan: columnar pushes the filter into the batch evaluator, zone maps
/// drop provably-empty splits before submission.
LegResult RunScanLeg(MapReduceEngine* engine, std::shared_ptr<DfsFile> file,
                     const ExprPtr& filter, const std::string& out_path) {
  LegResult leg;
  leg.splits_total = file->splits().size();

  JobSpec spec;
  spec.name = "bench_scan";
  spec.output_path = out_path;
  MapInput input;
  input.file = file;
  ExprPtr closure_filter = filter;
  if (KnobEnabled(Knob::DYNO_COLUMNAR) && filter != nullptr) {
    input.scan_filter = filter;
    input.scan_filter_cpu = filter->CpuCost();
    input.cpu_per_record = 1.0;
    closure_filter = nullptr;
  } else {
    input.cpu_per_record = 1.0 + (filter ? filter->CpuCost() : 0.0);
  }
  if (KnobEnabled(Knob::DYNO_ZONE_MAPS) && filter != nullptr) {
    PruneResult pruned = PruneSplitIndexes(*file, filter);
    leg.splits_pruned = pruned.pruned;
    if (pruned.pruned > 0) {
      input.split_indexes.assign(pruned.kept.begin(), pruned.kept.end());
      input.split_indexes_exact = true;
    }
  }
  ExprPtr f = std::move(closure_filter);
  input.map_fn = [f](const Value& record, MapContext* ctx) -> Status {
    auto keep = EvalFilter(f, record);
    if (!keep.ok()) return keep.status();
    if (*keep) ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {std::move(input)};

  const SimMillis t0 = engine->now();
  auto job = engine->Submit(spec);
  if (!job.ok() || !job->status.ok()) {
    std::fprintf(stderr, "scan job failed: %s\n",
                 (job.ok() ? job->status : job.status()).ToString().c_str());
    std::exit(1);
  }
  leg.elapsed_ms = engine->now() - t0;
  leg.input_bytes = job->counters.map_input_bytes;
  leg.output_records = job->counters.output_records;
  for (const Split& split : job->output->splits()) {
    leg.output_bytes += split.data;
  }
  return leg;
}

/// One engine-level shuffle job: unfiltered group-count over `ev`.
LegResult RunShuffleLeg(MapReduceEngine* engine,
                        std::shared_ptr<DfsFile> file,
                        const std::string& out_path) {
  LegResult leg;
  leg.splits_total = file->splits().size();

  JobSpec spec;
  spec.name = "bench_shuffle";
  spec.output_path = out_path;
  MapInput input;
  input.file = file;
  input.cpu_per_record = 1.0;
  input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("ev"), Value::Int(1));
    return Status::OK();
  };
  spec.inputs = {std::move(input)};
  spec.num_reduce_tasks = 8;
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow(
        {{"ev", key},
         {"n", Value::Int(static_cast<int64_t>(values.size()))}}));
    return Status::OK();
  };

  const SimMillis t0 = engine->now();
  auto job = engine->Submit(spec);
  if (!job.ok() || !job->status.ok()) {
    std::fprintf(stderr, "shuffle job failed: %s\n",
                 (job.ok() ? job->status : job.status()).ToString().c_str());
    std::exit(1);
  }
  leg.elapsed_ms = engine->now() - t0;
  leg.input_bytes = job->counters.map_input_bytes;
  leg.output_records = job->counters.output_records;
  for (const Split& split : job->output->splits()) {
    leg.output_bytes += split.data;
  }
  return leg;
}

struct ArmResult {
  LegResult pruned;
  LegResult residual;
  LegResult shuffle;
  uint64_t table_physical_bytes = 0;
  uint64_t table_logical_bytes = 0;
};

/// Builds a fresh world under the requested data plane and runs all legs.
ArmResult RunArm(bool columnar_on) {
  SetKnobs(columnar_on);
  Dfs dfs;
  ClusterConfig config;
  config.job_startup_ms = 500;
  config.map_slots = 4;
  config.reduce_slots = 8;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);

  SplitFormat format = columnar_on ? SplitFormat::kColumnar
                                   : SplitFormat::kRow;
  auto file =
      WriteRows(&dfs, "/tables/events", MakeEventRows(), kSplitBytes, format);
  if (!file.ok()) {
    std::fprintf(stderr, "table write failed: %s\n",
                 file.status().ToString().c_str());
    std::exit(1);
  }

  ArmResult arm;
  arm.table_physical_bytes = (*file)->num_bytes();
  arm.table_logical_bytes = (*file)->logical_bytes();

  // Eighth-of-the-keyspace window over the clustered column: ~7/8 of the
  // splits are provably empty.
  ExprPtr window = And(Ge(Col("ts"), LitInt(1000000 + kRows / 2)),
                       Lt(Col("ts"), LitInt(1000000 + 5 * kRows / 8)));
  arm.pruned = RunScanLeg(&engine, *file, window, "/out/pruned");

  // Unclustered predicate: every split holds matching rows, so zone maps
  // cannot help; only the physical format differs.
  ExprPtr residual = Lt(Col("ev"), LitInt(6));
  arm.residual = RunScanLeg(&engine, *file, residual, "/out/residual");

  arm.shuffle = RunShuffleLeg(&engine, *file, "/out/shuffle");
  return arm;
}

double Speedup(const LegResult& row, const LegResult& col) {
  return col.elapsed_ms > 0
             ? static_cast<double>(row.elapsed_ms) /
                   static_cast<double>(col.elapsed_ms)
             : 0.0;
}

}  // namespace

int main() {
  PrintHeader("Columnar scan/shuffle microbench: 40k-row event log",
              {"row ms", "col ms", "speedup", "pruned"});

  ArmResult row = RunArm(false);
  ArmResult col = RunArm(true);

  struct Named {
    const char* name;
    const LegResult* r;
    const LegResult* c;
  };
  const std::vector<Named> legs = {
      {"pruned", &row.pruned, &col.pruned},
      {"residual", &row.residual, &col.residual},
      {"shuffle", &row.shuffle, &col.shuffle},
  };
  for (const Named& leg : legs) {
    std::printf("%-9s row=%6lldms  col=%6lldms  speedup=%5.2fx  "
                "pruned=%llu/%llu\n",
                leg.name, (long long)leg.r->elapsed_ms,
                (long long)leg.c->elapsed_ms, Speedup(*leg.r, *leg.c),
                (unsigned long long)leg.c->splits_pruned,
                (unsigned long long)leg.c->splits_total);
  }
  std::printf("table bytes: row physical=%llu  columnar physical=%llu  "
              "logical=%llu\n",
              (unsigned long long)row.table_physical_bytes,
              (unsigned long long)col.table_physical_bytes,
              (unsigned long long)col.table_logical_bytes);

  const char* out_path = KnobValue(Knob::DYNO_BENCH_SCAN_OUT);
  if (out_path == nullptr) {
    out_path = SpecOf(Knob::DYNO_BENCH_SCAN_OUT).default_value;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\"bench\":\"scan\",\"rows\":%d,\"split_bytes\":%llu,\n",
               kRows, (unsigned long long)kSplitBytes);
  std::fprintf(f,
               " \"table\":{\"row_physical\":%llu,\"col_physical\":%llu,"
               "\"logical\":%llu},\n",
               (unsigned long long)row.table_physical_bytes,
               (unsigned long long)col.table_physical_bytes,
               (unsigned long long)col.table_logical_bytes);
  for (size_t i = 0; i < legs.size(); ++i) {
    std::fprintf(f,
                 " \"%s\":{\"row_ms\":%lld,\"col_ms\":%lld,"
                 "\"speedup\":%.4f,\"splits_pruned\":%llu,"
                 "\"splits_total\":%llu,\"row_input_bytes\":%llu,"
                 "\"col_input_bytes\":%llu,\"records\":%llu,"
                 "\"byte_identical\":%s}%s\n",
                 legs[i].name, (long long)legs[i].r->elapsed_ms,
                 (long long)legs[i].c->elapsed_ms,
                 Speedup(*legs[i].r, *legs[i].c),
                 (unsigned long long)legs[i].c->splits_pruned,
                 (unsigned long long)legs[i].c->splits_total,
                 (unsigned long long)legs[i].r->input_bytes,
                 (unsigned long long)legs[i].c->input_bytes,
                 (unsigned long long)legs[i].c->output_records,
                 legs[i].r->output_bytes == legs[i].c->output_bytes
                     ? "true"
                     : "false",
                 i + 1 < legs.size() ? "," : "}");
  }
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // --- CI gates ---
  for (const Named& leg : legs) {
    if (leg.r->output_bytes != leg.c->output_bytes ||
        leg.r->output_records != leg.c->output_records) {
      std::fprintf(stderr,
                   "FAIL: %s leg output diverges between row and columnar\n",
                   leg.name);
      return 1;
    }
  }
  if (col.pruned.splits_pruned * 2 < col.pruned.splits_total) {
    std::fprintf(stderr,
                 "FAIL: pruned leg skipped only %llu of %llu splits\n",
                 (unsigned long long)col.pruned.splits_pruned,
                 (unsigned long long)col.pruned.splits_total);
    return 1;
  }
  const double pruned_speedup = Speedup(row.pruned, col.pruned);
  if (pruned_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: pruned scan only %.2fx faster columnar\n",
                 pruned_speedup);
    return 1;
  }
  for (const Named& leg : legs) {
    if (Speedup(*leg.r, *leg.c) < 1.0) {
      std::fprintf(stderr, "FAIL: %s leg is slower columnar\n", leg.name);
      return 1;
    }
  }
  std::printf("all scan gates passed (pruned speedup %.2fx)\n",
              pruned_speedup);
  return 0;
}
