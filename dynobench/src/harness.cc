#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/crc32c.h"
#include "common/hash.h"
#include "json/value.h"
#include "tpch/dbgen.h"

namespace dynobench {

using dyno::Result;
using dyno::Status;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  // values[n - 11] has exactly ten samples after it.
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Seeds DeriveSeeds(uint64_t workload_seed) {
  // One SplitMix-style stream per consumer, so no two consumers share draws.
  auto derive = [workload_seed](uint64_t salt) {
    return dyno::Mix64(workload_seed * 0x9e3779b97f4a7c15ULL + salt);
  };
  Seeds seeds;
  seeds.tpch = derive(1);
  seeds.pilot = derive(2);
  seeds.fault = derive(3);
  seeds.service = derive(4);
  return seeds;
}

dyno::ClusterConfig PaperCluster() {
  dyno::ClusterConfig cluster;
  cluster.num_nodes = 15;
  cluster.map_slots = 140;
  cluster.reduce_slots = 84;
  cluster.job_startup_ms = 5000;
  cluster.memory_per_task_bytes = 64 * 1024;
  cluster.map_read_bytes_per_ms = 2.0;
  cluster.map_write_bytes_per_ms = 2.0;
  cluster.shuffle_bytes_per_ms = 50.0;
  cluster.reduce_read_bytes_per_ms = 4.0;
  cluster.reduce_write_bytes_per_ms = 4.0;
  cluster.side_load_bytes_per_ms = 100.0;
  cluster.cpu_units_per_ms = 500.0;
  cluster.execution_threads = 1;
  cluster.reduce_memory_mode = dyno::ClusterConfig::ReduceMemoryMode::kUnbounded;
  cluster.faults = dyno::FaultConfig();
  cluster.faults.use_env_defaults = false;
  return cluster;
}

double ScaleFor(const std::string& sf) {
  if (sf == "SF300") return 0.006;
  if (sf == "SF1000") return 0.02;
  return 0.002;
}

Result<std::unique_ptr<Scenario>> MakeScenario(
    const std::string& sf, const dyno::ClusterConfig& cluster,
    uint64_t tpch_seed) {
  auto scenario = std::make_unique<Scenario>();
  scenario->sf = sf;
  scenario->engine =
      std::make_unique<dyno::MapReduceEngine>(&scenario->dfs, cluster);
  scenario->catalog = std::make_unique<dyno::Catalog>(&scenario->dfs);
  scenario->cost.max_memory_bytes = cluster.memory_per_task_bytes;
  scenario->cost.c_job = 200000.0;
  scenario->cost.memory_factor = cluster.broadcast_memory_factor;

  dyno::TpchConfig config;
  config.scale = ScaleFor(sf);
  config.seed = tpch_seed;
  config.split_bytes = 2 * 1024;
  double start = NowSeconds();
  DYNO_RETURN_IF_ERROR(dyno::GenerateTpch(scenario->catalog.get(), config));
  scenario->generate_s = NowSeconds() - start;
  return scenario;
}

dyno::DynoOptions DynoptOptions(const Scenario& scenario, uint64_t pilot_seed,
                                dyno::ExecutionStrategy strategy) {
  dyno::DynoOptions options;
  options.cost = scenario.cost;
  options.strategy = strategy;
  options.pilot.k = 128;
  options.pilot.seed = pilot_seed;
  options.max_job_attempts = 1;
  options.retry_budget_ms = 0;
  options.oom_retry_ladder = 0;
  return options;
}

namespace {

/// Row hash independent of the order of the row's top-level fields.
uint64_t RowHash(const dyno::Value& row) {
  if (row.type() != dyno::Value::Type::kStruct) return dyno::Mix64(row.Hash());
  uint64_t h = 0x726f77ULL;
  for (const auto& [name, value] : row.fields()) {
    h += dyno::Mix64(dyno::HashCombine(dyno::HashBytes(name, 0), value.Hash()));
  }
  return h;
}

}  // namespace

Result<Digest> DigestFile(const dyno::DfsFile& file) {
  Digest digest;
  for (const dyno::Split& split : file.splits()) {
    DYNO_ASSIGN_OR_RETURN(std::vector<dyno::Value> rows,
                          dyno::DecodeSplitRows(split));
    for (const dyno::Value& row : rows) {
      digest.rows++;
      digest.sum += RowHash(row);
    }
  }
  return digest;
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, std::string name,
                     std::string tags)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.layer = layer;
  span.name = std::move(name);
  span.tags = std::move(tags);
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.start_s = NowSeconds();
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[id_].end_s = NowSeconds();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_s[span.parent] += span.end_s - span.start_s;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child_s[i];
  }
  return self;
}

double Tracer::TotalSeconds(const std::string& layer,
                            const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.layer == layer && span.name == name) {
      total += span.end_s - span.start_s;
    }
  }
  return total;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"tags\":\"%s\"}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 (s.start_s - origin_s_) * 1e6, (s.end_s - s.start_s) * 1e6,
                 i, s.parent, s.tags.c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot write " + path);
}

void InstallTimingGate(dyno::MapReduceEngine* engine, Tracer* tracer,
                       GateStats* stats) {
  engine->set_submit_gate([engine, tracer, stats](
                              std::vector<dyno::JobSpec> specs)
                              -> Result<std::vector<dyno::JobResult>> {
    bool pilot = true;
    bool agg = true;
    for (const dyno::JobSpec& spec : specs) {
      pilot = pilot && spec.name.rfind("pilr:", 0) == 0;
      agg = agg && (spec.name == "groupby" || spec.name == "orderby");
    }
    const char* kind = pilot ? "pilot" : agg ? "agg" : "plan";
    double start = NowSeconds();
    Result<std::vector<dyno::JobResult>> results = [&] {
      Tracer::Scope span(tracer, "mr", std::string("submit:") + kind,
                         "jobs=" + std::to_string(specs.size()));
      return engine->SubmitAllDirect(specs);
    }();
    double elapsed = NowSeconds() - start;
    stats->mr_wall_s += elapsed;
    if (pilot) stats->pilot_wall_s += elapsed;
    if (agg) stats->agg_wall_s += elapsed;
    if (!results.ok()) return results;
    for (const dyno::JobResult& job : *results) {
      if (pilot) stats->pilot_jobs++;
      stats->map_tasks += job.map_tasks_run;
      stats->reduce_tasks += job.reduce_tasks_run;
      stats->map_input_bytes += job.counters.map_input_bytes;
      stats->shuffle_bytes += job.counters.map_output_bytes;
      stats->map_slot_ms += job.map_slot_ms;
      stats->reduce_slot_ms += job.reduce_slot_ms;
      stats->spill_merge_passes += job.spill_merge_passes;
      stats->peak_task_memory_bytes =
          std::max(stats->peak_task_memory_bytes, job.peak_task_memory_bytes);
    }
    return results;
  });
}

Result<KernelProbes> RunKernelProbes(const dyno::Catalog& catalog) {
  // Inputs: every base-table split, decoded once (untimed) so the probes
  // see the workload's own rows whatever the physical format.
  std::vector<std::string> physical;
  std::vector<std::string> row_encoded;
  std::vector<std::vector<dyno::Value>> rows;
  uint64_t num_rows = 0;
  for (const std::string& name : catalog.TableNames()) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<dyno::DfsFile> file,
                          catalog.OpenTable(name));
    for (const dyno::Split& split : file->splits()) {
      DYNO_ASSIGN_OR_RETURN(std::vector<dyno::Value> decoded,
                            dyno::DecodeSplitRows(split));
      std::string encoded;
      for (const dyno::Value& row : decoded) row.EncodeTo(&encoded);
      num_rows += decoded.size();
      physical.push_back(split.data);
      row_encoded.push_back(std::move(encoded));
      rows.push_back(std::move(decoded));
    }
  }
  if (num_rows == 0) return Status::Internal("no rows to probe");

  // Each probe takes the median of five sweeps over all splits.
  constexpr int kSweeps = 5;
  uint64_t sink = 0;
  std::vector<double> decode_s, size_s, crc_s;
  uint64_t physical_bytes = 0;
  for (const std::string& data : physical) physical_bytes += data.size();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    double start = NowSeconds();
    for (const std::string& data : row_encoded) {
      size_t offset = 0;
      while (offset < data.size()) {
        DYNO_ASSIGN_OR_RETURN(dyno::Value v, dyno::Value::Decode(data, &offset));
        sink += v.type() == dyno::Value::Type::kStruct ? 1 : 0;
      }
    }
    decode_s.push_back(NowSeconds() - start);
    start = NowSeconds();
    for (const auto& split_rows : rows) {
      for (const dyno::Value& row : split_rows) sink += row.EncodedSize();
    }
    size_s.push_back(NowSeconds() - start);
    start = NowSeconds();
    for (const std::string& data : physical) sink += dyno::Crc32c(data);
    crc_s.push_back(NowSeconds() - start);
  }
  if (sink == 0) return Status::Internal("probe produced nothing");
  KernelProbes probes;
  double n = static_cast<double>(num_rows);
  probes.decode_ns_per_row = Median(decode_s) * 1e9 / n;
  probes.encoded_size_ns_per_row = Median(size_s) * 1e9 / n;
  probes.crc32c_ns_per_kb =
      Median(crc_s) * 1e9 / (static_cast<double>(physical_bytes) / 1024.0);
  return probes;
}

Result<StorageSizes> MeasureStorage(const dyno::Catalog& catalog) {
  StorageSizes sizes;
  for (const std::string& name : catalog.TableNames()) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<dyno::DfsFile> file,
                          catalog.OpenTable(name));
    sizes.rows += file->num_records();
    sizes.physical_bytes += file->num_bytes();
    sizes.logical_bytes += file->logical_bytes();
  }
  return sizes;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace dynobench
