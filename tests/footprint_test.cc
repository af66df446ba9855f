// Stored data is held at its exact size: every payload a writer commits
// (table writer in both formats, map-only and reduce job outputs, spill
// runs) has no growth slack behind it, and the shuffle deals each
// partition into a bucket allocated at exactly its length.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mr/engine.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

/// Capacity of a string's inline buffer: payloads that fit it hold no heap
/// allocation at all.
const size_t kInlineCapacity = std::string().capacity();

void ExpectExact(const std::string& payload, const std::string& what) {
  if (payload.size() <= kInlineCapacity) {
    EXPECT_EQ(payload.capacity(), kInlineCapacity) << what;
  } else {
    EXPECT_EQ(payload.capacity(), payload.size()) << what;
  }
}

void ExpectExactSplits(const DfsFile& file) {
  ASSERT_FALSE(file.splits().empty()) << file.path();
  for (size_t i = 0; i < file.splits().size(); ++i) {
    ExpectExact(file.splits()[i].data,
                file.path() + " split " + std::to_string(i));
  }
}

std::vector<Value> Rows(int n) {
  std::vector<Value> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"g", Value::Int(i % 7)},
                            {"name", Value::String("row-" +
                                                   std::to_string(i))}}));
  }
  return rows;
}

class FootprintTest : public ::testing::Test {
 protected:
  static ClusterConfig Config() {
    ClusterConfig config;
    config.map_slots = 4;
    config.reduce_slots = 4;
    config.faults.use_env_defaults = false;
    return config;
  }

  std::shared_ptr<DfsFile> Input(SplitFormat format) {
    auto file = WriteRows(&dfs_,
                          format == SplitFormat::kRow ? "/in/row" : "/in/col",
                          Rows(500), /*target_split_bytes=*/1000, format);
    EXPECT_TRUE(file.ok());
    return *file;
  }

  static JobSpec GroupJob(std::shared_ptr<DfsFile> input,
                          const std::string& output) {
    JobSpec spec;
    spec.name = "group";
    spec.output_path = output;
    MapInput mi;
    mi.file = std::move(input);
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Emit(*record.FindField("g"), record);
      return Status::OK();
    };
    spec.inputs = {mi};
    spec.num_reduce_tasks = 3;
    spec.reduce_fn = [](const Value&, const std::vector<Value>& values,
                        ReduceContext* ctx) -> Status {
      for (const Value& v : values) ctx->Output(v);
      return Status::OK();
    };
    return spec;
  }

  Dfs dfs_;
};

TEST_F(FootprintTest, TableWriterPayloadsAreExact) {
  ExpectExactSplits(*Input(SplitFormat::kRow));
  ExpectExactSplits(*Input(SplitFormat::kColumnar));
}

TEST_F(FootprintTest, AppendSplitDropsGrowthSlack) {
  Split split;
  for (int i = 0; i < 300; ++i) split.data += "abcdefgh";
  split.num_records = 1;
  ASSERT_GT(split.data.capacity(), split.data.size());
  auto file = dfs_.Create("/grown");
  ASSERT_TRUE(file.ok());
  (*file)->AppendSplit(std::move(split));
  ExpectExactSplits(**file);
  EXPECT_TRUE(VerifySplit((*file)->splits()[0]).ok());
}

TEST_F(FootprintTest, MapOnlyJobOutputIsExact) {
  JobSpec spec;
  spec.name = "copy";
  spec.output_path = "/out/copy";
  MapInput mi;
  mi.file = Input(SplitFormat::kRow);
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  MapReduceEngine engine(&dfs_, Config());
  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok() && result->status.ok());
  auto out = dfs_.Open("/out/copy");
  ASSERT_TRUE(out.ok());
  ExpectExactSplits(**out);
}

TEST_F(FootprintTest, ReduceJobOutputIsExact) {
  for (SplitFormat format : {SplitFormat::kRow, SplitFormat::kColumnar}) {
    const std::string path =
        format == SplitFormat::kRow ? "/out/row" : "/out/col";
    MapReduceEngine engine(&dfs_, Config());
    auto result = engine.Submit(GroupJob(Input(format), path));
    ASSERT_TRUE(result.ok() && result->status.ok());
    auto out = dfs_.Open(path);
    ASSERT_TRUE(out.ok());
    ExpectExactSplits(**out);
  }
}

TEST_F(FootprintTest, SpillRunsAreExact) {
  std::vector<Emission> pairs;
  for (int i = 0; i < 200; ++i) {
    std::string payload;
    Value::Int(i).EncodeTo(&payload);
    pairs.emplace_back(Value::Int(i % 5), std::move(payload));
  }
  ExpectExact(EncodeSpillRun(pairs).data, "spill run");

  // A spilling job still commits exact output.
  ClusterConfig config = Config();
  config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
  config.memory_per_task_bytes = 1024;
  MapReduceEngine engine(&dfs_, config);
  auto result =
      engine.Submit(GroupJob(Input(SplitFormat::kRow), "/out/spill"));
  ASSERT_TRUE(result.ok() && result->status.ok());
  EXPECT_GT(result->spill_runs, 0);
  auto out = dfs_.Open("/out/spill");
  ASSERT_TRUE(out.ok());
  ExpectExactSplits(**out);
}

TEST_F(FootprintTest, ShuffleBucketsAreExact) {
  std::vector<MapEmissions> maps(4);
  for (size_t m = 0; m < maps.size(); ++m) {
    for (int i = 0; i < 37 + static_cast<int>(m) * 11; ++i) {
      std::string payload;
      Value::Int(i).EncodeTo(&payload);
      maps[m].pairs.emplace_back(Value::Int(i * 13 + static_cast<int>(m)),
                                 payload);
      maps[m].bytes.push_back(static_cast<uint32_t>(
          maps[m].pairs.back().first.EncodedSize() + payload.size()));
    }
  }
  for (bool keep : {true, false}) {
    std::vector<MapEmissions> staged = maps;
    std::vector<MapEmissions*> pointers;
    for (MapEmissions& m : staged) pointers.push_back(&m);
    std::vector<bool> skip = {false, true, false, false, false};
    std::vector<std::vector<Emission>> partitions(skip.size());
    std::vector<uint64_t> bytes(skip.size(), 0);
    DealPartitions(pointers, skip, keep, &partitions, &bytes);

    size_t dealt = 0;
    for (size_t p = 0; p < partitions.size(); ++p) {
      EXPECT_EQ(partitions[p].capacity(), partitions[p].size())
          << "partition " << p << (keep ? " (kept)" : " (moved)");
      if (skip[p]) EXPECT_TRUE(partitions[p].empty());
      dealt += partitions[p].size();
    }
    // Every emission of a partition that is not skipped, in map and
    // emission order.
    std::vector<std::vector<Emission>> expected(skip.size());
    std::vector<uint64_t> expected_bytes(skip.size(), 0);
    for (const MapEmissions& m : maps) {
      for (size_t i = 0; i < m.pairs.size(); ++i) {
        const size_t p = m.pairs[i].first.Hash() % skip.size();
        if (skip[p]) continue;
        expected[p].push_back(m.pairs[i]);
        expected_bytes[p] += m.bytes[i];
      }
    }
    size_t expected_total = 0;
    for (size_t p = 0; p < partitions.size(); ++p) {
      ASSERT_EQ(partitions[p].size(), expected[p].size());
      for (size_t i = 0; i < expected[p].size(); ++i) {
        EXPECT_EQ(partitions[p][i].first.Compare(expected[p][i].first), 0);
        EXPECT_EQ(partitions[p][i].second, expected[p][i].second);
      }
      EXPECT_EQ(bytes[p], expected_bytes[p]);
      expected_total += expected[p].size();
    }
    EXPECT_EQ(dealt, expected_total);
    for (const MapEmissions& m : staged) {
      EXPECT_EQ(m.pairs.empty(), !keep);
      EXPECT_EQ(m.pairs.capacity() == 0, !keep) << "moved maps are freed";
    }
  }
}

}  // namespace
}  // namespace dyno
