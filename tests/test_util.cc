#include "test_util.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/knobs.h"
#include "common/string_util.h"
#include "tpch/queries.h"

namespace dyno {

namespace {

Result<bool> PassesFilter(const ExprPtr& filter, const Value& row) {
  if (filter == nullptr) return true;
  DYNO_ASSIGN_OR_RETURN(Value v, filter->Eval(row));
  return v.type() == Value::Type::kBool && v.bool_value();
}

}  // namespace

int FuzzIters(int base) {
  static const int env_iters =
      static_cast<int>(KnobInt(Knob::DYNO_FUZZ_ITERS).value_or(0));
  return env_iters > 0 ? env_iters : base;
}

uint64_t ZipfSampler::Next(Rng* rng, uint64_t n, double theta) {
  if (n <= 1) return 0;
  if (theta <= 0.0) return rng->Uniform(n);
  if (n != n_ || theta != theta_) {
    n_ = n;
    theta_ = theta;
    zetan_ = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  double u = rng->NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  return static_cast<uint64_t>(static_cast<double>(n) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

Query MakeTpchQ5() {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"customer", "c"}, {"orders", "o"},  {"lineitem", "l"},
              {"supplier", "s"}, {"nation", "n"},  {"region", "r"}};
  b.edges = {{"c", "c_custkey", "o", "o_custkey"},
             {"l", "l_orderkey", "o", "o_orderkey"},
             {"l", "l_suppkey", "s", "s_suppkey"},
             // The cycle: customer and supplier share a nation, which also
             // links both to the nation/region arm.
             {"c", "c_nationkey", "s", "s_nationkey"},
             {"s", "s_nationkey", "n", "n_nationkey"},
             {"n", "n_regionkey", "r", "r_regionkey"}};
  b.predicates = {
      {Eq(Col("r_name"), LitString("ASIA")), {"r"}},
      {And(Ge(Col("o_orderdate"), LitInt(19940101)),
           Lt(Col("o_orderdate"), LitInt(19950101))),
       {"o"}},
  };
  b.output_columns = {"n_name", "l_extendedprice", "l_discount"};
  return q;
}

std::vector<NamedQuery> MakeAllPaperQueries() {
  return {{"Q2", MakeTpchQ2()},
          {"Q5", MakeTpchQ5()},
          {"Q7", MakeTpchQ7()},
          {"Q8'", MakeTpchQ8Prime()},
          {"Q9'", MakeTpchQ9Prime()},
          {"Q10", MakeTpchQ10()}};
}

Result<std::vector<Value>> NaiveEvaluateJoinBlock(Catalog* catalog,
                                                  const JoinBlock& block) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);

  // Load + filter each leaf.
  std::map<std::string, std::vector<Value>> rows_by_alias;
  for (const LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog->OpenTable(leaf.table));
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, ReadAllRows(*file));
    std::vector<Value> kept;
    for (const Value& row : rows) {
      DYNO_ASSIGN_OR_RETURN(bool pass, PassesFilter(leaf.filter, row));
      if (pass) kept.push_back(row);
    }
    rows_by_alias[leaf.alias] = std::move(kept);
  }

  // Greedy connected join order starting at the first table.
  std::vector<Value> current = rows_by_alias[block.tables[0].alias];
  std::set<std::string> joined{block.tables[0].alias};
  std::set<size_t> applied_preds;

  auto apply_covered_preds = [&](std::vector<Value>* rows) -> Status {
    for (size_t i = 0; i < non_local.size(); ++i) {
      if (applied_preds.count(i)) continue;
      bool covered = true;
      for (const std::string& alias : non_local[i].aliases) {
        if (!joined.count(alias)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      std::vector<Value> filtered;
      for (const Value& row : *rows) {
        DYNO_ASSIGN_OR_RETURN(bool pass,
                              PassesFilter(non_local[i].expr, row));
        if (pass) filtered.push_back(row);
      }
      *rows = std::move(filtered);
      applied_preds.insert(i);
    }
    return Status::OK();
  };

  while (joined.size() < block.tables.size()) {
    // Find an unjoined alias connected to the current set.
    std::string next;
    std::vector<std::pair<std::string, std::string>> keys;
    for (const TableRef& ref : block.tables) {
      if (joined.count(ref.alias)) continue;
      keys.clear();
      for (const JoinEdge& edge : block.edges) {
        if (edge.left_alias == ref.alias && joined.count(edge.right_alias)) {
          keys.emplace_back(edge.right_column, edge.left_column);
        } else if (edge.right_alias == ref.alias &&
                   joined.count(edge.left_alias)) {
          keys.emplace_back(edge.left_column, edge.right_column);
        }
      }
      if (!keys.empty()) {
        next = ref.alias;
        break;
      }
    }
    if (next.empty()) {
      return Status::InvalidArgument("disconnected join graph in oracle");
    }
    std::vector<std::string> left_cols;
    std::vector<std::string> right_cols;
    for (const auto& [l, r] : keys) {
      left_cols.push_back(l);
      right_cols.push_back(r);
    }
    // Hash the right side.
    std::map<std::string, std::vector<const Value*>> by_key;
    for (const Value& row : rows_by_alias[next]) {
      by_key[EncodeJoinKey(row, right_cols)].push_back(&row);
    }
    std::vector<Value> merged;
    for (const Value& row : current) {
      auto it = by_key.find(EncodeJoinKey(row, left_cols));
      if (it == by_key.end()) continue;
      for (const Value* r : it->second) {
        merged.push_back(MergeRows(row, *r));
      }
    }
    current = std::move(merged);
    joined.insert(next);
    DYNO_RETURN_IF_ERROR(apply_covered_preds(&current));
  }

  if (!block.output_columns.empty()) {
    for (Value& row : current) row = ProjectRow(row, block.output_columns);
  }
  return current;
}

Value CanonicalizeFieldOrder(const Value& v) {
  switch (v.type()) {
    case Value::Type::kStruct: {
      StructFields fields = v.fields();
      for (auto& [name, value] : fields) value = CanonicalizeFieldOrder(value);
      std::sort(fields.begin(), fields.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      return Value::Struct(std::move(fields));
    }
    case Value::Type::kArray: {
      ArrayElements elems = v.array();
      for (Value& e : elems) e = CanonicalizeFieldOrder(e);
      return Value::Array(std::move(elems));
    }
    default:
      return v;
  }
}

void SortRowsForComparison(std::vector<Value>* rows) {
  for (Value& row : *rows) row = CanonicalizeFieldOrder(row);
  std::sort(rows->begin(), rows->end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
}

std::vector<Value> MustReadAll(const DfsFile& file) {
  auto rows = ReadAllRows(file);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Value>{};
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  return std::fclose(f) == 0 && written == contents.size();
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find('\n', start);
    if (end == std::string::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

namespace {

/// "name" field of one serialized event line, or "<no name>".
std::string EventName(const std::string& line) {
  const char kKey[] = "\"name\":\"";
  size_t pos = line.find(kKey);
  if (pos == std::string::npos) return "<no name>";
  pos += sizeof(kKey) - 1;
  size_t end = line.find('"', pos);
  if (end == std::string::npos) return "<no name>";
  return line.substr(pos, end - pos);
}

}  // namespace

std::string DescribeFirstDivergence(const std::string& golden,
                                    const std::string& actual) {
  if (golden == actual) return "";
  std::vector<std::string> want = SplitLines(golden);
  std::vector<std::string> got = SplitLines(actual);
  size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (want[i] == got[i]) continue;
    return StrFormat(
        "first divergent span at line %zu: event \"%s\"\n  golden: %s\n  "
        "actual: %s",
        i, EventName(got[i] != "" ? got[i] : want[i]).c_str(),
        want[i].c_str(), got[i].c_str());
  }
  // One trace is a strict prefix of the other.
  const std::vector<std::string>& longer = want.size() > n ? want : got;
  return StrFormat("traces diverge at line %zu: %s has extra event \"%s\": %s",
                   n, want.size() > n ? "golden" : "actual",
                   EventName(longer[n]).c_str(), longer[n].c_str());
}

#ifndef DYNO_GOLDEN_DIR
#error "the tests' build must define DYNO_GOLDEN_DIR as the goldens directory"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(DYNO_GOLDEN_DIR) + "/" + name;
}

void CompareWithGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (KnobValue(Knob::DYNO_UPDATE_GOLDEN) != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual))
        << "cannot write golden " << path;
    std::fprintf(stderr, "updated golden %s (%zu bytes)\n", path.c_str(),
                 actual.size());
    return;
  }
  std::string expected;
  ASSERT_TRUE(ReadFileToString(path, &expected))
      << "missing golden " << path
      << " — regenerate with DYNO_UPDATE_GOLDEN=1";
  EXPECT_TRUE(expected == actual) << DescribeFirstDivergence(expected, actual);
}

}  // namespace dyno
