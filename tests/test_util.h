#ifndef DYNO_TESTS_TEST_UTIL_H_
#define DYNO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "exec/row_ops.h"
#include "lang/query.h"
#include "storage/catalog.h"

namespace dyno {

/// RAII environment pin: sets each variable for the scope (or unsets it,
/// for a std::nullopt value) and restores the previous state (including
/// absence) on destruction. The runtime knobs (DYNO_COLUMNAR,
/// DYNO_ZONE_MAPS, ...) are re-read on every use, so pinning at test scope
/// is deterministic regardless of the ctest preset's environment.
class ScopedEnv {
 public:
  using Var = std::pair<std::string, std::optional<std::string>>;

  explicit ScopedEnv(std::initializer_list<Var> vars)
      : ScopedEnv(std::vector<Var>(vars)) {}
  explicit ScopedEnv(const std::vector<Var>& vars) {
    for (auto& [name, value] : vars) {
      const char* old = ::getenv(name.c_str());
      saved_.emplace_back(name, old == nullptr
                                    ? std::optional<std::string>()
                                    : std::optional<std::string>(old));
      if (value.has_value()) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }
  ~ScopedEnv() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second.has_value()) {
        ::setenv(it->first.c_str(), it->second->c_str(), 1);
      } else {
        ::unsetenv(it->first.c_str());
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// Iterations for one fuzz loop: DYNO_FUZZ_ITERS when it is above 0 (the
/// fuzz-smoke ctest preset pins a small fixed budget; soak runs can crank
/// it up), otherwise the loop's own `base`.
int FuzzIters(int base);

/// Zipf-distributed draws in [0, n) with skew parameter `theta` in [0, 1),
/// for skewed test data. theta = 0 degenerates to uniform. Uses the
/// standard rejection-free approximation (Gray et al.), caching the zeta
/// normalization until n or theta changes.
class ZipfSampler {
 public:
  uint64_t Next(Rng* rng, uint64_t n, double theta);

 private:
  uint64_t n_ = 0;
  double theta_ = -1.0;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

/// Q5: customer ⋈ orders ⋈ lineitem ⋈ supplier ⋈ nation ⋈ region with the
/// *cyclic* join condition c_nationkey = s_nationkey (customer and supplier
/// in the same nation). The paper excluded Q5 because its optimizer did not
/// support cyclic join graphs (§6.1); this enumerator handles arbitrary
/// connected graphs, so the tests run Q5 as an extension workload.
Query MakeTpchQ5();

/// The paper's five queries plus the Q5 extension.
struct NamedQuery {
  std::string name;
  Query query;
};
std::vector<NamedQuery> MakeAllPaperQueries();

/// Brute-force oracle: evaluates a join block by nested-loop joins over
/// fully materialized tables. Only usable at test scale; results are
/// returned in no particular order.
Result<std::vector<Value>> NaiveEvaluateJoinBlock(Catalog* catalog,
                                                  const JoinBlock& block);

/// Recursively sorts struct fields by name: different join orders merge
/// the same logical row with different field orders, and struct comparison
/// is order-sensitive.
Value CanonicalizeFieldOrder(const Value& v);

/// Canonicalizes field order then sorts rows so result multisets compare.
void SortRowsForComparison(std::vector<Value>* rows);

/// Reads every row of a DFS file (fails the calling test on error).
std::vector<Value> MustReadAll(const DfsFile& file);

/// Reads a whole host file; false when it cannot be opened.
bool ReadFileToString(const std::string& path, std::string* out);

bool WriteStringToFile(const std::string& path, const std::string& contents);

std::vector<std::string> SplitLines(const std::string& s);

/// Event-level diff of two serialized fingerprints or traces: names the
/// first line where they disagree (with the trace event name it carries, if
/// any) and both renderings. Empty string when identical.
std::string DescribeFirstDivergence(const std::string& golden,
                                    const std::string& actual);

/// Path of the checked-in golden file `name` under tests/golden/.
std::string GoldenPath(const std::string& name);

/// Compares `actual` byte for byte against the golden file `name` and
/// reports the first divergent line; with DYNO_UPDATE_GOLDEN set, rewrites
/// the golden instead.
void CompareWithGolden(const std::string& name, const std::string& actual);

}  // namespace dyno

#endif  // DYNO_TESTS_TEST_UTIL_H_
