// Prints every DYNO_* environment knob (src/common/knobs.h) as the
// markdown table README.md carries between its knob-table markers, one
// section per group: variable, type, accepted range, default and meaning.
//
//   ./build/examples/dyno_knobs
//
// scripts/check_knobs.py fails when README's table differs from this
// output, and rewrites it with --write.

#include <bit>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "common/knobs.h"

namespace {

using dyno::KnobGroup;
using dyno::KnobSpec;
using dyno::KnobType;

const char* GroupTitle(KnobGroup group) {
  switch (group) {
    case KnobGroup::kFault:
      return "Fault injection (DESIGN.md §6.2/§6.4/§6.5)";
    case KnobGroup::kMemory:
      return "Memory model (DESIGN.md §6.10)";
    case KnobGroup::kDriver:
      return "Driver retry & recovery (DESIGN.md §6.4/§6.10)";
    case KnobGroup::kService:
      return "Multi-query service and overload (DESIGN.md §6.6/§6.9)";
    case KnobGroup::kCache:
      return "Cross-query cache (DESIGN.md §6.7)";
    case KnobGroup::kColumnar:
      return "Columnar data plane (DESIGN.md §6.8)";
    case KnobGroup::kHarness:
      return "Benches & test harness";
  }
  return "";
}

const char* TypeName(KnobType type) {
  switch (type) {
    case KnobType::kInt: return "int";
    case KnobType::kInt64: return "int64";
    case KnobType::kUint64: return "uint64";
    case KnobType::kDouble: return "double";
    case KnobType::kBool: return "0/1";
    case KnobType::kEnum: return "enum";
    case KnobType::kMiB: return "MiB";
    case KnobType::kPath: return "path";
    case KnobType::kFlag: return "flag";
  }
  return "";
}

/// A range bound, with the type limits and large powers of two spelled
/// as powers.
std::string Bound(int64_t v) {
  if (v == INT64_MAX) return "2^63-1";
  if (v == INT64_MIN) return "-2^63";
  if (v == INT_MAX) return "2^31-1";
  if (v >= 1024 && std::has_single_bit(static_cast<uint64_t>(v))) {
    return "2^" + std::to_string(std::countr_zero(static_cast<uint64_t>(v)));
  }
  return std::to_string(v);
}

std::string Range(const KnobSpec& spec) {
  if (spec.type == KnobType::kPath) return "any";
  if (spec.type == KnobType::kFlag) return "set or unset";
  return "[" + Bound(spec.lo) + ", " + Bound(spec.hi) + "]";
}

}  // namespace

int main() {
  std::printf("| knob | type | range | default | meaning |\n");
  std::printf("|---|---|---|---|---|\n");
  std::optional<KnobGroup> group;
  for (const KnobSpec& spec : dyno::kKnobSpecs) {
    if (group != spec.group) {
      group = spec.group;
      std::printf("| **%s** | | | | |\n", GroupTitle(spec.group));
    }
    std::printf("| `%s` | %s | %s | %s | %s |\n", spec.name,
                TypeName(spec.type), Range(spec).c_str(), spec.default_value,
                spec.doc);
  }
  return 0;
}
