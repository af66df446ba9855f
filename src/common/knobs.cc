#include "common/knobs.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace dyno {

namespace {

/// The parsed value when it is well-formed and in the knob's range; else
/// aborts naming the variable. A mistyped knob silently falling back to a
/// default would invalidate whole benchmark or fault campaigns.
template <typename T>
T InRangeOrDie(const KnobSpec& spec, const char* value,
               const Result<T>& parsed, const char* what) {
  if (!parsed.ok() || *parsed < spec.lo || *parsed > spec.hi) {
    std::fprintf(stderr, "dyno: fatal: %s=\"%s\" is not %s in [%lld, %lld]\n",
                 spec.name, value, what, (long long)spec.lo,
                 (long long)spec.hi);
    std::abort();
  }
  return *parsed;
}

}  // namespace

const char* KnobValue(Knob knob) { return std::getenv(SpecOf(knob).name); }

std::optional<int64_t> KnobInt(Knob knob) {
  const char* value = KnobValue(knob);
  if (value == nullptr) return std::nullopt;
  const KnobSpec& spec = SpecOf(knob);
  int64_t parsed = InRangeOrDie(spec, value, ParseInt64(value), "an integer");
  return spec.type == KnobType::kMiB ? parsed << 20 : parsed;
}

std::optional<double> KnobDouble(Knob knob) {
  const char* value = KnobValue(knob);
  if (value == nullptr) return std::nullopt;
  return InRangeOrDie(SpecOf(knob), value, ParseDouble(value), "a number");
}

}  // namespace dyno
