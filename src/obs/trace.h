#ifndef DYNO_OBS_TRACE_H_
#define DYNO_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"

namespace dyno::obs {

/// Bumped whenever the serialized trace layout or the meaning of an event
/// field changes. Goldens record the version in their header line;
/// scripts/check_goldens.sh fails CI if the two drift apart.
/// v2: mr "job" spans gained node-fault args (node_attempt_kills,
/// maps_invalidated, shuffle_fetch_retries); new node_crash / node_recover /
/// shuffle_fetch_retry engine events; new driver checkpoint/resume events.
/// v3: data-integrity layer — mr "job" spans gained block_corruptions /
/// checksum_refetches / records_quarantined args; new block_corruption,
/// shuffle_checksum_retry and record_quarantined task events; new driver
/// manifest_fallback event.
/// v4: service robustness — new query_preempted / query_resumed /
/// deadline_exceeded / load_shed / service_halt service events; service
/// "wave" spans gained a pressure arg (busy-slot fraction of the previous
/// wave); new driver retry_budget_exhausted event.
/// v5: memory model — new task_spill engine events and driver oom_retry /
/// service memory_pressure events; mr "job" spans gain reduce_spills /
/// spill_runs / spill_bytes_written / peak_task_memory args (only when a
/// reduce memory mode is enforced); load_shed events gain a
/// memory_pressure arg.
inline constexpr int kTraceSchemaVersion = 5;

/// Logical lanes events are grouped under in the Chrome trace_event export
/// (one "thread" row per lane). Values are stable serialization constants.
enum class TraceLane : int {
  kDriver = 0,
  kOptimizer = 1,
  kPilot = 2,
  kEngine = 3,
  kTasks = 4,
  /// Multi-query service scheduling decisions (admission, waves,
  /// cancellation). A new lane value extends the schema without changing
  /// the layout of existing events, so goldens recorded before it stay
  /// byte-stable.
  kService = 5,
};

/// One typed span (or instant, when dur_ms < 0) event, stamped exclusively
/// with simulated time so serialized traces are byte-identical across host
/// machines and runs.
struct TraceEvent {
  SimMillis start_ms = 0;
  SimMillis dur_ms = -1;  ///< < 0 renders as an instant event.
  TraceLane lane = TraceLane::kEngine;
  const char* category = "";
  const char* name = "";
  /// Key → pre-rendered JSON token ("42", "true", "\"str\"").
  std::vector<std::pair<std::string, std::string>> args;

  TraceEvent(SimMillis start, SimMillis dur, TraceLane l, const char* cat,
             const char* n)
      : start_ms(start), dur_ms(dur), lane(l), category(cat), name(n) {}

  TraceEvent&& Arg(const char* key, const std::string& value) &&;
  TraceEvent&& ArgInt(const char* key, int64_t value) &&;
  TraceEvent&& ArgDouble(const char* key, double value) &&;
  TraceEvent&& ArgBool(const char* key, bool value) &&;
};

/// Escapes `s` as a JSON string literal, including the surrounding quotes.
std::string JsonQuote(const std::string& s);

/// Ordered buffer of TraceEvents. Everything records on one thread, and
/// callers record only from deterministically-ordered code paths (the
/// engine scheduler or a service session at its turn), so the buffer order
/// — and therefore the serialized trace — is reproducible.
class TraceSink {
 public:
  void Record(TraceEvent event);

  /// Header line {"schema":N,"clock":"sim_ms"} followed by one JSON object
  /// per event: {"seq":i,"ts":...,"dur":...,"lane":...,"cat":...,
  /// "name":...,"args":{...}}. "dur" is omitted for instant events.
  std::string SerializeJsonl() const;

  /// chrome://tracing / Perfetto "trace_event" JSON. Sim-milliseconds are
  /// exported as microseconds so the UI renders ms-scale spans legibly.
  std::string SerializeChromeTrace() const;

  Status WriteJsonl(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace dyno::obs

#endif  // DYNO_OBS_TRACE_H_
