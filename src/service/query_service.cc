#include "service/query_service.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/hash.h"
#include "common/knobs.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/dfs.h"

namespace dyno {

void QueryServiceOptions::ApplyEnvOverrides() {
  ReadKnob(Knob::DYNO_CONCURRENCY, &max_concurrent);
  ReadKnob(Knob::DYNO_TENANT_SLOTS, &tenant_slots);
  ReadKnob(Knob::DYNO_ADMISSION_QUEUE, &admission_queue_limit);
  ReadKnob(Knob::DYNO_SUBTREE_CACHE_MB, &enable_subtree_cache);
  ReadKnob(Knob::DYNO_SUBTREE_CACHE_MB, &subtree_cache.max_bytes);
  ReadKnob(Knob::DYNO_SUBTREE_CACHE_ENTRIES, &subtree_cache.max_entries);
  ReadKnob(Knob::DYNO_STATS_CACHE, &share_pilot_stats);
  ReadKnob(Knob::DYNO_PRIORITY_PREEMPTION, &priority_preemption);
  ReadKnob(Knob::DYNO_QUERY_DEADLINE_MS, &default_deadline_ms);
  ReadKnob(Knob::DYNO_LOAD_SHED_QUEUE_MS, &load_shed_queue_ms);
  ReadKnob(Knob::DYNO_LOAD_SHED_PRESSURE, &load_shed_pressure);
  ReadKnob(Knob::DYNO_LOAD_SHED_PRIORITY, &load_shed_max_priority);
  ReadKnob(Knob::DYNO_MEMORY_ADMISSION, &memory_ledger_bytes);
}

namespace {

[[noreturn]] void FiberDie(const char* what) {
  std::fprintf(stderr, "dyno: fatal: fiber: %s\n", what);
  std::abort();
}

const size_t kGuardBytes = sysconf(_SC_PAGESIZE);

// ASan must be told about every stack switch, or it mistakes the other
// stack's frames for overflows; the fake-stack slot keeps each side's
// use-after-return frames across the switch.
#ifdef __SANITIZE_ADDRESS__
#define DYNO_START_SWITCH __sanitizer_start_switch_fiber
#define DYNO_FINISH_SWITCH __sanitizer_finish_switch_fiber
#else
#define DYNO_START_SWITCH(fake_stack, bottom, bytes) (void)(fake_stack)
#define DYNO_FINISH_SWITCH(fake_stack, bottom, bytes) (void)(fake_stack)
#endif

// Saves the running context in `from` and continues at `to`; returns once
// something continues at `from`. Not swapcontext: ASan's interceptor for
// it clears the target stack's shadow on every switch, losing the live
// frames' redzones, and warns that it may report false positives.
void Switch(ucontext_t* from, const ucontext_t* to) {
  volatile bool resumed = false;
  if (getcontext(from) != 0) FiberDie("getcontext");
  if (resumed) return;
  resumed = true;
  setcontext(to);
  FiberDie("setcontext");
}

/// A session's stackful coroutine on the calling thread (glibc ucontext).
/// Resume() runs the body until it calls Yield() or returns; Yield()
/// switches back to the resumer, and so does the body's return (uc_link).
/// The stack is an mmap of kStackBytes with a PROT_NONE guard page below
/// it, so an overflow faults as on a thread stack, and untouched pages stay
/// non-resident. An exception escaping the body calls std::terminate, as
/// escaping a thread's entry function does.
class Fiber {
 public:
  /// A default thread stack (`ulimit -s` 8192).
  static constexpr size_t kStackBytes = size_t{8} << 20;

  explicit Fiber(std::function<void()> body) : body_(std::move(body)) {
    mapping_ = static_cast<char*>(
        mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0));
    if (mapping_ == MAP_FAILED) FiberDie("cannot map a stack");
    if (mprotect(mapping_, kGuardBytes, PROT_NONE) != 0) FiberDie("mprotect");
    if (getcontext(&fiber_ctx_) != 0) FiberDie("getcontext");
    fiber_ctx_.uc_stack.ss_sp = mapping_ + kGuardBytes;
    fiber_ctx_.uc_stack.ss_size = kStackBytes;
    fiber_ctx_.uc_link = &resumer_ctx_;
    // makecontext passes int arguments only, so `this` travels in halves.
    const uintptr_t self = reinterpret_cast<uintptr_t>(this);
    makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(&Fiber::Entry), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
  }

  /// A suspended body's frames cannot be unwound from outside, so the
  /// owner must resume it until it returns first.
  ~Fiber() {
    if (!done_) FiberDie("destroyed before its body returned");
    // The next mapping at this address must not inherit stale poison.
    ASAN_UNPOISON_MEMORY_REGION(mapping_ + kGuardBytes, kStackBytes);
    munmap(mapping_, kGuardBytes + kStackBytes);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the body until its next Yield() or its return.
  void Resume() {
    void* fake_stack = nullptr;
    DYNO_START_SWITCH(&fake_stack, mapping_ + kGuardBytes, kStackBytes);
    Switch(&resumer_ctx_, &fiber_ctx_);
    DYNO_FINISH_SWITCH(fake_stack, nullptr, nullptr);
  }

  /// Called from the body: suspends it and returns from Resume().
  void Yield() {
    void* fake_stack = nullptr;
    DYNO_START_SWITCH(&fake_stack, resumer_stack_, resumer_stack_bytes_);
    Switch(&fiber_ctx_, &resumer_ctx_);
    DYNO_FINISH_SWITCH(fake_stack, &resumer_stack_, &resumer_stack_bytes_);
  }

 private:
  static void Entry(unsigned hi, unsigned lo) noexcept {
    Fiber* self =
        reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) | lo);
    DYNO_FINISH_SWITCH(nullptr, &self->resumer_stack_,
                       &self->resumer_stack_bytes_);
    self->body_();
    self->done_ = true;
    // The last switch out (to uc_link): a null slot, so this stack's fake
    // frames die with it.
    DYNO_START_SWITCH(nullptr, self->resumer_stack_,
                      self->resumer_stack_bytes_);
  }

  std::function<void()> body_;
  char* mapping_ = nullptr;  ///< Guard page, then the stack.
  ucontext_t fiber_ctx_{};
  ucontext_t resumer_ctx_{};
  bool done_ = false;
  /// The resumer's stack, as ASan reports it (unused in other builds).
  const void* resumer_stack_ = nullptr;
  size_t resumer_stack_bytes_ = 0;
};

}  // namespace

struct QueryService::Session {
  /// Read only by the scheduler, which runs while every session is parked.
  /// A resumed session keeps its state until it parks or finishes.
  enum class State {
    kQueued,         ///< Not yet admitted; no fiber exists.
    kWaitingSubmit,  ///< Parked in the submit gate with pending_specs set.
    kDone,           ///< Driver returned (or the session never started).
  };

  QuerySubmission sub;
  /// Driver options after query scoping (exec.query_id, checkpoint path).
  DynoOptions scoped_options;
  int enqueue_seq = 0;
  int priority = 0;
  SimMillis arrival_offset = 0;  ///< Relative to RunAll start.
  SimMillis arrival_ms = 0;      ///< Absolute, fixed at RunAll start.
  SimMillis deadline_at = -1;    ///< Absolute; < 0 = none.
  int admit_seq = -1;
  SimMillis admit_ms = -1;       ///< First admission (preemption keeps it).
  SimMillis finish_ms = -1;

  /// Why the scheduler wants the session stopped, in precedence order: a
  /// preemption (unwind at the next submission point, then re-queue instead
  /// of finalizing) yields to a deadline, a deadline to an explicit cancel,
  /// and a service halt overrides all three.
  enum class Stop { kNone, kPreempt, kDeadline, kCancel, kHalt };

  State state = State::kQueued;
  /// Only rises (Raise), except that a preemption re-queue clears it.
  Stop stop = Stop::kNone;
  int preempt_count = 0;
  /// Start the driver via Resume() (preempted earlier, or re-admitted by
  /// RecoverPending) so it continues from its checkpoint manifest.
  bool resume_on_start = false;
  bool recovered = false;  ///< Came in through RecoverPending().
  std::optional<SimMillis> cancel_at;
  /// Bytes this session currently holds against the memory ledger (0 when
  /// not admitted or memory-aware admission is off).
  uint64_t memory_charge = 0;
  /// A memory_pressure hold-back was already traced for this wait (reset
  /// on admission), so the queue doesn't re-log every scheduler pass.
  bool memory_held = false;

  /// Set by the gate while kWaitingSubmit; consumed by the scheduler.
  std::vector<JobSpec> pending_specs;
  /// Set by the scheduler to resume a parked session: its slice of the
  /// wave results, or an error (e.g. Cancelled).
  std::optional<Result<std::vector<JobResult>>> grant;
  /// Posted by the fiber body when the driver returns.
  std::optional<Result<QueryRunReport>> driver_result;

  /// Held from admission until the session is reaped: a session holds one
  /// exactly while admitted, and a done one that still does is unreaped.
  std::unique_ptr<Fiber> fiber;

  void Raise(Stop reason) { stop = std::max(stop, reason); }

  /// The error a stopped session unwinds with, or (`queued`: stopped while
  /// waiting for admission) is finalized with.
  Status StopStatus(bool queued) const {
    const std::string query = "query " + sub.query_id;
    const char* when = queued ? " before admission" : "";
    switch (stop) {
      case Stop::kPreempt:
        return Status::Cancelled(query + " preempted");
      case Stop::kDeadline:
        return Status::DeadlineExceeded(query + " missed its deadline" +
                                        when);
      case Stop::kCancel:
        return Status::Cancelled(query + " cancelled" + when);
      case Stop::kHalt:
        return Status::Cancelled(query + " interrupted by service halt");
      case Stop::kNone:
        break;
    }
    return Status::OK();
  }
};

QueryService::QueryService(MapReduceEngine* engine, Catalog* catalog,
                           StatsStore* store, QueryServiceOptions options)
    : engine_(engine),
      catalog_(catalog),
      store_(store),
      options_(options),
      rng_(Mix64(options.seed)) {
  if (options_.enable_subtree_cache) {
    subtree_cache_ = std::make_unique<SubtreeCache>(
        catalog_->dfs(), catalog_, options_.subtree_cache, engine_->metrics(),
        engine_->trace());
  }
}

// RunAll returns only once every session it admitted is reaped, and a
// reaped session holds no fiber; ~Fiber aborts on a suspended one.
QueryService::~QueryService() = default;

Status QueryService::Enqueue(QuerySubmission submission) {
  return AddSession(std::move(submission), /*recovered=*/false);
}

Status QueryService::AddSession(QuerySubmission submission, bool recovered) {
  if (submission.query_id.empty()) {
    return Status::InvalidArgument("submission has no query id");
  }
  if (run_active_) {
    return Status::FailedPrecondition(
        "cannot enqueue while RunAll is in progress");
  }
  int queued = 0;
  for (const auto& session : sessions_) {
    if (session->sub.query_id == submission.query_id) {
      return Status::InvalidArgument("duplicate query id: " +
                                     submission.query_id);
    }
    if (session->state == Session::State::kQueued) ++queued;
  }
  if (queued >= std::max(0, options_.admission_queue_limit)) {
    if (obs::MetricsRegistry* metrics = engine_->metrics()) {
      metrics->GetCounter("service.rejected_queue_full")->Add();
    }
    return Status::ResourceExhausted(
        StrFormat("admission queue full (%d queued, limit %d)", queued,
                  options_.admission_queue_limit));
  }

  auto session = std::make_unique<Session>();
  session->enqueue_seq = static_cast<int>(sessions_.size());
  session->priority = submission.priority;
  // Arrival schedule: explicit offsets are taken verbatim; everything else
  // draws from the service RNG stream in Enqueue order, which makes the
  // whole schedule a pure function of (seed, enqueue sequence). Recovered
  // queries were admitted by the previous instance, so they re-arrive
  // immediately regardless of their original schedule.
  if (recovered) {
    session->arrival_offset = 0;
    session->recovered = true;
    session->resume_on_start = true;
  } else if (submission.arrival_offset_ms >= 0) {
    session->arrival_offset = submission.arrival_offset_ms;
  } else if (options_.arrival_window_ms > 0) {
    session->arrival_offset = static_cast<SimMillis>(
        rng_.Uniform(static_cast<uint64_t>(options_.arrival_window_ms) + 1));
  }
  session->sub = std::move(submission);
  if (obs::MetricsRegistry* metrics = engine_->metrics()) {
    metrics->GetCounter("service.enqueued")->Add();
  }
  sessions_.push_back(std::move(session));
  return Status::OK();
}

Status QueryService::Cancel(const std::string& query_id) {
  for (auto& session : sessions_) {
    if (session->sub.query_id != query_id) continue;
    if (session->state == Session::State::kDone) {
      return Status::OK();  // Already finished: cancellation is a no-op.
    }
    session->Raise(Session::Stop::kCancel);
    return Status::OK();
  }
  return Status::NotFound("unknown query id: " + query_id);
}

Status QueryService::CancelAt(const std::string& query_id, SimMillis at_ms) {
  for (auto& session : sessions_) {
    if (session->sub.query_id != query_id) continue;
    if (session->state == Session::State::kDone) {
      return Status::OK();  // Already finished: cancellation is a no-op.
    }
    session->cancel_at = at_ms;
    return Status::OK();
  }
  return Status::NotFound("unknown query id: " + query_id);
}

Result<int> QueryService::RecoverPending(
    const std::vector<QuerySubmission>& submissions) {
  if (options_.checkpoint_root.empty()) {
    return Status::FailedPrecondition(
        "RecoverPending requires QueryServiceOptions::checkpoint_root");
  }
  if (run_active_) {
    return Status::FailedPrecondition(
        "cannot recover while RunAll is in progress");
  }
  const std::string prefix = options_.checkpoint_root + "/pending/";
  obs::MetricsRegistry* metrics = engine_->metrics();
  obs::TraceSink* trace = engine_->trace();
  int recovered = 0;
  for (const std::string& path : engine_->dfs()->List(prefix)) {
    const std::string query_id = path.substr(prefix.size());
    const QuerySubmission* match = nullptr;
    for (const QuerySubmission& sub : submissions) {
      if (sub.query_id == query_id) {
        match = &sub;
        break;
      }
    }
    if (match == nullptr) continue;  // Marker kept for a later attempt.
    DYNO_RETURN_IF_ERROR(AddSession(*match, /*recovered=*/true));
    ++recovered;
    if (metrics != nullptr) metrics->GetCounter("service.recovered")->Add();
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kService, "service",
                                    "query_recovered")
                        .Arg("query", query_id));
    }
  }
  return recovered;
}

Result<std::vector<JobResult>> QueryService::SubmitFromSession(
    std::vector<JobSpec> specs) {
  Session* session = running_session_;
  if (session == nullptr || !run_active_) {
    // A submission from outside any session (not expected while the gate
    // is installed, but harmless): execute directly.
    return engine_->SubmitAllDirect(specs);
  }
  // A preemption victim parks like any other session and unwinds in the
  // scheduler's next UnwindStopped pass. Returning here would let a victim
  // named by the second admission pass finish inside the wave instead,
  // which moves its finish time and the trace.
  if (session->stop >= Session::Stop::kDeadline) {
    return session->StopStatus(/*queued=*/false);
  }
  session->pending_specs = std::move(specs);
  session->state = Session::State::kWaitingSubmit;
  session->fiber->Yield();
  Result<std::vector<JobResult>> out = std::move(*session->grant);
  session->grant.reset();
  return out;
}

void QueryService::RunSessionUntilBlocked(Session* session) {
  running_session_ = session;
  session->fiber->Resume();
  running_session_ = nullptr;
}

void QueryService::UnwindStopped() {
  for (auto& session : sessions_) {
    if (session->state != Session::State::kWaitingSubmit ||
        session->stop == Session::Stop::kNone) {
      continue;
    }
    session->pending_specs.clear();
    obs::TraceSink* trace = engine_->trace();
    if (session->stop == Session::Stop::kCancel && trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kService, "service",
                                    "query_cancelled")
                        .Arg("query", session->sub.query_id)
                        .ArgBool("admitted", true));
    }
    session->grant =
        Result<std::vector<JobResult>>(session->StopStatus(/*queued=*/false));
    RunSessionUntilBlocked(session.get());
  }
}

void QueryService::ApplyTimedCancels() {
  const SimMillis now = engine_->now();
  for (auto& session : sessions_) {
    if (session->cancel_at.has_value() && now >= *session->cancel_at &&
        session->state != Session::State::kDone) {
      session->Raise(Session::Stop::kCancel);
    }
  }
}

std::vector<QueryOutcome> QueryService::RunAll() {
  run_active_ = true;
  const int max_concurrent = std::max(1, options_.max_concurrent);
  const SimMillis run_start = engine_->now();

  obs::TraceSink* trace = engine_->trace();
  obs::MetricsRegistry* metrics = engine_->metrics();
  obs::Counter* m_admitted = nullptr;
  obs::Counter* m_completed = nullptr;
  obs::Counter* m_cancelled = nullptr;
  obs::Counter* m_failed = nullptr;
  obs::Counter* m_waves = nullptr;
  obs::Counter* m_wave_jobs = nullptr;
  obs::Counter* m_preemptions = nullptr;
  obs::Counter* m_shed = nullptr;
  obs::Counter* m_deadline = nullptr;
  obs::Counter* m_memory_held = nullptr;
  obs::Gauge* g_memory_reserved = nullptr;
  obs::Gauge* g_running = nullptr;
  obs::Histogram* h_latency = nullptr;
  obs::Histogram* h_queue_wait = nullptr;
  if (metrics != nullptr && options_.memory_ledger_bytes > 0) {
    // Registered only when the ledger is enabled, so knob-off metric dumps
    // stay byte-identical to pre-memory-model builds.
    m_memory_held = metrics->GetCounter("service.memory_held_back");
    g_memory_reserved = metrics->GetGauge("service.memory_reserved_bytes");
  }
  if (metrics != nullptr) {
    m_admitted = metrics->GetCounter("service.admitted");
    m_completed = metrics->GetCounter("service.completed");
    m_cancelled = metrics->GetCounter("service.cancelled");
    m_failed = metrics->GetCounter("service.failed");
    m_waves = metrics->GetCounter("service.waves");
    m_wave_jobs = metrics->GetCounter("service.wave_jobs");
    m_preemptions = metrics->GetCounter("service.preemptions");
    m_shed = metrics->GetCounter("service.shed");
    m_deadline = metrics->GetCounter("service.deadline_exceeded");
    g_running = metrics->GetGauge("service.running");
    h_latency = metrics->GetHistogram("service.query_latency_ms");
    h_queue_wait = metrics->GetHistogram("service.queue_wait_ms");
  }

  // The cohort this call runs: everything still queued. Absolute arrivals
  // and deadlines are fixed now, against the current cluster clock.
  std::vector<Session*> cohort;
  for (auto& session : sessions_) {
    if (session->state != Session::State::kQueued) continue;
    session->arrival_ms = run_start + session->arrival_offset;
    SimMillis deadline = session->sub.deadline_ms >= 0
                             ? session->sub.deadline_ms
                             : options_.default_deadline_ms;
    session->deadline_at =
        deadline > 0 ? session->arrival_ms + deadline : -1;
    cohort.push_back(session.get());
  }

  engine_->set_submit_gate([this](std::vector<JobSpec> specs) {
    return SubmitFromSession(std::move(specs));
  });

  int running = 0;  ///< Admitted, not yet reaped.
  std::map<std::string, int> tenant_running;
  /// Bytes currently promised against the memory ledger (scheduler only,
  /// like all admission state — deterministic by construction).
  uint64_t memory_reserved = 0;
  auto query_memory_charge = [&](Session* session) -> uint64_t {
    return session->sub.estimated_memory_bytes > 0
               ? session->sub.estimated_memory_bytes
               : options_.default_query_memory_bytes;
  };
  auto committed_slot_ms = [&](Session* session) -> SimMillis {
    const auto& per_query = engine_->query_slot_ms();
    auto it = per_query.find(session->sub.query_id);
    return it == per_query.end() ? 0 : it->second;
  };

  auto pending_marker_path = [&](Session* session) {
    return options_.checkpoint_root + "/pending/" + session->sub.query_id;
  };

  // Durable "this query is in flight" record, written at first admission
  // and removed at finalization: the successor instance's RecoverPending
  // scans exactly these.
  auto write_pending_marker = [&](Session* session) {
    if (options_.checkpoint_root.empty()) return;
    const std::string path = pending_marker_path(session);
    if (engine_->dfs()->Exists(path)) return;  // Re-admission.
    engine_->dfs()->Create(path).ok();
  };

  // Finalization scrubs the query's state — every intermediate under its
  // temp directory except the result and the quarantine files (poison
  // records are durable, like the result), the pending marker and both
  // checkpoint manifest generations — unless the run is halting, in which
  // case everything is left behind exactly as a crash would. A preemption
  // re-queue is not a finalization: the resume needs the intermediates.
  auto cleanup_service_state = [&](Session* session) {
    if (session->stop == Session::Stop::kHalt) return;
    Dfs* dfs = engine_->dfs();
    if (session->admit_ms >= 0) {
      const Result<QueryRunReport>& result = *session->driver_result;
      ReclaimQueryTemp(dfs, session->scoped_options.exec.query_id,
                       result.ok() && result->result != nullptr
                           ? result->result->path()
                           : "");
    }
    if (options_.checkpoint_root.empty()) return;
    dfs->Delete(pending_marker_path(session)).ok();
    const std::string& manifest = session->scoped_options.checkpoint_path;
    if (session->fiber != nullptr && !manifest.empty() &&
        StartsWith(manifest, options_.checkpoint_root)) {
      dfs->Delete(manifest).ok();
      dfs->Delete(manifest + ".prev").ok();
    }
  };

  // Finalizes a session with no fiber (never admitted, or already reaped
  // after a preemption) without a driver run: stopped while queued
  // (`status` empty: its StopStatus) or load-shed. No fiber, no slot
  // accounting.
  auto finalize_queued = [&](Session* session, obs::Counter* counter,
                             std::optional<Status> status = std::nullopt) {
    session->driver_result.emplace(
        Result<QueryRunReport>(status ? *status
                                      : session->StopStatus(/*queued=*/true)));
    session->state = Session::State::kDone;
    session->finish_ms = engine_->now();
    if (counter != nullptr) counter->Add();
    cleanup_service_state(session);
  };

  // Releases finished sessions' capacity and frees their fibers (after
  // cleanup_service_state, which reads the fiber as "admitted"). A session
  // that unwound because the scheduler preempted it is re-queued to resume
  // from its checkpoint instead of being finalized.
  auto reap_finished = [&] {
    for (Session* session : cohort) {
      if (session->state != Session::State::kDone ||
          session->fiber == nullptr) {
        continue;
      }
      --running;
      --tenant_running[session->sub.tenant];
      if (g_running != nullptr) g_running->Set(running);
      if (session->memory_charge > 0) {
        memory_reserved -= session->memory_charge;
        session->memory_charge = 0;
        if (g_memory_reserved != nullptr) {
          g_memory_reserved->Set(static_cast<int64_t>(memory_reserved));
        }
      }

      if (session->stop == Session::Stop::kPreempt &&
          session->driver_result->status().code() == StatusCode::kCancelled) {
        session->stop = Session::Stop::kNone;
        ++session->preempt_count;
        session->resume_on_start = true;
        session->driver_result.reset();
        session->fiber.reset();
        session->finish_ms = -1;
        session->state = Session::State::kQueued;
        if (m_preemptions != nullptr) m_preemptions->Add();
        if (trace != nullptr) {
          trace->Record(obs::TraceEvent(engine_->now(), -1,
                                        obs::TraceLane::kService, "service",
                                        "query_preempted")
                            .Arg("query", session->sub.query_id)
                            .ArgInt("preemptions", session->preempt_count));
        }
        continue;
      }

      const Status& st = session->driver_result->status();
      if (st.ok()) {
        if (m_completed != nullptr) m_completed->Add();
      } else if (st.code() == StatusCode::kCancelled) {
        if (m_cancelled != nullptr) m_cancelled->Add();
      } else if (st.code() == StatusCode::kDeadlineExceeded) {
        if (m_deadline != nullptr) m_deadline->Add();
      } else {
        if (m_failed != nullptr) m_failed->Add();
      }
      if (h_latency != nullptr) {
        h_latency->Observe(session->finish_ms - session->arrival_ms);
      }
      cleanup_service_state(session);
      session->fiber.reset();
      if (trace != nullptr) {
        trace->Record(obs::TraceEvent(session->finish_ms, -1,
                                      obs::TraceLane::kService, "service",
                                      "query_finished")
                          .Arg("query", session->sub.query_id)
                          .ArgBool("ok", st.ok())
                          .ArgInt("latency_ms",
                                  session->finish_ms - session->arrival_ms));
      }
    }
  };

  // Deadline sweep, at wave boundaries like timed cancels: queued sessions
  // past deadline finalize without ever starting; admitted ones are handed
  // DeadlineExceeded at their parked submission point (UnwindStopped). An
  // explicit cancel wins over a deadline.
  auto apply_deadlines = [&] {
    const SimMillis now = engine_->now();
    for (Session* session : cohort) {
      if (session->deadline_at < 0 || now < session->deadline_at) continue;
      if (session->state == Session::State::kDone ||
          session->stop >= Session::Stop::kDeadline) {
        continue;
      }
      session->Raise(Session::Stop::kDeadline);
      if (trace != nullptr) {
        trace->Record(obs::TraceEvent(now, -1, obs::TraceLane::kService,
                                      "service", "deadline_exceeded")
                          .Arg("query", session->sub.query_id)
                          .ArgInt("deadline_ms", session->deadline_at)
                          .ArgBool("admitted", session->fiber != nullptr));
      }
      if (session->state == Session::State::kQueued) {
        finalize_queued(session, m_deadline);
      }
    }
  };

  // Picks the running session a higher-priority arrival may evict: lowest
  // priority first, newest admission breaking ties (it has the least sunk
  // work). Sessions already being preempted or cancelled are exempt.
  auto lowest_priority_victim = [&]() -> Session* {
    Session* victim = nullptr;
    for (Session* s : cohort) {
      if (s->fiber == nullptr || s->state == Session::State::kDone) continue;
      if (s->stop != Session::Stop::kNone) continue;
      if (victim == nullptr || s->priority < victim->priority ||
          (s->priority == victim->priority &&
           s->admit_seq > victim->admit_seq)) {
        victim = s;
      }
    }
    return victim;
  };

  // Overload protection: reject a sheddable blocked arrival outright
  // instead of letting it sit in the queue only to time out. Sessions that
  // ever held a slot (preempted victims) are never shed — their work is
  // checkpointed, not disposable.
  auto maybe_shed = [&](Session* session) {
    if (session->priority > options_.load_shed_max_priority) return;
    if (session->preempt_count > 0 || session->resume_on_start) return;
    const SimMillis waited = engine_->now() - session->arrival_ms;
    const double pressure = engine_->last_wave_pressure();
    // Ledger utilization joins slot pressure as a shed trigger: a cluster
    // whose memory is promised out is as overloaded as one out of slots.
    const double memory_pressure =
        options_.memory_ledger_bytes > 0
            ? static_cast<double>(memory_reserved) /
                  static_cast<double>(options_.memory_ledger_bytes)
            : 0.0;
    const bool queue_shed =
        options_.load_shed_queue_ms > 0 && waited >= options_.load_shed_queue_ms;
    const bool pressure_shed = options_.load_shed_pressure > 0.0 &&
                               pressure >= options_.load_shed_pressure;
    const bool memory_shed = options_.load_shed_pressure > 0.0 &&
                             memory_pressure >= options_.load_shed_pressure;
    if (!queue_shed && !pressure_shed && !memory_shed) return;
    finalize_queued(session, m_shed,
                    Status::ResourceExhausted("query " +
                                              session->sub.query_id +
                                              " shed under overload"));
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kService, "service",
                                    "load_shed")
                        .Arg("query", session->sub.query_id)
                        .Arg("reason", queue_shed      ? "queue_wait"
                                       : pressure_shed ? "pressure"
                                                       : "memory_pressure")
                        .ArgInt("waited_ms", waited)
                        .ArgDouble("pressure", pressure)
                        .ArgDouble("memory_pressure", memory_pressure));
    }
  };

  // Admits due arrivals in (priority desc, arrival, enqueue) order,
  // respecting the service-wide concurrency cap and per-tenant slot
  // quotas, and runs each new session until its first park. A tenant at
  // quota is skipped, not a head-of-line blocker. When capacity blocks a
  // strictly higher-priority arrival, the lowest-priority running session
  // is marked for preemption; it unwinds at its next submission point,
  // frees its slot and re-queues, and — priorities leading the admission
  // order — the preemptor takes the slot first.
  auto admit_due = [&] {
    std::vector<Session*> due;
    for (Session* session : cohort) {
      if (session->state != Session::State::kQueued) continue;
      if (session->stop == Session::Stop::kCancel) {
        finalize_queued(session, m_cancelled);
        if (trace != nullptr) {
          trace->Record(obs::TraceEvent(engine_->now(), -1,
                                        obs::TraceLane::kService, "service",
                                        "query_cancelled")
                            .Arg("query", session->sub.query_id)
                            .ArgBool("admitted", false));
        }
        continue;
      }
      if (session->arrival_ms <= engine_->now()) due.push_back(session);
    }
    std::sort(due.begin(), due.end(), [](Session* a, Session* b) {
      if (a->priority != b->priority) return a->priority > b->priority;
      if (a->arrival_ms != b->arrival_ms) return a->arrival_ms < b->arrival_ms;
      return a->enqueue_seq < b->enqueue_seq;
    });
    for (Session* session : due) {
      if (running >= max_concurrent) {
        if (options_.priority_preemption) {
          Session* victim = lowest_priority_victim();
          if (victim != nullptr && victim->priority < session->priority) {
            victim->Raise(Session::Stop::kPreempt);
            continue;  // Admitted next pass, once the victim unwinds.
          }
        }
        maybe_shed(session);
        continue;
      }
      if (options_.tenant_slots > 0 &&
          tenant_running[session->sub.tenant] >= options_.tenant_slots) {
        continue;  // Quota; later arrivals of other tenants may still fit.
      }
      if (options_.memory_ledger_bytes > 0) {
        // Memory-aware admission: hold back a query whose charge would
        // oversubscribe the ledger. An empty ledger always admits, so one
        // oversized query cannot deadlock the queue — it runs alone and
        // degrades via the engine's spill/OOM machinery instead.
        const uint64_t charge = query_memory_charge(session);
        if (memory_reserved > 0 &&
            memory_reserved + charge > options_.memory_ledger_bytes) {
          if (!session->memory_held) {
            session->memory_held = true;
            if (m_memory_held != nullptr) m_memory_held->Add();
            if (trace != nullptr) {
              trace->Record(obs::TraceEvent(engine_->now(), -1,
                                            obs::TraceLane::kService,
                                            "service", "memory_pressure")
                                .Arg("query", session->sub.query_id)
                                .ArgInt("charge_bytes", charge)
                                .ArgInt("reserved_bytes", memory_reserved)
                                .ArgInt("ledger_bytes",
                                        options_.memory_ledger_bytes));
            }
          }
          maybe_shed(session);
          continue;
        }
        memory_reserved += charge;
        session->memory_charge = charge;
        session->memory_held = false;
        if (g_memory_reserved != nullptr) {
          g_memory_reserved->Set(static_cast<int64_t>(memory_reserved));
        }
      }
      session->admit_seq = next_admit_seq_++;
      const bool first_admission = session->admit_ms < 0;
      if (first_admission) session->admit_ms = engine_->now();
      // The driver takes the submission's query id, which the service keeps
      // unique: it scopes DFS temp paths (reclaimed at finalization),
      // quarantine files, engine fault streams and trace tags. A
      // checkpoint path, if configured, becomes per-query for the same
      // reason (manifest + ".prev" must never be shared across queries);
      // with none configured the service checkpoint root (if any) supplies
      // one, which is what makes preemption and crash recovery lossless.
      session->scoped_options = session->sub.options;
      session->scoped_options.exec.query_id = session->sub.query_id;
      if (session->scoped_options.checkpoint_path.empty() &&
          !options_.checkpoint_root.empty()) {
        session->scoped_options.checkpoint_path = options_.checkpoint_root;
      }
      if (!session->scoped_options.checkpoint_path.empty()) {
        session->scoped_options.checkpoint_path +=
            "/q/" + session->sub.query_id;
      }
      // Every admitted session shares the service-owned subtree cache (a
      // submission that pinned its own cache keeps it).
      if (session->scoped_options.subtree_cache == nullptr) {
        session->scoped_options.subtree_cache = subtree_cache_.get();
      }
      ++running;
      ++tenant_running[session->sub.tenant];
      if (first_admission && m_admitted != nullptr) m_admitted->Add();
      if (g_running != nullptr) g_running->Set(running);
      if (first_admission && h_queue_wait != nullptr) {
        h_queue_wait->Observe(session->admit_ms - session->arrival_ms);
      }
      write_pending_marker(session);
      if (trace != nullptr) {
        if (session->resume_on_start) {
          trace->Record(obs::TraceEvent(engine_->now(), -1,
                                        obs::TraceLane::kService, "service",
                                        "query_resumed")
                            .Arg("query", session->sub.query_id)
                            .ArgInt("preemptions", session->preempt_count)
                            .ArgBool("recovered", session->recovered));
        } else {
          trace->Record(obs::TraceEvent(session->admit_ms, -1,
                                        obs::TraceLane::kService, "service",
                                        "query_admitted")
                            .Arg("query", session->sub.query_id)
                            .Arg("tenant", session->sub.tenant)
                            .ArgInt("queue_wait_ms",
                                    session->admit_ms - session->arrival_ms));
        }
      }
      session->fiber = std::make_unique<Fiber>([this, session] {
        // The stats-sharing knob: with sharing off each session plans from
        // a private store, so one query's pilot statistics never leak into
        // another (the isolation ablation for the cross-query reuse
        // experiments).
        StatsStore private_store;
        DynoDriver driver(engine_, catalog_,
                          options_.share_pilot_stats ? store_ : &private_store,
                          session->scoped_options);
        // A preempted or crash-recovered session resumes from its
        // checkpoint manifest; Resume degrades to Execute-from-scratch when
        // no manifest is readable, so correctness never depends on
        // checkpoint survival.
        session->driver_result.emplace(
            session->resume_on_start ? driver.Resume(session->sub.query)
                                     : driver.Execute(session->sub.query));
        session->finish_ms = engine_->now();
        session->state = Session::State::kDone;
      });
      RunSessionUntilBlocked(session);
    }
  };

  // One combined wave: the batches of every parked session, ordered by
  // priority class first and fair share within a class — least attained
  // committed slot time, admission sequence breaking ties. The engine
  // grants scarce slots FIFO across the batch, so wave order IS the
  // scheduling policy.
  auto run_wave = [&] {
    std::vector<Session*> waiting;
    for (Session* session : cohort) {
      if (session->state == Session::State::kWaitingSubmit) {
        waiting.push_back(session);
      }
    }
    if (waiting.empty()) return false;
    std::sort(waiting.begin(), waiting.end(), [&](Session* a, Session* b) {
      if (a->priority != b->priority) return a->priority > b->priority;
      SimMillis sa = committed_slot_ms(a);
      SimMillis sb = committed_slot_ms(b);
      if (sa != sb) return sa < sb;
      return a->admit_seq < b->admit_seq;
    });
    std::vector<JobSpec> specs;
    std::vector<std::pair<Session*, size_t>> parts;
    for (Session* session : waiting) {
      parts.emplace_back(session, session->pending_specs.size());
      for (JobSpec& spec : session->pending_specs) {
        specs.push_back(std::move(spec));
      }
      session->pending_specs.clear();
    }
    if (m_waves != nullptr) m_waves->Add();
    if (m_wave_jobs != nullptr) m_wave_jobs->Add(specs.size());
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kService, "service",
                                    "wave")
                        .ArgInt("sessions", (int64_t)parts.size())
                        .ArgInt("jobs", (int64_t)specs.size())
                        .ArgDouble("pressure",
                                   engine_->last_wave_pressure()));
    }
    Result<std::vector<JobResult>> wave = engine_->SubmitAllDirect(specs);
    size_t offset = 0;
    std::vector<Result<std::vector<JobResult>>> slices;
    slices.reserve(parts.size());
    for (const auto& [session, count] : parts) {
      (void)session;
      if (wave.ok()) {
        slices.emplace_back(std::vector<JobResult>(
            wave->begin() + offset, wave->begin() + offset + count));
      } else {
        slices.emplace_back(wave.status());
      }
      offset += count;
    }
    // Resume in the same fair-share order.
    for (size_t i = 0; i < parts.size(); ++i) {
      parts[i].first->grant = std::move(slices[i]);
      RunSessionUntilBlocked(parts[i].first);
    }
    return true;
  };

  // Stops scheduling mid-run, leaving all service state on the DFS as a
  // crash would: parked sessions unwind with Cancelled, queued ones
  // finalize as cancelled, intermediates, markers and manifests survive for
  // a successor's RecoverPending.
  auto halt_run = [&] {
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kService, "service",
                                    "service_halt")
                        .ArgInt("at_ms", engine_->now()));
    }
    for (Session* session : cohort) session->Raise(Session::Stop::kHalt);
    UnwindStopped();
    reap_finished();
    for (Session* session : cohort) {
      if (session->state == Session::State::kQueued) {
        finalize_queued(session, m_cancelled);
      }
    }
  };

  for (;;) {
    if (options_.halt_at_ms >= 0 && engine_->now() >= options_.halt_at_ms) {
      halt_run();
      break;
    }
    ApplyTimedCancels();
    apply_deadlines();
    reap_finished();
    admit_due();
    UnwindStopped();
    reap_finished();
    // A preemption freed its slot just now (unwind → reap): admit again so
    // the preemptor joins the very next wave instead of waiting one out.
    admit_due();
    if (run_wave()) continue;

    // Nothing parked. Anything still pending is a future arrival (or a
    // queued session blocked on capacity freed by the reap above — retry).
    bool any_done_unreaped = false;
    SimMillis next_arrival = -1;
    bool any_queued = false;
    for (Session* session : cohort) {
      if (session->state == Session::State::kDone &&
          session->fiber != nullptr) {
        any_done_unreaped = true;
      }
      if (session->state == Session::State::kQueued) {
        any_queued = true;
        if (next_arrival < 0 || session->arrival_ms < next_arrival) {
          next_arrival = session->arrival_ms;
        }
      }
    }
    if (any_done_unreaped) continue;
    if (any_queued) {
      if (next_arrival > engine_->now()) {
        engine_->AdvanceClock(next_arrival - engine_->now());
      }
      // A due-but-quota-blocked arrival unblocks when a running session of
      // its tenant finishes; with nothing running and nothing parked the
      // next admission pass must make progress.
      continue;
    }
    break;
  }

  engine_->set_submit_gate(nullptr);
  run_active_ = false;

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(cohort.size());
  for (Session* session : cohort) {
    QueryOutcome outcome;
    outcome.query_id = session->sub.query_id;
    outcome.tenant = session->sub.tenant;
    outcome.priority = session->priority;
    outcome.status = session->driver_result->status();
    if (session->driver_result->ok()) {
      outcome.report = session->driver_result->value();
    }
    outcome.arrival_ms = session->arrival_ms;
    outcome.admit_ms = session->admit_ms;
    outcome.finish_ms = session->finish_ms;
    outcome.slot_ms = committed_slot_ms(session);
    outcome.preemptions = session->preempt_count;
    outcome.recovered = session->recovered;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace dyno
