/**
 * @file
 * Fleet telemetry: hierarchical span tracing for the campaign/runner
 * layer (DESIGN.md §11).
 *
 * Everything here is host-side observability: no simulated counter,
 * stats dump, journal or sink line ever changes with telemetry on or
 * off (golden dumps and journals stay byte-identical — enforced by
 * telemetry_test and the CI campaign smoke). The disabled path is one
 * relaxed atomic load per instrumentation site.
 *
 * Spans form the hierarchy campaign → worker → job → phase
 * (expand / ffwd-warm / detailed-window / retry-backoff /
 * journal-append / steal / recovery). Each closed span becomes one
 * Chrome trace-event "X" record in a per-process event part file, an
 * AppendLog (runner/append_log.hh), so spans survive worker _exit and
 * concurrent writers never interleave.
 * finalizeTrace() merges the per-process files into one strict-JSON
 * trace-event document Perfetto loads directly, exactly like worker
 * journals merge into one result set.
 */

#ifndef DGSIM_TELEMETRY_TELEMETRY_HH
#define DGSIM_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "runner/json.hh"

namespace dgsim::telemetry
{

namespace detail
{
struct TelemetryState;
/** Null when telemetry is off — the single disabled-path branch. */
extern std::atomic<TelemetryState *> g_state;
std::uint64_t nowMicros(TelemetryState &state);
void emitSpan(TelemetryState &state, const char *name, const char *cat,
              std::uint64_t start_us, std::uint64_t end_us,
              const runner::JsonWriter &args);
} // namespace detail

/** True while telemetry is enabled (one relaxed load). */
inline bool
enabled()
{
    return detail::g_state.load(std::memory_order_relaxed) != nullptr;
}

/**
 * Turn telemetry on for this process, tracing into @p tracePath (the
 * merged Chrome trace-event JSON output). Truncates this process's
 * event part file and captures the monotonic epoch all timestamps
 * (including forked workers', which inherit it) are measured from.
 * Fatal when already enabled — nesting would corrupt the epoch.
 */
void enable(const std::string &tracePath);

/** Close the event file and disable. Safe to call when disabled
 * (no-op). */
void shutdown();

/**
 * Post-fork worker setup: redirect span output to the worker's own
 * event part file (appended across recovery passes, after cutting a
 * torn final event a killed predecessor left), refresh
 * the cached pid, and emit the Perfetto process-name metadata for this
 * worker's track. No-op when telemetry is off.
 */
void reopenForWorker(unsigned worker);

/**
 * Parent-side campaign setup: record how many worker part files
 * finalizeTrace() must merge and unlink stale ones from a previous
 * incarnation of the campaign (their timestamps belong to a dead
 * epoch). No-op when telemetry is off.
 */
void setWorkerCount(unsigned workers);

/**
 * Merge the per-process event part files into the configured trace
 * path as one strict-JSON Chrome trace-event document. Tolerates a
 * torn final line per part file (a killed worker's artifact).
 * Returns the merged path, or "" when telemetry is off. Idempotent —
 * only the first call merges.
 */
std::string finalizeTrace();

/** Emit Perfetto "process_name" metadata for this process's track. */
void emitProcessName(const std::string &name);

/**
 * RAII span. Construction stamps the start, destruction emits one
 * trace-event line; both are no-ops when telemetry is off. arg()
 * attaches key/value pairs shown in the Perfetto slice details.
 * A null @p name makes the span inert — the conditional-span idiom
 * (`ScopedSpan s(stolen ? "steal" : nullptr, "phase")`).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat)
        : state_(name ? detail::g_state.load(std::memory_order_relaxed)
                      : nullptr)
    {
        if (!state_)
            return;
        name_ = name;
        cat_ = cat;
        startUs_ = detail::nowMicros(*state_);
    }

    ~ScopedSpan()
    {
        if (state_)
            detail::emitSpan(*state_, name_, cat_, startUs_,
                             detail::nowMicros(*state_), args_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void arg(const char *key, const std::string &value);
    void arg(const char *key, std::uint64_t value);

  private:
    detail::TelemetryState *state_;
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    std::uint64_t startUs_ = 0;
    runner::JsonWriter args_;
};

} // namespace dgsim::telemetry

#endif // DGSIM_TELEMETRY_TELEMETRY_HH
