#include "telemetry/telemetry.hh"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "runner/append_log.hh"
#include "telemetry/trace.hh"

namespace dgsim::telemetry
{
namespace detail
{

/**
 * The whole enabled-telemetry world. Forked workers inherit a copy:
 * the epoch stays shared (so timestamps align across processes) while
 * reopenForWorker() swaps the process-local pieces (event log, pid).
 */
struct TelemetryState
{
    std::string tracePath;
    std::chrono::steady_clock::time_point epoch;

    /** This process's event part file: events are ~150 bytes, one
        AppendLog record each, so a kill loses at most one span. */
    std::optional<runner::AppendLog> events;
    int pid = 0;
    unsigned workers = 0;
    bool finalized = false;
};

std::atomic<TelemetryState *> g_state{nullptr};

namespace
{

/** Per-thread Perfetto track id, assigned on first span. */
std::atomic<std::uint64_t> g_nextTid{1};
thread_local std::uint64_t t_tid = 0;

std::uint64_t
threadTid()
{
    if (t_tid == 0)
        t_tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

std::string
mainEventPath(const std::string &tracePath)
{
    return tracePath + ".main.events";
}

std::string
workerEventPath(const std::string &tracePath, unsigned worker)
{
    return tracePath + ".w" + std::to_string(worker) + ".events";
}

/** Append one event; a lost span is only a gap in the trace. */
void
writeEvent(TelemetryState &state, std::string line)
{
    const int err = state.events->append(std::move(line));
    if (err != 0)
        DGSIM_WARN_ONCE("telemetry event write failed: " +
                        std::string(std::strerror(err)));
}

} // namespace

std::uint64_t
nowMicros(TelemetryState &state)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - state.epoch)
            .count());
}

void
emitSpan(TelemetryState &state, const char *name, const char *cat,
         std::uint64_t start_us, std::uint64_t end_us,
         const runner::JsonWriter &args)
{
    writeEvent(state,
               runner::JsonWriter()
                   .string("name", name)
                   .string("cat", cat)
                   .string("ph", "X")
                   .u64("ts", start_us)
                   .u64("dur", end_us >= start_us ? end_us - start_us : 0)
                   .u64("pid", static_cast<std::uint64_t>(state.pid))
                   .u64("tid", threadTid())
                   .object("args", args)
                   .str());
}

} // namespace detail

using detail::TelemetryState;

void
enable(const std::string &tracePath)
{
    if (enabled())
        DGSIM_FATAL("telemetry is already enabled in this process");
    auto *state = new TelemetryState;
    state->tracePath = tracePath;
    state->epoch = std::chrono::steady_clock::now();
    state->pid = static_cast<int>(::getpid());
    state->events.emplace(detail::mainEventPath(tracePath),
                          runner::AppendLog::Open::Truncate);
    detail::g_state.store(state, std::memory_order_release);
    emitProcessName("dgrun");
}

void
shutdown()
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    // Unpublish first so in-flight instrumentation sites (there are
    // none by the time dgrun shuts down, but cheap insurance) stop
    // observing the state being torn down.
    detail::g_state.store(nullptr, std::memory_order_release);
    delete state;
}

void
reopenForWorker(unsigned worker)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    state->pid = static_cast<int>(::getpid());
    // Append: a recovery pass's worker continues its predecessor's file,
    // whose last span a kill may have torn.
    state->events.emplace(detail::workerEventPath(state->tracePath, worker),
                          runner::AppendLog::Open::Append);
    emitProcessName("worker " + std::to_string(worker));
}

void
setWorkerCount(unsigned workers)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    state->workers = workers;
    // Stale part files from a previous incarnation of this campaign
    // carry timestamps from a dead epoch; a resumed campaign starts
    // its trace fresh, like the claims rotation.
    for (unsigned w = 0; w < workers; ++w)
        ::unlink(detail::workerEventPath(state->tracePath, w).c_str());
}

std::string
finalizeTrace()
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return "";
    if (state->finalized)
        return state->tracePath;
    state->finalized = true;
    std::vector<std::string> parts;
    parts.push_back(detail::mainEventPath(state->tracePath));
    for (unsigned w = 0; w < state->workers; ++w)
        parts.push_back(detail::workerEventPath(state->tracePath, w));
    const std::size_t events = mergeTraceFiles(parts, state->tracePath);
    DGSIM_INFORM("telemetry: merged " + std::to_string(events) +
                 " event(s) from " + std::to_string(parts.size()) +
                 " part file(s) into " + state->tracePath);
    return state->tracePath;
}

void
emitProcessName(const std::string &name)
{
    TelemetryState *state =
        detail::g_state.load(std::memory_order_acquire);
    if (!state)
        return;
    detail::writeEvent(
        *state,
        runner::JsonWriter()
            .string("name", "process_name")
            .string("cat", "__metadata")
            .string("ph", "M")
            .u64("ts", 0)
            .u64("dur", 0)
            .u64("pid", static_cast<std::uint64_t>(state->pid))
            .u64("tid", 0)
            .object("args", runner::JsonWriter().string("name", name))
            .str());
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (state_)
        args_.string(key, value);
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (state_)
        args_.u64(key, value);
}

} // namespace dgsim::telemetry
