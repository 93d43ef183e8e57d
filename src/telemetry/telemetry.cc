#include "telemetry/telemetry.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/log.hh"
#include "runner/json.hh"
#include "telemetry/trace.hh"

namespace dgsim::telemetry
{
namespace detail
{

/**
 * The whole enabled-telemetry world. Forked workers inherit a copy:
 * the epoch stays shared (so timestamps align across processes) while
 * reopenForWorker() swaps the process-local pieces (event fd, pid).
 */
struct TelemetryState
{
    std::string tracePath;
    std::chrono::steady_clock::time_point epoch;

    int eventFd = -1;
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

/** One whole line, one write(2): the claims-appender idiom. Events
 * are ~150 bytes, far below PIPE_BUF, so concurrent processes never
 * interleave and a kill loses at most the line being written. */
void
writeLine(int fd, const std::string &line)
{
    ssize_t written = 0;
    while (written < static_cast<ssize_t>(line.size())) {
        const ssize_t n =
            ::write(fd, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            DGSIM_WARN_ONCE("telemetry event write failed: " +
                            std::string(std::strerror(errno)));
            return;
        }
        written += n;
    }
}

int
openEventFile(const std::string &path, bool truncate)
{
    const int flags =
        O_WRONLY | O_APPEND | O_CREAT | (truncate ? O_TRUNC : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0)
        DGSIM_FATAL("cannot open telemetry event file '" + path + "': " +
                    std::strerror(errno));
    return fd;
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
         const std::string &args)
{
    std::string line;
    line.reserve(160 + args.size());
    line += "{\"name\":\"";
    line += name;
    line += "\",\"cat\":\"";
    line += cat;
    line += "\",\"ph\":\"X\",\"ts\":" + std::to_string(start_us) +
            ",\"dur\":" +
            std::to_string(end_us >= start_us ? end_us - start_us : 0) +
            ",\"pid\":" + std::to_string(state.pid) +
            ",\"tid\":" + std::to_string(threadTid()) + ",\"args\":{" +
            args + "}}\n";
    writeLine(state.eventFd, line);
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
    state->eventFd = detail::openEventFile(detail::mainEventPath(tracePath),
                                           /*truncate=*/true);
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
    ::close(state->eventFd);
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
    ::close(state->eventFd);
    state->eventFd = detail::openEventFile(
        detail::workerEventPath(state->tracePath, worker),
        /*truncate=*/false);
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
    const std::string line =
        "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
        "\"ts\":0,\"dur\":0,\"pid\":" +
        std::to_string(state->pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
        runner::jsonEscape(name) + "\"}}\n";
    detail::writeLine(state->eventFd, line);
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!state_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += std::string("\"") + key + "\":\"" + runner::jsonEscape(value) +
             "\"";
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (!state_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += std::string("\"") + key + "\":" + std::to_string(value);
}

} // namespace dgsim::telemetry
