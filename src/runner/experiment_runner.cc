#include "runner/experiment_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/errors.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "fuzz/fuzz.hh"
#include "runner/thread_pool.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"

namespace dgsim::runner
{
namespace
{

/** The default job executor: the real simulator, or the relational
 * leak oracle for fuzz-candidate jobs (which carry no program). */
SimResult
defaultExecute(const Job &job)
{
    if (job.kind == JobKind::FuzzCandidate)
        return fuzz::runCandidateJob(job);
    return runProgram(*job.program, job.config);
}

} // namespace

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options)),
      threads_(options_.threads == 0 ? ThreadPool::hardwareThreads()
                                     : options_.threads)
{
    if (!options_.execute)
        options_.execute = defaultExecute;
    if (options_.maxAttempts == 0)
        options_.maxAttempts = 1;
}

std::vector<JobOutcome>
ExperimentRunner::run(const SweepSpec &spec)
{
    return run(spec.expand());
}

namespace
{

bool
injectedFaultImpl(const RunnerOptions &options, const std::string &key,
                  unsigned attempt)
{
    if (options.injectFailRate <= 0.0)
        return false;
    // The draw is a pure function of (key, attempt, seed): the same
    // sweep under the same rate/seed fails the same attempts of the
    // same jobs no matter the thread count or dispatch order.
    Rng rng(fnv::hashBytes(key) ^ (options.injectFailSeed +
                    attempt * 0x9e3779b97f4a7c15ULL));
    const double draw =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53; // [0, 1)
    return draw < options.injectFailRate;
}

void
executeJobImpl(const RunnerOptions &options, const Job &job,
               const std::string &key, JobOutcome &outcome)
{
    // One span per job covering every attempt; closes even when the
    // worker's journal record never lands (tolerant readers drop the
    // torn line, not the span).
    telemetry::ScopedSpan span("job", "job");
    span.arg("key", key);
    span.arg("workload", job.workload);
    unsigned attempt = 0;
    for (;;) {
        ++attempt;
        try {
            if (injectedFaultImpl(options, key, attempt))
                throw TransientError("injected transient fault (attempt " +
                                     std::to_string(attempt) + ", " + key +
                                     ")");
            outcome.result = options.execute(job);
            outcome.ok = true;
            outcome.error.clear();
            // Warned here, not in the core, so leak-oracle probes stay
            // quiet; once, because a sweep whose config systematically
            // hits the limit would otherwise print one line per job.
            if (outcome.result.hitMaxCycles)
                DGSIM_WARN_ONCE(job.workload + ": cycle limit reached at " +
                                std::to_string(outcome.result.cycles) +
                                " cycles, " +
                                std::to_string(outcome.result.instructions) +
                                " instructions (warned once per process)");
            break;
        } catch (const TransientError &e) {
            // Host-side failure: retry with backoff until the attempt
            // budget runs out, surfacing the original error then.
            outcome.ok = false;
            outcome.error = e.what();
            if (attempt >= options.maxAttempts)
                break;
            if (options.cancel &&
                options.cancel->load(std::memory_order_relaxed)) {
                outcome.error += " [retries abandoned: drain requested]";
                break;
            }
            const std::uint64_t delay = options.backoff.delayMs(attempt);
            if (delay != 0) {
                telemetry::ScopedSpan backoff("retry-backoff", "phase");
                backoff.arg("attempt", attempt);
                backoff.arg("delay_ms", delay);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            }
        } catch (const std::exception &e) {
            // Deterministic sim error: re-running would reproduce it
            // bit-for-bit, so report once and never retry.
            outcome.ok = false;
            outcome.error = e.what();
            break;
        } catch (...) {
            outcome.ok = false;
            outcome.error = "unknown exception";
            break;
        }
    }
    outcome.attempts = attempt;
    span.arg("attempts", attempt);
    span.arg("ok", outcome.ok ? std::uint64_t{1} : std::uint64_t{0});
}

} // namespace

bool
ExperimentRunner::injectedFault(const std::string &key, unsigned attempt) const
{
    return injectedFaultImpl(options_, key, attempt);
}

void
ExperimentRunner::executeJob(const Job &job, const std::string &key,
                             JobOutcome &outcome)
{
    executeJobImpl(options_, job, key, outcome);
}

JobOutcome
runSingleJob(const Job &job, const std::string &key,
             const RunnerOptions &options)
{
    JobOutcome outcome;
    outcome.index = job.index;
    outcome.workload = job.workload;
    outcome.suite = job.suite;
    outcome.configLabel = job.config.label();
    if (options.execute) {
        executeJobImpl(options, job, key, outcome);
    } else {
        RunnerOptions defaulted = options;
        defaulted.execute = defaultExecute;
        executeJobImpl(defaulted, job, key, outcome);
    }
    return outcome;
}

std::vector<JobOutcome>
ExperimentRunner::run(const std::vector<Job> &jobs)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> retried{0};

    std::unique_ptr<JournalWriter> journal;
    if (!options_.journalPath.empty())
        journal = std::make_unique<JournalWriter>(
            options_.journalPath, options_.journalHostMetrics,
            options_.journalSync);

    // Opt-in heartbeat: one wholly formatted line per period, emitted
    // with a single fwrite so job progress/log output never interleaves
    // with it. The thread only reads the atomic counter — jobs never
    // block on the heartbeat.
    std::thread heartbeat;
    std::mutex heartbeatMutex;
    std::condition_variable heartbeatCv;
    bool heartbeatStop = false;
    if (options_.heartbeatSec > 0.0) {
        const auto start = std::chrono::steady_clock::now();
        const auto period = std::chrono::duration<double>(
            options_.heartbeatSec);
        heartbeat = std::thread([&, start, period] {
            std::FILE *out = options_.heartbeatStream
                                 ? options_.heartbeatStream
                                 : stderr;
            std::unique_lock<std::mutex> lock(heartbeatMutex);
            while (!heartbeatCv.wait_for(lock, period,
                                         [&] { return heartbeatStop; })) {
                const std::size_t done = completed.load();
                const std::size_t retries = retried.load();
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
                const double eta =
                    rate > 0.0 ? (outcomes.size() - done) / rate : 0.0;
                char line[200];
                const int len = std::snprintf(
                    line, sizeof(line),
                    "[runner] heartbeat %zu/%zu jobs (%.1f%%), "
                    "%.2f jobs/s, ETA %.0fs, %zu retried\n",
                    done, outcomes.size(),
                    outcomes.empty() ? 100.0
                                     : 100.0 * done / outcomes.size(),
                    rate, eta, retries);
                if (len > 0) {
                    std::fwrite(line, 1, static_cast<std::size_t>(len),
                                out);
                    std::fflush(out);
                }
            }
        });
    }

    {
        ThreadPool pool(threads_);
        std::size_t resumedCount = 0;
        for (const Job &job : jobs) {
            DGSIM_ASSERT(job.index < jobs.size(),
                         "job indices must form 0..N-1");
            JobOutcome &outcome = outcomes[job.index];
            std::string key = jobKey(job);

            // Resume: restore journaled successes without re-running.
            // Journaled failures fall through and execute again — a
            // deterministic error just reproduces, a transient one gets
            // a fresh chance.
            const auto it = options_.resume.find(key);
            if (it != options_.resume.end() && it->second.ok) {
                DGSIM_ASSERT(it->second.workload == job.workload &&
                                 it->second.configLabel == job.config.label(),
                             "journal key collision: " + key);
                outcome = it->second;
                outcome.index = job.index;
                outcome.resumed = true;
                completed.fetch_add(1);
                ++resumedCount;
                continue;
            }

            JournalWriter *journalPtr = journal.get();
            pool.submit([this, &job, &outcome, &outcomes, &completed,
                         &retried, key = std::move(key), journalPtr] {
                outcome.index = job.index;
                outcome.workload = job.workload;
                outcome.suite = job.suite;
                outcome.configLabel = job.config.label();
                const bool canceled =
                    options_.cancel &&
                    options_.cancel->load(std::memory_order_relaxed);
                if (canceled) {
                    // Drain: never started, so deliberately NOT
                    // journaled — a resume must run this job.
                    outcome.ok = false;
                    outcome.attempts = 0;
                    outcome.error = "interrupted: drained before start "
                                    "(resume to run)";
                } else {
                    executeJob(job, key, outcome);
                    if (outcome.attempts > 1)
                        retried.fetch_add(1);
                    if (journalPtr)
                        journalPtr->record(key, outcome);
                }
                const std::size_t done = completed.fetch_add(1) + 1;
                if (options_.progress) {
                    // Single atomic-ish fprintf per job; ordering between
                    // workers is irrelevant because `done` only grows.
                    std::fprintf(stderr, "\r[runner] %zu/%zu jobs", done,
                                 outcomes.size());
                    if (done == outcomes.size())
                        std::fprintf(stderr, "\n");
                }
            });
        }
        if (resumedCount != 0 && options_.progress)
            std::fprintf(stderr,
                         "[runner] resumed %zu/%zu jobs from journal\n",
                         resumedCount, outcomes.size());
        pool.wait();
    }

    if (heartbeat.joinable()) {
        {
            std::lock_guard<std::mutex> lock(heartbeatMutex);
            heartbeatStop = true;
        }
        heartbeatCv.notify_all();
        heartbeat.join();
    }

    // Sinks run on this thread, after the barrier, in index order:
    // serialized output is independent of the executing thread count.
    for (ResultSink *sink : sinks_) {
        for (const JobOutcome &outcome : outcomes)
            sink->consume(outcome);
        sink->finish();
    }
    return outcomes;
}

} // namespace dgsim::runner
