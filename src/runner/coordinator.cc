#include "runner/coordinator.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/log.hh"
#include "common/signals.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "telemetry/telemetry.hh"

namespace dgsim::runner
{
namespace
{

/** One execution claim: appended before a worker starts a job. */
struct Claim
{
    std::string key;
    unsigned shard = 0;
    unsigned worker = 0;
};

/**
 * Append-only claims writer. Each claim is one short JSON line written
 * with a single O_APPEND write(2): atomic for writes below PIPE_BUF
 * (claims are ~100 bytes), so concurrent workers never interleave.
 */
class ClaimsAppender
{
  public:
    explicit ClaimsAppender(const std::string &path)
        : fd_(::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644))
    {
        if (fd_ < 0)
            DGSIM_FATAL("cannot open claims file '" + path + "': " +
                        std::strerror(errno));
    }

    ~ClaimsAppender()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    append(const std::string &key, unsigned shard, unsigned worker)
    {
        const std::string line = "{\"key\":\"" + jsonEscape(key) +
                                 "\",\"shard\":" + std::to_string(shard) +
                                 ",\"worker\":" + std::to_string(worker) +
                                 "}\n";
        ssize_t written = 0;
        while (written < static_cast<ssize_t>(line.size())) {
            const ssize_t n = ::write(fd_, line.data() + written,
                                      line.size() - written);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                DGSIM_FATAL("claims append failed: " +
                            std::string(std::strerror(errno)));
            }
            written += n;
        }
    }

  private:
    int fd_;
};

/** Parse the claims file; tolerates a truncated final line. */
std::vector<Claim>
loadClaims(const std::string &path)
{
    std::ifstream in(path);
    std::vector<Claim> claims;
    if (!in)
        return claims;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        try {
            const JsonValue record = JsonParser(line).parse();
            Claim claim;
            claim.key = jsonMember(record, "key").str;
            claim.shard = static_cast<unsigned>(
                std::stoul(jsonMember(record, "shard").number));
            claim.worker = static_cast<unsigned>(
                std::stoul(jsonMember(record, "worker").number));
            claims.push_back(std::move(claim));
        } catch (const JsonParseError &) {
            // A claim cut short by a kill: ignore — claims are advisory.
            continue;
        }
    }
    return claims;
}

std::vector<std::string>
allWorkerJournals(const std::string &manifestPath, unsigned workers)
{
    std::vector<std::string> paths;
    paths.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        paths.push_back(workerJournalPath(manifestPath, w));
    return paths;
}

/** Keys with any journal record (ok or final failure): settled work. */
std::unordered_set<std::string>
settledKeys(const std::vector<std::string> &journalPaths)
{
    std::unordered_set<std::string> settled;
    for (const auto &entry : mergeJournals(journalPaths))
        settled.insert(entry.first);
    return settled;
}

/** The per-job state one worker pass operates on. */
struct WorkerContext
{
    const CampaignManifest *manifest = nullptr;
    std::string manifestPath;
    unsigned worker = 0;
    unsigned workers = 1;
    const CoordinatorOptions *options = nullptr;

    std::vector<Job> jobs;           ///< Full expansion, original indices.
    std::vector<std::string> keys;   ///< keys[i] = jobKey(jobs[i]).
    std::vector<unsigned> shards;    ///< shards[i] = shardOf(keys[i]).
};

/** RunnerOptions a worker derives from the manifest budgets. */
RunnerOptions
workerRunnerOptions(const WorkerContext &ctx)
{
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxAttempts = ctx.manifest->retries + 1;
    options.backoff.baseMs = ctx.manifest->retryBaseMs;
    options.injectFailRate = ctx.manifest->injectFailRate;
    options.injectFailSeed = ctx.manifest->injectFailSeed;
    options.execute = ctx.options->execute;
    options.cancel = &drainFlag();
    return options;
}

/**
 * Execute jobs[i]: claim, honor the death injection, run with the
 * manifest's retry budget, journal the final outcome.
 */
void
runClaimedJob(const WorkerContext &ctx, std::size_t i,
              ClaimsAppender &claims, JournalWriter &journal,
              const RunnerOptions &ropts, std::size_t &completed)
{
    // A "steal" span wraps jobs this worker takes from another shard;
    // the nested "job" span (emitted by the runner) carries the timing.
    const bool stolen = ctx.shards[i] % ctx.workers != ctx.worker;
    telemetry::ScopedSpan steal(stolen ? "steal" : nullptr, "phase");
    if (stolen) {
        steal.arg("key", ctx.keys[i]);
        steal.arg("shard", std::uint64_t{ctx.shards[i]});
    }

    claims.append(ctx.keys[i], ctx.shards[i], ctx.worker);

    // Death injection lands after the claim and before the journal
    // record — the worst possible moment, exactly what a real SIGKILL
    // mid-job produces.
    if (ctx.options->killWorker >= 0 &&
        static_cast<unsigned>(ctx.options->killWorker) == ctx.worker &&
        completed == ctx.options->killAfterJobs) {
        struct ::stat st;
        if (ctx.options->killOnceMarker.empty() ||
            ::stat(ctx.options->killOnceMarker.c_str(), &st) != 0) {
            if (!ctx.options->killOnceMarker.empty()) {
                const int fd = ::open(ctx.options->killOnceMarker.c_str(),
                                      O_WRONLY | O_CREAT, 0644);
                if (fd >= 0)
                    ::close(fd);
            }
            _exit(9);
        }
    }

    const JobOutcome outcome = runSingleJob(ctx.jobs[i], ctx.keys[i], ropts);
    {
        telemetry::ScopedSpan append("journal-append", "phase");
        journal.record(ctx.keys[i], outcome);
    }
    ++completed;
}

/**
 * The body of one forked worker process. Returns its exit status:
 * 0 = clean (its view of the campaign is drained of unclaimed work),
 * 130 = drain signal, 3 = manifest validation failure.
 */
int
workerMain(WorkerContext ctx)
{
    // Redirect spans to this worker's own part file before anything
    // else; the "worker" span then covers the whole pass and closes on
    // a clean return (the _exit(workerMain(...)) call site evaluates
    // us fully). Only a kill loses it — which the report flags.
    telemetry::reopenForWorker(ctx.worker);
    telemetry::ScopedSpan span("worker", "worker");
    span.arg("worker", std::uint64_t{ctx.worker});

    const std::string err = validateManifest(*ctx.manifest, ctx.jobs);
    if (!err.empty()) {
        std::fprintf(stderr, "[campaign] worker %u: manifest mismatch: %s\n",
                     ctx.worker, err.c_str());
        return 3;
    }

    const std::vector<std::string> journalPaths =
        allWorkerJournals(ctx.manifestPath, ctx.workers);
    ClaimsAppender claims(claimsPath(ctx.manifestPath));
    JournalWriter journal(workerJournalPath(ctx.manifestPath, ctx.worker),
                          /*host_metrics=*/true, ctx.options->journalSync);
    const RunnerOptions ropts = workerRunnerOptions(ctx);

    std::size_t completed = 0;

    // Phase 1: drain this worker's own shards in expansion order.
    // Settled work (any journal record, ok or failed) is final; a
    // failure re-run here would grant more attempts than a single-
    // process run and break byte-identity. Claims by other workers
    // (thieves, or a previous incarnation's survivors) are skipped.
    std::unordered_set<std::string> settled =
        settledKeys(journalPaths);
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
        if (ctx.shards[i] % ctx.workers != ctx.worker)
            continue;
        if (settled.count(ctx.keys[i]))
            continue;
        if (drainRequested())
            return 130;
        bool claimedElsewhere = false;
        for (const Claim &claim : loadClaims(claimsPath(ctx.manifestPath)))
            if (claim.key == ctx.keys[i] && claim.worker != ctx.worker) {
                claimedElsewhere = true;
                break;
            }
        if (claimedElsewhere)
            continue;
        runClaimedJob(ctx, i, claims, journal, ropts, completed);
    }

    // Phase 2: steal. Refresh the global picture, find the slowest
    // shard (most jobs outstanding), take its first unclaimed job.
    // Exit when nothing unclaimed remains — jobs still in flight on
    // live workers will be finished by their claimants, and a dead
    // worker's claims surface as missing records for the coordinator.
    for (;;) {
        if (drainRequested())
            return 130;
        settled = settledKeys(journalPaths);
        std::unordered_set<std::string> claimed;
        for (const Claim &claim :
             loadClaims(claimsPath(ctx.manifestPath)))
            claimed.insert(claim.key);

        std::map<unsigned, std::vector<std::size_t>> outstanding;
        for (std::size_t i = 0; i < ctx.jobs.size(); ++i)
            if (!settled.count(ctx.keys[i]) &&
                !claimed.count(ctx.keys[i]))
                outstanding[ctx.shards[i]].push_back(i);
        if (outstanding.empty())
            break;
        auto slowest = outstanding.begin();
        for (auto it = outstanding.begin(); it != outstanding.end(); ++it)
            if (it->second.size() > slowest->second.size())
                slowest = it;
        runClaimedJob(ctx, slowest->second.front(), claims, journal, ropts,
                      completed);
    }
    return 0;
}

} // namespace

CampaignReport
runCampaign(const std::string &manifestPath,
            const CampaignManifest &manifest,
            const CoordinatorOptions &options)
{
    const auto start = std::chrono::steady_clock::now();

    WorkerContext ctx;
    ctx.manifest = &manifest;
    ctx.manifestPath = manifestPath;
    ctx.workers = options.workers != 0 ? options.workers : manifest.shards;
    ctx.options = &options;

    const SweepSpec spec = manifestSpec(manifest);
    {
        telemetry::ScopedSpan span("expand", "phase");
        ctx.jobs = spec.expand();
    }
    const std::string err = validateManifest(manifest, ctx.jobs);
    if (!err.empty())
        throw CampaignError("manifest '" + manifestPath +
                            "' does not match its sweep: " + err);
    ctx.keys.reserve(ctx.jobs.size());
    ctx.shards.reserve(ctx.jobs.size());
    for (const Job &job : ctx.jobs) {
        ctx.keys.push_back(jobKey(job));
        ctx.shards.push_back(shardOf(ctx.keys.back(), manifest.shards));
    }

    const std::vector<std::string> journalPaths =
        allWorkerJournals(manifestPath, ctx.workers);
    const std::string claims = claimsPath(manifestPath);

    CampaignReport report;
    report.total = ctx.jobs.size();

    telemetry::setWorkerCount(ctx.workers);

    JournalMap merged;
    for (unsigned pass = 1; pass <= options.maxPasses; ++pass) {
        report.passes = pass;

        // Pass 1 is the campaign proper; later passes exist only to
        // recover work lost to dead workers.
        telemetry::ScopedSpan passSpan("pass",
                                       pass == 1 ? "campaign" : "recovery");
        passSpan.arg("pass", std::uint64_t{pass});

        // Rotate the claims file: claims only dedupe within one pass.
        // (A dead worker's stale claims must not block its jobs.)
        ::unlink(claims.c_str());

        if (options.progress)
            std::fprintf(stderr,
                         "[campaign] pass %u: forking %u worker(s) over "
                         "%u shard(s), %zu job(s)\n",
                         pass, ctx.workers, manifest.shards,
                         ctx.jobs.size());

        // Flush stdio before forking so buffered output is not emitted
        // twice (once per process image).
        std::fflush(stdout);
        std::fflush(stderr);

        std::vector<pid_t> pids;
        pids.reserve(ctx.workers);
        for (unsigned w = 0; w < ctx.workers; ++w) {
            const pid_t pid = ::fork();
            if (pid < 0) {
                for (pid_t p : pids)
                    ::kill(p, SIGTERM);
                throw CampaignError("fork failed: " +
                                    std::string(std::strerror(errno)));
            }
            if (pid == 0) {
                WorkerContext mine = ctx;
                mine.worker = w;
                // _exit: a forked worker must not run the parent's
                // atexit/static-destructor machinery.
                _exit(workerMain(std::move(mine)));
            }
            pids.push_back(pid);
        }

        // Reap workers, emitting the parent-side heartbeat meanwhile.
        unsigned deathsThisPass = 0;
        bool drainedWorker = false;
        auto lastBeat = std::chrono::steady_clock::now();
        std::vector<bool> reaped(pids.size(), false);
        std::size_t alive = pids.size();
        while (alive > 0) {
            bool progressed = false;
            for (std::size_t i = 0; i < pids.size(); ++i) {
                if (reaped[i])
                    continue;
                int status = 0;
                const pid_t p = ::waitpid(pids[i], &status, WNOHANG);
                if (p == 0)
                    continue;
                reaped[i] = true;
                --alive;
                progressed = true;
                if (p < 0)
                    continue;
                if (WIFSIGNALED(status)) {
                    ++deathsThisPass;
                } else if (WIFEXITED(status)) {
                    const int code = WEXITSTATUS(status);
                    if (code == 130)
                        drainedWorker = true;
                    else if (code == 3)
                        throw CampaignError(
                            "worker " + std::to_string(i) +
                            " rejected manifest '" + manifestPath + "'");
                    else if (code != 0)
                        ++deathsThisPass;
                }
            }
            if (alive == 0)
                break;
            // A short poll keeps the tail latency after the last worker
            // exits small relative to the campaign span — the trace's
            // coverage figure is measured against that span.
            if (!progressed)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            const auto now = std::chrono::steady_clock::now();
            const bool beatDue =
                options.heartbeatSec > 0.0 &&
                std::chrono::duration<double>(now - lastBeat).count() >=
                    options.heartbeatSec;
            if (beatDue) {
                lastBeat = now;
                // The richer probe: journals give done/retried, claims
                // give steals. Both loaders tolerate the torn final
                // line a live writer can leave behind.
                const JournalMap probe = mergeJournals(journalPaths);
                std::size_t done = 0, retries = 0;
                for (const auto &entry : probe) {
                    ++done;
                    retries += entry.second.attempts > 1;
                }
                std::size_t stolen = 0;
                for (const Claim &claim : loadClaims(claims))
                    stolen += claim.shard % ctx.workers != claim.worker;
                const double elapsed =
                    std::chrono::duration<double>(now - start).count();
                const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
                const double eta =
                    rate > 0.0 ? (report.total - std::min(done, report.total)) /
                                     rate
                               : 0.0;
                // Still one wholly formatted line, one fwrite: the
                // single-writer contract the runner heartbeat keeps.
                char line[200];
                const int len = std::snprintf(
                    line, sizeof(line),
                    "[campaign] heartbeat %zu/%zu jobs, "
                    "%.2f jobs/s, ETA %.0fs, %zu stolen, "
                    "%zu retried, %u worker(s) alive\n",
                    std::min(done, report.total), report.total, rate,
                    eta, stolen, retries,
                    static_cast<unsigned>(alive));
                if (len > 0)
                    std::fwrite(line, 1,
                                static_cast<std::size_t>(len), stderr);
            }
        }

        report.workerDeaths += deathsThisPass;
        report.drained = report.drained || drainedWorker ||
                         drainRequested();

        // Account claims before the next pass rotates them away.
        std::unordered_map<std::string, unsigned> claimCounts;
        for (const Claim &claim : loadClaims(claims)) {
            ++claimCounts[claim.key];
            if (claim.shard % ctx.workers != claim.worker)
                ++report.stolen;
        }
        for (const auto &entry : claimCounts)
            report.duplicates += entry.second > 1;

        merged = mergeJournals(journalPaths);
        std::size_t missing = 0;
        for (const std::string &key : ctx.keys)
            missing += merged.find(key) == merged.end();

        if (options.progress)
            std::fprintf(stderr,
                         "[campaign] pass %u: %zu/%zu job(s) journaled, "
                         "%u abnormal worker exit(s)\n",
                         pass, report.total - missing, report.total,
                         deathsThisPass);

        if (missing == 0 || report.drained)
            break;
        if (pass == options.maxPasses && options.progress)
            std::fprintf(stderr,
                         "[campaign] %zu job(s) still missing after %u "
                         "pass(es); re-run --campaign to resume\n",
                         missing, pass);
    }

    report.outcomes = orderOutcomes(merged, ctx.jobs);
    for (const JobOutcome &outcome : report.outcomes) {
        if (outcome.ok)
            ++report.ok;
        else if (outcome.attempts == 0)
            ++report.missing;
        else
            ++report.failed;
    }
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return report;
}

} // namespace dgsim::runner
