/**
 * @file
 * dgrun — the experiment-runner CLI.
 *
 * Runs a (workload x scheme x AP) sweep of the evaluation suite across
 * N threads and serializes results to JSONL/CSV sinks. `--verify` runs
 * the same sweep single-threaded as well, byte-compares the serialized
 * results, and reports the parallel speedup — the determinism check the
 * runner's ordering guarantee is held to.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/signals.hh"
#include "fuzz/dgasm.hh"
#include "fuzz/fuzz.hh"
#include "obs/pipe_trace.hh"
#include "security/leak.hh"
#include "runner/campaign.hh"
#include "runner/coordinator.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "sim/simulator.hh"
#include "telemetry/report.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "workloads/suite.hh"

namespace
{

using namespace dgsim;
using namespace dgsim::runner;

constexpr const char *kUsage = R"(usage: dgrun [options]

Run the evaluation suite over the scheme x AP matrix on a thread pool.

options:
  --suite NAMES       comma-separated workload names (default: all)
  --schemes NAMES     subset of unsafe,nda-p,stt,dom (default: all)
  --ap MODE           address prediction: on, off or both (default: both)
  --instructions N    per-run instruction budget (default: 100000)
  --threads N         worker threads (default: hardware concurrency)
  --jsonl FILE        write results as JSON lines
  --csv FILE          write results as CSV
  --verify            also run single-threaded; byte-compare results and
                      report the parallel speedup

fault tolerance:
  --journal FILE      append one JSONL record per completed job (flushed
                      immediately): the crash/resume journal
  --resume FILE       skip jobs recorded ok in FILE, re-run the rest and
                      merge; implies --journal FILE (appends to it)
  --retries N         extra attempts for transient host failures —
                      injected faults, job timeouts (default 2; sim
                      errors are never retried)
  --retry-base-ms N   first retry delay; doubles per retry, capped at
                      5000ms (default 100)
  --job-timeout SECS  per-job wall-clock timeout; expiry counts as a
                      transient failure (0 = off, default)
  --inject-fail R,S   fault injection: each attempt fails with
                      probability R (0..1) keyed by deterministic seed S
  --journal-sync      fsync the journal after every record (survives
                      power loss, not just SIGKILL; default off)
  --progress SECS     heartbeat: every SECS seconds print one line with
                      jobs done/total, jobs/sec and ETA (single atomic
                      fwrite, so lines never interleave)
  --no-host-metrics   omit the per-run "host" object from --jsonl output
                      (use when byte-comparing results across runs)

sharded campaigns (fleet-scale sweeps):
  --shard I/N         run only shard I of N (0-based). Membership is a
                      pure function of job identity (jobKey hash mod N),
                      so any two invocations of the same sweep agree on
                      it regardless of thread count or expansion order
  --list-jobs         print shard/workload/config/key for every selected
                      job and exit; with --campaign F the sweep and shard
                      count come from the manifest
  --campaign-init F   write a campaign manifest to F (sweep spec,
                      budgets, seed, shard count, expected job-key set)
                      and exit; combine with --shards and the usual
                      sweep/fault-tolerance flags
  --shards N          shard count recorded by --campaign-init (default 1)
  --campaign F        run the campaign in F: fork worker processes, each
                      drains its own shards then steals unclaimed jobs
                      from the slowest shard; journals merge by identity
                      and re-running an incomplete campaign resumes it
  --workers K         worker process count for --campaign (default: the
                      manifest's shard count)
  --merge J1 J2 ...   fold per-shard/worker journals by job identity into
                      the single-process result set for the sweep the
                      other flags select (or --campaign F's manifest);
                      write it with --jsonl/--csv, or --journal OUT for
                      a merged journal --resume accepts

leak fuzzing (relational attacker-program oracle):
  --fuzz N            fuzzing campaign: synthesize N attacker-program
                      candidates and run each through the relational
                      leak oracle (every scheme x AP column, seeded
                      secret-pair list). Hits get a replayable .dgasm
                      repro + a minimized gadget; confirmed leaks under
                      a secure scheme exit with code 4. Composes with
                      --journal/--resume/--shard/--campaign-init/
                      --campaign/--merge: candidates are ordinary jobs
  --fuzz-seed S       campaign seed; every candidate is a pure function
                      of (seed, index), so one seed is one byte-for-byte
                      reproducible campaign (default 1)
  --fuzz-dir DIR      directory for .dgasm repro artifacts (default
                      fuzz_repros)
  --fuzz-findings F   findings JSONL path, one record per leaking
                      (candidate, config); deterministic and
                      byte-identical across re-runs and --workers
                      counts (default fuzz_findings.jsonl)
  --fuzz-minimize K   also minimize up to K *expected* Unsafe-scheme
                      hits (confirmed secure-scheme findings are always
                      all minimized; default 2)
  --fuzz-replay FILE  replay one .dgasm repro through the full oracle,
                      print the per-configuration verdict table and
                      exit (code 4 when a secure scheme leaks)

fleet telemetry (host-side only; results stay byte-identical):
  --telemetry FILE    span tracing: write one merged Chrome trace-event
                      JSON file (load it in https://ui.perfetto.dev or
                      chrome://tracing; one track per worker process).
                      Spans cover campaign, passes, workers, jobs and
                      phases (ffwd-warm, detailed-window, retry-backoff,
                      journal-append, steal)
  --report J1 J2 ...  straggler/latency report from completion journals
                      (+ the --telemetry FILE trace when given): p50/p95/
                      p99 job wall-time per workload and per config,
                      retry storms, steal imbalance, worker coverage and
                      the recovery-pass timeline
  --validate-telemetry FILE
                      strict-parse and structurally validate a merged
                      trace-event file, then exit
  --no-skip           disable event-driven idle-cycle skipping and tick
                      every cycle. Results are byte-identical either way
                      (enforced by golden_stats_test); this exists for
                      byte-compare experiments and skip-layer debugging
  --quiet             suppress the progress line
  --list              list available workloads and exit
  --help              show this message

sampled simulation (checkpoint / fast-forward):
  --ffwd N            fast-forward N instructions functionally (caches and
                      predictors warmed) before the detailed window;
                      --instructions then bounds the detailed window only
  --sample I,D        sampling: alternate functional skip with detailed
                      windows of D instructions every I, until
                      --instructions total (ffwd + detailed) executed
  --ckpt-save F@INST  snapshot the run at instruction INST (must land in a
                      fast-forward region) into checkpoint file F;
                      needs a one-job sweep
  --ckpt-restore F    resume from checkpoint file F instead of
                      re-executing the prefix; needs a one-job sweep
  --tier NAME         workload tier when --suite is not given: default
                      (the paper suite), long (>= 1M-instruction
                      fast-forward targets) or all

observability:
  --trace FILE        write an O3PipeView pipeline trace ("-" = stdout;
                      view with Konata or gem5's o3-pipeview.py). The
                      sweep must select exactly one workload x config.
  --trace-start N     start tracing after N committed instructions
  --trace-insts N     trace at most N instructions (0 = no limit)
  --validate-trace F  parse + validate an O3PipeView trace file and exit
  --watchdog N        commit-watchdog threshold in cycles; 0 disables
                      (default 100000)
  --wedge             debug: run under a never-resolving policy so the
                      pipeline wedges and the watchdog dumps the flight
                      recorder (the process aborts; expect a core dump)
  --dists             print each job's distribution stats after the
                      summary table
)";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "dgrun: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream ss(text);
    std::string part;
    while (std::getline(ss, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

std::uint64_t
parseCount(const std::string &text, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE || value == 0)
        usageError(std::string(flag) + " needs a positive integer, got '" +
                   text + "'");
    return value;
}

std::uint64_t
parseCountOrZero(const std::string &text, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE)
        usageError(std::string(flag) + " needs a non-negative integer, "
                                       "got '" + text + "'");
    return value;
}

Scheme
parseScheme(const std::string &name)
{
    if (name == "unsafe")
        return Scheme::Unsafe;
    if (name == "nda-p" || name == "ndap" || name == "nda")
        return Scheme::NdaP;
    if (name == "stt")
        return Scheme::Stt;
    if (name == "dom")
        return Scheme::Dom;
    usageError("unknown scheme '" + name + "'");
}

struct Options
{
    std::vector<std::string> workloadNames; // Empty = whole suite.
    std::vector<Scheme> schemes = {Scheme::Unsafe, Scheme::NdaP, Scheme::Stt,
                                   Scheme::Dom};
    std::vector<bool> apModes = {false, true};
    std::uint64_t instructions = 100'000;
    unsigned threads = 0; // 0 = hardware concurrency.
    std::string jsonlPath;
    std::string csvPath;
    bool verify = false;
    bool idleSkip = true;
    bool quiet = false;

    // Sampled simulation.
    std::uint64_t ffwdInstructions = 0;
    std::uint64_t sampleInterval = 0;
    std::uint64_t sampleDetail = 0;
    std::string ckptSavePath;
    std::uint64_t ckptSaveInst = 0;
    std::string ckptRestorePath;
    std::string tier = "default";

    // Fault tolerance.
    std::string journalPath;
    std::string resumePath;
    unsigned retries = 2;
    std::uint64_t retryBaseMs = 100;
    std::uint64_t jobTimeoutSec = 0;
    double injectFailRate = 0.0;
    std::uint64_t injectFailSeed = 0;
    bool hostMetrics = true;
    bool journalSync = false;
    double heartbeatSec = 0.0;

    // Sharded campaigns.
    unsigned shardIndex = 0;
    unsigned shardCount = 0; // 0 = no shard filter.
    bool listJobs = false;
    std::string campaignInitPath;
    unsigned shards = 1;
    std::string campaignPath;
    unsigned workers = 0; // 0 = manifest shard count.
    std::vector<std::string> mergePaths;
    bool merge = false;

    // Leak fuzzing.
    std::uint64_t fuzzCount = 0; // 0 = not a fuzzing run.
    std::uint64_t fuzzSeed = 1;
    std::string fuzzDir = "fuzz_repros";
    std::string fuzzFindingsPath = "fuzz_findings.jsonl";
    unsigned fuzzMinimize = 2;
    std::string fuzzReplayPath;

    // Fleet telemetry.
    std::string telemetryPath;
    bool report = false;
    std::vector<std::string> reportPaths;
    std::string validateTelemetryPath;

    // Observability.
    std::string tracePath;
    std::uint64_t traceStart = 0;
    std::uint64_t traceInsts = 0;
    std::string validateTracePath;
    std::uint64_t watchdogCycles = 100'000;
    bool wedge = false;
    bool dists = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs an argument");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--list") {
            for (const auto &w : workloads::extendedSuite())
                std::printf("%-14s %-9s %-8s %s\n", w.name.c_str(),
                            w.suite.c_str(), w.tier.c_str(),
                            w.pattern.c_str());
            std::exit(0);
        } else if (arg == "--suite") {
            options.workloadNames = splitCommas(next(i, "--suite"));
            if (options.workloadNames.empty())
                usageError("--suite needs at least one workload name");
        } else if (arg == "--schemes") {
            options.schemes.clear();
            for (const std::string &name :
                 splitCommas(next(i, "--schemes")))
                options.schemes.push_back(parseScheme(name));
            if (options.schemes.empty())
                usageError("--schemes needs at least one scheme");
        } else if (arg == "--ap") {
            const std::string mode = next(i, "--ap");
            if (mode == "on")
                options.apModes = {true};
            else if (mode == "off")
                options.apModes = {false};
            else if (mode == "both")
                options.apModes = {false, true};
            else
                usageError("--ap must be on, off or both");
        } else if (arg == "--instructions") {
            options.instructions = parseCount(next(i, "--instructions"),
                                              "--instructions");
        } else if (arg == "--threads") {
            options.threads = static_cast<unsigned>(
                parseCount(next(i, "--threads"), "--threads"));
        } else if (arg == "--jsonl") {
            options.jsonlPath = next(i, "--jsonl");
        } else if (arg == "--csv") {
            options.csvPath = next(i, "--csv");
        } else if (arg == "--verify") {
            options.verify = true;
        } else if (arg == "--journal") {
            options.journalPath = next(i, "--journal");
        } else if (arg == "--resume") {
            options.resumePath = next(i, "--resume");
        } else if (arg == "--retries") {
            options.retries = static_cast<unsigned>(
                parseCountOrZero(next(i, "--retries"), "--retries"));
        } else if (arg == "--retry-base-ms") {
            options.retryBaseMs =
                parseCountOrZero(next(i, "--retry-base-ms"),
                                 "--retry-base-ms");
        } else if (arg == "--job-timeout") {
            options.jobTimeoutSec =
                parseCountOrZero(next(i, "--job-timeout"), "--job-timeout");
        } else if (arg == "--inject-fail") {
            const std::string spec = next(i, "--inject-fail");
            const std::size_t comma = spec.find(',');
            if (comma == std::string::npos)
                usageError("--inject-fail needs RATE,SEED (e.g. 0.3,42)");
            errno = 0;
            char *end = nullptr;
            options.injectFailRate =
                std::strtod(spec.substr(0, comma).c_str(), &end);
            if (*end != '\0' || errno == ERANGE ||
                options.injectFailRate < 0.0 || options.injectFailRate > 1.0)
                usageError("--inject-fail rate must be in [0, 1], got '" +
                           spec.substr(0, comma) + "'");
            options.injectFailSeed =
                parseCountOrZero(spec.substr(comma + 1), "--inject-fail seed");
        } else if (arg == "--no-host-metrics") {
            options.hostMetrics = false;
        } else if (arg == "--journal-sync") {
            options.journalSync = true;
        } else if (arg == "--progress") {
            const std::string spec = next(i, "--progress");
            errno = 0;
            char *end = nullptr;
            options.heartbeatSec = std::strtod(spec.c_str(), &end);
            if (spec.empty() || *end != '\0' || errno == ERANGE ||
                options.heartbeatSec <= 0.0)
                usageError("--progress needs a positive number of "
                           "seconds, got '" + spec + "'");
        } else if (arg == "--shard") {
            const std::string spec = next(i, "--shard");
            const std::size_t slash = spec.find('/');
            if (slash == std::string::npos)
                usageError("--shard needs I/N (e.g. 0/4)");
            options.shardIndex = static_cast<unsigned>(parseCountOrZero(
                spec.substr(0, slash), "--shard index"));
            options.shardCount = static_cast<unsigned>(
                parseCount(spec.substr(slash + 1), "--shard count"));
            if (options.shardIndex >= options.shardCount)
                usageError("--shard index must be below the shard count "
                           "(0-based), got '" + spec + "'");
        } else if (arg == "--list-jobs") {
            options.listJobs = true;
        } else if (arg == "--campaign-init") {
            options.campaignInitPath = next(i, "--campaign-init");
        } else if (arg == "--shards") {
            options.shards = static_cast<unsigned>(
                parseCount(next(i, "--shards"), "--shards"));
        } else if (arg == "--campaign") {
            options.campaignPath = next(i, "--campaign");
        } else if (arg == "--workers") {
            options.workers = static_cast<unsigned>(
                parseCount(next(i, "--workers"), "--workers"));
        } else if (arg == "--merge") {
            options.merge = true;
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                options.mergePaths.push_back(argv[++i]);
            if (options.mergePaths.empty())
                usageError("--merge needs at least one journal file");
        } else if (arg == "--fuzz") {
            options.fuzzCount = parseCount(next(i, "--fuzz"), "--fuzz");
        } else if (arg == "--fuzz-seed") {
            options.fuzzSeed =
                parseCountOrZero(next(i, "--fuzz-seed"), "--fuzz-seed");
        } else if (arg == "--fuzz-dir") {
            options.fuzzDir = next(i, "--fuzz-dir");
            if (options.fuzzDir.empty())
                usageError("--fuzz-dir needs a directory path");
        } else if (arg == "--fuzz-findings") {
            options.fuzzFindingsPath = next(i, "--fuzz-findings");
            if (options.fuzzFindingsPath.empty())
                usageError("--fuzz-findings needs a file path");
        } else if (arg == "--fuzz-minimize") {
            options.fuzzMinimize = static_cast<unsigned>(parseCountOrZero(
                next(i, "--fuzz-minimize"), "--fuzz-minimize"));
        } else if (arg == "--fuzz-replay") {
            options.fuzzReplayPath = next(i, "--fuzz-replay");
        } else if (arg == "--telemetry") {
            options.telemetryPath = next(i, "--telemetry");
        } else if (arg == "--report") {
            options.report = true;
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                options.reportPaths.push_back(argv[++i]);
            if (options.reportPaths.empty())
                usageError("--report needs at least one journal file");
        } else if (arg == "--validate-telemetry") {
            options.validateTelemetryPath =
                next(i, "--validate-telemetry");
        } else if (arg == "--no-skip") {
            options.idleSkip = false;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--trace") {
            options.tracePath = next(i, "--trace");
        } else if (arg == "--trace-start") {
            options.traceStart =
                parseCountOrZero(next(i, "--trace-start"), "--trace-start");
        } else if (arg == "--trace-insts") {
            options.traceInsts =
                parseCountOrZero(next(i, "--trace-insts"), "--trace-insts");
        } else if (arg == "--validate-trace") {
            options.validateTracePath = next(i, "--validate-trace");
        } else if (arg == "--watchdog") {
            options.watchdogCycles =
                parseCountOrZero(next(i, "--watchdog"), "--watchdog");
        } else if (arg == "--ffwd") {
            options.ffwdInstructions = parseCount(next(i, "--ffwd"),
                                                  "--ffwd");
        } else if (arg == "--sample") {
            const std::string spec = next(i, "--sample");
            const std::size_t comma = spec.find(',');
            if (comma == std::string::npos)
                usageError("--sample needs INTERVAL,DETAIL "
                           "(e.g. 100000,10000)");
            options.sampleInterval =
                parseCount(spec.substr(0, comma), "--sample interval");
            options.sampleDetail =
                parseCount(spec.substr(comma + 1), "--sample detail");
            if (options.sampleDetail > options.sampleInterval)
                usageError("--sample DETAIL must not exceed INTERVAL");
        } else if (arg == "--ckpt-save") {
            const std::string spec = next(i, "--ckpt-save");
            const std::size_t at = spec.rfind('@');
            if (at == std::string::npos || at == 0)
                usageError("--ckpt-save needs FILE@INST "
                           "(e.g. run.ckpt@500000)");
            options.ckptSavePath = spec.substr(0, at);
            options.ckptSaveInst =
                parseCount(spec.substr(at + 1), "--ckpt-save instruction");
        } else if (arg == "--ckpt-restore") {
            options.ckptRestorePath = next(i, "--ckpt-restore");
        } else if (arg == "--tier") {
            options.tier = next(i, "--tier");
            if (options.tier != "default" && options.tier != "long" &&
                options.tier != "all")
                usageError("--tier must be default, long or all");
        } else if (arg == "--wedge") {
            options.wedge = true;
        } else if (arg == "--dists") {
            options.dists = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    return options;
}

SweepSpec
buildSpec(const Options &options)
{
    if (options.fuzzCount != 0) {
        if (!options.workloadNames.empty() || !options.tracePath.empty() ||
            !options.ckptSavePath.empty() ||
            !options.ckptRestorePath.empty() || options.wedge ||
            options.ffwdInstructions != 0 || options.sampleInterval != 0)
            usageError("--fuzz synthesizes its own jobs; it does not "
                       "combine with --suite/--trace/--ckpt-*/--wedge/"
                       "--ffwd/--sample");
        // Mirrors manifestSpec()'s fuzz branch exactly: job identity
        // must be byte-identical between `dgrun --fuzz` and a campaign
        // of the same (count, seed).
        SweepSpec spec;
        SimConfig base = fuzz::oracleBaseConfig();
        base.jobTimeoutMs = options.jobTimeoutSec * 1000;
        spec.configs = {base};
        spec.fuzzCount = options.fuzzCount;
        spec.fuzzSeed = options.fuzzSeed;
        return spec;
    }

    // The shared run-control derivation: campaign workers rebuild their
    // jobs from the manifest through the very same function, so a
    // campaign's jobs are byte-identical to a plain dgrun of the sweep.
    SimConfig base = campaignBaseConfig(
        options.instructions, options.ffwdInstructions,
        options.sampleInterval, options.sampleDetail);
    base.ckptSavePath = options.ckptSavePath;
    base.ckptSaveInst = options.ckptSaveInst;
    base.ckptRestorePath = options.ckptRestorePath;
    if (!base.ckptRestorePath.empty()) {
        // Functional warming replaces the warmup prefix: the detailed
        // window starts measured from its first committed instruction.
        base.warmupInstructions = 0;
    }
    base.tracePath = options.tracePath;
    base.traceStartInst = options.traceStart;
    base.traceMaxInsts = options.traceInsts;
    base.watchdogCycles = options.watchdogCycles;
    base.wedgeNeverResolve = options.wedge;
    base.jobTimeoutMs = options.jobTimeoutSec * 1000;
    // Host-level knob (like --threads): never part of job identity or
    // campaign manifests, so a --no-skip run byte-compares against a
    // skipping one.
    base.idleSkip = options.idleSkip;

    SweepSpec spec;
    if (options.workloadNames.empty()) {
        for (const auto &workload : workloads::extendedSuite())
            if (options.tier == "all" || workload.tier == options.tier)
                spec.workloads.push_back(workload);
    } else {
        for (const std::string &name : options.workloadNames)
            spec.workloads.push_back(workloads::findWorkload(name));
    }
    for (Scheme scheme : options.schemes) {
        for (bool ap : options.apModes) {
            SimConfig config = base;
            config.scheme = scheme;
            config.addressPrediction = ap;
            spec.configs.push_back(config);
        }
    }
    return spec;
}

/** Serialize every outcome as JSONL — the byte-comparison key. */
std::string
serializeAll(const std::vector<JobOutcome> &outcomes)
{
    std::ostringstream ss;
    JsonlSink sink(ss);
    for (const JobOutcome &outcome : outcomes)
        sink.consume(outcome);
    return ss.str();
}

/** RunnerOptions for this invocation's fault-tolerance flags. */
RunnerOptions
runnerOptions(const Options &options, unsigned threads)
{
    RunnerOptions ropts;
    ropts.threads = threads;
    ropts.progress = !options.quiet;
    ropts.heartbeatSec = options.heartbeatSec;
    ropts.maxAttempts = options.retries + 1;
    ropts.backoff.baseMs = options.retryBaseMs;
    ropts.injectFailRate = options.injectFailRate;
    ropts.injectFailSeed = options.injectFailSeed;
    ropts.journalPath = !options.resumePath.empty() ? options.resumePath
                                                    : options.journalPath;
    ropts.journalSync = options.journalSync;
    if (!options.resumePath.empty())
        ropts.resume = loadJournal(options.resumePath);
    ropts.cancel = &drainFlag();
    return ropts;
}

std::pair<std::vector<JobOutcome>, double>
timedRun(const std::vector<Job> &jobs, RunnerOptions ropts)
{
    ExperimentRunner runner(std::move(ropts));
    const auto start = std::chrono::steady_clock::now();
    std::vector<JobOutcome> outcomes = runner.run(jobs);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return {std::move(outcomes), elapsed.count()};
}

/** Compact per-job summary on stdout; returns 1 when any job failed. */
int
printSummaryTable(const std::vector<JobOutcome> &outcomes)
{
    int exitCode = 0;
    std::printf("%-14s %-9s %-10s %10s %12s %8s %10s\n", "workload", "suite",
                "config", "cycles", "instructions", "ipc", "status");
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok) {
            std::printf("%-14s %-9s %-10s %10llu %12llu %8.3f %10s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(),
                        static_cast<unsigned long long>(outcome.result.cycles),
                        static_cast<unsigned long long>(
                            outcome.result.instructions),
                        outcome.result.ipc, "ok");
        } else {
            std::printf("%-14s %-9s %-10s %10s %12s %8s %10s  # %s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(), "-", "-", "-", "FAILED",
                        outcome.error.c_str());
            exitCode = 1;
        }
    }
    return exitCode;
}

/** Write the requested --jsonl/--csv files for @p outcomes. */
void
writeSinkFiles(const std::vector<JobOutcome> &outcomes,
               const Options &options)
{
    if (!options.jsonlPath.empty()) {
        std::ofstream file(options.jsonlPath);
        if (!file)
            usageError("cannot open " + options.jsonlPath);
        JsonlSink sink(file, /*host_metrics=*/options.hostMetrics);
        for (const JobOutcome &outcome : outcomes)
            sink.consume(outcome);
        sink.finish();
        std::fprintf(stderr, "[dgrun] wrote %s\n", options.jsonlPath.c_str());
    }
    if (!options.csvPath.empty()) {
        std::ofstream file(options.csvPath);
        if (!file)
            usageError("cannot open " + options.csvPath);
        CsvSink sink(file);
        for (const JobOutcome &outcome : outcomes)
            sink.consume(outcome);
        sink.finish();
        std::fprintf(stderr, "[dgrun] wrote %s\n", options.csvPath.c_str());
    }
}

/**
 * The fuzz post-pass (repros, minimization, findings JSONL) over
 * index-ordered outcomes. Returns 4 — the "confirmed secure-scheme
 * leak" exit code — when any finding survived, else 0.
 */
int
runFuzzPost(const std::vector<JobOutcome> &outcomes, std::uint64_t fuzzSeed,
            const Options &options)
{
    fuzz::PostOptions popts;
    popts.fuzzSeed = fuzzSeed;
    popts.reproDir = options.fuzzDir;
    popts.findingsPath = options.fuzzFindingsPath;
    popts.minimizeExpected = options.fuzzMinimize;
    popts.quiet = options.quiet;
    const fuzz::PostSummary summary =
        fuzz::postProcess(outcomes, popts, std::cerr);
    return summary.findings != 0 ? 4 : 0;
}

/** --fuzz-replay: one .dgasm repro through the full oracle. */
int
runFuzzReplay(const Options &options)
{
    const fuzz::AttackerIr ir = fuzz::loadDgasm(options.fuzzReplayPath);
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(options.fuzzSeed);
    const std::vector<fuzz::ConfigVerdict> verdicts =
        fuzz::evaluateCandidate(ir, fuzz::oracleBaseConfig(), pairs);

    std::printf("replay %s: %s, %zu instruction(s), %zu secret pair(s)\n",
                options.fuzzReplayPath.c_str(), ir.name.c_str(),
                ir.instructionCount(), pairs.size());
    std::printf("%-10s %-13s %-9s %s\n", "config", "verdict", "class",
                "detail");
    int exitCode = 0;
    for (const fuzz::ConfigVerdict &verdict : verdicts) {
        const security::LeakCheck &check = verdict.check;
        const char *klass = verdict.finding()    ? "FINDING"
                            : verdict.expected   ? "expected"
                            : check.inconclusive() ? "incncl"
                                                   : "clean";
        std::string detail;
        if (check.leaked()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "secrets (%llu, %llu) -> digests %016llx vs "
                          "%016llx",
                          static_cast<unsigned long long>(check.secretA),
                          static_cast<unsigned long long>(check.secretB),
                          static_cast<unsigned long long>(check.digestA),
                          static_cast<unsigned long long>(check.digestB));
            detail = buf;
        } else if (check.inconclusive()) {
            detail = check.reason;
        }
        std::printf("%-10s %-13s %-9s %s\n", verdict.configLabel.c_str(),
                    security::verdictName(check.verdict), klass,
                    detail.c_str());
        if (verdict.finding())
            exitCode = 4;
    }
    return exitCode;
}

/** The campaign manifest this invocation's sweep flags describe. */
CampaignManifest
manifestFromOptions(const Options &options)
{
    if (!options.ckptSavePath.empty() || !options.ckptRestorePath.empty() ||
        !options.tracePath.empty() || options.wedge)
        usageError("campaigns do not capture --ckpt-save/--ckpt-restore/"
                   "--trace/--wedge; run those as single jobs");

    CampaignManifest manifest;
    std::string suite;
    for (const std::string &name : options.workloadNames) {
        if (!suite.empty())
            suite += ',';
        suite += name;
    }
    manifest.suite = suite;
    manifest.tier = options.tier;
    std::string schemes;
    for (Scheme scheme : options.schemes) {
        if (!schemes.empty())
            schemes += ',';
        schemes += schemeToken(scheme);
    }
    manifest.schemes = schemes;
    manifest.ap = options.apModes.size() == 2
                      ? "both"
                      : (options.apModes[0] ? "on" : "off");
    manifest.instructions = options.instructions;
    manifest.ffwdInstructions = options.ffwdInstructions;
    manifest.sampleInterval = options.sampleInterval;
    manifest.sampleDetail = options.sampleDetail;
    manifest.fuzzCount = options.fuzzCount;
    manifest.fuzzSeed = options.fuzzSeed;
    manifest.retries = options.retries;
    manifest.retryBaseMs = options.retryBaseMs;
    manifest.jobTimeoutSec = options.jobTimeoutSec;
    manifest.injectFailRate = options.injectFailRate;
    manifest.injectFailSeed = options.injectFailSeed;
    return manifest;
}

/** --campaign-init: pin the sweep into a manifest and exit. */
int
runCampaignInit(const Options &options)
{
    CampaignManifest manifest = manifestFromOptions(options);
    manifest.name = options.campaignInitPath;
    manifest.shards = options.shards;

    const SweepSpec spec = manifestSpec(manifest);
    const std::vector<Job> jobs = spec.expand();
    manifest.jobKeys.reserve(jobs.size());
    for (const Job &job : jobs)
        manifest.jobKeys.push_back(jobKey(job));
    writeManifest(options.campaignInitPath, manifest);

    std::vector<std::size_t> perShard(manifest.shards, 0);
    for (const std::string &key : manifest.jobKeys)
        ++perShard[shardOf(key, manifest.shards)];
    std::fprintf(stderr,
                 "[dgrun] campaign-init: %zu jobs over %u shard(s) -> %s\n",
                 jobs.size(), manifest.shards,
                 options.campaignInitPath.c_str());
    for (unsigned s = 0; s < manifest.shards; ++s)
        std::fprintf(stderr, "[dgrun]   shard %u: %zu job(s)\n", s,
                     perShard[s]);
    return 0;
}

/**
 * --list-jobs: shard membership of the selected sweep, then exit. With
 * --campaign F the sweep and shard count come from the manifest, so the
 * listing shows exactly what the campaign's workers will run.
 */
int
runListJobs(const Options &options)
{
    std::vector<Job> jobs;
    unsigned shards = options.shardCount != 0 ? options.shardCount : 1;
    if (!options.campaignPath.empty()) {
        const CampaignManifest manifest =
            loadManifest(options.campaignPath);
        jobs = manifestSpec(manifest).expand();
        const std::string err = validateManifest(manifest, jobs);
        if (!err.empty())
            usageError("manifest mismatch: " + err);
        if (options.shardCount == 0)
            shards = manifest.shards;
    } else {
        jobs = buildSpec(options).expand();
    }
    if (options.shardCount != 0)
        jobs = filterShard(std::move(jobs), options.shardIndex,
                           options.shardCount);
    std::printf("%-5s %-14s %-10s %s\n", "shard", "workload", "config",
                "key");
    for (const Job &job : jobs) {
        const std::string key = jobKey(job);
        std::printf("%-5u %-14s %-10s %s\n", shardOf(key, shards),
                    job.workload.c_str(), job.config.label().c_str(),
                    key.c_str());
    }
    std::fprintf(stderr, "[dgrun] %zu job(s)%s\n", jobs.size(),
                 options.shardCount != 0 ? " in this shard" : "");
    return 0;
}

/**
 * --merge: fold journals by job identity into the result set of the
 * sweep the other flags (or --campaign F's manifest) select.
 */
int
runMergeMode(const Options &options)
{
    std::vector<Job> jobs;
    std::uint64_t fuzzCount = options.fuzzCount;
    std::uint64_t fuzzSeed = options.fuzzSeed;
    if (!options.campaignPath.empty()) {
        const CampaignManifest manifest =
            loadManifest(options.campaignPath);
        jobs = manifestSpec(manifest).expand();
        const std::string err = validateManifest(manifest, jobs);
        if (!err.empty())
            usageError("manifest mismatch: " + err);
        fuzzCount = manifest.fuzzCount;
        fuzzSeed = manifest.fuzzSeed;
    } else {
        jobs = buildSpec(options).expand();
    }

    const JournalMap merged = mergeJournals(options.mergePaths);
    const std::vector<JobOutcome> outcomes = orderOutcomes(merged, jobs);

    std::size_t missing = 0;
    for (const JobOutcome &outcome : outcomes)
        missing += !outcome.ok && outcome.attempts == 0;
    std::fprintf(stderr,
                 "[dgrun] merge: %zu journal(s), %zu record(s), "
                 "%zu/%zu job(s) present\n",
                 options.mergePaths.size(), merged.size(),
                 outcomes.size() - missing, outcomes.size());

    // --journal OUT: a merged journal any future --resume can load.
    if (!options.journalPath.empty()) {
        std::remove(options.journalPath.c_str());
        JournalWriter writer(options.journalPath,
                             /*host_metrics=*/options.hostMetrics,
                             options.journalSync);
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            if (outcomes[i].attempts != 0)
                writer.record(jobKey(jobs[i]), outcomes[i]);
        std::fprintf(stderr, "[dgrun] wrote merged journal %s\n",
                     options.journalPath.c_str());
    }

    writeSinkFiles(outcomes, options);
    int exitCode = printSummaryTable(outcomes);
    if (missing != 0)
        exitCode = 1;
    if (fuzzCount != 0) {
        // A confirmed secure-scheme leak dominates every other exit
        // condition: it is the one result the campaign exists to find.
        const int fuzzCode = runFuzzPost(outcomes, fuzzSeed, options);
        if (fuzzCode != 0)
            exitCode = fuzzCode;
    }
    return exitCode;
}

/** --campaign: the forked work-stealing coordinator. */
int
runCampaignMode(const Options &options)
{
    const CampaignManifest manifest = loadManifest(options.campaignPath);

    CoordinatorOptions copts;
    copts.workers = options.workers;
    copts.progress = !options.quiet;
    copts.heartbeatSec = options.heartbeatSec;
    copts.journalSync = options.journalSync;

    installDrainHandler();
    CampaignReport report;
    {
        // The top-level span every worker/pass/job span nests under;
        // --report measures coverage against its duration.
        telemetry::ScopedSpan span("campaign", "campaign");
        span.arg("manifest", options.campaignPath);
        report = runCampaign(options.campaignPath, manifest, copts);
    }

    std::fprintf(stderr,
                 "[dgrun] campaign: %zu/%zu ok, %zu failed, %zu missing "
                 "in %.2fs (%.2f jobs/s); %zu stolen, %zu duplicate "
                 "claim(s), %u pass(es), %u worker death(s)\n",
                 report.ok, report.total, report.failed, report.missing,
                 report.seconds,
                 report.seconds > 0.0 ? report.total / report.seconds : 0.0,
                 report.stolen, report.duplicates, report.passes,
                 report.workerDeaths);

    writeSinkFiles(report.outcomes, options);
    int exitCode = printSummaryTable(report.outcomes);
    if (report.missing != 0) {
        std::fprintf(stderr,
                     "[dgrun] campaign incomplete: re-run --campaign %s "
                     "to resume\n",
                     options.campaignPath.c_str());
        exitCode = 1;
    }
    if (manifest.fuzzCount != 0) {
        // A confirmed secure-scheme leak dominates every other exit
        // condition: it is the one result the campaign exists to find.
        const int fuzzCode =
            runFuzzPost(report.outcomes, manifest.fuzzSeed, options);
        if (fuzzCode != 0)
            exitCode = fuzzCode;
    }
    if (report.drained)
        return 130;
    return exitCode;
}

/** --validate-trace: parse + structurally validate an O3PipeView file. */
int
runValidateTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usageError("cannot open " + path);
    const std::vector<TraceRecord> records = parseO3PipeView(in);
    const std::string violation = validateO3PipeView(records);
    if (!violation.empty()) {
        std::fprintf(stderr, "[dgrun] trace INVALID: %s\n",
                     violation.c_str());
        return 1;
    }
    std::size_t squashed = 0;
    for (const TraceRecord &record : records)
        squashed += record.squashed;
    std::fprintf(stderr,
                 "[dgrun] trace OK: %zu records (%zu retired, %zu "
                 "squashed)\n",
                 records.size(), records.size() - squashed, squashed);
    return 0;
}

/**
 * RAII around the telemetry lifetime in the parent process: enable on
 * entry when --telemetry asks for it, merge the per-process event part
 * files on any exit path. Forked workers never run this destructor —
 * they _exit — so the merge happens exactly once, in the coordinator.
 */
struct TelemetrySession
{
    explicit TelemetrySession(const Options &options)
    {
        if (!options.telemetryPath.empty())
            telemetry::enable(options.telemetryPath);
    }

    ~TelemetrySession()
    {
        telemetry::finalizeTrace();
        telemetry::shutdown();
    }
};

/** --validate-telemetry: strict parse + structural checks, then exit. */
int
runValidateTelemetry(const std::string &path)
{
    try {
        const std::vector<telemetry::TraceEvent> events =
            telemetry::loadMergedTrace(path);
        const std::string violation =
            telemetry::validateTraceEvents(events);
        if (!violation.empty()) {
            std::fprintf(stderr, "[dgrun] telemetry INVALID: %s\n",
                         violation.c_str());
            return 1;
        }
        std::fprintf(stderr, "[dgrun] telemetry OK: %zu event(s)\n",
                     events.size());
        return 0;
    } catch (const JsonParseError &e) {
        std::fprintf(stderr, "[dgrun] telemetry INVALID: %s\n", e.what());
        return 1;
    }
}

/** --report: journals (+ optional --telemetry trace) -> stdout. */
int
runReportMode(const Options &options)
{
    telemetry::ReportInputs inputs;
    inputs.journalPaths = options.reportPaths;
    inputs.tracePath = options.telemetryPath;
    const std::string report = telemetry::buildCampaignReport(inputs);
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    // The telemetry *readers* run before the session below would
    // truncate the very files they read.
    if (!options.validateTelemetryPath.empty())
        return runValidateTelemetry(options.validateTelemetryPath);
    if (options.report)
        return runReportMode(options);
    if (!options.validateTracePath.empty())
        return runValidateTrace(options.validateTracePath);
    if (!options.fuzzReplayPath.empty())
        return runFuzzReplay(options);
    TelemetrySession telemetrySession(options);
    try {
        if (options.listJobs)
            return runListJobs(options);
        if (!options.campaignInitPath.empty())
            return runCampaignInit(options);
        if (options.merge)
            return runMergeMode(options);
        if (!options.campaignPath.empty())
            return runCampaignMode(options);
    } catch (const CampaignError &e) {
        std::fprintf(stderr, "dgrun: %s\n", e.what());
        return 2;
    }
    const unsigned threads = options.threads == 0
                                 ? ThreadPool::hardwareThreads()
                                 : options.threads;

    // Open sink files before the sweep so a bad path fails fast
    // instead of discarding minutes of simulation.
    std::ofstream jsonlFile;
    if (!options.jsonlPath.empty()) {
        jsonlFile.open(options.jsonlPath);
        if (!jsonlFile)
            usageError("cannot open " + options.jsonlPath);
    }
    std::ofstream csvFile;
    if (!options.csvPath.empty()) {
        csvFile.open(options.csvPath);
        if (!csvFile)
            usageError("cannot open " + options.csvPath);
    }

    const SweepSpec spec = buildSpec(options);
    std::vector<Job> jobs;
    {
        telemetry::ScopedSpan span("expand", "phase");
        jobs = spec.expand();
    }
    if (options.shardCount != 0) {
        const std::size_t totalJobs = jobs.size();
        jobs = filterShard(std::move(jobs), options.shardIndex,
                           options.shardCount);
        std::fprintf(stderr, "[dgrun] shard %u/%u: %zu of %zu job(s)\n",
                     options.shardIndex, options.shardCount, jobs.size(),
                     totalJobs);
    }
    if (!options.tracePath.empty() && jobs.size() != 1)
        usageError("--trace needs exactly one workload x config (use "
                   "--suite, --schemes and --ap to select one); the sweep "
                   "has " + std::to_string(jobs.size()) + " jobs");
    // Checkpoint files name one run's state: a multi-job sweep would
    // race on --ckpt-save and misapply --ckpt-restore across workloads.
    if ((!options.ckptSavePath.empty() || !options.ckptRestorePath.empty()) &&
        jobs.size() != 1)
        usageError("--ckpt-save/--ckpt-restore need exactly one workload x "
                   "config; the sweep has " + std::to_string(jobs.size()) +
                   " jobs");
    if (spec.fuzzCount != 0)
        std::fprintf(stderr,
                     "[dgrun] fuzz: %llu candidate(s), seed %llu, "
                     "%u thread(s)\n",
                     static_cast<unsigned long long>(spec.fuzzCount),
                     static_cast<unsigned long long>(spec.fuzzSeed),
                     threads);
    else
        std::fprintf(stderr,
                     "[dgrun] %zu workloads x %zu configs = %zu jobs, "
                     "%llu instructions each, %u thread(s)\n",
                     spec.workloads.size(), spec.configs.size(), jobs.size(),
                     static_cast<unsigned long long>(options.instructions),
                     threads);

    // SIGINT/SIGTERM drain: stop dispatching, finish in-flight jobs,
    // flush sinks + journal, exit resumably (128+signo convention).
    installDrainHandler();

    auto [outcomes, seconds] = [&] {
        // The plain sweep is a one-process "campaign" for the trace's
        // purposes: the same top-level span --report keys on.
        telemetry::ScopedSpan span("campaign", "campaign");
        return timedRun(jobs, runnerOptions(options, threads));
    }();
    std::fprintf(stderr, "[dgrun] completed in %.2fs on %u thread(s)\n",
                 seconds, threads);

    int exitCode = 0;
    if (options.verify) {
        std::fprintf(stderr, "[dgrun] verify: re-running on 1 thread\n");
        // The verify run re-simulates everything: no journal appends,
        // no resume restores — determinism is only meaningful against
        // actually-executed jobs.
        RunnerOptions serialOptions = runnerOptions(options, 1);
        serialOptions.journalPath.clear();
        serialOptions.resume.clear();
        auto [serialOutcomes, serialSeconds] =
            timedRun(jobs, std::move(serialOptions));
        const bool identical =
            serializeAll(outcomes) == serializeAll(serialOutcomes);
        std::fprintf(stderr,
                     "[dgrun] verify: %u-thread %.2fs vs 1-thread %.2fs "
                     "-> %.2fx speedup, results %s\n",
                     threads, seconds, serialSeconds,
                     seconds > 0 ? serialSeconds / seconds : 0.0,
                     identical ? "byte-identical" : "DIFFER");
        if (!identical) {
            std::fprintf(stderr, "[dgrun] verify FAILED\n");
            exitCode = 1;
        }
    }

    if (jsonlFile.is_open()) {
        // File output carries host metrics (wall-time/KIPS, trace and
        // watchdog metadata) unless --no-host-metrics asked for the
        // byte-comparable form; the --verify comparison above always
        // uses the host-metrics-off serialization.
        JsonlSink sink(jsonlFile, /*host_metrics=*/options.hostMetrics);
        for (const JobOutcome &outcome : outcomes)
            sink.consume(outcome);
        sink.finish();
        std::fprintf(stderr, "[dgrun] wrote %s\n", options.jsonlPath.c_str());
    }
    if (csvFile.is_open()) {
        CsvSink sink(csvFile);
        for (const JobOutcome &outcome : outcomes)
            sink.consume(outcome);
        sink.finish();
        std::fprintf(stderr, "[dgrun] wrote %s\n", options.csvPath.c_str());
    }

    // Compact per-job summary on stdout (deterministic order).
    std::printf("%-14s %-9s %-10s %10s %12s %8s %10s\n", "workload", "suite",
                "config", "cycles", "instructions", "ipc", "status");
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok) {
            std::printf("%-14s %-9s %-10s %10llu %12llu %8.3f %10s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(),
                        static_cast<unsigned long long>(outcome.result.cycles),
                        static_cast<unsigned long long>(
                            outcome.result.instructions),
                        outcome.result.ipc, "ok");
        } else {
            std::printf("%-14s %-9s %-10s %10s %12s %8s %10s  # %s\n",
                        outcome.workload.c_str(), outcome.suite.c_str(),
                        outcome.configLabel.c_str(), "-", "-", "-", "FAILED",
                        outcome.error.c_str());
            exitCode = 1;
        }
    }

    if (!options.tracePath.empty()) {
        std::uint64_t traceRecords = 0;
        for (const JobOutcome &outcome : outcomes)
            traceRecords += outcome.result.traceRecords;
        std::fprintf(stderr,
                     "[dgrun] wrote %llu trace records to %s\n",
                     static_cast<unsigned long long>(traceRecords),
                     options.tracePath.c_str());
    }
    if (options.dists) {
        for (const JobOutcome &outcome : outcomes) {
            if (outcome.result.distributions.empty())
                continue;
            std::printf("\n--- distributions: %s / %s ---\n%s",
                        outcome.workload.c_str(),
                        outcome.configLabel.c_str(),
                        outcome.result.distributions.c_str());
        }
    }

    if (spec.fuzzCount != 0) {
        // A confirmed secure-scheme leak dominates every other exit
        // condition: it is the one result the campaign exists to find.
        const int fuzzCode = runFuzzPost(outcomes, spec.fuzzSeed, options);
        if (fuzzCode != 0)
            exitCode = fuzzCode;
    }

    // Fault-tolerance accounting.
    std::size_t resumedCount = 0, retriedCount = 0, interruptedCount = 0;
    for (const JobOutcome &outcome : outcomes) {
        resumedCount += outcome.resumed;
        retriedCount += outcome.attempts > 1;
        interruptedCount += outcome.attempts == 0;
    }
    if (resumedCount || retriedCount)
        std::fprintf(stderr,
                     "[dgrun] fault tolerance: %zu resumed from journal, "
                     "%zu needed retries\n",
                     resumedCount, retriedCount);
    if (drainRequested()) {
        const std::string &journal = !options.resumePath.empty()
                                         ? options.resumePath
                                         : options.journalPath;
        std::fprintf(stderr,
                     "[dgrun] interrupted: %zu job(s) never started%s%s\n",
                     interruptedCount,
                     journal.empty()
                         ? "; re-run with --journal to make sweeps resumable"
                         : "; resume with --resume ",
                     journal.c_str());
        return 130;
    }
    return exitCode;
}
