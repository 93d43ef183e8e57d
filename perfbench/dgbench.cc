/**
 * @file
 * dgbench, DGSIM's benchmark. One process, one worker thread, three
 * workloads (NOTES.md says why each was chosen):
 *
 *   paper-matrix  25 SPEC proxies x 8 scheme/AP configs, 100k
 *                 instructions with a warm-up third;
 *   fuzz-oracle   32 fixed leak-oracle candidates, then the fuzzing
 *                 post-pass;
 *   long-tier     chase_long, stream_long and phased_long x 8 configs,
 *                 1M detailed and 2M fast-forward + 100k detailed.
 *
 * Every job goes through runner::runSingleJob. Outputs are checked
 * against the result hashes recorded in reference.tsv. With
 * --trace 0 the run prints the end-to-end metrics; with --trace 1 each
 * job runs once untraced and once through a mirror of the library's
 * job path that opens a span around every call into a layer, and the
 * run prints the per-layer metrics. The last stdout line is one JSON
 * object; a fuller result file and the spans go to .bench_out/.
 * Paths are relative to the repository root, where it runs.
 *
 * Usage: dgbench --workload W --seed N --seconds S --trace 0|1
 *                [--git-sha SHA]
 *        dgbench --record-reference
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_logic.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/ffwd.hh"
#include "common/buildinfo.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "fuzz/fuzz.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracle.hh"
#include "fuzz/synth.hh"
#include "isa/functional.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/json.hh"
#include "security/leak.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim::perfbench
{
namespace
{

using runner::Job;
using runner::JobOutcome;
using runner::RunnerOptions;
using runner::SweepSpec;

constexpr std::uint64_t kMatrixInstructions = 100'000;
constexpr std::uint64_t kLongInstructions = 1'000'000;
constexpr std::uint64_t kLongFfwd = 2'000'000;
constexpr std::uint64_t kLongDetail = 100'000;
const char *const kLongPrograms[] = {"chase_long", "stream_long",
                                     "phased_long"};

/** Setup is repeated this often; setup_s is the median. */
constexpr unsigned kSetupRepeats = 9;
/**
 * fuzz-oracle's candidates: the first kFuzzCandidates of campaign seed
 * kFuzzSeed (dgrun's default). The benchmark seed permutes their order
 * only, as in the other workloads: candidates drawn from each seed
 * differ by about 10% in oracle instructions and by 2x in post-pass
 * time, which would make the seed-to-seed spread exceed the bounds.
 */
constexpr std::uint64_t kFuzzSeed = 1;
constexpr std::uint64_t kFuzzCandidates = 32;
/** Functional-count cap; a healthy candidate halts far below it. */
constexpr std::uint64_t kFunctionalCap = 10'000'000;
/** Job ids of spans outside the workload's jobs. */
constexpr std::uint64_t kProbeJob = ~std::uint64_t{0};
constexpr std::uint64_t kSetupJob = kProbeJob - 1;
constexpr std::uint64_t kPostJob = kProbeJob - 2;

/** The paper's GMEAN normalized IPC column, as EXPERIMENTS.md gives it. */
const std::pair<const char *, double> kPaperGmean[] = {
    {"Unsafe+AP", 1.005}, {"NDA-P", 0.887}, {"NDA-P+AP", 0.935},
    {"STT", 0.905},       {"STT+AP", 0.951}, {"DoM", 0.818},
    {"DoM+AP", 0.873},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string gitSha = "unknown";
    bool record = false;
};

const char *const kOutDir = ".bench_out";
const char *const kReferencePath = "perfbench/reference.tsv";

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "dgbench: " << why
              << "\nusage: dgbench --workload paper-matrix|fuzz-oracle|"
                 "long-tier --seed N --seconds S --trace 0|1 [--git-sha "
                 "SHA]\n"
                 "       dgbench --record-reference\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    const auto number = [](const std::string &text, const char *what) {
        try {
            std::size_t used = 0;
            const double value = std::stod(text, &used);
            if (used != text.size() || !(value >= 0))
                throw std::invalid_argument(what);
            return value;
        } catch (const std::exception &) {
            usage(std::string(what) + " needs a non-negative number, got '" +
                  text + "'");
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record-reference") {
            args.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = static_cast<std::uint64_t>(number(value, "--seed"));
        else if (arg == "--seconds")
            args.seconds = number(value, "--seconds");
        else if (arg == "--trace")
            args.trace = number(value, "--trace") != 0;
        else if (arg == "--git-sha")
            args.gitSha = value;
        else
            usage("unknown argument '" + arg + "'");
    }
    if (args.record)
        return args;
    if (args.workload != "paper-matrix" && args.workload != "fuzz-oracle" &&
        args.workload != "long-tier")
        usage("unknown workload '" + args.workload + "'");
    if (args.seconds <= 0)
        usage("--seconds must be positive");
    return args;
}

/** Where and on what the numbers were taken. */
struct Provenance
{
    std::string gitSha;
    std::string buildType = buildinfo::kBuildType;
    std::string cpuModel = "unknown";
    long nproc = 0;
    double load[3] = {0, 0, 0};
};

Provenance
captureProvenance(const std::string &git_sha)
{
    Provenance prov;
    prov.gitSha = git_sha;
    prov.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (::getloadavg(prov.load, 3) != 3)
        prov.load[0] = prov.load[1] = prov.load[2] = -1;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                prov.cpuModel = line.substr(line.find_first_not_of(
                    " \t", colon + 1));
            break;
        }
    }
    return prov;
}

/** Sums of the simulated-side counts of the traced runs. */
struct SimCounts
{
    double results = 0;
    double instructions = 0; ///< Measured region (after warm-up).
    double l1Accesses = 0, l1Misses = 0, dram = 0, branchSquashes = 0;
    double dgCommittedLoads = 0, dgCovered = 0, dgOk = 0, dgBad = 0;

    void
    add(const SimResult &result)
    {
        const auto counter = [&result](const char *name) {
            const auto it = result.counters.find(name);
            return it == result.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        ++results;
        instructions += static_cast<double>(result.instructions);
        l1Accesses += static_cast<double>(result.l1Accesses);
        l1Misses += static_cast<double>(result.l1Misses);
        dram += static_cast<double>(result.dramAccesses);
        branchSquashes += static_cast<double>(result.branchSquashes);
        dgCommittedLoads += counter("dg.committedLoads");
        dgCovered += counter("dg.committedCovered");
        dgOk += static_cast<double>(result.dgVerifiedOk);
        dgBad += static_cast<double>(result.dgVerifiedBad);
    }
};

/**
 * Core-side counts, read from each traced core after run(). Cycles and
 * instructions cover the whole run, as cpu.run's time does; the skip
 * counters restart at the warm-up point like every counter, so the
 * skip share divides them by the measured region's cycles.
 */
struct CoreCounts
{
    double runs = 0, cycles = 0, committed = 0, idleSkipped = 0,
           skipEvents = 0, measuredCycles = 0;
    /** Skip share per program, for the long-tier explanation. */
    std::map<std::string, std::pair<double, double>> skipByProgram;

    void
    add(const std::string &program, const OooCore &core,
        const SimResult &result)
    {
        ++runs;
        cycles += static_cast<double>(core.cycle());
        committed += static_cast<double>(core.committed());
        idleSkipped += static_cast<double>(core.idleCyclesSkipped());
        skipEvents += static_cast<double>(core.skipEvents());
        measuredCycles += static_cast<double>(result.cycles);
        auto &[skipped, measured] = skipByProgram[program];
        skipped += static_cast<double>(core.idleCyclesSkipped());
        measured += static_cast<double>(result.cycles);
    }
};

std::string
fmt(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

/** What the end-to-end metrics are computed from. */
struct Sums
{
    std::vector<double> setupS;
    /** Every untraced runSingleJob call, in ms. */
    std::vector<double> jobMs;
    /** Detailed-only jobs: instructions incl. warm-up, and time. */
    double detailedInstructions = 0, detailedMs = 0;
    /** Jobs with a fast-forward: ffwd + detailed instructions, time. */
    double sampledInstructions = 0, sampledMs = 0;
    /** Jobs (fuzz candidates) finished, and the time they and any
     * post-pass took. */
    double jobs = 0, workMs = 0;
};

/** Everything one invocation measured. */
struct Run
{
    Args args;
    Tally tally;
    HostSpeed host;
    /** Host-normalized timings (the metrics) and raw ones. */
    Sums norm, raw;
    /** Per job: key, raw ms, normalized ms; in run order. */
    std::vector<std::string> jobTimes;

    /** Record a setup repetition of @p raw_ms. */
    void
    addSetup(double raw_ms)
    {
        norm.setupS.push_back(host.normalize(raw_ms) / 1000.0);
        raw.setupS.push_back(raw_ms / 1000.0);
    }

    /** Record one untraced job, and the instructions it simulated. */
    void
    addJob(const std::string &key, double raw_ms, double instructions,
           bool sampled)
    {
        const double norm_ms = host.normalize(raw_ms);
        jobTimes.push_back("[\"" + key + "\", " + fmt(raw_ms) + ", " +
                           fmt(norm_ms) + "]");
        for (auto [sums, ms] : {std::pair{&norm, norm_ms},
                                std::pair{&raw, raw_ms}}) {
            sums->jobMs.push_back(ms);
            ++sums->jobs;
            sums->workMs += ms;
            (sampled ? sums->sampledInstructions
                     : sums->detailedInstructions) += instructions;
            (sampled ? sums->sampledMs : sums->detailedMs) += ms;
        }
    }

    /** Record work that is no job but counts in candidates_per_s. */
    void
    addWork(double raw_ms)
    {
        norm.workMs += host.normalize(raw_ms);
        raw.workMs += raw_ms;
    }

    // Traced run.
    Tracer tracer;
    std::set<std::uint64_t> tracedJobs;
    double pairedUntracedMs = 0, pairedTracedMs = 0;
    SimCounts sims;
    CoreCounts cores;
    /** Fast-forwarded instructions: [0] own jobs, [1] layer probe. */
    double ffwdInstructions[2] = {0, 0};
    /** Oracle replays whose committed count differs from the
     * functional count sim_kips uses on fuzz-oracle. */
    double countMismatches = 0;
    double minimized = 0, minimizeTests = 0, minimizeRemoved = 0;
    double expectedHits = 0, verdicts = 0;

    /** Human-readable lines for stdout and the result file. */
    std::vector<std::string> notes;
    std::string extraJson; ///< Workload-specific result-file members.
};

std::string
note(const char *format, double a, double b = 0, double c = 0,
     double d = 0)
{
    char text[256];
    std::snprintf(text, sizeof(text), format, a, b, c, d);
    return text;
}

RunnerOptions
benchOptions()
{
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    // A transient failure is a failed job here, not a retry.
    options.maxAttempts = 1;
    return options;
}

/** Seeded job order for one pass. */
std::vector<std::size_t>
permutation(std::size_t count, std::uint64_t seed, unsigned pass)
{
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i)
        order[i] = i;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + pass + 1);
    for (std::size_t i = count; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

// --- Traced mirrors of the library's job paths ---------------------------

/**
 * runProgram's plain path, and ckpt::runSampled's single-window path,
 * with a span around each call into a layer. The result must hash
 * like the library's own, which the reference check enforces.
 */
SimResult
tracedSimulate(const Program &program, const SimConfig &config, Run &run)
{
    Tracer *tracer = &run.tracer;
    const bool probe = tracer->job() == kProbeJob;
    StatRegistry stats;
    std::unique_ptr<OooCore> core;
    const auto run_start = Clock::now();

    if (config.ffwdInstructions == 0) {
        {
            SpanGuard span(tracer, "cpu.construct");
            core = std::make_unique<OooCore>(program, config, stats);
        }
    } else {
        DGSIM_ASSERT(config.sampleInterval == 0 &&
                         config.ckptSavePath.empty() &&
                         config.ckptRestorePath.empty(),
                     "traced sampled path covers one ffwd window only");
        std::unique_ptr<ckpt::FfwdEngine> engine;
        {
            SpanGuard span(tracer, "ckpt.construct");
            engine = std::make_unique<ckpt::FfwdEngine>(program, config);
        }
        engine->armDeadline();
        std::uint64_t executed = 0;
        {
            SpanGuard span(tracer, "ckpt.ffwd");
            executed = engine->ffwd(config.ffwdInstructions);
        }
        run.ffwdInstructions[probe] += static_cast<double>(executed);
        ckpt::Checkpoint handoff;
        {
            SpanGuard span(tracer, "ckpt.handoff");
            handoff = engine->makeCheckpoint();
        }
        SimConfig window = config;
        window.ffwdInstructions = 0;
        {
            SpanGuard span(tracer, "cpu.construct");
            core = std::make_unique<OooCore>(program, window, stats);
        }
        {
            SpanGuard span(tracer, "ckpt.handoff");
            core->restoreFromCheckpoint(handoff);
        }
        stats.counter("ffwd.instructions") += executed;
        stats.counter("ffwd.switchPoint") += handoff.instret;
        stats.counter("ffwd.windows") += 1;
    }
    const auto host_start = Clock::now();
    {
        SpanGuard span(tracer, "cpu.run");
        core->run();
    }
    const double host_seconds =
        std::chrono::duration<double>(Clock::now() - host_start).count();
    SimResult result;
    {
        SpanGuard span(tracer, "sim.harvest");
        // runSampled times the whole window; runProgram the run alone.
        result = harvestResult(
            program, config, stats, *core,
            config.ffwdInstructions == 0
                ? host_seconds
                : std::chrono::duration<double>(Clock::now() - run_start)
                      .count());
    }
    // Harvest already folded the digests into the result; these calls
    // only time them.
    {
        SpanGuard span(tracer, "memory.digest");
        core->hierarchy().digest();
    }
    {
        SpanGuard span(tracer, "predictor.digest");
        core->branchPredictor().digest();
        core->strideTable().digest();
    }
    if (!probe) {
        run.cores.add(program.name, *core, result);
        run.sims.add(result);
    }
    return result;
}

/** fuzz::runCandidateJob and evaluateCandidate, with spans. */
SimResult
tracedCandidate(const Job &job, Run &run)
{
    Tracer *tracer = &run.tracer;
    fuzz::AttackerIr ir;
    {
        SpanGuard span(tracer, "fuzz.synthesize");
        ir = fuzz::synthesize(job.fuzzSeed, job.fuzzKey);
    }
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(job.fuzzSeed);
    const auto builder = [&ir, tracer](std::uint64_t secret) {
        SpanGuard span(tracer, "fuzz.lower");
        return ir.lower(secret);
    };
    std::vector<fuzz::ConfigVerdict> verdicts;
    {
        SpanGuard span(tracer, "fuzz.oracle");
        for (const SimConfig &config : evaluationConfigs(job.config)) {
            fuzz::ConfigVerdict verdict;
            verdict.configLabel = config.label();
            {
                SpanGuard check(tracer, "security.check");
                verdict.check =
                    security::checkLeakPairs(builder, config, pairs);
            }
            verdict.expected =
                verdict.check.leaked() && config.scheme == Scheme::Unsafe;
            verdicts.push_back(std::move(verdict));
        }
    }

    SimResult result;
    result.workload = job.workload;
    result.configLabel = job.config.label();
    result.instructions = ir.instructionCount();
    auto &counters = result.counters;
    counters["fuzz.key"] = job.fuzzKey;
    counters["fuzz.seed"] = job.fuzzSeed;
    std::uint64_t findings = 0, expected = 0, inconclusive = 0;
    for (const fuzz::ConfigVerdict &verdict : verdicts) {
        const std::string &label = verdict.configLabel;
        counters["fuzz.verdict." + label] =
            static_cast<std::uint64_t>(verdict.check.verdict);
        counters["fuzz.expected." + label] = verdict.expected ? 1 : 0;
        counters["fuzz.secretA." + label] = verdict.check.secretA;
        counters["fuzz.secretB." + label] = verdict.check.secretB;
        counters["fuzz.digestA." + label] = verdict.check.digestA;
        counters["fuzz.digestB." + label] = verdict.check.digestB;
        if (verdict.finding())
            ++findings;
        else if (verdict.expected)
            ++expected;
        if (verdict.check.inconclusive())
            ++inconclusive;
    }
    counters[fuzz::kCounterFindings] = findings;
    counters[fuzz::kCounterExpected] = expected;
    counters[fuzz::kCounterInconclusive] = inconclusive;
    return result;
}

/**
 * The oracle's runs happen inside checkLeakPairs, out of reach of a
 * span. Replay one secret's run per configuration column through the
 * layers one by one, for the per-run split.
 */
void
replayOracleRuns(std::uint64_t key, Run &run)
{
    Tracer *tracer = &run.tracer;
    SpanGuard replay(tracer, "fuzz.replay");
    const fuzz::AttackerIr ir = fuzz::synthesize(kFuzzSeed, key);
    const std::uint64_t secret = security::defaultSecretPairs(kFuzzSeed)[0].a;
    const Program program = ir.lower(secret);
    FunctionalCore functional(program);
    const std::uint64_t expected = functional.run(kFunctionalCap);
    for (SimConfig config : evaluationConfigs(fuzz::oracleBaseConfig())) {
        config.watchdogThrows = true;
        try {
            if (tracedSimulate(program, config, run).instructions != expected)
                ++run.countMismatches;
        } catch (const WatchdogError &) {
            // A wedged replay is an inconclusive verdict, which the
            // candidate's own check already counts.
        }
    }
}

/**
 * Instructions the oracle's detailed runs committed for one candidate,
 * mirroring checkLeakPairs: per configuration column, each distinct
 * secret of the pairs it evaluated (up to and including the first
 * leaking pair) runs once. Each count comes from the functional core.
 */
double
oracleInstructions(const JobOutcome &outcome, std::uint64_t key)
{
    const fuzz::AttackerIr ir = fuzz::synthesize(kFuzzSeed, key);
    const std::vector<security::SecretPair> pairs =
        security::defaultSecretPairs(kFuzzSeed);
    std::map<std::uint64_t, std::uint64_t> counts;
    const auto countOf = [&](std::uint64_t secret) {
        auto it = counts.find(secret);
        if (it == counts.end()) {
            const Program program = ir.lower(secret);
            FunctionalCore core(program);
            it = counts.emplace(secret, core.run(kFunctionalCap)).first;
        }
        return static_cast<double>(it->second);
    };
    double total = 0;
    for (const fuzz::ConfigVerdict &verdict :
         fuzz::readVerdicts(outcome.result)) {
        std::set<std::uint64_t> secrets;
        for (const security::SecretPair &pair : pairs) {
            secrets.insert(pair.a);
            secrets.insert(pair.b);
            if (verdict.check.leaked() && pair.a == verdict.check.secretA &&
                pair.b == verdict.check.secretB)
                break;
        }
        for (std::uint64_t secret : secrets)
            total += countOf(secret);
    }
    return total;
}

// --- Workload setup -------------------------------------------------------

SweepSpec
matrixSpec()
{
    // runSuiteMatrix's and `dgrun --perf`'s base configuration.
    SimConfig base;
    base.maxInstructions = kMatrixInstructions;
    base.maxCycles = kMatrixInstructions * 200;
    base.warmupInstructions = kMatrixInstructions / 3;
    return SweepSpec::evaluationMatrix(base);
}

SweepSpec
longSpec()
{
    SweepSpec spec;
    for (const char *name : kLongPrograms)
        spec.workloads.push_back(workloads::findWorkload(name));
    for (const SimConfig &config :
         evaluationConfigs(runner::campaignBaseConfig(kLongInstructions, 0,
                                                      0, 0)))
        spec.configs.push_back(config);
    for (const SimConfig &config : evaluationConfigs(
             runner::campaignBaseConfig(kLongDetail, kLongFfwd, 0, 0)))
        spec.configs.push_back(config);
    return spec;
}

/** SweepSpec::expand for a simulation sweep, with a span per build. */
std::vector<Job>
expandTraced(const SweepSpec &spec, Tracer *tracer)
{
    std::vector<Job> jobs;
    for (const workloads::WorkloadDef &workload : spec.workloads) {
        std::shared_ptr<const Program> program;
        {
            SpanGuard span(tracer, "workloads.build");
            program = std::make_shared<const Program>(
                workload.build(spec.iterations));
        }
        for (const SimConfig &config : spec.configs) {
            Job job;
            job.index = jobs.size();
            job.workload = workload.name;
            job.suite = workload.suite;
            job.program = program;
            job.config = config;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Build the jobs kSetupRepeats times, timing each; keep the last. */
std::vector<Job>
setupSimulate(const SweepSpec &spec, Run &run)
{
    std::vector<Job> jobs;
    for (unsigned repeat = 0; repeat < kSetupRepeats; ++repeat) {
        jobs.clear();
        const auto start = Clock::now();
        const bool traced = run.args.trace && repeat + 1 == kSetupRepeats;
        if (traced)
            run.tracer.setJob(kSetupJob);
        jobs = traced ? expandTraced(spec, &run.tracer) : spec.expand();
        run.addSetup(msSince(start));
    }
    return jobs;
}

// --- Running jobs ----------------------------------------------------------

/** One runSingleJob call, timed. */
JobOutcome
timedJob(const Job &job, const RunnerOptions &options, double &ms)
{
    const auto start = Clock::now();
    JobOutcome outcome = runner::runSingleJob(job, runner::jobKey(job),
                                              options);
    ms = msSince(start);
    return outcome;
}

/**
 * Run @p job untraced and, in a traced run, once more through the
 * traced mirror inside a runner.job span, first on odd job ids.
 * Returns the untraced outcome and its time.
 */
JobOutcome
runPaired(const Job &job, std::uint64_t job_id, const RunnerOptions &plain,
          const RunnerOptions &traced, Run &run, double &ms)
{
    if (!run.args.trace)
        return timedJob(job, plain, ms);
    JobOutcome outcome, traced_outcome;
    double traced_ms = 0;
    const auto tracedRun = [&] {
        run.tracer.setJob(job_id);
        run.tracedJobs.insert(job_id);
        const int span = run.tracer.open("runner.job");
        traced_outcome = timedJob(job, traced, traced_ms);
        run.tracer.close(span);
    };
    const bool traced_first = job_id % 2 != 0;
    if (traced_first)
        tracedRun();
    outcome = timedJob(job, plain, ms);
    if (!traced_first)
        tracedRun();
    run.pairedUntracedMs += ms;
    run.pairedTracedMs += traced_ms;
    const std::string key = runner::jobKey(job);
    if (traced_outcome.ok != outcome.ok ||
        (outcome.ok && resultHash(traced_outcome) != resultHash(outcome)))
        run.tally.fail(key + ": traced job path disagrees with the "
                             "library's");
    return outcome;
}

/** Instructions one finished simulation job executed: fast-forwarded
 * plus detailed, or detailed including the warm-up. */
double
simulatedInstructions(const Job &job, const JobOutcome &outcome)
{
    if (!outcome.ok)
        return 0;
    const SimResult &result = outcome.result;
    if (job.config.ffwdInstructions != 0) {
        const auto it = result.counters.find("ffwd.instructions");
        return static_cast<double>(result.instructions) +
               (it == result.counters.end()
                    ? 0.0
                    : static_cast<double>(it->second));
    }
    // Counters restart at the warm-up point, which every job of these
    // endless-loop programs passes.
    return static_cast<double>(result.instructions) +
           static_cast<double>(job.config.warmupInstructions);
}

/** What a workload does around the shared pass loop. */
struct PassHooks
{
    /** Executor of the traced runs. */
    std::function<SimResult(const Job &)> traced;
    /** Check and record one finished job. */
    std::function<void(const Job &, const JobOutcome &, double ms)> account;
    /** Work after each pass over the outcomes (in job order); its time
     * counts in the pass. */
    std::function<void(const std::vector<JobOutcome> &)> afterPass;
};

/**
 * Whole passes over @p jobs in seeded order. A pass starts only while
 * the previous pass's time still fits in --seconds, so every job of the
 * workload weighs the same in a run; the first pass always runs.
 * Returns the outcomes of the first pass, in job order.
 */
std::vector<JobOutcome>
runPasses(const std::vector<Job> &jobs, const PassHooks &hooks, Run &run)
{
    const RunnerOptions plain = benchOptions();
    RunnerOptions traced = benchOptions();
    traced.execute = hooks.traced;
    std::vector<JobOutcome> first;
    const double budget_ms = run.args.seconds * 1000.0;
    const auto start = Clock::now();
    double pass_ms = 0;
    std::uint64_t job_id = 0;
    for (unsigned pass = 0;; ++pass) {
        if (pass > 0 && msSince(start) + pass_ms > budget_ms)
            break;
        const auto pass_start = Clock::now();
        std::vector<JobOutcome> outcomes(jobs.size());
        for (std::size_t index : permutation(jobs.size(), run.args.seed,
                                             pass)) {
            const Job &job = jobs[index];
            double ms = 0;
            outcomes[index] =
                runPaired(job, job_id, plain, traced, run, ms);
            hooks.account(job, outcomes[index], ms);
            ++job_id;
        }
        if (hooks.afterPass)
            hooks.afterPass(outcomes);
        pass_ms = msSince(pass_start);
        run.notes.push_back(note("pass %.0f: %.0f jobs in %.3f s",
                                 pass, static_cast<double>(jobs.size()),
                                 pass_ms / 1000.0));
        if (pass == 0)
            first = std::move(outcomes);
    }
    return first;
}

/** The hooks of a simulation workload. */
PassHooks
simulateHooks(const Reference &reference, Run &run)
{
    PassHooks hooks;
    hooks.traced = [&run](const Job &job) {
        return tracedSimulate(*job.program, job.config, run);
    };
    hooks.account = [&reference, &run](const Job &job,
                                       const JobOutcome &outcome, double ms) {
        const std::string key = runner::jobKey(job);
        accountOutcome(outcome, key, &reference, /*require_reference=*/true,
                       run.tally);
        run.addJob(key, ms, simulatedInstructions(job, outcome),
                   job.config.ffwdInstructions != 0);
    };
    return hooks;
}

/** GMEAN normalized IPC beside the paper's column (model error). */
void
modelReference(const std::vector<JobOutcome> &outcomes, Run &run)
{
    std::map<std::string, std::map<std::string, double>> ipc;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok)
            ipc[outcome.workload][outcome.configLabel] = outcome.result.ipc;
    }
    std::string json = "\"model_reference\": [";
    run.notes.push_back("model reference: GMEAN normalized IPC over " +
                        std::to_string(ipc.size()) +
                        " workloads (config, model, paper, model - paper)");
    bool first = true;
    for (const auto &[label, paper] : kPaperGmean) {
        double log_sum = 0;
        std::size_t count = 0;
        for (const auto &[workload, row] : ipc) {
            const auto base = row.find("Unsafe");
            const auto it = row.find(label);
            if (base == row.end() || it == row.end() || base->second <= 0 ||
                it->second <= 0)
                continue;
            log_sum += std::log(it->second / base->second);
            ++count;
        }
        const double model =
            count == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(count));
        char line[128];
        std::snprintf(line, sizeof(line), "  %-9s %.3f  %.3f  %+.3f", label,
                      model, paper, model - paper);
        run.notes.push_back(line);
        json += std::string(first ? "" : ", ") + "{\"config\": \"" + label +
                "\", \"model\": " + fmt(model) + ", \"paper\": " +
                fmt(paper) + ", \"difference\": " + fmt(model - paper) + "}";
        first = false;
    }
    run.extraJson += json + "],\n";
}

void
runMatrix(const Reference &reference, Run &run)
{
    const std::vector<Job> jobs = setupSimulate(matrixSpec(), run);
    modelReference(runPasses(jobs, simulateHooks(reference, run), run), run);
}

void
runLong(const Reference &reference, Run &run)
{
    const std::vector<Job> jobs = setupSimulate(longSpec(), run);
    runPasses(jobs, simulateHooks(reference, run), run);
}

// --- fuzz-oracle -------------------------------------------------------------

std::vector<Job>
fuzzJobs(std::uint64_t count)
{
    SweepSpec spec;
    spec.configs = {fuzz::oracleBaseConfig()};
    spec.fuzzCount = count;
    spec.fuzzSeed = kFuzzSeed;
    return spec.expand();
}

/**
 * The candidate job list, plus the synthesis preflight: every candidate
 * is synthesized and lowered once, which checks that it yields a
 * runnable program. Untraced: the candidates' own synthesis inside
 * their jobs is what fuzz.synth_ms times.
 */
std::vector<Job>
setupFuzz(Run &run)
{
    std::vector<Job> jobs;
    for (unsigned repeat = 0; repeat < kSetupRepeats; ++repeat) {
        jobs.clear();
        const auto start = Clock::now();
        jobs = fuzzJobs(kFuzzCandidates);
        const std::uint64_t secret =
            security::defaultSecretPairs(kFuzzSeed)[0].a;
        for (const Job &job : jobs) {
            if (fuzz::synthesize(kFuzzSeed, job.fuzzKey)
                    .lower(secret)
                    .text.empty())
                run.tally.fail(runner::jobKey(job) +
                               ": candidate lowers to no code");
        }
        run.addSetup(msSince(start));
    }
    return jobs;
}

/** Count one fuzz outcome: a failed job, a secure-scheme finding or an
 * inconclusive verdict fails it. */
void
accountCandidate(const JobOutcome &outcome, const std::string &key,
                 const Reference *reference, Tally &tally)
{
    accountOutcome(outcome, key, reference, /*require_reference=*/true,
                   tally);
    if (!outcome.ok)
        return;
    const auto count = [&outcome](const char *name) {
        const auto it = outcome.result.counters.find(name);
        return it == outcome.result.counters.end() ? 0 : it->second;
    };
    if (count(fuzz::kCounterFindings) != 0)
        tally.fail(key + ": secure-scheme finding");
    if (count(fuzz::kCounterInconclusive) != 0)
        tally.fail(key + ": inconclusive verdict");
}

/** Replay what the post-pass minimized, from its findings file, with a
 * span per minimizeLeak call. */
void
replayMinimization(const std::string &findings_path, Run &run)
{
    std::ifstream in(findings_path);
    std::string line;
    const std::vector<SimConfig> configs =
        evaluationConfigs(fuzz::oracleBaseConfig());
    run.tracer.setJob(kPostJob);
    while (std::getline(in, line)) {
        const runner::JsonValue record = runner::JsonParser(line).parse();
        if (!runner::jsonMember(record, "minimized").boolean)
            continue;
        const auto u64 = [&record](const char *name) {
            return std::stoull(runner::jsonMember(record, name).number);
        };
        const std::string label = runner::jsonMember(record, "config").str;
        const SimConfig *config = nullptr;
        for (const SimConfig &candidate : configs)
            if (candidate.label() == label)
                config = &candidate;
        if (!config)
            continue;
        const std::uint64_t key = u64("key");
        const fuzz::AttackerIr ir = fuzz::synthesize(kFuzzSeed, key);
        fuzz::MinimizeResult minimized;
        {
            SpanGuard span(&run.tracer, "fuzz.minimize");
            minimized = fuzz::minimizeLeak(
                ir, *config, {u64("secretA"), u64("secretB")});
        }
        if (minimized.testsRun != u64("minTests") ||
            minimized.ir.instructionCount() != u64("minInstructions"))
            run.tally.fail(fuzz::candidateName(key) +
                           ": minimization replay differs from the "
                           "post-pass");
        ++run.minimized;
        run.minimizeTests += minimized.testsRun;
        run.minimizeRemoved += static_cast<double>(
            u64("instructions") - u64("minInstructions"));
    }
}

void
runFuzz(const Reference &reference, Run &run)
{
    const std::vector<Job> jobs = setupFuzz(run);
    const std::string dir = std::string(kOutDir) + "/fuzz-seed" +
                            std::to_string(run.args.seed) +
                            (run.args.trace ? "-traced" : "");
    fuzz::PostOptions post;
    post.fuzzSeed = kFuzzSeed;
    post.reproDir = dir + "/repros";
    post.findingsPath = dir + "/findings.jsonl";
    post.quiet = true;
    fuzz::PostSummary summary;
    double post_ms = 0, post_share = 0, work_mark = 0;

    PassHooks hooks;
    hooks.traced = [&run](const Job &job) {
        return tracedCandidate(job, run);
    };
    hooks.account = [&reference, &run](const Job &job,
                                       const JobOutcome &outcome, double ms) {
        const std::string key = runner::jobKey(job);
        accountCandidate(outcome, key, &reference, run.tally);
        run.addJob(key, ms,
                   outcome.ok ? oracleInstructions(outcome, job.fuzzKey)
                              : 0.0,
                   /*sampled=*/false);
        if (run.args.trace)
            replayOracleRuns(job.fuzzKey, run);
    };
    hooks.afterPass = [&](const std::vector<JobOutcome> &outcomes) {
        // The campaign's post-pass, over the outcomes in key order.
        run.tracer.setJob(kPostJob);
        const auto start = Clock::now();
        {
            SpanGuard span(run.args.trace ? &run.tracer : nullptr,
                           "fuzz.post");
            summary = fuzz::postProcess(outcomes, post, std::cerr);
        }
        post_ms = msSince(start);
        post_share = post_ms / (run.raw.workMs - work_mark + post_ms);
        run.addWork(post_ms);
        work_mark = run.raw.workMs;
    };
    const std::vector<JobOutcome> outcomes = runPasses(jobs, hooks, run);

    if (summary.findings != 0 || summary.inconclusive != 0 ||
        summary.failedJobs != 0)
        run.notes.push_back(note("post-pass: %.0f findings, %.0f "
                                 "inconclusive, %.0f failed jobs",
                                 summary.findings, summary.inconclusive,
                                 summary.failedJobs));
    run.expectedHits = static_cast<double>(summary.expectedLeaks);
    run.verdicts = static_cast<double>(summary.candidates) *
                   static_cast<double>(evaluationConfigs(SimConfig{}).size());
    if (run.args.trace)
        replayMinimization(post.findingsPath, run);
    if (run.countMismatches != 0)
        run.notes.push_back(note("warning: %.0f oracle replays committed "
                                 "other than the functional count; "
                                 "sim_kips on fuzz-oracle is off",
                                 run.countMismatches));

    // Verdict digest over the candidates, in key order; every
    // candidate's verdicts were also checked against the reference.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const JobOutcome &outcome : outcomes)
        digest = fnv1a(resultHash(outcome), digest);
    run.extraJson += "\"fuzz\": {\"seed\": " + std::to_string(kFuzzSeed) +
                     ", \"candidates\": " + std::to_string(outcomes.size()) +
                     ", \"expected_leaks\": " +
                     std::to_string(summary.expectedLeaks) +
                     ", \"findings\": " + std::to_string(summary.findings) +
                     ", \"inconclusive\": " +
                     std::to_string(summary.inconclusive) +
                     ", \"post_ms\": " + fmt(post_ms) +
                     ", \"post_share\": " + fmt(post_share) +
                     ", \"replay_count_mismatches\": " +
                     fmt(run.countMismatches) +
                     ", \"verdict_digest\": \"" + hex64(digest) + "\"},\n";
    run.notes.push_back(note("fuzz: %.0f candidates, last post-pass %.3f s "
                             "(%.1f%% of a pass)",
                             static_cast<double>(outcomes.size()),
                             post_ms / 1000.0, 100.0 * post_share) +
                        ", verdict digest " + hex64(digest));
}

// --- Layer probe ---------------------------------------------------------

/**
 * In a traced run, time the layers the workload itself never calls
 * (so that every per-layer metric is measured on every workload): one
 * fuzz candidate with its replay and a minimization, one sampled
 * stream_long job, the long-tier builds. Their spans carry kProbeJob and
 * count only for layers without spans of the workload's own.
 */
void
probeLayers(const Reference &reference, Run &run)
{
    const std::string workload = run.args.workload;
    run.tracer.setJob(kProbeJob);
    const bool fuzz_layers = workload != "fuzz-oracle";
    const bool ckpt_layers = workload != "long-tier";
    Tally probe;
    if (fuzz_layers) {
        const Job job = fuzzJobs(1).front();
        const SimResult result = tracedCandidate(job, run);
        replayOracleRuns(job.fuzzKey, run);
        const fuzz::ConfigVerdict unsafe = fuzz::readVerdicts(result).front();
        SpanGuard span(&run.tracer, "fuzz.minimize");
        fuzz::minimizeLeak(fuzz::synthesize(kFuzzSeed, job.fuzzKey),
                           evaluationConfigs(fuzz::oracleBaseConfig())
                               .front(),
                           {unsafe.check.secretA, unsafe.check.secretB});
    }
    if (ckpt_layers) {
        run.tracer.setJob(kProbeJob);
        const std::vector<Job> jobs = expandTraced(longSpec(), &run.tracer);
        RunnerOptions options = benchOptions();
        options.execute = [&run](const Job &job) {
            return tracedSimulate(*job.program, job.config, run);
        };
        for (const Job &job : jobs) {
            if (job.workload != "stream_long" ||
                job.config.ffwdInstructions == 0 ||
                job.config.scheme != Scheme::Unsafe ||
                job.config.addressPrediction)
                continue;
            const std::string key = runner::jobKey(job);
            accountOutcome(runner::runSingleJob(job, key, options), key,
                           &reference, /*require_reference=*/true, probe);
        }
    }
    run.tally.attempted += probe.attempted;
    for (const std::string &problem : probe.problems)
        run.tally.fail("layer probe: " + problem);
}

// --- Metrics -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMiB()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
endToEndMetrics(const Sums &sums)
{
    const Tail tail = tailOf(sums.jobMs);
    const double sim_kips =
        sums.detailedMs > 0 ? sums.detailedInstructions / sums.detailedMs
                            : 0;
    // A workload without fast-forwarding jobs runs every job as a
    // zero-length fast-forward: its sampled rate is the detailed one.
    const double sampled_kips =
        sums.sampledMs > 0 ? sums.sampledInstructions / sums.sampledMs
                           : sim_kips;
    return {
        {"setup_s", median(sums.setupS), "s"},
        {"sim_kips", sim_kips, "kinst/s"},
        {"sampled_kips", sampled_kips, "kinst/s"},
        {"candidates_per_s",
         sums.workMs > 0 ? sums.jobs / (sums.workMs / 1000.0) : 0, "1/s"},
        {"job_ms_p50", median(sums.jobMs), "ms"},
        {"job_ms_tail", tail.value, "ms"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
}

/** Per-name span statistics of the traced run. */
struct LayerStats
{
    std::vector<double> callMs; ///< One entry per span.
    std::map<std::uint64_t, double> jobMs; ///< Summed per job id.
    double totalMs = 0, selfMs = 0;
};

std::vector<Metric>
layerMetrics(const Run &run, std::map<std::string, LayerStats> &table)
{
    const std::vector<Span> &spans = run.tracer.spans();
    const std::vector<double> self = selfTimesMs(spans);
    // Spans of the workload's own jobs and setup, and of the probe.
    std::map<std::string, LayerStats> own, probe;
    std::map<std::uint64_t, double> job_layers_ms;
    double run_in_jobs_ms = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        LayerStats &stats =
            (span.job == kProbeJob ? probe : own)[span.name];
        stats.callMs.push_back(span.ms());
        stats.jobMs[span.job] += span.ms();
        stats.totalMs += span.ms();
        stats.selfMs += self[i];
        if (span.parent >= 0 &&
            spans[static_cast<std::size_t>(span.parent)].name ==
                "runner.job") {
            job_layers_ms[span.job] += span.ms();
            if (span.name == "cpu.run")
                run_in_jobs_ms += span.ms();
        }
    }
    table = own;
    for (const auto &[name, stats] : probe)
        table["probe:" + name] = stats;
    const auto layer = [&](const std::string &name) -> const LayerStats & {
        static const LayerStats none;
        const auto it = own.find(name);
        if (it != own.end())
            return it->second;
        const auto jt = probe.find(name);
        return jt != probe.end() ? jt->second : none;
    };
    const auto perCall = [&](const char *name) {
        return median(layer(name).callMs);
    };
    const auto perJob = [&](std::initializer_list<const char *> names) {
        std::map<std::uint64_t, double> sums;
        for (const char *name : names)
            for (const auto &[job, ms] : layer(name).jobMs)
                sums[job] += ms;
        std::vector<double> values;
        for (const auto &[job, ms] : sums)
            values.push_back(ms);
        return median(values);
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    std::vector<double> traced_jobs, traced_layers;
    for (std::uint64_t job : run.tracedJobs) {
        traced_layers.push_back(job_layers_ms[job]);
        const auto it = own["runner.job"].jobMs.find(job);
        if (it != own["runner.job"].jobMs.end())
            traced_jobs.push_back(it->second);
    }
    const double run_ms = layer("cpu.run").totalMs;
    const double construct_ms = layer("cpu.construct").totalMs;
    const double harvest_ms = layer("sim.harvest").totalMs;
    const double digest_ms = layer("memory.digest").totalMs;
    const SimCounts &sims = run.sims;
    const CoreCounts &cores = run.cores;

    return {
        {"workloads.build_ms", perCall("workloads.build"), "ms"},
        {"fuzz.synth_ms", perJob({"fuzz.synthesize", "fuzz.lower"}), "ms"},
        {"cpu.construct_ms", perCall("cpu.construct"), "ms"},
        {"cpu.run_ms", perCall("cpu.run"), "ms"},
        {"cpu.run_share", ratio(run_in_jobs_ms, own["runner.job"].totalMs),
         "share"},
        {"cpu.host_ns_per_cycle", ratio(run_ms * 1e6, cores.cycles), "ns"},
        {"cpu.host_ns_per_instr", ratio(run_ms * 1e6, cores.committed),
         "ns"},
        {"cpu.cycles", ratio(cores.cycles, cores.runs), "count"},
        {"cpu.instructions", ratio(cores.committed, cores.runs), "count"},
        {"cpu.idle_cycles_skipped", ratio(cores.idleSkipped, cores.runs),
         "count"},
        {"cpu.skip_events", ratio(cores.skipEvents, cores.runs), "count"},
        {"cpu.skip_share", ratio(cores.idleSkipped, cores.measuredCycles),
         "share"},
        {"sim.harvest_ms", perCall("sim.harvest"), "ms"},
        {"sim.fixed_share",
         ratio(construct_ms + digest_ms, construct_ms + run_ms + harvest_ms),
         "share"},
        {"memory.digest_ms", perCall("memory.digest"), "ms"},
        {"memory.l1_miss_ratio", ratio(sims.l1Misses, sims.l1Accesses),
         "ratio"},
        {"memory.dram_per_kinst", ratio(sims.dram * 1000, sims.instructions),
         "1/kinst"},
        {"predictor.digest_ms", perCall("predictor.digest"), "ms"},
        {"predictor.branch_squash_per_kinst",
         ratio(sims.branchSquashes * 1000, sims.instructions), "1/kinst"},
        {"core.dg_coverage", ratio(sims.dgCovered, sims.dgCommittedLoads),
         "ratio"},
        {"core.dg_accuracy", ratio(sims.dgOk, sims.dgOk + sims.dgBad),
         "ratio"},
        {"ckpt.construct_ms", perCall("ckpt.construct"), "ms"},
        {"ckpt.ffwd_ms", perCall("ckpt.ffwd"), "ms"},
        {"ckpt.ffwd_kips",
         ratio(run.ffwdInstructions[own.count("ckpt.ffwd") == 0],
               layer("ckpt.ffwd").totalMs),
         "kinst/s"},
        {"ckpt.handoff_ms", perJob({"ckpt.handoff"}), "ms"},
        {"security.check_ms", perCall("security.check"), "ms"},
        {"fuzz.oracle_ms", perCall("fuzz.oracle"), "ms"},
        {"fuzz.minimize_ms", perCall("fuzz.minimize"), "ms"},
        {"fuzz.minimize_tests", ratio(run.minimizeTests, run.minimized),
         "count"},
        {"fuzz.minimize_removed_per_test",
         ratio(run.minimizeRemoved, run.minimizeTests), "count"},
        {"fuzz.expected_hit_share", ratio(run.expectedHits, run.verdicts),
         "share"},
        {"runner.gap_ms", median(traced_jobs) - median(traced_layers), "ms"},
        {"bench.trace_overhead_share",
         ratio(run.pairedTracedMs, run.pairedUntracedMs) - 1.0, "share"},
    };
}

// --- Output ----------------------------------------------------------------

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string json = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
                "\": {\"value\": " + fmt(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return json + "}";
}

void
writeSpans(const Run &run, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    const std::vector<Span> &spans = run.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out << "{\"name\": \"" << span.name
            << "\", \"start_ns\": " << span.startNs
            << ", \"end_ns\": " << span.endNs << ", \"parent\": "
            << span.parent << ", \"job\": "
            << (span.job >= kPostJob
                    ? std::string("\"") +
                          (span.job == kProbeJob   ? "probe"
                           : span.job == kSetupJob ? "setup"
                                                   : "post") +
                          "\""
                    : std::to_string(span.job))
            << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

int
report(Run &run, const Provenance &prov)
{
    const Args &args = run.args;
    std::map<std::string, LayerStats> table;
    const std::vector<Metric> metrics =
        args.trace ? layerMetrics(run, table) : endToEndMetrics(run.norm);
    const Tail tail = tailOf(run.norm.jobMs);
    const bool correct = run.tally.failed == 0;

    std::filesystem::create_directories(kOutDir);
    const std::string stem = std::string(kOutDir) + "/" + args.workload +
                             "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-traced" : "");
    std::ostringstream file;
    file << "{\n\"workload\": \"" << args.workload
         << "\",\n\"seed\": " << args.seed
         << ",\n\"seconds\": " << fmt(args.seconds)
         << ",\n\"trace\": " << (args.trace ? "true" : "false")
         << ",\n\"provenance\": {\"git_sha\": \""
         << runner::jsonEscape(prov.gitSha) << "\", \"build_type\": \"" << prov.buildType
         << "\", \"cpu_model\": \"" << runner::jsonEscape(prov.cpuModel)
         << "\", \"nproc\": " << prov.nproc << ", \"load_average\": ["
         << fmt(prov.load[0]) << ", " << fmt(prov.load[1]) << ", "
         << fmt(prov.load[2]) << "]},\n\"correct\": "
         << (correct ? "true" : "false")
         << ",\n\"attempted\": " << run.tally.attempted
         << ",\n\"failed\": " << run.tally.failed
         << ",\n\"failed_share\": " << fmt(run.tally.failedShare())
         << ",\n\"problems\": [";
    for (std::size_t i = 0; i < run.tally.problems.size(); ++i)
        file << (i ? ", " : "") << "\""
             << runner::jsonEscape(run.tally.problems[i]) << "\"";
    file << "],\n\"job_ms_tail\": {\"percentile\": " << fmt(tail.percentile)
         << ", \"samples\": " << tail.samples << ", \"value\": "
         << fmt(tail.value) << "},\n\"setup_s_samples\": [";
    for (std::size_t i = 0; i < run.norm.setupS.size(); ++i)
        file << (i ? ", " : "") << fmt(run.norm.setupS[i]);
    file << "],\n\"host_slice_ms\": {\"median\": "
         << fmt(median(run.host.slices())) << ", \"nominal\": "
         << fmt(HostSpeed::kNominalSliceMs) << ", \"count\": "
         << run.host.slices().size() << "},\n";
    // Not host-normalized. In a traced run: the untraced jobs' values.
    file << "\"raw_metrics\": " << metricsJson(endToEndMetrics(run.raw))
         << ",\n" << run.extraJson;
    if (args.trace) {
        file << "\"skip_share_by_program\": {";
        bool first = true;
        for (const auto &[program, counts] : run.cores.skipByProgram) {
            file << (first ? "" : ", ") << "\"" << program << "\": "
                 << fmt(counts.second > 0 ? counts.first / counts.second
                                          : 0);
            first = false;
        }
        file << "},\n\"layers\": {";
        first = true;
        for (const auto &[name, stats] : table) {
            file << (first ? "" : ",\n  ") << "\"" << name
                 << "\": {\"calls\": " << stats.callMs.size()
                 << ", \"median_ms\": " << fmt(median(stats.callMs))
                 << ", \"total_ms\": " << fmt(stats.totalMs)
                 << ", \"self_ms\": " << fmt(stats.selfMs) << "}";
            first = false;
        }
        file << "},\n\"spans_file\": \"" << stem << ".spans.json\",\n";
        writeSpans(run, stem + ".spans.json");
    }
    file << "\"job_times\": [";
    for (std::size_t i = 0; i < run.jobTimes.size(); ++i)
        file << (i ? ",\n  " : "\n  ") << run.jobTimes[i];
    file << "],\n\"metrics\": " << metricsJson(metrics) << "\n}\n";
    std::ofstream(stem + ".json", std::ios::trunc) << file.str();

    std::cout << "dgbench " << args.workload << " seed " << args.seed
              << (args.trace ? " (traced)" : "") << ": git " << prov.gitSha
              << ", " << prov.buildType << " build, " << prov.cpuModel
              << ", nproc " << prov.nproc << ", load "
              << note("%.2f %.2f %.2f", prov.load[0], prov.load[1],
                      prov.load[2])
              << "\n";
    for (const std::string &line : run.notes)
        std::cout << line << "\n";
    for (const Metric &metric : metrics)
        std::cout << "  " << metric.name << " = " << fmt(metric.value) << " "
                  << metric.unit << "\n";
    std::cout << note("  job_ms_tail is p%.2f of %.0f samples\n",
                      tail.percentile, static_cast<double>(tail.samples))
              << "  failed_share = " << fmt(run.tally.failedShare())
              << " (" << run.tally.failed << " of " << run.tally.attempted
              << ")\n";
    for (const std::string &problem : run.tally.problems)
        std::cout << "  FAILED " << problem << "\n";
    std::cout << "  result file " << stem << ".json\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << run.tally.attempted
              << ", \"failed\": " << run.tally.failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

/** Run every reference job once and write their hashes. */
int
recordReference(const std::string &path)
{
    Reference reference;
    const RunnerOptions options = benchOptions();
    std::size_t failed = 0;
    const auto record = [&](const JobOutcome &outcome,
                            const std::string &key) {
        if (!outcome.ok) {
            std::cerr << key << " failed: " << outcome.error << "\n";
            ++failed;
        }
        reference.set(key, resultHash(outcome));
    };
    for (const SweepSpec &spec : {matrixSpec(), longSpec()}) {
        for (const Job &job : spec.expand()) {
            const std::string key = runner::jobKey(job);
            record(runner::runSingleJob(job, key, options), key);
        }
    }
    for (const Job &job : fuzzJobs(kFuzzCandidates)) {
        const std::string key = runner::jobKey(job);
        const JobOutcome outcome = runner::runSingleJob(job, key, options);
        Tally tally;
        accountCandidate(outcome, key, nullptr, tally);
        failed += tally.failed;
        record(outcome, key);
    }
    if (failed != 0) {
        std::cerr << "dgbench: " << failed
                  << " reference jobs failed; nothing written\n";
        return 1;
    }
    if (!reference.save(
            path, "# Result hashes (toJsonLine without host fields, "
                  "FNV-1a) of every job of the three workloads.\n"
                  "# Regenerate from the repository root with: "
                  ".bench_build/dgbench --record-reference\n")) {
        std::cerr << "dgbench: cannot write " << path << "\n";
        return 1;
    }
    std::cerr << "dgbench: wrote " << reference.size() << " hashes to "
              << path << "\n";
    return 0;
}

} // namespace
} // namespace dgsim::perfbench

int
main(int argc, char **argv)
{
    using namespace dgsim::perfbench;
    Run run;
    run.args = parseArgs(argc, argv);
    if (run.args.record)
        return recordReference(kReferencePath);

    const Provenance prov = captureProvenance(run.args.gitSha);
    if (!dgsim::buildinfo::isReleaseBuild())
        std::cerr << "dgbench: warning: build type is '" << prov.buildType
                  << "', not Release; timings are not comparable\n";
    Reference reference;
    if (!reference.load(kReferencePath)) {
        std::cerr << "dgbench: cannot read reference " << kReferencePath
                  << "\n";
        return 2;
    }
    try {
        if (run.args.workload == "paper-matrix")
            runMatrix(reference, run);
        else if (run.args.workload == "long-tier")
            runLong(reference, run);
        else
            runFuzz(reference, run);
        if (run.args.trace)
            probeLayers(reference, run);
    } catch (const std::exception &error) {
        std::cerr << "dgbench: " << error.what() << "\n";
        return 1;
    }
    return report(run, prov);
}
