/**
 * @file
 * Work-stealing coordinator tests: a forked multi-worker campaign
 * completes and byte-compares to a single-process run; a worker killed
 * mid-job (after claiming, before journaling — the worst moment) is
 * recovered by a fresh coordinator pass in the same invocation, or by
 * simply re-running the campaign; fault injection composes with it all.
 *
 * These tests really fork(): each worker is a separate process writing
 * its own journal, and the injected death is a literal _exit(9) between
 * the claim append and the journal record.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/campaign.hh"
#include "runner/coordinator.hh"
#include "runner/experiment_runner.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"

namespace dgsim::runner
{
namespace
{

/** Identity-keyed mock (never index-keyed: shard runs re-index). */
SimResult
identityMockResult(const Job &job)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : job.workload + "/" + job.config.label()) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    SimResult result;
    result.workload = job.workload;
    result.configLabel = job.config.label();
    result.cycles = 1000 + hash % 1000;
    result.instructions = 500 + hash % 500;
    result.ipc = 0.5;
    return result;
}

/**
 * The same mock slowed down enough that every worker of a multi-worker
 * campaign gets to claim at least one job before the pool drains —
 * the death-injection tests need the doomed worker to reach a claim.
 */
SimResult
slowMockResult(const Job &job)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return identityMockResult(job);
}

std::string
jsonlOf(const std::vector<JobOutcome> &outcomes)
{
    std::ostringstream ss;
    JsonlSink sink(ss);
    for (const JobOutcome &outcome : outcomes)
        sink.consume(outcome);
    return ss.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Write a fresh 3-shard manifest for the small sweep; clears leftover
    worker journals and claims so every test starts cold. */
std::string
freshManifest(const std::string &name, CampaignManifest &manifest,
              double injectFailRate = 0.0, std::uint64_t injectSeed = 0)
{
    manifest = CampaignManifest{};
    manifest.name = name;
    manifest.shards = 3;
    manifest.suite = "gobmk,h264ref";
    manifest.instructions = 1'000;
    manifest.retries = 12;
    manifest.retryBaseMs = 0;
    manifest.injectFailRate = injectFailRate;
    manifest.injectFailSeed = injectSeed;
    for (const Job &job : manifestSpec(manifest).expand())
        manifest.jobKeys.push_back(jobKey(job));

    const std::string path = tempPath(name + ".manifest");
    writeManifest(path, manifest);
    for (unsigned w = 0; w < 8; ++w)
        std::remove(workerJournalPath(path, w).c_str());
    std::remove(claimsPath(path).c_str());
    return path;
}

/** The single-process reference the campaign must byte-match. */
std::vector<JobOutcome>
referenceRun(const CampaignManifest &manifest)
{
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxAttempts = manifest.retries + 1;
    options.backoff.baseMs = 0;
    options.injectFailRate = manifest.injectFailRate;
    options.injectFailSeed = manifest.injectFailSeed;
    options.execute = identityMockResult;
    return ExperimentRunner(options).run(manifestSpec(manifest).expand());
}

TEST(Coordinator, CampaignMatchesSingleProcessByteForByte)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_clean", manifest);

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.total, manifest.jobKeys.size());
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(report.passes, 1u);
    EXPECT_EQ(report.workerDeaths, 0u);
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, RerunningACompleteCampaignResumesNotReruns)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_rerun", manifest);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport first = runCampaign(path, manifest, options);
    ASSERT_EQ(first.missing, 0u);

    // Second invocation: every job is settled in the journals, so no
    // worker executes anything (no new claims appear).
    const CampaignReport second = runCampaign(path, manifest, options);
    EXPECT_EQ(second.ok, second.total);
    EXPECT_EQ(second.stolen, 0u);
    EXPECT_EQ(second.duplicates, 0u);
    EXPECT_EQ(jsonlOf(second.outcomes), jsonlOf(first.outcomes));
}

TEST(Coordinator, MalformedClaimsAreSkipped)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_bad_claim", manifest);
    const std::string claims = claimsPath(path);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    // Each job also appends a claim whose shard is not a number. Claims
    // are advisory: workers and the parent must skip it, not die on it.
    options.execute = [claims](const Job &job) {
        std::ofstream(claims, std::ios::app)
            << "{\"key\":\"bogus\",\"shard\":\"x\",\"worker\":0}\n";
        return identityMockResult(job);
    };
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.workerDeaths, 0u);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, OutOfRangeClaimsAreSkipped)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_wide_claim", manifest);
    const std::string claims = claimsPath(path);

    // One worker, so no thief can race it and every real job is
    // claimed exactly once. Each job also appends a claim whose shard,
    // and one whose worker, is 2^32 + 1: narrowed to 1, the first would
    // be a duplicate and the second a steal from shard 0.
    CoordinatorOptions options;
    options.workers = 1;
    options.progress = false;
    options.execute = [claims](const Job &job) {
        std::ofstream(claims, std::ios::app)
            << "{\"key\":\"wide_shard\",\"shard\":4294967297,"
               "\"worker\":0}\n"
            << "{\"key\":\"wide_worker\",\"shard\":0,"
               "\"worker\":4294967297}\n";
        return identityMockResult(job);
    };
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.duplicates, 0u);
    EXPECT_EQ(report.stolen, 0u);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, WorkerDeathMidJobIsRecoveredInRun)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_death", manifest);
    const std::string marker = tempPath("coord_death.marker");
    std::remove(marker.c_str());

    // Worker 1 kills itself at its first claim — claimed, unjournaled.
    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = slowMockResult;
    options.killWorker = 1;
    options.killAfterJobs = 0;
    options.killOnceMarker = marker;
    const CampaignReport report = runCampaign(path, manifest, options);

    // The death was observed, a recovery pass ran, and the merged
    // result is still complete and byte-identical.
    EXPECT_GE(report.workerDeaths, 1u);
    EXPECT_GE(report.passes, 2u);
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, KilledCampaignResumesOnRestart)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_restart", manifest);
    const std::string marker = tempPath("coord_restart.marker");
    std::remove(marker.c_str());

    // One worker, no recovery passes: the worker dies at its first
    // claim, so the first invocation journals nothing and reports the
    // whole campaign missing — the "coordinator itself was killed"
    // shape.
    CoordinatorOptions doomed;
    doomed.workers = 1;
    doomed.progress = false;
    doomed.maxPasses = 1;
    doomed.execute = identityMockResult;
    doomed.killWorker = 0;
    doomed.killAfterJobs = 0;
    doomed.killOnceMarker = marker;
    const CampaignReport first = runCampaign(path, manifest, doomed);
    EXPECT_GE(first.workerDeaths, 1u);
    EXPECT_GT(first.missing, 0u);

    // Restart: same campaign, no injection (the marker also makes the
    // kill once-only). Journals resume, the rest runs, the merged
    // output byte-matches an uninterrupted run.
    CoordinatorOptions restarted;
    restarted.workers = 3;
    restarted.progress = false;
    restarted.execute = identityMockResult;
    const CampaignReport second = runCampaign(path, manifest, restarted);
    EXPECT_EQ(second.workerDeaths, 0u);
    EXPECT_EQ(second.ok, second.total);
    EXPECT_EQ(second.missing, 0u);
    EXPECT_EQ(jsonlOf(second.outcomes), jsonlOf(referenceRun(manifest)));
}

TEST(Coordinator, TornWorkerJournalsResumeOnRestart)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_torn", manifest);

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = slowMockResult;
    ASSERT_EQ(runCampaign(path, manifest, options).missing, 0u);

    // A kill mid-write tears each worker journal's last record. Tearing
    // every journal means whichever worker re-runs a torn job appends
    // to a torn journal of its own.
    for (unsigned w = 0; w < options.workers; ++w) {
        const std::string journal = workerJournalPath(path, w);
        std::ifstream in(journal);
        std::ostringstream ss;
        ss << in.rdbuf();
        in.close();
        const std::string text = ss.str();
        ASSERT_GT(text.size(), 40u) << journal;
        std::ofstream out(journal, std::ios::trunc);
        out << text.substr(0, text.size() - 40);
    }

    const CampaignReport second = runCampaign(path, manifest, options);
    EXPECT_EQ(second.workerDeaths, 0u);
    EXPECT_EQ(second.ok, second.total);
    EXPECT_EQ(second.missing, 0u);
    EXPECT_EQ(jsonlOf(second.outcomes), jsonlOf(referenceRun(manifest)));
    // The recovered journals load cleanly once more.
    EXPECT_EQ(mergeJournals({workerJournalPath(path, 0),
                             workerJournalPath(path, 1)})
                  .size(),
              second.total);
}

TEST(Coordinator, FaultInjectionComposesWithWorkStealing)
{
    // Injected transient faults retry inside each worker (driven by the
    // manifest's budgets), and the final output still byte-matches a
    // clean single-process run — the retry schedule is identity-keyed,
    // so it lands identically no matter which worker runs the job.
    CampaignManifest manifest;
    const std::string path =
        freshManifest("coord_inject", manifest, 0.3, 7);

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = identityMockResult;
    const CampaignReport report = runCampaign(path, manifest, options);

    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.missing, 0u);

    CampaignManifest clean = manifest;
    clean.injectFailRate = 0.0;
    EXPECT_EQ(jsonlOf(report.outcomes), jsonlOf(referenceRun(clean)));
}

TEST(Coordinator, MismatchedManifestFailsLoudly)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("coord_mismatch", manifest);

    // The manifest on disk was pinned for a different sweep: the
    // coordinator must refuse before forking anything.
    CampaignManifest drifted = manifest;
    drifted.instructions = 9'999;

    CoordinatorOptions options;
    options.workers = 2;
    options.progress = false;
    options.execute = identityMockResult;
    EXPECT_THROW(runCampaign(path, drifted, options), CampaignError);
}

} // namespace
} // namespace dgsim::runner
