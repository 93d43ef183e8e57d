/**
 * @file
 * Tests of the benchmark's own logic: the tail-percentile rule, the
 * failed share under deterministic fault injection, the reference hash
 * catching a changed SimConfig field, and span self times.
 *
 * Run: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.hh"
#include "runner/journal.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dgsim::perfbench
{
namespace
{

TEST(TailRule, EleventhLargestWithItsPercentile)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    const Tail tail = tailOf(values);
    EXPECT_TRUE(tail.valid);
    EXPECT_EQ(tail.samples, 100u);
    EXPECT_DOUBLE_EQ(tail.value, 90.0); // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
}

TEST(TailRule, PercentileFollowsTheSampleCount)
{
    std::vector<double> values;
    for (int i = 1; i <= 400; ++i)
        values.push_back(i);
    const Tail tail = tailOf(values);
    EXPECT_DOUBLE_EQ(tail.value, 390.0);
    EXPECT_DOUBLE_EQ(tail.percentile, 97.5);

    const Tail eleven = tailOf({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11});
    EXPECT_TRUE(eleven.valid);
    EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

TEST(TailRule, TooFewSamplesFallsBackToTheMaximum)
{
    const Tail tail = tailOf({3, 9, 1, 4, 1, 5, 9, 2, 6, 5});
    EXPECT_FALSE(tail.valid);
    EXPECT_DOUBLE_EQ(tail.value, 9.0);
    EXPECT_EQ(tail.samples, 10u);
    EXPECT_EQ(tailOf({}).samples, 0u);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

/** Mock jobs: cheap, deterministic, never fail on their own. */
std::vector<runner::Job>
mockJobs(std::size_t count)
{
    std::vector<runner::Job> jobs(count);
    for (std::size_t i = 0; i < count; ++i) {
        jobs[i].index = i;
        jobs[i].workload = "mock" + std::to_string(i);
        jobs[i].suite = "test";
    }
    return jobs;
}

/** Run @p jobs once each, as the benchmark does, and tally them. */
Tally
tallyUnderInjection(const std::vector<runner::Job> &jobs, double rate,
                    std::set<std::size_t> *failed_indices = nullptr)
{
    runner::RunnerOptions options;
    options.maxAttempts = 1;
    options.injectFailRate = rate;
    options.injectFailSeed = 7;
    options.execute = [](const runner::Job &job) {
        SimResult result;
        result.workload = job.workload;
        result.instructions = 1000;
        return result;
    };
    Tally tally;
    for (const runner::Job &job : jobs) {
        const std::string key = runner::jobKey(job);
        const runner::JobOutcome outcome =
            runner::runSingleJob(job, key, options);
        EXPECT_EQ(outcome.attempts, 1u);
        if (!outcome.ok && failed_indices)
            failed_indices->insert(job.index);
        accountOutcome(outcome, key, nullptr, false, tally);
    }
    return tally;
}

TEST(FailedShare, CountsInjectedFailuresWithOneAttempt)
{
    const std::vector<runner::Job> jobs = mockJobs(200);
    std::set<std::size_t> first, second;
    const Tally tally = tallyUnderInjection(jobs, 0.25, &first);
    EXPECT_EQ(tally.attempted, 200u);
    EXPECT_EQ(tally.failed, first.size());
    EXPECT_DOUBLE_EQ(tally.failedShare(), first.size() / 200.0);
    // About a quarter, and exactly the same jobs on a second run.
    EXPECT_GT(tally.failedShare(), 0.1);
    EXPECT_LT(tally.failedShare(), 0.4);
    tallyUnderInjection(jobs, 0.25, &second);
    EXPECT_EQ(first, second);
}

TEST(FailedShare, EdgesOfTheInjectionRate)
{
    const std::vector<runner::Job> jobs = mockJobs(20);
    EXPECT_DOUBLE_EQ(tallyUnderInjection(jobs, 0.0).failedShare(), 0.0);
    EXPECT_DOUBLE_EQ(tallyUnderInjection(jobs, 1.0).failedShare(), 1.0);
    EXPECT_DOUBLE_EQ(Tally{}.failedShare(), 0.0);
}

/** A small real job: a default-tier workload for a few thousand
 * instructions. */
runner::Job
smallJob()
{
    const workloads::WorkloadDef &workload = workloads::findWorkload("gobmk");
    runner::Job job;
    job.workload = workload.name;
    job.suite = workload.suite;
    job.program = std::make_shared<const Program>(workload.build(0));
    job.config.maxInstructions = 3000;
    job.config.maxCycles = 600'000;
    job.config.warmupInstructions = 1000;
    return job;
}

runner::JobOutcome
runOnce(const runner::Job &job)
{
    runner::RunnerOptions options;
    options.maxAttempts = 1;
    return runner::runSingleJob(job, runner::jobKey(job), options);
}

TEST(Reference, CatchesAChangedSimConfigField)
{
    const runner::Job job = smallJob();
    const std::string key = runner::jobKey(job);
    const runner::JobOutcome outcome = runOnce(job);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    Reference reference;
    reference.set(key, resultHash(outcome));
    EXPECT_EQ(reference.compare(key, resultHash(runOnce(job))),
              RefMatch::Match);

    // DRAM latency is no part of the job key, so only the output hash
    // can tell the two runs apart.
    runner::Job changed = job;
    changed.config.dramLatency += 100;
    ASSERT_EQ(runner::jobKey(changed), key);
    const runner::JobOutcome changed_outcome = runOnce(changed);
    ASSERT_TRUE(changed_outcome.ok) << changed_outcome.error;
    EXPECT_EQ(reference.compare(key, resultHash(changed_outcome)),
              RefMatch::Mismatch);

    Tally tally;
    accountOutcome(outcome, key, &reference, true, tally);
    accountOutcome(changed_outcome, key, &reference, true, tally);
    EXPECT_EQ(tally.attempted, 2u);
    EXPECT_EQ(tally.failed, 1u);
}

TEST(Reference, MissingEntryFailsOnlyWhenRequired)
{
    const runner::Job job = smallJob();
    const runner::JobOutcome outcome = runOnce(job);
    Reference reference;
    Tally optional, required;
    accountOutcome(outcome, "absent", &reference, false, optional);
    accountOutcome(outcome, "absent", &reference, true, required);
    EXPECT_EQ(optional.failed, 0u);
    EXPECT_EQ(required.failed, 1u);
}

TEST(Reference, RoundTripsThroughItsFile)
{
    const std::string path = ::testing::TempDir() + "dgbench_ref.tsv";
    Reference written;
    written.set("a/Unsafe#1", "00000000000000aa");
    written.set("b/STT+AP#2", "00000000000000bb");
    ASSERT_TRUE(written.save(path, "# comment\n"));
    Reference read;
    ASSERT_TRUE(read.load(path));
    EXPECT_EQ(read.size(), 2u);
    EXPECT_EQ(read.compare("b/STT+AP#2", "00000000000000bb"),
              RefMatch::Match);
    EXPECT_FALSE(Reference{}.load(path + ".missing"));
}

TEST(Tracer, SelfTimeExcludesDirectChildren)
{
    Tracer tracer;
    tracer.setJob(3);
    {
        SpanGuard outer(&tracer, "outer");
        {
            SpanGuard inner(&tracer, "inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    { SpanGuard off(nullptr, "ignored"); }
    const std::vector<Span> &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].job, 3u);
    const std::vector<double> self = selfTimesMs(spans);
    EXPECT_DOUBLE_EQ(self[1], spans[1].ms());
    EXPECT_NEAR(self[0], spans[0].ms() - spans[1].ms(), 1e-9);
    EXPECT_GE(self[0], 4.0);
    EXPECT_LT(self[0], spans[1].ms());
}

TEST(HostSpeed, NormalizesToTheNominalSlice)
{
    HostSpeed host;
    const double normalized = host.normalize(100.0);
    ASSERT_EQ(host.slices().size(), 2u);
    const double mean = 0.5 * (host.slices()[0] + host.slices()[1]);
    EXPECT_DOUBLE_EQ(normalized, 100.0 * HostSpeed::kNominalSliceMs / mean);
}

} // namespace
} // namespace dgsim::perfbench
