/**
 * @file
 * Fleet-telemetry tests: every emitted artifact (trace-event part
 * files, the merged trace document) round-trips through the strict
 * runner JSON parser; a real forked multi-worker campaign produces one
 * merged trace with a track per worker pid; a killed worker's
 * truncated part-file tail is tolerated exactly like a truncated
 * journal line; and results stay byte-identical, journals
 * record-identical, with telemetry on — observability must never
 * perturb the data.
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
#include "runner/json.hh"
#include "runner/result_sink.hh"
#include "runner/sweep.hh"
#include "telemetry/report.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"

namespace dgsim
{
namespace
{

using runner::CampaignManifest;
using runner::CampaignReport;
using runner::CoordinatorOptions;
using runner::ExperimentRunner;
using runner::Job;
using runner::JobOutcome;
using runner::JournalMap;
using runner::JournalWriter;
using runner::JsonParseError;
using runner::JsonParser;
using runner::JsonValue;
using runner::JsonlSink;
using runner::RunnerOptions;
using runner::claimsPath;
using runner::jobKey;
using runner::jsonMember;
using runner::loadJournal;
using runner::manifestSpec;
using runner::runCampaign;
using runner::toJsonLine;
using runner::workerJournalPath;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Identity-keyed mock (the coordinator_test idiom). */
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

/** Slowed so workers live long enough to show up as trace tracks. */
SimResult
slowMockResult(const Job &job)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
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
freshManifest(const std::string &name, CampaignManifest &manifest)
{
    manifest = CampaignManifest{};
    manifest.name = name;
    manifest.shards = 3;
    manifest.suite = "gobmk,h264ref";
    manifest.instructions = 1'000;
    manifest.retries = 12;
    manifest.retryBaseMs = 0;
    for (const Job &job : manifestSpec(manifest).expand())
        manifest.jobKeys.push_back(jobKey(job));

    const std::string path = tempPath(name + ".manifest");
    writeManifest(path, manifest);
    for (unsigned w = 0; w < 8; ++w)
        std::remove(workerJournalPath(path, w).c_str());
    std::remove(claimsPath(path).c_str());
    return path;
}

/**
 * Every telemetry-enabling test runs through this fixture so a failed
 * assertion can never leave the process-global state enabled for the
 * next test (enable() is deliberately fatal when nested).
 */
class Telemetry : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        telemetry::finalizeTrace();
        telemetry::shutdown();
    }

    /** Enable tracing into TempDir and remember the trace path. */
    void
    enableTrace(const std::string &name)
    {
        tracePath_ = tempPath(name);
        std::remove(tracePath_.c_str());
        telemetry::enable(tracePath_);
    }

    std::string tracePath_;
};

// --- The strict JSON parser's array extension --------------------------

TEST(TelemetryJson, ParsesArraysAndMultilineDocuments)
{
    const std::string text = "{\n  \"traceEvents\": [\r\n"
                             "    {\"a\": 1},\n    {\"a\": [true, \"x\"]}\n"
                             "  ],\n  \"n\": 2\n}\n";
    const JsonValue document = JsonParser(text).parse();
    const JsonValue &list = jsonMember(document, "traceEvents");
    ASSERT_EQ(list.kind, JsonValue::Kind::Array);
    ASSERT_EQ(list.array.size(), 2u);
    EXPECT_EQ(jsonMember(list.array[0], "a").number, "1");
    const JsonValue &nested = jsonMember(list.array[1], "a");
    ASSERT_EQ(nested.kind, JsonValue::Kind::Array);
    ASSERT_EQ(nested.array.size(), 2u);
    EXPECT_TRUE(nested.array[0].boolean);
    EXPECT_EQ(nested.array[1].str, "x");

    const JsonValue empty = JsonParser("[]").parse();
    EXPECT_EQ(empty.kind, JsonValue::Kind::Array);
    EXPECT_TRUE(empty.array.empty());

    EXPECT_THROW(JsonParser("[1,]").parse(), JsonParseError);
    EXPECT_THROW(JsonParser("[1 2]").parse(), JsonParseError);
    EXPECT_THROW(JsonParser("[").parse(), JsonParseError);
}

// --- Span round-trip through the strict parser -------------------------

TEST_F(Telemetry, SpansRoundTripThroughStrictParser)
{
    enableTrace("telemetry_roundtrip.json");
    {
        telemetry::ScopedSpan outer("campaign", "campaign");
        outer.arg("manifest", "m \"quoted\" \\ path");
        telemetry::ScopedSpan inner("job", "job");
        inner.arg("attempts", std::uint64_t{3});
    }
    ASSERT_EQ(telemetry::finalizeTrace(), tracePath_);

    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(tracePath_);
    EXPECT_EQ(telemetry::validateTraceEvents(events), "");

    std::set<std::string> names;
    for (const telemetry::TraceEvent &event : events)
        names.insert(event.name);
    EXPECT_TRUE(names.count("process_name"));
    EXPECT_TRUE(names.count("campaign"));
    EXPECT_TRUE(names.count("job"));
    for (const telemetry::TraceEvent &event : events) {
        if (event.name == "campaign") {
            EXPECT_EQ(event.args.at("manifest"), "m \"quoted\" \\ path");
        } else if (event.name == "job") {
            EXPECT_EQ(event.args.at("attempts"), "3");
        }
    }
}

TEST_F(Telemetry, NullNameSpanAndDisabledSpanEmitNothing)
{
    // Disabled: no state, nothing to write anywhere.
    {
        telemetry::ScopedSpan span("job", "job");
        span.arg("key", "k");
    }
    EXPECT_FALSE(telemetry::enabled());

    enableTrace("telemetry_nullname.json");
    {
        telemetry::ScopedSpan inert(nullptr, "phase");
        inert.arg("ignored", std::uint64_t{1});
        telemetry::ScopedSpan real("expand", "phase");
    }
    telemetry::finalizeTrace();
    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(tracePath_);
    std::size_t spans = 0;
    for (const telemetry::TraceEvent &event : events)
        spans += event.ph == "X";
    EXPECT_EQ(spans, 1u);
}

// --- Tolerant part-file loading (the journal-loader contract) ----------

TEST(TelemetryTrace, TruncatedFinalLineIsDroppedInteriorIsFatal)
{
    const std::string good =
        "{\"name\":\"job\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":1,"
        "\"dur\":2,\"pid\":10,\"tid\":1,\"args\":{}}\n";

    const std::string tail = tempPath("telemetry_tail.events");
    {
        std::ofstream out(tail, std::ios::trunc);
        out << good << good << "{\"name\":\"job\",\"cat\":\"j";
    }
    EXPECT_EQ(telemetry::loadTraceEvents(tail).size(), 2u);

    const std::string interior = tempPath("telemetry_interior.events");
    {
        std::ofstream out(interior, std::ios::trunc);
        out << good << "{\"name\":\"job\",\"cat\":\"j\n" << good;
    }
    EXPECT_DEATH(telemetry::loadTraceEvents(interior), "corrupt");

    EXPECT_TRUE(telemetry::loadTraceEvents(tempPath("telemetry_no.events"))
                    .empty());
}

TEST(TelemetryTrace, MergeSortsByTimestampAndEmitsStrictJson)
{
    const std::string a = tempPath("telemetry_merge_a.events");
    const std::string b = tempPath("telemetry_merge_b.events");
    {
        std::ofstream out(a, std::ios::trunc);
        out << "{\"name\":\"late\",\"cat\":\"phase\",\"ph\":\"X\","
               "\"ts\":30,\"dur\":1,\"pid\":1,\"tid\":1,\"args\":{}}\n";
    }
    {
        std::ofstream out(b, std::ios::trunc);
        out << "{\"name\":\"early\",\"cat\":\"phase\",\"ph\":\"X\","
               "\"ts\":10,\"dur\":1,\"pid\":2,\"tid\":1,\"args\":{}}\n"
            << "{\"name\":\"torn\",\"cat\":\"pha"; // killed mid-write
    }
    const std::string merged = tempPath("telemetry_merge_out.json");
    EXPECT_EQ(telemetry::mergeTraceFiles({a, b, "missing.events"}, merged),
              2u);

    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(merged);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "early");
    EXPECT_EQ(events[1].name, "late");
    EXPECT_EQ(telemetry::validateTraceEvents(events), "");
}

// --- The real thing: a forked multi-worker campaign --------------------

TEST_F(Telemetry, ForkCampaignProducesOneMergedTraceWithWorkerTracks)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("telemetry_camp", manifest);
    enableTrace("telemetry_camp.trace.json");

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = slowMockResult;
    CampaignReport report;
    {
        telemetry::ScopedSpan span("campaign", "campaign");
        report = runCampaign(path, manifest, options);
    }
    ASSERT_EQ(report.ok, report.total);

    telemetry::finalizeTrace();
    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(tracePath_);
    EXPECT_EQ(telemetry::validateTraceEvents(events), "");

    // One named track per worker process, plus the parent's.
    std::set<std::uint64_t> workerPids;
    std::uint64_t campaignUs = 0;
    std::map<std::uint64_t, std::uint64_t> workerSpanUs;
    std::size_t jobSpans = 0;
    for (const telemetry::TraceEvent &event : events) {
        if (event.ph == "M" &&
            event.args.at("name").rfind("worker", 0) == 0)
            workerPids.insert(event.pid);
        if (event.name == "campaign")
            campaignUs = std::max(campaignUs, event.dur);
        if (event.name == "worker")
            workerSpanUs[event.pid] += event.dur;
        jobSpans += event.name == "job";
    }
    EXPECT_EQ(workerPids.size(), 3u);
    EXPECT_EQ(jobSpans, report.total);
    ASSERT_GT(campaignUs, 0u);
    ASSERT_EQ(workerSpanUs.size(), 3u);
    // Worker spans must cover the campaign span's wall-clock; the
    // slack is fork/expand/reap overhead, bounded well below half of
    // even this tiny campaign (jobs are 15ms each).
    for (const auto &entry : workerSpanUs) {
        EXPECT_TRUE(workerPids.count(entry.first));
        EXPECT_GT(static_cast<double>(entry.second),
                  0.5 * static_cast<double>(campaignUs));
    }

    // The report joins journals + trace into the straggler view.
    telemetry::ReportInputs inputs;
    for (unsigned w = 0; w < 3; ++w)
        inputs.journalPaths.push_back(workerJournalPath(path, w));
    inputs.tracePath = tracePath_;
    const std::string text = telemetry::buildCampaignReport(inputs);
    EXPECT_NE(text.find("== campaign report =="), std::string::npos);
    EXPECT_NE(text.find("pass timeline:"), std::string::npos);
    EXPECT_NE(text.find("worker 0"), std::string::npos);
    EXPECT_NE(text.find("worker 2"), std::string::npos);
}

TEST_F(Telemetry, KilledWorkerLeavesALoadableTrace)
{
    CampaignManifest manifest;
    const std::string path = freshManifest("telemetry_kill", manifest);
    const std::string marker = tempPath("telemetry_kill.marker");
    std::remove(marker.c_str());
    enableTrace("telemetry_kill.trace.json");

    CoordinatorOptions options;
    options.workers = 3;
    options.progress = false;
    options.execute = slowMockResult;
    options.killWorker = 1;
    options.killAfterJobs = 0;
    options.killOnceMarker = marker;
    CampaignReport report;
    {
        telemetry::ScopedSpan span("campaign", "campaign");
        report = runCampaign(path, manifest, options);
    }
    ASSERT_GE(report.workerDeaths, 1u);
    ASSERT_GE(report.passes, 2u);
    ASSERT_EQ(report.ok, report.total);

    // Simulate the _exit(9) landing mid-write(2) as well: a torn final
    // line in the dead worker's part file must merge like a torn
    // journal line — dropped with a warning, never fatal.
    {
        std::ofstream out(tracePath_ + ".w1.events", std::ios::app);
        out << "{\"name\":\"job\",\"cat\":\"jo";
    }

    telemetry::finalizeTrace();
    const std::vector<telemetry::TraceEvent> events =
        telemetry::loadMergedTrace(tracePath_);
    EXPECT_EQ(telemetry::validateTraceEvents(events), "");

    // The recovery pass shows up in the merged trace.
    bool recoveryPass = false;
    for (const telemetry::TraceEvent &event : events)
        recoveryPass |= event.name == "pass" && event.cat == "recovery";
    EXPECT_TRUE(recoveryPass);
}

// --- Telemetry must never perturb results ------------------------------

TEST_F(Telemetry, ResultsByteIdenticalAndJournalRecordsEqualWithTelemetryOn)
{
    CampaignManifest manifest;
    manifest.shards = 1;
    manifest.suite = "gobmk";
    manifest.instructions = 1'000;
    const std::vector<Job> jobs = manifestSpec(manifest).expand();

    auto journalRun = [&](const std::string &journal) {
        std::remove(journal.c_str());
        RunnerOptions options;
        options.threads = 2;
        options.progress = false;
        options.execute = identityMockResult;
        options.journalPath = journal;
        return ExperimentRunner(options).run(jobs);
    };

    const std::string offJournal = tempPath("telemetry_off.journal");
    const std::vector<JobOutcome> off = journalRun(offJournal);

    enableTrace("telemetry_identity.trace.json");
    const std::string onJournal = tempPath("telemetry_on.journal");
    const std::vector<JobOutcome> on = journalRun(onJournal);

    EXPECT_EQ(jsonlOf(off), jsonlOf(on));

    // Journal lines land in completion order, which two runner threads
    // decide; the records themselves must match key for key.
    const JournalMap offRecords = loadJournal(offJournal);
    const JournalMap onRecords = loadJournal(onJournal);
    ASSERT_EQ(offRecords.size(), jobs.size());
    ASSERT_EQ(onRecords.size(), jobs.size());
    for (const auto &[key, record] : offRecords) {
        const auto it = onRecords.find(key);
        ASSERT_NE(it, onRecords.end()) << key;
        EXPECT_EQ(toJsonLine(record, /*host_metrics=*/true),
                  toJsonLine(it->second, /*host_metrics=*/true))
            << key;
    }
}

// --- The --report aggregation ------------------------------------------

TEST(TelemetryReport, PercentilesPerWorkloadAndRetryStorms)
{
    const std::string journal = tempPath("telemetry_report.journal");
    std::remove(journal.c_str());
    {
        JournalWriter writer(journal, /*host_metrics=*/true,
                             /*sync=*/false);
        for (int i = 0; i < 4; ++i) {
            JobOutcome outcome;
            outcome.workload = i < 2 ? "alpha" : "beta";
            outcome.suite = "suite";
            outcome.configLabel = "Unsafe";
            outcome.ok = true;
            outcome.attempts = i == 3 ? 5 : 1;
            outcome.result.hostSeconds = 0.5 + 0.25 * i;
            writer.record("job-" + std::to_string(i), outcome);
        }
    }

    telemetry::ReportInputs inputs;
    inputs.journalPaths = {journal};
    const std::string text = telemetry::buildCampaignReport(inputs);
    EXPECT_NE(text.find("4 record(s): 4 ok, 0 failed; 1 retried"),
              std::string::npos);
    EXPECT_NE(text.find("p50"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
    EXPECT_NE(text.find("job-3"), std::string::npos);
    EXPECT_NE(text.find("5 attempt(s)"), std::string::npos);
    // No trace was given: the trace sections must simply be absent,
    // not fail the report.
    EXPECT_EQ(text.find("telemetry trace:"), std::string::npos);
}

// --- The runner heartbeat extension ------------------------------------

TEST(TelemetryHeartbeat, CarriesRetryCount)
{
    CampaignManifest manifest;
    manifest.shards = 1;
    manifest.suite = "gobmk,h264ref";
    manifest.instructions = 1'000;
    const std::vector<Job> jobs = manifestSpec(manifest).expand();

    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.execute = slowMockResult;
    options.heartbeatSec = 0.02;
    options.heartbeatStream = stream;
    ExperimentRunner(options).run(jobs);

    std::rewind(stream);
    std::string text;
    char buffer[256];
    while (std::fgets(buffer, sizeof(buffer), stream))
        text += buffer;
    std::fclose(stream);

    std::size_t done = 0, total = 0;
    ASSERT_NE(text.find("[runner] heartbeat"), std::string::npos);
    ASSERT_EQ(std::sscanf(text.c_str(), "[runner] heartbeat %zu/%zu",
                          &done, &total),
              2);
    EXPECT_EQ(total, jobs.size());
    EXPECT_NE(text.find("retried\n"), std::string::npos);
}

} // namespace
} // namespace dgsim
