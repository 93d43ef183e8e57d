#include "runner/journal.hh"

#include <cstdio>
#include <cstring>

#include "common/hash.hh"
#include "common/log.hh"
#include "runner/result_sink.hh"

namespace dgsim::runner
{
namespace
{

void
fnv1a(std::uint64_t &hash, const std::string &text)
{
    // Hash the terminator too so {"ab","c"} != {"a","bc"}.
    fnv::mixBytes(hash, text.c_str(), text.size() + 1);
}

void
fnv1a(std::uint64_t &hash, std::uint64_t value)
{
    fnv::mixLe64(hash, value);
}

} // namespace

std::string
jobKey(const Job &job)
{
    std::uint64_t hash = fnv::kOffset;
    fnv1a(hash, job.suite);
    fnv1a(hash, job.workload);
    fnv1a(hash, job.config.label());
    if (job.kind == JobKind::FuzzCandidate) {
        // A fuzz job's identity is its candidate: two integers that the
        // synthesizer expands deterministically. Different seeds (or a
        // key/workload mismatch) must never satisfy each other's
        // journal records.
        fnv1a(hash, std::string("fuzz-candidate"));
        fnv1a(hash, job.fuzzKey);
        fnv1a(hash, job.fuzzSeed);
    }
    fnv1a(hash, job.config.maxInstructions);
    fnv1a(hash, job.config.maxCycles);
    fnv1a(hash, job.config.warmupInstructions);
    // Sampled-simulation shape: a resumed/sampled sweep must never be
    // satisfied by a journal record from a differently-shaped run.
    fnv1a(hash, job.config.ffwdInstructions);
    fnv1a(hash, job.config.sampleInterval);
    fnv1a(hash, job.config.sampleDetail);
    fnv1a(hash, job.config.ckptSavePath);
    fnv1a(hash, job.config.ckptSaveInst);
    fnv1a(hash, job.config.ckptRestorePath);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return job.workload + "/" + job.config.label() + "#" + hex;
}

JournalWriter::JournalWriter(const std::string &path, bool host_metrics,
                             bool sync, AppendLog::Open mode)
    : log_(path, mode, sync), host_metrics_(host_metrics)
{
}

void
JournalWriter::record(const std::string &key, const JobOutcome &outcome)
{
    // The wrapper fields ride in front of the standard serialization;
    // outcomeFromJson() ignores them on the way back in.
    JsonWriter line;
    line.string("key", key).u64("attempts", outcome.attempts);
    writeOutcome(line, outcome, host_metrics_);
    const int err = log_.append(line.str());
    if (err != 0)
        DGSIM_FATAL("journal '" + log_.path() + "' write failed: " +
                    std::strerror(err));
}

JournalMap
loadJournal(const std::string &path)
{
    JournalMap map;
    loadAppendLog(path, [&map](const JsonValue &record) {
        const std::string key = jsonMember(record, "key").str;
        JobOutcome outcome = outcomeFromJson(record);
        outcome.attempts = memberUnsigned(record, "attempts");
        map[key] = std::move(outcome); // Last record wins.
    });
    return map;
}

} // namespace dgsim::runner
