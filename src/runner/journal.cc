#include "runner/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

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
                             bool sync)
    : path_(path), host_metrics_(host_metrics),
      out_(path, std::ios::app)
{
    if (!out_)
        DGSIM_FATAL("cannot open journal '" + path + "' for appending");
    if (sync) {
        // fsync needs a file descriptor; std::ofstream hides its own,
        // so open a second, write-free handle on the same file —
        // fsync(2) synchronizes the file, not a descriptor's writes.
        syncFd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
        if (syncFd_ < 0)
            DGSIM_FATAL("cannot open journal '" + path + "' for fsync: " +
                        std::strerror(errno));
    }
}

JournalWriter::~JournalWriter()
{
    if (syncFd_ >= 0)
        ::close(syncFd_);
}

void
JournalWriter::record(const std::string &key, const JobOutcome &outcome)
{
    // The wrapper fields ride in front of the standard serialization;
    // outcomeFromJson() ignores them on the way back in.
    std::string line = "{\"key\":\"" + jsonEscape(key) + "\",\"attempts\":" +
                       std::to_string(outcome.attempts) + "," +
                       toJsonLine(outcome, host_metrics_).substr(1) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line;
    // Flush per record: crash tolerance is the whole point. Sweeps are
    // simulation-bound (seconds per job), so the write is noise.
    out_.flush();
    // Opt-in durability against power loss, not just process death.
    if (syncFd_ >= 0 && ::fsync(syncFd_) != 0)
        DGSIM_WARN("fsync of journal '" + path_ + "' failed: " +
                   std::strerror(errno));
}

JournalMap
loadJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);

    JournalMap map;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        JsonValue record;
        try {
            record = JsonParser(lines[i]).parse();
        } catch (const JsonParseError &e) {
            if (i + 1 == lines.size()) {
                DGSIM_WARN("journal '" + path + "': dropping truncated "
                           "final record (" + e.what() + ")");
                break;
            }
            DGSIM_FATAL("journal '" + path + "' line " +
                        std::to_string(i + 1) + " is corrupt: " + e.what());
        }
        try {
            const std::string key = jsonMember(record, "key").str;
            JobOutcome outcome = outcomeFromJson(record);
            outcome.attempts = static_cast<unsigned>(
                std::stoul(jsonMember(record, "attempts").number));
            map[key] = std::move(outcome); // Last record wins.
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("journal '" + path + "' line " +
                        std::to_string(i + 1) + ": " + e.what());
        }
    }
    return map;
}

} // namespace dgsim::runner
