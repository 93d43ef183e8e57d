/**
 * @file
 * The AppendLog contract shared by the completion journal, the campaign
 * claims file and the telemetry event part files: a torn tail is
 * dropped by the reader and cut by the next Append-mode writer, so
 * appending after a kill never glues a record onto the fragment;
 * interior corruption stays fatal; Truncate starts empty; a synced log
 * round-trips; and appenders in forked processes never interleave.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/append_log.hh"
#include "runner/json.hh"

namespace dgsim::runner
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
record(unsigned n)
{
    return "{\"n\":" + std::to_string(n) + "}";
}

/** Every record's "n", in file order. */
std::vector<unsigned>
loadNumbers(const std::string &path, bool skipMalformed = false)
{
    std::vector<unsigned> numbers;
    loadAppendLog(
        path,
        [&numbers](const JsonValue &value) {
            numbers.push_back(static_cast<unsigned>(
                std::stoul(jsonMember(value, "n").number)));
        },
        skipMalformed);
    return numbers;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(AppendLog, TornTailIsCutBeforeTheNextAppend)
{
    const std::string path = tempPath("append_log_torn.jsonl");
    {
        AppendLog log(path, AppendLog::Open::Truncate);
        for (unsigned n = 0; n < 3; ++n)
            ASSERT_EQ(log.append(record(n)), 0);
    }
    // A kill mid-write: the third record is cut mid-line.
    const std::string full = slurp(path);
    writeFile(path, full.substr(0, full.size() - 4));
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{0, 1}));

    {
        AppendLog log(path, AppendLog::Open::Append);
        ASSERT_EQ(log.append(record(7)), 0);
    }
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{0, 1, 7}));
    EXPECT_EQ(slurp(path), record(0) + "\n" + record(1) + "\n" +
                               record(7) + "\n");

    // A complete record whose '\n' never landed is torn too: the reader
    // and the writer agree a record exists once its newline does.
    writeFile(path, record(0) + "\n" + record(1));
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{0}));
    {
        AppendLog log(path, AppendLog::Open::Append);
        ASSERT_EQ(log.append(record(2)), 0);
    }
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{0, 2}));

    // A file with no complete record at all is cut to empty.
    writeFile(path, "{\"n\":");
    {
        AppendLog log(path, AppendLog::Open::Append);
        ASSERT_EQ(log.append(record(5)), 0);
    }
    EXPECT_EQ(slurp(path), record(5) + "\n");
}

TEST(AppendLog, InteriorCorruptionIsFatalUnlessSkipped)
{
    const std::string path = tempPath("append_log_interior.jsonl");
    writeFile(path, record(0) + "\n{\"n\":\n\n" + record(2) + "\n");
    EXPECT_DEATH(loadNumbers(path), "line 2 is corrupt");
    EXPECT_EQ(loadNumbers(path, /*skipMalformed=*/true),
              (std::vector<unsigned>{0, 2}));

    // A record the caller's parser rejects is malformed as well.
    writeFile(path, record(0) + "\n{\"m\":1}\n" + record(2) + "\n");
    EXPECT_DEATH(loadNumbers(path), "corrupt");
    writeFile(path, record(0) + "\n{\"m\":1}\n");
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{0}));
}

TEST(AppendLog, MissingFileHasNoRecords)
{
    EXPECT_TRUE(loadNumbers(tempPath("append_log_missing.jsonl")).empty());
}

TEST(AppendLog, TruncateModeEmptiesTheFile)
{
    const std::string path = tempPath("append_log_trunc.jsonl");
    writeFile(path, record(0) + "\n" + record(1) + "\n{\"n\":");
    {
        AppendLog log(path, AppendLog::Open::Truncate);
        EXPECT_EQ(slurp(path), "");
        ASSERT_EQ(log.append(record(9)), 0);
    }
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{9}));

    // Append mode keeps complete records.
    {
        AppendLog log(path, AppendLog::Open::Append);
        ASSERT_EQ(log.append(record(10)), 0);
    }
    EXPECT_EQ(loadNumbers(path), (std::vector<unsigned>{9, 10}));
}

TEST(AppendLog, SyncedLogRoundTrips)
{
    const std::string path = tempPath("append_log_sync.jsonl");
    std::vector<unsigned> expected;
    {
        AppendLog log(path, AppendLog::Open::Truncate, /*sync=*/true);
        for (unsigned n = 0; n < 16; ++n) {
            ASSERT_EQ(log.append(record(n)), 0);
            expected.push_back(n);
        }
    }
    EXPECT_EQ(loadNumbers(path), expected);
}

TEST(AppendLog, ForkedAppendersNeverInterleave)
{
    // The claims pattern: one log opened in the parent, inherited by
    // every forked writer. Records vary in length so an interleaved
    // write would corrupt a line rather than pass by luck.
    const std::string path = tempPath("append_log_forked.jsonl");
    constexpr unsigned kWriters = 4;
    constexpr unsigned kRecords = 300;
    AppendLog log(path, AppendLog::Open::Truncate);
    std::vector<pid_t> pids;
    for (unsigned w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            for (unsigned i = 0; i < kRecords; ++i) {
                const std::string pad(i % 97, 'x');
                if (log.append("{\"w\":" + std::to_string(w) +
                               ",\"i\":" + std::to_string(i) +
                               ",\"pad\":\"" + pad + "\"}") != 0)
                    _exit(1);
            }
            _exit(0);
        }
        pids.push_back(pid);
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    std::map<unsigned, std::vector<unsigned>> perWriter;
    loadAppendLog(path, [&perWriter](const JsonValue &value) {
        const unsigned i = static_cast<unsigned>(
            std::stoul(jsonMember(value, "i").number));
        EXPECT_EQ(jsonMember(value, "pad").str, std::string(i % 97, 'x'));
        perWriter[static_cast<unsigned>(
                      std::stoul(jsonMember(value, "w").number))]
            .push_back(i);
    });
    ASSERT_EQ(perWriter.size(), kWriters);
    for (const auto &entry : perWriter) {
        ASSERT_EQ(entry.second.size(), kRecords);
        // Each writer's own records land in its program order.
        for (unsigned i = 0; i < kRecords; ++i)
            EXPECT_EQ(entry.second[i], i);
    }
}

} // namespace
} // namespace dgsim::runner
