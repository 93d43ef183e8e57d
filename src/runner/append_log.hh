/**
 * @file
 * The one append-only line log behind the completion journal, the
 * campaign claims file and the telemetry event part files (DESIGN.md
 * §5b). A record is one JSON object on one line, and it exists once its
 * '\n' does.
 */

#ifndef DGSIM_RUNNER_APPEND_LOG_HH
#define DGSIM_RUNNER_APPEND_LOG_HH

#include <functional>
#include <string>

#include "runner/json.hh"

namespace dgsim::runner
{

/**
 * Writer: one O_APPEND descriptor, one write(2) of `line + '\n'` per
 * record, so appenders sharing the file (threads, or processes forked
 * after the open) never interleave and a kill tears at most one record.
 */
class AppendLog
{
  public:
    enum class Open
    {
        Truncate, ///< Start empty.
        /** Keep the complete records: an unterminated tail is cut back
            to the last '\n' first, so nothing is glued onto a torn
            record. Only the log's one writer process may open it so. */
        Append,
    };

    /** Open (creating) @p path; fatal when that fails. With @p sync
     * every append is also fsync'd (survives power loss, not just a
     * kill). */
    AppendLog(const std::string &path, Open mode, bool sync = false);
    ~AppendLog();

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /** Append one record (@p line holds no '\n'). Returns 0, or the
     * errno of the failed write or fsync. */
    int append(std::string line);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_;
    bool sync_;
};

/**
 * Reader: hand every record of the log at @p path to @p record, in file
 * order. Empty lines are skipped and a missing file has no records. A
 * line is malformed when it is not JSON or @p record throws
 * JsonParseError. A malformed or unterminated final line is dropped
 * with a warning (a killed writer's torn record); a malformed interior
 * line is fatal, or skipped with @p skipMalformed (for advisory logs
 * with several live writers).
 */
void loadAppendLog(const std::string &path,
                   const std::function<void(const JsonValue &)> &record,
                   bool skipMalformed = false);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_APPEND_LOG_HH
