#include "runner/append_log.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dgsim::runner
{
namespace
{

/** The whole file; empty when it is missing. */
std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

AppendLog::AppendLog(const std::string &path, Open mode, bool sync)
    : path_(path), sync_(sync)
{
    fd_ = ::open(path.c_str(),
                 O_WRONLY | O_APPEND | O_CREAT |
                     (mode == Open::Truncate ? O_TRUNC : 0),
                 0644);
    if (fd_ < 0)
        DGSIM_FATAL("cannot open append log '" + path + "': " +
                    std::strerror(errno));
    if (mode == Open::Truncate)
        return;
    // The reader already drops a torn final record; cut it so the next
    // append starts a line of its own instead of completing the torn one.
    const std::string text = readAll(path);
    const std::size_t keep = text.rfind('\n') + 1; // npos + 1 == 0
    if (keep == text.size())
        return;
    DGSIM_WARN("append log '" + path + "': cutting a torn final record (" +
               std::to_string(text.size() - keep) + " byte(s))");
    if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0)
        DGSIM_FATAL("cannot cut append log '" + path + "': " +
                    std::strerror(errno));
}

AppendLog::~AppendLog()
{
    ::close(fd_);
}

int
AppendLog::append(std::string line)
{
    line += '\n';
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        written += static_cast<std::size_t>(n);
    }
    if (sync_ && ::fsync(fd_) != 0)
        return errno;
    return 0;
}

void
loadAppendLog(const std::string &path,
              const std::function<void(const JsonValue &)> &record,
              bool skipMalformed)
{
    const std::string text = readAll(path);
    // (1-based line number, text) of every non-empty line.
    std::vector<std::pair<std::size_t, std::string>> lines;
    std::size_t lineNo = 0;
    for (std::size_t begin = 0; begin < text.size(); ++lineNo) {
        const std::size_t end = std::min(text.find('\n', begin), text.size());
        if (end > begin)
            lines.emplace_back(lineNo + 1, text.substr(begin, end - begin));
        begin = end + 1;
    }

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool final = i + 1 == lines.size();
        try {
            if (final && text.back() != '\n')
                throw JsonParseError("no terminating newline");
            record(JsonParser(lines[i].second).parse());
        } catch (const JsonParseError &e) {
            if (final)
                DGSIM_WARN("append log '" + path +
                           "': dropping torn final record (" + e.what() +
                           ")");
            else if (!skipMalformed)
                DGSIM_FATAL("append log '" + path + "' line " +
                            std::to_string(lines[i].first) +
                            " is corrupt: " + e.what());
        }
    }
}

} // namespace dgsim::runner
