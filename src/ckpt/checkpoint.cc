#include "ckpt/checkpoint.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim::ckpt
{
namespace
{

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

[[noreturn]] void
corrupt(const std::string &origin, const std::string &why)
{
    DGSIM_FATAL("corrupt or truncated checkpoint (" + origin + "): " + why);
}

void
writeCache(std::ostream &os, const char *name, const CacheWarmState &cache)
{
    std::size_t nonempty = 0;
    for (const auto &set : cache.sets)
        nonempty += !set.empty();
    os << "cache " << name << " " << cache.sets.size() << " " << nonempty
       << "\n";
    for (std::size_t set = 0; set < cache.sets.size(); ++set) {
        const auto &lines = cache.sets[set];
        if (lines.empty())
            continue;
        os << "cs " << set << " " << lines.size();
        for (const CacheWarmLine &line : lines)
            os << " " << line.tag << " " << (line.dirty ? 1 : 0);
        os << "\n";
    }
}

/**
 * Line-oriented reader: hands out one whitespace-tokenized line at a
 * time and turns every shortfall into a fatal corruption report.
 */
class Reader
{
  public:
    Reader(const std::string &text, const std::string &origin)
        : in_(text), origin_(origin)
    {
    }

    /** Next line as a token stream; the first token must be @p key. */
    std::istringstream
    line(const char *key)
    {
        std::string text;
        if (!std::getline(in_, text))
            corrupt(origin_, std::string("missing '") + key + "' section");
        std::istringstream tokens(text);
        std::string head;
        tokens >> head;
        if (head != key)
            corrupt(origin_, std::string("expected '") + key + "', got '" +
                                 head + "'");
        return tokens;
    }

    template <typename T>
    T
    value(std::istringstream &tokens, const char *what)
    {
        T out;
        if (!(tokens >> out))
            corrupt(origin_, std::string("bad or missing ") + what);
        return out;
    }

  private:
    std::istringstream in_;
    const std::string &origin_;
};

CacheWarmState
readCache(Reader &reader, const char *name, const std::string &origin)
{
    std::istringstream header = reader.line("cache");
    const std::string got_name = reader.value<std::string>(header, "cache name");
    if (got_name != name)
        corrupt(origin, std::string("expected cache '") + name + "', got '" +
                            got_name + "'");
    const auto num_sets =
        reader.value<std::uint64_t>(header, "cache set count");
    const auto nonempty =
        reader.value<std::uint64_t>(header, "cache nonempty count");
    CacheWarmState cache;
    cache.sets.resize(num_sets);
    for (std::uint64_t i = 0; i < nonempty; ++i) {
        std::istringstream tokens = reader.line("cs");
        const auto set = reader.value<std::uint64_t>(tokens, "set index");
        if (set >= num_sets)
            corrupt(origin, "cache set index out of range");
        const auto count = reader.value<std::uint64_t>(tokens, "line count");
        auto &lines = cache.sets[set];
        lines.reserve(count);
        for (std::uint64_t j = 0; j < count; ++j) {
            CacheWarmLine line;
            line.tag = reader.value<Addr>(tokens, "line tag");
            line.dirty = reader.value<int>(tokens, "dirty flag") != 0;
            lines.push_back(line);
        }
    }
    return cache;
}

} // namespace

std::string
serialize(const Checkpoint &checkpoint)
{
    for (char c : checkpoint.workload)
        DGSIM_ASSERT(!std::isspace(static_cast<unsigned char>(c)),
                     "workload names must not contain whitespace");
    std::ostringstream os;
    os << "dgsim-ckpt " << kCkptFormatVersion << "\n";
    os << "workload " << checkpoint.workload << "\n";
    os << "instret " << checkpoint.instret << "\n";
    os << "pc " << checkpoint.pc << "\n";
    os << "halted " << (checkpoint.halted ? 1 : 0) << "\n";
    os << "regs";
    for (RegValue reg : checkpoint.regs)
        os << " " << reg;
    os << "\n";

    const auto words = checkpoint.memory.words();
    os << "mem " << words.size() << "\n";
    for (const auto &[addr, value] : words)
        os << "m " << addr << " " << value << "\n";

    writeCache(os, "l1", checkpoint.hierarchy.l1);
    writeCache(os, "l2", checkpoint.hierarchy.l2);
    writeCache(os, "l3", checkpoint.hierarchy.l3);

    os << "bp " << checkpoint.branch.counters.size() << " "
       << checkpoint.branch.ghr << " " << checkpoint.branch.btb.size()
       << "\n";
    os << "bpc ";
    for (std::uint8_t counter : checkpoint.branch.counters)
        os << static_cast<char>('0' + counter);
    os << "\n";
    std::size_t btb_valid = 0;
    for (const auto &entry : checkpoint.branch.btb)
        btb_valid += entry.valid;
    os << "btb " << btb_valid << "\n";
    for (std::size_t i = 0; i < checkpoint.branch.btb.size(); ++i) {
        const auto &entry = checkpoint.branch.btb[i];
        if (entry.valid)
            os << "be " << i << " " << entry.pc << " " << entry.target
               << "\n";
    }

    std::size_t stride_valid = 0;
    for (const StrideEntry &entry : checkpoint.stride.entries)
        stride_valid += entry.valid;
    os << "stride " << checkpoint.stride.entries.size() << " "
       << stride_valid << "\n";
    for (std::size_t i = 0; i < checkpoint.stride.entries.size(); ++i) {
        const StrideEntry &entry = checkpoint.stride.entries[i];
        if (entry.valid)
            os << "se " << i << " " << entry.pc << " " << entry.lastAddr
               << " " << entry.stride << " " << entry.confidence << "\n";
    }

    std::string body = os.str();
    body += "digest " + hex16(fnv::hashBytes(body)) + "\n";
    return body;
}

Checkpoint
deserialize(const std::string &text, const std::string &origin)
{
    // Split off the digest line (the last line of a complete file) and
    // verify it before trusting anything else: truncation and bit rot
    // both fail here, loudly.
    const std::size_t digest_pos = text.rfind("digest ");
    if (digest_pos == std::string::npos ||
        (digest_pos != 0 && text[digest_pos - 1] != '\n'))
        corrupt(origin, "missing digest line");
    const std::string body = text.substr(0, digest_pos);
    std::istringstream digest_line(text.substr(digest_pos));
    std::string keyword, recorded;
    digest_line >> keyword >> recorded;
    const std::string computed = hex16(fnv::hashBytes(body));
    if (recorded != computed)
        corrupt(origin, "content digest mismatch (recorded " + recorded +
                            ", computed " + computed + ")");

    Reader reader(body, origin);
    Checkpoint checkpoint;

    std::istringstream magic = reader.line("dgsim-ckpt");
    const auto version = reader.value<unsigned>(magic, "format version");
    if (version != kCkptFormatVersion)
        DGSIM_FATAL("checkpoint (" + origin + ") has format version " +
                    std::to_string(version) + "; this build reads version " +
                    std::to_string(kCkptFormatVersion));

    std::istringstream workload = reader.line("workload");
    checkpoint.workload =
        reader.value<std::string>(workload, "workload name");
    std::istringstream instret = reader.line("instret");
    checkpoint.instret =
        reader.value<std::uint64_t>(instret, "instruction count");
    std::istringstream pc = reader.line("pc");
    checkpoint.pc = reader.value<Addr>(pc, "pc");
    std::istringstream halted = reader.line("halted");
    checkpoint.halted = reader.value<int>(halted, "halt flag") != 0;
    std::istringstream regs = reader.line("regs");
    for (std::size_t i = 0; i < checkpoint.regs.size(); ++i)
        checkpoint.regs[i] = reader.value<RegValue>(regs, "register value");

    std::istringstream mem = reader.line("mem");
    const auto word_count = reader.value<std::uint64_t>(mem, "word count");
    for (std::uint64_t i = 0; i < word_count; ++i) {
        std::istringstream word = reader.line("m");
        const auto addr = reader.value<Addr>(word, "word address");
        const auto value = reader.value<RegValue>(word, "word value");
        checkpoint.memory.write(addr, value);
    }

    checkpoint.hierarchy.l1 = readCache(reader, "l1", origin);
    checkpoint.hierarchy.l2 = readCache(reader, "l2", origin);
    checkpoint.hierarchy.l3 = readCache(reader, "l3", origin);

    std::istringstream bp = reader.line("bp");
    const auto counter_count =
        reader.value<std::uint64_t>(bp, "bp counter count");
    checkpoint.branch.ghr = reader.value<std::uint64_t>(bp, "bp history");
    const auto btb_size = reader.value<std::uint64_t>(bp, "btb size");
    std::istringstream bpc = reader.line("bpc");
    std::string digits;
    bpc >> digits; // legitimately empty for a zero-sized table
    if (digits.size() != counter_count)
        corrupt(origin, "bp counter table length mismatch");
    checkpoint.branch.counters.reserve(counter_count);
    for (char digit : digits) {
        if (digit < '0' || digit > '3')
            corrupt(origin, "bp counter out of range");
        checkpoint.branch.counters.push_back(
            static_cast<std::uint8_t>(digit - '0'));
    }
    checkpoint.branch.btb.resize(btb_size);
    std::istringstream btb = reader.line("btb");
    const auto btb_valid = reader.value<std::uint64_t>(btb, "btb count");
    for (std::uint64_t i = 0; i < btb_valid; ++i) {
        std::istringstream entry = reader.line("be");
        const auto index = reader.value<std::uint64_t>(entry, "btb index");
        if (index >= btb_size)
            corrupt(origin, "btb index out of range");
        checkpoint.branch.btb[index].pc =
            reader.value<Addr>(entry, "btb pc");
        checkpoint.branch.btb[index].target =
            reader.value<Addr>(entry, "btb target");
        checkpoint.branch.btb[index].valid = true;
    }

    std::istringstream stride = reader.line("stride");
    const auto entry_count =
        reader.value<std::uint64_t>(stride, "stride entry count");
    const auto stride_valid =
        reader.value<std::uint64_t>(stride, "stride valid count");
    checkpoint.stride.entries.resize(entry_count);
    for (std::uint64_t i = 0; i < stride_valid; ++i) {
        std::istringstream entry = reader.line("se");
        const auto index = reader.value<std::uint64_t>(entry, "stride index");
        if (index >= entry_count)
            corrupt(origin, "stride index out of range");
        StrideEntry &out = checkpoint.stride.entries[index];
        out.pc = reader.value<Addr>(entry, "stride pc");
        out.lastAddr = reader.value<Addr>(entry, "stride lastAddr");
        out.stride = reader.value<std::int64_t>(entry, "stride value");
        out.confidence = reader.value<unsigned>(entry, "stride confidence");
        out.valid = true;
    }

    return checkpoint;
}

void
saveCheckpoint(const Checkpoint &checkpoint, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        DGSIM_FATAL("cannot open checkpoint '" + path + "' for writing");
    out << serialize(checkpoint);
    out.flush();
    if (!out)
        DGSIM_FATAL("I/O error writing checkpoint '" + path + "'");
}

Checkpoint
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        DGSIM_FATAL("cannot open checkpoint '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return deserialize(buffer.str(), path);
}

} // namespace dgsim::ckpt
