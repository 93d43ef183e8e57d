/**
 * @file
 * The wire rules of every JSON record dgsim writes or reads: result
 * lines, journal records, campaign manifests, claims, telemetry events,
 * the merged trace and fuzz findings. The subset is objects of strings,
 * numbers (kept as raw text so uint64 values survive untruncated),
 * booleans, arrays and nested objects. JsonWriter is the one writer and
 * memberU64()/memberDouble() the one checked number reader, so the
 * records cannot drift apart.
 *
 * The parser reports malformed input by throwing JsonParseError rather
 * than calling DGSIM_FATAL: the sink readers convert it to a fatal
 * (malformed results are unrecoverable), while the journal reader
 * *recovers* from a truncated final line — the expected artifact of a
 * killed sweep.
 */

#ifndef DGSIM_RUNNER_JSON_HH
#define DGSIM_RUNNER_JSON_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dgsim::runner
{

/** Malformed JSON (or a missing member lookup). */
class JsonParseError : public std::runtime_error
{
  public:
    explicit JsonParseError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One parsed value of the runner's JSON subset. */
struct JsonValue
{
    enum class Kind { Boolean, Number, String, Object, Array };

    Kind kind = Kind::Boolean;
    bool boolean = false;
    std::string number; ///< Raw text, e.g. "18446744073709551615".
    std::string str;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
};

/** Single-line (well, single-string) parser for the subset above. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the full string; throws JsonParseError on malformed input. */
    JsonValue parse();

  private:
    [[noreturn]] void fail(const std::string &why);
    void skipWs();
    char peek();
    void expect(char c);
    JsonValue parseValue();
    JsonValue parseObject();
    JsonValue parseArray();
    JsonValue parseString();
    JsonValue parseBoolean();
    JsonValue parseNumber();

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Escape @p raw for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &raw);

/** Member lookup; throws JsonParseError when @p name is absent. */
const JsonValue &jsonMember(const JsonValue &object, const char *name);

/**
 * The writer's double text: %.17g, the shortest text strtod restores
 * bit-exactly, or "NaN", "Infinity" and "-Infinity" for the non-finite
 * values %g would print as bare `nan`/`inf`.
 */
std::string doubleText(double value);

/**
 * Builds one JSON object member by member, in call order. Names and
 * string values are always escaped, a u64 is decimal, and a double is
 * doubleText() — quoted when non-finite, since JSON has no literal for
 * NaN or Infinity.
 */
class JsonWriter
{
  public:
    JsonWriter &string(const std::string &name, const std::string &value);
    JsonWriter &u64(const std::string &name, std::uint64_t value);
    JsonWriter &number(const std::string &name, double value);
    JsonWriter &boolean(const std::string &name, bool value);
    JsonWriter &object(const std::string &name, const JsonWriter &value)
    {
        return raw(name, value.str());
    }
    /** A member whose value is already-rendered JSON (an array). */
    JsonWriter &raw(const std::string &name, const std::string &json);

    /** The finished object, "{}" when no member was written. */
    std::string str() const { return text_.empty() ? "{}" : text_ + "}"; }

  private:
    /** Start member @p name; the caller appends its value. */
    std::string &key(const std::string &name);

    std::string text_; ///< "{" and the members so far; no closing brace.
};

/**
 * Decimal digits as a u64. Anything else — empty text, a sign,
 * whitespace, trailing characters, overflow — throws
 * JsonParseError("bad integer for NAME: 'TEXT'").
 */
std::uint64_t parseU64(const std::string &text, const std::string &name);

/**
 * A double in doubleText() form; subnormals (which strtod flags with
 * ERANGE) are valid. Whitespace, a '+' prefix, trailing characters and
 * overflow throw JsonParseError("bad number for NAME: 'TEXT'").
 */
double parseDouble(const std::string &text, const std::string &name);

/** A u64 member: a bare JSON number; a quoted one is bad. Throws
 * JsonParseError when @p name is absent or malformed. */
std::uint64_t memberU64(const JsonValue &object, const char *name);

/** memberU64() narrowed to unsigned (counts, shard and worker ids).
 * A value above UINT_MAX throws JsonParseError("bad integer for NAME")
 * instead of wrapping. */
unsigned memberUnsigned(const JsonValue &object, const char *name);

/** A double member: a JSON number, or a quoted non-finite token. */
double memberDouble(const JsonValue &object, const char *name);

/** memberU64() of an already looked-up value named @p name. */
std::uint64_t asU64(const JsonValue &value, const std::string &name);

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_JSON_HH
