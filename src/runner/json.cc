#include "runner/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dgsim::runner
{
namespace
{

/** A malformed value as an error message quotes it. */
std::string
shown(const JsonValue &value)
{
    return value.kind == JsonValue::Kind::String ? "\"" + value.str + "\""
                                                 : value.number;
}

} // namespace

JsonValue
JsonParser::parse()
{
    JsonValue value = parseValue();
    skipWs();
    if (pos_ != text_.size())
        fail("trailing characters");
    return value;
}

void
JsonParser::fail(const std::string &why)
{
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + why);
}

void
JsonParser::skipWs()
{
    // Newlines count as whitespace so multi-line documents (the merged
    // telemetry trace) parse; JSONL callers never see them — they feed
    // one getline()'d line at a time.
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
}

char
JsonParser::peek()
{
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    return text_[pos_];
}

void
JsonParser::expect(char c)
{
    if (peek() != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

JsonValue
JsonParser::parseValue()
{
    skipWs();
    const char c = peek();
    if (c == '{')
        return parseObject();
    if (c == '[')
        return parseArray();
    if (c == '"')
        return parseString();
    if (c == 't' || c == 'f')
        return parseBoolean();
    return parseNumber();
}

JsonValue
JsonParser::parseObject()
{
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::Object;
    skipWs();
    if (peek() == '}') {
        ++pos_;
        return value;
    }
    for (;;) {
        skipWs();
        JsonValue key = parseString();
        skipWs();
        expect(':');
        value.object[key.str] = parseValue();
        skipWs();
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        expect('}');
        return value;
    }
}

JsonValue
JsonParser::parseArray()
{
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::Array;
    skipWs();
    if (peek() == ']') {
        ++pos_;
        return value;
    }
    for (;;) {
        value.array.push_back(parseValue());
        skipWs();
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        expect(']');
        return value;
    }
}

JsonValue
JsonParser::parseString()
{
    expect('"');
    JsonValue value;
    value.kind = JsonValue::Kind::String;
    for (;;) {
        const char c = peek();
        ++pos_;
        if (c == '"')
            return value;
        if (c != '\\') {
            value.str += c;
            continue;
        }
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': value.str += '"'; break;
          case '\\': value.str += '\\'; break;
          case '/': value.str += '/'; break;
          case 'n': value.str += '\n'; break;
          case 'r': value.str += '\r'; break;
          case 't': value.str += '\t'; break;
          case 'b': value.str += '\b'; break;
          case 'f': value.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size())
                fail("truncated \\u escape");
            const unsigned long code =
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            if (code > 0x7f)
                fail("non-ASCII \\u escape unsupported");
            value.str += static_cast<char>(code);
            break;
          }
          default: fail("bad escape");
        }
    }
}

JsonValue
JsonParser::parseBoolean()
{
    JsonValue value;
    value.kind = JsonValue::Kind::Boolean;
    if (text_.compare(pos_, 4, "true") == 0) {
        value.boolean = true;
        pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
        value.boolean = false;
        pos_ += 5;
    } else {
        fail("bad literal");
    }
    return value;
}

JsonValue
JsonParser::parseNumber()
{
    JsonValue value;
    value.kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
        ++pos_;
    if (pos_ == start)
        fail("expected a value");
    value.number = text_.substr(start, pos_ - start);
    return value;
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    for (unsigned char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

const JsonValue &
jsonMember(const JsonValue &object, const char *name)
{
    auto it = object.object.find(name);
    if (it == object.object.end())
        throw JsonParseError(std::string("record missing field '") + name +
                             "'");
    return it->second;
}

std::string
doubleText(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return std::signbit(value) ? "-Infinity" : "Infinity";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string &
JsonWriter::key(const std::string &name)
{
    text_ += text_.empty() ? "{\"" : ",\"";
    return text_.append(jsonEscape(name)).append("\":");
}

JsonWriter &
JsonWriter::raw(const std::string &name, const std::string &json)
{
    key(name).append(json);
    return *this;
}

JsonWriter &
JsonWriter::string(const std::string &name, const std::string &value)
{
    key(name).append("\"").append(jsonEscape(value)).append("\"");
    return *this;
}

JsonWriter &
JsonWriter::u64(const std::string &name, std::uint64_t value)
{
    return raw(name, std::to_string(value));
}

JsonWriter &
JsonWriter::number(const std::string &name, double value)
{
    return std::isfinite(value) ? raw(name, doubleText(value))
                                : string(name, doubleText(value));
}

JsonWriter &
JsonWriter::boolean(const std::string &name, bool value)
{
    return raw(name, value ? "true" : "false");
}

std::uint64_t
parseU64(const std::string &text, const std::string &name)
{
    // strtoull silently accepts leading whitespace and a sign — and
    // wraps "-1" to 2^64-1 — so a corrupted record would load as
    // garbage. The writer only ever emits bare digits; demand them.
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        throw JsonParseError("bad integer for " + name + ": '" + text + "'");
    return value;
}

double
parseDouble(const std::string &text, const std::string &name)
{
    // Like the integer path, reject the whitespace/'+' prefixes strtod
    // would silently eat ('-' stays legal: -Infinity needs it).
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    // ERANGE covers two very different cases: overflow (+-HUGE_VAL, a
    // value the writer never emits) and *underflow*, which it can — %.17g
    // of a subnormal parses back with errno == ERANGE but an exact
    // result. Only overflow is an error.
    const bool overflow =
        errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        text[0] == '+' || *end != '\0' || overflow)
        throw JsonParseError("bad number for " + name + ": '" + text + "'");
    return value;
}

std::uint64_t
asU64(const JsonValue &value, const std::string &name)
{
    if (value.kind != JsonValue::Kind::Number)
        throw JsonParseError("bad integer for " + name + ": '" +
                             shown(value) + "'");
    return parseU64(value.number, name);
}

std::uint64_t
memberU64(const JsonValue &object, const char *name)
{
    return asU64(jsonMember(object, name), name);
}

unsigned
memberUnsigned(const JsonValue &object, const char *name)
{
    const std::uint64_t value = memberU64(object, name);
    if (value > std::numeric_limits<unsigned>::max())
        throw JsonParseError(std::string("bad integer for ") + name +
                             ": '" + std::to_string(value) + "'");
    return static_cast<unsigned>(value);
}

double
memberDouble(const JsonValue &object, const char *name)
{
    const JsonValue &value = jsonMember(object, name);
    if (value.kind == JsonValue::Kind::Number)
        return parseDouble(value.number, name);
    // Only the non-finite tokens are quoted on the wire.
    if (value.kind == JsonValue::Kind::String &&
        (value.str == "NaN" || value.str == "Infinity" ||
         value.str == "-Infinity"))
        return parseDouble(value.str, name);
    throw JsonParseError(std::string("bad number for ") + name + ": '" +
                         shown(value) + "'");
}

} // namespace dgsim::runner
