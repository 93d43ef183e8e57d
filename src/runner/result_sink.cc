#include "runner/result_sink.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common/log.hh"

namespace dgsim::runner
{
namespace
{

/**
 * The scalar SimResult fields, in serialization order. One table drives
 * the JSONL writer/reader and the CSV writer/reader so the four can
 * never drift apart.
 */
struct Field
{
    const char *name;
    std::uint64_t SimResult::*u64; ///< Null for double fields.
    double SimResult::*dbl;        ///< Null for integer fields.
};

const Field kFields[] = {
    {"cycles", &SimResult::cycles, nullptr},
    {"instructions", &SimResult::instructions, nullptr},
    {"ipc", nullptr, &SimResult::ipc},
    {"l1Accesses", &SimResult::l1Accesses, nullptr},
    {"l1Misses", &SimResult::l1Misses, nullptr},
    {"l2Accesses", &SimResult::l2Accesses, nullptr},
    {"l2Misses", &SimResult::l2Misses, nullptr},
    {"l3Accesses", &SimResult::l3Accesses, nullptr},
    {"dramAccesses", &SimResult::dramAccesses, nullptr},
    {"dgCoverage", nullptr, &SimResult::dgCoverage},
    {"dgAccuracy", nullptr, &SimResult::dgAccuracy},
    {"dgAttached", &SimResult::dgAttached, nullptr},
    {"dgIssued", &SimResult::dgIssued, nullptr},
    {"dgVerifiedOk", &SimResult::dgVerifiedOk, nullptr},
    {"dgVerifiedBad", &SimResult::dgVerifiedBad, nullptr},
    {"committedLoads", &SimResult::committedLoads, nullptr},
    {"committedStores", &SimResult::committedStores, nullptr},
    {"committedBranches", &SimResult::committedBranches, nullptr},
    {"branchSquashes", &SimResult::branchSquashes, nullptr},
    {"memOrderSquashes", &SimResult::memOrderSquashes, nullptr},
    {"domDelayed", &SimResult::domDelayed, nullptr},
    {"stlForwards", &SimResult::stlForwards, nullptr},
    {"cacheDigest", &SimResult::cacheDigest, nullptr},
    {"uarchDigest", &SimResult::uarchDigest, nullptr},
};

/**
 * Shortest representation that strtod restores bit-exactly. Non-finite
 * values (a zero-denominator job's ipc or dgAccuracy) get canonical
 * tokens instead of the locale-ish bare `nan`/`inf` %g would print —
 * which is not valid JSON and does not round-trip.
 */
std::string
doubleToString(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return std::signbit(value) ? "-Infinity" : "Infinity";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * A double as a JSON value: raw number when finite, quoted token when
 * not (JSON has no NaN/Infinity literals; a bare token would make the
 * whole line unparseable).
 */
std::string
jsonDouble(double value)
{
    if (!std::isfinite(value))
        return std::string("\"").append(doubleToString(value)).append("\"");
    return doubleToString(value);
}

std::uint64_t
stringToU64(const std::string &text, const char *what)
{
    // strtoull silently accepts leading whitespace and a sign — and
    // wraps "-1" to 2^64-1 — so a corrupted row would round-trip as
    // garbage. The sinks only ever write bare digits; demand them.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        DGSIM_FATAL(std::string("bad integer for ") + what + ": '" + text +
                    "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        DGSIM_FATAL(std::string("bad integer for ") + what + ": '" + text +
                    "'");
    return value;
}

double
stringToDouble(const std::string &text, const char *what)
{
    // Like the integer path, reject the whitespace/'+' prefixes strtod
    // would silently eat ('-' stays legal: -Infinity needs it).
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])) || text[0] == '+')
        DGSIM_FATAL(std::string("bad number for ") + what + ": '" + text +
                    "'");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    // ERANGE covers two very different cases: overflow (+-HUGE_VAL, a
    // value we never wrote) and *underflow*, which the sink itself can
    // legitimately produce — %.17g of a subnormal parses back with
    // errno == ERANGE but a perfectly valid result. Only overflow is an
    // error.
    const bool overflow =
        errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
    if (*end != '\0' || overflow)
        DGSIM_FATAL(std::string("bad number for ") + what + ": '" + text +
                    "'");
    return value;
}

/**
 * The raw text of a numeric member. Finite doubles arrive as JSON
 * numbers; NaN/Infinity arrive as the quoted tokens jsonDouble emits.
 */
const std::string &
numberText(const JsonValue &value)
{
    return value.kind == JsonValue::Kind::String ? value.str : value.number;
}

// --- CSV ----------------------------------------------------------------

std::string
csvEscape(const std::string &raw)
{
    if (raw.find_first_of(",\"\n\r") == std::string::npos)
        return raw;
    std::string out = "\"";
    for (char c : raw) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Parse an RFC-4180-ish stream into records (quotes may span lines). */
std::vector<std::vector<std::string>>
parseCsvRecords(std::istream &is)
{
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> record;
    std::string field;
    bool quoted = false;
    bool fieldStarted = false;
    char c;
    while (is.get(c)) {
        if (quoted) {
            if (c == '"') {
                if (is.peek() == '"') {
                    is.get(c);
                    field += '"';
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
            continue;
        }
        switch (c) {
          case '"':
            quoted = true;
            fieldStarted = true;
            break;
          case ',':
            record.push_back(std::move(field));
            field.clear();
            fieldStarted = true; // A delimiter implies a following field.
            break;
          case '\r':
            break;
          case '\n':
            if (fieldStarted || !field.empty() || !record.empty()) {
                record.push_back(std::move(field));
                field.clear();
                records.push_back(std::move(record));
                record.clear();
                fieldStarted = false;
            }
            break;
          default:
            field += c;
            fieldStarted = true;
        }
    }
    if (fieldStarted || !field.empty() || !record.empty()) {
        record.push_back(std::move(field));
        records.push_back(std::move(record));
    }
    return records;
}

constexpr const char *kCounterPrefix = "counter:";

} // namespace

std::string
toJsonLine(const JobOutcome &outcome, bool host_metrics)
{
    std::string out = "{";
    out += "\"index\":" + std::to_string(outcome.index);
    out += ",\"workload\":\"" + jsonEscape(outcome.workload) + "\"";
    out += ",\"suite\":\"" + jsonEscape(outcome.suite) + "\"";
    out += ",\"config\":\"" + jsonEscape(outcome.configLabel) + "\"";
    out += std::string(",\"ok\":") + (outcome.ok ? "true" : "false");
    out += ",\"error\":\"" + jsonEscape(outcome.error) + "\"";
    for (const Field &field : kFields) {
        out += ",\"" + std::string(field.name) + "\":";
        out += field.u64 ? std::to_string(outcome.result.*field.u64)
                         : jsonDouble(outcome.result.*field.dbl);
    }
    out += ",\"counters\":{";
    bool first = true;
    for (const auto &kv : outcome.result.counters) {
        if (!first)
            out += ",";
        first = false;
        out.append("\"").append(jsonEscape(kv.first)).append("\":")
            .append(std::to_string(kv.second));
    }
    out += "}";
    if (host_metrics) {
        // Nested so readers looking fields up by name are unaffected;
        // never emitted on determinism-compared output (values are
        // host-dependent by nature).
        out += ",\"host\":{";
        out += "\"seconds\":" + jsonDouble(outcome.result.hostSeconds);
        out += ",\"kips\":" + jsonDouble(outcome.result.kips());
        out += ",\"traceRecords\":" +
               std::to_string(outcome.result.traceRecords);
        out += ",\"watchdogCycles\":" +
               std::to_string(outcome.result.watchdogCycles);
        out += ",\"idleCyclesSkipped\":" +
               std::to_string(outcome.result.idleCyclesSkipped);
        out += ",\"skipEvents\":" +
               std::to_string(outcome.result.skipEvents);
        out += "}";
    }
    out += "}";
    return out;
}

void
JsonlSink::consume(const JobOutcome &outcome)
{
    os_ << toJsonLine(outcome, host_metrics_) << "\n";
}

void
CsvSink::consume(const JobOutcome &outcome)
{
    rows_.push_back(outcome);
}

void
CsvSink::finish()
{
    // Counter columns are the sorted union across all rows: the header
    // cannot be known until every outcome has been seen.
    std::set<std::string> counterNames;
    for (const JobOutcome &row : rows_)
        for (const auto &kv : row.result.counters)
            counterNames.insert(kv.first);

    os_ << "index,workload,suite,config,ok,error";
    for (const Field &field : kFields)
        os_ << "," << field.name;
    for (const std::string &name : counterNames)
        os_ << "," << csvEscape(kCounterPrefix + name);
    os_ << "\n";

    for (const JobOutcome &row : rows_) {
        os_ << row.index << "," << csvEscape(row.workload) << ","
            << csvEscape(row.suite) << "," << csvEscape(row.configLabel)
            << "," << (row.ok ? "true" : "false") << ","
            << csvEscape(row.error);
        for (const Field &field : kFields) {
            os_ << ",";
            if (field.u64)
                os_ << row.result.*field.u64;
            else
                os_ << doubleToString(row.result.*field.dbl);
        }
        for (const std::string &name : counterNames) {
            os_ << ",";
            auto it = row.result.counters.find(name);
            if (it != row.result.counters.end())
                os_ << it->second; // Absent counters stay empty cells.
        }
        os_ << "\n";
    }
    os_.flush();
}

JobOutcome
outcomeFromJson(const JsonValue &record)
{
    JobOutcome outcome;
    outcome.index = stringToU64(jsonMember(record, "index").number, "index");
    outcome.workload = jsonMember(record, "workload").str;
    outcome.suite = jsonMember(record, "suite").str;
    outcome.configLabel = jsonMember(record, "config").str;
    outcome.ok = jsonMember(record, "ok").boolean;
    outcome.error = jsonMember(record, "error").str;
    for (const Field &field : kFields) {
        const std::string &raw = numberText(jsonMember(record, field.name));
        if (field.u64)
            outcome.result.*field.u64 = stringToU64(raw, field.name);
        else
            outcome.result.*field.dbl = stringToDouble(raw, field.name);
    }
    for (const auto &kv : jsonMember(record, "counters").object)
        outcome.result.counters[kv.first] =
            stringToU64(kv.second.number, kv.first.c_str());
    // Optional host-metrics object (JsonlSink host_metrics mode).
    const auto host = record.object.find("host");
    if (host != record.object.end()) {
        outcome.result.hostSeconds = stringToDouble(
            numberText(jsonMember(host->second, "seconds")), "host.seconds");
        outcome.result.traceRecords =
            stringToU64(jsonMember(host->second, "traceRecords").number,
                        "host.traceRecords");
        outcome.result.watchdogCycles =
            stringToU64(jsonMember(host->second, "watchdogCycles").number,
                        "host.watchdogCycles");
        // Skip accounting postdates the host-object format: read it
        // tolerantly so journals written before it still load.
        const auto skipped = host->second.object.find("idleCyclesSkipped");
        if (skipped != host->second.object.end()) {
            outcome.result.idleCyclesSkipped = stringToU64(
                skipped->second.number, "host.idleCyclesSkipped");
        }
        const auto skips = host->second.object.find("skipEvents");
        if (skips != host->second.object.end()) {
            outcome.result.skipEvents =
                stringToU64(skips->second.number, "host.skipEvents");
        }
    }
    outcome.result.workload = outcome.workload;
    outcome.result.configLabel = outcome.configLabel;
    return outcome;
}

std::vector<JobOutcome>
readJsonl(std::istream &is)
{
    std::vector<JobOutcome> outcomes;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        try {
            outcomes.push_back(outcomeFromJson(JsonParser(line).parse()));
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("JSONL line " + std::to_string(lineno) + ": " +
                        e.what());
        }
    }
    return outcomes;
}

std::vector<JobOutcome>
readCsv(std::istream &is)
{
    const auto records = parseCsvRecords(is);
    if (records.empty())
        return {};

    const std::vector<std::string> &header = records.front();
    auto column = [&](const std::string &name) -> std::size_t {
        for (std::size_t i = 0; i < header.size(); ++i)
            if (header[i] == name)
                return i;
        DGSIM_FATAL("CSV header missing column '" + name + "'");
    };

    std::vector<JobOutcome> outcomes;
    for (std::size_t r = 1; r < records.size(); ++r) {
        const std::vector<std::string> &row = records[r];
        if (row.size() != header.size())
            DGSIM_FATAL("CSV row " + std::to_string(r) + " has " +
                        std::to_string(row.size()) + " fields, header has " +
                        std::to_string(header.size()));
        JobOutcome outcome;
        outcome.index = stringToU64(row[column("index")], "index");
        outcome.workload = row[column("workload")];
        outcome.suite = row[column("suite")];
        outcome.configLabel = row[column("config")];
        outcome.ok = row[column("ok")] == "true";
        outcome.error = row[column("error")];
        for (const Field &field : kFields) {
            const std::string &raw = row[column(field.name)];
            if (field.u64)
                outcome.result.*field.u64 = stringToU64(raw, field.name);
            else
                outcome.result.*field.dbl = stringToDouble(raw, field.name);
        }
        for (std::size_t i = 0; i < header.size(); ++i) {
            if (header[i].rfind(kCounterPrefix, 0) != 0 || row[i].empty())
                continue;
            const std::string name =
                header[i].substr(std::string(kCounterPrefix).size());
            outcome.result.counters[name] = stringToU64(row[i], name.c_str());
        }
        outcome.result.workload = outcome.workload;
        outcome.result.configLabel = outcome.configLabel;
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace dgsim::runner
