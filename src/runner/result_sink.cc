#include "runner/result_sink.hh"

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

void
writeOutcome(JsonWriter &out, const JobOutcome &outcome, bool host_metrics)
{
    out.u64("index", outcome.index)
        .string("workload", outcome.workload)
        .string("suite", outcome.suite)
        .string("config", outcome.configLabel)
        .boolean("ok", outcome.ok)
        .string("error", outcome.error);
    for (const Field &field : kFields) {
        if (field.u64)
            out.u64(field.name, outcome.result.*field.u64);
        else
            out.number(field.name, outcome.result.*field.dbl);
    }
    JsonWriter counters;
    for (const auto &kv : outcome.result.counters)
        counters.u64(kv.first, kv.second);
    out.object("counters", counters);
    if (host_metrics) {
        // Nested so readers looking fields up by name are unaffected;
        // never emitted on determinism-compared output (values are
        // host-dependent by nature).
        out.object("host",
                   JsonWriter()
                       .number("seconds", outcome.result.hostSeconds)
                       .number("kips", outcome.result.kips())
                       .u64("traceRecords", outcome.result.traceRecords)
                       .u64("watchdogCycles", outcome.result.watchdogCycles)
                       .u64("idleCyclesSkipped",
                            outcome.result.idleCyclesSkipped)
                       .u64("skipEvents", outcome.result.skipEvents));
    }
}

std::string
toJsonLine(const JobOutcome &outcome, bool host_metrics)
{
    JsonWriter out;
    writeOutcome(out, outcome, host_metrics);
    return out.str();
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
                os_ << doubleText(row.result.*field.dbl);
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
    outcome.index = memberU64(record, "index");
    outcome.workload = jsonMember(record, "workload").str;
    outcome.suite = jsonMember(record, "suite").str;
    outcome.configLabel = jsonMember(record, "config").str;
    outcome.ok = jsonMember(record, "ok").boolean;
    outcome.error = jsonMember(record, "error").str;
    for (const Field &field : kFields) {
        if (field.u64)
            outcome.result.*field.u64 = memberU64(record, field.name);
        else
            outcome.result.*field.dbl = memberDouble(record, field.name);
    }
    for (const auto &kv : jsonMember(record, "counters").object)
        outcome.result.counters[kv.first] = asU64(kv.second, kv.first);
    // Optional host-metrics object (JsonlSink host_metrics mode).
    const auto host = record.object.find("host");
    if (host != record.object.end()) {
        const JsonValue &metrics = host->second;
        outcome.result.hostSeconds = memberDouble(metrics, "seconds");
        outcome.result.traceRecords = memberU64(metrics, "traceRecords");
        outcome.result.watchdogCycles = memberU64(metrics, "watchdogCycles");
        // Skip accounting postdates the host-object format: read it
        // tolerantly so journals written before it still load.
        if (metrics.object.count("idleCyclesSkipped"))
            outcome.result.idleCyclesSkipped =
                memberU64(metrics, "idleCyclesSkipped");
        if (metrics.object.count("skipEvents"))
            outcome.result.skipEvents = memberU64(metrics, "skipEvents");
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
        try {
            outcome.index = parseU64(row[column("index")], "index");
            for (const Field &field : kFields) {
                const std::string &raw = row[column(field.name)];
                if (field.u64)
                    outcome.result.*field.u64 = parseU64(raw, field.name);
                else
                    outcome.result.*field.dbl = parseDouble(raw, field.name);
            }
            for (std::size_t i = 0; i < header.size(); ++i) {
                if (header[i].rfind(kCounterPrefix, 0) != 0 || row[i].empty())
                    continue;
                const std::string name =
                    header[i].substr(std::string(kCounterPrefix).size());
                outcome.result.counters[name] = parseU64(row[i], name);
            }
        } catch (const JsonParseError &e) {
            DGSIM_FATAL("CSV row " + std::to_string(r) + ": " + e.what());
        }
        outcome.workload = row[column("workload")];
        outcome.suite = row[column("suite")];
        outcome.configLabel = row[column("config")];
        outcome.ok = row[column("ok")] == "true";
        outcome.error = row[column("error")];
        outcome.result.workload = outcome.workload;
        outcome.result.configLabel = outcome.configLabel;
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace dgsim::runner
