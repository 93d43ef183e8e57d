#include "runner/campaign.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "fuzz/oracle.hh"
#include "runner/json.hh"
#include "workloads/suite.hh"

namespace dgsim::runner
{
namespace
{

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream ss(text);
    std::string part;
    while (std::getline(ss, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

/** %.17g: shortest text strtod restores bit-exactly (rates are finite). */
std::string
doubleText(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::uint64_t
memberU64(const JsonValue &object, const char *name)
{
    const std::string &text = jsonMember(object, name).number;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE)
        throw CampaignError(std::string("manifest: bad integer for ") +
                            name + ": '" + text + "'");
    return value;
}

double
memberDouble(const JsonValue &object, const char *name)
{
    const std::string &text = jsonMember(object, name).number;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        throw CampaignError(std::string("manifest: bad number for ") +
                            name + ": '" + text + "'");
    return value;
}

} // namespace

unsigned
shardOf(const std::string &key, unsigned shards)
{
    if (shards == 0)
        throw CampaignError("shard count must be positive");
    return static_cast<unsigned>(fnv::hashBytes(key) % shards);
}

std::string
schemeToken(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Unsafe:
        return "unsafe";
      case Scheme::NdaP:
        return "nda-p";
      case Scheme::Stt:
        return "stt";
      case Scheme::Dom:
        return "dom";
    }
    throw CampaignError("unknown scheme enum value");
}

Scheme
schemeFromToken(const std::string &token)
{
    if (token == "unsafe")
        return Scheme::Unsafe;
    if (token == "nda-p")
        return Scheme::NdaP;
    if (token == "stt")
        return Scheme::Stt;
    if (token == "dom")
        return Scheme::Dom;
    throw CampaignError("manifest: unknown scheme '" + token + "'");
}

SimConfig
campaignBaseConfig(std::uint64_t instructions, std::uint64_t ffwdInstructions,
                   std::uint64_t sampleInterval, std::uint64_t sampleDetail)
{
    SimConfig base;
    base.maxInstructions = instructions;
    base.maxCycles = instructions * 200;
    base.warmupInstructions = instructions / 3;
    base.ffwdInstructions = ffwdInstructions;
    base.sampleInterval = sampleInterval;
    base.sampleDetail = sampleDetail;
    if (base.ffwdInstructions != 0 || base.sampleInterval != 0) {
        // Functional warming replaces the warmup prefix: the detailed
        // window starts measured from its first committed instruction.
        base.warmupInstructions = 0;
    }
    return base;
}

SweepSpec
manifestSpec(const CampaignManifest &manifest)
{
    if (manifest.fuzzCount != 0) {
        // Fuzzing campaign: the oracle's run budget is centralized in
        // fuzz::oracleBaseConfig() so a campaign worker's job keys are
        // byte-identical to a single-process `dgrun --fuzz` of the
        // same (count, seed).
        SweepSpec spec;
        SimConfig base = fuzz::oracleBaseConfig();
        base.jobTimeoutMs = manifest.jobTimeoutSec * 1000;
        spec.configs = {base};
        spec.fuzzCount = manifest.fuzzCount;
        spec.fuzzSeed = manifest.fuzzSeed;
        return spec;
    }

    SimConfig base = campaignBaseConfig(
        manifest.instructions, manifest.ffwdInstructions,
        manifest.sampleInterval, manifest.sampleDetail);
    base.jobTimeoutMs = manifest.jobTimeoutSec * 1000;

    SweepSpec spec;
    if (manifest.suite.empty()) {
        for (const auto &workload : workloads::extendedSuite())
            if (manifest.tier == "all" || workload.tier == manifest.tier)
                spec.workloads.push_back(workload);
    } else {
        for (const std::string &name : splitCommas(manifest.suite))
            spec.workloads.push_back(workloads::findWorkload(name));
    }

    std::vector<bool> apModes;
    if (manifest.ap == "on")
        apModes = {true};
    else if (manifest.ap == "off")
        apModes = {false};
    else if (manifest.ap == "both")
        apModes = {false, true};
    else
        throw CampaignError("manifest: ap must be on, off or both, got '" +
                            manifest.ap + "'");

    const std::vector<std::string> schemeTokens =
        splitCommas(manifest.schemes);
    if (schemeTokens.empty())
        throw CampaignError("manifest: needs at least one scheme");
    for (const std::string &token : schemeTokens) {
        for (bool ap : apModes) {
            SimConfig config = base;
            config.scheme = schemeFromToken(token);
            config.addressPrediction = ap;
            spec.configs.push_back(config);
        }
    }
    return spec;
}

std::vector<Job>
filterShard(std::vector<Job> jobs, unsigned shard, unsigned shards)
{
    if (shard >= shards)
        throw CampaignError("shard index " + std::to_string(shard) +
                            " out of range for " + std::to_string(shards) +
                            " shards");
    std::vector<Job> mine;
    for (Job &job : jobs) {
        if (shardOf(jobKey(job), shards) != shard)
            continue;
        job.index = mine.size();
        mine.push_back(std::move(job));
    }
    return mine;
}

void
writeManifest(const std::string &path, const CampaignManifest &manifest)
{
    std::ofstream out(path);
    if (!out)
        throw CampaignError("cannot open manifest '" + path +
                            "' for writing");
    out << "{\"dgsim_campaign\":1"
        << ",\"name\":\"" << jsonEscape(manifest.name) << "\""
        << ",\"shards\":" << manifest.shards
        << ",\"jobs\":" << manifest.jobKeys.size()
        << ",\"suite\":\"" << jsonEscape(manifest.suite) << "\""
        << ",\"tier\":\"" << jsonEscape(manifest.tier) << "\""
        << ",\"schemes\":\"" << jsonEscape(manifest.schemes) << "\""
        << ",\"ap\":\"" << jsonEscape(manifest.ap) << "\""
        << ",\"instructions\":" << manifest.instructions
        << ",\"ffwd\":" << manifest.ffwdInstructions
        << ",\"sampleInterval\":" << manifest.sampleInterval
        << ",\"sampleDetail\":" << manifest.sampleDetail
        << ",\"fuzzCount\":" << manifest.fuzzCount
        << ",\"fuzzSeed\":" << manifest.fuzzSeed
        << ",\"retries\":" << manifest.retries
        << ",\"retryBaseMs\":" << manifest.retryBaseMs
        << ",\"jobTimeoutSec\":" << manifest.jobTimeoutSec
        << ",\"injectFailRate\":" << doubleText(manifest.injectFailRate)
        << ",\"injectFailSeed\":" << manifest.injectFailSeed
        << "}\n";
    for (const std::string &key : manifest.jobKeys)
        out << "{\"job\":\"" << jsonEscape(key) << "\",\"shard\":"
            << shardOf(key, manifest.shards) << "}\n";
    out.flush();
    if (!out)
        throw CampaignError("failed writing manifest '" + path + "'");
}

CampaignManifest
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw CampaignError("cannot open manifest '" + path + "'");

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    if (lines.empty())
        throw CampaignError("manifest '" + path + "' is empty");

    CampaignManifest manifest;
    std::uint64_t expectedJobs = 0;
    try {
        const JsonValue header = JsonParser(lines[0]).parse();
        if (memberU64(header, "dgsim_campaign") != 1)
            throw CampaignError("manifest '" + path +
                                "': unsupported version");
        manifest.name = jsonMember(header, "name").str;
        manifest.shards = static_cast<unsigned>(memberU64(header, "shards"));
        expectedJobs = memberU64(header, "jobs");
        manifest.suite = jsonMember(header, "suite").str;
        manifest.tier = jsonMember(header, "tier").str;
        manifest.schemes = jsonMember(header, "schemes").str;
        manifest.ap = jsonMember(header, "ap").str;
        manifest.instructions = memberU64(header, "instructions");
        manifest.ffwdInstructions = memberU64(header, "ffwd");
        manifest.sampleInterval = memberU64(header, "sampleInterval");
        manifest.sampleDetail = memberU64(header, "sampleDetail");
        manifest.fuzzCount = memberU64(header, "fuzzCount");
        manifest.fuzzSeed = memberU64(header, "fuzzSeed");
        manifest.retries =
            static_cast<unsigned>(memberU64(header, "retries"));
        manifest.retryBaseMs = memberU64(header, "retryBaseMs");
        manifest.jobTimeoutSec = memberU64(header, "jobTimeoutSec");
        manifest.injectFailRate = memberDouble(header, "injectFailRate");
        manifest.injectFailSeed = memberU64(header, "injectFailSeed");
    } catch (const JsonParseError &e) {
        throw CampaignError("manifest '" + path + "' header: " + e.what());
    }
    if (manifest.shards == 0)
        throw CampaignError("manifest '" + path + "': zero shards");

    manifest.jobKeys.reserve(lines.size() - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        try {
            const JsonValue record = JsonParser(lines[i]).parse();
            const std::string key = jsonMember(record, "job").str;
            const std::uint64_t shard = memberU64(record, "shard");
            if (shard != shardOf(key, manifest.shards))
                throw CampaignError(
                    "manifest '" + path + "' line " + std::to_string(i + 1) +
                    ": recorded shard " + std::to_string(shard) +
                    " disagrees with shardOf('" + key + "', " +
                    std::to_string(manifest.shards) + ")");
            manifest.jobKeys.push_back(key);
        } catch (const JsonParseError &e) {
            throw CampaignError("manifest '" + path + "' line " +
                                std::to_string(i + 1) + ": " + e.what());
        }
    }
    if (manifest.jobKeys.size() != expectedJobs)
        throw CampaignError(
            "manifest '" + path + "': header promises " +
            std::to_string(expectedJobs) + " jobs but " +
            std::to_string(manifest.jobKeys.size()) + " are listed");
    return manifest;
}

std::string
validateManifest(const CampaignManifest &manifest,
                 const std::vector<Job> &expanded)
{
    if (expanded.size() != manifest.jobKeys.size())
        return "sweep expands to " + std::to_string(expanded.size()) +
               " jobs but the manifest expects " +
               std::to_string(manifest.jobKeys.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        const std::string key = jobKey(expanded[i]);
        if (key != manifest.jobKeys[i])
            return "job " + std::to_string(i) + " expands to key '" + key +
                   "' but the manifest expects '" + manifest.jobKeys[i] +
                   "' — the sweep spec drifted since --campaign-init";
    }
    return "";
}

JournalMap
mergeJournals(const std::vector<std::string> &paths)
{
    JournalMap merged;
    for (const std::string &path : paths)
        for (auto &entry : loadJournal(path))
            merged[entry.first] = std::move(entry.second); // Last wins.
    return merged;
}

std::vector<JobOutcome>
orderOutcomes(const JournalMap &merged, const std::vector<Job> &jobs)
{
    std::vector<JobOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (const Job &job : jobs) {
        const std::string key = jobKey(job);
        const auto it = merged.find(key);
        JobOutcome outcome;
        if (it != merged.end()) {
            outcome = it->second;
        } else {
            outcome.workload = job.workload;
            outcome.suite = job.suite;
            outcome.configLabel = job.config.label();
            outcome.ok = false;
            outcome.attempts = 0;
            outcome.error = "missing from merged journals (never completed)";
        }
        outcome.index = job.index; // Shard journals carry local indices.
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

std::string
workerJournalPath(const std::string &manifestPath, unsigned worker)
{
    return manifestPath + ".w" + std::to_string(worker) + ".journal";
}

std::string
claimsPath(const std::string &manifestPath)
{
    return manifestPath + ".claims";
}

} // namespace dgsim::runner
