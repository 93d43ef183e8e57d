#include "sim/simulator.hh"

#include <chrono>
#include <sstream>

#include "ckpt/sampler.hh"
#include "common/hash.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "telemetry/telemetry.hh"

namespace dgsim
{

SimResult
runProgram(const Program &program, const SimConfig &config)
{
    return runProgram(program, config, nullptr);
}

SimResult
runProgram(const Program &program, const SimConfig &config,
           std::string *stats_dump)
{
    // Any fast-forward/checkpoint/sampling request routes through the
    // sampled-simulation driver; plain detailed runs stay on this path.
    if (ckpt::wantsSampledRun(config))
        return ckpt::runSampled(program, config, stats_dump);

    StatRegistry stats;
    OooCore core(program, config, stats);
    const auto host_start = std::chrono::steady_clock::now();
    {
        telemetry::ScopedSpan span("detailed-window", "phase");
        core.run();
    }
    const std::chrono::duration<double> host_elapsed =
        std::chrono::steady_clock::now() - host_start;

    if (stats_dump) {
        std::ostringstream ss;
        stats.dump(ss);
        *stats_dump = ss.str();
    }

    return harvestResult(program, config, stats, core,
                         host_elapsed.count());
}

SimResult
harvestResult(const Program &program, const SimConfig &config,
              const StatRegistry &stats, const OooCore &core,
              double host_seconds)
{
    SimResult result;
    result.workload = program.name;
    result.configLabel = config.label();
    // Use the stat counters, not the core totals: with
    // config.warmupInstructions set, counters reset at the warmup point
    // so IPC measures the warmed region only.
    result.cycles = stats.get("core.cycles");
    result.instructions = stats.get("core.committedInstrs");
    result.ipc = result.cycles == 0
                     ? 0.0
                     : static_cast<double>(result.instructions) /
                           static_cast<double>(result.cycles);

    result.l1Accesses = stats.get("l1d.accesses");
    result.l1Misses = stats.get("l1d.misses");
    result.l2Accesses = stats.get("l2.accesses");
    result.l2Misses = stats.get("l2.misses");
    result.l3Accesses = stats.get("l3.accesses");
    result.dramAccesses = stats.get("dram.accesses");

    result.dgCoverage = core.doppelganger().coverage();
    result.dgAccuracy = core.doppelganger().accuracy();
    result.dgAttached = stats.get("dg.attached");
    result.dgIssued = stats.get("dg.issued");
    result.dgVerifiedOk = stats.get("dg.verifiedOk");
    result.dgVerifiedBad = stats.get("dg.verifiedBad");

    result.committedLoads = stats.get("core.committedLoads");
    result.committedStores = stats.get("core.committedStores");
    result.committedBranches = stats.get("core.committedBranches");
    result.branchSquashes = stats.get("core.branchSquashes");
    result.memOrderSquashes = stats.get("core.memOrderSquashes");
    result.domDelayed = stats.get("mem.domDelayed");
    result.stlForwards = stats.get("core.stlForwards");

    result.cacheDigest = core.hierarchy().digest();
    {
        // FNV-combine the per-structure digests into the widened
        // security digest. cacheDigest itself stays cache-only.
        std::uint64_t hash = fnv::kOffset;
        fnv::mix(hash, result.cacheDigest);
        fnv::mix(hash, core.branchPredictor().digest());
        fnv::mix(hash, core.strideTable().digest());
        result.uarchDigest = hash;
    }

    // Run health, from the core itself rather than the stat counters —
    // a warmup reset zeroes the counters but not these facts.
    result.halted = core.halted();
    result.hitMaxCycles = !core.halted() && config.maxCycles != 0 &&
                          core.cycle() >= config.maxCycles;

    stats.forEach([&result](const std::string &name, std::uint64_t value) {
        result.counters[name] = value;
    });

    result.hostSeconds = host_seconds;
    result.traceRecords = core.traceRecords();
    result.watchdogCycles = config.watchdogCycles;
    // Host counters, so a sampled run accumulates across all of its
    // detailed windows (they share this registry).
    result.idleCyclesSkipped = stats.hostGet("core.idleCyclesSkipped");
    result.skipEvents = stats.hostGet("core.skipEvents");
    if (stats.histogramCount() != 0) {
        std::ostringstream ss;
        stats.dumpDistributions(ss);
        result.distributions = ss.str();
    }
    return result;
}

std::vector<SimConfig>
evaluationConfigs(const SimConfig &base)
{
    std::vector<SimConfig> configs;
    for (Scheme scheme :
         {Scheme::Unsafe, Scheme::NdaP, Scheme::Stt, Scheme::Dom}) {
        for (bool ap : {false, true}) {
            SimConfig config = base;
            config.scheme = scheme;
            config.addressPrediction = ap;
            configs.push_back(config);
        }
    }
    return configs;
}

} // namespace dgsim
