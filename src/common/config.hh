/**
 * @file
 * Simulation configuration.
 *
 * Defaults reproduce Table 1 of the Doppelganger Loads paper (ISCA'23):
 * an IceLake-like out-of-order core with a three-level cache hierarchy
 * and a 1024-entry, 8-way PC-based stride address predictor/prefetcher.
 */

#ifndef DGSIM_COMMON_CONFIG_HH
#define DGSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dgsim
{

/** Which secure speculation scheme guards the core. */
enum class Scheme
{
    Unsafe, ///< Unprotected baseline out-of-order core.
    NdaP,   ///< Non-speculative Data Access, permissive propagation.
    Stt,    ///< Speculative Taint Tracking.
    Dom,    ///< Delay-on-Miss.
};

/** Human-readable scheme name, matching the paper's terminology. */
std::string schemeName(Scheme scheme);

/** Parameters of one cache level. */
struct CacheConfig
{
    std::string name;      ///< Stats prefix, e.g. "l1d".
    std::uint64_t sizeBytes = 0;
    unsigned assoc = 1;
    unsigned lineBytes = 64;
    unsigned latency = 1;  ///< Roundtrip hit latency in cycles.
    unsigned numMshrs = 16;

    unsigned numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (assoc * lineBytes));
    }
};

/** Full system configuration (core + memory + predictors + scheme). */
struct SimConfig
{
    // --- Pipeline (Table 1, "Processor") -------------------------------
    unsigned fetchWidth = 5;     ///< "Decode width: 5 instructions".
    unsigned decodeWidth = 5;
    unsigned issueWidth = 8;     ///< "Issue / Commit width: 8".
    unsigned commitWidth = 8;
    unsigned iqEntries = 160;    ///< "Instruction queue: 160 entries".
    unsigned robEntries = 352;   ///< "Reorder buffer: 352 entries".
    unsigned lqEntries = 128;    ///< "Load queue: 128 entries".
    unsigned sqEntries = 72;     ///< "Store queue/buffer: 72 entries".
    unsigned numPhysRegs = 512;
    unsigned loadPorts = 2;      ///< Cache read ports per cycle.
    unsigned storePorts = 1;     ///< Cache write ports per cycle.
    unsigned numAlus = 6;
    unsigned numMulDivs = 2;
    unsigned numAgus = 3;
    unsigned frontendDelay = 4;  ///< Fetch-to-rename depth in cycles.
    unsigned mispredictPenalty = 6; ///< Extra redirect bubble on squash.

    // --- Memory hierarchy (Table 1, "Memory") --------------------------
    CacheConfig l1d{"l1d", 48 * 1024, 12, 64, 5, 16};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 8, 64, 15, 32};
    CacheConfig l3{"l3", 16 * 1024 * 1024, 16, 64, 40, 64};
    /// "Memory access time: 13.5ns" at ~3.7GHz IceLake -> ~50 core cycles
    /// on top of the L3 roundtrip.
    unsigned dramLatency = 50;
    /// Bandwidth cap: minimum cycles between DRAM line transfers
    /// (3 cycles/64B line at ~3.7GHz is roughly dual-channel DDR4).
    unsigned dramIssueInterval = 3;

    // --- Address predictor / prefetcher (Table 1) ----------------------
    /// "Address predictor/prefetcher: 1024 entries, 8-way, 13.5 KiB".
    unsigned predictorEntries = 1024;
    unsigned predictorAssoc = 8;
    unsigned predictorConfidenceThreshold = 2; ///< Min confirmations.
    unsigned prefetchDegree = 12; ///< Instances ahead in prefetching mode.

    // --- Branch prediction ----------------------------------------------
    unsigned bpHistoryBits = 12;
    unsigned btbEntries = 4096;

    // --- Secure speculation ----------------------------------------------
    Scheme scheme = Scheme::Unsafe;
    /// Enable Doppelganger Loads (address prediction, "+AP" in the paper).
    bool addressPrediction = false;
    /**
     * Security ablation only: let DoM+AP resolve branches eagerly (out
     * of order) instead of in order as §4.6 requires. Demonstrates the
     * implicit-channel leak the in-order rule exists to close.
     */
    bool domEagerBranchResolution = false;

    // --- Run control ------------------------------------------------------
    std::uint64_t maxInstructions = 0; ///< 0 = run to HALT.
    std::uint64_t maxCycles = 0;       ///< 0 = unbounded (HALT required).
    std::uint64_t warmupInstructions = 0; ///< Stats reset after this many.
    bool checkArchState = false; ///< Cross-check against functional oracle.
    /**
     * Event-driven idle-cycle skipping: when a tick makes no forward
     * progress, run() warps the clock to the earliest future event
     * instead of re-ticking (DESIGN.md §5d). Result-neutral by
     * construction — every architectural counter is byte-identical
     * with it on or off — so it is a host-level knob like thread
     * count: not part of label() and never hashed into job identity.
     * `dgrun --no-skip` clears it (golden byte-compares, debugging).
     */
    bool idleSkip = true;

    // --- Checkpoint & fast-forward sampling (src/ckpt) --------------------
    /**
     * Execute this many instructions on the functional core (warming
     * caches and predictors) before handing off to the detailed core.
     * maxInstructions then bounds the *detailed* window only. 0 = run
     * fully detailed from instruction 0.
     */
    std::uint64_t ffwdInstructions = 0;
    /**
     * Sampled simulation: of every interval of this many instructions,
     * the first (interval - sampleDetail) run fast-forwarded and the
     * last sampleDetail run detailed, until maxInstructions total
     * instructions (functional + detailed) have executed. 0 = single
     * fast-forward + single detailed window (see ffwdInstructions).
     */
    std::uint64_t sampleInterval = 0;
    /** Detailed-window length per sampling interval (see above). */
    std::uint64_t sampleDetail = 0;
    /** Write a checkpoint here when ckptSaveInst is reached ("" = off). */
    std::string ckptSavePath;
    /**
     * Functional instruction count at which to save the checkpoint. The
     * point must fall inside a fast-forward phase (the architectural
     * state is only well-defined between instructions there).
     */
    std::uint64_t ckptSaveInst = 0;
    /** Start from this checkpoint instead of instruction 0 ("" = off). */
    std::string ckptRestorePath;

    // --- Observability ----------------------------------------------------
    /// O3PipeView/Konata pipeline trace output file; empty = tracing
    /// off (the only state the cycle loop ever checks is one cached
    /// bool).
    std::string tracePath;
    /// Arm tracing only after this many instructions have committed.
    std::uint64_t traceStartInst = 0;
    /// Trace at most this many instructions (0 = no limit).
    std::uint64_t traceMaxInsts = 0;
    /**
     * Commit watchdog: if no instruction commits for this many cycles
     * the core dumps its pipeline state + flight recorder and panics
     * instead of spinning until maxCycles. 0 disables. The default is
     * far beyond any legitimate stall (worst DRAM/policy chains are a
     * few hundred cycles per commit).
     */
    std::uint64_t watchdogCycles = 100'000;
    /**
     * When set, the commit watchdog throws WatchdogError instead of
     * panicking. The leak oracle runs thousands of machine-generated
     * attacker programs, some of which legitimately wedge; those runs
     * must classify as `inconclusive`, not kill the fuzzing process.
     * WatchdogError is deterministic, so the runner never retries it.
     */
    bool watchdogThrows = false;
    /**
     * Test/debug ablation: the policy never resolves branches, so
     * shadows never lift and the pipeline wedges at the first branch.
     * Exists to exercise the commit watchdog and flight recorder.
     */
    bool wedgeNeverResolve = false;
    /**
     * Per-run wall-clock budget in milliseconds; 0 disables. Checked at
     * the commit-watchdog site every 8192 cycles; on expiry the run
     * throws JobTimeoutError (a *recoverable* host error the experiment
     * runner retries with backoff) instead of panicking like the
     * cycle-domain watchdog, because a slow host is not a wedged core.
     */
    std::uint64_t jobTimeoutMs = 0;

    /** Short configuration label, e.g. "STT+AP". */
    std::string label() const;
};

} // namespace dgsim

#endif // DGSIM_COMMON_CONFIG_HH
