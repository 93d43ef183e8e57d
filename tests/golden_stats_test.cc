/**
 * @file
 * Golden-stats determinism harness.
 *
 * Runs a fixed trio of workloads under every policy (Unsafe / NDA-P /
 * STT / DoM) with and without address prediction, and byte-compares the
 * full sorted `StatRegistry::dump()` against checked-in golden files;
 * six directed corner-case programs add their distribution dumps too.
 * This is the guard rail for hot-path refactors: any optimization of
 * the cycle loop (instruction pooling, paged memory, flat trackers)
 * must leave every simulated counter bit-identical, and this test makes
 * a silent behavioural change impossible.
 *
 * Regenerate (only when a change *intends* to alter simulated
 * behaviour) with:
 *
 *     DGSIM_UPDATE_GOLDEN=1 ./build/tests/golden_stats_test
 *
 * and justify the diff in the commit message.
 */

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

#ifndef DGSIM_GOLDEN_DIR
#error "DGSIM_GOLDEN_DIR must point at tests/golden"
#endif

namespace dgsim
{
namespace
{

/// Per-run instruction budget. Small enough that all 24 runs finish in
/// about a second, large enough to exercise warm caches, the stride
/// predictor and every squash path.
constexpr std::uint64_t kInstructions = 20'000;

/// Three behaviour classes: strided gather (L2 working set, value
/// branches), branchy/unpredictable (L1), multi-array strided
/// reduction (L2). Together they cover doppelganger hits/misses,
/// branch squash storms and DoM delay/retry traffic.
const char *const kWorkloads[] = {"bzip2", "gobmk", "hmmer"};

SimConfig
baseConfig()
{
    SimConfig config;
    config.maxInstructions = kInstructions;
    config.maxCycles = kInstructions * 200;
    return config;
}

/** Render one workload's stats under all eight configs as text. */
std::string
renderWorkload(const std::string &name, bool idle_skip = true)
{
    const workloads::WorkloadDef &def = workloads::findWorkload(name);
    const Program program = def.build(0); // Endless; bounded by budget.
    std::ostringstream out;
    for (SimConfig config : evaluationConfigs(baseConfig())) {
        config.idleSkip = idle_skip;
        StatRegistry stats;
        OooCore core(program, config, stats);
        core.run();
        out << "== " << name << " / " << config.label() << " ==\n";
        stats.dump(out);
    }
    return out.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(DGSIM_GOLDEN_DIR) + "/" + name + ".stats.txt";
}

/** Compare @p rendered with the golden file for @p name, or rewrite the
 * file when DGSIM_UPDATE_GOLDEN is set. */
void
expectMatchesGolden(const std::string &name, const std::string &rendered)
{
    const std::string path = goldenPath(name);
    if (std::getenv("DGSIM_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with DGSIM_UPDATE_GOLDEN=1)";
    const std::string expected((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(rendered, expected)
        << name << ": simulated counters diverged from " << path;
}

TEST(GoldenStatsTest, CountersMatchCheckedInGolden)
{
    for (const char *name : kWorkloads)
        expectMatchesGolden(name, renderWorkload(name));
}

/** Runs are deterministic: the same simulation twice gives the same
 * bytes (catches accidental wall-clock/random/pointer-order inputs). */
TEST(GoldenStatsTest, RenderingIsDeterministic)
{
    EXPECT_EQ(renderWorkload("gobmk"), renderWorkload("gobmk"));
}

/** The event-driven time warp is a host-side optimization only: the
 * full matrix re-run with skipping disabled must be byte-identical to
 * the skipping run. A late next-event horizon (a component that can
 * change state before the cycle nextEventCycle() reported) shows up
 * here as a counter diff. */
TEST(GoldenStatsTest, IdleSkippingIsInvisibleInCounters)
{
    for (const char *name : kWorkloads) {
        EXPECT_EQ(renderWorkload(name, /*idle_skip=*/true),
                  renderWorkload(name, /*idle_skip=*/false))
            << name << ": idle-cycle skipping changed simulated counters";
    }
}

// --- Directed corner cases ----------------------------------------------
//
// Short programs that each pin one ordering corner of the wakeup and
// data-arrival logic in the cycle loop. Their goldens (counter dump plus
// distribution dump, all eight configs) guard the event-driven select,
// writeback and memory-issue structures: a missed or late wakeup shifts
// cycles, a lost squash cleanup trips an assertion or the lockstep
// oracle.

constexpr Addr kCornerData = 0x100000;

/** A consumer reading one unready physical register twice (rs1 == rs2):
 * each iteration's load misses to DRAM and its value is doubled and
 * squared before it reaches the accumulator. */
Program
sameRegisterConsumer()
{
    Assembler a("corner-same-reg");
    for (Addr i = 0; i < 160; ++i)
        a.data(kCornerData + i * 64, i + 3);
    a.li(1, kCornerData).li(2, 0).li(3, 0).li(20, 160);
    a.label("loop");
    a.ld(4, 1);
    a.add(5, 4, 4);
    a.mul(6, 5, 5);
    a.add(3, 3, 6);
    a.addi(1, 1, 64);
    a.addi(2, 2, 1);
    a.blt(2, 20, "loop");
    a.halt();
    return a.finish();
}

/** A data-random branch resolves (and mispredicts about half the time)
 * while an older load is still in flight. Dependents of that load sit
 * on both sides of the branch: the older one survives the squash, the
 * younger ones are squashed while still waiting on the older producer. */
Program
squashWithWaitingDependents()
{
    Assembler a("corner-squash-waiting");
    for (Addr i = 0; i < 200; ++i)
        a.data(kCornerData + i * 64, i * 7 + 1);
    a.li(1, kCornerData).li(2, 0x2545F4914F6CDD1DULL).li(3, 0);
    a.li(20, 200).li(21, 0).li(22, 6364136223846793005ULL);
    a.label("loop");
    a.ld(4, 1);
    a.add(5, 4, 3);
    a.mul(2, 2, 22);
    a.addi(2, 2, 12345);
    a.srli(6, 2, 33);
    a.andi(6, 6, 1);
    a.beq(6, 0, "skip");
    a.add(7, 4, 4);
    a.add(8, 7, 4);
    a.add(3, 3, 8);
    a.label("skip");
    a.add(3, 3, 5);
    a.addi(1, 1, 64);
    a.addi(21, 21, 1);
    a.blt(21, 20, "loop");
    a.halt();
    return a.finish();
}

/** The load's address comes out of a divide, so its doppelganger (an L1
 * hit into four hot lines) fills long before the AGU verifies the
 * prediction. The index wraps every 32 iterations, which breaks the
 * stride: most predictions verify after their fill arrived, the wrap
 * ones mispredict after it. */
Program
doppelgangerFillBeforeVerify()
{
    Assembler a("corner-dg-early-fill");
    for (Addr i = 0; i < 32; ++i)
        a.data(kCornerData + i * 8, 100 + i);
    a.li(1, kCornerData).li(2, 0).li(3, 0).li(10, 1).li(20, 240);
    a.label("loop");
    a.andi(6, 2, 31);
    a.slli(6, 6, 3);
    a.add(7, 6, 1);
    a.div(8, 7, 10);
    a.ld(4, 8);
    a.add(3, 3, 4);
    a.addi(2, 2, 1);
    a.blt(2, 20, "loop");
    a.halt();
    return a.finish();
}

/** Loads stride one line at a time in groups of eight; each group jumps
 * 8 KiB ahead, so the prediction at a group break points at a line no
 * instruction ever touches (a DRAM fill). The load's real address was
 * just written by an older store, so its replay is forwarded and the
 * load commits while that doppelganger fill is still outstanding. */
Program
commitWithDoppelgangerFillPending()
{
    Assembler a("corner-dg-fill-pending");
    a.li(1, kCornerData).li(2, 0).li(3, 0).li(10, 1).li(20, 96);
    a.label("loop");
    a.slli(6, 2, 6);
    a.srli(7, 2, 3);
    a.slli(7, 7, 13);
    a.add(8, 6, 7);
    a.add(8, 8, 1);
    a.st(2, 8);
    a.div(9, 8, 10);
    a.ld(4, 9);
    a.add(3, 3, 4);
    a.addi(2, 2, 1);
    a.blt(2, 20, "loop");
    a.halt();
    return a.finish();
}

/** A load whose older store to the same word has its address early but
 * its data late (out of a divide): demand issue waits on the store data,
 * and a verified doppelganger's propagation waits on it too. */
Program
loadWaitsOnStoreData()
{
    Assembler a("corner-stl-wait");
    a.li(1, kCornerData).li(2, 0).li(3, 0).li(10, 3).li(20, 200);
    a.label("loop");
    a.div(5, 2, 10);
    a.st(5, 1);
    a.ld(4, 1);
    a.add(3, 3, 4);
    a.addi(2, 2, 1);
    a.blt(2, 20, "loop");
    a.halt();
    return a.finish();
}

/** Every iteration reloads one word, so under address prediction its
 * doppelgangers are in flight when the test injects an external
 * invalidation of that line; the noted snoop squashes at propagation. */
Program
invalidationSnoop()
{
    Assembler a("corner-inval-snoop");
    a.data(kCornerData, 55);
    a.li(1, 0).li(2, 300).li(3, 0);
    a.label("loop");
    a.ld(4, 0, static_cast<std::int64_t>(kCornerData));
    a.add(3, 3, 4);
    a.addi(1, 1, 1);
    a.blt(1, 2, "loop");
    a.halt();
    return a.finish();
}

/** Tick by hand, invalidating the hot line every 23 cycles for the
 * first 920 cycles, then run to HALT. */
void
runWithInvalidations(OooCore &core)
{
    for (Cycle i = 1; i <= 920 && !core.done(); ++i) {
        core.tick();
        if (i % 23 == 0)
            core.externalInvalidate(kCornerData);
    }
    core.run();
}

struct CornerCase
{
    const char *name;
    Program (*build)();
    /** Counter that must be non-zero in at least one config: proof the
     * program still reaches its corner. */
    const char *witness;
    void (*drive)(OooCore &) = nullptr; ///< Defaults to core.run().
};

const CornerCase kCornerCases[] = {
    {"corner_same_reg", sameRegisterConsumer, "core.committedLoads"},
    {"corner_squash_waiting", squashWithWaitingDependents,
     "core.branchSquashes"},
    {"corner_dg_early_fill", doppelgangerFillBeforeVerify,
     "dg.verifiedBad"},
    {"corner_dg_fill_pending", commitWithDoppelgangerFillPending,
     "core.stlForwards"},
    {"corner_stl_wait", loadWaitsOnStoreData, "core.stlForwards"},
    {"corner_inval_snoop", invalidationSnoop, "core.snoopSquashes",
     runWithInvalidations},
};

/** Render one corner case under all eight configs: counter dump plus
 * distribution dump. Every run is cross-checked by the lockstep
 * functional oracle. @p witness accumulates the case's witness counter. */
std::string
renderCorner(const CornerCase &corner, bool idle_skip,
             std::uint64_t *witness = nullptr)
{
    const Program program = corner.build();
    SimConfig base;
    base.checkArchState = true;
    base.maxCycles = 2'000'000;
    std::ostringstream out;
    for (SimConfig config : evaluationConfigs(base)) {
        config.idleSkip = idle_skip;
        StatRegistry stats;
        OooCore core(program, config, stats);
        if (corner.drive != nullptr)
            corner.drive(core);
        else
            core.run();
        EXPECT_TRUE(core.halted()) << corner.name << " / " << config.label();
        if (witness != nullptr)
            *witness += stats.get(corner.witness);
        out << "== " << corner.name << " / " << config.label() << " ==\n";
        stats.dump(out);
        stats.dumpDistributions(out);
    }
    return out.str();
}

TEST(GoldenStatsTest, CornerCasesMatchCheckedInGolden)
{
    for (const CornerCase &corner : kCornerCases) {
        std::uint64_t witness = 0;
        const std::string skipping =
            renderCorner(corner, /*idle_skip=*/true, &witness);
        EXPECT_GT(witness, 0u)
            << corner.name << " no longer exercises its corner ("
            << corner.witness << " is zero in every config)";
        EXPECT_EQ(skipping, renderCorner(corner, /*idle_skip=*/false))
            << corner.name << ": idle-cycle skipping changed results";
        expectMatchesGolden(corner.name, skipping);
    }
}

} // namespace
} // namespace dgsim
