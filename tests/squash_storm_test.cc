/**
 * @file
 * Squash-storm stress test for the DynInst recycling pool.
 *
 * A mispredict-heavy program — every loop iteration branches on random
 * bits of loaded data, so gshare hovers near coin-flip accuracy —
 * churns thousands of wrong-path instructions through the pipeline.
 * While it runs we tick the core by hand and assert two pool
 * invariants on every cycle:
 *
 *  1. live() never exceeds the in-flight window (ROB plus the lazily
 *     filtered side lists), i.e. squash paths release every pooled
 *     instruction and nothing leaks;
 *  2. capacity() stays pinned at the high-water mark, i.e. the steady
 *     state cycle loop performs zero per-instruction heap allocations.
 *
 * Afterwards the final architectural state must still match the
 * functional oracle — recycled slots must never alias live state.
 *
 * A second test counts global operator new calls: a run ten times as
 * long may allocate only a bounded number more (containers reaching
 * their high-water marks), never a number that grows with the
 * instruction count.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "isa/functional.hh"
#include "sim/simulator.hh"

namespace
{
/// Global operator new calls so far (replaced below for this binary).
std::atomic<std::size_t> g_allocations{0};
} // namespace

// Out of line, like the deletes below: inlined into a caller, GCC's
// -Wmismatched-new-delete pairs a malloc() here with operator delete,
// or a free() there with operator new.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dgsim
{
namespace
{

constexpr Addr kDataBase = 0x20000;
constexpr std::uint64_t kDataWords = 1024;
constexpr std::uint64_t kIterations = 1500;

/**
 * Loop whose control flow depends on random data: each iteration loads
 * a pseudo-random word and takes three branches keyed to independent
 * bits of it, with enough ALU filler on every path that a mispredict
 * flushes a deep wrong-path window.
 */
Program
stormProgram(std::uint64_t seed, std::uint64_t iterations = kIterations)
{
    Rng rng(seed);
    Assembler assembler("squash-storm");

    for (std::uint64_t i = 0; i < kDataWords; ++i)
        assembler.data(kDataBase + i * 8, rng.next());

    // x1: data base, x2: LCG state, x3: running checksum,
    // x20: loop counter, x21: bound.
    assembler.li(1, kDataBase)
        .li(2, rng.next() | 1)
        .li(3, 0)
        .li(20, 0)
        .li(21, iterations);

    assembler.label("loop");

    // x2 = x2 * 6364136223846793005 + 1442695040888963407 (MMIX LCG).
    assembler.li(4, 6364136223846793005ull)
        .mul(2, 2, 4)
        .li(4, 1442695040888963407ull)
        .add(2, 2, 4);

    // Load a data word selected by the LCG's high bits.
    assembler.srli(5, 2, 50)
        .andi(5, 5, (kDataWords - 1) * 8)
        .andi(5, 5, ~7LL)
        .add(5, 5, 1)
        .ld(6, 5);

    // Three data-dependent branches on independent bits of the loaded
    // word. Each arm mixes a different constant into the checksum so a
    // wrong-path commit (a pool aliasing bug) changes the final state.
    assembler.andi(7, 6, 1 << 3)
        .beq(7, 0, "even_a")
        .xori(3, 3, 0x1111)
        .add(3, 3, 6)
        .jmp("join_a")
        .label("even_a")
        .xori(3, 3, 0x2222)
        .sub(3, 3, 6)
        .label("join_a");

    assembler.andi(7, 6, 1 << 17)
        .beq(7, 0, "even_b")
        .slli(8, 6, 1)
        .add(3, 3, 8)
        .jmp("join_b")
        .label("even_b")
        .srli(8, 6, 1)
        .xor_(3, 3, 8)
        .label("join_b");

    assembler.andi(7, 6, 1 << 31)
        .beq(7, 0, "even_c")
        .mul(9, 6, 4)
        .xor_(3, 3, 9)
        .label("even_c");

    // Store the checksum back so memory state also witnesses ordering.
    assembler.andi(10, 3, (kDataWords - 1) * 8)
        .andi(10, 10, ~7LL)
        .add(10, 10, 1)
        .st(3, 10);

    assembler.addi(20, 20, 1).blt(20, 21, "loop").halt();
    return assembler.finish();
}

TEST(SquashStormTest, PoolBoundedAndStateMatchesOracle)
{
    const Program program = stormProgram(0xdead5eed);

    FunctionalCore oracle(program);
    oracle.run(10'000'000);
    ASSERT_TRUE(oracle.halted());

    for (const SimConfig &config : evaluationConfigs(SimConfig{})) {
        SimConfig cfg = config;
        cfg.maxCycles = 20'000'000;

        StatRegistry stats;
        OooCore core(program, cfg, stats);

        // The pool may hold one entry per ROB slot plus squashed
        // stragglers parked in the lazily filtered exec/branch lists
        // (bounded by the in-flight window) for up to a cycle.
        const std::size_t bound = 2 * cfg.robEntries;
        std::size_t high_water = 0;
        while (!core.done()) {
            core.tick();
            high_water = std::max(high_water, core.dynInstPoolLive());
            ASSERT_LE(core.dynInstPoolLive(), bound)
                << cfg.label() << ": pool leak at cycle " << core.cycle();
        }

        // Slabs are allocated in fixed-size chunks, so total capacity
        // must stay within one slab of the high-water mark: steady
        // state recycles instead of allocating.
        EXPECT_LE(core.dynInstPoolCapacity(),
                  ((high_water / DynInstPool::kSlabEntries) + 1) *
                      DynInstPool::kSlabEntries)
            << cfg.label() << ": pool grew past its high-water mark";
        EXPECT_EQ(core.dynInstPoolLive(), 0u)
            << cfg.label() << ": instructions still live after HALT";

        // The storm must actually have stormed.
        EXPECT_GE(stats.get("core.branchSquashes"), 1000u) << cfg.label();

        const std::string label = program.name + " under " + cfg.label();
        for (unsigned reg = 1; reg < kNumArchRegs; ++reg) {
            ASSERT_EQ(core.archReg(static_cast<RegIndex>(reg)),
                      oracle.reg(static_cast<RegIndex>(reg)))
                << label << ", x" << reg;
        }
        for (const auto &[addr, value] : oracle.memory().words()) {
            ASSERT_EQ(core.dataMemory().read(addr), value)
                << label << ", mem[" << addr << "]";
        }
    }
}

/** operator new calls made building @p config's core for @p program
 * and running it to @p instructions committed instructions. */
std::size_t
allocationsFor(const Program &program, SimConfig config,
               std::uint64_t instructions)
{
    config.maxInstructions = instructions;
    const std::size_t before = g_allocations.load();
    StatRegistry stats;
    OooCore core(program, config, stats);
    EXPECT_EQ(core.run(), instructions) << config.label();
    return g_allocations.load() - before;
}

TEST(SquashStormTest, SteadyStateCycleLoopDoesNotAllocate)
{
    // The storm's 8 KiB data set is all in memory from the start, and
    // its squashes exercise every queue's pop_back path. Long enough
    // (~560k instructions) that neither budget reaches HALT.
    const Program program = stormProgram(0xdead5eed, 20'000);
    // Past warm-up: the per-register consumer lists and the other
    // window-sized vectors are near their high-water marks by now.
    constexpr std::uint64_t kShort = 20'000;
    // Those vectors may still double a few more times in the longer
    // run; a per-instruction or per-queue-wrap allocation (a deque
    // node every 64 entries) adds tens of thousands.
    constexpr std::size_t kSlack = 64;
    for (const SimConfig &config : evaluationConfigs(SimConfig{})) {
        const std::size_t shortRun = allocationsFor(program, config, kShort);
        const std::size_t longRun =
            allocationsFor(program, config, 10 * kShort);
        EXPECT_LE(longRun, shortRun + kSlack)
            << config.label() << ": " << shortRun << " allocations at "
            << kShort << " instructions, " << longRun << " at "
            << 10 * kShort;
    }
}

} // namespace
} // namespace dgsim
