/**
 * @file
 * Work bound of the event-driven wakeup structures.
 *
 * Select walks only the ready list, writeback only the due arrival
 * events and the loads whose data has arrived, and memory issue only
 * the address-ready loads (plus the short doppelganger list). The core
 * counts every entry those three stages examine in host counters
 * (outside the golden dump). This test pins the counts per committed
 * instruction under fixed bounds, so a change that brings back a
 * per-cycle poll of the IQ or LQ fails here deterministically, with no
 * timing involved.
 *
 * For scale, on these 24 runs: polling the whole IQ and LQ every cycle
 * examines about 55 select, 28 writeback and 20 memory-issue entries
 * per committed instruction (matrix-wide means); the lists examine
 * about 1.3, 1.0 and 2.2.
 */

#include <iterator>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace dgsim
{
namespace
{

constexpr std::uint64_t kInstructions = 20'000;

/// Memory-bound pointer chase, branchy, and strided multi-array.
const char *const kWorkloads[] = {"mcf", "gobmk", "hmmer"};

struct Bound
{
    const char *counter;
    double perRun;    ///< Cap for any one workload/config run.
    double perMatrix; ///< Cap over all runs together.
};

/// About twice the highest observed value (per run) and twice the
/// observed matrix-wide mean (per matrix). Gate-blocked entries stay on
/// their list and are revisited each cycle (their retry memo makes the
/// revisit one compare), which is what the per-run caps leave room for.
const Bound kBounds[] = {
    {"core.selectVisits", 4.0, 2.5},
    {"core.writebackVisits", 12.0, 2.5},
    {"core.memIssueVisits", 24.0, 4.5},
};

TEST(WakeupWorkTest, VisitsPerCommittedInstructionStayBounded)
{
    SimConfig base;
    base.maxInstructions = kInstructions;
    base.maxCycles = kInstructions * 200;
    std::uint64_t committed = 0;
    std::uint64_t totals[std::size(kBounds)] = {};
    for (const char *name : kWorkloads) {
        const Program program = workloads::findWorkload(name).build(0);
        for (const SimConfig &config : evaluationConfigs(base)) {
            StatRegistry stats;
            OooCore core(program, config, stats);
            core.run();
            ASSERT_EQ(core.committed(), kInstructions);
            committed += core.committed();
            for (std::size_t i = 0; i < std::size(kBounds); ++i) {
                const std::uint64_t visits =
                    stats.hostGet(kBounds[i].counter);
                totals[i] += visits;
                EXPECT_LT(static_cast<double>(visits) /
                              static_cast<double>(core.committed()),
                          kBounds[i].perRun)
                    << name << " / " << config.label() << ": "
                    << kBounds[i].counter << " per committed instruction";
            }
        }
    }
    for (std::size_t i = 0; i < std::size(kBounds); ++i) {
        const double per_instruction = static_cast<double>(totals[i]) /
                                       static_cast<double>(committed);
        EXPECT_GT(per_instruction, 0.0)
            << kBounds[i].counter << " is not being counted";
        EXPECT_LT(per_instruction, kBounds[i].perMatrix)
            << kBounds[i].counter
            << " per committed instruction, matrix-wide";
    }
}

} // namespace
} // namespace dgsim
