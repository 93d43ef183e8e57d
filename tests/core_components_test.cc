/**
 * @file
 * Unit tests for the core's bookkeeping components: the pipeline
 * queues' ring buffer, physical register file with RAT/free list,
 * shadow tracker, and STT taint tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/regfile.hh"
#include "cpu/ring.hh"
#include "cpu/shadow_tracker.hh"
#include "secure/taint_tracker.hh"

namespace dgsim
{
namespace
{

// --- Ring ----------------------------------------------------------------

/** Contents of @p ring oldest first, via its forward iterators. */
std::vector<int>
contents(const Ring<int> &ring)
{
    return {ring.begin(), ring.end()};
}

/** A ring of capacity 5 (8 slots) whose live range straddles the wrap
 * point: holds 10..14 in slots 6, 7, 0, 1, 2. */
Ring<int>
wrappedRing()
{
    Ring<int> ring(5);
    for (int i = 0; i < 6; ++i) {
        ring.push_back(i);
        ring.pop_front();
    }
    for (int i = 10; i < 15; ++i)
        ring.push_back(i);
    return ring;
}

TEST(RingTest, PushPopAcrossTheWrapPoint)
{
    Ring<int> ring(5);
    EXPECT_EQ(ring.capacity(), 5u);
    EXPECT_TRUE(ring.empty());
    // Cycle 40 values through: the head wraps the 8 slots five times.
    int next_out = 0;
    for (int i = 0; i < 40; ++i) {
        ring.push_back(i);
        if (ring.size() == 5) {
            EXPECT_EQ(ring.front(), next_out);
            EXPECT_EQ(ring.back(), i);
            ring.pop_front();
            ++next_out;
        }
    }
    EXPECT_EQ(contents(ring), (std::vector<int>{36, 37, 38, 39}));
}

TEST(RingTest, PopBackAfterWrap)
{
    Ring<int> ring = wrappedRing();
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 11, 12, 13, 14}));
    // Squash-style suffix pops walk back over the wrap point.
    while (!ring.empty() && ring.back() >= 11)
        ring.pop_back();
    EXPECT_EQ(contents(ring), (std::vector<int>{10}));
    ring.push_back(20);
    ring.push_back(21);
    EXPECT_EQ(contents(ring), (std::vector<int>{10, 20, 21}));
}

TEST(RingTest, LowerBoundAndReverseScanOverWrappedRange)
{
    const Ring<int> ring = wrappedRing();
    for (int key = 9; key <= 15; ++key) {
        const auto it = std::lower_bound(ring.begin(), ring.end(), key);
        EXPECT_EQ(it - ring.begin(), std::max(0, std::min(key, 15) - 10))
            << key;
        if (it != ring.end()) {
            EXPECT_EQ(*it, std::max(key, 10));
        }
    }
    EXPECT_EQ(std::vector<int>(ring.rbegin(), ring.rend()),
              (std::vector<int>{14, 13, 12, 11, 10}));
    // The youngest-first search loadValueNow and tryDemandIssue run.
    const auto older = std::find_if(ring.rbegin(), ring.rend(),
                                    [](int v) { return v < 13; });
    ASSERT_NE(older, ring.rend());
    EXPECT_EQ(*older, 12);
}

TEST(RingTest, ClearEmptiesAndRefills)
{
    Ring<int> ring = wrappedRing();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.begin(), ring.end());
    for (int i = 0; i < 5; ++i)
        ring.push_back(i);
    EXPECT_EQ(contents(ring), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RingTest, OverflowPanics)
{
    Ring<int> ring(2);
    ring.push_back(1);
    ring.push_back(2);
    EXPECT_DEATH(ring.push_back(3), "ring overflow");
}

// --- RegFile -------------------------------------------------------------

TEST(RegFileTest, InitialMappingIsIdentityAndReady)
{
    RegFile regfile(64);
    for (unsigned i = 0; i < kNumArchRegs; ++i) {
        EXPECT_EQ(regfile.lookup(static_cast<RegIndex>(i)), i);
        EXPECT_TRUE(regfile.ready(static_cast<PhysReg>(i)));
    }
    EXPECT_EQ(regfile.numFree(), 64u - kNumArchRegs);
}

TEST(RegFileTest, RenameAllocatesFreshUnreadyRegister)
{
    RegFile regfile(64);
    auto [fresh, previous] = regfile.rename(5);
    EXPECT_EQ(previous, 5u);
    EXPECT_NE(fresh, previous);
    EXPECT_FALSE(regfile.ready(fresh));
    EXPECT_EQ(regfile.lookup(5), fresh);
}

TEST(RegFileTest, RollbackRestoresMappingYoungestFirst)
{
    RegFile regfile(64);
    auto [p1, prev1] = regfile.rename(3);
    auto [p2, prev2] = regfile.rename(3);
    EXPECT_EQ(prev2, p1);
    const unsigned free_before = regfile.numFree();
    regfile.rollback(3, p2, prev2);
    EXPECT_EQ(regfile.lookup(3), p1);
    regfile.rollback(3, p1, prev1);
    EXPECT_EQ(regfile.lookup(3), 3u);
    EXPECT_EQ(regfile.numFree(), free_before + 2);
}

TEST(RegFileTest, CommitReleasesPreviousMapping)
{
    RegFile regfile(64);
    const unsigned free_before = regfile.numFree();
    auto [fresh, previous] = regfile.rename(7);
    EXPECT_EQ(regfile.numFree(), free_before - 1);
    regfile.releaseAtCommit(previous);
    EXPECT_EQ(regfile.numFree(), free_before);
    (void)fresh;
}

TEST(RegFileTest, ArchValueFollowsCurrentMapping)
{
    RegFile regfile(64);
    regfile.setValue(4, 111);
    EXPECT_EQ(regfile.archValue(4), 111u);
    auto [fresh, previous] = regfile.rename(4);
    (void)previous;
    regfile.setValue(fresh, 222);
    EXPECT_EQ(regfile.archValue(4), 222u);
}

// --- ShadowTracker ---------------------------------------------------------

TEST(ShadowTrackerTest, OlderCasterShadowsYounger)
{
    ShadowTracker shadows;
    shadows.cast(10);
    EXPECT_FALSE(shadows.isShadowed(10)) << "a caster is not self-shadowed";
    EXPECT_TRUE(shadows.isShadowed(11));
    EXPECT_FALSE(shadows.isShadowed(9));
    shadows.release(10);
    EXPECT_FALSE(shadows.isShadowed(11));
}

TEST(ShadowTrackerTest, OldestWins)
{
    ShadowTracker shadows;
    shadows.cast(20);
    shadows.cast(5);
    EXPECT_EQ(shadows.oldest(), 5u);
    EXPECT_TRUE(shadows.isShadowed(6));
    shadows.release(5);
    EXPECT_EQ(shadows.oldest(), 20u);
    EXPECT_FALSE(shadows.isShadowed(6));
    EXPECT_TRUE(shadows.isShadowed(25));
}

TEST(ShadowTrackerTest, SquashRemovesYoungerCasters)
{
    ShadowTracker shadows;
    shadows.cast(10);
    shadows.cast(20);
    shadows.cast(30);
    shadows.squashYoungerThan(15);
    EXPECT_EQ(shadows.size(), 1u);
    EXPECT_TRUE(shadows.isShadowed(11));
    EXPECT_FALSE(shadows.isShadowed(10));
}

// --- TaintTracker ------------------------------------------------------------

TEST(TaintTrackerTest, RootLifecycle)
{
    TaintTracker taints;
    EXPECT_FALSE(taints.tainted(5));
    taints.addRoot(5);
    EXPECT_TRUE(taints.tainted(5));
    taints.clearRoot(5);
    EXPECT_FALSE(taints.tainted(5));
    EXPECT_FALSE(taints.tainted(kInvalidSeq));
}

TEST(TaintTrackerTest, CombinePicksYoungestLiveRoot)
{
    TaintTracker taints;
    taints.addRoot(5);
    taints.addRoot(9);
    EXPECT_EQ(taints.combine(5, 9), 9u);
    EXPECT_EQ(taints.combine(9, kInvalidSeq), 9u);
    EXPECT_EQ(taints.combine(kInvalidSeq, kInvalidSeq), kInvalidSeq);
    // A cleared root no longer taints the combination.
    taints.clearRoot(9);
    EXPECT_EQ(taints.combine(5, 9), 5u);
    taints.clearRoot(5);
    EXPECT_EQ(taints.combine(5, 9), kInvalidSeq);
}

TEST(TaintTrackerTest, SquashDropsYoungRoots)
{
    TaintTracker taints;
    taints.addRoot(10);
    taints.addRoot(20);
    taints.squashYoungerThan(15);
    EXPECT_TRUE(taints.tainted(10));
    EXPECT_FALSE(taints.tainted(20));
}

} // namespace
} // namespace dgsim
