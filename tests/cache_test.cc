/**
 * @file
 * Unit tests for the memory substrate: cache tag array, MSHR file and
 * the three-level hierarchy (including the Delay-on-Miss semantics and
 * the security digest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"

namespace dgsim
{
namespace
{

CacheConfig
tinyCacheConfig()
{
    // 4 sets x 2 ways x 64B.
    return CacheConfig{"test", 512, 2, 64, 3, 4};
}

TEST(CacheTest, MissThenHit)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    EXPECT_FALSE(cache.lookup(100, true).present);
    cache.install(100, 0, false);
    EXPECT_TRUE(cache.lookup(100, true).present);
    EXPECT_TRUE(cache.probe(100));
    EXPECT_FALSE(cache.probe(101));
}

TEST(CacheTest, LruEviction)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    // Lines 0, 4, 8 all map to set 0 (4 sets); 2 ways.
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    cache.lookup(0, true); // 0 is now MRU.
    cache.install(8, 0, false);
    EXPECT_TRUE(cache.probe(0));  // survived (MRU)
    EXPECT_FALSE(cache.probe(4)); // evicted (LRU)
    EXPECT_TRUE(cache.probe(8));
}

TEST(CacheTest, DelayedLruUpdateChangesVictimChoice)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    // DoM speculative hit: no replacement update.
    cache.lookup(0, /*update_lru=*/false);
    cache.install(8, 0, false);
    // Without the update, 0 was LRU and is the victim.
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(4));
}

TEST(CacheTest, RetroactiveTouchAtCommit)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    cache.lookup(0, false); // speculative hit, no update
    cache.touch(0);         // commit-time retroactive update
    cache.install(8, 0, false);
    EXPECT_TRUE(cache.probe(0)); // survived thanks to the touch
    EXPECT_FALSE(cache.probe(4));
}

TEST(CacheTest, DirtyEvictionCountsWriteback)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, true); // dirty
    cache.install(4, 0, false);
    const Addr victim = cache.install(8, 0, false);
    EXPECT_EQ(victim, 0u); // dirty victim's address returned
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST(CacheTest, InvalidateRemovesLine)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.invalidate(0);
    EXPECT_FALSE(cache.probe(0));
}

TEST(CacheTest, HashIgnoresAccessCountButSeesContent)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    a.install(0, 0, false);
    b.install(0, 0, false);
    // Extra lookups must not change the digest (same recency order).
    a.lookup(0, true);
    a.lookup(0, true);
    std::uint64_t ha = 0xcbf29ce484222325ULL;
    std::uint64_t hb = 0xcbf29ce484222325ULL;
    a.hashState(ha);
    b.hashState(hb);
    EXPECT_EQ(ha, hb);

    // Different content must change it.
    b.install(4, 0, false);
    hb = 0xcbf29ce484222325ULL;
    b.hashState(hb);
    EXPECT_NE(ha, hb);
}

TEST(CacheTest, HashSeesRecencyOrder)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    a.install(0, 0, false);
    a.install(4, 0, false);
    b.install(0, 0, false);
    b.install(4, 0, false);
    // Reverse the recency in b only.
    b.lookup(0, true);
    std::uint64_t ha = 0xcbf29ce484222325ULL;
    std::uint64_t hb = 0xcbf29ce484222325ULL;
    a.hashState(ha);
    b.hashState(hb);
    EXPECT_NE(ha, hb) << "replacement order is attacker-visible state";
}

// --- Digest reference, touched sets and recycled arrays -----------------

/**
 * The security digest written out in full: word-wise FNV-1a over
 * (set, way, valid, tag, rank) for every way, rank being the number of
 * valid lines in the set with a strictly smaller LRU stamp, chained
 * from @p hash. Independent of Cache's own code on purpose.
 */
std::uint64_t
referenceDigest(const Cache &cache, std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto mix = [&hash](std::uint64_t value) {
        hash ^= value;
        hash *= 0x100000001b3ULL;
    };
    const unsigned assoc = cache.config().assoc;
    const unsigned sets = cache.config().numSets();
    const std::vector<CacheLine> &lines = cache.lines();
    EXPECT_EQ(lines.size(), static_cast<std::size_t>(sets) * assoc);
    for (unsigned set = 0; set < sets; ++set) {
        const CacheLine *base = &lines[static_cast<std::size_t>(set) * assoc];
        for (unsigned way = 0; way < assoc; ++way) {
            const CacheLine &line = base[way];
            std::uint64_t rank = 0;
            if (line.valid) {
                for (unsigned other = 0; other < assoc; ++other)
                    if (base[other].valid &&
                        base[other].lruStamp < line.lruStamp)
                        ++rank;
            }
            mix(set);
            mix(way);
            mix(line.valid ? 1 : 0);
            mix(line.valid ? line.tag : 0);
            mix(rank);
        }
    }
    return hash;
}

std::uint64_t
digestOf(const Cache &cache)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    cache.hashState(hash);
    return hash;
}

/** Every line default and no warm state: what a new cache looks like. */
void
expectFresh(const Cache &cache)
{
    for (const CacheLine &line : cache.lines()) {
        ASSERT_FALSE(line.valid);
        ASSERT_EQ(line.tag, 0u);
        ASSERT_FALSE(line.dirty);
        ASSERT_EQ(line.readyAt, 0u);
        ASSERT_EQ(line.lruStamp, 0u);
    }
    for (const auto &set : cache.exportWarmState().sets)
        ASSERT_TRUE(set.empty());
    EXPECT_EQ(digestOf(cache), referenceDigest(cache));
}

/**
 * Random traffic over a few thousand line addresses: fills (some dirty), LRU-updating and non-updating hits, commit
 * touches and invalidations, so some sets end up emptied again.
 */
std::vector<Addr>
randomTraffic(Cache &cache, std::uint64_t seed, unsigned ops)
{
    Rng rng(seed);
    const Addr span = 4ULL * cache.config().assoc * 97;
    std::vector<Addr> filled;
    for (unsigned i = 0; i < ops; ++i) {
        const Addr line = rng.below(span) * 3 + (seed & 1);
        switch (rng.below(6)) {
          case 0:
          case 1:
            cache.install(line, i, rng.below(4) == 0);
            filled.push_back(line);
            break;
          case 2: cache.lookup(line, true); break;
          case 3: cache.lookup(line, false); break;
          case 4: cache.touch(line); break;
          default: cache.invalidate(line); break;
        }
    }
    return filled;
}

std::vector<CacheConfig>
table1Geometries()
{
    const SimConfig config;
    return {config.l1d, config.l2, config.l3};
}

TEST(CacheDigestTest, UntouchedCacheMatchesReference)
{
    for (const CacheConfig &geometry : table1Geometries()) {
        StatRegistry stats;
        Cache cache(geometry, stats);
        EXPECT_EQ(digestOf(cache), referenceDigest(cache)) << geometry.name;
    }
}

TEST(CacheDigestTest, RandomFillsMatchReference)
{
    for (const CacheConfig &geometry : table1Geometries()) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            StatRegistry stats;
            Cache cache(geometry, stats);
            randomTraffic(cache, seed, 4000);
            EXPECT_EQ(digestOf(cache), referenceDigest(cache))
                << geometry.name << " seed " << seed;
        }
    }
}

TEST(CacheDigestTest, SetsInvalidatedBackToEmptyHashAsUntouched)
{
    for (const CacheConfig &geometry : table1Geometries()) {
        StatRegistry stats;
        Cache fresh(geometry, stats);
        Cache cache(geometry, stats);
        const unsigned sets = geometry.numSets();
        // Fill three sets completely, then empty them again.
        std::vector<Addr> lines;
        for (unsigned set : {0u, 1u, sets - 1})
            for (unsigned way = 0; way < geometry.assoc; ++way)
                lines.push_back(set + static_cast<Addr>(way) * sets);
        for (Addr line : lines)
            cache.install(line, 0, true);
        EXPECT_NE(digestOf(cache), digestOf(fresh));
        EXPECT_EQ(digestOf(cache), referenceDigest(cache));
        for (Addr line : lines)
            cache.invalidate(line);
        EXPECT_EQ(digestOf(cache), referenceDigest(cache)) << geometry.name;
        EXPECT_EQ(digestOf(cache), digestOf(fresh))
            << "an emptied set is the same state as a never-used one";
    }
}

TEST(CacheDigestTest, RestoredCacheMatchesReference)
{
    for (const CacheConfig &geometry : table1Geometries()) {
        StatRegistry stats;
        Cache source(geometry, stats);
        randomTraffic(source, 7, 4000);
        const CacheWarmState state = source.exportWarmState();

        // Restore over a cache holding unrelated lines: they must go.
        Cache target(geometry, stats);
        const std::vector<Addr> stale = randomTraffic(target, 8, 4000);
        target.restoreWarmState(state);
        EXPECT_EQ(digestOf(target), referenceDigest(target))
            << geometry.name;
        EXPECT_EQ(target.exportWarmState().sets, state.sets);
        for (Addr line : stale)
            EXPECT_EQ(target.probe(line), source.probe(line));

        // Restoring an empty state leaves a fresh cache.
        Cache empty(geometry, stats);
        target.restoreWarmState(empty.exportWarmState());
        expectFresh(target);
    }
}

TEST(CacheReuseTest, RebuiltCacheIsFresh)
{
    for (const CacheConfig &geometry : table1Geometries()) {
        StatRegistry stats;
        auto cache = std::make_unique<Cache>(geometry, stats);
        const CacheLine *array = cache->lines().data();
        const std::vector<Addr> filled = randomTraffic(*cache, 11, 4000);
        ASSERT_FALSE(filled.empty());
        cache.reset();

        cache = std::make_unique<Cache>(geometry, stats);
        EXPECT_EQ(cache->lines().data(), array)
            << "the array should be recycled on the same thread";
        for (Addr line : filled)
            EXPECT_FALSE(cache->probe(line));
        expectFresh(*cache);
        Cache never_used(geometry, stats);
        EXPECT_EQ(digestOf(*cache), digestOf(never_used));
    }
}

TEST(CacheReuseTest, TwoLiveCachesOfOneGeometryShareNothing)
{
    const CacheConfig geometry = SimConfig{}.l2;
    StatRegistry stats;
    for (int round = 0; round < 3; ++round) {
        Cache a(geometry, stats);
        Cache b(geometry, stats);
        ASSERT_NE(a.lines().data(), b.lines().data());
        expectFresh(a);
        expectFresh(b);
        randomTraffic(a, 20 + round, 3000);
        randomTraffic(b, 30 + round, 3000);
        EXPECT_EQ(digestOf(a), referenceDigest(a));
        EXPECT_EQ(digestOf(b), referenceDigest(b));
    }
}

TEST(CacheReuseTest, DestroyOnAnotherThread)
{
    const CacheConfig geometry = SimConfig{}.l2;
    StatRegistry stats;
    {
        // Built here, filled, destroyed on a thread that never built one.
        auto cache = std::make_unique<Cache>(geometry, stats);
        randomTraffic(*cache, 41, 3000);
        std::thread([owned = std::move(cache)]() mutable {
            owned.reset();
        }).join();
    }
    {
        // Built on another thread, destroyed here.
        std::unique_ptr<Cache> cache;
        std::thread([&] {
            cache = std::make_unique<Cache>(geometry, stats);
            randomTraffic(*cache, 42, 3000);
        }).join();
        cache.reset();
    }
    Cache rebuilt(geometry, stats);
    expectFresh(rebuilt);
}

// --- Empty-stretch reuse in the digest ----------------------------------
//
// hashState() takes a run of untouched sets from the previous digest of
// the same geometry on this thread when the run's first set, end set and
// incoming hash all match. Every digest below is checked against
// referenceDigest(), and Cache::digestEmptyWaysMixed() shows how much
// was mixed afresh.

/** 4 sets x 4 ways: the set count of tinyCacheConfig(), twice the ways. */
CacheConfig
tinyFourWayConfig()
{
    return CacheConfig{"test4", 1024, 4, 64, 3, 4};
}

std::vector<CacheConfig>
allGeometries()
{
    std::vector<CacheConfig> geometries = {tinyCacheConfig(),
                                           tinyFourWayConfig()};
    for (const CacheConfig &geometry : table1Geometries())
        geometries.push_back(geometry);
    return geometries;
}

/** Install @p ways lines into @p set, tags offset by @p salt sets. */
void
fillSet(Cache &cache, unsigned set, unsigned ways, Addr salt = 0)
{
    const Addr sets = cache.config().numSets();
    for (unsigned way = 0; way < ways; ++way)
        cache.install(set + (salt + way) * sets, 0, false);
}

/** Empty ways mixed afresh by one digest of @p cache from @p hash. */
std::uint64_t
emptyWaysMixedBy(const Cache &cache, std::uint64_t &hash)
{
    const std::uint64_t before = Cache::digestEmptyWaysMixed();
    cache.hashState(hash);
    return Cache::digestEmptyWaysMixed() - before;
}

/**
 * Ways of the sets of @p cache from @p first on that hold no valid line:
 * its untouched sets, as long as nothing was invalidated.
 */
std::uint64_t
emptyWaysFrom(const Cache &cache, unsigned first)
{
    const unsigned assoc = cache.config().assoc;
    const std::vector<CacheLine> &lines = cache.lines();
    std::uint64_t ways = 0;
    for (unsigned set = first; set < cache.config().numSets(); ++set) {
        const auto base = lines.begin() + static_cast<long>(set) * assoc;
        if (std::none_of(base, base + assoc,
                         [](const CacheLine &line) { return line.valid; }))
            ways += assoc;
    }
    return ways;
}

TEST(CacheDigestReuseTest, RepeatedDigestMixesNoEmptyWay)
{
    for (const CacheConfig &geometry : allGeometries()) {
        StatRegistry stats;
        Cache cache(geometry, stats);
        fillSet(cache, geometry.numSets() / 2, 1);
        std::uint64_t first = fnv::kOffset;
        EXPECT_EQ(emptyWaysMixedBy(cache, first), emptyWaysFrom(cache, 0))
            << geometry.name;
        std::uint64_t again = fnv::kOffset;
        EXPECT_EQ(emptyWaysMixedBy(cache, again), 0u) << geometry.name;
        EXPECT_EQ(first, referenceDigest(cache)) << geometry.name;
        EXPECT_EQ(again, first) << geometry.name;
    }
}

TEST(CacheDigestReuseTest, OneDifferingSetRemixesFromThatSetOn)
{
    for (const CacheConfig &geometry : allGeometries()) {
        const unsigned sets = geometry.numSets();
        for (unsigned k : {0u, sets / 2, sets - 1}) {
            // Same set count and assoc; both hold set k, with one tag
            // apart, plus the same lines a quarter and three quarters in.
            StatRegistry stats;
            Cache a(geometry, stats);
            Cache b(geometry, stats);
            for (Cache *cache : {&a, &b}) {
                fillSet(*cache, sets / 4, 1);
                fillSet(*cache, 3 * sets / 4, geometry.assoc);
            }
            fillSet(a, k, 1);
            fillSet(b, k, 1, /*salt=*/1);

            std::uint64_t ha = fnv::kOffset;
            std::uint64_t hb = fnv::kOffset;
            emptyWaysMixedBy(a, ha);
            EXPECT_EQ(emptyWaysMixedBy(b, hb), emptyWaysFrom(b, k))
                << geometry.name << " set " << k
                << ": stretches before set k are reused, none after it";
            EXPECT_EQ(ha, referenceDigest(a)) << geometry.name << " " << k;
            EXPECT_EQ(hb, referenceDigest(b)) << geometry.name << " " << k;
            EXPECT_NE(ha, hb);

            // Set k touched in one cache only: the stretch around it
            // shares its first set and incoming hash but not its end.
            Cache c(geometry, stats);
            fillSet(c, sets / 4, 1);
            fillSet(c, 3 * sets / 4, geometry.assoc);
            std::uint64_t hc = fnv::kOffset;
            emptyWaysMixedBy(c, hc);
            EXPECT_EQ(hc, referenceDigest(c)) << geometry.name << " " << k;
            hb = fnv::kOffset;
            b.hashState(hb);
            EXPECT_EQ(hb, referenceDigest(b)) << geometry.name << " " << k;
            ha = fnv::kOffset;
            a.hashState(ha);
            EXPECT_EQ(ha, referenceDigest(a)) << geometry.name << " " << k;
        }
    }
}

TEST(CacheDigestReuseTest, SameLowerLevelsUnderADifferentL1)
{
    // The L2 and L3 hold the same lines in both chains, so their
    // stretches have the same bounds; only the hash coming in differs.
    const SimConfig config;
    StatRegistry stats;
    Cache l1a(config.l1d, stats);
    Cache l1b(config.l1d, stats);
    Cache l2(config.l2, stats);
    Cache l3(config.l3, stats);
    fillSet(l1a, 0, 1);
    fillSet(l1b, 1, 1);
    for (unsigned set = 5; set < config.l2.numSets(); set += 7)
        fillSet(l2, set, 1 + set % config.l2.assoc);
    for (unsigned set = 3; set < config.l3.numSets(); set += 11)
        fillSet(l3, set, 1 + set % config.l3.assoc);
    const auto chain = [&](const Cache &l1, std::uint64_t &hash) {
        const std::uint64_t before = Cache::digestEmptyWaysMixed();
        l1.hashState(hash);
        l2.hashState(hash);
        l3.hashState(hash);
        return Cache::digestEmptyWaysMixed() - before;
    };
    const auto reference = [&](const Cache &l1) {
        return referenceDigest(l3, referenceDigest(l2, referenceDigest(l1)));
    };
    std::uint64_t ha = fnv::kOffset;
    chain(l1a, ha);
    std::uint64_t hb = fnv::kOffset;
    const std::uint64_t mixed = chain(l1b, hb);
    EXPECT_EQ(ha, reference(l1a));
    EXPECT_EQ(hb, reference(l1b));
    EXPECT_NE(ha, hb);
    EXPECT_EQ(mixed, emptyWaysFrom(l1b, 0) + emptyWaysFrom(l2, 0) +
                         emptyWaysFrom(l3, 0))
        << "no L2 or L3 stretch may be reused from another entry hash";
    std::uint64_t again = fnv::kOffset;
    EXPECT_EQ(chain(l1b, again), 0u);
    EXPECT_EQ(again, hb);
}

TEST(CacheDigestReuseTest, GeometriesInterleavedOnOneThread)
{
    // One empty and one used cache per geometry, digested empties
    // first: the two tiny geometries share a set count and differ in
    // assoc, so their empty digests meet the same stretch bounds and
    // entry hash back to back. The empties are filled after round 1.
    StatRegistry stats;
    std::vector<std::unique_ptr<Cache>> empties;
    std::vector<std::unique_ptr<Cache>> used;
    for (const CacheConfig &geometry : allGeometries()) {
        empties.push_back(std::make_unique<Cache>(geometry, stats));
        used.push_back(std::make_unique<Cache>(geometry, stats));
        randomTraffic(*used.back(), used.size(), 1500);
    }
    for (int round = 0; round < 3; ++round) {
        for (const auto *group : {&empties, &used}) {
            for (const auto &cache : *group) {
                EXPECT_EQ(digestOf(*cache), referenceDigest(*cache))
                    << cache->config().name << " round " << round;
            }
        }
        if (round == 1) {
            for (std::size_t i = 0; i < empties.size(); ++i)
                randomTraffic(*empties[i], 100 + i, 200);
        }
    }
}

TEST(CacheDigestReuseTest, ConcurrentThreadsKeepTheirOwnRecords)
{
    const SimConfig config;
    constexpr int kRounds = 4;
    struct Outcome
    {
        std::vector<std::uint64_t> digests;
        std::uint64_t reference = 0;
        std::uint64_t repeatsMixed = 0;
    };
    const auto worker = [&](std::uint64_t seed, Outcome &out) {
        StatRegistry stats;
        Cache l2(config.l2, stats);
        Cache l3(config.l3, stats);
        randomTraffic(l2, seed, 2000);
        randomTraffic(l3, seed + 1, 2000);
        for (int round = 0; round < kRounds; ++round) {
            const std::uint64_t before = Cache::digestEmptyWaysMixed();
            std::uint64_t hash = fnv::kOffset;
            l2.hashState(hash);
            l3.hashState(hash);
            if (round > 0)
                out.repeatsMixed += Cache::digestEmptyWaysMixed() - before;
            out.digests.push_back(hash);
        }
        out.reference = referenceDigest(l3, referenceDigest(l2));
    };
    Outcome a;
    Outcome b;
    std::thread ta(worker, 61, std::ref(a));
    std::thread tb(worker, 71, std::ref(b));
    ta.join();
    tb.join();
    for (const Outcome *out : {&a, &b}) {
        ASSERT_EQ(out->digests.size(), static_cast<std::size_t>(kRounds));
        for (std::uint64_t digest : out->digests)
            EXPECT_EQ(digest, out->reference);
        EXPECT_EQ(out->repeatsMixed, 0u)
            << "each thread reuses its own previous digest";
    }
    EXPECT_NE(a.reference, b.reference);
}

// --- MSHR --------------------------------------------------------------

TEST(MshrTest, CapacityAndReclaim)
{
    MshrFile mshrs(2);
    EXPECT_TRUE(mshrs.allocate(1, 0, 100));
    EXPECT_TRUE(mshrs.allocate(2, 0, 100));
    EXPECT_FALSE(mshrs.allocate(3, 0, 100)) << "file must be full";
    EXPECT_TRUE(mshrs.full(50));
    // After the fills complete, entries are reclaimable.
    EXPECT_FALSE(mshrs.full(101));
    EXPECT_TRUE(mshrs.allocate(3, 101, 200));
}

TEST(MshrTest, FindInFlight)
{
    MshrFile mshrs(4);
    mshrs.allocate(7, 0, 55);
    EXPECT_EQ(mshrs.findInFlight(7), 55u);
    EXPECT_EQ(mshrs.findInFlight(8), kInvalidCycle);
}

TEST(MshrTest, ReallocatingAnOutstandingLineKeepsOneEntry)
{
    MshrFile mshrs(2);
    EXPECT_TRUE(mshrs.allocate(7, 0, 50));
    EXPECT_TRUE(mshrs.allocate(7, 10, 80));
    EXPECT_EQ(mshrs.findInFlight(7), 80u) << "the later fill cycle wins";
    EXPECT_EQ(mshrs.outstanding(10), 1u);
    EXPECT_TRUE(mshrs.allocate(8, 10, 60));
    EXPECT_TRUE(mshrs.full(10));
    EXPECT_FALSE(mshrs.allocate(7, 10, 90))
        << "a full file refuses even a line it already holds";
    EXPECT_EQ(mshrs.findInFlight(7), 80u);
    // The overwritten cycle, not the first one, decides reclaim.
    EXPECT_EQ(mshrs.outstanding(60), 1u);
    EXPECT_EQ(mshrs.outstanding(80), 0u);
}

TEST(MshrTest, EarliestCompletionAfterPartialReclaim)
{
    MshrFile mshrs(4);
    mshrs.allocate(1, 0, 30);
    mshrs.allocate(2, 0, 10);
    mshrs.allocate(3, 0, 20);
    mshrs.allocate(4, 0, 40);
    EXPECT_EQ(mshrs.earliestCompletion(0), 10u);
    EXPECT_EQ(mshrs.outstanding(20), 2u) << "lines 2 and 3 reclaimed";
    EXPECT_EQ(mshrs.findInFlight(2), kInvalidCycle);
    EXPECT_EQ(mshrs.findInFlight(3), kInvalidCycle);
    EXPECT_EQ(mshrs.earliestCompletion(20), 30u);
    EXPECT_EQ(mshrs.earliestCompletion(30), 40u)
        << "an entry completing at now is no longer in the future";
    EXPECT_EQ(mshrs.earliestCompletion(40), kInvalidCycle);
    EXPECT_TRUE(mshrs.allocate(5, 20, 25));
    EXPECT_EQ(mshrs.earliestCompletion(20), 25u);
}

// --- Hierarchy -----------------------------------------------------------

SimConfig
hierConfig()
{
    SimConfig config;
    return config;
}

TEST(HierarchyTest, LatenciesFollowTable1)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;

    // Cold: DRAM (L3 roundtrip + DRAM latency).
    const AccessOutcome cold = hierarchy.access(0x1000, 100, flags);
    EXPECT_EQ(cold.status, AccessStatus::Miss);
    EXPECT_EQ(cold.serviceLevel, 4u);
    EXPECT_EQ(cold.completeAt, 100 + config.l3.latency + config.dramLatency);

    // Warm hit: L1 latency.
    const Cycle warm_time = cold.completeAt + 10;
    const AccessOutcome warm = hierarchy.access(0x1000, warm_time, flags);
    EXPECT_EQ(warm.status, AccessStatus::Hit);
    EXPECT_EQ(warm.completeAt, warm_time + config.l1d.latency);
}

TEST(HierarchyTest, InFlightAccessMerges)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    const AccessOutcome first = hierarchy.access(0x1000, 100, flags);
    const AccessOutcome second = hierarchy.access(0x1008, 101, flags);
    EXPECT_EQ(second.completeAt, first.completeAt) << "same line merges";
    EXPECT_EQ(stats.get("l2.accesses"), 1u)
        << "merged access must not reach the L2";
}

TEST(HierarchyTest, MshrLimitRejects)
{
    SimConfig config = hierConfig();
    config.l1d.numMshrs = 2;
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    EXPECT_TRUE(hierarchy.access(0 * 64, 0, flags).accepted());
    EXPECT_TRUE(hierarchy.access(1 * 64, 0, flags).accepted());
    EXPECT_EQ(hierarchy.access(2 * 64, 0, flags).status,
              AccessStatus::Rejected);
}

TEST(HierarchyTest, DomRejectsSpeculativeMisses)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);

    MemAccessFlags dom_flags;
    dom_flags.domProtected = true;
    dom_flags.speculative = true;
    const AccessOutcome miss = hierarchy.access(0x2000, 10, dom_flags);
    EXPECT_EQ(miss.status, AccessStatus::DomDelayed);
    EXPECT_FALSE(hierarchy.linePresent(1, 0x2000))
        << "a DoM-delayed miss must leave no trace";
    EXPECT_FALSE(hierarchy.linePresent(2, 0x2000));

    // Non-speculative re-issue proceeds normally.
    dom_flags.speculative = false;
    EXPECT_TRUE(hierarchy.access(0x2000, 20, dom_flags).accepted());
    // A later speculative access to the now-present line hits.
    dom_flags.speculative = true;
    const AccessOutcome hit =
        hierarchy.access(0x2000, 500, dom_flags);
    EXPECT_EQ(hit.status, AccessStatus::Hit);
}

TEST(HierarchyTest, DomDelaysInFlightLinesToo)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags plain;
    hierarchy.access(0x3000, 10, plain); // fill in flight
    MemAccessFlags dom_flags;
    dom_flags.domProtected = true;
    dom_flags.speculative = true;
    EXPECT_EQ(hierarchy.access(0x3000, 12, dom_flags).status,
              AccessStatus::DomDelayed)
        << "an in-flight line is still an L1 miss for DoM";
}

TEST(HierarchyTest, DramBandwidthSerializesBursts)
{
    SimConfig config = hierConfig();
    config.l1d.numMshrs = 16;
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    // Two simultaneous DRAM misses: the second starts one issue
    // interval later.
    const AccessOutcome a = hierarchy.access(0x10000, 0, flags);
    const AccessOutcome b = hierarchy.access(0x20000, 0, flags);
    EXPECT_EQ(b.completeAt - a.completeAt, config.dramIssueInterval);
}

TEST(HierarchyTest, DigestDeterminism)
{
    SimConfig config = hierConfig();
    StatRegistry stats_a, stats_b;
    MemoryHierarchy a(config, stats_a);
    MemoryHierarchy b(config, stats_b);
    MemAccessFlags flags;
    for (Addr addr = 0; addr < 64 * 100; addr += 64) {
        a.access(addr, addr, flags);
        b.access(addr, addr, flags);
    }
    EXPECT_EQ(a.digest(), b.digest());
    b.access(64 * 200, 99999, flags);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(HierarchyTest, InvalidateDropsAllLevels)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    hierarchy.access(0x4000, 0, flags);
    EXPECT_TRUE(hierarchy.linePresent(1, 0x4000));
    EXPECT_TRUE(hierarchy.linePresent(2, 0x4000));
    EXPECT_TRUE(hierarchy.linePresent(3, 0x4000));
    hierarchy.invalidate(0x4000);
    EXPECT_FALSE(hierarchy.linePresent(1, 0x4000));
    EXPECT_FALSE(hierarchy.linePresent(2, 0x4000));
    EXPECT_FALSE(hierarchy.linePresent(3, 0x4000));
}

/** Property sweep: hit latency is constant across many addresses. */
class HierarchyLatencyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HierarchyLatencyProperty, WarmHitLatencyIsL1Latency)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    const Addr addr = static_cast<Addr>(GetParam()) * 4096 + 64;
    const AccessOutcome cold = hierarchy.access(addr, 0, flags);
    const Cycle later = cold.completeAt + 5;
    const AccessOutcome warm = hierarchy.access(addr, later, flags);
    EXPECT_EQ(warm.status, AccessStatus::Hit);
    EXPECT_EQ(warm.completeAt - later, config.l1d.latency);
}

INSTANTIATE_TEST_SUITE_P(Addresses, HierarchyLatencyProperty,
                         ::testing::Range(0, 16));

} // namespace
} // namespace dgsim
