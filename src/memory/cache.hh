/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * fill-time tracking, and support for delayed replacement updates
 * (required by Delay-on-Miss).
 */

#ifndef DGSIM_MEMORY_CACHE_HH
#define DGSIM_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dgsim
{

/** One cache line's tag state. */
struct CacheLine
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    /** Cycle at which the fill completes (line usable from then on). */
    Cycle readyAt = 0;
    /** LRU stamp: higher = more recently used. */
    std::uint64_t lruStamp = 0;
};

/** Result of a tag lookup. */
struct CacheLookup
{
    bool present = false;   ///< Tag match on a valid line.
    Cycle readyAt = 0;      ///< Fill completion time of the line.
    CacheLine *line = nullptr;
};

/** One exported line of warm tag state (checkpointing). */
struct CacheWarmLine
{
    Addr tag = 0;
    bool dirty = false;

    bool operator==(const CacheWarmLine &) const = default;
};

/**
 * Exported warm tag-array state: per set, the valid lines ordered
 * LRU-oldest first. Way positions and absolute LRU stamps are
 * deliberately dropped — replacement decisions and the security digest
 * depend only on the set's tag contents and *relative* recency, so the
 * canonical form makes checkpoints independent of the access count
 * that produced them.
 */
struct CacheWarmState
{
    std::vector<std::vector<CacheWarmLine>> sets;
};

/**
 * Tag array of one cache level.
 *
 * Timing is owned by MemoryHierarchy; this class only tracks presence,
 * replacement state and per-level statistics.
 */
class Cache
{
  public:
    Cache(const CacheConfig &config, StatRegistry &stats);
    /** Resets the touched sets and hands the line array back for reuse. */
    ~Cache();
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Look up @p line_addr.
     * @param update_lru refresh the replacement stamp on a hit. Pass
     *        false for DoM speculative hits (update deferred to commit)
     *        and for pure probes.
     */
    CacheLookup lookup(Addr line_addr, bool update_lru);

    /** Probe without disturbing any state or statistics. */
    bool probe(Addr line_addr) const;

    /**
     * Install @p line_addr, evicting the LRU victim if needed.
     * @param ready_at fill completion time.
     * @param dirty initial dirty state (write-allocate stores).
     * @return the victim's line address if a dirty line was evicted,
     *         kInvalidAddr otherwise.
     */
    Addr install(Addr line_addr, Cycle ready_at, bool dirty);

    /** Refresh the replacement stamp of @p line_addr if present. */
    void touch(Addr line_addr);

    /** Mark the line dirty if present (stores that hit). */
    void markDirty(Addr line_addr);

    /** Drop @p line_addr if present (coherence invalidation). */
    void invalidate(Addr line_addr);

    /** Mix the full tag-array contents into @p hash (security digest). */
    void hashState(std::uint64_t &hash) const;

    /**
     * Ways of untouched sets this thread's hashState() calls have mixed
     * one by one so far; stretches reused from the previous digest of
     * the same geometry add nothing (for tests).
     */
    static std::uint64_t digestEmptyWaysMixed();

    /** Export the tag array in canonical (LRU-ordered) form. */
    CacheWarmState exportWarmState() const;

    /**
     * Replace the tag array with @p state: lines are installed in LRU
     * order with fresh stamps and readyAt = 0 (every fill complete —
     * the handoff invariant). Fatal on geometry mismatch.
     */
    void restoreWarmState(const CacheWarmState &state);

    const CacheConfig &config() const { return config_; }

    /** The whole tag array, set-major (read-only, for tests). */
    const std::vector<CacheLine> &lines() const { return lines_; }

    // Statistics (shared registry; names are "<name>.<stat>").
    Counter &accesses;
    Counter &hits;
    Counter &misses;
    Counter &mshrMerges;
    Counter &writebacks;

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(line_addr % num_sets_);
    }

    CacheLine *setBase(unsigned set)
    {
        return &lines_[static_cast<std::size_t>(set) * config_.assoc];
    }
    const CacheLine *setBase(unsigned set) const
    {
        return &lines_[static_cast<std::size_t>(set) * config_.assoc];
    }

    /** Reset every touched set to CacheLine{} and clear its flag. */
    void clearTouchedSets();

    const CacheConfig config_;
    unsigned num_sets_;
    std::vector<CacheLine> lines_; ///< num_sets_ * assoc, set-major.
    /**
     * Per set: 1 once a line was installed or restored into it. Every
     * line of an untouched set is CacheLine{}: only install() and
     * restoreWarmState() make a line valid, and both set the flag.
     */
    std::vector<std::uint8_t> touched_;
    std::uint64_t lru_clock_ = 0;
};

} // namespace dgsim

#endif // DGSIM_MEMORY_CACHE_HH
