/**
 * @file
 * Miss Status Holding Register file: bounds the number of outstanding
 * misses per cache level and merges requests to in-flight lines.
 *
 * Entries are retired lazily: an entry whose fill has completed (its
 * completion cycle is in the past) is reclaimable on the next
 * allocation attempt, so no event machinery is required.
 */

#ifndef DGSIM_MEMORY_MSHR_HH
#define DGSIM_MEMORY_MSHR_HH

#include <vector>

#include "common/types.hh"

namespace dgsim
{

/** MSHR file of one cache level. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned capacity) : capacity_(capacity)
    {
        entries_.reserve(capacity);
    }

    /**
     * Look for an in-flight miss on @p line_addr.
     * @return the fill completion cycle, or kInvalidCycle if none.
     */
    Cycle
    findInFlight(Addr line_addr) const
    {
        for (const Entry &entry : entries_)
            if (entry.line == line_addr)
                return entry.fillAt;
        return kInvalidCycle;
    }

    /**
     * Try to allocate an entry for @p line_addr completing at @p fill_at.
     * Entries whose fills completed before @p now are reclaimed first.
     * A line already outstanding keeps its one entry and takes the new
     * completion cycle.
     * @return true on success, false if the file is full.
     */
    bool
    allocate(Addr line_addr, Cycle now, Cycle fill_at)
    {
        reclaim(now);
        if (entries_.size() >= capacity_)
            return false;
        for (Entry &entry : entries_) {
            if (entry.line == line_addr) {
                entry.fillAt = fill_at;
                return true;
            }
        }
        entries_.push_back(Entry{line_addr, fill_at});
        return true;
    }

    /** True if no entry can be allocated at @p now. */
    bool
    full(Cycle now)
    {
        reclaim(now);
        return entries_.size() >= capacity_;
    }

    /** Number of entries still outstanding at @p now. */
    unsigned
    outstanding(Cycle now)
    {
        reclaim(now);
        return static_cast<unsigned>(entries_.size());
    }

    /**
     * Earliest fill completion still in the future at @p now, or
     * kInvalidCycle if nothing is outstanding. This is the first cycle
     * at which an entry becomes reclaimable again, i.e. the first
     * cycle a previously Rejected access can possibly succeed — the
     * MSHR horizon of the core's idle-skip layer. Const on purpose:
     * horizon queries must not reclaim (state-neutral by contract,
     * DESIGN.md §5d).
     */
    Cycle
    earliestCompletion(Cycle now) const
    {
        Cycle earliest = kInvalidCycle;
        for (const Entry &entry : entries_) {
            if (entry.fillAt > now && entry.fillAt < earliest)
                earliest = entry.fillAt;
        }
        return earliest;
    }

    unsigned capacity() const { return capacity_; }

    /** Drop everything (used when resetting between runs). */
    void clear() { entries_.clear(); }

  private:
    struct Entry
    {
        Addr line;
        Cycle fillAt;
    };

    void
    reclaim(Cycle now)
    {
        std::erase_if(entries_, [now](const Entry &entry) {
            return entry.fillAt <= now;
        });
    }

    unsigned capacity_;
    /// At most capacity_ entries, one per line, in no particular order.
    std::vector<Entry> entries_;
};

} // namespace dgsim

#endif // DGSIM_MEMORY_MSHR_HH
