#include "memory/cache.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim
{
namespace
{

/**
 * Thread-local shelves of line arrays, keyed by length. Invariant:
 * every array on a shelf is all CacheLine{}, so a Cache built from one
 * starts empty without clearing it. A shelf holds no more arrays than
 * were alive at once on its thread (peak), so recycling never raises
 * the peak footprint: an array released on a thread that never had
 * that many alive is freed instead.
 */
class LinePool
{
  public:
    std::vector<CacheLine> acquire(std::size_t lines)
    {
        Shelf &shelf = shelfFor(lines);
        shelf.peak = std::max(shelf.peak, ++shelf.live);
        if (shelf.free.empty())
            return std::vector<CacheLine>(lines);
        std::vector<CacheLine> array = std::move(shelf.free.back());
        shelf.free.pop_back();
        return array;
    }

    void release(std::vector<CacheLine> &&array)
    {
        Shelf &shelf = shelfFor(array.size());
        --shelf.live;
        if (static_cast<long>(shelf.free.size()) < shelf.peak)
            shelf.free.push_back(std::move(array));
    }

  private:
    struct Shelf
    {
        std::size_t lines = 0;
        long live = 0; ///< Acquired minus released on this thread.
        long peak = 0;
        std::vector<std::vector<CacheLine>> free;
    };

    Shelf &shelfFor(std::size_t lines)
    {
        for (Shelf &shelf : shelves_)
            if (shelf.lines == lines)
                return shelf;
        return shelves_.emplace_back(Shelf{lines, 0, 0, {}});
    }

    std::vector<Shelf> shelves_; ///< One per cache geometry in use.
};

LinePool &
linePool()
{
    thread_local LinePool pool;
    return pool;
}

/**
 * A maximal run of untouched sets [first, end) as one digest mixed it:
 * the hash coming in and the hash going out.
 */
struct EmptyStretch
{
    unsigned first;
    unsigned end;
    std::uint64_t hashIn;
    std::uint64_t hashOut;
};

/**
 * Thread-local record of the empty stretches of the last digest taken
 * of each cache geometry. Mixing a stretch is a pure function of its
 * first set, its end set, the associativity and the hash coming in, so
 * a stretch of the next digest that matches a recorded one on all four
 * takes the recorded hash out bit-exactly. No cache content is kept:
 * the bound is two stretch lists per geometry, each at most one entry
 * per two sets, rounded up.
 */
class StretchMemo
{
  public:
    struct Geometry
    {
        unsigned sets = 0;
        unsigned assoc = 0;
        std::vector<EmptyStretch> previous; ///< Of the last digest.
        std::vector<EmptyStretch> current;  ///< Being recorded.
    };

    Geometry &geometryFor(unsigned sets, unsigned assoc)
    {
        for (Geometry &geometry : geometries_)
            if (geometry.sets == sets && geometry.assoc == assoc)
                return geometry;
        return geometries_.emplace_back(Geometry{sets, assoc, {}, {}});
    }

    /// Ways of untouched sets mixed one by one (reused stretches add 0).
    std::uint64_t emptyWaysMixed = 0;

  private:
    std::vector<Geometry> geometries_; ///< One per cache geometry digested.
};

StretchMemo &
stretchMemo()
{
    thread_local StretchMemo memo;
    return memo;
}

/**
 * mix(set, way, 0, 0, 0) — the record of an invalid way — in two
 * multiplies: xor with zero is the identity, so the last four steps
 * are one multiply by kPrime^4.
 */
inline void
mixEmptyWay(std::uint64_t &hash, std::uint64_t set, std::uint64_t way)
{
    static constexpr std::uint64_t kPrime4 = fnv::primePower(4);
    fnv::mix(hash, set);
    hash = (hash ^ way) * kPrime4;
}

} // namespace

Cache::Cache(const CacheConfig &config, StatRegistry &stats)
    : accesses(stats.counter(config.name + ".accesses")),
      hits(stats.counter(config.name + ".hits")),
      misses(stats.counter(config.name + ".misses")),
      mshrMerges(stats.counter(config.name + ".mshrMerges")),
      writebacks(stats.counter(config.name + ".writebacks")),
      config_(config),
      num_sets_(config.numSets())
{
    DGSIM_ASSERT(num_sets_ > 0, "cache must have at least one set");
    DGSIM_ASSERT(config.sizeBytes % (config.assoc * config.lineBytes) == 0,
                 "cache size must be a multiple of assoc * line size");
    const std::size_t lines =
        static_cast<std::size_t>(num_sets_) * config.assoc;
    lines_ = linePool().acquire(lines);
    touched_.assign(num_sets_, 0);
}

Cache::~Cache()
{
    clearTouchedSets();
    linePool().release(std::move(lines_));
}

void
Cache::clearTouchedSets()
{
    // A flag scan costs one byte per set and visits sets in array
    // order, so a densely warmed cache streams through its lines.
    for (unsigned set = 0; set < num_sets_; ++set) {
        if (touched_[set]) {
            std::fill_n(setBase(set), config_.assoc, CacheLine{});
            touched_[set] = 0;
        }
    }
}

CacheLookup
Cache::lookup(Addr line_addr, bool update_lru)
{
    const unsigned set = setIndex(line_addr);
    CacheLine *base = setBase(set);
    for (unsigned way = 0; way < config_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == line_addr) {
            if (update_lru)
                line.lruStamp = ++lru_clock_;
            return CacheLookup{true, line.readyAt, &line};
        }
    }
    return CacheLookup{};
}

bool
Cache::probe(Addr line_addr) const
{
    const CacheLine *base = setBase(setIndex(line_addr));
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (base[way].valid && base[way].tag == line_addr)
            return true;
    }
    return false;
}

Addr
Cache::install(Addr line_addr, Cycle ready_at, bool dirty)
{
    const unsigned set = setIndex(line_addr);
    CacheLine *base = setBase(set);

    // Reuse the matching way if the line is already present (re-fill).
    CacheLine *victim = nullptr;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.readyAt = ready_at;
            line.dirty = line.dirty || dirty;
            line.lruStamp = ++lru_clock_;
            return kInvalidAddr;
        }
        if (!line.valid) {
            if (victim == nullptr || victim->valid)
                victim = &line;
        } else if (victim == nullptr ||
                   (victim->valid && line.lruStamp < victim->lruStamp)) {
            victim = &line;
        }
    }

    DGSIM_ASSERT(victim != nullptr, "no victim way found");
    touched_[set] = 1;
    Addr evicted = kInvalidAddr;
    if (victim->valid && victim->dirty) {
        evicted = victim->tag;
        ++writebacks;
    }
    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = dirty;
    victim->readyAt = ready_at;
    victim->lruStamp = ++lru_clock_;
    return evicted;
}

void
Cache::touch(Addr line_addr)
{
    CacheLookup result = lookup(line_addr, /*update_lru=*/true);
    (void)result;
}

void
Cache::markDirty(Addr line_addr)
{
    CacheLookup result = lookup(line_addr, /*update_lru=*/false);
    if (result.present)
        result.line->dirty = true;
}

void
Cache::invalidate(Addr line_addr)
{
    CacheLookup result = lookup(line_addr, /*update_lru=*/false);
    if (result.present) {
        result.line->valid = false;
        result.line->dirty = false;
    }
}

CacheWarmState
Cache::exportWarmState() const
{
    CacheWarmState state;
    state.sets.resize(num_sets_);
    std::vector<const CacheLine *> valid;
    valid.reserve(config_.assoc);
    for (unsigned set = 0; set < num_sets_; ++set) {
        if (!touched_[set])
            continue;
        const CacheLine *base = setBase(set);
        valid.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                valid.push_back(&base[way]);
        }
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->lruStamp < b->lruStamp;
                  });
        auto &lines = state.sets[set];
        lines.reserve(valid.size());
        for (const CacheLine *line : valid)
            lines.push_back(CacheWarmLine{line->tag, line->dirty});
    }
    return state;
}

void
Cache::restoreWarmState(const CacheWarmState &state)
{
    if (state.sets.size() != num_sets_)
        DGSIM_FATAL("checkpoint cache geometry mismatch for '" +
                    config_.name + "': " +
                    std::to_string(state.sets.size()) + " sets in the "
                    "checkpoint vs " + std::to_string(num_sets_) +
                    " configured");
    clearTouchedSets();
    lru_clock_ = 0;
    for (unsigned set = 0; set < num_sets_; ++set) {
        const auto &lines = state.sets[set];
        if (lines.empty())
            continue;
        if (lines.size() > config_.assoc)
            DGSIM_FATAL("checkpoint cache geometry mismatch for '" +
                        config_.name + "': set " + std::to_string(set) +
                        " holds " + std::to_string(lines.size()) +
                        " lines but associativity is " +
                        std::to_string(config_.assoc));
        touched_[set] = 1;
        CacheLine *base = setBase(set);
        for (std::size_t way = 0; way < lines.size(); ++way) {
            base[way].tag = lines[way].tag;
            base[way].valid = true;
            base[way].dirty = lines[way].dirty;
            base[way].readyAt = 0;
            base[way].lruStamp = ++lru_clock_;
        }
    }
}

void
Cache::hashState(std::uint64_t &hash) const
{
    // FNV-1a over (index, valid, tag, lru-rank) per way. The fill time
    // (readyAt) is deliberately excluded: the security digest captures
    // the *persistent* microarchitectural state an attacker can probe
    // after the transient window (which lines are present and their
    // replacement order), not transient timing. An invalid way mixes
    // (set, way, 0, 0, 0); a set never touched is all invalid ways.
    //
    // Ranks within a set must be hashed relative to each other, not as
    // raw stamps, so that identical cache contents reached through a
    // different number of accesses still hash equal. A line's rank is
    // the number of valid lines in its set with a strictly smaller
    // stamp; sorting the set's stamps once turns the quadratic
    // count-smaller loop into a binary search per way with the same
    // result (ties included).
    //
    // Untouched sets are mixed a maximal stretch at a time, and a
    // stretch the previous digest of this geometry mixed from the same
    // hash is taken from the thread's StretchMemo instead.
    StretchMemo &memo = stretchMemo();
    StretchMemo::Geometry &geometry =
        memo.geometryFor(num_sets_, config_.assoc);
    const std::vector<EmptyStretch> &previous = geometry.previous;
    geometry.current.clear();
    auto recorded = previous.cbegin();
    std::vector<std::uint64_t> stamps;
    stamps.reserve(config_.assoc);
    for (unsigned set = 0; set < num_sets_;) {
        if (!touched_[set]) {
            const auto end = static_cast<unsigned>(
                std::find(touched_.begin() + set, touched_.end(), 1) -
                touched_.begin());
            const std::uint64_t hash_in = hash;
            while (recorded != previous.cend() && recorded->first < set)
                ++recorded;
            if (recorded != previous.cend() && recorded->first == set &&
                recorded->end == end && recorded->hashIn == hash_in) {
                hash = recorded->hashOut;
            } else {
                for (unsigned empty = set; empty < end; ++empty)
                    for (unsigned way = 0; way < config_.assoc; ++way)
                        mixEmptyWay(hash, empty, way);
                memo.emptyWaysMixed +=
                    std::uint64_t{end - set} * config_.assoc;
            }
            geometry.current.push_back(EmptyStretch{set, end, hash_in, hash});
            set = end;
            continue;
        }
        const CacheLine *base = setBase(set);
        stamps.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                stamps.push_back(base[way].lruStamp);
        }
        std::sort(stamps.begin(), stamps.end());
        for (unsigned way = 0; way < config_.assoc; ++way) {
            const CacheLine &line = base[way];
            fnv::mix(hash, set);
            fnv::mix(hash, way);
            fnv::mix(hash, line.valid ? 1 : 0);
            fnv::mix(hash, line.valid ? line.tag : 0);
            // Rank of this way inside its set by recency.
            unsigned rank = 0;
            if (line.valid) {
                rank = static_cast<unsigned>(
                    std::lower_bound(stamps.begin(), stamps.end(),
                                     line.lruStamp) -
                    stamps.begin());
            }
            fnv::mix(hash, rank);
        }
        ++set;
    }
    std::swap(geometry.previous, geometry.current);
}

std::uint64_t
Cache::digestEmptyWaysMixed()
{
    return stretchMemo().emptyWaysMixed;
}

} // namespace dgsim
