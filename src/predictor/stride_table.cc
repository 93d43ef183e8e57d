#include "predictor/stride_table.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim
{

StrideTable::StrideTable(unsigned entries, unsigned assoc,
                         unsigned confidence_threshold, StatRegistry &stats)
    : trained(stats.counter("stride.trained")),
      predictions(stats.counter("stride.predictions")),
      assoc_(assoc),
      num_sets_(entries / assoc),
      confidence_threshold_(confidence_threshold)
{
    DGSIM_ASSERT(entries % assoc == 0, "entries must divide by assoc");
    DGSIM_ASSERT(num_sets_ > 0, "stride table needs at least one set");
    entries_.resize(entries);
}

StrideEntry *
StrideTable::find(Addr pc)
{
    const unsigned set = setIndex(pc);
    StrideEntry *base = &entries_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].pc == pc)
            return &base[way];
    }
    return nullptr;
}

const StrideEntry *
StrideTable::peek(Addr pc) const
{
    return const_cast<StrideTable *>(this)->find(pc);
}

void
StrideTable::train(Addr pc, Addr addr)
{
    ++trained;
    StrideEntry *entry = find(pc);
    if (entry == nullptr) {
        // Allocate, evicting the LRU way of the set.
        const unsigned set = setIndex(pc);
        StrideEntry *base =
            &entries_[static_cast<std::size_t>(set) * assoc_];
        StrideEntry *victim = &base[0];
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!base[way].valid) {
                victim = &base[way];
                break;
            }
            if (base[way].lruStamp < victim->lruStamp)
                victim = &base[way];
        }
        *victim = StrideEntry{pc, addr, 0, 0, 0, true, ++lru_clock_};
        return;
    }

    entry->lruStamp = ++lru_clock_;
    const auto observed =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(entry->lastAddr);
    if (observed == entry->stride) {
        if (entry->confidence < 16)
            ++entry->confidence;
    } else {
        entry->stride = observed;
        entry->confidence = 0;
    }
    entry->lastAddr = addr;
}

std::optional<Addr>
StrideTable::predictCurrent(Addr pc)
{
    StrideEntry *entry = find(pc);
    if (entry == nullptr || entry->confidence < confidence_threshold_)
        return std::nullopt;
    ++predictions;
    entry->lruStamp = ++lru_clock_;
    ++entry->inflight;
    return entry->lastAddr +
           static_cast<Addr>(entry->stride *
                             static_cast<std::int64_t>(entry->inflight));
}

void
StrideTable::release(Addr pc)
{
    StrideEntry *entry = find(pc);
    if (entry != nullptr && entry->inflight > 0)
        --entry->inflight;
}

std::optional<Addr>
StrideTable::predictAhead(Addr pc, Addr addr, unsigned degree)
{
    StrideEntry *entry = find(pc);
    if (entry == nullptr || entry->confidence < confidence_threshold_ ||
        entry->stride == 0) {
        return std::nullopt;
    }
    return addr + static_cast<Addr>(entry->stride *
                                    static_cast<std::int64_t>(degree));
}

void
StrideTable::reset()
{
    for (auto &entry : entries_)
        entry = StrideEntry{};
    lru_clock_ = 0;
}

StrideTable::State
StrideTable::exportState() const
{
    State state;
    state.entries.resize(entries_.size());
    std::vector<const StrideEntry *> valid;
    valid.reserve(assoc_);
    for (unsigned set = 0; set < num_sets_; ++set) {
        const StrideEntry *base =
            &entries_[static_cast<std::size_t>(set) * assoc_];
        valid.clear();
        for (unsigned way = 0; way < assoc_; ++way) {
            if (base[way].valid)
                valid.push_back(&base[way]);
        }
        std::sort(valid.begin(), valid.end(),
                  [](const StrideEntry *a, const StrideEntry *b) {
                      return a->lruStamp < b->lruStamp;
                  });
        for (std::size_t i = 0; i < valid.size(); ++i) {
            StrideEntry &out =
                state.entries[static_cast<std::size_t>(set) * assoc_ + i];
            out = *valid[i];
            out.lruStamp = 0;  // Canonical: order is positional.
            out.inflight = 0;  // Pipeline drained at the boundary.
        }
    }
    return state;
}

std::uint64_t
StrideTable::digest() const
{
    // Hash the canonical (checkpoint) form so equal tables always hash
    // equal: relative LRU order is positional there, and the raw
    // stamps/in-flight counts — host-visible bookkeeping, not
    // adversary-probeable state — are already dropped.
    const State state = exportState();
    std::uint64_t hash = fnv::kOffset;
    for (const StrideEntry &entry : state.entries) {
        fnv::mix(hash, entry.valid ? 1 : 0);
        if (!entry.valid)
            continue;
        fnv::mix(hash, entry.pc);
        fnv::mix(hash, entry.lastAddr);
        fnv::mix(hash, static_cast<std::uint64_t>(entry.stride));
        fnv::mix(hash, entry.confidence);
    }
    return hash;
}

void
StrideTable::restoreState(const State &state)
{
    if (state.entries.size() != entries_.size())
        DGSIM_FATAL("checkpoint stride-table geometry mismatch: " +
                    std::to_string(state.entries.size()) + " entries in "
                    "the checkpoint vs " +
                    std::to_string(entries_.size()) + " configured");
    lru_clock_ = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (state.entries[i].valid) {
            entries_[i] = state.entries[i];
            entries_[i].inflight = 0;
            entries_[i].lruStamp = ++lru_clock_;
        } else {
            entries_[i] = StrideEntry{};
        }
    }
}

} // namespace dgsim
