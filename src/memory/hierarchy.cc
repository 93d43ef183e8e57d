#include "memory/hierarchy.hh"

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim
{

MemoryHierarchy::MemoryHierarchy(const SimConfig &config, StatRegistry &stats)
    : config_(config),
      line_bytes_(config.l1d.lineBytes),
      l1_(std::make_unique<Cache>(config.l1d, stats)),
      l2_(std::make_unique<Cache>(config.l2, stats)),
      l3_(std::make_unique<Cache>(config.l3, stats)),
      l1Mshrs_(config.l1d.numMshrs),
      dramAccesses_(stats.counter("dram.accesses")),
      domDelayedAccesses_(stats.counter("mem.domDelayed")),
      missLatencyDist_(stats.histogram("mem.missLatencyDist", 8, 32)),
      mshrOccupancyDist_(stats.histogram("mem.mshrOccupancyDist", 1, 32))
{
    DGSIM_ASSERT(config.l1d.lineBytes == config.l2.lineBytes &&
                 config.l2.lineBytes == config.l3.lineBytes,
                 "all levels must share one line size");
}

Cycle
MemoryHierarchy::reserveDramSlot(Cycle earliest)
{
    Cycle start = earliest;
    if (start < next_dram_slot_)
        start = next_dram_slot_;
    next_dram_slot_ = start + config_.dramIssueInterval;
    return start;
}

AccessOutcome
MemoryHierarchy::access(Addr byte_addr, Cycle now, const MemAccessFlags &flags)
{
    const Addr line = lineAddr(byte_addr);
    const bool update_lru = !flags.delayReplacementUpdate;
    AccessOutcome outcome;

    // ---- L1 ----------------------------------------------------------
    CacheLookup l1_hit = l1_->lookup(line, update_lru);
    if (l1_hit.present) {
        ++l1_->accesses;
        if (l1_hit.readyAt > now && flags.domProtected && flags.speculative) {
            // The line is still being filled: for Delay-on-Miss this is
            // an L1 miss like any other, so the shadowed load must wait
            // until it is non-speculative (paper §2.3) rather than
            // merging onto the in-flight fill.
            ++l1_->misses;
            ++domDelayedAccesses_;
            outcome.status = AccessStatus::DomDelayed;
            return outcome;
        }
        if (flags.isWrite)
            l1_hit.line->dirty = true;
        if (l1_hit.readyAt <= now) {
            // Plain L1 hit.
            ++l1_->hits;
            outcome.status = AccessStatus::Hit;
            outcome.completeAt = now + config_.l1d.latency;
            outcome.serviceLevel = 1;
            outcome.l1Hit = true;
            return outcome;
        }
        // Line is in flight: merge onto the outstanding fill. No new
        // request leaves the L1, so lower levels see no extra access.
        ++l1_->mshrMerges;
        ++l1_->misses;
        outcome.status = AccessStatus::Miss;
        outcome.completeAt = l1_hit.readyAt;
        outcome.serviceLevel = 1;
        outcome.l1Hit = true;
        return outcome;
    }

    // ---- L1 miss -----------------------------------------------------
    if (flags.domProtected && flags.speculative) {
        // Delay-on-Miss: a shadowed access may not change state below
        // (or in) the L1. The lookup above mutated nothing on the miss
        // path, so rejecting here leaves no microarchitectural residue.
        ++l1_->accesses;
        ++l1_->misses;
        ++domDelayedAccesses_;
        outcome.status = AccessStatus::DomDelayed;
        return outcome;
    }
    if (l1Mshrs_.full(now)) {
        // Structural reject: the core retries, so nothing is counted
        // here to avoid double-counting the eventual real access.
        outcome.status = AccessStatus::Rejected;
        return outcome;
    }
    ++l1_->accesses;
    ++l1_->misses;

    // ---- L2 ----------------------------------------------------------
    Cycle complete;
    unsigned service_level;
    ++l2_->accesses;
    CacheLookup l2_hit = l2_->lookup(line, true);
    if (l2_hit.present) {
        ++l2_->hits;
        complete = std::max(now + config_.l2.latency, l2_hit.readyAt);
        service_level = 2;
    } else {
        ++l2_->misses;
        // ---- L3 -----------------------------------------------------
        ++l3_->accesses;
        CacheLookup l3_hit = l3_->lookup(line, true);
        if (l3_hit.present) {
            ++l3_->hits;
            complete = std::max(now + config_.l3.latency, l3_hit.readyAt);
            service_level = 3;
        } else {
            ++l3_->misses;
            // ---- DRAM -----------------------------------------------
            ++dramAccesses_;
            const Cycle dram_start =
                reserveDramSlot(now + config_.l3.latency);
            complete = dram_start + config_.dramLatency;
            service_level = 4;
            l3_->install(line, complete, false);
        }
        l2_->install(line, complete, false);
    }

    // Fill the L1 eagerly with the future ready time; later accesses to
    // this line merge onto the fill (see above). The MSHR entry tracks
    // occupancy until the fill lands.
    l1_->install(line, complete, flags.isWrite);
    l1Mshrs_.allocate(line, now, complete);
    missLatencyDist_.sample(complete - now);
    mshrOccupancyDist_.sample(l1Mshrs_.outstanding(now));

    outcome.status = AccessStatus::Miss;
    outcome.completeAt = complete;
    outcome.serviceLevel = service_level;
    outcome.l1Hit = false;
    return outcome;
}

unsigned
MemoryHierarchy::warmAccess(Addr byte_addr, bool is_write)
{
    const Addr line = lineAddr(byte_addr);
    ++l1_->accesses;
    CacheLookup l1_hit = l1_->lookup(line, /*update_lru=*/true);
    if (l1_hit.present) {
        ++l1_->hits;
        if (is_write)
            l1_hit.line->dirty = true;
        return 1;
    }
    ++l1_->misses;

    unsigned service_level;
    ++l2_->accesses;
    CacheLookup l2_hit = l2_->lookup(line, /*update_lru=*/true);
    if (l2_hit.present) {
        ++l2_->hits;
        service_level = 2;
    } else {
        ++l2_->misses;
        ++l3_->accesses;
        CacheLookup l3_hit = l3_->lookup(line, /*update_lru=*/true);
        if (l3_hit.present) {
            ++l3_->hits;
            service_level = 3;
        } else {
            ++l3_->misses;
            ++dramAccesses_;
            service_level = 4;
            l3_->install(line, /*ready_at=*/0, /*dirty=*/false);
        }
        l2_->install(line, /*ready_at=*/0, /*dirty=*/false);
    }
    l1_->install(line, /*ready_at=*/0, is_write);
    return service_level;
}

HierarchyWarmState
MemoryHierarchy::exportWarmState() const
{
    HierarchyWarmState state;
    state.l1 = l1_->exportWarmState();
    state.l2 = l2_->exportWarmState();
    state.l3 = l3_->exportWarmState();
    return state;
}

void
MemoryHierarchy::restoreWarmState(const HierarchyWarmState &state)
{
    l1_->restoreWarmState(state.l1);
    l2_->restoreWarmState(state.l2);
    l3_->restoreWarmState(state.l3);
    next_dram_slot_ = 0;
}

void
MemoryHierarchy::commitTouch(Addr byte_addr)
{
    l1_->touch(lineAddr(byte_addr));
}

void
MemoryHierarchy::invalidate(Addr byte_addr)
{
    const Addr line = lineAddr(byte_addr);
    l1_->invalidate(line);
    l2_->invalidate(line);
    l3_->invalidate(line);
}

bool
MemoryHierarchy::linePresent(unsigned level, Addr byte_addr) const
{
    const Addr line = lineAddr(byte_addr);
    switch (level) {
      case 1: return l1_->probe(line);
      case 2: return l2_->probe(line);
      case 3: return l3_->probe(line);
      default: DGSIM_PANIC("bad cache level");
    }
}

std::uint64_t
MemoryHierarchy::digest() const
{
    std::uint64_t hash = fnv::kOffset;
    l1_->hashState(hash);
    l2_->hashState(hash);
    l3_->hashState(hash);
    return hash;
}

} // namespace dgsim
