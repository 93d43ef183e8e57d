/**
 * @file
 * Physical register file, register alias table and free list.
 *
 * Besides value and ready state, each physical register carries the
 * STT taint root: the sequence number of the youngest unsafe load in
 * its dataflow ancestry (kInvalidSeq when untainted). Whether the root
 * is *still* unsafe is decided by the taint tracker in the core; the
 * regfile only stores the root.
 */

#ifndef DGSIM_CPU_REGFILE_HH
#define DGSIM_CPU_REGFILE_HH

#include <array>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dgsim
{

/** Physical register file with RAT and free list. */
class RegFile
{
  public:
    /**
     * @param num_phys_regs total physical registers; must exceed
     *        kNumArchRegs.
     */
    explicit RegFile(unsigned num_phys_regs)
        : values_(num_phys_regs, 0),
          ready_(num_phys_regs, 0),
          taint_root_(num_phys_regs, kInvalidSeq)
    {
        DGSIM_ASSERT(num_phys_regs > kNumArchRegs,
                     "need more physical than architectural registers");
        // Architectural register i starts mapped to physical register i.
        for (unsigned i = 0; i < kNumArchRegs; ++i) {
            rat_[i] = static_cast<PhysReg>(i);
            ready_[i] = 1;
        }
        for (unsigned i = kNumArchRegs; i < num_phys_regs; ++i)
            free_list_.push_back(static_cast<PhysReg>(i));
    }

    // --- RAT ------------------------------------------------------------
    PhysReg lookup(RegIndex arch) const { return rat_[arch]; }

    bool freeListEmpty() const { return free_list_.empty(); }

    /** Rename @p arch to a fresh physical register.
     * @return {new preg, previous preg} for rollback/commit bookkeeping.
     */
    std::pair<PhysReg, PhysReg>
    rename(RegIndex arch)
    {
        DGSIM_ASSERT(!free_list_.empty(), "rename with empty free list");
        const PhysReg fresh = free_list_.back();
        free_list_.pop_back();
        const PhysReg previous = rat_[arch];
        rat_[arch] = fresh;
        ready_[fresh] = 0;
        taint_root_[fresh] = kInvalidSeq;
        return {fresh, previous};
    }

    /** Undo a rename during squash (youngest-first order required). */
    void
    rollback(RegIndex arch, PhysReg fresh, PhysReg previous)
    {
        DGSIM_ASSERT(rat_[arch] == fresh, "rollback out of order");
        rat_[arch] = previous;
        free_list_.push_back(fresh);
    }

    /** Release the previous mapping when its overwriter commits. */
    void
    releaseAtCommit(PhysReg previous)
    {
        free_list_.push_back(previous);
    }

    // --- Values / readiness ------------------------------------------------
    RegValue value(PhysReg reg) const { return values_[reg]; }
    void setValue(PhysReg reg, RegValue v) { values_[reg] = v; }

    bool ready(PhysReg reg) const { return ready_[reg] != 0; }
    void setReady(PhysReg reg) { ready_[reg] = 1; }

    SeqNum taintRoot(PhysReg reg) const { return taint_root_[reg]; }
    void setTaintRoot(PhysReg reg, SeqNum root) { taint_root_[reg] = root; }

    /** Architectural value of @p arch via the current RAT (for checks). */
    RegValue archValue(RegIndex arch) const { return values_[rat_[arch]]; }

    unsigned numFree() const
    {
        return static_cast<unsigned>(free_list_.size());
    }

  private:
    std::array<PhysReg, kNumArchRegs> rat_{};
    std::vector<RegValue> values_;
    // Bytes, not vector<bool>: readiness is read per operand at
    // dispatch, store forwarding and commit; a byte load beats bit math.
    std::vector<std::uint8_t> ready_;
    std::vector<SeqNum> taint_root_;
    std::vector<PhysReg> free_list_;
};

} // namespace dgsim

#endif // DGSIM_CPU_REGFILE_HH
