/**
 * @file
 * Dynamic (in-flight) instruction state for the out-of-order core.
 */

#ifndef DGSIM_CPU_DYN_INST_HH
#define DGSIM_CPU_DYN_INST_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace dgsim
{

/** Doppelganger (address-predicted load) state machine, paper §5. */
enum class DgState : std::uint8_t
{
    None,       ///< Load has no doppelganger (predictor did not fire).
    Predicted,  ///< Prediction stored in the LQ entry, unverified.
    Verified,   ///< Resolved address matched the prediction.
    Mispredicted, ///< Addresses differed; preload discarded, load replays.
};

/**
 * One in-flight instruction (ROB entry).
 *
 * Fields are grouped by size: 8-byte fields (and the 8-aligned
 * Instruction) first, then the PhysRegs, then the byte-sized flags, so
 * the struct carries no interior padding. Some 350 entries are in
 * flight at once and every pipeline stage touches them, so the saved
 * bytes keep the window in the host's L1. Keep that order when adding
 * a field, and raise the size pinned below only by the field's bytes.
 */
struct DynInst
{
    // ===== 8-byte fields ==================================================
    // --- Identity ---------------------------------------------------
    SeqNum seq = kInvalidSeq;
    Addr pc = 0;
    Instruction inst;

    // --- Pipeline status ----------------------------------------------
    Cycle execDoneAt = kInvalidCycle;

    // --- Control flow ---------------------------------------------------
    Addr predictedTarget = 0;
    std::uint64_t ghrSnapshot = 0; ///< GHR before this branch's prediction.
    Addr actualTarget = 0;

    // --- Memory -----------------------------------------------------------
    Addr effAddr = kInvalidAddr; ///< AGU-resolved effective address.
    Cycle dataAt = kInvalidCycle;
    SeqNum fwdFromSeq = kInvalidSeq; ///< Store the value came from.

    // --- Doppelganger ---------------------------------------------------
    Addr dgPredictedAddr = kInvalidAddr;
    Cycle dgDataAt = kInvalidCycle;

    // --- Observability ----------------------------------------------------
    /**
     * Cycle stamps maintained unconditionally (one store each at
     * dispatch / issue / completion, which those paths already own):
     * the distribution stats (load-to-use latency, shadow-release
     * delay) are computed from them with tracing off.
     */
    Cycle dispatchedAt = 0;
    Cycle issuedAt = kInvalidCycle;
    Cycle completedAt = kInvalidCycle;
    /// Frontend stamps, recorded only for traced instructions.
    Cycle tsFetch = 0;
    Cycle tsDecode = 0;

    // --- Gate retry memo ---------------------------------------------------
    /**
     * Wake-epoch stamps for the policy-gate retries: issue (a load's
     * demand issue, a store's AGU issue) and propagation/resolution.
     * A gate-blocked instruction records the core's wake epoch and its
     * gates are not re-evaluated until some event that could unblock
     * it (register wakeup, shadow release, untaint, squash, dispatch)
     * bumps the epoch. Purely a host-side memoisation: the retry
     * outcome is unchanged, it just is not recomputed on quiescent
     * cycles.
     */
    std::uint64_t issueSleepEpoch = 0;
    std::uint64_t propSleepEpoch = 0;

    // ===== PhysReg fields =================================================
    // --- Rename ------------------------------------------------------
    PhysReg prs1 = kInvalidPhysReg; ///< Physical source 1 (if read).
    PhysReg prs2 = kInvalidPhysReg; ///< Physical source 2 (if read).
    PhysReg prd = kInvalidPhysReg;  ///< Physical dest (if written).
    PhysReg prevPrd = kInvalidPhysReg; ///< Previous mapping of rd.

    // ===== Byte-sized fields ==============================================
    // --- Identity ---------------------------------------------------
    OpClass cls = OpClass::No_OpClass;
    // Operand roles, decoded once at dispatch (consumer-list
    // registration, operand reads, taint checks) so the per-opcode
    // switches stay off the per-instruction paths.
    bool usesRs1 = false; ///< readsRs1(inst)
    bool usesRs2 = false; ///< readsRs2(inst)
    bool hasDest = false; ///< writesDest(inst)

    // --- Pipeline status ----------------------------------------------
    bool inIq = false;      ///< Waiting in the issue queue.
    /// Unready issue operands (consumer-list entries held); an IQ entry
    /// is on the ready list exactly when this is zero.
    std::uint8_t pendingOperands = 0;
    bool issued = false;    ///< Sent to a functional unit.
    bool executed = false;  ///< Result computed (cycle: execDoneAt).
    bool completed = false; ///< Result propagated; eligible to commit.
    bool squashed = false;

    // --- Control flow ---------------------------------------------------
    bool predictedTaken = false;
    bool actualTaken = false;
    bool mispredicted = false;
    bool resolved = false; ///< Branch resolution performed (shadow freed).

    // --- Memory -----------------------------------------------------------
    bool addrReady = false;      ///< effAddr valid.
    bool memIssued = false;      ///< Demand access accepted by hierarchy.
    bool dataArrived = false;    ///< Load data available (value readable).
    bool l1Hit = false;          ///< Load was serviced from the L1.
    bool domDelayed = false;     ///< Rejected by DoM; retry when non-spec.
    bool forwarded = false;      ///< Value forwarded from an older store.
    bool invalSnooped = false;   ///< LQ entry matched an invalidation.
    /// DoM: replacement update was suppressed at access; touch at commit.
    bool domDeferredTouch = false;
    bool dgDeferredTouch = false; ///< Same, for the doppelganger access.

    // --- Doppelganger ---------------------------------------------------
    DgState dgState = DgState::None;
    /** The doppelganger access was sent to the hierarchy. Orthogonal to
     * dgState: a verified-but-unissued prediction may still issue later
     * (the predicted address remains secret-independent). */
    bool dgAccessIssued = false;
    bool dgDataArrived = false;
    bool dgL1Hit = false;

    // --- Observability ----------------------------------------------------
    /// This instruction was armed for pipeline tracing at dispatch.
    bool traced = false;
    /// A secure-speculation gate blocked this load's issue or
    /// propagation at least once (trace annotation / flight recorder).
    bool policyBlocked = false;
    /// STT tainted this load's result when it propagated.
    bool resultTainted = false;

    // --- Pool bookkeeping -------------------------------------------------
    /**
     * Number of lazily-filtered side lists (exec_pending_,
     * unresolved_branches_, dg_pending_) still holding this instruction.
     * A squashed instruction is returned to the pool only once this
     * drops to zero, so those lists may keep filtering by the squashed
     * flag without ever touching a recycled entry.
     */
    std::uint8_t lazyRefs = 0;

    // --- Helpers ----------------------------------------------------------
    bool isLoad() const { return cls == OpClass::MemRead; }
    bool isStore() const { return cls == OpClass::MemWrite; }
    bool isBranch() const { return cls == OpClass::Branch; }

    bool
    hasDoppelganger() const
    {
        return dgState != DgState::None;
    }

    /** The value comes from the issued, verified doppelganger (sticky). */
    bool
    fedByDoppelganger() const
    {
        return dgState == DgState::Verified && dgAccessIssued;
    }
};

static_assert(sizeof(DynInst) == 200,
              "DynInst size changed: keep fields grouped by size");

/**
 * Pool handle. In-flight instructions live in DynInstPool slabs; the
 * handle is a plain pointer into stable slab storage (slabs are never
 * freed or moved while the core lives). Allocated at dispatch, returned
 * to the pool at commit or on squash.
 */
using DynInstPtr = DynInst *;

/**
 * Recycling slab allocator for DynInst.
 *
 * The steady-state cycle loop allocates one DynInst per dispatched
 * instruction (including the wrong path); a heap allocation per
 * instruction dominated the fetch/dispatch profile. The pool hands out
 * entries from fixed-size slabs via a free list: after warm-up (live
 * count is bounded by the ROB) no allocation ever happens again.
 */
class DynInstPool
{
  public:
    /// Slab granularity, entries.
    static constexpr std::size_t kSlabEntries = 256;

    DynInstPool() = default;
    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /** Take a freshly reset entry from the pool. */
    DynInstPtr
    alloc()
    {
        if (free_.empty())
            grow();
        DynInst *inst = free_.back();
        free_.pop_back();
        *inst = DynInst{}; // Reset to default state; no heap traffic.
        ++live_;
        return inst;
    }

    /** Return an entry; the caller must hold the only reference. */
    void
    release(DynInstPtr inst)
    {
        --live_;
        free_.push_back(inst);
    }

    /** Entries currently handed out (== in-flight instructions). */
    std::size_t live() const { return live_; }

    /** Total entries ever allocated across all slabs. */
    std::size_t capacity() const { return slabs_.size() * kSlabEntries; }

  private:
    void
    grow()
    {
        slabs_.push_back(std::make_unique<DynInst[]>(kSlabEntries));
        DynInst *base = slabs_.back().get();
        for (std::size_t i = kSlabEntries; i-- > 0;)
            free_.push_back(base + i);
    }

    std::vector<std::unique_ptr<DynInst[]>> slabs_;
    std::vector<DynInst *> free_;
    std::size_t live_ = 0;
};

} // namespace dgsim

#endif // DGSIM_CPU_DYN_INST_HH
