/**
 * @file
 * The dgsim out-of-order core.
 *
 * A cycle-level model of a wide superscalar pipeline in the style of
 * the gem5 O3 CPU: fetch (with branch prediction) -> rename (RAT +
 * free list) -> dispatch (ROB/IQ/LQ/SQ) -> issue (oldest-first wakeup
 * and select) -> execute -> writeback/propagate -> in-order commit.
 * Wrong-path instructions genuinely execute (including their memory
 * accesses), which is what makes the Spectre-style security tests
 * meaningful.
 *
 * Secure-speculation behaviour is delegated to a SpeculationPolicy and
 * the Doppelganger Loads mechanism to a DoppelgangerUnit, so the
 * pipeline code reads as an unprotected core annotated with a small
 * number of policy decision points.
 */

#ifndef DGSIM_CPU_CORE_HH
#define DGSIM_CPU_CORE_HH

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/doppelganger.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/regfile.hh"
#include "cpu/shadow_tracker.hh"
#include "isa/functional.hh"
#include "isa/program.hh"
#include "common/log.hh"
#include "memory/hierarchy.hh"
#include "obs/flight_recorder.hh"
#include "obs/pipe_trace.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/stride_table.hh"
#include "secure/policy.hh"
#include "secure/taint_tracker.hh"

namespace dgsim
{

namespace ckpt
{
struct Checkpoint;
} // namespace ckpt

/** Why a squash happened (statistics). */
enum class SquashReason
{
    BranchMispredict,
    MemOrderViolation,
    InvalidationSnoop,
};

/** The out-of-order core. */
class OooCore
{
  public:
    OooCore(const Program &program, const SimConfig &config,
            StatRegistry &stats);
    /// The core keeps a reference; temporaries would dangle.
    OooCore(Program &&, const SimConfig &, StatRegistry &) = delete;
    ~OooCore();

    OooCore(const OooCore &) = delete;
    OooCore &operator=(const OooCore &) = delete;

    /** Advance the whole machine by one cycle. */
    void tick();

    /**
     * Run until HALT commits or a run-control limit is reached.
     * @return committed instructions.
     */
    std::uint64_t run();

    /** True once HALT has committed or a run limit was hit. */
    bool done() const { return done_; }

    /** True only if the program architecturally committed HALT (a run
     * that stopped on maxCycles/maxInstructions stays false). */
    bool halted() const { return halted_; }

    /**
     * Adopt a checkpoint's state before the first cycle: architectural
     * registers (through the identity-mapped reset RAT), data memory,
     * fetch PC and the warm cache/predictor contents. Must be called on
     * a fresh core (fatal once ticking has started) — mid-run state
     * cannot be replaced under in-flight instructions.
     */
    void restoreFromCheckpoint(const ckpt::Checkpoint &checkpoint);

    // --- Introspection ---------------------------------------------------
    Cycle cycle() const { return cycle_; }
    std::uint64_t committed() const { return committed_count_; }
    /** Idle cycles the time-warp layer jumped over (host-side stat). */
    std::uint64_t idleCyclesSkipped() const { return idleSkippedStat_.value(); }
    /** Cycle of the most recent commit (watchdog reference point). */
    Cycle lastCommitCycle() const { return last_commit_cycle_; }
    /** Number of time-warp advances taken (host-side stat). */
    std::uint64_t skipEvents() const { return skipEventsStat_.value(); }
    double
    ipc() const
    {
        return cycle_ == 0 ? 0.0
                           : static_cast<double>(committed_count_) /
                                 static_cast<double>(cycle_);
    }

    /** Architectural register value (through the committed RAT). */
    RegValue archReg(RegIndex arch) const { return regfile_.archValue(arch); }

    /** Committed data memory (compare against the functional oracle). */
    const MemoryImage &dataMemory() const { return data_mem_; }

    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    const DoppelgangerUnit &doppelganger() const { return *dg_unit_; }
    const StrideTable &strideTable() const { return *stride_table_; }
    const BranchPredictor &branchPredictor() const { return *branch_pred_; }

    /**
     * Model an invalidation arriving from another core (paper §4.5):
     * drops the line everywhere and snoops the load queue.
     */
    void externalInvalidate(Addr byte_addr);

    /** STT taint state (exposed for tests). */
    const TaintTracker &taints() const { return taint_tracker_; }
    const ShadowTracker &shadows() const { return shadow_tracker_; }

    // --- Observability ----------------------------------------------------
    /** Recent µarch events (dumped on panic/watchdog; tests inspect). */
    const FlightRecorder &flightRecorder() const { return flight_recorder_; }
    /** Pipeline-trace records emitted so far (0 when tracing is off). */
    std::uint64_t
    traceRecords() const
    {
        return tracer_ ? tracer_->records() : 0;
    }
    /**
     * One-shot dump of the pipeline's wedge-relevant state (ROB head,
     * queue occupancies, MSHRs, shadows/taints) plus the flight
     * recorder. Invoked by the panic hook and the commit watchdog;
     * public so `dgrun` and tests can trigger it on demand.
     */
    void dumpPipelineState(std::ostream &os);

    // --- DynInst pool introspection (leak/bound checks in tests) ---------
    /** In-flight pool entries right now (bounded by the ROB). */
    std::size_t dynInstPoolLive() const { return pool_.live(); }
    /** Total pool entries ever slab-allocated (must stay bounded). */
    std::size_t dynInstPoolCapacity() const { return pool_.capacity(); }

  private:
    // --- Pipeline stages (called in tick() order) -------------------------
    void commitStage();
    void writebackStage();
    void memoryIssueStage();
    void executeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    // --- Helpers -----------------------------------------------------------
    struct FetchSlot
    {
        Addr pc = 0;
        Instruction inst;
        Cycle readyAt = 0;
        bool predictedTaken = false;
        Addr predictedTarget = 0;
        std::uint64_t ghrBefore = 0;
    };

    /** Build the policy context for @p inst right now. */
    SpecContext contextFor(const DynInst &inst) const;

    /** Is the source-operand taint root of @p inst currently tainted? */
    bool operandsTainted(const DynInst &inst) const;

    /** Compute and latch the result of a just-issued instruction. */
    void startExecution(const DynInstPtr &inst);

    /** Value a load observes: SQ forwarding override or memory.
     * @return nullopt if a matching older store's data is not ready yet
     * (the caller retries next cycle). */
    std::optional<std::pair<RegValue, SeqNum>>
    loadValueNow(const DynInst &inst, Addr addr) const;

    /** Broadcast a load result: preg value/ready (+ STT taint). */
    void propagateLoad(const DynInstPtr &inst, RegValue value);

    /** Resolve an executed branch: release shadow, squash if needed. */
    void resolveBranch(const DynInstPtr &inst);

    /** Store address resolved: detect load-order violations. */
    void checkMemOrderViolation(const DynInstPtr &store);

    /** Squash every instruction with seq >= @p first_bad. */
    void squashFrom(SeqNum first_bad, Addr redirect_pc, SquashReason why);

    /** Per-instruction commit actions; true if it committed. */
    bool commitOne(const DynInstPtr &inst, unsigned &stores_this_cycle);

    // --- Idle-cycle skipping (DESIGN.md §5d) -------------------------------
    /**
     * Earliest future cycle at which any component can change state:
     * min over in-flight FU completions, LQ data arrivals, fetch-queue
     * readiness, the post-squash fetch stall and the memory system's
     * next fill. kInvalidCycle when nothing is pending (a genuinely
     * wedged machine). Spuriously-early horizons are safe (the landing
     * tick just finds nothing to do); late ones would change results,
     * so every contributor must be conservative.
     */
    Cycle nextEventCycle() const;

    /**
     * Warp the clock so the *next* tick() lands exactly on @p target:
     * accounts the skipped span in core.cycles and the sparse
     * occupancy samples per-cycle ticking would have taken (queue
     * sizes are constant across a quiescent span), then re-checks the
     * wall-clock job deadline the per-cycle `& 8191` poll would
     * otherwise miss.
     */
    void skipTo(Cycle target);

    /** Commit watchdog tripped: dump wedge state and panic. */
    [[noreturn]] void watchdogFire();

    /** Wall-clock deadline passed: throw JobTimeoutError (recoverable). */
    [[noreturn]] void jobDeadlineFire();

    /** DGSIM_PANIC hook: dump this core's state to stderr. */
    static void panicDumpThunk(void *ctx);

    /** FU and policy gates for issuing the operand-ready @p inst. */
    bool mayIssueNow(const DynInstPtr &inst, unsigned alu_used,
                     unsigned muldiv_used, unsigned agu_used);

    /** Memory-issue pass 1 for one address-ready load: gates, store
     * forwarding, demand access. True once it needs no demand issue. */
    bool tryDemandIssue(const DynInstPtr &load, unsigned &slots);

    /** Drop one lazy-list reference; recycle if squashed and last. */
    void
    dropLazyRef(const DynInstPtr &inst)
    {
        if (--inst->lazyRefs == 0 && inst->squashed)
            pool_.release(inst);
    }

    // --- Event-driven wakeup (DESIGN.md §5c) --------------------------------
    /** Mark @p reg ready; consumers left with no pending operand move
     * to the ready list. */
    void setRegReady(PhysReg reg);

    /** Queue a data-arrival event for @p load at cycle @p at. */
    void
    pushArrival(const DynInstPtr &load, Cycle at)
    {
        arrivals_.emplace_back(at, load->seq, load);
        std::push_heap(arrivals_.begin(), arrivals_.end(), std::greater<>());
    }

    /** Mark @p load's data arrived if the fill it waits for (its
     * doppelganger's if fedByDoppelganger(), else the demand fill or
     * forwarded value) has landed; true if the data is there. */
    bool noteArrival(DynInst &load);

    /** Outcome of tryPropagate(): retry later, done, or a noted
     * invalidation that squashes from this load. */
    enum class PropOutcome { Blocked, Propagated, Snooped };

    /** Gate and propagate an arrived load's value. */
    PropOutcome tryPropagate(const DynInstPtr &load);

    /** Seq-sorted insertion into @p list; no-op if already present. */
    static void insertBySeq(std::vector<DynInstPtr> &list,
                            const DynInstPtr &inst);

    /** Drop the suffix of seq-sorted @p list at or past @p first_bad. */
    static void
    popSuffix(std::vector<DynInstPtr> &list, SeqNum first_bad)
    {
        while (!list.empty() && list.back()->seq >= first_bad)
            list.pop_back();
    }

    const Program &program_;
    const SimConfig config_;
    StatRegistry &stats_;

    // Subsystems.
    std::unique_ptr<SpeculationPolicy> policy_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::unique_ptr<StrideTable> stride_table_;
    std::unique_ptr<BranchPredictor> branch_pred_;
    std::unique_ptr<DoppelgangerUnit> dg_unit_;
    RegFile regfile_;
    ShadowTracker shadow_tracker_;
    TaintTracker taint_tracker_;

    /// Recycling allocator for in-flight instruction state. Declared
    /// before the queues holding handles into it so it outlives them.
    DynInstPool pool_;

    // Committed architectural memory (stores write here at commit).
    MemoryImage data_mem_;

    // Optional lockstep oracle (config_.checkArchState).
    std::unique_ptr<FunctionalCore> oracle_;

    // Pipeline state.
    std::deque<FetchSlot> fetch_queue_;
    std::deque<DynInstPtr> rob_;
    std::deque<DynInstPtr> lq_;
    std::deque<DynInstPtr> sq_;
    /// Issue-queue occupancy (DynInst::inIq); select walks ready_.
    std::size_t iq_count_ = 0;
    /// Per-physical-register consumer lists: IQ entries waiting on the
    /// register in seq order, once per operand that reads it. Filled at
    /// dispatch, drained by setRegReady(); squash pops the suffix.
    std::vector<std::vector<DynInstPtr>> consumers_;
    /// IQ entries with every operand ready, seq-sorted.
    std::vector<DynInstPtr> ready_;
    /// Min-heap (std::greater) of (cycle, seq, load) data arrivals:
    /// demand fills, forwarded values and doppelganger fills, pushed
    /// wherever dataAt/dgDataAt is set. Squash and commit leave entries
    /// in; a seq that no longer matches the load, or its squashed or
    /// completed flag, marks an entry stale when it pops.
    std::vector<std::tuple<Cycle, SeqNum, DynInstPtr>> arrivals_;
    /// Incomplete loads whose data has arrived, seq-sorted. Writeback
    /// visits all of them every cycle, so none completes unlisted.
    std::vector<DynInstPtr> lq_arrived_;
    /// Address-ready loads still needing a demand issue (not issued,
    /// forwarded or fedByDoppelganger()), seq-sorted: pass-1 input.
    std::vector<DynInstPtr> lq_addr_ready_;
    /// Issued instructions whose functional unit has not finished yet
    /// (avoids scanning the whole ROB every cycle).
    std::vector<DynInstPtr> exec_pending_;
    /// Executed branches awaiting resolution (policy-deferred).
    std::vector<DynInstPtr> unresolved_branches_;
    /// Loads carrying an address prediction whose doppelganger access
    /// is still outstanding (pass 2 of the memory-issue stage walks
    /// this short list instead of the whole LQ). Dispatch order == seq
    /// order; squashed/stale entries are filtered lazily.
    std::vector<DynInstPtr> dg_pending_;
    /// Wake epoch: bumped by every event that can turn a previously
    /// blocked policy-gate retry (load issue, propagation, branch
    /// resolution, store AGU) into a success (register becomes ready,
    /// shadow released, taint root cleared, squash, dispatch, external
    /// invalidation). Gate-blocked work sleeps on the current epoch and
    /// is skipped until it changes. Starts at 1 so a default-initialised
    /// sleep stamp of 0 never matches.
    std::uint64_t wake_epoch_ = 1;

    Addr fetch_pc_;
    Cycle fetch_stall_until_ = 0;
    bool fetch_halted_ = false;

    Cycle cycle_ = 0;
    SeqNum next_seq_ = 1;
    std::uint64_t committed_count_ = 0;
    bool done_ = false;
    bool halted_ = false;
    bool stats_reset_done_ = false;
    /// Did the current tick change any simulated state? Cleared at tick
    /// entry; set by every stage action (commit, data arrival, FU
    /// retirement, memory issue, select, dispatch, fetch) and by any
    /// wake-epoch bump. A tick that ends with this false is quiescent:
    /// re-ticking until nextEventCycle() is provably a no-op, which is
    /// what licenses the time warp in run().
    bool progress_ = false;

    // --- Observability ----------------------------------------------------
    /// Pipeline tracer (config_.tracePath); null when tracing is off.
    std::unique_ptr<PipeTracer> tracer_;
    /// Cached `tracer_ && tracer_->ok()`: the only tracing state the
    /// per-instruction dispatch path ever tests.
    bool tracing_ = false;
    /// Ring buffer of recent µarch events, dumped on panic/watchdog.
    FlightRecorder flight_recorder_;
    /// Cycle of the most recent commit (commit watchdog reference).
    Cycle last_commit_cycle_ = 0;
    /// Wall-clock deadline (config_.jobTimeoutMs); armed at run() start
    /// and polled at the watchdog site every 8192 cycles.
    bool job_deadline_armed_ = false;
    std::chrono::steady_clock::time_point job_deadline_;

    // Statistics.
    Counter &committedInstrs_;
    Counter &committedLoadsStat_;
    Counter &committedStores_;
    Counter &committedBranches_;
    Counter &branchSquashes_;
    Counter &memOrderSquashes_;
    Counter &snoopSquashes_;
    Counter &stlForwards_;
    Counter &domRetries_;
    Counter &prefetchesIssued_;
    Counter &cyclesStat_;

    // Host-side skip accounting (StatRegistry host counters: visible
    // through hostGet()/SimResult but never in the golden counter dump,
    // so skip-on and skip-off runs dump byte-identically).
    Counter &idleSkippedStat_;
    Counter &skipEventsStat_;
    // Entries examined by select, writeback and memory issue.
    Counter &selectVisitsStat_;
    Counter &writebackVisitsStat_;
    Counter &memIssueVisitsStat_;

    // Distribution stats (separate dump section; never part of the
    // counter dump, so golden byte-compares are unaffected).
    Histogram &loadToUseDist_;
    Histogram &shadowReleaseDelayDist_;
    Histogram &robOccupancyDist_;
    Histogram &iqOccupancyDist_;
    Histogram &lqOccupancyDist_;

    /// Routes DGSIM_PANIC/DGSIM_ASSERT on this thread through
    /// dumpPipelineState. Declared last: it is constructed after (and
    /// destroyed before) every member the dump reads.
    PanicHookGuard panic_hook_;
};

} // namespace dgsim

#endif // DGSIM_CPU_CORE_HH
