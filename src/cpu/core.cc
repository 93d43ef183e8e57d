#include "cpu/core.hh"

#include <algorithm>
#include <iostream>

#include "ckpt/checkpoint.hh"
#include "common/errors.hh"
#include "common/log.hh"

namespace dgsim
{

OooCore::OooCore(const Program &program, const SimConfig &config,
                 StatRegistry &stats)
    : program_(program),
      config_(config),
      stats_(stats),
      policy_(makePolicy(config)),
      hierarchy_(std::make_unique<MemoryHierarchy>(config, stats)),
      stride_table_(std::make_unique<StrideTable>(
          config.predictorEntries, config.predictorAssoc,
          config.predictorConfidenceThreshold, stats)),
      branch_pred_(std::make_unique<BranchPredictor>(
          config.bpHistoryBits, config.btbEntries, stats)),
      dg_unit_(std::make_unique<DoppelgangerUnit>(config, *stride_table_,
                                                  stats)),
      regfile_(config.numPhysRegs),
      data_mem_(program.initialData),
      consumers_(config.numPhysRegs),
      fetch_pc_(program.entry),
      committedInstrs_(stats.counter("core.committedInstrs")),
      committedLoadsStat_(stats.counter("core.committedLoads")),
      committedStores_(stats.counter("core.committedStores")),
      committedBranches_(stats.counter("core.committedBranches")),
      branchSquashes_(stats.counter("core.branchSquashes")),
      memOrderSquashes_(stats.counter("core.memOrderSquashes")),
      snoopSquashes_(stats.counter("core.snoopSquashes")),
      stlForwards_(stats.counter("core.stlForwards")),
      domRetries_(stats.counter("core.domRetries")),
      prefetchesIssued_(stats.counter("core.prefetchesIssued")),
      cyclesStat_(stats.counter("core.cycles")),
      idleSkippedStat_(stats.hostCounter("core.idleCyclesSkipped")),
      skipEventsStat_(stats.hostCounter("core.skipEvents")),
      selectVisitsStat_(stats.hostCounter("core.selectVisits")),
      writebackVisitsStat_(stats.hostCounter("core.writebackVisits")),
      memIssueVisitsStat_(stats.hostCounter("core.memIssueVisits")),
      loadToUseDist_(stats.histogram("core.loadToUseDist", 4, 64)),
      shadowReleaseDelayDist_(
          stats.histogram("core.shadowReleaseDelayDist", 4, 64)),
      robOccupancyDist_(stats.histogram("core.robOccupancyDist", 16, 32)),
      iqOccupancyDist_(stats.histogram("core.iqOccupancyDist", 8, 32)),
      lqOccupancyDist_(stats.histogram("core.lqOccupancyDist", 8, 24)),
      panic_hook_(&OooCore::panicDumpThunk, this)
{
    if (config.checkArchState)
        oracle_ = std::make_unique<FunctionalCore>(program);
    if (!config.tracePath.empty()) {
        tracer_ = std::make_unique<PipeTracer>(
            config.tracePath, config.traceStartInst, config.traceMaxInsts);
        tracing_ = tracer_->ok();
    }
}

OooCore::~OooCore() = default;

void
OooCore::restoreFromCheckpoint(const ckpt::Checkpoint &checkpoint)
{
    DGSIM_ASSERT(cycle_ == 0 && committed_count_ == 0,
                 "checkpoint restore requires a fresh core");
    if (checkpoint.workload != program_.name)
        DGSIM_FATAL("checkpoint is for workload '" + checkpoint.workload +
                    "' but the core runs '" + program_.name + "'");
    // The reset RAT maps arch reg i to phys reg i, so writing through
    // lookup() establishes the architectural values without renaming.
    for (RegIndex i = 1; i < kNumArchRegs; ++i)
        regfile_.setValue(regfile_.lookup(i), checkpoint.regs[i]);
    data_mem_ = checkpoint.memory;
    fetch_pc_ = checkpoint.pc;
    hierarchy_->restoreWarmState(checkpoint.hierarchy);
    branch_pred_->restoreState(checkpoint.branch);
    stride_table_->restoreState(checkpoint.stride);
    if (oracle_) {
        oracle_->restoreArchState(checkpoint.regs, checkpoint.memory,
                                  checkpoint.pc, checkpoint.halted,
                                  checkpoint.instret);
    }
}

// ---------------------------------------------------------------------
// Policy context helpers.
// ---------------------------------------------------------------------

bool
OooCore::operandsTainted(const DynInst &inst) const
{
    if (inst.usesRs1 &&
        taint_tracker_.tainted(regfile_.taintRoot(inst.prs1))) {
        return true;
    }
    if (inst.usesRs2 &&
        taint_tracker_.tainted(regfile_.taintRoot(inst.prs2))) {
        return true;
    }
    return false;
}

SpecContext
OooCore::contextFor(const DynInst &inst) const
{
    SpecContext ctx;
    ctx.shadowed = shadow_tracker_.isShadowed(inst.seq);
    ctx.operandsTainted = operandsTainted(inst);
    ctx.addressPrediction = config_.addressPrediction;
    return ctx;
}

// ---------------------------------------------------------------------
// Top-level loop.
// ---------------------------------------------------------------------

void
OooCore::tick()
{
    ++cycle_;
    ++cyclesStat_;
    // Quiescence detection: any stage action or wake-epoch bump below
    // marks this tick as having made forward progress. run() consults
    // the flag to decide whether warping to the next event is safe.
    progress_ = false;
    const std::uint64_t epoch_at_entry = wake_epoch_;
    // Occupancy distributions, sampled sparsely (1 in 64 cycles): the
    // shape of the distribution is the point, not the exact integral,
    // and per-cycle sampling is measurable in the cycle loop.
    if ((cycle_ & 63) == 0) {
        robOccupancyDist_.sample(rob_.size());
        iqOccupancyDist_.sample(iq_count_);
        lqOccupancyDist_.sample(lq_.size());
    }
    commitStage();
    if (done_)
        return;
    if (config_.watchdogCycles != 0 &&
        cycle_ - last_commit_cycle_ >= config_.watchdogCycles) {
        watchdogFire();
    }
    // Wall-clock sibling of the commit watchdog: sampled sparsely so
    // the steady_clock read stays off the per-cycle path, and thrown
    // (not panicked) because a slow host is a recoverable condition.
    if (job_deadline_armed_ && (cycle_ & 8191) == 0 &&
        std::chrono::steady_clock::now() >= job_deadline_) {
        jobDeadlineFire();
    }
    writebackStage();
    executeStage();
    memoryIssueStage();
    issueStage();
    dispatchStage();
    fetchStage();
    if (wake_epoch_ != epoch_at_entry)
        progress_ = true;
}

std::uint64_t
OooCore::run()
{
    if (config_.jobTimeoutMs != 0) {
        job_deadline_armed_ = true;
        job_deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.jobTimeoutMs);
    }
    while (!done_) {
        tick();
        if (config_.maxCycles != 0 && cycle_ >= config_.maxCycles) {
            // A sweep whose config systematically hits the limit would
            // otherwise print one of these per job; the per-job numbers
            // are in the stats dump regardless.
            DGSIM_WARN_ONCE(program_.name + ": cycle limit reached at " +
                            std::to_string(cycle_) + " cycles, " +
                            std::to_string(committed_count_) +
                            " instructions (warned once per process)");
            done_ = true;
        }
        if (!config_.idleSkip || progress_ || done_)
            continue;
        // Quiescent tick: every later tick before the next event is a
        // provable no-op, so warp straight to it. Clamped so the commit
        // watchdog and the cycle limit fire at the exact cycle the
        // per-cycle loop would reach them (the landing tick runs the
        // normal checks). No finite horizon and no limit means a
        // genuinely wedged machine: keep ticking, matching the
        // per-cycle infinite spin instead of inventing a termination.
        Cycle target = nextEventCycle();
        if (config_.watchdogCycles != 0) {
            target = std::min(target,
                              last_commit_cycle_ + config_.watchdogCycles);
        }
        if (config_.maxCycles != 0)
            target = std::min(target, config_.maxCycles);
        if (target != kInvalidCycle && target > cycle_ + 1)
            skipTo(target);
    }
    return committed_count_;
}

Cycle
OooCore::nextEventCycle() const
{
    Cycle horizon = kInvalidCycle;
    const auto consider = [&horizon, this](Cycle at) {
        if (at > cycle_ && at < horizon)
            horizon = at;
    };
    // In-flight functional units (includes load/store AGU latency).
    for (const DynInstPtr &inst : exec_pending_) {
        if (!inst->squashed)
            consider(inst->execDoneAt);
    }
    // Data arrivals (demand fills, forwarded data, doppelganger fills):
    // the top of the arrival queue. A stale top only makes the horizon
    // early; one already due fires on the next tick.
    if (!arrivals_.empty())
        consider(std::max(std::get<0>(arrivals_.front()), cycle_ + 1));
    // Frontend: the oldest fetched-but-not-decoded slot, and the
    // post-squash redirect stall.
    if (!fetch_queue_.empty())
        consider(fetch_queue_.front().readyAt);
    if (!fetch_halted_ && cycle_ < fetch_stall_until_)
        consider(fetch_stall_until_);
    // Memory system: the next MSHR fill completion is the first cycle
    // a Rejected (MSHR-full) retry can succeed.
    consider(hierarchy_->nextFillCompletion(cycle_));
    return horizon;
}

void
OooCore::skipTo(Cycle target)
{
    // Stop one short: the next tick() pre-increments onto the target
    // cycle itself and runs the full stage sequence there, so the
    // landing cycle is simulated exactly as the per-cycle loop would.
    const Cycle advance_to = target - 1;
    const std::uint64_t skipped = advance_to - cycle_;
    // The skipped ticks would each have taken a sparse occupancy sample
    // at cycles divisible by 64. Queue sizes cannot change across a
    // quiescent span, so those samples are this many repeats of the
    // current sizes.
    const std::uint64_t samples = advance_to / 64 - cycle_ / 64;
    if (samples != 0) {
        robOccupancyDist_.sample(rob_.size(), samples);
        iqOccupancyDist_.sample(iq_count_, samples);
        lqOccupancyDist_.sample(lq_.size(), samples);
    }
    cycle_ = advance_to;
    cyclesStat_ += skipped;
    idleSkippedStat_ += skipped;
    ++skipEventsStat_;
    // The per-cycle loop polls the wall-clock deadline every 8192
    // cycles; a warp can jump any number of those polls, so re-check
    // here or a wedged-but-warping run could overstay its budget.
    if (job_deadline_armed_ &&
        std::chrono::steady_clock::now() >= job_deadline_) {
        jobDeadlineFire();
    }
}

// ---------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------

void
OooCore::commitStage()
{
    unsigned committed_this_cycle = 0;
    unsigned stores_this_cycle = 0;
    while (committed_this_cycle < config_.commitWidth && !rob_.empty() &&
           !done_) {
        DynInstPtr inst = rob_.front();
        DGSIM_ASSERT(!inst->squashed, "squashed instruction at ROB head");
        if (!commitOne(inst, stores_this_cycle))
            break;
        if (inst->traced)
            tracer_->flush(*inst, cycle_);
        rob_.pop_front();
        DGSIM_ASSERT(inst->lazyRefs == 0,
                     "committed instruction still on a lazy list");
        pool_.release(inst);
        ++committed_this_cycle;
    }
    if (committed_this_cycle != 0) {
        last_commit_cycle_ = cycle_;
        progress_ = true;
    }
}

bool
OooCore::commitOne(const DynInstPtr &inst, unsigned &stores_this_cycle)
{
    // --- Is the instruction committable this cycle? --------------------
    switch (inst->cls) {
      case OpClass::No_OpClass:
        break; // Completed at dispatch.
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::MemRead:
        if (!inst->completed)
            return false;
        break;
      case OpClass::Branch:
        if (!inst->executed || !inst->resolved)
            return false;
        break;
      case OpClass::MemWrite: {
        if (!inst->addrReady)
            return false;
        if (!regfile_.ready(inst->prs2))
            return false; // Store data not yet propagated.
        if (stores_this_cycle >= config_.storePorts)
            return false;
        // Drain to the memory system. Non-speculative by construction.
        MemAccessFlags flags;
        flags.isWrite = true;
        AccessOutcome outcome =
            hierarchy_->access(inst->effAddr, cycle_, flags);
        if (outcome.status == AccessStatus::Rejected) {
            flight_recorder_.record(FrEvent::MshrReject, cycle_, inst->seq,
                                    inst->effAddr);
            return false; // MSHRs full; retry next cycle.
        }
        ++stores_this_cycle;
        data_mem_.write(inst->effAddr, regfile_.value(inst->prs2));
        break;
      }
    }

    // --- Lockstep oracle cross-check -----------------------------------
    if (oracle_) {
        DGSIM_ASSERT(!oracle_->halted() || inst->inst.op == Opcode::Halt,
                     "oracle halted before the pipeline");
        DGSIM_ASSERT(oracle_->pc() == inst->pc,
                     "committed PC diverged from functional oracle at seq " +
                         std::to_string(inst->seq));
        const StepResult step = oracle_->step();
        if (inst->isLoad() || inst->isStore()) {
            DGSIM_ASSERT(step.effAddr == inst->effAddr,
                         "effective address diverged from oracle at " +
                             disassemble(inst->inst));
        }
        if (inst->isBranch()) {
            DGSIM_ASSERT(step.taken == inst->actualTaken,
                         "branch outcome diverged from oracle");
        }
        if (inst->hasDest) {
            DGSIM_ASSERT(regfile_.value(inst->prd) ==
                             oracle_->reg(inst->inst.rd),
                         "register value diverged from oracle at " +
                             disassemble(inst->inst));
        }
    }

    // --- Commit actions --------------------------------------------------
    if (inst->hasDest)
        regfile_.releaseAtCommit(inst->prevPrd);

    if (inst->isBranch()) {
        ++committedBranches_;
        branch_pred_->update(inst->pc, inst->inst, inst->actualTaken,
                             inst->actualTarget, inst->ghrSnapshot);
    }

    if (inst->isLoad()) {
        ++committedLoadsStat_;
        DGSIM_ASSERT(!lq_.empty() && lq_.front() == inst,
                     "LQ head out of sync with ROB");
        lq_.pop_front();
        taint_tracker_.clearRoot(inst->seq);
        if (policy_->taintsLoads())
            ++wake_epoch_; // Untaint can unblock gated work.
        if (inst->domDeferredTouch)
            hierarchy_->commitTouch(inst->effAddr);
        if (inst->dgDeferredTouch &&
            inst->dgState == DgState::Verified) {
            hierarchy_->commitTouch(inst->dgPredictedAddr);
        }
        dg_unit_->commitLoad(*inst);
        // Prefetching mode of the shared stride structure (paper §5.1):
        // at commit, predict future instances and prefetch them.
        if (config_.prefetcherEnabled) {
            auto ahead = stride_table_->predictAhead(
                inst->pc, inst->effAddr, config_.prefetchDegree);
            if (ahead &&
                hierarchy_->lineAddr(*ahead) !=
                    hierarchy_->lineAddr(inst->effAddr)) {
                MemAccessFlags flags;
                flags.isPrefetch = true;
                AccessOutcome outcome =
                    hierarchy_->access(*ahead, cycle_, flags);
                if (outcome.accepted())
                    ++prefetchesIssued_;
            }
        }
    }

    if (inst->isStore()) {
        ++committedStores_;
        DGSIM_ASSERT(!sq_.empty() && sq_.front() == inst,
                     "SQ head out of sync with ROB");
        sq_.pop_front();
    }

    if (inst->inst.op == Opcode::Halt) {
        done_ = true;
        halted_ = true;
    }

    ++committed_count_;
    ++committedInstrs_;

    if (config_.maxInstructions != 0 &&
        committed_count_ >= config_.maxInstructions) {
        done_ = true;
    }
    if (config_.warmupInstructions != 0 && !stats_reset_done_ &&
        committed_count_ >= config_.warmupInstructions) {
        stats_.resetAll();
        stats_reset_done_ = true;
    }
    return true;
}

// ---------------------------------------------------------------------
// Writeback: load data arrival/propagation, branch resolution, untaint.
// ---------------------------------------------------------------------

void
OooCore::propagateLoad(const DynInstPtr &inst, RegValue value)
{
    if (inst->prd != kInvalidPhysReg) {
        regfile_.setValue(inst->prd, value);
        if (policy_->taintsLoads() &&
            shadow_tracker_.isShadowed(inst->seq)) {
            regfile_.setTaintRoot(inst->prd, inst->seq);
            taint_tracker_.addRoot(inst->seq);
            inst->resultTainted = true;
        }
        setRegReady(inst->prd);
    }
    ++wake_epoch_; // Register wakeup (and possibly a new taint root).
    inst->completed = true;
    inst->completedAt = cycle_;
    // Load-to-use latency: dispatch to value propagation, i.e. what
    // the consumer actually observes (includes every policy delay).
    loadToUseDist_.sample(cycle_ - inst->dispatchedAt);
}

std::optional<std::pair<RegValue, SeqNum>>
OooCore::loadValueNow(const DynInst &inst, Addr addr) const
{
    // Youngest older store with a resolved matching address wins
    // (store-to-load forwarding / doppelganger preload override §4.4).
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const DynInstPtr &store = *it;
        if (store->seq >= inst.seq)
            continue;
        if (!store->addrReady || store->effAddr != addr)
            continue;
        if (!regfile_.ready(store->prs2))
            return std::nullopt; // Data not produced yet; retry.
        return std::make_pair(regfile_.value(store->prs2), store->seq);
    }
    return std::make_pair(data_mem_.read(addr), kInvalidSeq);
}

bool
OooCore::noteArrival(DynInst &load)
{
    const bool via_dg = load.fedByDoppelganger();
    bool &arrived = via_dg ? load.dgDataArrived : load.dataArrived;
    const Cycle at = via_dg ? load.dgDataAt : load.dataAt;
    if (!arrived && (via_dg || load.memIssued || load.forwarded) &&
        at <= cycle_) {
        arrived = true;
        progress_ = true;
    }
    return arrived;
}

OooCore::PropOutcome
OooCore::tryPropagate(const DynInstPtr &load)
{
    if (load->propSleepEpoch == wake_epoch_)
        return PropOutcome::Blocked; // Gate-blocked; nothing changed since.
    const auto block = [this, &load](FrGate gate) {
        load->propSleepEpoch = wake_epoch_;
        load->policyBlocked |= gate == FrGate::Policy;
        flight_recorder_.record(FrEvent::PropBlocked, cycle_, load->seq,
                                load->effAddr,
                                static_cast<std::uint32_t>(gate));
        return PropOutcome::Blocked;
    };
    const SpecContext ctx = contextFor(*load);
    const bool allowed = load->fedByDoppelganger()
                             ? policy_->dgMayPropagate(*load, ctx)
                             : policy_->loadMayPropagate(*load, ctx);
    if (!allowed)
        return block(FrGate::Policy);
    // §4.5: a noted invalidation takes effect when the (preloaded) data
    // would propagate.
    if (load->invalSnooped)
        return PropOutcome::Snooped;
    const auto value = loadValueNow(*load, load->effAddr);
    if (!value)
        return block(FrGate::StoreData);
    load->fwdFromSeq = value->second;
    propagateLoad(load, value->first);
    return PropOutcome::Propagated;
}

void
OooCore::writebackStage()
{
    // --- Data arrivals -------------------------------------------------
    // Every event due by now lists its load for propagation. Stale ones
    // (the load was squashed, completed through its other access, or
    // committed and recycled) fall out on their seq stamp and flags.
    while (!arrivals_.empty() && std::get<0>(arrivals_.front()) <= cycle_) {
        std::pop_heap(arrivals_.begin(), arrivals_.end(), std::greater<>());
        const auto [at, seq, load] = arrivals_.back();
        arrivals_.pop_back();
        ++writebackVisitsStat_;
        if (load->seq == seq && !load->squashed && !load->completed &&
            noteArrival(*load)) {
            insertBySeq(lq_arrived_, load);
        }
    }

    // --- Propagation, oldest first ---------------------------------------
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lq_arrived_.size(); ++i) {
        const DynInstPtr load = lq_arrived_[i];
        ++writebackVisitsStat_;
        // Listed on its demand data but since fed by an issued, verified
        // doppelganger: wait for that fill, whose event lists it again.
        if (!noteArrival(*load))
            continue;
        const PropOutcome outcome = tryPropagate(load);
        if (outcome == PropOutcome::Blocked) {
            lq_arrived_[kept++] = load;
        } else if (outcome == PropOutcome::Snooped) {
            // The rest of the list is this load and younger ones, all
            // squashed now.
            lq_arrived_.resize(kept);
            ++snoopSquashes_;
            squashFrom(load->seq, load->pc, SquashReason::InvalidationSnoop);
            return;
        }
    }
    lq_arrived_.resize(kept);

    // --- Deferred branch resolutions, oldest first -----------------------
    // The list is kept seq-sorted by insertBySeq(), so no per-cycle sort
    // is needed.
    kept = 0;
    std::size_t next = 0;
    while (next < unresolved_branches_.size()) {
        const DynInstPtr inst = unresolved_branches_[next++];
        if (inst->squashed) {
            dropLazyRef(inst);
            continue;
        }
        if (inst->propSleepEpoch == wake_epoch_) {
            unresolved_branches_[kept++] = inst;
            continue; // Resolution still gated; nothing changed since.
        }
        const std::size_t rob_size_before = rob_.size();
        resolveBranch(inst);
        if (!inst->resolved) {
            inst->propSleepEpoch = wake_epoch_;
            unresolved_branches_[kept++] = inst;
        } else {
            dropLazyRef(inst);
        }
        // A squash truncated the ROB; keep the rest for next cycle.
        if (rob_.size() != rob_size_before)
            break;
    }
    unresolved_branches_.erase(unresolved_branches_.begin() + kept,
                               unresolved_branches_.begin() + next);

    // --- STT untaint sweep -------------------------------------------------
    // Every root older than the oldest unresolved shadow caster has
    // reached its visibility point.
    if (policy_->taintsLoads() && !taint_tracker_.empty()) {
        const SeqNum oldest_caster = shadow_tracker_.oldest();
        const std::size_t cleared =
            taint_tracker_.clearRootsBelow(oldest_caster);
        if (cleared != 0) {
            ++wake_epoch_; // Untaint can unblock gated work.
            flight_recorder_.record(
                FrEvent::Untaint, cycle_, oldest_caster, 0,
                static_cast<std::uint32_t>(cleared));
        }
    }
}

void
OooCore::insertBySeq(std::vector<DynInstPtr> &list, const DynInstPtr &inst)
{
    // The lists are short and mostly appended to; the shift is cheaper
    // than a node-based set.
    const auto it = std::upper_bound(
        list.begin(), list.end(), inst->seq,
        [](SeqNum seq, const DynInstPtr &other) { return seq < other->seq; });
    if (it == list.begin() || *(it - 1) != inst)
        list.insert(it, inst);
}

void
OooCore::setRegReady(PhysReg reg)
{
    regfile_.setReady(reg);
    std::vector<DynInstPtr> &waiting = consumers_[reg];
    for (const DynInstPtr &inst : waiting) {
        DGSIM_ASSERT(inst->inIq && inst->pendingOperands != 0,
                     "consumer list holds an instruction not waiting");
        if (--inst->pendingOperands == 0)
            insertBySeq(ready_, inst);
    }
    waiting.clear();
}

void
OooCore::resolveBranch(const DynInstPtr &inst)
{
    SpecContext ctx = contextFor(*inst);
    if (!policy_->branchMayResolve(*inst, ctx))
        return;
    inst->resolved = true;
    shadow_tracker_.release(inst->seq);
    ++wake_epoch_; // A lifted shadow can unblock gated work.
    // Only actual casters (conditional branches, indirect jumps) held a
    // shadow; release() was a no-op for the rest.
    if (isCondBranch(inst->inst.op) || inst->inst.op == Opcode::Jalr) {
        flight_recorder_.record(FrEvent::ShadowRelease, cycle_, inst->seq,
                                inst->pc);
        shadowReleaseDelayDist_.sample(cycle_ - inst->dispatchedAt);
    }
    if (!inst->mispredicted)
        return;

    ++branchSquashes_;
    // Repair the speculative global history.
    if (isCondBranch(inst->inst.op)) {
        branch_pred_->repairHistory(inst->ghrSnapshot, inst->actualTaken);
    } else {
        // Indirect jumps never shifted the history; restore the snapshot.
        branch_pred_->repairHistory(inst->ghrSnapshot >> 1,
                                    inst->ghrSnapshot & 1);
    }
    const Addr redirect =
        inst->actualTaken ? inst->actualTarget : inst->pc + 1;
    squashFrom(inst->seq + 1, redirect, SquashReason::BranchMispredict);
}

// ---------------------------------------------------------------------
// Execute: retire functional units, resolve addresses, detect
// violations, verify doppelgangers.
// ---------------------------------------------------------------------

void
OooCore::executeStage()
{
    // exec_pending_ holds issued-but-unfinished instructions in issue
    // order (== program order, since select is oldest-first). Squashed
    // entries are filtered lazily.
    std::size_t kept = 0;
    std::size_t next = 0;
    while (next < exec_pending_.size()) {
        const DynInstPtr inst = exec_pending_[next++];
        if (inst->squashed) {
            dropLazyRef(inst);
            continue;
        }
        if (inst->execDoneAt > cycle_) {
            exec_pending_[kept++] = inst;
            continue;
        }
        // Leaving the list either way below; a deferred branch re-adds
        // itself to unresolved_branches_.
        --inst->lazyRefs;
        DGSIM_ASSERT(!inst->executed, "double execution");
        inst->executed = true;
        progress_ = true;
        bool squashed_younger = false;
        switch (inst->cls) {
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::IntDiv:
            if (inst->prd != kInvalidPhysReg) {
                setRegReady(inst->prd);
                ++wake_epoch_; // Register wakeup.
            }
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
          case OpClass::Branch: {
            if (inst->prd != kInvalidPhysReg) {
                setRegReady(inst->prd);
                ++wake_epoch_; // Register wakeup.
            }
            inst->completedAt = cycle_;
            // Resolution is attempted immediately; if the policy defers
            // it (tainted predicate, out-of-order under DoM+AP), the
            // writeback stage retries it whenever the wake epoch moves.
            const std::size_t rob_size_before = rob_.size();
            resolveBranch(inst);
            if (!inst->resolved) {
                // Once per deferral (retries are epoch-gated): makes a
                // resolution-wedged pipeline legible in the dump.
                flight_recorder_.record(
                    FrEvent::PropBlocked, cycle_, inst->seq, inst->pc,
                    static_cast<std::uint32_t>(FrGate::Policy));
                // Issue order is not program order (an older branch can
                // issue after a younger one): insert at the sorted spot.
                ++inst->lazyRefs;
                insertBySeq(unresolved_branches_, inst);
            }
            squashed_younger = rob_.size() != rob_size_before;
            break;
          }
          case OpClass::MemRead: {
            inst->addrReady = true;
            const bool had_prediction = inst->dgState == DgState::Predicted;
            dg_unit_->verify(*inst);
            if (had_prediction) {
                if (inst->dgState == DgState::Verified) {
                    flight_recorder_.record(FrEvent::DgVerifyOk, cycle_,
                                            inst->seq, inst->effAddr);
                } else if (inst->dgState == DgState::Mispredicted) {
                    flight_recorder_.record(FrEvent::DgVerifyBad, cycle_,
                                            inst->seq, inst->effAddr);
                }
            }
            if (!inst->fedByDoppelganger()) {
                insertBySeq(lq_addr_ready_, inst); // Needs a demand issue.
            } else if (inst->dgDataAt <= cycle_) {
                // The doppelganger filled before verification; its
                // arrival event fired (and was dropped) while the
                // prediction was unverified, so queue it again.
                pushArrival(inst, inst->dgDataAt);
            }
            break;
          }
          case OpClass::MemWrite: {
            inst->addrReady = true;
            // Address known: the data shadow lifts.
            shadow_tracker_.release(inst->seq);
            ++wake_epoch_; // A lifted shadow can unblock gated work.
            flight_recorder_.record(FrEvent::ShadowRelease, cycle_,
                                    inst->seq, inst->effAddr);
            shadowReleaseDelayDist_.sample(cycle_ - inst->dispatchedAt);
            const std::size_t rob_size_before = rob_.size();
            checkMemOrderViolation(inst);
            squashed_younger = rob_.size() != rob_size_before;
            // Commit-readiness is tracked via addrReady + data ready.
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
          }
          case OpClass::No_OpClass:
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
        }
        // Keep the unprocessed tail (squashed entries in it are filtered
        // next cycle) and stop this scan.
        if (squashed_younger)
            break;
    }
    exec_pending_.erase(exec_pending_.begin() + kept,
                        exec_pending_.begin() + next);
}

void
OooCore::checkMemOrderViolation(const DynInstPtr &store)
{
    // A younger load that already propagated a value not obtained from
    // this store (or a store younger than it) read stale data. The LQ
    // is seq-sorted; skip straight past the older loads.
    const auto younger = std::lower_bound(
        lq_.begin(), lq_.end(), store->seq + 1,
        [](const DynInstPtr &load, SeqNum seq) { return load->seq < seq; });
    for (auto it = younger; it != lq_.end(); ++it) {
        const DynInstPtr &load = *it;
        if (load->squashed)
            continue;
        if (!load->completed || !load->addrReady)
            continue;
        if (load->effAddr != store->effAddr)
            continue;
        if (load->fwdFromSeq != kInvalidSeq &&
            load->fwdFromSeq >= store->seq) {
            continue; // Got its value from this store or a younger one.
        }
        ++memOrderSquashes_;
        squashFrom(load->seq, load->pc, SquashReason::MemOrderViolation);
        return;
    }
}

// ---------------------------------------------------------------------
// Memory issue: demand loads first, doppelgangers fill idle ports.
// ---------------------------------------------------------------------

bool
OooCore::tryDemandIssue(const DynInstPtr &load, unsigned &slots)
{
    DGSIM_ASSERT(load->addrReady && !load->memIssued && !load->forwarded &&
                     !load->fedByDoppelganger(),
                 "address-ready list holds a load not awaiting demand issue");
    if (load->issueSleepEpoch == wake_epoch_)
        return false; // Gate-blocked; nothing changed since.
    // A blocked load sleeps on the wake epoch; a scheme gate also marks
    // it policy-blocked.
    const auto block = [this, &load](FrGate gate) {
        load->issueSleepEpoch = wake_epoch_;
        load->policyBlocked |= gate != FrGate::StoreData;
        flight_recorder_.record(FrEvent::IssueBlocked, cycle_, load->seq,
                                load->effAddr,
                                static_cast<std::uint32_t>(gate));
        return false;
    };

    const SpecContext ctx = contextFor(*load);
    if (load->dgState == DgState::Mispredicted &&
        !policy_->dgReplayMayIssue(*load, ctx)) {
        return block(FrGate::DgReplay);
    }
    if (!policy_->loadMayIssue(*load, ctx))
        return block(FrGate::Policy);
    if (load->domDelayed && ctx.shadowed)
        return block(FrGate::DomWait); // DoM: wait until non-speculative.

    // Store-to-load forwarding: the youngest older resolved store with a
    // matching address supplies the value without a cache access.
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const DynInstPtr &store = *it;
        if (store->seq >= load->seq)
            continue;
        if (!store->addrReady || store->effAddr != load->effAddr)
            continue;
        // Wait for the store data (a register wakeup); either way no
        // cache access.
        if (!regfile_.ready(store->prs2))
            return block(FrGate::StoreData);
        load->forwarded = true;
        load->fwdFromSeq = store->seq;
        load->dataAt = cycle_ + 1;
        pushArrival(load, load->dataAt);
        ++stlForwards_;
        progress_ = true;
        return true;
    }

    MemAccessFlags flags = policy_->loadAccessFlags(*load, ctx);
    if (load->domDelayed) {
        // Counted per attempt, including MSHR-rejected ones below — a
        // golden counter moves on this tick, so it must never be treated
        // as quiescent (the time warp would compress the per-cycle retry
        // spin and undercount).
        ++domRetries_;
        progress_ = true;
        flags.speculative = false; // Non-speculative re-issue.
    }
    const AccessOutcome outcome =
        hierarchy_->access(load->effAddr, cycle_, flags);
    --slots; // The port is spent whatever the outcome.
    switch (outcome.status) {
      case AccessStatus::Hit:
      case AccessStatus::Miss:
        load->memIssued = true;
        load->dataAt = outcome.completeAt;
        pushArrival(load, load->dataAt);
        load->l1Hit = outcome.l1Hit;
        load->domDeferredTouch = flags.delayReplacementUpdate &&
                                 outcome.status == AccessStatus::Hit;
        progress_ = true;
        return true;
      case AccessStatus::DomDelayed:
        load->domDelayed = true;
        flight_recorder_.record(FrEvent::DomDelay, cycle_, load->seq,
                                load->effAddr);
        progress_ = true;
        return false;
      case AccessStatus::Rejected:
        flight_recorder_.record(FrEvent::MshrReject, cycle_, load->seq,
                                load->effAddr);
        return false; // Retry next cycle.
    }
    DGSIM_PANIC("unknown access status");
}

void
OooCore::memoryIssueStage()
{
    unsigned slots = config_.loadPorts;

    // --- Pass 1: demand loads (priority; paper §5 "non-predicted
    // addresses are always prioritized for execution") ------------------
    // Oldest first over the address-ready loads only; a load leaves the
    // list once it issues or is forwarded.
    std::size_t kept = 0;
    std::size_t visited = 0;
    for (; visited < lq_addr_ready_.size() && slots != 0; ++visited) {
        const DynInstPtr load = lq_addr_ready_[visited];
        if (!tryDemandIssue(load, slots))
            lq_addr_ready_[kept++] = load;
    }
    lq_addr_ready_.erase(lq_addr_ready_.begin() + kept,
                         lq_addr_ready_.begin() + visited);
    memIssueVisitsStat_ += visited;

    // --- Pass 2: doppelgangers into the remaining slots ------------------
    // Only loads that dispatched with a prediction can ever issue one,
    // so the pass walks the short dg_pending_ list (seq-sorted) instead
    // of the LQ, pruning stale entries as it goes.
    if (!dg_unit_->enabled())
        return;
    kept = 0;
    visited = 0;
    for (; visited < dg_pending_.size(); ++visited) {
        const DynInstPtr load = dg_pending_[visited];
        if (load->squashed) {
            dropLazyRef(load);
            continue;
        }
        // Issued, completed and confirmed-mispredicted loads can never
        // issue a doppelganger again; drop them for good.
        if (load->dgAccessIssued || load->completed ||
            load->dgState == DgState::Mispredicted) {
            --load->lazyRefs;
            continue;
        }
        if (slots == 0)
            break; // Ports exhausted: keep the unexamined tail.
        // Unverified predictions always qualify. A *verified* prediction
        // may still issue if the demand access is being held by DoM: the
        // predicted address is secret-independent either way (§4.6).
        const bool eligible =
            load->dgState == DgState::Predicted ||
            (load->dgState == DgState::Verified && load->domDelayed);
        if (!eligible) {
            dg_pending_[kept++] = load;
            continue;
        }
        const bool shadowed = shadow_tracker_.isShadowed(load->seq);
        MemAccessFlags flags;
        flags.isDoppelganger = true;
        flags.speculative = shadowed;
        // A doppelganger may miss even under DoM (its address cannot
        // depend on a secret, §4.6), but a DoM speculative hit defers
        // its replacement update like any DoM hit (§5.3).
        flags.delayReplacementUpdate =
            config_.scheme == Scheme::Dom && shadowed;
        const AccessOutcome outcome =
            hierarchy_->access(load->dgPredictedAddr, cycle_, flags);
        switch (outcome.status) {
          case AccessStatus::Hit:
          case AccessStatus::Miss:
            load->dgAccessIssued = true;
            load->dgDataAt = outcome.completeAt;
            pushArrival(load, load->dgDataAt);
            if (load->dgState == DgState::Verified)
                std::erase(lq_addr_ready_, load); // Fed by this access now.
            load->dgL1Hit = outcome.status == AccessStatus::Hit;
            load->dgDeferredTouch = flags.delayReplacementUpdate &&
                                    outcome.status == AccessStatus::Hit;
            ++dg_unit_->issuedDg;
            flight_recorder_.record(FrEvent::DgIssue, cycle_, load->seq,
                                    load->dgPredictedAddr);
            --slots;
            --load->lazyRefs; // Done with the list.
            progress_ = true;
            break;
          case AccessStatus::Rejected:
            flight_recorder_.record(FrEvent::MshrReject, cycle_, load->seq,
                                    load->dgPredictedAddr);
            --slots; // Retry next cycle.
            dg_pending_[kept++] = load;
            break;
          case AccessStatus::DomDelayed:
            DGSIM_PANIC("doppelganger access must never be DoM-delayed");
        }
    }
    dg_pending_.erase(dg_pending_.begin() + kept,
                      dg_pending_.begin() + visited);
    memIssueVisitsStat_ += visited;
}

// ---------------------------------------------------------------------
// Issue: select from the ready list, oldest first.
// ---------------------------------------------------------------------

void
OooCore::startExecution(const DynInstPtr &inst)
{
    const RegValue a = inst->usesRs1 ? regfile_.value(inst->prs1) : 0;
    const RegValue b = inst->usesRs2 ? regfile_.value(inst->prs2) : 0;

    switch (inst->cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        if (inst->prd != kInvalidPhysReg) {
            regfile_.setValue(inst->prd, evalAlu(inst->inst, a, b));
            // Taint propagates through register dataflow (STT).
            const SeqNum root = taint_tracker_.combine(
                inst->usesRs1 ? regfile_.taintRoot(inst->prs1)
                              : kInvalidSeq,
                inst->usesRs2 ? regfile_.taintRoot(inst->prs2)
                              : kInvalidSeq);
            regfile_.setTaintRoot(inst->prd, root);
        }
        break;
      case OpClass::Branch: {
        inst->actualTaken = evalBranchTaken(inst->inst, a, b);
        if (inst->inst.op == Opcode::Jal) {
            inst->actualTarget = static_cast<Addr>(inst->inst.imm);
        } else if (inst->inst.op == Opcode::Jalr) {
            inst->actualTarget = a + static_cast<Addr>(inst->inst.imm);
        } else {
            inst->actualTarget = inst->actualTaken
                                     ? static_cast<Addr>(inst->inst.imm)
                                     : inst->pc + 1;
        }
        const Addr predicted_next = inst->predictedTaken
                                        ? inst->predictedTarget
                                        : inst->pc + 1;
        const Addr actual_next =
            inst->actualTaken ? inst->actualTarget : inst->pc + 1;
        inst->mispredicted = predicted_next != actual_next ||
                             inst->predictedTaken != inst->actualTaken;
        if (inst->prd != kInvalidPhysReg) {
            regfile_.setValue(inst->prd, inst->pc + 1);
            regfile_.setTaintRoot(inst->prd, kInvalidSeq);
        }
        break;
      }
      case OpClass::MemRead:
      case OpClass::MemWrite:
        // AGU: word-aligned effective address (wrong-path addresses may
        // be arbitrary; mask instead of faulting).
        inst->effAddr =
            (a + static_cast<Addr>(inst->inst.imm)) &
            ~static_cast<Addr>(kWordBytes - 1);
        break;
      case OpClass::No_OpClass:
        break;
    }
}

bool
OooCore::mayIssueNow(const DynInstPtr &inst, unsigned alu_used,
                     unsigned muldiv_used, unsigned agu_used)
{
    DGSIM_ASSERT(inst->inIq && inst->pendingOperands == 0,
                 "ready list holds an instruction with unready operands");

    // Functional unit availability.
    switch (inst->cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        if (alu_used >= config_.numAlus)
            return false;
        break;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        if (muldiv_used >= config_.numMulDivs)
            return false;
        break;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        if (agu_used >= config_.numAgus)
            return false;
        break;
      case OpClass::No_OpClass:
        break;
    }

    // Scheme gates at the AGU; a blocked store sleeps on the epoch.
    if (inst->isStore()) {
        if (inst->issueSleepEpoch == wake_epoch_)
            return false;
        SpecContext ctx = contextFor(*inst);
        if (!policy_->storeMayIssueAgu(*inst, ctx)) {
            inst->issueSleepEpoch = wake_epoch_;
            return false;
        }
    }
    return true;
}

void
OooCore::issueStage()
{
    unsigned total = 0;
    unsigned alu_used = 0;
    unsigned muldiv_used = 0;
    unsigned agu_used = 0;

    // Oldest-first select over the ready list (every entry a real
    // candidate), compacting issued entries out in place.
    std::size_t kept = 0;
    std::size_t visited = 0;
    for (; visited < ready_.size() && total < config_.issueWidth;
         ++visited) {
        const DynInstPtr inst = ready_[visited];
        DGSIM_ASSERT(!inst->squashed, "squashed instruction in IQ");
        if (!mayIssueNow(inst, alu_used, muldiv_used, agu_used)) {
            ready_[kept++] = inst;
            continue;
        }

        inst->inIq = false;
        --iq_count_;
        inst->issued = true;
        inst->issuedAt = cycle_;
        inst->execDoneAt = cycle_ + execLatency(inst->inst.op);
        startExecution(inst);
        ++inst->lazyRefs;
        exec_pending_.push_back(inst);
        ++total;
        switch (inst->cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
            ++alu_used;
            break;
          case OpClass::IntMul:
          case OpClass::IntDiv:
            ++muldiv_used;
            break;
          case OpClass::MemRead:
          case OpClass::MemWrite:
            ++agu_used;
            break;
          default:
            break;
        }
    }
    ready_.erase(ready_.begin() + kept, ready_.begin() + visited);
    selectVisitsStat_ += visited;
    if (total != 0)
        progress_ = true;
}

// ---------------------------------------------------------------------
// Dispatch: rename and allocate ROB/IQ/LQ/SQ entries.
// ---------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    unsigned dispatched = 0;
    while (dispatched < config_.decodeWidth && !fetch_queue_.empty() &&
           fetch_queue_.front().readyAt <= cycle_) {
        const FetchSlot &slot = fetch_queue_.front();
        const Opcode op = slot.inst.op;
        const OpClass cls = opClass(op);
        const bool needs_iq = cls != OpClass::No_OpClass;

        // Structural hazards: stall dispatch in order.
        if (rob_.size() >= config_.robEntries)
            break;
        if (needs_iq && iq_count_ >= config_.iqEntries)
            break;
        if (cls == OpClass::MemRead && lq_.size() >= config_.lqEntries)
            break;
        if (cls == OpClass::MemWrite && sq_.size() >= config_.sqEntries)
            break;
        const bool has_dest = writesDest(slot.inst);
        if (has_dest && regfile_.freeListEmpty())
            break;

        const DynInstPtr inst = pool_.alloc();
        inst->seq = next_seq_++;
        inst->pc = slot.pc;
        inst->inst = slot.inst;
        inst->cls = cls;
        inst->dispatchedAt = cycle_;
        if (tracing_ && tracer_->shouldArm(committed_count_)) {
            inst->traced = true;
            inst->tsFetch = slot.readyAt - config_.frontendDelay;
            inst->tsDecode = slot.readyAt;
        }
        inst->usesRs1 = readsRs1(slot.inst);
        inst->usesRs2 = readsRs2(slot.inst);
        inst->hasDest = has_dest;
        if (inst->usesRs1)
            inst->prs1 = regfile_.lookup(slot.inst.rs1);
        if (inst->usesRs2)
            inst->prs2 = regfile_.lookup(slot.inst.rs2);
        if (has_dest) {
            auto [fresh, previous] = regfile_.rename(slot.inst.rd);
            DGSIM_ASSERT(consumers_[fresh].empty(),
                         "renamed a register that still has consumers");
            inst->prd = fresh;
            inst->prevPrd = previous;
        }

        if (cls == OpClass::Branch) {
            inst->predictedTaken = slot.predictedTaken;
            inst->predictedTarget = slot.predictedTarget;
            inst->ghrSnapshot = slot.ghrBefore;
            // Control shadows: conditional branches and indirect jumps
            // speculate; direct unconditional jumps do not.
            if (isCondBranch(op) || op == Opcode::Jalr)
                shadow_tracker_.cast(inst->seq);
        } else if (cls == OpClass::MemWrite) {
            // Data shadow until the store address resolves.
            shadow_tracker_.cast(inst->seq);
        } else if (cls == OpClass::No_OpClass) {
            inst->completed = true;
            inst->completedAt = cycle_;
        }

        rob_.push_back(inst);
        if (needs_iq) {
            inst->inIq = true;
            ++iq_count_;
            // Wait on each unready issue operand (a store's data register
            // is read at commit, not issue); rs1 == rs2 waits twice.
            const PhysReg prs2 = inst->isStore() ? kInvalidPhysReg : inst->prs2;
            for (const PhysReg reg : {inst->prs1, prs2}) {
                if (reg != kInvalidPhysReg && !regfile_.ready(reg)) {
                    consumers_[reg].push_back(inst);
                    ++inst->pendingOperands;
                }
            }
            if (inst->pendingOperands == 0)
                ready_.push_back(inst); // Youngest seq: stays sorted.
            // The gate retry memos stay coarse: any dispatch re-arms them.
            ++wake_epoch_;
        }
        if (cls == OpClass::MemRead) {
            lq_.push_back(inst);
            dg_unit_->attachPrediction(*inst);
            if (inst->dgState == DgState::Predicted) {
                flight_recorder_.record(FrEvent::DgPredict, cycle_,
                                        inst->seq, inst->dgPredictedAddr);
                ++inst->lazyRefs;
                dg_pending_.push_back(inst);
            }
        }
        if (cls == OpClass::MemWrite)
            sq_.push_back(inst);

        fetch_queue_.pop_front();
        ++dispatched;
    }
    if (dispatched != 0)
        progress_ = true;
}

// ---------------------------------------------------------------------
// Fetch.
// ---------------------------------------------------------------------

void
OooCore::fetchStage()
{
    if (fetch_halted_ || cycle_ < fetch_stall_until_)
        return;
    // Bound the frontend buffer (fetch-to-rename skid).
    const std::size_t cap =
        static_cast<std::size_t>(config_.fetchWidth) *
        (config_.frontendDelay + 4);
    const std::size_t queued_before = fetch_queue_.size();
    for (unsigned i = 0;
         i < config_.fetchWidth && fetch_queue_.size() < cap; ++i) {
        const Instruction inst = program_.fetch(fetch_pc_);
        FetchSlot slot;
        slot.pc = fetch_pc_;
        slot.inst = inst;
        slot.readyAt = cycle_ + config_.frontendDelay;

        if (isControl(inst.op)) {
            const BranchPrediction prediction =
                branch_pred_->predict(fetch_pc_, inst);
            slot.predictedTaken = prediction.taken;
            slot.predictedTarget = prediction.target;
            slot.ghrBefore = prediction.ghrBefore;
            fetch_queue_.push_back(slot);
            if (prediction.taken) {
                fetch_pc_ = prediction.target;
                break; // Taken-branch fetch break.
            }
            ++fetch_pc_;
        } else {
            fetch_queue_.push_back(slot);
            if (inst.op == Opcode::Halt) {
                fetch_halted_ = true;
                break;
            }
            ++fetch_pc_;
        }
    }
    if (fetch_queue_.size() != queued_before)
        progress_ = true;
}

// ---------------------------------------------------------------------
// Squash.
// ---------------------------------------------------------------------

void
OooCore::squashFrom(SeqNum first_bad, Addr redirect_pc, SquashReason why)
{
    flight_recorder_.record(FrEvent::Squash, cycle_, first_bad, redirect_pc,
                            static_cast<std::uint32_t>(why));
    // Rename rollback, shadow and taint cleanup below can all unblock
    // older gated work; wake every sleeper.
    ++wake_epoch_;
    // The LQ, SQ and the event lists are seq-sorted, so a squash removes
    // a suffix of each. Drop their references before the ROB walk
    // recycles the entries. (Queued arrivals go stale on their own.)
    popSuffix(ready_, first_bad);
    popSuffix(lq_arrived_, first_bad);
    popSuffix(lq_addr_ready_, first_bad);
    while (!lq_.empty() && lq_.back()->seq >= first_bad)
        lq_.pop_back();
    while (!sq_.empty() && sq_.back()->seq >= first_bad)
        sq_.pop_back();
    while (!rob_.empty() && rob_.back()->seq >= first_bad) {
        const DynInstPtr inst = rob_.back();
        inst->squashed = true;
        if (inst->traced)
            tracer_->flush(*inst, 0); // Retire tick 0 == squashed.
        if (inst->inIq) {
            --iq_count_;
            // Consumer lists are seq-sorted too: an entry waiting on an
            // older producer is in that list's squashed suffix.
            for (const PhysReg reg : {inst->prs1, inst->prs2}) {
                if (reg != kInvalidPhysReg)
                    popSuffix(consumers_[reg], first_bad);
            }
        }
        // Undo rename youngest-first so RAT state unwinds correctly. Its
        // consumers are all younger, so already unlinked above.
        if (inst->hasDest) {
            DGSIM_ASSERT(consumers_[inst->prd].empty(),
                         "squashed producer still has waiting consumers");
            regfile_.rollback(inst->inst.rd, inst->prd, inst->prevPrd);
        }
        // Idempotent cleanups.
        shadow_tracker_.release(inst->seq);
        if (inst->isLoad()) {
            taint_tracker_.clearRoot(inst->seq);
            dg_unit_->squashLoad(*inst);
        }
        rob_.pop_back();
        // exec_pending_/unresolved_branches_ may still reference the
        // entry; their lazy filters recycle it when they drop it.
        if (inst->lazyRefs == 0)
            pool_.release(inst);
    }

    fetch_queue_.clear();
    fetch_pc_ = redirect_pc;
    fetch_stall_until_ = cycle_ + config_.mispredictPenalty;
    fetch_halted_ = false;
}

// ---------------------------------------------------------------------
// Observability: commit watchdog and wedge-state dump.
// ---------------------------------------------------------------------

namespace
{

const char *
dgStateName(DgState state)
{
    switch (state) {
      case DgState::None: return "none";
      case DgState::Predicted: return "predicted";
      case DgState::Verified: return "verified";
      case DgState::Mispredicted: return "mispredicted";
    }
    return "?";
}

} // namespace

void
OooCore::dumpPipelineState(std::ostream &os)
{
    os << "=== dgsim pipeline state (" << program_.name << " / "
       << config_.label() << ") ===\n";
    os << "cycle " << cycle_ << ", committed " << committed_count_
       << ", last commit at cycle " << last_commit_cycle_ << "\n";
    os << "occupancy: rob " << rob_.size() << "/" << config_.robEntries
       << ", iq " << iq_count_ << "/" << config_.iqEntries << " ("
       << ready_.size() << " ready), lq " << lq_.size() << "/"
       << config_.lqEntries << " (" << lq_addr_ready_.size()
       << " awaiting demand issue, " << lq_arrived_.size()
       << " arrived, " << arrivals_.size() << " arrival events), sq "
       << sq_.size() << "/" << config_.sqEntries << ", fetchq "
       << fetch_queue_.size() << "\n";
    os << "speculation: " << shadow_tracker_.size()
       << " unresolved shadow(s), oldest caster seq ";
    if (shadow_tracker_.empty())
        os << "-";
    else
        os << shadow_tracker_.oldest();
    os << "; " << taint_tracker_.roots().size() << " live taint root(s)\n";
    os << "l1 mshrs outstanding: " << hierarchy_->l1MshrOutstanding(cycle_)
       << "/" << config_.l1d.numMshrs << "\n";
    if (rob_.empty()) {
        os << "rob head: <empty>\n";
    } else {
        const DynInstPtr head = rob_.front();
        os << "rob head: seq " << head->seq << " pc 0x" << std::hex
           << head->pc << std::dec << "  " << disassemble(head->inst)
           << "\n  flags:";
        const std::pair<bool, const char *> flags[] = {
            {head->issued, "issued"},       {head->executed, "executed"},
            {head->completed, "completed"}, {head->addrReady, "addrReady"},
            {head->resolved, "resolved"},   {head->memIssued, "memIssued"},
            {head->dataArrived, "dataArrived"},
            {head->forwarded, "forwarded"}, {head->domDelayed, "domDelayed"},
            {head->policyBlocked, "policyBlocked"}};
        for (const auto &[set, name] : flags) {
            if (set)
                os << " " << name;
        }
        os << "\n  dgState " << dgStateName(head->dgState) << ", shadowed "
           << (shadow_tracker_.isShadowed(head->seq) ? "yes" : "no")
           << ", operands tainted "
           << (operandsTainted(*head) ? "yes" : "no") << "\n";
    }
    flight_recorder_.dump(os, 64);
}

void
OooCore::panicDumpThunk(void *ctx)
{
    static_cast<OooCore *>(ctx)->dumpPipelineState(std::cerr);
}

void
OooCore::watchdogFire()
{
    flight_recorder_.record(FrEvent::WatchdogArm, cycle_,
                            rob_.empty() ? 0 : rob_.front()->seq);
    if (config_.watchdogThrows) {
        // Oracle mode: a wedged attacker program is a classifiable
        // outcome (`inconclusive`), not a process-fatal bug. No state
        // dump — the fuzzer may hit thousands of these.
        throw WatchdogError(
            "commit watchdog: no instruction committed for " +
            std::to_string(cycle_ - last_commit_cycle_) + " cycles (cycle " +
            std::to_string(cycle_) + ", " + program_.name + " / " +
            config_.label() + ")");
    }
    // The panic hook (panicDumpThunk) dumps the pipeline state and the
    // flight recorder to stderr before aborting.
    DGSIM_PANIC("commit watchdog: no instruction committed for " +
                std::to_string(cycle_ - last_commit_cycle_) +
                " cycles (cycle " + std::to_string(cycle_) + ", " +
                program_.name + " / " + config_.label() + ")");
}

void
OooCore::jobDeadlineFire()
{
    // Leave a trace in the flight recorder so a later panic dump of a
    // retried run shows the earlier deadline hit, then hand the
    // decision to the caller: the experiment runner treats this as a
    // transient host failure and retries with backoff.
    flight_recorder_.record(FrEvent::WatchdogArm, cycle_,
                            rob_.empty() ? 0 : rob_.front()->seq);
    throw JobTimeoutError(
        program_.name + " / " + config_.label() + ": wall-clock job "
        "timeout of " + std::to_string(config_.jobTimeoutMs) +
        "ms exceeded at cycle " + std::to_string(cycle_) + " (" +
        std::to_string(committed_count_) + " instructions committed)");
}

// ---------------------------------------------------------------------
// External coherence events (paper §4.5).
// ---------------------------------------------------------------------

void
OooCore::externalInvalidate(Addr byte_addr)
{
    hierarchy_->invalidate(byte_addr);
    ++wake_epoch_; // invalSnooped changes propagation outcomes.
    const Addr line = hierarchy_->lineAddr(byte_addr);
    for (const DynInstPtr &load : lq_) {
        if (load->squashed)
            continue;
        // A load that already propagated speculatively read data that
        // another core has now invalidated: squash it (conventional LQ
        // snooping).
        if (load->completed && load->addrReady &&
            hierarchy_->lineAddr(load->effAddr) == line &&
            shadow_tracker_.isShadowed(load->seq)) {
            ++snoopSquashes_;
            squashFrom(load->seq, load->pc, SquashReason::InvalidationSnoop);
            return;
        }
        // Doppelgangers are *not* squashed: the invalidation is noted
        // and takes effect at propagation; it is ignored if the
        // prediction turns out wrong (§4.5).
        if (load->dgAccessIssued &&
            hierarchy_->lineAddr(load->dgPredictedAddr) == line) {
            load->invalSnooped = true;
        }
        // Unpropagated conventional loads re-read the value at
        // propagation time, so no action is needed.
    }
}

} // namespace dgsim
