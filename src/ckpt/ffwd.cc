#include "ckpt/ffwd.hh"

#include <chrono>

#include "common/errors.hh"
#include "common/log.hh"
#include "isa/isa.hh"

namespace dgsim::ckpt
{

FfwdEngine::FfwdEngine(const Program &program, const SimConfig &config)
    : program_(program),
      config_(config),
      func_(program),
      warm_hierarchy_(config, warm_stats_),
      warm_branch_(config.bpHistoryBits, config.btbEntries, warm_stats_),
      warm_stride_(config.predictorEntries, config.predictorAssoc,
                   config.predictorConfidenceThreshold, warm_stats_)
{
}

void
FfwdEngine::armDeadline()
{
    if (config_.jobTimeoutMs == 0)
        return;
    deadline_armed_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(config_.jobTimeoutMs);
}

std::uint64_t
FfwdEngine::ffwd(std::uint64_t max_instructions)
{
    std::uint64_t executed = 0;
    while (executed < max_instructions && !func_.halted()) {
        // Wall-clock sibling of the detailed core's job deadline,
        // polled sparsely so the clock read stays off the hot path.
        if (deadline_armed_ && (executed & 0xffff) == 0 &&
            std::chrono::steady_clock::now() >= deadline_) {
            throw JobTimeoutError(program_.name +
                                  ": job deadline expired during "
                                  "fast-forward");
        }
        const Addr pc = func_.pc();
        DGSIM_ASSERT(program_.validPc(pc),
                     "fast-forward ran off the end of the program");
        const Instruction inst = program_.text[pc];
        const StepResult step = func_.step();
        ++executed;

        switch (opClass(inst.op)) {
          case OpClass::MemRead: {
            warm_hierarchy_.warmAccess(step.effAddr, /*is_write=*/false);
            // Mirror the commit stage: train the stride table with the
            // committed address, then prefetch degree-ahead (§5.1's
            // prefetching mode) so the warm cache contents match what
            // the prefetcher would have pulled in.
            warm_stride_.train(pc, step.effAddr);
            auto ahead = warm_stride_.predictAhead(pc, step.effAddr,
                                                   config_.prefetchDegree);
            if (ahead && warm_hierarchy_.lineAddr(*ahead) !=
                             warm_hierarchy_.lineAddr(step.effAddr))
                warm_hierarchy_.warmAccess(*ahead, /*is_write=*/false);
            break;
          }
          case OpClass::MemWrite:
            warm_hierarchy_.warmAccess(step.effAddr, /*is_write=*/true);
            break;
          case OpClass::Branch: {
            // Full predict -> repair -> update sequence: the GHR must
            // advance with predicted directions and be repaired on a
            // mispredict, exactly as the detailed front-end does, so
            // the trained table indices match.
            const BranchPrediction prediction =
                warm_branch_.predict(pc, inst);
            if (isCondBranch(inst.op) && prediction.taken != step.taken)
                warm_branch_.repairHistory(prediction.ghrBefore, step.taken);
            warm_branch_.update(pc, inst, step.taken, step.nextPc,
                                prediction.ghrBefore);
            break;
          }
          default:
            break;
        }
    }
    return executed;
}

void
FfwdEngine::resyncArch(std::uint64_t instructions)
{
    func_.run(instructions);
}

Checkpoint
FfwdEngine::makeCheckpoint() const
{
    Checkpoint checkpoint;
    checkpoint.workload = program_.name;
    checkpoint.instret = func_.instructionsExecuted();
    checkpoint.pc = func_.pc();
    checkpoint.halted = func_.halted();
    for (RegIndex i = 0; i < kNumArchRegs; ++i)
        checkpoint.regs[i] = func_.reg(i);
    checkpoint.memory = func_.memory();
    checkpoint.hierarchy = warm_hierarchy_.exportWarmState();
    checkpoint.branch = warm_branch_.exportState();
    checkpoint.stride = warm_stride_.exportState();
    return checkpoint;
}

void
FfwdEngine::restore(const Checkpoint &checkpoint)
{
    if (checkpoint.workload != program_.name)
        DGSIM_FATAL("checkpoint is for workload '" + checkpoint.workload +
                    "' but the run builds '" + program_.name + "'");
    func_.restoreArchState(checkpoint.regs, checkpoint.memory,
                           checkpoint.pc, checkpoint.halted,
                           checkpoint.instret);
    warm_hierarchy_.restoreWarmState(checkpoint.hierarchy);
    warm_branch_.restoreState(checkpoint.branch);
    warm_stride_.restoreState(checkpoint.stride);
}

void
FfwdEngine::adoptWarmState(const HierarchyWarmState &hierarchy,
                           const BranchPredictor::State &branch,
                           const StrideTable::State &stride)
{
    warm_hierarchy_.restoreWarmState(hierarchy);
    warm_branch_.restoreState(branch);
    warm_stride_.restoreState(stride);
}

} // namespace dgsim::ckpt
