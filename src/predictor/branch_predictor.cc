#include "predictor/branch_predictor.hh"

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim
{

BranchPredictor::BranchPredictor(unsigned history_bits, unsigned btb_entries,
                                 StatRegistry &stats)
    : lookups(stats.counter("bp.lookups")),
      condMispredicts(stats.counter("bp.condMispredicts")),
      history_bits_(history_bits),
      table_mask_((1ULL << history_bits) - 1),
      counters_(1ULL << history_bits, 1), // weakly not-taken
      btb_(btb_entries)
{
    DGSIM_ASSERT(history_bits_ >= 1 && history_bits_ <= 24,
                 "unreasonable gshare history length");
    DGSIM_ASSERT(btb_entries > 0, "BTB needs at least one entry");
}

BranchPredictor::State
BranchPredictor::exportState() const
{
    State state;
    state.counters = counters_;
    state.ghr = ghr_;
    state.btb.reserve(btb_.size());
    for (const BtbEntry &entry : btb_)
        state.btb.push_back(State::Btb{entry.pc, entry.target, entry.valid});
    return state;
}

void
BranchPredictor::restoreState(const State &state)
{
    if (state.counters.size() != counters_.size() ||
        state.btb.size() != btb_.size()) {
        DGSIM_FATAL("checkpoint branch-predictor geometry mismatch: " +
                    std::to_string(state.counters.size()) + " counters / " +
                    std::to_string(state.btb.size()) + " BTB entries in "
                    "the checkpoint vs " +
                    std::to_string(counters_.size()) + " / " +
                    std::to_string(btb_.size()) + " configured");
    }
    counters_ = state.counters;
    ghr_ = state.ghr;
    for (std::size_t i = 0; i < btb_.size(); ++i) {
        btb_[i].pc = state.btb[i].pc;
        btb_[i].target = state.btb[i].target;
        btb_[i].valid = state.btb[i].valid;
    }
}

BranchPrediction
BranchPredictor::predict(Addr pc, const Instruction &inst)
{
    ++lookups;
    BranchPrediction prediction;
    prediction.ghrBefore = ghr_;

    switch (inst.op) {
      case Opcode::Jal:
        prediction.taken = true;
        prediction.target = static_cast<Addr>(inst.imm);
        break;
      case Opcode::Jalr: {
        prediction.taken = true;
        const BtbEntry &entry = btb_[pc % btb_.size()];
        // On a BTB miss predict fall-through; the AGU-resolved target
        // redirects at resolution.
        prediction.target =
            (entry.valid && entry.pc == pc) ? entry.target : pc + 1;
        break;
      }
      default: {
        DGSIM_ASSERT(isCondBranch(inst.op), "predict on non-branch");
        prediction.taken = counters_[tableIndex(pc)] >= 2;
        prediction.target =
            prediction.taken ? static_cast<Addr>(inst.imm) : pc + 1;
        ghr_ = (ghr_ << 1) | (prediction.taken ? 1 : 0);
        break;
      }
    }
    return prediction;
}

std::uint64_t
BranchPredictor::digest() const
{
    std::uint64_t hash = fnv::kOffset;
    for (std::uint8_t counter : counters_)
        fnv::mix(hash, counter);
    fnv::mix(hash, ghr_);
    for (const BtbEntry &entry : btb_) {
        fnv::mix(hash, entry.valid ? 1 : 0);
        fnv::mix(hash, entry.valid ? entry.pc : 0);
        fnv::mix(hash, entry.valid ? entry.target : 0);
    }
    return hash;
}

void
BranchPredictor::update(Addr pc, const Instruction &inst, bool taken,
                        Addr target, std::uint64_t ghr_before)
{
    if (inst.op == Opcode::Jalr) {
        BtbEntry &entry = btb_[pc % btb_.size()];
        entry.pc = pc;
        entry.target = target;
        entry.valid = true;
        return;
    }
    if (!isCondBranch(inst.op))
        return;
    // Train the exact table slot the prediction read: the fetch-time
    // history snapshot travels with the instruction.
    const unsigned index =
        static_cast<unsigned>((pc ^ ghr_before) & table_mask_);
    std::uint8_t &counter = counters_[index];
    if (taken) {
        if (counter < 3)
            ++counter;
    } else if (counter > 0) {
        --counter;
    }
}

} // namespace dgsim
