#include "fuzz/synth.hh"

#include <cstdio>

#include "common/hash.hh"
#include "common/rng.hh"

namespace dgsim::fuzz
{
namespace
{

// Register conventions (mirrors src/security/gadgets.cc, extended).
constexpr RegIndex rT = 1;     ///< Loop counter.
constexpr RegIndex rBound = 2;
constexpr RegIndex rIdx = 3;
constexpr RegIndex rSz = 4;
constexpr RegIndex rA = 5;
constexpr RegIndex rV = 6;     ///< Raw (possibly secret) loaded value.
constexpr RegIndex rJunk = 7;
constexpr RegIndex rP = 8;
constexpr RegIndex rEnd = 9;
constexpr RegIndex rMask = 10;
constexpr RegIndex rB = 12;
constexpr RegIndex rEnc = 13;  ///< Encoded transmit value.
constexpr RegIndex rEnc2 = 14; ///< Second (store-channel) encoding.
constexpr RegIndex rEnc3 = 15; ///< Third (nested-window) encoding.
constexpr RegIndex kScratchBase = 16; ///< 16..23: committed filler.
constexpr unsigned kScratchCount = 8;

// Memory layout (distinct regions; see gadgets.cc).
constexpr Addr kSizeWord = 0x1000;
constexpr Addr kArray1 = 0x2000;
constexpr Addr kX = 0x5000;
constexpr Addr kY = 0x6000;
constexpr Addr kDataZone = 0x10000;  ///< Committed-filler data.
constexpr Addr kProbe = 0x100000;    ///< Probe array (leak receiver).
constexpr Addr kStoreZone = 0x200000;
constexpr Addr kEvict = 0x4000000;   ///< Eviction streaming buffer.
constexpr unsigned kDataWords = 64;

/** Append a pinned label marker. */
void
emitLabel(AttackerIr &ir, const std::string &name)
{
    IrOp op;
    op.isLabel = true;
    op.label = name;
    op.pinned = true;
    ir.ops.push_back(op);
}

/** Append an instruction; @p target names a label for control flow. */
void
emitInst(AttackerIr &ir, Instruction inst, bool pinned,
         const std::string &target = std::string())
{
    IrOp op;
    op.inst = inst;
    op.pinned = pinned;
    op.label = target;
    ir.ops.push_back(op);
}

Instruction
makeInst(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
         std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

/** li via Lui (which writes the full 64-bit immediate directly). */
Instruction
makeLi(RegIndex rd, std::uint64_t value)
{
    return makeInst(Opcode::Lui, rd, 0, 0,
                    static_cast<std::int64_t>(value));
}

/**
 * Emit one value encoding of @p src into @p dst: which secret bits
 * reach the probe address, and at what cache-line granularity. The
 * narrow variants (parity, MSB) are exactly the channels a low-bits
 * secret pair misses — the reason the oracle takes a pair *list*.
 */
void
emitEncode(AttackerIr &ir, Rng &rng, RegIndex dst, RegIndex src)
{
    const std::int64_t shift = 6 + 3 * static_cast<std::int64_t>(
                                         rng.below(3)); // 6, 9, 12
    switch (rng.below(4)) {
      case 0: // linear
        emitInst(ir, makeInst(Opcode::Slli, dst, src, 0, shift), false);
        break;
      case 1: // low bit only
        emitInst(ir, makeInst(Opcode::Andi, dst, src, 0, 1), false);
        emitInst(ir, makeInst(Opcode::Slli, dst, dst, 0, shift), false);
        break;
      case 2: // top byte
        emitInst(ir, makeInst(Opcode::Srli, dst, src, 0, 56), false);
        emitInst(ir, makeInst(Opcode::Slli, dst, dst, 0, shift), false);
        break;
      default: // MSB only
        emitInst(ir, makeInst(Opcode::Srli, dst, src, 0, 63), false);
        emitInst(ir, makeInst(Opcode::Slli, dst, dst, 0, shift), false);
        break;
    }
}

/** One random committed-filler instruction over the scratch registers
 * and the benign data zone. */
void
emitFiller(AttackerIr &ir, Rng &rng)
{
    const auto scratch = [&rng] {
        return static_cast<RegIndex>(kScratchBase + rng.below(kScratchCount));
    };
    switch (rng.below(6)) {
      case 0:
        emitInst(ir,
                 makeInst(Opcode::Add, scratch(), scratch(), scratch(), 0),
                 false);
        break;
      case 1:
        emitInst(ir,
                 makeInst(Opcode::Mul, scratch(), scratch(), scratch(), 0),
                 false);
        break;
      case 2:
        emitInst(ir,
                 makeInst(Opcode::Xori, scratch(), scratch(), 0,
                          static_cast<std::int64_t>(rng.below(4096))),
                 false);
        break;
      case 3:
        emitInst(ir,
                 makeInst(Opcode::Slli, scratch(), scratch(), 0,
                          static_cast<std::int64_t>(rng.below(8))),
                 false);
        break;
      case 4: // committed load: trains the stride table / warms lines
        emitInst(ir,
                 makeInst(Opcode::Ld, scratch(), 0, 0,
                          static_cast<std::int64_t>(
                              kDataZone + rng.below(kDataWords) * 8)),
                 false);
        break;
      default: // committed store with a secret-independent address
        emitInst(ir,
                 makeInst(Opcode::St, 0, 0, scratch(),
                          static_cast<std::int64_t>(
                              kDataZone + rng.below(kDataWords) * 8)),
                 false);
        break;
    }
}

} // namespace

std::string
candidateName(std::uint64_t key)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "fuzz-%08llu",
                  static_cast<unsigned long long>(key));
    return buffer;
}

AttackerIr
synthesize(std::uint64_t fuzz_seed, std::uint64_t key)
{
    // FNV-combine the two halves of the identity into the RNG seed.
    std::uint64_t seed = fnv::kOffset;
    fnv::mix(seed, fuzz_seed);
    fnv::mix(seed, key);
    Rng rng(seed);

    AttackerIr ir;
    ir.name = candidateName(key);

    // --- Geometry draws ----------------------------------------------
    const unsigned log2_elems = 3 + static_cast<unsigned>(rng.below(3));
    const std::uint64_t elems = 1ULL << log2_elems;       // 8/16/32
    const unsigned log2_rounds = 5 + static_cast<unsigned>(rng.below(2));
    const std::uint64_t rounds = 1ULL << log2_rounds;     // 32/64
    const bool with_evict = rng.chance(7, 8);
    const bool with_keep_hot = rng.chance(3, 4);
    const unsigned spacer = 20 + static_cast<unsigned>(rng.below(41));
    const unsigned filler = static_cast<unsigned>(rng.below(6));

    // --- Data image --------------------------------------------------
    ir.data.push_back({kSizeWord, elems, false, true}); // bounds word
    for (std::uint64_t i = 0; i < elems; ++i)
        ir.data.push_back({kArray1 + i * 8, 1 + (i & 1), false, false});
    // The secret lives just past the array: reachable only by the
    // transient out-of-bounds index.
    ir.data.push_back({kArray1 + elems * 8, 0, true, true});
    ir.data.push_back({kArray1 + (elems + 1) * 8, 0, false, false});
    for (unsigned i = 0; i < 8; ++i) {
        ir.data.push_back({kDataZone + rng.below(kDataWords) * 8,
                           rng.next() >> 32, false, false});
    }

    // --- Train/attack loop scaffold (pinned) -------------------------
    emitInst(ir, makeLi(rT, 0), true);
    emitInst(ir, makeLi(rBound, rounds + 1), true);
    emitLabel(ir, "loop");
    // idx = t & (elems-1) during training; elems (OOB) at t == rounds.
    emitInst(ir,
             makeInst(Opcode::Andi, rIdx, rT, 0,
                      static_cast<std::int64_t>(elems - 1)),
             true);
    emitInst(ir, makeInst(Opcode::Srli, rMask, rT, 0, log2_rounds), true);
    emitInst(ir, makeInst(Opcode::Andi, rMask, rMask, 0, 1), true);
    emitInst(ir, makeInst(Opcode::Slli, rMask, rMask, 0, log2_elems),
             true);
    emitInst(ir, makeInst(Opcode::Or, rIdx, rIdx, rMask, 0), true);
    // Evict the bounds word right before the attack round so the bounds
    // check resolves slowly (the transient window).
    emitInst(ir,
             makeInst(Opcode::Xori, rA, rT, 0,
                      static_cast<std::int64_t>(rounds)),
             true);
    emitInst(ir, makeInst(Opcode::Bne, 0, rA, 0, 0), true, "no_evict");
    if (with_evict) {
        const std::uint64_t evict_bytes =
            (64 + 32 * rng.below(3)) * 1024; // 64/96/128 KiB
        emitInst(ir, makeLi(rP, kEvict), false);
        emitInst(ir, makeLi(rEnd, kEvict + evict_bytes), false);
        emitLabel(ir, "evict");
        emitInst(ir, makeInst(Opcode::Ld, rJunk, rP, 0, 0), false);
        emitInst(ir, makeInst(Opcode::Addi, rP, rP, 0, 64), false);
        emitInst(ir, makeInst(Opcode::Blt, 0, rP, rEnd, 0), false,
                 "evict");
    }
    emitLabel(ir, "no_evict");

    // Keep the secret's line L1-hot via its benign neighbor, and give
    // the fill time to land before the victim runs.
    if (with_keep_hot) {
        emitInst(ir,
                 makeInst(Opcode::Ld, rJunk, 0, 0,
                          static_cast<std::int64_t>(kArray1 +
                                                    (elems + 1) * 8)),
                 false);
        emitInst(ir, makeLi(rP, 3), false);
        for (unsigned i = 0; i < spacer; ++i)
            emitInst(ir, makeInst(Opcode::Mul, rP, rP, rP, 0), false);
    }
    for (unsigned i = 0; i < filler; ++i)
        emitFiller(ir, rng);

    // --- Victim: the mistrained bounds check (pinned) ----------------
    emitInst(ir,
             makeInst(Opcode::Ld, rSz, 0, 0,
                      static_cast<std::int64_t>(kSizeWord)),
             true);
    emitInst(ir, makeInst(Opcode::Bge, 0, rIdx, rSz, 0), true,
             "bounds_ok");

    // --- Transient window: the primitive vocabulary (droppable) ------
    emitInst(ir, makeInst(Opcode::Slli, rA, rIdx, 0, 3), false);
    emitInst(ir,
             makeInst(Opcode::Ld, rV, rA, 0,
                      static_cast<std::int64_t>(kArray1)),
             false);
    if (rng.chance(3, 4)) { // secret-indexed probe-array load
        emitEncode(ir, rng, rEnc, rV);
        emitInst(ir,
                 makeInst(Opcode::Ld, rJunk, rEnc, 0,
                          static_cast<std::int64_t>(kProbe)),
                 false);
    }
    if (rng.chance(1, 4)) { // secret-dependent store address
        emitEncode(ir, rng, rEnc2, rV);
        emitInst(ir,
                 makeInst(Opcode::St, 0, rEnc2, rJunk,
                          static_cast<std::int64_t>(kStoreZone)),
                 false);
    }
    if (rng.chance(1, 4)) { // secret-steered branch: nested window
        emitInst(ir, makeInst(Opcode::Andi, rB, rV, 0, 1), false);
        emitInst(ir, makeInst(Opcode::Bne, 0, rB, 0, 0), false, "odd");
        emitInst(ir,
                 makeInst(Opcode::Ld, rJunk, 0, 0,
                          static_cast<std::int64_t>(kX)),
                 false);
        emitInst(ir, makeInst(Opcode::Jal, 0, 0, 0, 0), false, "join");
        emitLabel(ir, "odd");
        emitInst(ir,
                 makeInst(Opcode::Ld, rJunk, 0, 0,
                          static_cast<std::int64_t>(kY)),
                 false);
        emitLabel(ir, "join");
    }
    if (rng.chance(1, 8)) { // nested bounds check inside the window
        emitInst(ir, makeInst(Opcode::Bge, 0, rIdx, rSz, 0), false,
                 "inner_ok");
        emitEncode(ir, rng, rEnc3, rV);
        emitInst(ir,
                 makeInst(Opcode::Ld, rJunk, rEnc3, 0,
                          static_cast<std::int64_t>(kProbe)),
                 false);
        emitLabel(ir, "inner_ok");
    }
    emitLabel(ir, "bounds_ok");

    emitInst(ir, makeInst(Opcode::Addi, rT, rT, 0, 1), true);
    emitInst(ir, makeInst(Opcode::Blt, 0, rT, rBound, 0), true, "loop");
    emitInst(ir, makeInst(Opcode::Halt, 0, 0, 0, 0), true);
    return ir;
}

} // namespace dgsim::fuzz
