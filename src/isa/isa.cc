#include "isa/isa.hh"

#include <sstream>

#include "common/log.hh"

namespace dgsim
{

std::string
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Sll: return "sll";
      case Opcode::Srl: return "srl";
      case Opcode::Slt: return "slt";
      case Opcode::Addi: return "addi";
      case Opcode::Andi: return "andi";
      case Opcode::Ori: return "ori";
      case Opcode::Xori: return "xori";
      case Opcode::Slli: return "slli";
      case Opcode::Srli: return "srli";
      case Opcode::Slti: return "slti";
      case Opcode::Lui: return "lui";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Jal: return "jal";
      case Opcode::Jalr: return "jalr";
      case Opcode::Nop: return "nop";
      case Opcode::Halt: return "halt";
    }
    DGSIM_PANIC("unknown opcode");
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    os << mnemonic(inst.op);
    auto reg = [](RegIndex r) {
        return std::string("x").append(std::to_string(r));
    };
    switch (inst.op) {
      case Opcode::Ld:
        os << " " << reg(inst.rd) << ", " << inst.imm << "("
           << reg(inst.rs1) << ")";
        break;
      case Opcode::St:
        os << " " << reg(inst.rs2) << ", " << inst.imm << "("
           << reg(inst.rs1) << ")";
        break;
      case Opcode::Lui:
        os << " " << reg(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Jal:
        os << " " << reg(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Jalr:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << inst.imm;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        os << " " << reg(inst.rs1) << ", " << reg(inst.rs2) << ", "
           << inst.imm;
        break;
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      default:
        if (readsRs2(inst)) {
            os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
               << reg(inst.rs2);
        } else {
            os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
               << inst.imm;
        }
        break;
    }
    return os.str();
}

} // namespace dgsim
