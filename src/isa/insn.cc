#include "src/isa/insn.h"

#include <cstring>

namespace palladium {

void Insn::EncodeTo(u8 out[kInsnSize]) const {
  u16 op = static_cast<u16>(opcode);
  std::memcpy(out + 0, &op, 2);
  out[2] = static_cast<u8>(seg);
  out[3] = r1;
  out[4] = r2;
  out[5] = r3;
  out[6] = scale;
  out[7] = size;
  std::memcpy(out + 8, &imm, 4);
  std::memcpy(out + 12, &disp, 4);
}

std::optional<Insn> Insn::Decode(const u8 in[kInsnSize]) {
  u16 op = 0;
  std::memcpy(&op, in + 0, 2);
  if (op >= static_cast<u16>(Opcode::kCount)) return std::nullopt;
  Insn insn;
  insn.opcode = static_cast<Opcode>(op);
  if (in[2] > static_cast<u8>(SegOverride::kEs)) return std::nullopt;
  insn.seg = static_cast<SegOverride>(in[2]);
  insn.r1 = in[3];
  insn.r2 = in[4];
  insn.r3 = in[5];
  insn.scale = in[6];
  insn.size = in[7];
  if (insn.scale != 0 && insn.scale != 1 && insn.scale != 2 && insn.scale != 4 &&
      insn.scale != 8) {
    return std::nullopt;
  }
  if (insn.size != 1 && insn.size != 2 && insn.size != 4) return std::nullopt;
  std::memcpy(&insn.imm, in + 8, 4);
  std::memcpy(&insn.disp, in + 12, 4);
  return insn;
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHlt: return "hlt";
    case Opcode::kMovRR: return "mov";
    case Opcode::kMovRI: return "movi";
    case Opcode::kLoad: return "ld";
    case Opcode::kStore: return "st";
    case Opcode::kStoreI: return "sti";
    case Opcode::kLea: return "lea";
    case Opcode::kPushR: return "push";
    case Opcode::kPushI: return "pushi";
    case Opcode::kPopR: return "pop";
    case Opcode::kPushSeg: return "pushseg";
    case Opcode::kPopSeg: return "popseg";
    case Opcode::kMovSegR: return "movseg";
    case Opcode::kMovRSeg: return "movrseg";
    case Opcode::kAddRR: return "add";
    case Opcode::kAddRI: return "addi";
    case Opcode::kSubRR: return "sub";
    case Opcode::kSubRI: return "subi";
    case Opcode::kAndRR: return "and";
    case Opcode::kAndRI: return "andi";
    case Opcode::kOrRR: return "or";
    case Opcode::kOrRI: return "ori";
    case Opcode::kXorRR: return "xor";
    case Opcode::kXorRI: return "xori";
    case Opcode::kShlRI: return "shl";
    case Opcode::kShrRI: return "shr";
    case Opcode::kSarRI: return "sar";
    case Opcode::kImulRR: return "imul";
    case Opcode::kImulRI: return "imuli";
    case Opcode::kUdivRR: return "udiv";
    case Opcode::kCmpRR: return "cmp";
    case Opcode::kCmpRI: return "cmpi";
    case Opcode::kTestRR: return "test";
    case Opcode::kTestRI: return "testi";
    case Opcode::kNegR: return "neg";
    case Opcode::kNotR: return "not";
    case Opcode::kIncR: return "inc";
    case Opcode::kDecR: return "dec";
    case Opcode::kJmp: return "jmp";
    case Opcode::kJe: return "je";
    case Opcode::kJne: return "jne";
    case Opcode::kJb: return "jb";
    case Opcode::kJae: return "jae";
    case Opcode::kJbe: return "jbe";
    case Opcode::kJa: return "ja";
    case Opcode::kJl: return "jl";
    case Opcode::kJge: return "jge";
    case Opcode::kJle: return "jle";
    case Opcode::kJg: return "jg";
    case Opcode::kJs: return "js";
    case Opcode::kJns: return "jns";
    case Opcode::kCall: return "call";
    case Opcode::kCallR: return "callr";
    case Opcode::kRet: return "ret";
    case Opcode::kRetN: return "retn";
    case Opcode::kJmpR: return "jmpr";
    case Opcode::kLcall: return "lcall";
    case Opcode::kLret: return "lret";
    case Opcode::kInt: return "int";
    case Opcode::kIret: return "iret";
    case Opcode::kCount: break;
  }
  return "???";
}

const char* RegName(Reg r) {
  switch (r) {
    case Reg::kEax: return "%eax";
    case Reg::kEbx: return "%ebx";
    case Reg::kEcx: return "%ecx";
    case Reg::kEdx: return "%edx";
    case Reg::kEsi: return "%esi";
    case Reg::kEdi: return "%edi";
    case Reg::kEbp: return "%ebp";
    case Reg::kEsp: return "%esp";
  }
  return "%???";
}

const char* SegRegName(SegReg s) {
  switch (s) {
    case SegReg::kCs: return "%cs";
    case SegReg::kSs: return "%ss";
    case SegReg::kDs: return "%ds";
    case SegReg::kEs: return "%es";
  }
  return "%??";
}

}  // namespace palladium
