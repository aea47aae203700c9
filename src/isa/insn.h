// The simulated instruction set: a compact 32-bit x86-flavoured ISA with a
// fixed 16-byte encoding. It keeps exactly the x86 features Palladium's
// mechanisms depend on — segment-relative addressing with overrides, near
// call/ret, far lcall/lret through call gates, int/iret, push/pop of segment
// registers — while staying simple enough to assemble and decode directly.
#ifndef SRC_ISA_INSN_H_
#define SRC_ISA_INSN_H_

#include <optional>

#include "src/hw/types.h"

namespace palladium {

// General-purpose registers. ESP/EBP have their usual stack roles.
enum class Reg : u8 { kEax = 0, kEbx, kEcx, kEdx, kEsi, kEdi, kEbp, kEsp };
inline constexpr u8 kNumRegs = 8;

// Sentinel in the r2 (base) field of a memory operand: absolute addressing
// (effective address = disp [+ index*scale]), as in x86's `movl %esp, SP2`.
inline constexpr u8 kNoBaseReg = 0xFF;

// Segment registers.
enum class SegReg : u8 { kCs = 0, kSs, kDs, kEs };
inline constexpr u8 kNumSegRegs = 4;

// Segment override encoding inside an instruction (0 = default rule:
// SS for ESP/EBP-based addressing and stack ops, DS otherwise).
enum class SegOverride : u8 { kNone = 0, kCs, kSs, kDs, kEs };

enum class Opcode : u16 {
  kNop = 0,
  kHlt,

  // Data movement.
  kMovRR,    // r1 <- r2
  kMovRI,    // r1 <- imm
  kLoad,     // r1 <- [seg: r2 + r3*scale + disp]  (size bytes, zero-extended)
  kStore,    // [seg: r2 + r3*scale + disp] <- r1  (low `size` bytes)
  kStoreI,   // [seg: r2 + r3*scale + disp] <- imm
  kLea,      // r1 <- r2 + r3*scale + disp

  // Stack.
  kPushR,    // push r1
  kPushI,    // push imm
  kPopR,     // pop r1
  kPushSeg,  // push segment register (r1 = SegReg)
  kPopSeg,   // pop into segment register (r1 = SegReg) — privilege-checked
  kMovSegR,  // seg(r1) <- r2                        — privilege-checked
  kMovRSeg,  // r1 <- seg(r2) selector value

  // ALU (RR: r1 op= r2; RI: r1 op= imm). Flags: ZF, SF, CF, OF.
  kAddRR, kAddRI,
  kSubRR, kSubRI,
  kAndRR, kAndRI,
  kOrRR, kOrRI,
  kXorRR, kXorRI,
  kShlRI, kShrRI, kSarRI,
  kImulRR, kImulRI,
  kUdivRR,   // r1 <- r1 / r2 (unsigned); #DE on zero divisor
  kCmpRR, kCmpRI,
  kTestRR, kTestRI,
  kNegR, kNotR, kIncR, kDecR,

  // Control transfer. Targets are absolute offsets within CS (in imm).
  kJmp,
  kJe, kJne, kJb, kJae, kJbe, kJa, kJl, kJge, kJle, kJg, kJs, kJns,
  kCall,     // near call, target in imm
  kCallR,    // near indirect call through r1
  kRet,      // near return
  kRetN,     // near return, pop imm extra bytes
  kJmpR,     // near indirect jump through r1

  // Far control transfer (the heart of Palladium's protected calls).
  kLcall,    // through the call gate named by selector `imm`
  kLret,     // far return: pops EIP, CS [, ESP, SS on privilege change]
  kInt,      // software interrupt, vector in imm
  kIret,     // interrupt return

  kCount,
};

// Fixed-size instruction encoding (16 bytes in simulated memory):
//   [0..1]  opcode      [2] seg override  [3] r1  [4] r2 (base)  [5] r3 (index)
//   [6]     scale (0 = no index; else 1/2/4/8)    [7] size (mem op width 1/2/4)
//   [8..11] imm (i32)   [12..15] disp (i32)
inline constexpr u32 kInsnSize = 16;

struct Insn {
  Opcode opcode = Opcode::kNop;
  SegOverride seg = SegOverride::kNone;
  u8 r1 = 0;
  u8 r2 = 0;
  u8 r3 = 0;
  u8 scale = 0;
  u8 size = 4;
  i32 imm = 0;
  i32 disp = 0;

  void EncodeTo(u8 out[kInsnSize]) const;
  static std::optional<Insn> Decode(const u8 in[kInsnSize]);

  bool operator==(const Insn& o) const {
    return opcode == o.opcode && seg == o.seg && r1 == o.r1 && r2 == o.r2 && r3 == o.r3 &&
           scale == o.scale && size == o.size && imm == o.imm && disp == o.disp;
  }
};

// Every opcode, in enum order. The execution engine expands this once into
// the per-opcode handler table and once into the interpreter switch, so both
// dispatch paths share a single semantic implementation per opcode
// (src/hw/cpu.cc). Order is checked against the enum by a static_assert next
// to the table; adding an opcode means adding it to the enum AND here.
#define PALLADIUM_FOR_EACH_OPCODE(X)                                          \
  X(kNop) X(kHlt)                                                             \
  X(kMovRR) X(kMovRI) X(kLoad) X(kStore) X(kStoreI) X(kLea)                   \
  X(kPushR) X(kPushI) X(kPopR) X(kPushSeg) X(kPopSeg) X(kMovSegR) X(kMovRSeg) \
  X(kAddRR) X(kAddRI) X(kSubRR) X(kSubRI) X(kAndRR) X(kAndRI)                 \
  X(kOrRR) X(kOrRI) X(kXorRR) X(kXorRI) X(kShlRI) X(kShrRI) X(kSarRI)         \
  X(kImulRR) X(kImulRI) X(kUdivRR) X(kCmpRR) X(kCmpRI) X(kTestRR) X(kTestRI)  \
  X(kNegR) X(kNotR) X(kIncR) X(kDecR)                                         \
  X(kJmp) X(kJe) X(kJne) X(kJb) X(kJae) X(kJbe) X(kJa) X(kJl) X(kJge)         \
  X(kJle) X(kJg) X(kJs) X(kJns)                                               \
  X(kCall) X(kCallR) X(kRet) X(kRetN) X(kJmpR)                                \
  X(kLcall) X(kLret) X(kInt) X(kIret)

inline constexpr u16 kNumOpcodes = static_cast<u16>(Opcode::kCount);

const char* OpcodeName(Opcode op);
const char* RegName(Reg r);
const char* SegRegName(SegReg s);

}  // namespace palladium

#endif  // SRC_ISA_INSN_H_
