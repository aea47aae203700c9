// Disassembler for the simulated ISA. No workload calls it: tests use it as
// the assembler's round-trip oracle (assemble, disassemble, reassemble).
#ifndef SRC_ISA_DISASM_H_
#define SRC_ISA_DISASM_H_

#include <string>

#include "src/isa/insn.h"

namespace palladium {

// Renders one instruction in the assembler's input syntax.
std::string Disassemble(const Insn& insn);

// Disassembles `count` instructions from raw bytes; stops early on a
// decode failure (rendered as ".bad").
std::string DisassembleRange(const u8* bytes, u32 len, u32 base_addr);

}  // namespace palladium

#endif  // SRC_ISA_DISASM_H_
