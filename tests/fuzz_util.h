// Fuzz-program machinery for the differential fuzz
// (tests/cpu_property_test.cc): a deterministic operand generator, the
// fault-stream record, and the looped fuzz-program builder. The builder is
// parameterized by code base and data window so the SMP fuzz can give every
// vCPU its own program. Generation is a pure function of its arguments:
// identical arguments yield byte-identical programs, which is what the
// differential harness relies on.
#ifndef TESTS_FUZZ_UTIL_H_
#define TESTS_FUZZ_UTIL_H_

#include <cstring>
#include <vector>

#include "src/hw/cpu.h"
#include "src/isa/insn.h"

namespace palladium {

// Deterministic operand generator.
inline u32 NextRand(u64* state) {
  *state ^= *state >> 12;
  *state ^= *state << 25;
  *state ^= *state >> 27;
  return static_cast<u32>((*state * 0x2545F4914F6CDD1Dull) >> 32);
}

struct FaultRecord {
  u32 eip;
  FaultVector vector;
  u32 error_code;
  u32 linear;

  bool operator==(const FaultRecord& o) const {
    return eip == o.eip && vector == o.vector && error_code == o.error_code &&
           linear == o.linear;
  }
};

// Appends a store into the code page of the body based at `body_base`
// (`body` is what has been built so far; slot 0 is the designated
// `mov $imm, %edi`), using at most `room` slots. Three kinds, each a
// different decode-cache decision:
//  - random data into the spare slots past the program's end (the loop
//    suffix is at most 4 slots): undecodable slots that sometimes turn
//    decodable — mostly kept writes, now and then a retire;
//  - a re-store of one word of an earlier body slot, the bytes already
//    there: always kept;
//  - `mov %ecx, %r; shr $k, %r; st8 %r, <imm byte of the designated mov>`
//    with k in 5..8: the immediate changes every 2^k iterations, so the
//    loop promotes between retires, and EDI, a scratch register, carries
//    each new immediate into later results.
inline void AppendCodeStore(u64* state, std::vector<Insn>* body, u32 body_base, u32 body_len,
                            u32 room, Reg scratch) {
  const u32 spare_begin = body_base + (body_len + 4) * kInsnSize;
  const u32 page_end = (body_base & ~kPageMask) + kPageSize;
  Insn in;
  in.opcode = Opcode::kStoreI;
  in.r2 = kNoBaseReg;
  const u32 kind = NextRand(state) % 3;
  if (kind == 2 && room >= 3) {
    Insn mov;
    mov.opcode = Opcode::kMovRR;
    mov.r1 = static_cast<u8>(scratch);
    mov.r2 = static_cast<u8>(Reg::kEcx);
    body->push_back(mov);
    Insn shr;
    shr.opcode = Opcode::kShrRI;
    shr.r1 = static_cast<u8>(scratch);
    shr.imm = static_cast<i32>(5 + NextRand(state) % 4);
    body->push_back(shr);
    in.opcode = Opcode::kStore;
    in.r1 = static_cast<u8>(scratch);
    in.size = 1;
    in.disp = static_cast<i32>(body_base + 8 + NextRand(state) % 4);
  } else if (kind == 1 && body->size() > 1) {
    const u32 slot = 1 + NextRand(state) % static_cast<u32>(body->size() - 1);
    const u32 word = NextRand(state) % 4;
    u8 raw[kInsnSize];
    (*body)[slot].EncodeTo(raw);
    u32 value = 0;
    std::memcpy(&value, raw + 4 * word, 4);
    in.imm = static_cast<i32>(value);
    in.disp = static_cast<i32>(body_base + slot * kInsnSize + 4 * word);
  } else {
    if (NextRand(state) % 2) in.opcode = Opcode::kStore;  // stores EAX
    in.imm = static_cast<i32>(NextRand(state));
    const u32 r = NextRand(state) % 3;
    in.size = static_cast<u8>(r == 0 ? 1 : (r == 1 ? 2 : 4));
    in.disp = static_cast<i32>(spare_begin + NextRand(state) % (page_end - spare_begin - 3));
  }
  body->push_back(in);
}

// Pseudo-random straight-line body of `body_len` instruction slots based at
// `body_base`, with loads/stores confined to [data_base, data_base +
// data_span). ECX is the loop counter and ESP the stack pointer (never a
// random destination, so iterations terminate).
//
// `code_stores` also mixes in stores to the body's own code page, the
// writes a decode cache must judge (see AppendCodeStore); the body and the
// loop's at most four closing slots must then leave at least one spare slot
// on that page. `flag_corners` adds `imul` r,r and r,imm to the ALU draws and
// draws forward branches from all 12 conditions instead of 8. Without either
// the draws, and so every existing seed's program, are unchanged.
inline std::vector<Insn> BuildFuzzBody(u64* state, u32 body_base, u32 body_len,
                                       u32 data_base, u32 data_span,
                                       bool code_stores = false, bool flag_corners = false) {
  std::vector<Insn> body;
  body.reserve(body_len);
  // Slot 0 of a code-storing body is the designated `mov $imm, %edi` whose
  // immediate AppendCodeStore's toggles rewrite.
  if (code_stores) {
    Insn mov;
    mov.opcode = Opcode::kMovRI;
    mov.r1 = static_cast<u8>(Reg::kEdi);
    mov.imm = static_cast<i32>(NextRand(state));
    body.push_back(mov);
  }
  // EAX/EBX/EDX/EDI/EBP are fair game; ECX is the loop counter and ESP the
  // stack pointer (never a random destination, so iterations terminate).
  // ESI is reserved as the case-12 anchor register: its only writers are the
  // anchors (and the prologue init), so its value is a window displacement at
  // every instruction boundary — a forward branch that lands *between* an
  // anchor and its memory op still addresses the window, never an arbitrary
  // scratch value.
  const Reg scratch[] = {Reg::kEax, Reg::kEbx, Reg::kEdx, Reg::kEdi, Reg::kEbp};
  auto pick_reg = [&] { return static_cast<u8>(scratch[NextRand(state) % 5]); };
  auto window_disp = [&] {
    return static_cast<i32>(data_base + NextRand(state) % (data_span - 8));
  };
  auto pick_size = [&] {
    u32 r = NextRand(state) % 3;
    return static_cast<u8>(r == 0 ? 1 : (r == 1 ? 2 : 4));
  };
  int depth = 0;
  while (body.size() < body_len) {
    const u32 remaining = body_len - static_cast<u32>(body.size());
    // Reserve the tail for draining outstanding pushes (static balance; a
    // forward branch may unbalance at runtime, which is fine — both runs
    // see the identical drift).
    if (remaining <= static_cast<u32>(depth)) {
      Insn pop;
      pop.opcode = Opcode::kPopR;
      pop.r1 = pick_reg();
      body.push_back(pop);
      --depth;
      continue;
    }
    if (code_stores && NextRand(state) % 8 == 0) {
      AppendCodeStore(state, &body, body_base, body_len, remaining - depth,
                      static_cast<Reg>(pick_reg()));
      continue;
    }
    Insn in;
    switch (NextRand(state) % 16) {
      case 0:
        in.opcode = Opcode::kMovRI;
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state));
        break;
      case 1:
        in.opcode = Opcode::kMovRR;
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        break;
      case 2:
      case 3: {  // absolute load
        in.opcode = Opcode::kLoad;
        in.r1 = pick_reg();
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.disp = window_disp();
        break;
      }
      case 4:
      case 5: {  // absolute store
        in.opcode = Opcode::kStore;
        in.r1 = pick_reg();
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.disp = window_disp();
        break;
      }
      case 6: {  // store immediate
        in.opcode = Opcode::kStoreI;
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.imm = static_cast<i32>(NextRand(state));
        in.disp = window_disp();
        break;
      }
      case 7: {  // ALU r,r
        const Opcode ops[] = {Opcode::kAddRR, Opcode::kSubRR, Opcode::kAndRR, Opcode::kOrRR,
                              Opcode::kXorRR, Opcode::kCmpRR, Opcode::kImulRR};
        in.opcode = ops[NextRand(state) % (flag_corners ? 7 : 6)];
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        break;
      }
      case 8: {  // ALU r,imm
        const Opcode ops[] = {Opcode::kAddRI, Opcode::kSubRI, Opcode::kAndRI,
                              Opcode::kOrRI,  Opcode::kXorRI, Opcode::kCmpRI,
                              Opcode::kTestRI, Opcode::kImulRI};
        in.opcode = ops[NextRand(state) % (flag_corners ? 8 : 7)];
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state));
        break;
      }
      case 9: {
        const Opcode ops[] = {Opcode::kShlRI, Opcode::kShrRI, Opcode::kSarRI};
        in.opcode = ops[NextRand(state) % 3];
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state) % 32);
        break;
      }
      case 10: {
        const Opcode ops[] = {Opcode::kIncR, Opcode::kDecR, Opcode::kNegR, Opcode::kNotR};
        in.opcode = ops[NextRand(state) % 4];
        in.r1 = pick_reg();
        break;
      }
      case 11:  // push (bounded depth)
        if (depth < 24) {
          in.opcode = NextRand(state) % 2 ? Opcode::kPushR : Opcode::kPushI;
          in.r1 = pick_reg();
          in.imm = static_cast<i32>(NextRand(state));
          ++depth;
        } else {
          in.opcode = Opcode::kPopR;
          in.r1 = pick_reg();
          --depth;
        }
        break;
      case 12:  // reg-based memory op through a freshly anchored base
        if (remaining >= static_cast<u32>(depth) + 2) {
          Insn anchor;
          anchor.opcode = Opcode::kMovRI;
          anchor.r1 = static_cast<u8>(Reg::kEsi);
          anchor.imm = window_disp();
          body.push_back(anchor);
          in.opcode = NextRand(state) % 2 ? Opcode::kLoad : Opcode::kStore;
          in.r1 = pick_reg();
          in.r2 = static_cast<u8>(Reg::kEsi);
          in.size = pick_size();
          in.disp = static_cast<i32>(NextRand(state) % 16) - 8;
        } else {
          in.opcode = Opcode::kNop;
        }
        break;
      case 13: {  // conditional forward branch (targets stay inside the body,
                  // before the drain tail, so the loop counter always runs)
        const u32 lo = static_cast<u32>(body.size()) + 1;
        const u32 hi = body_len - static_cast<u32>(depth);
        if (hi <= lo) {
          in.opcode = Opcode::kNop;
          break;
        }
        const Opcode ops[] = {Opcode::kJe,  Opcode::kJne, Opcode::kJb,  Opcode::kJae,
                              Opcode::kJl,  Opcode::kJge, Opcode::kJs,  Opcode::kJns,
                              Opcode::kJbe, Opcode::kJa,  Opcode::kJle, Opcode::kJg};
        in.opcode = ops[NextRand(state) % (flag_corners ? 12 : 8)];
        in.imm = static_cast<i32>(body_base + (lo + NextRand(state) % (hi - lo)) * kInsnSize);
        break;
      }
      case 14:
        in.opcode = Opcode::kLea;
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        in.scale = 0;
        in.disp = static_cast<i32>(NextRand(state) % 256);
        break;
      default:
        in.opcode = Opcode::kNop;
        break;
    }
    body.push_back(in);
  }
  return body;
}

// The loop shape a seed's program uses: bottom-tested (`body; dec; cmp;
// jne head`, one backward conditional edge) or top-tested (`head: cmp $0,
// %ecx; je out; body; dec %ecx; jmp head`, a guard at the head and an
// unconditional backward jump). Both are shapes the trace tier closes into
// loops; the top-tested one spans at least two runs, so only multi-run
// lowering can promote it. The bottom-tested shape enters its head with CF
// clear; the top-tested head overwrites every flag.
inline bool FuzzLoopIsTopTested(u64 seed) { return (seed & 1) != 0; }

// Counted loop around a fuzz body, in the seed's shape (FuzzLoopIsTopTested);
// both end in hlt. Encoded for loading at `code_base`. A runtime-unbalanced
// body (forward branches skipping pushes or pops) drifts ESP every
// iteration; the drift is identical on both sides of each differential,
// which is all the fuzz needs. With `flag_corners` (see BuildFuzzBody) the
// loop counts ECX up instead, `body; inc %ecx; cmp $iterations, %ecx; jb
// head`, so after the first iteration every entry at the head, the trace
// tier's included, carries CF set into a body whose first flag writer may
// be an `inc` or `dec`.
inline std::vector<u8> EncodeLoopedFuzzProgram(u64 seed, u32 iterations, u32 body_len,
                                               u32 code_base, u32 data_base, u32 data_span,
                                               bool code_stores = false,
                                               bool flag_corners = false) {
  u64 state = seed * 0x9E3779B97F4A7C15ull + 1;
  const bool top_tested = !flag_corners && FuzzLoopIsTopTested(seed);
  std::vector<Insn> program;
  Insn init;
  init.opcode = Opcode::kMovRI;
  init.r1 = static_cast<u8>(Reg::kEcx);
  init.imm = flag_corners ? 0 : static_cast<i32>(iterations);
  program.push_back(init);
  // ESI starts window-interior so a branch that reaches a case-12 memory op
  // before the first anchor of the run still addresses the window.
  Insn esi_init;
  esi_init.opcode = Opcode::kMovRI;
  esi_init.r1 = static_cast<u8>(Reg::kEsi);
  esi_init.imm = static_cast<i32>(data_base);
  program.push_back(esi_init);
  const u32 loop_base = code_base + 2 * kInsnSize;  // after the one-time inits
  Insn cmp;
  cmp.opcode = Opcode::kCmpRI;
  cmp.r1 = static_cast<u8>(Reg::kEcx);
  cmp.imm = 0;
  // The top-tested exit: patched to the hlt slot once the length is known.
  const size_t exit_test = program.size() + 1;
  if (top_tested) {
    program.push_back(cmp);
    Insn je;
    je.opcode = Opcode::kJe;
    program.push_back(je);
  }
  const u32 body_base = code_base + static_cast<u32>(program.size()) * kInsnSize;
  std::vector<Insn> body = BuildFuzzBody(&state, body_base, body_len, data_base, data_span,
                                         code_stores, flag_corners);
  program.insert(program.end(), body.begin(), body.end());
  Insn step;
  step.opcode = flag_corners ? Opcode::kIncR : Opcode::kDecR;
  step.r1 = static_cast<u8>(Reg::kEcx);
  program.push_back(step);
  Insn back;
  back.imm = static_cast<i32>(loop_base);
  if (top_tested) {
    back.opcode = Opcode::kJmp;
  } else {
    if (flag_corners) cmp.imm = static_cast<i32>(iterations);
    program.push_back(cmp);
    back.opcode = flag_corners ? Opcode::kJb : Opcode::kJne;
  }
  program.push_back(back);
  Insn hlt;
  hlt.opcode = Opcode::kHlt;
  if (top_tested) {
    program[exit_test].imm = static_cast<i32>(code_base + program.size() * kInsnSize);
  }
  program.push_back(hlt);

  std::vector<u8> bytes(program.size() * kInsnSize);
  for (size_t i = 0; i < program.size(); ++i) {
    program[i].EncodeTo(bytes.data() + i * kInsnSize);
  }
  return bytes;
}

}  // namespace palladium

#endif  // TESTS_FUZZ_UTIL_H_
