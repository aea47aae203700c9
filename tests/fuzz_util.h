// Shared fuzz-program machinery for the differential test binaries
// (tests/cpu_property_test.cc, tests/smp_threaded_test.cc): a deterministic
// operand generator, the fault-stream record, and the looped fuzz-program
// builder. The builder is parameterized by code base and data window so the
// SMP fuzzes can give every vCPU its own program *and* — for the threaded
// data-race-free differential — its own disjoint data window. Generation is
// a pure function of (seed, iterations, body_len, code_base, data_base,
// data_span): identical arguments yield byte-identical programs, which is
// what the differential harnesses rely on.
#ifndef TESTS_FUZZ_UTIL_H_
#define TESTS_FUZZ_UTIL_H_

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

// Pseudo-random straight-line body of `body_len` instruction slots based at
// `body_base`, with loads/stores confined to [data_base, data_base +
// data_span). ECX is the loop counter and ESP the stack pointer (never a
// random destination, so iterations terminate).
inline std::vector<Insn> BuildFuzzBody(u64* state, u32 body_base, u32 body_len,
                                       u32 data_base, u32 data_span) {
  std::vector<Insn> body;
  body.reserve(body_len);
  // EAX/EBX/EDX/EDI/EBP are fair game; ECX is the loop counter and ESP the
  // stack pointer (never a random destination, so iterations terminate).
  // ESI is reserved as the case-12 anchor register: its only writers are the
  // anchors (and the prologue init), so its value is a window displacement at
  // every instruction boundary — a forward branch that lands *between* an
  // anchor and its memory op still addresses the window, never an arbitrary
  // scratch value. The threaded differential's data-race-freedom rests on
  // this: every access must stay inside the vCPU's private window.
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
        const Opcode ops[] = {Opcode::kAddRR, Opcode::kSubRR, Opcode::kAndRR,
                              Opcode::kOrRR,  Opcode::kXorRR, Opcode::kCmpRR};
        in.opcode = ops[NextRand(state) % 6];
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        break;
      }
      case 8: {  // ALU r,imm
        const Opcode ops[] = {Opcode::kAddRI, Opcode::kSubRI, Opcode::kAndRI,
                              Opcode::kOrRI,  Opcode::kXorRI, Opcode::kCmpRI,
                              Opcode::kTestRI};
        in.opcode = ops[NextRand(state) % 7];
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
        const Opcode ops[] = {Opcode::kJe, Opcode::kJne, Opcode::kJb,  Opcode::kJae,
                              Opcode::kJl, Opcode::kJge, Opcode::kJs,  Opcode::kJns};
        in.opcode = ops[NextRand(state) % 8];
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
// lowering can promote it.
inline bool FuzzLoopIsTopTested(u64 seed) { return (seed & 1) != 0; }

// Counted loop around a fuzz body, ECX = iterations, in the seed's shape
// (FuzzLoopIsTopTested); both end in hlt. Encoded for loading at
// `code_base`.
//
// `esp_reset`: when nonzero, the loop head reloads ESP with this value every
// iteration. A runtime-unbalanced body (forward branches skipping pushes or
// pops) drifts ESP by a bounded amount *per iteration*; without the reset
// that drift compounds across iterations and the stack excursion is
// effectively unbounded. The threaded-vs-interleaver differential needs every
// vCPU's stack accesses confined to a private region (data-race freedom is
// its precondition), so it caps the excursion to one iteration's worth. The
// uniprocessor and interleaver-only fuzzes pass 0 (no reset; their drift is
// identical on both sides of each differential, which is all they need).
inline std::vector<u8> EncodeLoopedFuzzProgram(u64 seed, u32 iterations, u32 body_len,
                                               u32 code_base, u32 data_base,
                                               u32 data_span, u32 esp_reset = 0) {
  u64 state = seed * 0x9E3779B97F4A7C15ull + 1;
  const bool top_tested = FuzzLoopIsTopTested(seed);
  std::vector<Insn> program;
  Insn init;
  init.opcode = Opcode::kMovRI;
  init.r1 = static_cast<u8>(Reg::kEcx);
  init.imm = static_cast<i32>(iterations);
  program.push_back(init);
  // ESI starts window-interior so a branch that reaches a case-12 memory op
  // before the first anchor of the run still addresses the window.
  Insn esi_init;
  esi_init.opcode = Opcode::kMovRI;
  esi_init.r1 = static_cast<u8>(Reg::kEsi);
  esi_init.imm = static_cast<i32>(data_base);
  program.push_back(esi_init);
  const u32 loop_base = code_base + 2 * kInsnSize;  // after the one-time inits
  if (esp_reset != 0) {
    Insn reset;
    reset.opcode = Opcode::kMovRI;
    reset.r1 = static_cast<u8>(Reg::kEsp);
    reset.imm = static_cast<i32>(esp_reset);
    program.push_back(reset);
  }
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
  std::vector<Insn> body = BuildFuzzBody(&state, body_base, body_len, data_base, data_span);
  program.insert(program.end(), body.begin(), body.end());
  Insn dec;
  dec.opcode = Opcode::kDecR;
  dec.r1 = static_cast<u8>(Reg::kEcx);
  program.push_back(dec);
  Insn back;
  back.imm = static_cast<i32>(loop_base);  // re-runs the ESP reset when present
  if (top_tested) {
    back.opcode = Opcode::kJmp;
  } else {
    program.push_back(cmp);
    back.opcode = Opcode::kJne;
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
