// Micro-op IR for the hot-trace translation tier (the third execution tier,
// above the superblock engine). When a basic-block run head crosses the
// hotness threshold, Cpu::RunBlock lowers the *loop* that starts there into a
// compact uop vector and executes that instead (Bala et al.'s Dynamo trace
// selection: anchor at a hot head, follow the path until control returns to
// it).
//
// Formation (LowerLoop). Starting at the head, the lowering follows the
// block engine's own run decomposition:
//
//  * straight-line members lower to uops;
//  * an unconditional direct `jmp` to a slot of the same page continues the
//    trace at its target (it costs no uop, only retire accounting);
//  * a `jcc` becomes an in-trace *guard*: its fall-through edge continues
//    the trace, its taken edge leaves it;
//  * lowering ends at the first edge back to the entry slot (a `jmp`, a
//    `jcc` taken edge, a `jcc` fall-through or a run boundary). That closing
//    edge loops in place; a closing `jcc`'s other edge is the guard exit.
//
// A head whose path reaches a call, return, indirect or far transfer, `hlt`,
// an undecodable slot or the page end, or that does not close within a
// fixed number of runs (kMaxTraceRuns in uop.cc), is marked untraceable and
// stays on the block engine: a trace that cannot iterate pays its entry and
// exit cost on every visit and is slower than the block engine underneath.
//
// Exactness. The executor has no per-retire checks, so a trace is entered
// only where the block engine would run every member run unchecked and chain
// through every internal edge (see Cpu::RunBlock): at the EIP it was lowered
// at (internal edges are resolved against it), when every covered slot lies
// inside the CS limit, and when `cycles + cost_max` stays below the
// cycle/IRQ frontier. The closing edge re-checks the same frontier bound and
// the decode generation before each further iteration. Every other exit —
// guard, frontier, fault, generation change — reconstructs exact EIP, cycles
// and instruction counts from per-uop prefix sums and slots.
//
// The lowering pass performs the three optimisations of this tier:
//
//  * Lazy flags: ALU uops do not compute EFLAGS. They record the operands of
//    the last flag-producing op in a FlagsCache, and the flags are
//    materialized — with formulas bit-for-bit identical to Cpu::ExecOp's —
//    only when something can observe them: a fault (the handler must see
//    exact EFLAGS) or any trace exit. Guards evaluate their condition from
//    the cache one flag at a time. A static liveness pass additionally marks
//    flag writes that are provably overwritten before any observer so they
//    record nothing at all.
//  * Redundant-translation elimination: each memory uop carries a persistent
//    pin of its last translation (host pointer + PTE flags), revalidated by
//    three counter compares instead of the D-TLB probe-and-permission walk.
//    The pin is provably the live D-TLB entry (no TLB change, no fill or
//    eviction since pin time), so cycles and TLB statistics are charged
//    exactly as the oracle's hit path would charge them.
//  * Constant folding: chains of add/sub-immediate on one register collapse
//    into a single uop that retires the whole chain's instructions and
//    cycles at once and records the *last* op's operands for the flags.
//
// Invalidation needs no machinery of its own: traces are owned by the
// decoded page they were lowered from, so every existing invalidation source
// (write observer, frame eviction, capacity retirement, cost-model rebuild)
// kills them with the page, and the generation re-check after every
// memory-touching uop bounds how long a dead trace can keep running — to
// exactly the one instruction the per-instruction rule allows.
#ifndef SRC_ISA_UOP_H_
#define SRC_ISA_UOP_H_

#include <memory>
#include <vector>

#include "src/hw/cycle_model.h"
#include "src/hw/types.h"

namespace palladium {

struct DecodedInsn;  // src/isa/decode_cache.h (includes this header)

// EFLAGS bit positions (x86 layout for the flags we model). Defined here —
// next to the lazy-flags machinery that reconstructs them — and re-exported
// through cpu.h's include chain.
inline constexpr u32 kFlagCf = 1u << 0;
inline constexpr u32 kFlagZf = 1u << 6;
inline constexpr u32 kFlagSf = 1u << 7;
inline constexpr u32 kFlagIf = 1u << 9;  // hardware-interrupt enable
inline constexpr u32 kFlagOf = 1u << 11;

// Sentinels for DecodedInsn::trace (a slot's lowered-trace index within its
// page). Values below kTraceUntraceable index Page::traces.
inline constexpr u16 kTraceNone = 0xFFFF;         // not (yet) lowered
inline constexpr u16 kTraceUntraceable = 0xFFFE;  // lowering declined; stay on blocks

// The last flag-producing operation, recorded instead of executed. One entry
// suffices: every producer either overwrites all four flags from (a, b), or
// — INC/DEC, which preserve CF — captures the carry it inherited as `b` at
// record time, so the cache never needs to reach further back than one op.
struct FlagsCache {
  enum class Op : u8 {
    kEager,  // eflags is architecturally current; nothing pending
    kAdd,    // r = a + b
    kSub,    // r = a - b (also CMP)
    kLogic,  // a = result; CF = OF = 0
    kImul,   // a = low-32 result, b = overflow bit (CF = OF = b)
    kNeg,    // r = -a
    kInc,    // r = a + 1, CF preserved in b
    kDec,    // r = a - 1, CF preserved in b
  };
  Op op = Op::kEager;
  u32 a = 0;
  u32 b = 0;
};

// Single-flag reads against the lazy cache, for consumers that need one or
// two bits (INC/DEC capturing CF; an in-trace guard evaluating its condition)
// without paying a full materialization. Each case is the
// corresponding MaterializeFlags branch restricted to one flag.
inline bool LazyCf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagCf) != 0;
    case FlagsCache::Op::kAdd:
      return fc.a + fc.b < fc.a;
    case FlagsCache::Op::kSub:
      return fc.a < fc.b;
    case FlagsCache::Op::kLogic:
      return false;
    case FlagsCache::Op::kImul:
      return fc.b != 0;
    case FlagsCache::Op::kNeg:
      return fc.a != 0;
    case FlagsCache::Op::kInc:
    case FlagsCache::Op::kDec:
      return fc.b != 0;
  }
  return false;
}

inline bool LazyZf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagZf) != 0;
    case FlagsCache::Op::kAdd:
      return fc.a + fc.b == 0;
    case FlagsCache::Op::kSub:
      return fc.a == fc.b;
    case FlagsCache::Op::kLogic:
    case FlagsCache::Op::kImul:
    case FlagsCache::Op::kNeg:
      return fc.a == 0;
    case FlagsCache::Op::kInc:
      return fc.a + 1 == 0;
    case FlagsCache::Op::kDec:
      return fc.a == 1;
  }
  return false;
}

inline bool LazySf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagSf) != 0;
    case FlagsCache::Op::kAdd:
      return ((fc.a + fc.b) >> 31) != 0;
    case FlagsCache::Op::kSub:
      return ((fc.a - fc.b) >> 31) != 0;
    case FlagsCache::Op::kLogic:
    case FlagsCache::Op::kImul:
      return (fc.a >> 31) != 0;
    case FlagsCache::Op::kNeg:
      return ((0 - fc.a) >> 31) != 0;
    case FlagsCache::Op::kInc:
      return ((fc.a + 1) >> 31) != 0;
    case FlagsCache::Op::kDec:
      return ((fc.a - 1) >> 31) != 0;
  }
  return false;
}

inline bool LazyOf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagOf) != 0;
    case FlagsCache::Op::kAdd:
      return ((~(fc.a ^ fc.b)) & (fc.a ^ (fc.a + fc.b)) & 0x80000000u) != 0;
    case FlagsCache::Op::kSub:
      return (((fc.a ^ fc.b) & (fc.a ^ (fc.a - fc.b))) & 0x80000000u) != 0;
    case FlagsCache::Op::kLogic:
      return false;
    case FlagsCache::Op::kImul:
      return fc.b != 0;
    case FlagsCache::Op::kNeg:
      return fc.a == 0x80000000u;
    case FlagsCache::Op::kInc:
      return fc.a == 0x7FFFFFFFu;
    case FlagsCache::Op::kDec:
      return fc.a == 0x80000000u;
  }
  return false;
}

// Returns `eflags` with CF/ZF/SF/OF replaced by the recorded op's results.
// Each branch is the corresponding Cpu::ExecOp SetFlags call, bit for bit —
// the differential fuzz holds this function to the interpreter's output.
inline u32 MaterializeFlags(const FlagsCache& fc, u32 eflags) {
  bool cf = false, zf = false, sf = false, of = false;
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return eflags;
    case FlagsCache::Op::kAdd: {
      const u32 r = fc.a + fc.b;
      cf = r < fc.a;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = ((~(fc.a ^ fc.b)) & (fc.a ^ r) & 0x80000000u) != 0;
      break;
    }
    case FlagsCache::Op::kSub: {
      const u32 r = fc.a - fc.b;
      cf = fc.a < fc.b;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = (((fc.a ^ fc.b) & (fc.a ^ r)) & 0x80000000u) != 0;
      break;
    }
    case FlagsCache::Op::kLogic:
      zf = fc.a == 0;
      sf = (fc.a >> 31) & 1;
      break;
    case FlagsCache::Op::kImul:
      cf = of = fc.b != 0;
      zf = fc.a == 0;
      sf = (fc.a >> 31) & 1;
      break;
    case FlagsCache::Op::kNeg: {
      const u32 r = 0 - fc.a;
      cf = fc.a != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x80000000u;
      break;
    }
    case FlagsCache::Op::kInc: {
      const u32 r = fc.a + 1;
      cf = fc.b != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x7FFFFFFFu;
      break;
    }
    case FlagsCache::Op::kDec: {
      const u32 r = fc.a - 1;
      cf = fc.b != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x80000000u;
      break;
    }
  }
  return (eflags & ~(kFlagCf | kFlagZf | kFlagSf | kFlagOf)) | (cf ? kFlagCf : 0) |
         (zf ? kFlagZf : 0) | (sf ? kFlagSf : 0) | (of ? kFlagOf : 0);
}

enum class UopKind : u8 {
  kNop,    // retire accounting only
  kMovRR,  // r1 <- r2
  kMovRI,  // r1 <- imm
  kLea,    // r1 <- effective address
  // ALU; operand b is regs[r2] or imm (b_imm). `record` marks observable
  // flag results (the static-liveness output).
  kAdd, kSub, kCmp, kAnd, kTest, kOr, kXor,
  kShl, kShr, kSar, kImul, kNeg, kNot, kInc, kDec,
  // Folded add/sub-immediate chain: r1 += imm (the summed delta), retiring
  // `span` instructions; flags are the last op's (imm2 = delta before the
  // last op, disp = the last op's immediate, fold_last_is_sub its kind).
  kFold,
  // Memory; pin indexes Trace::pins. Push/pop lower to these kinds too:
  // PUSH r/i is a store at SS:ESP-4 and POP r a load at SS:ESP, with
  // esp_post applying the stack-pointer move after a successful access
  // (the fault path leaves ESP untouched, exactly like Push32/Pop32).
  kLoad,    // r1 <- [seg: ea], `size` bytes zero-extended
  kStore,   // [seg: ea] <- r1
  kStoreI,  // [seg: ea] <- imm
  // Fallback: dispatch the source slot through the shared per-opcode
  // execution core (segment moves, udiv). Never writes flags (no such
  // non-terminator opcode does), may fault or touch memory.
  kExec,
  // Guard: a conditional branch of the path. r1 = the *exit* condition
  // (Opcode - kJe of the branch, or its negation — conditions come in
  // complementary pairs, so negating is `^ 1`), evaluated from the lazy
  // cache one flag at a time. When it holds the trace leaves at `imm` (the
  // exit edge's target EIP) charging `cost2`; otherwise execution continues
  // along the trace's own edge, whose charge `cost` is already in the prefix
  // sums of every later uop.
  kJcc,
  // Fused compare-and-guard: a kCmp that immediately precedes a kJcc guard
  // merges into it. r1/r2/b_imm/imm2 are the compare's operands (imm2
  // because `imm` holds the exit EIP), r3 = exit condition, cost / cost2 =
  // the compare's base cost plus the continuing / exiting edge's charge,
  // span = 2. The condition evaluates directly from the compare operands
  // (jb == a < b, jl == signed a < b, ... — the standard sub-flag
  // identities), skipping a dispatch and the lazy-flag round-trip on the
  // hottest edge in any loop. The operands are still recorded into the flags
  // cache so every exit materializes the compare's EFLAGS exactly.
  kCmpJcc,
};

struct Uop {
  UopKind kind = UopKind::kNop;
  // Direct-threading cache: the executor's label address for `kind`, filled
  // in by the executor on the trace's first run (labels are function-local,
  // so the lowering pass cannot know them). One dependent load per dispatch
  // instead of two (kind, then table[kind]).
  const void* target = nullptr;
  u8 r1 = 0, r2 = 0, r3 = 0;
  u8 scale = 0;
  u8 size = 4;
  u8 seg_idx = 2;
  bool is_stack = false;
  bool b_imm = false;             // ALU operand b is `imm`, not regs[r2]
  bool record = false;            // flag result observable: record it
  bool fold_last_is_sub = false;  // kFold: last op of the chain was SubRI
  i8 esp_post = 0;                // push/pop: ESP += this after a successful access
  u8 span = 1;                    // instructions this uop retires (folds, fused guards > 1)
  u16 pin = 0;                    // memory uops: index into Trace::pins
  u16 slot = 0;                   // source slot in the decoded page (first, when span > 1)
  u16 insn_before = 0;            // instructions retired earlier in the iteration
  u32 cost = 0;                   // base retire cost (summed over a fold)
  u32 cost_before = 0;            // base-cost sum of everything earlier in the iteration
  i32 imm = 0;                    // immediate / fold total delta / guard exit EIP
  i32 disp = 0;                   // displacement / fold last-op immediate
  i32 imm2 = 0;                   // fold delta before the last op / fused compare immediate
  u32 cost2 = 0;                  // guards: the exiting edge's total charge
};

// A pinned translation: one memory uop's last successful D-TLB entry. Live
// iff nothing that could have killed or replaced the entry happened since —
// the TLB change counter (CR3 loads, INVLPG, PTE edits) and the D-TLB
// mutation counter (fills, conflict evictions) both still match. Liveness
// implies the oracle's probe would hit this same entry, so the pinned path
// may skip the probe while charging identical statistics.
struct TracePin {
  u64 tlb_change = ~0ull;
  u64 dtlb_gen = ~0ull;
  u32 vpn = 0;
  u32 frame = 0;
  u32 flags = 0;
  u8* host = nullptr;
};

// A lowered hot loop: one iteration's uops, ending at the closing edge back
// to the entry. Owned by the decoded page it was built from (see
// DecodeCache::Page::traces); dies with the page on any invalidation.
struct Trace {
  std::vector<Uop> uops;
  bool threaded = false;  // uop targets filled in by the executor
  std::vector<TracePin> pins;
  u32 entry_eip = 0;   // the EIP lowered at; internal edges resolve against it
  u16 entry_slot = 0;
  u32 iter_insns = 0;  // instructions one full iteration retires
  u32 iter_cost = 0;   // base-cost sum of one full iteration
  // Worst-case cycles of one iteration: every member run's run_cost_max plus
  // its final slot's worst charge. `cycles + cost_max` below the frontier
  // proves the block engine would run every member run unchecked.
  u32 cost_max = 0;
  // Smallest CS limit under which every covered slot is fetchable (the
  // highest covered slot's EIP + kInsnSize): the block engine clips runs at
  // the limit, the trace cannot.
  u32 min_limit = 0;
};

// Lowers the loop whose head is `slots[entry_slot]`, entered at `entry_eip`.
// Returns nullptr when the path from the head does not close back to it (see
// the formation rules above). Pure ISA-side: no CPU state is consulted —
// register indices, segments and base costs come from the decoded slots, and
// `costs` supplies the taken-branch and memory worst-case charges.
std::unique_ptr<Trace> LowerLoop(const DecodedInsn* slots, u32 entry_slot, u32 entry_eip,
                                 const CycleModel::CostTable& costs);

}  // namespace palladium

#endif  // SRC_ISA_UOP_H_
