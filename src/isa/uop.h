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
// The lowering pass performs the two optimisations of this tier:
//
//  * Lazy flags: ALU uops do not compute EFLAGS. The last flag-producing op
//    records its result and its CF (ADD and SUB also their first operand) in
//    a FlagsCache; INC and DEC, which keep CF, record only their result. The
//    flags are materialized — bit-for-bit Cpu::ExecOp's — only when
//    something can observe them: a fault (the handler must see exact
//    EFLAGS) or any trace exit. Guards read CF, ZF and SF straight off the
//    cache and switch on the operation only for OF. A static liveness pass
//    additionally marks flag writes that are provably overwritten before any
//    observer so they record nothing at all.
//  * Constant folding: chains of add/sub-immediate on one register collapse
//    into a single uop that retires the whole chain's instructions and
//    cycles at once and records the *last* op's operands for the flags.
//
// Invalidation needs no machinery of its own: traces are owned by the
// decoded page they were lowered from, so every existing invalidation source
// (a write that changes a decode, frame eviction, capacity retirement,
// cost-model rebuild) kills them with the page, and the generation re-check
// after every memory-touching uop bounds how long a dead trace can keep
// running — to exactly the one instruction the per-instruction rule allows.
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

// The flag state of the last flag-producing operation, recorded instead of
// executed. CF is computed when a producer records and is current in every
// state: trace entry seeds it from EFLAGS.CF, and INC/DEC, which preserve
// CF, leave it alone, so the cache never reaches back past one op. ZF and SF
// read off the stored result `r`. Only OF still depends on the operation:
// ADD and SUB recover their second operand from `r` and `a`; NEG, INC and
// DEC read their overflow edge off `r`; IMUL's OF is its CF. Until the first
// producer records, the cache holds the entry EFLAGS and reads from them.
struct FlagsCache {
  enum class Op : u8 {
    kEager,  // a = EFLAGS, architecturally current; nothing pending
    kAdd,    // r = a + b
    kSub,    // r = a - b (also CMP)
    kLogic,  // OF = 0
    kImul,   // OF = CF = the signed overflow
    kNeg,    // r = -x
    kInc,    // r = x + 1
    kDec,    // r = x - 1
  };
  Op op = Op::kEager;
  bool cf = false;
  u32 r = 0;
  u32 a = 0;  // kAdd/kSub: the first operand; kEager: EFLAGS

  static FlagsCache Eager(u32 eflags) { return {Op::kEager, (eflags & kFlagCf) != 0, 0, eflags}; }
  static FlagsCache Add(u32 a, u32 b) { return {Op::kAdd, a + b < a, a + b, a}; }
  static FlagsCache Sub(u32 a, u32 b) { return {Op::kSub, a < b, a - b, a}; }
  static FlagsCache Logic(u32 r) { return {Op::kLogic, false, r, 0}; }
  static FlagsCache Imul(u32 r, bool overflow) { return {Op::kImul, overflow, r, 0}; }
  static FlagsCache Neg(u32 a) { return {Op::kNeg, a != 0, 0 - a, 0}; }
  void Inc(u32 result) {
    op = Op::kInc;
    r = result;
  }
  void Dec(u32 result) {
    op = Op::kDec;
    r = result;
  }
};

// Single-flag reads against the lazy cache, for an in-trace guard that needs
// one or two bits without paying a full materialization. CF is `fc.cf`.
inline bool LazyZf(FlagsCache fc) {
  return fc.op == FlagsCache::Op::kEager ? (fc.a & kFlagZf) != 0 : fc.r == 0;
}

inline bool LazySf(FlagsCache fc) {
  return fc.op == FlagsCache::Op::kEager ? (fc.a & kFlagSf) != 0 : (fc.r >> 31) != 0;
}

inline bool LazyOf(FlagsCache fc) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (fc.a & kFlagOf) != 0;
    case FlagsCache::Op::kAdd: {
      const u32 b = fc.r - fc.a;
      return ((~(fc.a ^ b)) & (fc.a ^ fc.r) & 0x80000000u) != 0;
    }
    case FlagsCache::Op::kSub: {
      const u32 b = fc.a - fc.r;
      return (((fc.a ^ b) & (fc.a ^ fc.r)) & 0x80000000u) != 0;
    }
    case FlagsCache::Op::kLogic:
      return false;
    case FlagsCache::Op::kImul:
      return fc.cf;
    case FlagsCache::Op::kNeg:
    case FlagsCache::Op::kInc:
      return fc.r == 0x80000000u;
    case FlagsCache::Op::kDec:
      return fc.r == 0x7FFFFFFFu;
  }
  return false;
}

// Returns `eflags` with CF/ZF/SF/OF replaced by the recorded op's results —
// bit for bit Cpu::ExecOp's SetFlags, which the differential fuzz holds this
// function to. A cache still in its Eager(eflags) state returns `eflags`.
inline u32 MaterializeFlags(FlagsCache fc, u32 eflags) {
  return (eflags & ~(kFlagCf | kFlagZf | kFlagSf | kFlagOf)) | (fc.cf ? kFlagCf : 0) |
         (LazyZf(fc) ? kFlagZf : 0) | (LazySf(fc) ? kFlagSf : 0) | (LazyOf(fc) ? kFlagOf : 0);
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
  // Memory, served inline from the TLB entry's host pointer when it hits
  // (see Cpu::ExecTrace). Push/pop lower to these kinds too:
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
  u16 slot = 0;                   // source slot in the decoded page (first, when span > 1)
  u16 insn_before = 0;            // instructions retired earlier in the iteration
  u32 cost = 0;                   // base retire cost (summed over a fold)
  u32 cost_before = 0;            // base-cost sum of everything earlier in the iteration
  i32 imm = 0;                    // immediate / fold total delta / guard exit EIP
  i32 disp = 0;                   // displacement / fold last-op immediate
  i32 imm2 = 0;                   // fold delta before the last op / fused compare immediate
  u32 cost2 = 0;                  // guards: the exiting edge's total charge
};

// A lowered hot loop: one iteration's uops, ending at the closing edge back
// to the entry. Owned by the decoded page it was built from (see
// DecodeCache::Page::traces); dies with the page on any invalidation.
struct Trace {
  std::vector<Uop> uops;
  bool threaded = false;  // uop targets filled in by the executor
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
