// Lowering from a hot run head's loop to the micro-op IR (see uop.h for the
// tier's contract and formation rules). The pass is purely syntactic: it
// walks the block engine's run decomposition of the path, folds
// add/sub-immediate chains, turns conditional branches into guards, assigns
// each memory uop a pin slot, computes the per-iteration prefix sums the
// executor needs to reconstruct exact cycles/instruction counts at any exit,
// and runs the backward flags-liveness scan that decides which ALU uops must
// record their operands.
#include "src/isa/uop.h"

#include "src/isa/decode_cache.h"

namespace palladium {

namespace {

// Upper bound on the runs one iteration may span before the head is
// declared untraceable. Real hot loops close within a few runs; sixteen also
// admits the differential fuzz's long bodies, whose forward branches split
// one iteration into a dozen runs, so the fuzz exercises many-guard traces.
constexpr u32 kMaxTraceRuns = 16;

bool WritesFlags(UopKind k) {
  switch (k) {
    case UopKind::kAdd:
    case UopKind::kSub:
    case UopKind::kCmp:
    case UopKind::kAnd:
    case UopKind::kTest:
    case UopKind::kOr:
    case UopKind::kXor:
    case UopKind::kShl:
    case UopKind::kShr:
    case UopKind::kSar:
    case UopKind::kImul:
    case UopKind::kNeg:
    case UopKind::kInc:
    case UopKind::kDec:
    case UopKind::kFold:
      return true;
    default:
      return false;
  }
}

// Uops at which the trace can exit with flags observable: a fault hands the
// current EFLAGS to the handler, so the latest flag write before any of
// these must have been recorded.
bool IsFaultCapable(UopKind k) {
  return k == UopKind::kLoad || k == UopKind::kStore || k == UopKind::kStoreI ||
         k == UopKind::kExec;
}

// Register-only ALU ops with a direct uop kind; b_imm tells the executor
// where operand b lives.
bool AluKindFor(Opcode op, UopKind* kind, bool* b_imm) {
  switch (op) {
    case Opcode::kAddRR: *kind = UopKind::kAdd; *b_imm = false; return true;
    case Opcode::kAddRI: *kind = UopKind::kAdd; *b_imm = true; return true;
    case Opcode::kSubRR: *kind = UopKind::kSub; *b_imm = false; return true;
    case Opcode::kSubRI: *kind = UopKind::kSub; *b_imm = true; return true;
    case Opcode::kCmpRR: *kind = UopKind::kCmp; *b_imm = false; return true;
    case Opcode::kCmpRI: *kind = UopKind::kCmp; *b_imm = true; return true;
    case Opcode::kAndRR: *kind = UopKind::kAnd; *b_imm = false; return true;
    case Opcode::kAndRI: *kind = UopKind::kAnd; *b_imm = true; return true;
    case Opcode::kTestRR: *kind = UopKind::kTest; *b_imm = false; return true;
    case Opcode::kTestRI: *kind = UopKind::kTest; *b_imm = true; return true;
    case Opcode::kOrRR: *kind = UopKind::kOr; *b_imm = false; return true;
    case Opcode::kOrRI: *kind = UopKind::kOr; *b_imm = true; return true;
    case Opcode::kXorRR: *kind = UopKind::kXor; *b_imm = false; return true;
    case Opcode::kXorRI: *kind = UopKind::kXor; *b_imm = true; return true;
    case Opcode::kShlRI: *kind = UopKind::kShl; *b_imm = true; return true;
    case Opcode::kShrRI: *kind = UopKind::kShr; *b_imm = true; return true;
    case Opcode::kSarRI: *kind = UopKind::kSar; *b_imm = true; return true;
    case Opcode::kImulRR: *kind = UopKind::kImul; *b_imm = false; return true;
    case Opcode::kImulRI: *kind = UopKind::kImul; *b_imm = true; return true;
    case Opcode::kNegR: *kind = UopKind::kNeg; *b_imm = false; return true;
    case Opcode::kNotR: *kind = UopKind::kNot; *b_imm = false; return true;
    case Opcode::kIncR: *kind = UopKind::kInc; *b_imm = false; return true;
    case Opcode::kDecR: *kind = UopKind::kDec; *b_imm = false; return true;
    default:
      return false;
  }
}

bool IsFoldable(Opcode op) {
  return op == Opcode::kAddRI || op == Opcode::kSubRI;
}

// Lowers the straight-line member at `s` — with its add/sub-immediate chain
// when one follows, bounded by `end` — into one uop. Fills everything but
// the path bookkeeping (slot, prefix sums); `span` and `cost` cover the
// whole chain.
Uop LowerStraight(const DecodedInsn* slots, u32 s, u32 end, u32* num_pins) {
  const DecodedInsn& d = slots[s];
  const Insn& in = d.insn;
  Uop u;
  u.cost = d.cost;
  UopKind alu_kind;
  bool alu_b_imm;
  if (IsFoldable(in.opcode)) {
    // Constant folding: a run of add/sub-immediate on one register
    // collapses into a single uop. The recorded flags must be those of the
    // chain's *last* op applied to the true intermediate value, so keep the
    // delta accumulated before it and its own immediate.
    u32 total = 0;
    u32 pre_last = 0;
    u32 chain_cost = 0;
    u32 len = 0;
    u32 j = s;
    while (j < end && IsFoldable(slots[j].insn.opcode) && slots[j].insn.r1 == in.r1) {
      pre_last = total;
      const u32 delta = static_cast<u32>(slots[j].insn.imm);
      total += slots[j].insn.opcode == Opcode::kAddRI ? delta : 0u - delta;
      chain_cost += slots[j].cost;
      ++len;
      ++j;
    }
    if (len >= 2) {
      const Insn& last = slots[j - 1].insn;
      u.kind = UopKind::kFold;
      u.r1 = in.r1;
      u.imm = static_cast<i32>(total);
      u.imm2 = static_cast<i32>(pre_last);
      u.disp = last.imm;
      u.fold_last_is_sub = last.opcode == Opcode::kSubRI;
      u.span = static_cast<u8>(len);
      u.cost = chain_cost;
    } else {
      u.kind = in.opcode == Opcode::kAddRI ? UopKind::kAdd : UopKind::kSub;
      u.b_imm = true;
      u.r1 = in.r1;
      u.imm = in.imm;
    }
  } else if (AluKindFor(in.opcode, &alu_kind, &alu_b_imm)) {
    u.kind = alu_kind;
    u.b_imm = alu_b_imm;
    u.r1 = in.r1;
    u.r2 = in.r2;
    u.imm = in.imm;
  } else {
    switch (in.opcode) {
      case Opcode::kNop:
        u.kind = UopKind::kNop;
        break;
      case Opcode::kMovRR:
        u.kind = UopKind::kMovRR;
        u.r1 = in.r1;
        u.r2 = in.r2;
        break;
      case Opcode::kMovRI:
        u.kind = UopKind::kMovRI;
        u.r1 = in.r1;
        u.imm = in.imm;
        break;
      case Opcode::kLea:
        u.kind = UopKind::kLea;
        u.r1 = in.r1;
        u.r2 = in.r2;
        u.r3 = in.r3;
        u.scale = in.scale;
        u.disp = in.disp;
        break;
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kStoreI:
        u.kind = in.opcode == Opcode::kLoad    ? UopKind::kLoad
                 : in.opcode == Opcode::kStore ? UopKind::kStore
                                               : UopKind::kStoreI;
        u.r1 = in.r1;
        u.r2 = in.r2;
        u.r3 = in.r3;
        u.scale = in.scale;
        u.size = in.size;
        u.seg_idx = d.seg_idx;
        u.is_stack = d.is_stack;
        u.imm = in.imm;
        u.disp = in.disp;
        u.pin = static_cast<u16>((*num_pins)++);
        break;
      // Push/pop are fixed-shape stack accesses (Cpu::Push32/Pop32): a
      // 4-byte store at SS:ESP-4 / load at SS:ESP, with the ESP move
      // committed only on success. Lowering them to pinned memory uops
      // (instead of kExec) puts the hottest stack page behind a pin.
      case Opcode::kPushR:
      case Opcode::kPushI:
        u.kind = in.opcode == Opcode::kPushR ? UopKind::kStore : UopKind::kStoreI;
        u.r1 = in.r1;
        u.r2 = static_cast<u8>(Reg::kEsp);
        u.scale = 0;
        u.size = 4;
        u.seg_idx = 1;  // SS, unconditionally (no override applies)
        u.is_stack = true;
        u.imm = in.imm;
        u.disp = -4;
        u.esp_post = -4;
        u.pin = static_cast<u16>((*num_pins)++);
        break;
      case Opcode::kPopR:
        u.kind = UopKind::kLoad;
        u.r1 = in.r1;
        u.r2 = static_cast<u8>(Reg::kEsp);
        u.scale = 0;
        u.size = 4;
        u.seg_idx = 1;
        u.is_stack = true;
        u.disp = 0;
        u.esp_post = 4;
        u.pin = static_cast<u16>((*num_pins)++);
        break;
      default:
        // Everything else (segment moves, udiv) runs through the shared
        // per-opcode execution core. None of these write flags.
        u.kind = UopKind::kExec;
        break;
    }
  }
  return u;
}

}  // namespace

std::unique_ptr<Trace> LowerLoop(const DecodedInsn* slots, u32 entry_slot, u32 entry_eip,
                                 const CycleModel::CostTable& costs) {
  constexpr u32 kSlots = DecodeCache::kSlotsPerPage;
  // EIP of a slot and slot of an EIP, both relative to the entry: a target
  // is internal only when it is slot-aligned on the entry's page (the same
  // rule as the block engine's chain edge). kSlots means "not internal".
  const auto slot_eip = [&](u32 slot) {
    return entry_eip + (slot - entry_slot) * kInsnSize;  // modular, like EIP
  };
  const auto slot_of = [&](u32 eip) {
    const i64 off = static_cast<i64>(entry_slot) * kInsnSize +
                    static_cast<i32>(eip - entry_eip);
    if (off < 0 || off >= static_cast<i64>(kPageSize) || off % kInsnSize != 0) return kSlots;
    return static_cast<u32>(off / kInsnSize);
  };

  auto t = std::make_unique<Trace>();
  t->entry_eip = entry_eip;
  t->entry_slot = static_cast<u16>(entry_slot);
  u32 insn_before = 0;
  u32 cost_before = 0;
  u32 cost_max = 0;
  u32 num_pins = 0;
  u32 lo = entry_slot;
  u32 hi = entry_slot;
  u32 s = entry_slot;
  for (u32 run = 0;; ++run) {
    if (run == kMaxTraceRuns || s >= kSlots) return nullptr;
    const DecodedInsn& head = slots[s];
    if (head.state != DecodedInsn::State::kDecoded) return nullptr;
    // The block engine's run from here: members s .. last-1 are decoded
    // non-terminators by construction of run_len; `last` may be anything.
    const u32 last = s + head.run_len - 1;
    const DecodedInsn& fin = slots[last];
    if (fin.state != DecodedInsn::State::kDecoded) return nullptr;
    lo = s < lo ? s : lo;
    hi = last > hi ? last : hi;
    cost_max += head.run_cost_max;
    const Opcode op = fin.insn.opcode;
    const bool term = IsBlockTerminator(op);
    // Straight-line members; the final slot too when the run was capped.
    const u32 body_end = term ? last : last + 1;
    for (u32 j = s; j < body_end;) {
      Uop u = LowerStraight(slots, j, body_end, &num_pins);
      u.slot = static_cast<u16>(j);
      u.insn_before = static_cast<u16>(insn_before);
      u.cost_before = cost_before;
      t->uops.push_back(u);
      insn_before += u.span;
      cost_before += u.cost;
      j += u.span;
    }

    u32 next;  // where the trace's own edge leads
    if (!term) {
      // Capped run: sequential flow into the next run.
      cost_max += fin.cost + (TouchesMemSeq(op) ? costs.mem_extra_bound : 0);
      next = last + 1;
    } else if (op == Opcode::kJmp) {
      cost_max += fin.cost;
      insn_before += 1;
      cost_before += fin.cost;
      next = slot_of(static_cast<u32>(fin.insn.imm));
      if (next == kSlots) return nullptr;
    } else if (IsJcc(op)) {
      cost_max += fin.cost > costs.taken_branch ? fin.cost : costs.taken_branch;
      const u8 cond = static_cast<u8>(static_cast<int>(op) - static_cast<int>(Opcode::kJe));
      // The trace follows the taken edge only when it closes the loop;
      // otherwise the fall-through continues and the taken edge exits.
      const bool loop_on_taken = slot_of(static_cast<u32>(fin.insn.imm)) == entry_slot;
      const u32 cont_cost = loop_on_taken ? costs.taken_branch : fin.cost;
      const u32 exit_cost = loop_on_taken ? fin.cost : costs.taken_branch;
      const u8 exit_cond = loop_on_taken ? static_cast<u8>(cond ^ 1) : cond;
      const i32 exit_eip = loop_on_taken ? static_cast<i32>(slot_eip(last + 1)) : fin.insn.imm;
      Uop* prev = t->uops.empty() ? nullptr : &t->uops.back();
      if (prev != nullptr && prev->kind == UopKind::kCmp &&
          prev->insn_before + 1u == insn_before) {
        // The compare retired immediately before the branch: fuse them. The
        // merged uop keeps the compare's operands and prefix sums.
        prev->kind = UopKind::kCmpJcc;
        prev->imm2 = prev->imm;  // the compare's immediate; `imm` becomes the exit
        prev->imm = exit_eip;
        prev->r3 = exit_cond;
        prev->cost2 = prev->cost + exit_cost;
        prev->cost += cont_cost;
        prev->span = 2;
      } else {
        Uop g;
        g.kind = UopKind::kJcc;
        g.r1 = exit_cond;
        g.imm = exit_eip;
        g.slot = static_cast<u16>(last);
        g.insn_before = static_cast<u16>(insn_before);
        g.cost_before = cost_before;
        g.cost = cont_cost;
        g.cost2 = exit_cost;
        t->uops.push_back(g);
      }
      insn_before += 1;
      cost_before += cont_cost;
      next = loop_on_taken ? entry_slot : last + 1;
    } else {
      return nullptr;  // call, return, indirect or far transfer, hlt
    }
    if (next == entry_slot) break;  // the closing edge
    s = next;
  }
  if (t->uops.empty()) return nullptr;  // a loop of bare jumps

  // Every covered slot must stay fetchable at one fixed CS limit; a path
  // whose EIPs would wrap is not worth the special case.
  const i64 lo_eip = static_cast<i64>(entry_eip) - static_cast<i64>(entry_slot - lo) * kInsnSize;
  const i64 limit_needed =
      static_cast<i64>(entry_eip) + static_cast<i64>(hi - entry_slot + 1) * kInsnSize;
  if (lo_eip < 0 || limit_needed > static_cast<i64>(0xFFFFFFFFu)) return nullptr;
  t->min_limit = static_cast<u32>(limit_needed);
  t->iter_insns = insn_before;
  t->iter_cost = cost_before;
  t->cost_max = cost_max;
  t->pins.resize(num_pins);

  // Backward flags liveness. At the closing edge flags are observable (the
  // next iteration may fault or exit before writing them); a guard reads
  // them, and its exit materializes them; a fault-capable uop makes the
  // flags before it observable (the fault handler sees EFLAGS); INC/DEC
  // propagate observability to the preceding producer only when they
  // themselves record, because they capture its CF at record time. A
  // producer whose result is dead records nothing — static dead-flag
  // elimination.
  bool observable = true;
  for (size_t i = t->uops.size(); i-- > 0;) {
    Uop& u = t->uops[i];
    if (u.kind == UopKind::kCmpJcc) {
      // Always records (every exit materializes the compare's flags) and
      // fully overwrites the lazy cache, so earlier flag writes are dead.
      u.record = true;
      observable = false;
    } else if (u.kind == UopKind::kJcc) {
      observable = true;
    } else if (WritesFlags(u.kind)) {
      u.record = observable;
      observable =
          (u.kind == UopKind::kInc || u.kind == UopKind::kDec) && u.record;
    } else if (IsFaultCapable(u.kind)) {
      observable = true;
    }
  }

  return t;
}

}  // namespace palladium
