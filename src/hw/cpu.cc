#include "src/hw/cpu.h"

#include <cstring>

#include "src/hw/irq.h"
#include "src/hw/paging.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace palladium {

namespace {

Fault Gp(const char* detail, u32 err = 0) {
  Fault f;
  f.vector = FaultVector::kGeneralProtection;
  f.error_code = err;
  f.detail = detail;
  return f;
}

Fault Ss(const char* detail, u32 err = 0) {
  Fault f;
  f.vector = FaultVector::kStackFault;
  f.error_code = err;
  f.detail = detail;
  return f;
}

Fault Np(const char* detail, u32 err = 0) {
  Fault f;
  f.vector = FaultVector::kSegmentNotPresent;
  f.error_code = err;
  f.detail = detail;
  return f;
}

Fault Ud(const char* detail) {
  Fault f;
  f.vector = FaultVector::kInvalidOpcode;
  f.detail = detail;
  return f;
}

// The PTE flags a live TLB entry must carry for the data fast path to serve
// an access as is: at CPL 3 the U bit, plus W for a write; for a write at any
// CPL a known-set D bit, so the hit owes the page table nothing. An access
// without them takes DtlbTranslate, whose Translate raises the exact fault
// or performs the dirty-bit update.
constexpr u32 FastPathFlags(bool is_write, bool user) {
  return (user ? kPteUser : 0) | (is_write ? kPteDirty | (user ? kPteWrite : 0) : 0);
}

}  // namespace

// The opcode X-macro drives both dispatch paths; its order must mirror the
// enum so a dispatch index IS the opcode value.
namespace {
constexpr Opcode kOpcodeOrder[] = {
#define PALLADIUM_X(name) Opcode::name,
    PALLADIUM_FOR_EACH_OPCODE(PALLADIUM_X)
#undef PALLADIUM_X
};
constexpr bool OpcodeOrderMatches() {
  if (sizeof(kOpcodeOrder) / sizeof(kOpcodeOrder[0]) != kNumOpcodes) return false;
  for (u16 i = 0; i < kNumOpcodes; ++i) {
    if (kOpcodeOrder[i] != static_cast<Opcode>(i)) return false;
  }
  return true;
}
static_assert(OpcodeOrderMatches(),
              "PALLADIUM_FOR_EACH_OPCODE must list every opcode in enum order");
}  // namespace

Cpu::Cpu(PhysicalMemory& pm, DescriptorTable& gdt, DescriptorTable& idt, CycleModel model)
    : pm_(pm), gdt_(gdt), idt_(idt), model_(model), dcache_(pm) {
  // The decode cache must see every byte of physical memory change, whether
  // it comes from a simulated store (on any vCPU), host-side kernel code, or
  // device DMA. Each vCPU registers its own cache; writes fan out to all.
  pm_.AddWriteObserver(&dcache_);
  dcache_.set_cost_table(&cost_);
  RebuildCostTable();
}

void Cpu::RebuildCostTable() {
  cost_ = model_.BuildCostTable();
  // Decoded slots are annotated with per-slot costs from the previous table;
  // they must be rebuilt against the new one.
  dcache_.InvalidateAll();
}

Cpu::~Cpu() { pm_.RemoveWriteObserver(&dcache_); }

bool Cpu::LoadSegmentChecked(SegReg sr, Selector sel, Fault* fault) {
  LoadedSegment& target = segs_[static_cast<u8>(sr)];
  if (sel.IsNull()) {
    if (sr == SegReg::kSs || sr == SegReg::kCs) {
      *fault = Gp("null selector load into CS/SS");
      return false;
    }
    target.selector = sel;
    target.valid = false;  // later accesses through it fault
    return true;
  }
  const SegmentDescriptor* d = gdt_.Get(sel.index());
  if (d == nullptr || d->type == DescriptorType::kNull) {
    *fault = Gp("selector index out of descriptor table", sel.raw());
    return false;
  }
  if (!d->present) {
    *fault = Np("segment not present", sel.raw());
    return false;
  }
  if (sr == SegReg::kCs) {
    // Direct CS loads are not an instruction; only far transfers load CS.
    *fault = Gp("CS cannot be loaded with mov/pop");
    return false;
  }
  if (sr == SegReg::kSs) {
    if (!d->IsData() || !d->writable) {
      *fault = Gp("SS must be a writable data segment", sel.raw());
      return false;
    }
    if (sel.rpl() != cpl_ || d->dpl != cpl_) {
      *fault = Gp("SS privilege mismatch", sel.raw());
      return false;
    }
  } else {
    // DS/ES: data or readable code, DPL >= max(CPL, RPL). This is the check
    // that stops an SPL 3 extension from loading the SPL 2 application
    // segment or an SPL 1 kernel extension from loading kernel segments.
    if (!(d->IsData() || (d->IsCode() && d->readable))) {
      *fault = Gp("not a data-readable segment", sel.raw());
      return false;
    }
    u8 eff = cpl_ > sel.rpl() ? cpl_ : sel.rpl();
    if (!d->conforming && d->dpl < eff) {
      *fault = Gp("data segment DPL below max(CPL,RPL)", sel.raw());
      return false;
    }
  }
  target.selector = sel;
  target.cache = *d;
  target.valid = true;
  return true;
}

bool Cpu::ForceSegment(SegReg sr, Selector sel) {
  LoadedSegment& target = segs_[static_cast<u8>(sr)];
  if (sel.IsNull()) {
    target.selector = sel;
    target.valid = false;
    return true;
  }
  const SegmentDescriptor* d = gdt_.Get(sel.index());
  if (d == nullptr || !d->present) return false;
  target.selector = sel;
  target.cache = *d;
  target.valid = true;
  if (sr == SegReg::kCs) cpl_ = sel.rpl();
  return true;
}

CpuContext Cpu::SaveContext() const {
  CpuContext ctx;
  ctx.regs = regs_;
  ctx.eip = eip_;
  ctx.eflags = eflags_;
  ctx.cpl = cpl_;
  ctx.segs = segs_;
  return ctx;
}

void Cpu::RestoreContext(const CpuContext& ctx) {
  regs_ = ctx.regs;
  eip_ = ctx.eip;
  eflags_ = ctx.eflags;
  cpl_ = ctx.cpl;
  segs_ = ctx.segs;
}

bool Cpu::Translate(u32 linear, bool is_write, u32* phys, Fault* fault, u32* flags_out,
                    bool is_fetch) {
  const bool is_user = cpl_ == 3;
  u32 frame = 0, flags = 0;
  if (Tlb::Entry* e = tlb_.Lookup(linear)) {
    frame = e->frame;
    flags = e->flags;
    // Permission check from the cached entry, as the hardware does.
    if (is_user && !(flags & kPteUser)) {
      Fault f;
      f.vector = FaultVector::kPageFault;
      f.error_code = kPfErrPresent | (is_write ? kPfErrWrite : 0) | kPfErrUser |
                     (is_fetch ? kPfErrFetch : 0);
      f.linear_address = linear;
      f.detail = "SPL 3 access to PPL 0 (supervisor) page";
      *fault = f;
      return false;
    }
    if (is_user && is_write && !(flags & kPteWrite)) {
      Fault f;
      f.vector = FaultVector::kPageFault;
      f.error_code = kPfErrPresent | kPfErrWrite | kPfErrUser;
      f.linear_address = linear;
      f.detail = "write to read-only page";
      *fault = f;
      return false;
    }
    // Dirty-bit update on a TLB-hit write, as the MMU performs it: the first
    // write through a translation cached by a read sets the PTE's D bit. The
    // entry remembers known-set A/D bits so the PTE touch happens once; the
    // data fast path never writes through an entry without D, so it reaches
    // this update too, and page-table images are byte-equal with it on or off.
    if (is_write && !(flags & kPteDirty)) {
      SetAccessedDirty(pm_, cr3_, linear, /*dirty=*/true);
      e->flags |= kPteDirty;
      flags |= kPteDirty;
    }
  } else {
    WalkResult wr = WalkPageTable(pm_, cr3_, linear, is_write, is_user, is_fetch);
    cycles_ += model_.tlb_miss_penalty;
    if (!wr.ok) {
      *fault = wr.fault;
      return false;
    }
    SetAccessedDirty(pm_, cr3_, linear, is_write);
    // Record what the walk just made true of the PTE.
    wr.flags |= kPteAccessed | (is_write ? kPteDirty : 0);
    tlb_.Insert(linear, wr.frame, wr.flags, pm_.FrameHostPtr(wr.frame));
    frame = wr.frame;
    flags = wr.flags;
  }
  *phys = frame | (linear & kPageMask);
  if (flags_out != nullptr) *flags_out = flags;
  return true;
}

int Cpu::DtlbTranslate(u32 linear, u32 size, bool is_write, u8** host, u32* phys, Fault* fault) {
  // Counted as the lookup it stands for: a hit when a live entry with a host
  // pointer was there (it only needed a dirty-bit update), a miss when not;
  // a permission fault on a live entry counts as neither.
  const bool cached = tlb_.Probe(linear, tlb_.generation()) != nullptr;
  if (!cached) ++dtlb_stats_.misses;
  // Byte 0's architectural translation: faults, tlb_miss_penalty charges,
  // A/D updates and TLB stats land exactly as the per-byte path's first
  // byte would produce them.
  if (!Translate(linear, is_write, phys, fault)) return -1;
  const Tlb::Entry* e = tlb_.Probe(linear, tlb_.generation());
  // Frame straddles the end of memory: the caller finishes on the byte loop
  // from byte 0's translation in *phys (a repeat would record one extra TLB
  // hit versus the per-byte oracle).
  if (e == nullptr) return 0;
  // Bytes 1..size-1 of the per-byte path would each hit the entry.
  tlb_.RecordFastPathHits(size - 1);
  if (cached) ++dtlb_stats_.hits;
  *host = e->host + (linear & kPageMask);
  return 1;
}

bool Cpu::HostCopy(u32 linear, void* buf, u32 len, bool to_guest) {
  if (!dtlb_enabled_ || len == 0 || (linear & kPageMask) + len > kPageSize) return false;
  const Tlb::Entry* e = tlb_.Probe(linear, tlb_.generation());
  if (e == nullptr) return false;
  const u32 off = linear & kPageMask;
  if (to_guest) {
    std::memcpy(e->host + off, buf, len);
    pm_.NotifyWrite(e->frame + off, len);
  } else {
    std::memcpy(buf, e->host + off, len);
  }
  return true;
}

bool Cpu::CheckSegmentAccess(const LoadedSegment& seg, u32 offset, u32 size, bool is_write,
                             bool is_stack, Fault* fault) {
  if (!seg.valid) {
    *fault = is_stack ? Ss("access through invalid SS") : Gp("access through null segment");
    return false;
  }
  const SegmentDescriptor& d = seg.cache;
  // Limit check: `limit` is the segment size in bytes.
  if (offset > d.limit || size > d.limit - offset) {
    *fault = is_stack ? Ss("stack segment limit violation") : Gp("segment limit violation");
    return false;
  }
  if (is_write) {
    if (d.IsCode()) {
      *fault = Gp("write into code segment");
      return false;
    }
    if (!d.writable) {
      *fault = Gp("write into read-only segment");
      return false;
    }
  } else if (d.IsCode() && !d.readable) {
    *fault = Gp("read from execute-only code segment");
    return false;
  }
  return true;
}

bool Cpu::MemRead(const LoadedSegment& seg, u32 offset, u32 size, bool is_stack, u32* out,
                  Fault* fault) {
  if (!CheckSegmentAccess(seg, offset, size, /*is_write=*/false, is_stack, fault)) return false;
  u32 linear = seg.cache.base + offset;  // wraps mod 2^32 like the hardware
  // Fast path: an access wholly inside one page reads straight off the TLB
  // entry's host pointer. Page-straddling accesses keep the per-byte loop
  // (its partial-access and mid-access-fault semantics are the contract).
  if (dtlb_enabled_ && size != 0 && (linear & kPageMask) + size <= kPageSize) {
    // Common hit inlined here; permission faults and misses take the
    // out-of-line path, which translates and handles every case.
    if (const Tlb::Entry* e =
            tlb_.Probe(linear, tlb_.generation(), FastPathFlags(/*is_write=*/false, cpl_ == 3))) {
      tlb_.RecordFastPathHits(size);
      ++dtlb_stats_.hits;
      const u8* host = e->host + (linear & kPageMask);
      // Fixed-width copies (little-endian host, like Read32); a runtime-size
      // memcpy would cost a libc call per load.
      u32 value;
      switch (size) {
        case 1:
          value = *host;
          break;
        case 2: {
          u16 v16;
          std::memcpy(&v16, host, 2);
          value = v16;
          break;
        }
        case 4:
          std::memcpy(&value, host, 4);
          break;
        default:
          value = 0;
          std::memcpy(&value, host, size);
          break;
      }
      *out = value;
      return true;
    }
    u8* host = nullptr;
    u32 phys = 0;
    int r = DtlbTranslate(linear, size, /*is_write=*/false, &host, &phys, fault);
    if (r < 0) return false;
    if (r > 0) {
      u32 value = 0;
      std::memcpy(&value, host, size);
      *out = value;
      return true;
    }
    // r == 0: frame not host-mappable. Byte 0 was already translated by
    // DtlbTranslate; consume it here so the TLB statistics stay equal to the
    // per-byte oracle, then finish on the byte loop.
    u8 b = 0;
    if (!pm_.Read8(phys, &b)) {
      *fault = Gp("physical address out of range (bus error)");
      return false;
    }
    u32 value = b;
    if (!ReadBytesSlow(linear, 1, size, &value, fault)) return false;
    *out = value;
    return true;
  }
  u32 value = 0;
  if (!ReadBytesSlow(linear, 0, size, &value, fault)) return false;
  *out = value;
  return true;
}

bool Cpu::ReadBytesSlow(u32 linear, u32 start, u32 size, u32* value, Fault* fault) {
  for (u32 i = start; i < size; ++i) {
    // Per-byte composition handles page-crossing accesses; same-page bytes
    // hit the TLB so the cost stays realistic.
    u32 phys = 0;
    if (!Translate(linear + i, /*is_write=*/false, &phys, fault)) return false;
    u8 b = 0;
    if (!pm_.Read8(phys, &b)) {
      *fault = Gp("physical address out of range (bus error)");
      return false;
    }
    *value |= static_cast<u32>(b) << (8 * i);
  }
  return true;
}

bool Cpu::MemWrite(const LoadedSegment& seg, u32 offset, u32 size, bool is_stack, u32 value,
                   Fault* fault) {
  if (!CheckSegmentAccess(seg, offset, size, /*is_write=*/true, is_stack, fault)) return false;
  u32 linear = seg.cache.base + offset;
  if (dtlb_enabled_ && size != 0 && (linear & kPageMask) + size <= kPageSize) {
    // Inline hit path: needs write permission at the live CPL and a PTE
    // whose D bit is known set; everything else (fault, dirty update, miss)
    // goes out of line.
    if (const Tlb::Entry* e =
            tlb_.Probe(linear, tlb_.generation(), FastPathFlags(/*is_write=*/true, cpl_ == 3))) {
      tlb_.RecordFastPathHits(size);
      ++dtlb_stats_.hits;
      const u32 off = linear & kPageMask;
      u8* host = e->host + off;
      switch (size) {
        case 1:
          *host = static_cast<u8>(value);
          break;
        case 2: {
          const u16 v16 = static_cast<u16>(value);
          std::memcpy(host, &v16, 2);
          break;
        }
        case 4:
          std::memcpy(host, &value, 4);
          break;
        default:
          std::memcpy(host, &value, size);
          break;
      }
      // The write observer must see fast-path stores too, or a store into
      // a decoded code page would execute stale instructions. On a
      // uniprocessor the sole observer is this CPU's own decode cache;
      // calling it directly keeps the probe inlinable. With multiple vCPUs
      // (or an extra test observer) the store must fan out to every core's
      // decode cache through the notify loop.
      const u32 phys = e->frame + off;
      if (pm_.sole_write_observer() == &dcache_) {
        dcache_.OnPhysicalWrite(phys, size);
      } else {
        pm_.NotifyWrite(phys, size);
      }
      return true;
    }
    u8* host = nullptr;
    u32 phys = 0;
    int r = DtlbTranslate(linear, size, /*is_write=*/true, &host, &phys, fault);
    if (r < 0) return false;
    if (r > 0) {
      std::memcpy(host, &value, size);
      pm_.NotifyWrite(phys, size);
      return true;
    }
    // r == 0: the byte loop consumes byte 0's translation (see MemRead).
    return WriteBytesSlow(linear, size, value, fault, &phys);
  }
  return WriteBytesSlow(linear, size, value, fault);
}

// Out of line: the flattened dispatch loops (RunBlock, StepOne) would
// otherwise carry a copy in every store handler, for the page-straddling
// and per-byte-oracle case only.
__attribute__((noinline)) bool Cpu::WriteBytesSlow(u32 linear, u32 size, u32 value,
                                                   Fault* fault, const u32* phys0) {
  // Bytes land one translation at a time, but the write observers hear of
  // each physically contiguous run once, after its last byte: a decode cache
  // judges the store by the bytes it leaves, never by a half-written slot,
  // so this loop and the fast path's single copy reach the same decision.
  u32 run_begin = 0, run_len = 0;
  bool ok = true;
  for (u32 i = 0; i < size; ++i) {
    u32 phys = 0;
    if (i == 0 && phys0 != nullptr) {
      phys = *phys0;
    } else if (!Translate(linear + i, /*is_write=*/true, &phys, fault)) {
      ok = false;
      break;
    }
    if (!pm_.Write8Deferred(phys, static_cast<u8>(value >> (8 * i)))) {
      *fault = Gp("physical address out of range (bus error)");
      ok = false;
      break;
    }
    if (run_len != 0 && phys == run_begin + run_len) {
      ++run_len;
      continue;
    }
    if (run_len != 0) pm_.NotifyWrite(run_begin, run_len);
    run_begin = phys;
    run_len = 1;
  }
  if (run_len != 0) pm_.NotifyWrite(run_begin, run_len);
  return ok;
}

bool Cpu::ReadVirt(SegReg sr, u32 offset, u32 size, u32* out, Fault* fault) {
  return MemRead(segs_[static_cast<u8>(sr)], offset, size, sr == SegReg::kSs, out, fault);
}

bool Cpu::WriteVirt(SegReg sr, u32 offset, u32 size, u32 value, Fault* fault) {
  return MemWrite(segs_[static_cast<u8>(sr)], offset, size, sr == SegReg::kSs, value, fault);
}

bool Cpu::Push32(u32 v, Fault* fault) {
  u32 esp = reg(Reg::kEsp) - 4;
  if (!WriteVirt(SegReg::kSs, esp, 4, v, fault)) return false;
  set_reg(Reg::kEsp, esp);
  return true;
}

bool Cpu::Pop32(u32* v, Fault* fault) {
  u32 esp = reg(Reg::kEsp);
  if (!ReadVirt(SegReg::kSs, esp, 4, v, fault)) return false;
  set_reg(Reg::kEsp, esp + 4);
  return true;
}

// An instruction fetch that reaches past the end of physical memory is a
// translation-layer failure, not a protection violation: report it as a page
// fault carrying the exact faulting linear address (the CR2 analogue), with
// the present bit set so the kernel's demand-paging path does not try to map
// it. The data path keeps its bus-error #GP. Like every fetch-induced page
// fault (Translate is called with is_fetch), the error code carries the
// I/D bit so handlers can tell instruction fetches from data accesses.
Fault Cpu::FetchBusFault(u32 linear) const {
  Fault f;
  f.vector = FaultVector::kPageFault;
  f.error_code = kPfErrPresent | (cpl_ == 3 ? kPfErrUser : 0) | kPfErrFetch;
  f.linear_address = linear;
  f.detail = "instruction fetch beyond physical memory";
  return f;
}

bool Cpu::FetchFromSlot(u32 linear, const DecodedInsn** insn, Fault* fault) {
  const DecodedInsn& slot = fetch_page_->slots[(linear & kPageMask) / kInsnSize];
  switch (slot.state) {
    case DecodedInsn::State::kDecoded:
      *insn = &slot;
      return true;
    case DecodedInsn::State::kUndecodable:
      *fault = Ud("undecodable instruction");
      return false;
    case DecodedInsn::State::kBusError:
      *fault = FetchBusFault(linear + slot.fault_offset);
      return false;
  }
  *fault = Ud("undecodable instruction");
  return false;
}

bool Cpu::PinFetchPage(u32 linear, Fault* fault) {
  const u32 vpn = PageNumber(linear);
  if (fetch_page_ != nullptr && vpn == fetch_vpn_ && fetch_tlb_change_ == tlb_.change_count() &&
      fetch_dcache_gen_ == dcache_.generation() && !(cpl_ == 3 && !(fetch_flags_ & kPteUser))) {
    return true;
  }
  // Refill: one translation pins the whole page. A fault here carries the
  // instruction's linear address, which is also the first byte's.
  u32 phys = 0, flags = 0;
  if (!Translate(linear, /*is_write=*/false, &phys, fault, &flags, /*is_fetch=*/true)) {
    return false;
  }
  fetch_page_ = dcache_.GetOrBuild(phys & ~kPageMask);
  fetch_vpn_ = vpn;
  fetch_flags_ = flags;
  fetch_tlb_change_ = tlb_.change_count();
  fetch_dcache_gen_ = dcache_.generation();
  return true;
}

bool Cpu::FetchInsn(const DecodedInsn** insn, Fault* fault) {
  const LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  if (!CheckSegmentAccess(cs, eip_, kInsnSize, /*is_write=*/false, /*is_stack=*/false, fault)) {
    return false;
  }
  const u32 linear = cs.cache.base + eip_;

  // Fast path: slot-aligned fetches (kInsnSize divides kPageSize, so they
  // never cross a page) execute straight out of the decoded page image.
  if (engine_ != Engine::kOracle && (linear & (kInsnSize - 1)) == 0) {
    return PinFetchPage(linear, fault) && FetchFromSlot(linear, insn, fault);
  }

  // Slow path: unaligned fetch (non-16-byte-aligned CS base), possibly
  // crossing a page. Byte-at-a-time so a mid-instruction translation fault
  // reports the exact faulting address.
  u8 raw[kInsnSize];
  for (u32 i = 0; i < kInsnSize; ++i) {
    u32 phys = 0;
    if (!Translate(linear + i, /*is_write=*/false, &phys, fault, nullptr, /*is_fetch=*/true)) {
      return false;
    }
    if (!pm_.Read8(phys, &raw[i])) {
      *fault = FetchBusFault(linear + i);
      return false;
    }
  }
  auto decoded = Insn::Decode(raw);
  if (!decoded) {
    *fault = Ud("undecodable instruction");
    return false;
  }
  fetch_scratch_.state = DecodedInsn::State::kDecoded;
  fetch_scratch_.insn = *decoded;
  FillExecInfo(fetch_scratch_, cost_);
  *insn = &fetch_scratch_;
  return true;
}

bool Cpu::DoLcall(const Insn& insn, Fault* fault, u32* extra_cycles) {
  Selector sel(static_cast<u16>(insn.imm));
  const SegmentDescriptor* gate = gdt_.Get(sel.index());
  if (gate == nullptr || gate->type != DescriptorType::kCallGate) {
    *fault = Gp("lcall target is not a call gate", sel.raw());
    return false;
  }
  if (!gate->present) {
    *fault = Np("call gate not present", sel.raw());
    return false;
  }
  u8 eff = cpl_ > sel.rpl() ? cpl_ : sel.rpl();
  if (gate->dpl < eff) {
    *fault = Gp("call gate DPL below max(CPL,RPL)", sel.raw());
    return false;
  }
  Selector tsel(gate->gate_selector);
  const SegmentDescriptor* target = gdt_.Get(tsel.index());
  if (target == nullptr || !target->IsCode() || !target->present) {
    *fault = Gp("call gate target is not present code", tsel.raw());
    return false;
  }
  if (target->dpl > cpl_) {
    *fault = Gp("call gate target less privileged than caller", tsel.raw());
    return false;
  }

  const u32 old_eip = eip_;
  const Selector old_cs = segs_[static_cast<u8>(SegReg::kCs)].selector;

  if (target->dpl < cpl_ && !target->conforming) {
    // Inter-privilege call: switch to the inner stack from the TSS, then
    // push the outer SS:ESP and CS:EIP onto it.
    const u8 new_cpl = target->dpl;
    const Selector old_ss = segs_[static_cast<u8>(SegReg::kSs)].selector;
    const u32 old_esp = reg(Reg::kEsp);

    Selector new_ss(tss_.ss[new_cpl]);
    const SegmentDescriptor* ssd = gdt_.Get(new_ss.index());
    if (ssd == nullptr || !ssd->IsData() || !ssd->writable || !ssd->present ||
        ssd->dpl != new_cpl) {
      Fault f;
      f.vector = FaultVector::kInvalidTss;
      f.error_code = new_ss.raw();
      f.detail = "bad inner stack segment in TSS";
      *fault = f;
      return false;
    }
    // Commit the privilege switch before pushing (pushes run at new CPL on
    // the new stack).
    cpl_ = new_cpl;
    LoadedSegment& ss = segs_[static_cast<u8>(SegReg::kSs)];
    ss.selector = new_ss;
    ss.cache = *ssd;
    ss.valid = true;
    set_reg(Reg::kEsp, tss_.esp[new_cpl]);

    if (!Push32(old_ss.raw(), fault) || !Push32(old_esp, fault)) return false;
    // Parameter copy (gate_param_count dwords from the outer stack).
    for (u8 i = 0; i < gate->gate_param_count; ++i) {
      u32 off = old_esp + (gate->gate_param_count - 1 - i) * 4u;
      // Read with the *old* SS descriptor via a temporary loaded segment.
      LoadedSegment old_stack;
      old_stack.selector = old_ss;
      const SegmentDescriptor* od = gdt_.Get(old_ss.index());
      if (od == nullptr) {
        *fault = Gp("outer stack segment vanished");
        return false;
      }
      old_stack.cache = *od;
      old_stack.valid = true;
      u32 word = 0;
      if (!MemRead(old_stack, off, 4, /*is_stack=*/true, &word, fault)) return false;
      if (!Push32(word, fault)) return false;
    }
    if (!Push32(old_cs.raw(), fault) || !Push32(old_eip, fault)) return false;
    // Privilege-change premium plus the hardware's per-parameter word copy
    // (~4 cycles each per the Pentium manual).
    *extra_cycles = model_.lcall_inter - model_.lcall_same + 4u * gate->gate_param_count;
  } else {
    if (!Push32(old_cs.raw(), fault) || !Push32(old_eip, fault)) return false;
  }

  LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  cs.selector = Selector::FromIndex(tsel.index(), cpl_);
  cs.cache = *target;
  cs.valid = true;
  eip_ = gate->gate_offset;
  return true;
}

bool Cpu::DoLret(u32 release_bytes, Fault* fault, u32* extra_cycles) {
  u32 new_eip = 0, cs_raw = 0;
  if (!Pop32(&new_eip, fault) || !Pop32(&cs_raw, fault)) return false;
  set_reg(Reg::kEsp, reg(Reg::kEsp) + release_bytes);  // release inner-stack params
  Selector sel(static_cast<u16>(cs_raw));
  if (sel.IsNull()) {
    *fault = Gp("lret to null CS");
    return false;
  }
  if (sel.rpl() < cpl_) {
    *fault = Gp("lret to inner (more privileged) level", sel.raw());
    return false;
  }
  const SegmentDescriptor* d = gdt_.Get(sel.index());
  if (d == nullptr || !d->IsCode() || !d->present) {
    *fault = Gp("lret target is not present code", sel.raw());
    return false;
  }
  if (!d->conforming && d->dpl != sel.rpl()) {
    *fault = Gp("lret target DPL/RPL mismatch", sel.raw());
    return false;
  }
  if (sel.rpl() > cpl_) {
    // Return to outer level: pop the outer SS:ESP (still from the inner
    // stack), then switch.
    u32 new_esp = 0, ss_raw = 0;
    if (!Pop32(&new_esp, fault) || !Pop32(&ss_raw, fault)) return false;
    Selector ss_sel(static_cast<u16>(ss_raw));
    const SegmentDescriptor* ssd = gdt_.Get(ss_sel.index());
    if (ssd == nullptr || !ssd->IsData() || !ssd->writable || !ssd->present ||
        ssd->dpl != sel.rpl()) {
      *fault = Gp("lret outer SS invalid", ss_sel.raw());
      return false;
    }
    cpl_ = sel.rpl();
    LoadedSegment& ss = segs_[static_cast<u8>(SegReg::kSs)];
    ss.selector = ss_sel;
    ss.cache = *ssd;
    ss.valid = true;
    set_reg(Reg::kEsp, new_esp + release_bytes);  // release outer-stack params too
    *extra_cycles = model_.lret_inter - model_.lret_same;
  }
  LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  cs.selector = sel;
  cs.cache = *d;
  cs.valid = true;
  eip_ = new_eip;
  return true;
}

bool Cpu::DoInt(u8 vector, bool software, Fault* fault) {
  const SegmentDescriptor* gate = idt_.Get(vector);
  if (gate == nullptr || gate->type != DescriptorType::kInterruptGate || !gate->present) {
    *fault = Gp("missing interrupt gate", static_cast<u32>(vector) << 3);
    return false;
  }
  // Software INT n must satisfy CPL <= gate DPL; this is what keeps user
  // code from invoking kernel-internal vectors directly.
  if (software && gate->dpl < cpl_) {
    *fault = Gp("software interrupt to protected vector", static_cast<u32>(vector) << 3);
    return false;
  }
  Selector tsel(gate->gate_selector);
  const SegmentDescriptor* target = gdt_.Get(tsel.index());
  if (target == nullptr || !target->IsCode() || !target->present) {
    *fault = Gp("interrupt gate target invalid", tsel.raw());
    return false;
  }
  const u32 old_eip = eip_;
  const u32 old_eflags = eflags_;
  const Selector old_cs = segs_[static_cast<u8>(SegReg::kCs)].selector;

  if (target->dpl < cpl_) {
    const u8 new_cpl = target->dpl;
    const Selector old_ss = segs_[static_cast<u8>(SegReg::kSs)].selector;
    const u32 old_esp = reg(Reg::kEsp);
    Selector new_ss(tss_.ss[new_cpl]);
    const SegmentDescriptor* ssd = gdt_.Get(new_ss.index());
    if (ssd == nullptr || !ssd->IsData() || !ssd->writable || !ssd->present ||
        ssd->dpl != new_cpl) {
      Fault f;
      f.vector = FaultVector::kInvalidTss;
      f.error_code = new_ss.raw();
      f.detail = "bad inner stack segment in TSS (interrupt)";
      *fault = f;
      return false;
    }
    cpl_ = new_cpl;
    LoadedSegment& ss = segs_[static_cast<u8>(SegReg::kSs)];
    ss.selector = new_ss;
    ss.cache = *ssd;
    ss.valid = true;
    set_reg(Reg::kEsp, tss_.esp[new_cpl]);
    if (!Push32(old_ss.raw(), fault) || !Push32(old_esp, fault)) return false;
  }
  if (!Push32(old_eflags, fault) || !Push32(old_cs.raw(), fault) || !Push32(old_eip, fault)) {
    return false;
  }
  LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  cs.selector = Selector::FromIndex(tsel.index(), cpl_);
  cs.cache = *target;
  cs.valid = true;
  eip_ = gate->gate_offset;
  // Interrupt-gate semantics: further hardware interrupts are blocked until
  // IRET (or an explicit host-side restore) brings the pushed flags back.
  eflags_ &= ~kFlagIf;
  return true;
}

bool Cpu::DoIret(Fault* fault) {
  u32 new_eip = 0, cs_raw = 0, new_eflags = 0;
  if (!Pop32(&new_eip, fault) || !Pop32(&cs_raw, fault) || !Pop32(&new_eflags, fault)) {
    return false;
  }
  Selector sel(static_cast<u16>(cs_raw));
  if (sel.rpl() < cpl_) {
    *fault = Gp("iret to inner level", sel.raw());
    return false;
  }
  const SegmentDescriptor* d = gdt_.Get(sel.index());
  if (d == nullptr || !d->IsCode() || !d->present) {
    *fault = Gp("iret target is not present code", sel.raw());
    return false;
  }
  if (sel.rpl() > cpl_) {
    u32 new_esp = 0, ss_raw = 0;
    if (!Pop32(&new_esp, fault) || !Pop32(&ss_raw, fault)) return false;
    Selector ss_sel(static_cast<u16>(ss_raw));
    const SegmentDescriptor* ssd = gdt_.Get(ss_sel.index());
    if (ssd == nullptr || !ssd->IsData() || !ssd->writable || !ssd->present ||
        ssd->dpl != sel.rpl()) {
      *fault = Gp("iret outer SS invalid", ss_sel.raw());
      return false;
    }
    cpl_ = sel.rpl();
    LoadedSegment& ss = segs_[static_cast<u8>(SegReg::kSs)];
    ss.selector = ss_sel;
    ss.cache = *ssd;
    ss.valid = true;
    set_reg(Reg::kEsp, new_esp);
  }
  LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  cs.selector = sel;
  cs.cache = *d;
  cs.valid = true;
  eip_ = new_eip;
  eflags_ = new_eflags;
  return true;
}

StopInfo Cpu::Run(u64 cycle_limit) {
  StopInfo stop;
  for (;;) {
    if (cycles_ >= cycle_limit) {
      stop.reason = StopReason::kCycleLimit;
      return stop;
    }
    // Host-entry detection happens on the *next* fetch address so that gate
    // semantics (stack switch, frame pushes) are architecturally complete
    // before the host kernel takes over.
    const LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
    if (cs.valid && host_size_ != 0) {
      u32 linear = cs.cache.base + eip_;
      if (linear >= host_base_ && linear - host_base_ < host_size_) {
        stop.reason = StopReason::kHostCall;
        stop.host_call_id = (linear - host_base_) / kInsnSize;
        return stop;
      }
    }
    // Hardware-interrupt check, strictly at retire boundaries and keyed off
    // the cycle counter (identical fast-path or oracle), after the host-entry
    // check so a pending gate into the kernel is taken before any IRQ. The
    // common case is one load + compare.
    if (irq_hub_ != nullptr && irq_hub_->attention_cycle() <= cycles_) {
      const int vec = irq_hub_->Poll(cycles_, (eflags_ & kFlagIf) != 0);
      if (vec >= 0) {
        if (irq_trace_ != nullptr) {
          irq_trace_->push_back(IrqEvent{static_cast<u8>(vec), cpl_, eip_, cycles_});
        }
        if (recorder_ != nullptr) {
          recorder_->Record(obs_track_, cycles_, obs::EventType::kIrqDeliver,
                            obs::EventClass::kArch, static_cast<u32>(vec), cpl_);
        }
        if (profiler_ != nullptr) {
          profiler_->Set(obs_track_, cycles_, tlb_.stats().misses,
                         obs::Category::kIrq);
        }
        Fault fault;
        if (!DoInt(static_cast<u8>(vec), /*software=*/false, &fault)) {
          stop.reason = StopReason::kFault;
          stop.fault = fault;
          return stop;
        }
        cycles_ += model_.int_gate;
        continue;  // the gate target may itself be a host entry
      }
    }
    // Superblock engine: execute decoded basic-block runs until something
    // needs the outer boundary checks again. Falls back to a single
    // interpreted step where block dispatch cannot start (unaligned CS
    // base, host-entry page, fetch outside the segment limit) — or where it
    // could not run more than one instruction anyway because a pending but
    // masked IRQ pins the hub's attention cycle to "now" (every boundary
    // must poll, so block entry would be pure overhead).
    if (engine_ >= Engine::kBlock &&
        (irq_hub_ == nullptr || irq_hub_->attention_cycle() > cycles_)) {
      const BlockExit be = RunBlock(cycle_limit, &stop);
      if (be == BlockExit::kStopped) return stop;
      if (be == BlockExit::kYield) continue;
    }
    if (!StepOne(&stop)) return stop;
  }
}

namespace {

// Effective address of a memory operand: disp [+ base] [+ index*scale].
inline u32 EffectiveAddr(const std::array<u32, kNumRegs>& regs, const Insn& insn) {
  u32 a = static_cast<u32>(insn.disp);
  if (insn.r2 != kNoBaseReg) a += regs[insn.r2];
  if (insn.scale != 0) a += regs[insn.r3] * insn.scale;
  return a;
}

}  // namespace

// The one per-opcode execution core. Each instantiation is the semantics of
// exactly one opcode (the if-constexpr chain collapses at compile time), and
// both dispatch loops — StepOne's switch and RunBlock's threaded dispatch —
// expand to calls of these, so the per-instruction oracle and the block
// engine cannot diverge on what an instruction *does*; only the boundary
// machinery around the core differs, and that is what the differential fuzz
// pins down.
template <Opcode kOp>
inline Cpu::ExecStatus Cpu::ExecOp(Cpu& c, const DecodedInsn& d, ExecCtx& ctx) {
  using ES = ExecStatus;
  const Insn& insn = d.insn;
  (void)insn;
  (void)ctx;

  if constexpr (kOp == Opcode::kNop) {
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kHlt) {
    if (c.cpl_ != 0) {
      ctx.fault = Gp("hlt at CPL > 0");
      return ES::kFault;
    }
    return ES::kHalt;

  } else if constexpr (kOp == Opcode::kMovRR) {
    c.regs_[insn.r1] = c.regs_[insn.r2];
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kMovRI) {
    c.regs_[insn.r1] = static_cast<u32>(insn.imm);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kLoad) {
    u32 v = 0;
    if (!c.MemRead(c.segs_[d.seg_idx], EffectiveAddr(c.regs_, insn), insn.size, d.is_stack,
                   &v, &ctx.fault)) {
      return ES::kFault;
    }
    c.regs_[insn.r1] = v;
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kStore) {
    if (!c.MemWrite(c.segs_[d.seg_idx], EffectiveAddr(c.regs_, insn), insn.size, d.is_stack,
                    c.regs_[insn.r1], &ctx.fault)) {
      return ES::kFault;
    }
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kStoreI) {
    if (!c.MemWrite(c.segs_[d.seg_idx], EffectiveAddr(c.regs_, insn), insn.size, d.is_stack,
                    static_cast<u32>(insn.imm), &ctx.fault)) {
      return ES::kFault;
    }
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kLea) {
    c.regs_[insn.r1] = EffectiveAddr(c.regs_, insn);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kPushR) {
    return c.Push32(c.regs_[insn.r1], &ctx.fault) ? ES::kNext : ES::kFault;

  } else if constexpr (kOp == Opcode::kPushI) {
    return c.Push32(static_cast<u32>(insn.imm), &ctx.fault) ? ES::kNext : ES::kFault;

  } else if constexpr (kOp == Opcode::kPopR) {
    u32 v = 0;
    if (!c.Pop32(&v, &ctx.fault)) return ES::kFault;
    c.regs_[insn.r1] = v;
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kPushSeg) {
    if (insn.r1 >= kNumSegRegs) {
      ctx.fault = Ud("bad segment register");
      return ES::kFault;
    }
    return c.Push32(c.segs_[insn.r1].selector.raw(), &ctx.fault) ? ES::kNext : ES::kFault;

  } else if constexpr (kOp == Opcode::kPopSeg) {
    if (insn.r1 >= kNumSegRegs) {
      ctx.fault = Ud("bad segment register");
      return ES::kFault;
    }
    u32 v = 0;
    if (!c.Pop32(&v, &ctx.fault)) return ES::kFault;
    if (!c.LoadSegmentChecked(static_cast<SegReg>(insn.r1), Selector(static_cast<u16>(v)),
                              &ctx.fault)) {
      return ES::kFault;  // note: ESP stays popped, as on the hardware model
    }
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kMovSegR) {
    if (insn.r1 >= kNumSegRegs) {
      ctx.fault = Ud("bad segment register");
      return ES::kFault;
    }
    if (!c.LoadSegmentChecked(static_cast<SegReg>(insn.r1),
                              Selector(static_cast<u16>(c.regs_[insn.r2])), &ctx.fault)) {
      return ES::kFault;
    }
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kMovRSeg) {
    if (insn.r2 >= kNumSegRegs) {
      ctx.fault = Ud("bad segment register");
      return ES::kFault;
    }
    c.regs_[insn.r1] = c.segs_[insn.r2].selector.raw();
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kAddRR || kOp == Opcode::kAddRI) {
    const u32 a = c.regs_[insn.r1];
    const u32 b = kOp == Opcode::kAddRR ? c.regs_[insn.r2] : static_cast<u32>(insn.imm);
    const u32 r = a + b;
    c.regs_[insn.r1] = r;
    c.SetFlags(r < a, r == 0, (r >> 31) & 1, ((~(a ^ b)) & (a ^ r) & 0x80000000u) != 0);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kSubRR || kOp == Opcode::kSubRI ||
                       kOp == Opcode::kCmpRR || kOp == Opcode::kCmpRI) {
    const u32 a = c.regs_[insn.r1];
    const u32 b = (kOp == Opcode::kSubRR || kOp == Opcode::kCmpRR)
                      ? c.regs_[insn.r2]
                      : static_cast<u32>(insn.imm);
    const u32 r = a - b;
    if constexpr (kOp == Opcode::kSubRR || kOp == Opcode::kSubRI) c.regs_[insn.r1] = r;
    c.SetFlags(a < b, r == 0, (r >> 31) & 1, (((a ^ b) & (a ^ r)) & 0x80000000u) != 0);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kAndRR || kOp == Opcode::kAndRI ||
                       kOp == Opcode::kTestRR || kOp == Opcode::kTestRI) {
    const u32 b = (kOp == Opcode::kAndRR || kOp == Opcode::kTestRR)
                      ? c.regs_[insn.r2]
                      : static_cast<u32>(insn.imm);
    const u32 r = c.regs_[insn.r1] & b;
    if constexpr (kOp == Opcode::kAndRR || kOp == Opcode::kAndRI) c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kOrRR || kOp == Opcode::kOrRI) {
    const u32 b = kOp == Opcode::kOrRR ? c.regs_[insn.r2] : static_cast<u32>(insn.imm);
    const u32 r = c.regs_[insn.r1] | b;
    c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kXorRR || kOp == Opcode::kXorRI) {
    const u32 b = kOp == Opcode::kXorRR ? c.regs_[insn.r2] : static_cast<u32>(insn.imm);
    const u32 r = c.regs_[insn.r1] ^ b;
    c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kShlRI) {
    const u32 s = static_cast<u32>(insn.imm) & 31;
    const u32 r = c.regs_[insn.r1] << s;
    c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kShrRI) {
    const u32 s = static_cast<u32>(insn.imm) & 31;
    const u32 r = c.regs_[insn.r1] >> s;
    c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kSarRI) {
    const u32 s = static_cast<u32>(insn.imm) & 31;
    const u32 r = static_cast<u32>(static_cast<i32>(c.regs_[insn.r1]) >> s);
    c.regs_[insn.r1] = r;
    c.SetLogicFlags(r);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kImulRR || kOp == Opcode::kImulRI) {
    const i64 a = static_cast<i32>(c.regs_[insn.r1]);
    const i64 b =
        kOp == Opcode::kImulRR ? static_cast<i64>(static_cast<i32>(c.regs_[insn.r2]))
                               : static_cast<i64>(insn.imm);
    const i64 r = a * b;
    c.regs_[insn.r1] = static_cast<u32>(r);
    const bool overflow = r != static_cast<i32>(r);
    c.SetFlags(overflow, static_cast<u32>(r) == 0, (static_cast<u32>(r) >> 31) & 1, overflow);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kUdivRR) {
    const u32 b = c.regs_[insn.r2];
    if (b == 0) {
      Fault f;
      f.vector = FaultVector::kDivideError;
      f.detail = "division by zero";
      ctx.fault = f;
      return ES::kFault;
    }
    c.regs_[insn.r1] = c.regs_[insn.r1] / b;
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kNegR) {
    const u32 a = c.regs_[insn.r1];
    const u32 r = 0 - a;
    c.SetFlags(a != 0, r == 0, (r >> 31) & 1, a == 0x80000000u);
    c.regs_[insn.r1] = r;
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kNotR) {
    c.regs_[insn.r1] = ~c.regs_[insn.r1];
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kIncR) {
    const u32 a = c.regs_[insn.r1];
    const u32 r = a + 1;
    c.regs_[insn.r1] = r;
    c.SetFlags(c.cf(), r == 0, (r >> 31) & 1, a == 0x7FFFFFFFu);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kDecR) {
    const u32 a = c.regs_[insn.r1];
    const u32 r = a - 1;
    c.regs_[insn.r1] = r;
    c.SetFlags(c.cf(), r == 0, (r >> 31) & 1, a == 0x80000000u);
    return ES::kNext;

  } else if constexpr (kOp == Opcode::kJmp) {
    c.eip_ = static_cast<u32>(insn.imm);
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kJmpR) {
    c.eip_ = c.regs_[insn.r1];
    return ES::kJump;

  } else if constexpr (IsJcc(kOp)) {
    bool taken = false;
    if constexpr (kOp == Opcode::kJe) taken = c.zf();
    else if constexpr (kOp == Opcode::kJne) taken = !c.zf();
    else if constexpr (kOp == Opcode::kJb) taken = c.cf();
    else if constexpr (kOp == Opcode::kJae) taken = !c.cf();
    else if constexpr (kOp == Opcode::kJbe) taken = c.cf() || c.zf();
    else if constexpr (kOp == Opcode::kJa) taken = !c.cf() && !c.zf();
    else if constexpr (kOp == Opcode::kJl) taken = c.sf() != c.of();
    else if constexpr (kOp == Opcode::kJge) taken = c.sf() == c.of();
    else if constexpr (kOp == Opcode::kJle) taken = c.zf() || c.sf() != c.of();
    else if constexpr (kOp == Opcode::kJg) taken = !c.zf() && c.sf() == c.of();
    else if constexpr (kOp == Opcode::kJs) taken = c.sf();
    else taken = !c.sf();  // kJns
    ctx.taken = taken;
    if (!taken) return ES::kNext;
    c.eip_ = static_cast<u32>(insn.imm);
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kCall) {
    if (!c.Push32(c.eip_, &ctx.fault)) return ES::kFault;
    c.eip_ = static_cast<u32>(insn.imm);
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kCallR) {
    if (!c.Push32(c.eip_, &ctx.fault)) return ES::kFault;
    c.eip_ = c.regs_[insn.r1];
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kRet) {
    u32 v = 0;
    if (!c.Pop32(&v, &ctx.fault)) return ES::kFault;
    c.eip_ = v;
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kRetN) {
    u32 v = 0;
    if (!c.Pop32(&v, &ctx.fault)) return ES::kFault;
    c.eip_ = v;
    c.set_reg(Reg::kEsp, c.reg(Reg::kEsp) + static_cast<u32>(insn.imm));
    return ES::kJump;

  } else if constexpr (kOp == Opcode::kLcall) {
    return c.DoLcall(insn, &ctx.fault, &ctx.extra_cycles) ? ES::kFar : ES::kFault;

  } else if constexpr (kOp == Opcode::kLret) {
    return c.DoLret(static_cast<u32>(insn.imm), &ctx.fault, &ctx.extra_cycles) ? ES::kFar
                                                                               : ES::kFault;

  } else if constexpr (kOp == Opcode::kInt) {
    return c.DoInt(static_cast<u8>(insn.imm), /*software=*/true, &ctx.fault) ? ES::kFar
                                                                             : ES::kFault;

  } else /* kOp == Opcode::kIret */ {
    static_assert(kOp == Opcode::kIret, "unhandled opcode in ExecOp");
    return c.DoIret(&ctx.fault) ? ES::kFar : ES::kFault;
  }
}

// The per-instruction interpreter step: fetch, dispatch through the shared
// execution core, account cycles. This is the PR 2 fast path, kept intact as
// the block engine's in-binary oracle (Engine::kInsn, PALLADIUM_NO_BLOCKS=1).
// Flattened so the per-instruction cost is branches, not call frames.
__attribute__((flatten)) bool Cpu::StepOne(StopInfo* stop) {
  const u32 insn_eip = eip_;
  Fault fault;
  const DecodedInsn* dp = nullptr;
  if (!FetchInsn(&dp, &fault)) {
    eip_ = insn_eip;
    stop->reason = StopReason::kFault;
    stop->fault = fault;
    return false;
  }
  // The storage behind dp (a decode-cache slot) outlives this instruction
  // even if the instruction overwrites its own page: the cache retires
  // invalidated pages and frees them only at the next fetch.
  const DecodedInsn& d = *dp;
  eip_ += kInsnSize;
  ++instructions_;

  ExecCtx ctx;
  ExecStatus st = ExecStatus::kNext;
  switch (d.insn.opcode) {
#define PALLADIUM_X(name)                       \
  case Opcode::name:                            \
    st = ExecOp<Opcode::name>(*this, d, ctx);   \
    break;
    PALLADIUM_FOR_EACH_OPCODE(PALLADIUM_X)
#undef PALLADIUM_X
    case Opcode::kCount:
      ctx.fault = Ud("invalid opcode");
      st = ExecStatus::kFault;
      break;
  }

  if (st == ExecStatus::kFault) {
    eip_ = insn_eip;  // faulting EIP points at the faulting instruction
    stop->reason = StopReason::kFault;
    stop->fault = ctx.fault;
    return false;
  }
  if (st == ExecStatus::kHalt) {
    cycles_ += d.cost;
    stop->reason = StopReason::kHalted;
    return false;
  }
  cycles_ += (ctx.taken ? cost_.taken_branch : d.cost) + ctx.extra_cycles;
  return true;
}

// The superblock engine. Executes decoded basic-block runs out of the pinned
// decoded page with computed-goto threaded dispatch: one indirect jump per
// instruction straight to that opcode's handler, no per-instruction fetch
// machinery, no host-entry scan, and — when the block's pre-summed worst-case
// cost proves every interior retire boundary stays below the cycle-limit/IRQ
// frontier — no per-retire checks either. Retire-boundary semantics are
// preserved *exactly*:
//
//  * cycles are charged per instruction with the same table as StepOne, so
//    every boundary has the same cycle value either way;
//  * the frontier (`until` = min(cycle limit, IRQ attention)) is re-checked
//    at every boundary the pre-summed bound cannot clear, and runs always
//    end on a checked edge (run boundary, chain, yield), so IRQ delivery
//    points and SMP interleave slices land on identical boundaries;
//  * memory-touching instructions re-check the decode-cache generation at
//    retire, so a store into the *currently executing* block (or a page walk
//    setting A/D bits inside a decoded page) finishes the current
//    instruction and then forces a re-fetch — the per-instruction rule;
//  * faults restore EIP to the faulting instruction with all prior
//    instructions (and any partial far-transfer state) committed, exactly
//    like StepOne;
//  * pages overlapping the host-entry range, unaligned CS bases and
//    fetch-limit violations fall back to StepOne (kNoBlock), which owns
//    those semantics.
//
// Taken near transfers whose target is a slot-aligned address in the same
// decoded page chain directly to the target block without leaving the loop;
// everything else yields to Run's outer boundary checks. The fetch-TLB pins
// (fetch_page_/fetch_vpn_/generation tags) are shared with FetchInsn, so
// mixing block dispatch and single steps keeps one coherent view and one
// architectural Translate per (page change or invalidation) — the same
// points at which the per-instruction path translates, which is what keeps
// TLB statistics and cycle counts byte-identical between the two engines.
__attribute__((flatten)) Cpu::BlockExit Cpu::RunBlock(u64 cycle_limit, StopInfo* stop) {
  static const void* const kLabels[kNumDispatch] = {
#define PALLADIUM_X(name) &&lbl_##name,
      PALLADIUM_FOR_EACH_OPCODE(PALLADIUM_X)
#undef PALLADIUM_X
      &&lbl_undecodable,  // kDispatchUndecodable (== Opcode::kCount, never decoded)
      &&lbl_bus_error,    // kDispatchBusError
  };

  const LoadedSegment& cs = segs_[static_cast<u8>(SegReg::kCs)];
  {
    Fault precheck;
    if (!CheckSegmentAccess(cs, eip_, kInsnSize, /*is_write=*/false, /*is_stack=*/false,
                            &precheck)) {
      return BlockExit::kNoBlock;  // StepOne raises the identical fault
    }
  }
  const u32 base = cs.cache.base;
  const u32 entry_linear = base + eip_;
  if ((entry_linear & (kInsnSize - 1)) != 0) return BlockExit::kNoBlock;
  const u32 page_linear = entry_linear & ~kPageMask;
  // Pages overlapping the host-entry range run per-instruction so the outer
  // loop's host-call detection happens at every retire boundary.
  if (host_size_ != 0 &&
      static_cast<u64>(page_linear) < static_cast<u64>(host_base_) + host_size_ &&
      static_cast<u64>(host_base_) < static_cast<u64>(page_linear) + kPageSize) {
    return BlockExit::kNoBlock;
  }

  // Revalidate or refill the pinned decoded page — the same helper, and the
  // same single architectural Translate, as FetchInsn's fast path.
  if (!PinFetchPage(entry_linear, &stop->fault)) {
    stop->reason = StopReason::kFault;
    return BlockExit::kStopped;
  }

  DecodeCache::Page* const page = fetch_page_;
  const u64 gen0 = dcache_.generation();
  const u32 limit = cs.cache.limit;
  // The frontier no interior retire boundary may cross. The IRQ hub's
  // attention cycle cannot move while we are in here (devices only advance
  // inside Poll, which only the outer loop calls), and neither can
  // Tlb::change_count (CR3 loads, INVLPG and PTE edits are host-side, and
  // the host only runs between Run slices) — which is why neither is
  // re-read per instruction.
  u64 until = cycle_limit;
  if (irq_hub_ != nullptr) {
    const u64 attention = irq_hub_->attention_cycle();
    if (attention < until) until = attention;
  }
  ++block_stats_.entries;
  const u64 insns0 = instructions_;

  DecodedInsn* d = &page->slots[(entry_linear & kPageMask) / kInsnSize];
  ExecCtx ctx;
  ExecStatus st;
  u32 n;

#define PALLADIUM_BLOCK_EXIT(result)              \
  do {                                            \
    block_stats_.insns += instructions_ - insns0; \
    return (result);                              \
  } while (0)

run_start:
  // Page-end is bounded by run_len construction; the CS limit can cut a run
  // shorter (the outer fetch then raises the exact #GP at the exact slot).
  if (eip_ > limit || limit - eip_ < kInsnSize) goto yield;
  n = d->run_len;
  {
    const u32 by_limit = (limit - eip_ - kInsnSize) / kInsnSize + 1;
    if (n > by_limit) n = by_limit;
  }
  // Pre-summed bound: if the whole run provably retires below the frontier,
  // its interior boundaries need no checks; otherwise degrade to
  // one-instruction runs with a checked boundary after each — exactly the
  // per-instruction discipline.
  if (cycles_ + d->run_cost_max >= until) n = 1;
  // Hot-trace tier. Every run-head visit bumps the slot's hotness; at the
  // threshold the loop starting here is lowered once (or the head is marked
  // untraceable). A trace is entered only where the block engine would
  // retire its whole first iteration without one interior check: at the EIP
  // it was lowered at, with every covered slot inside the CS limit, and with
  // the iteration's worst case below the frontier — each member run then
  // passes the pre-summed bound above and every internal edge passes
  // `chain`/`run_boundary`, so the executor, which has no checks, lands every
  // exit on the same boundaries by construction. Guard and frontier exits
  // continue at `chain`, exactly where the block engine would be after the
  // exit edge's branch.
  if (engine_ == Engine::kTrace) {
    u16 ti = d->trace;
    if (ti == kTraceNone && ++d->hot >= kTraceHotThreshold) {
      auto lowered = LowerLoop(page->slots.data(), static_cast<u32>(d - page->slots.data()),
                               eip_, cost_);
      if (lowered != nullptr && page->traces.size() < kTraceUntraceable) {
        ti = static_cast<u16>(page->traces.size());
        ++trace_stats_.promotions;
        if (recorder_ != nullptr) {
          recorder_->Record(obs_track_, cycles_, obs::EventType::kTraceCompile,
                            obs::EventClass::kEngine, eip_, lowered->iter_insns);
        }
        page->traces.push_back(std::move(lowered));
      } else {
        ti = kTraceUntraceable;
      }
      d->trace = ti;
    }
    if (ti < kTraceUntraceable) {
      Trace& t = *page->traces[ti];
      if (eip_ == t.entry_eip && limit >= t.min_limit && cycles_ + t.cost_max < until) {
        const TraceExit te = ExecTrace(page, t, gen0, until, stop);
        if (te == TraceExit::kChain) goto chain;
        if (te == TraceExit::kStopped) PALLADIUM_BLOCK_EXIT(BlockExit::kStopped);
        // The decode generation changed mid-trace: a store (local or remote)
        // invalidated the trace's page and the trace exited at the boundary.
        if (recorder_ != nullptr) {
          recorder_->Record(obs_track_, cycles_, obs::EventType::kTraceInvalidate,
                            obs::EventClass::kEngine, eip_, 0);
        }
        goto yield;
      }
    }
  }
  goto *kLabels[d->dispatch];

run_boundary:
  if (cycles_ >= until) goto yield;
  if (static_cast<u32>(d - page->slots.data()) >= DecodeCache::kSlotsPerPage) {
    goto yield;  // sequential flow off the page end: refetch through the TLB
  }
  goto run_start;

chain:
  // A near transfer retired. Chain straight to the target block when the
  // target is a slot-aligned address in the same decoded page and nothing
  // was invalidated; otherwise yield so the outer loop re-translates — at
  // exactly the points the per-instruction fetch path would.
  if (cycles_ >= until) goto yield;
  if (dcache_.generation() != gen0) goto yield;
  {
    const u32 target = base + eip_;
    if ((target & (kInsnSize - 1)) != 0 || (target & ~kPageMask) != page_linear) goto yield;
    d = &page->slots[(target & kPageMask) / kInsnSize];
  }
  ++block_stats_.chains;
  goto run_start;

#define PALLADIUM_DEF_LABEL(name)                                       \
  lbl_##name : {                                                        \
    constexpr Opcode kOp = Opcode::name;                                \
    eip_ += kInsnSize;                                                  \
    ++instructions_;                                                    \
    if constexpr (IsFarTransfer(kOp)) ctx.extra_cycles = 0;             \
    st = ExecOp<kOp>(*this, *d, ctx);                                   \
    if (st == ExecStatus::kFault) goto fault_exit;                      \
    if constexpr (kOp == Opcode::kHlt) {                                \
      cycles_ += d->cost;                                               \
      stop->reason = StopReason::kHalted;                               \
      PALLADIUM_BLOCK_EXIT(BlockExit::kStopped);                        \
    } else if constexpr (IsFarTransfer(kOp)) {                          \
      cycles_ += d->cost + ctx.extra_cycles;                            \
      goto yield; /* CS/CPL/IF may have changed: outer checks decide */ \
    } else if constexpr (IsJcc(kOp)) {                                  \
      if (st == ExecStatus::kNext) { /* not taken: sequential */        \
        cycles_ += d->cost;                                             \
        ++d;                                                            \
        goto run_boundary;                                              \
      }                                                                 \
      cycles_ += cost_.taken_branch;                                    \
      goto chain;                                                       \
    } else if constexpr (IsNearJump(kOp)) {                             \
      cycles_ += d->cost;                                               \
      goto chain;                                                       \
    } else if constexpr (TouchesMemSeq(kOp)) {                          \
      cycles_ += d->cost;                                               \
      if (dcache_.generation() != gen0) {                               \
        goto yield; /* the access retired decoded code: refetch */      \
      }                                                                 \
      if (--n == 0) {                                                   \
        ++d;                                                            \
        goto run_boundary;                                              \
      }                                                                 \
      ++d;                                                              \
      goto *kLabels[d->dispatch];                                       \
    } else {                                                            \
      cycles_ += d->cost;                                               \
      if (--n == 0) {                                                   \
        ++d;                                                            \
        goto run_boundary;                                              \
      }                                                                 \
      ++d;                                                              \
      goto *kLabels[d->dispatch];                                       \
    }                                                                   \
  }

  PALLADIUM_FOR_EACH_OPCODE(PALLADIUM_DEF_LABEL)
#undef PALLADIUM_DEF_LABEL

lbl_undecodable:
  // Mirrors FetchInsn's #UD: EIP still points at the slot, nothing retired.
  stop->reason = StopReason::kFault;
  stop->fault = Ud("undecodable instruction");
  PALLADIUM_BLOCK_EXIT(BlockExit::kStopped);

lbl_bus_error:
  stop->reason = StopReason::kFault;
  stop->fault = FetchBusFault(base + eip_ + d->fault_offset);
  PALLADIUM_BLOCK_EXIT(BlockExit::kStopped);

fault_exit:
  eip_ -= kInsnSize;  // faulting EIP points at the faulting instruction
  stop->reason = StopReason::kFault;
  stop->fault = ctx.fault;
  PALLADIUM_BLOCK_EXIT(BlockExit::kStopped);

yield:
  PALLADIUM_BLOCK_EXIT(BlockExit::kYield);
#undef PALLADIUM_BLOCK_EXIT
}

// The hot-trace executor: retires iterations of one lowered loop until a
// guard, the frontier, a fault or a generation change ends it. Every
// architectural effect is identical to the block engine retiring the same
// slots — only the *work* differs:
//
//  * EFLAGS are not written per instruction; the FlagsCache records the last
//    observable producer and the flags are materialized (bit-identically,
//    see MaterializeFlags) once, at whichever exit happens: a guard or
//    frontier exit, a fault, or a generation yield.
//  * eip/cycles/instructions are batched: each uop carries prefix sums from
//    the iteration's start and its source slot, so any exit reconstructs
//    the exact per-instruction values. Dynamic cycle charges (TLB-miss
//    penalties inside fallback accesses) accrue to cycles_ in place, which
//    commutes with adding the base-cost sum.
//  * Memory uops probe the TLB inline, with MemRead/MemWrite's own
//    permission rule and charges; anything the probe cannot serve — a miss,
//    a segment-window or page-straddle miss, permissions, the dirty bit —
//    falls back to the full MemRead/MemWrite, i.e. the oracle itself, whose
//    translation leaves the entry the next execution hits.
//  * After every uop that can touch simulated memory the decode-cache
//    generation is re-checked, exactly where the block engine re-checks it,
//    so self-modifying stores and SMP remote invalidations exit the trace at
//    the same instruction boundary in every engine.
Cpu::TraceExit Cpu::ExecTrace(DecodeCache::Page* page, Trace& t, u64 gen0, u64 until,
                              StopInfo* stop) {
  using ES = ExecStatus;
  using ExecFn = ES (*)(Cpu&, const DecodedInsn&, ExecCtx&);
  static const ExecFn kExecFns[kNumOpcodes] = {
#define PALLADIUM_X(name) &Cpu::ExecOp<Opcode::name>,
      PALLADIUM_FOR_EACH_OPCODE(PALLADIUM_X)
#undef PALLADIUM_X
  };
  // Threaded dispatch, one label per UopKind — the same technique as
  // RunBlock's opcode labels. Order must match the UopKind enum exactly.
  static const void* const kUopLabels[] = {
      &&u_nop,  &&u_movrr, &&u_movri, &&u_lea,  &&u_add, &&u_sub, &&u_cmp,
      &&u_and,  &&u_test,  &&u_or,    &&u_xor,  &&u_shl, &&u_shr, &&u_sar,
      &&u_imul, &&u_neg,   &&u_not,   &&u_inc,  &&u_dec, &&u_fold,
      &&u_load, &&u_store, &&u_storei, &&u_exec, &&u_jcc, &&u_cmpjcc,
  };
  static_assert(sizeof(kUopLabels) / sizeof(kUopLabels[0]) ==
                    static_cast<size_t>(UopKind::kCmpJcc) + 1,
                "kUopLabels must cover every UopKind");

  FlagsCache fc = FlagsCache::Eager(eflags_);  // eflags_ is current at entry
  Fault fault;
  const u32 entry_eip = t.entry_eip;  // == eip_: RunBlock's entry condition
  const u32 entry_slot = t.entry_slot;
  // Loop-invariant CPU state: CPL and the fast-path switch can only change
  // at far transfers, which are never in a trace; TLB flushes are host-side
  // and the host only runs between Run slices (same argument as RunBlock's
  // frontier), so the TLB generation holds too. Every memory label probes
  // against `fast_gen`, which with the fast path off is one no entry
  // carries: the switch is tested on every access.
  const u64 fast_gen = dtlb_enabled_ ? tlb_.generation() : Tlb::kNoGen;
  const u32 rd_need = FastPathFlags(/*is_write=*/false, cpl_ == 3);
  const u32 wr_need = FastPathFlags(/*is_write=*/true, cpl_ == 3);
  // Everything the hot path would otherwise read-modify-write through
  // `this` — cycle and instruction counters, TLB statistics, trace counters
  // — is batched in locals the compiler can keep in registers, because the
  // fallback call-outs prevent it from doing that to the members itself.
  // `cyc`/`insns` are the executor's truth; they sync with the members only
  // around call-outs that charge dynamic cycles (walk penalties), and all
  // counters flush exactly once per exit.
  u64 cyc = cycles_;
  u64 insns = instructions_;
  const u64 insns0 = insns;
  u64 tlb_hits = 0;  // batched Tlb::RecordFastPathHits bytes
  u64 inline_hits = 0;  // fast-path hits: one D-TLB hit and one inline access each
  u32 iters = 0;  // closing-edge loop-backs; each is another trace entry
  // Guest stores go through u8* and may alias anything the compiler cannot
  // prove disjoint, so the observer registration (which cannot change
  // mid-run) is copied to a register instead of re-loaded per store.
  const bool sole_dcache_observer = pm_.sole_write_observer() == &dcache_;
  // Per-segment fast-access windows: an access of `size` at `off` passes
  // CheckSegmentAccess iff off + size - 1 <= lim in signed 64-bit math,
  // where lim is the last legal byte offset (limit - 1: the limit is the
  // segment's size) and -1 encodes "never" — validity, permissions, and the
  // limit fold into one compare. Any access outside the window takes the
  // MemRead / MemWrite fallback, which redoes the architectural check and
  // raises the exact fault. These live in locals the compiler can prove
  // guest stores never alias; kExec is the only uop that can reload a
  // segment register, so it refreshes them.
  i64 seg_rd_lim[kNumSegRegs];  // pass iff off + size - 1 <= lim (-1: never)
  i64 seg_wr_lim[kNumSegRegs];
  i64 seg_rd_end4[kNumSegRegs];  // = rd_lim - 3: last off a 4-byte read fits
  u32 seg_base[kNumSegRegs];
  const auto refresh_seg_windows = [&] {
    for (u32 s = 0; s < kNumSegRegs; ++s) {
      const LoadedSegment& sg = segs_[s];
      const SegmentDescriptor& d = sg.cache;
      const bool rd_ok = sg.valid && !(d.IsCode() && !d.readable);
      const bool wr_ok = sg.valid && !d.IsCode() && d.writable;
      seg_rd_lim[s] = rd_ok ? static_cast<i64>(d.limit) - 1 : -1;
      seg_wr_lim[s] = wr_ok ? static_cast<i64>(d.limit) - 1 : -1;
      seg_rd_end4[s] = seg_rd_lim[s] - 3;
      seg_base[s] = d.base;
    }
  };
  refresh_seg_windows();
  // Has-code bitmap, hoisted for the store fast path. A store into a page
  // with no decoded code cannot move the decode-cache generation, so the
  // probe replaces both the observer dispatch and the generation re-check
  // in the overwhelmingly common case. Values are re-read through the
  // pointer on every probe; only the pointer and size are cached (they move
  // on Populate, which only runs at instruction fetch, never mid-trace).
  const u8* const has_code = dcache_.has_code_data();
  const u32 has_code_pages = dcache_.has_code_pages();

#define PALLADIUM_TRACE_SYNC_OUT() cycles_ = cyc
#define PALLADIUM_TRACE_SYNC_IN() cyc = cycles_
#define PALLADIUM_TRACE_FLUSH_STATS()                   \
  do {                                                  \
    tlb_.RecordFastPathHits(tlb_hits);                  \
    dtlb_stats_.hits += inline_hits;                    \
    trace_stats_.inline_accesses += inline_hits;        \
    ++trace_stats_.calls;                               \
    trace_stats_.entries += 1 + iters;                  \
    trace_stats_.uop_insns += instructions_ - insns0;   \
  } while (0)

  Uop* const ubegin = t.uops.data();
  Uop* const uend = ubegin + t.uops.size();
  if (__builtin_expect(!t.threaded, 0)) {
    for (Uop* x = ubegin; x != uend; ++x) {
      const void* tgt = kUopLabels[static_cast<u8>(x->kind)];
      // 4-byte memory uops — the dominant case: every push/pop and almost
      // every mov — get switch-free specializations; push/pop variants fold
      // their fixed ESP adjustment into the label itself. So do byte loads,
      // the one load of every checksum loop. The generic labels stay the
      // fallback for the other 1/2-byte accesses, and a specialized label
      // that misses its fast-path guard re-dispatches to its generic one.
      if (x->size == 1 && x->kind == UopKind::kLoad && x->esp_post == 0) {
        tgt = &&u_load1;
      } else if (x->size == 4) {
        if (x->kind == UopKind::kLoad)
          tgt = x->esp_post ? static_cast<const void*>(&&u_pop4)
                            : static_cast<const void*>(&&u_load4);
        else if (x->kind == UopKind::kStore)
          tgt = x->esp_post ? static_cast<const void*>(&&u_push4)
                            : static_cast<const void*>(&&u_store4);
        else if (x->kind == UopKind::kStoreI)
          tgt = x->esp_post ? static_cast<const void*>(&&u_pushi4)
                            : static_cast<const void*>(&&u_storei4);
      }
      x->target = tgt;
    }
    t.threaded = true;
  }
  // The closing edge's re-check, hoisted: `cyc + cost_max < until` — the
  // same bound RunBlock's entry condition proves — folds to one compare
  // against a precomputed bound (clamped so `until < cost_max` can never
  // loop). Only the generation re-check stays live per iteration — it is the
  // invalidation fence and must read fresh state.
  const u64 loop_until = until > t.cost_max ? until - t.cost_max : 0;
  const u64 iter_cost = t.iter_cost;
  const u64 iter_insns = t.iter_insns;
  Uop* u = ubegin;
  u32 sval = 0;  // store value, set by u_store/u_storei for store_common
  goto *u->target;  // traces are never empty

#define PALLADIUM_UOP_NEXT()           \
  do {                                 \
    if (++u == uend) goto loop_back;   \
    goto *u->target;                   \
  } while (0)

u_nop:
  PALLADIUM_UOP_NEXT();

u_movrr:
  regs_[u->r1] = regs_[u->r2];
  PALLADIUM_UOP_NEXT();

u_movri:
  regs_[u->r1] = static_cast<u32>(u->imm);
  PALLADIUM_UOP_NEXT();

u_lea: {
  u32 a = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) a += regs_[u->r2];
  if (u->scale != 0) a += regs_[u->r3] * u->scale;
  regs_[u->r1] = a;
  PALLADIUM_UOP_NEXT();
}

u_add: {
  const u32 a = regs_[u->r1];
  const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
  regs_[u->r1] = a + b;
  if (u->record) fc = FlagsCache::Add(a, b);
  PALLADIUM_UOP_NEXT();
}

u_sub: {
  const u32 a = regs_[u->r1];
  const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
  regs_[u->r1] = a - b;
  if (u->record) fc = FlagsCache::Sub(a, b);
  PALLADIUM_UOP_NEXT();
}

u_cmp:
  if (u->record) {
    fc = FlagsCache::Sub(regs_[u->r1], u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2]);
  }
  PALLADIUM_UOP_NEXT();

u_and: {
  const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
  const u32 r = regs_[u->r1] & b;
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_test:
  if (u->record) {
    const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
    fc = FlagsCache::Logic(regs_[u->r1] & b);
  }
  PALLADIUM_UOP_NEXT();

u_or: {
  const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
  const u32 r = regs_[u->r1] | b;
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_xor: {
  const u32 b = u->b_imm ? static_cast<u32>(u->imm) : regs_[u->r2];
  const u32 r = regs_[u->r1] ^ b;
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_shl: {
  const u32 r = regs_[u->r1] << (static_cast<u32>(u->imm) & 31);
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_shr: {
  const u32 r = regs_[u->r1] >> (static_cast<u32>(u->imm) & 31);
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_sar: {
  const u32 r =
      static_cast<u32>(static_cast<i32>(regs_[u->r1]) >> (static_cast<u32>(u->imm) & 31));
  regs_[u->r1] = r;
  if (u->record) fc = FlagsCache::Logic(r);
  PALLADIUM_UOP_NEXT();
}

u_imul: {
  const i64 a = static_cast<i32>(regs_[u->r1]);
  const i64 b = u->b_imm ? static_cast<i64>(u->imm)
                         : static_cast<i64>(static_cast<i32>(regs_[u->r2]));
  const i64 r = a * b;
  regs_[u->r1] = static_cast<u32>(r);
  if (u->record) fc = FlagsCache::Imul(static_cast<u32>(r), r != static_cast<i32>(r));
  PALLADIUM_UOP_NEXT();
}

u_neg: {
  const u32 a = regs_[u->r1];
  regs_[u->r1] = 0 - a;
  if (u->record) fc = FlagsCache::Neg(a);
  PALLADIUM_UOP_NEXT();
}

u_not:
  regs_[u->r1] = ~regs_[u->r1];
  PALLADIUM_UOP_NEXT();

u_inc: {
  // INC and DEC preserve CF, which the cache already holds.
  const u32 r = regs_[u->r1] + 1;
  regs_[u->r1] = r;
  if (u->record) fc.Inc(r);
  PALLADIUM_UOP_NEXT();
}

u_dec: {
  const u32 r = regs_[u->r1] - 1;
  regs_[u->r1] = r;
  if (u->record) fc.Dec(r);
  PALLADIUM_UOP_NEXT();
}

u_fold: {
  const u32 a = regs_[u->r1];
  regs_[u->r1] = a + static_cast<u32>(u->imm);
  // Flags as-if the chain's last op alone executed on the true intermediate
  // value (a + the pre-last delta).
  if (u->record) {
    const u32 x = a + static_cast<u32>(u->imm2);
    const u32 d = static_cast<u32>(u->disp);
    fc = u->fold_last_is_sub ? FlagsCache::Sub(x, d) : FlagsCache::Add(x, d);
  }
  PALLADIUM_UOP_NEXT();
}

u_load: {
  u32 off = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) off += regs_[u->r2];
  if (u->scale != 0) off += regs_[u->r3] * u->scale;
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, rd_need);
  u32 value;
  // The segment-window compare stands in for CheckSegmentAccess on the fast
  // path; any access outside it (including through an invalid or
  // execute-only segment) falls back to MemRead, which redoes the
  // architectural check and raises the exact fault.
  if (__builtin_expect(e != nullptr && u->size != 0 &&
                           static_cast<i64>(off) + u->size - 1 <=
                               seg_rd_lim[u->seg_idx] &&
                           (linear & kPageMask) + u->size <= kPageSize,
                       1)) {
    // MemRead's inline hit, with its charges batched (flushed at trace exit).
    tlb_hits += u->size;
    ++inline_hits;
    const u8* host = e->host + (linear & kPageMask);
    switch (u->size) {
      case 1:
        value = *host;
        break;
      case 2: {
        u16 v16;
        std::memcpy(&v16, host, 2);
        value = v16;
        break;
      }
      case 4:
        std::memcpy(&value, host, 4);
        break;
      default:
        value = 0;
        std::memcpy(&value, host, u->size);
        break;
    }
  } else {
    value = 0;
    PALLADIUM_TRACE_SYNC_OUT();
    const bool ok =
        MemRead(segs_[u->seg_idx], off, u->size, u->is_stack, &value, &fault);
    PALLADIUM_TRACE_SYNC_IN();  // walk penalties charged before a fault too
    if (!ok) goto fault_exit;
    // The fallback's walk can retire decoded code (A/D updates inside a
    // decoded page) — the block engine's re-check. The inline path reads
    // host memory and nothing else, so it provably cannot move the
    // generation and skips the check.
    regs_[static_cast<u8>(Reg::kEsp)] += static_cast<u32>(static_cast<i32>(u->esp_post));
    regs_[u->r1] = value;
    if (dcache_.generation() != gen0) goto gen_exit;
    PALLADIUM_UOP_NEXT();
  }
  // POP commits its ESP move before the destination write (Pop32's order, so
  // `pop %esp` loads the memory value); plain loads add 0.
  regs_[static_cast<u8>(Reg::kEsp)] += static_cast<u32>(static_cast<i32>(u->esp_post));
  regs_[u->r1] = value;
  PALLADIUM_UOP_NEXT();
}

u_load4: {  // kLoad, size 4, no ESP adjustment — the common mov-load
  u32 off = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) off += regs_[u->r2];
  if (u->scale != 0) off += regs_[u->r3] * u->scale;
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, rd_need);
  if (__builtin_expect(e != nullptr && static_cast<i64>(off) <= seg_rd_end4[u->seg_idx] &&
                           (linear & kPageMask) <= kPageSize - 4,
                       1)) {
    tlb_hits += 4;
    ++inline_hits;
    u32 value;
    std::memcpy(&value, e->host + (linear & kPageMask), 4);
    regs_[u->r1] = value;
    PALLADIUM_UOP_NEXT();
  }
  goto u_load;  // window or TLB miss: the generic path faults / refills exactly
}

u_load1: {  // kLoad, size 1, no ESP adjustment — byte loops
  u32 off = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) off += regs_[u->r2];
  if (u->scale != 0) off += regs_[u->r3] * u->scale;
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, rd_need);
  // One byte never straddles a page: unlike u_load4, no page-offset check.
  if (__builtin_expect(e != nullptr && static_cast<i64>(off) <= seg_rd_lim[u->seg_idx], 1)) {
    tlb_hits += 1;
    ++inline_hits;
    regs_[u->r1] = e->host[linear & kPageMask];
    PALLADIUM_UOP_NEXT();
  }
  goto u_load;
}

u_pop4: {  // kLoad, size 4, ESP += 4 after the access
  const u32 off = regs_[u->r2];  // pop EA is SS:ESP, no disp/index
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, rd_need);
  if (__builtin_expect(e != nullptr && static_cast<i64>(off) <= seg_rd_end4[u->seg_idx] &&
                           (linear & kPageMask) <= kPageSize - 4,
                       1)) {
    tlb_hits += 4;
    ++inline_hits;
    u32 value;
    std::memcpy(&value, e->host + (linear & kPageMask), 4);
    regs_[static_cast<u8>(Reg::kEsp)] += 4;  // before the write: pop %esp
    regs_[u->r1] = value;
    PALLADIUM_UOP_NEXT();
  }
  goto u_load;
}

u_push4:
  sval = regs_[u->r1];
  goto store4_push;
u_pushi4:
  sval = static_cast<u32>(u->imm);
store4_push: {  // kStore/kStoreI, size 4, ESP -= 4 after the access
  const u32 off = regs_[u->r2] + static_cast<u32>(u->disp);  // SS:ESP-4
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, wr_need);
  if (__builtin_expect(e != nullptr && static_cast<i64>(off) + 3 <= seg_wr_lim[u->seg_idx] &&
                           (linear & kPageMask) <= kPageSize - 4,
                       1)) {
    tlb_hits += 4;
    ++inline_hits;
    const u32 poff = linear & kPageMask;
    std::memcpy(e->host + poff, &sval, 4);
    const u32 phys = e->frame + poff;
    regs_[static_cast<u8>(Reg::kEsp)] -= 4;
    if (sole_dcache_observer) {
      const u32 pfn = PageNumber(phys);
      if (__builtin_expect(pfn < has_code_pages && has_code[pfn] != 0, 0)) {
        dcache_.OnPhysicalWrite(phys, 4);
        if (dcache_.generation() != gen0) goto gen_exit;
      }
    } else {
      pm_.NotifyWrite(phys, 4);
      if (dcache_.generation() != gen0) goto gen_exit;
    }
    PALLADIUM_UOP_NEXT();
  }
  goto *kUopLabels[static_cast<u8>(u->kind)];  // generic kStore / kStoreI
}

u_store4:
  sval = regs_[u->r1];
  goto store4_plain;
u_storei4:
  sval = static_cast<u32>(u->imm);
store4_plain: {  // kStore/kStoreI, size 4, no ESP adjustment
  u32 off = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) off += regs_[u->r2];
  if (u->scale != 0) off += regs_[u->r3] * u->scale;
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, wr_need);
  if (__builtin_expect(e != nullptr && static_cast<i64>(off) + 3 <= seg_wr_lim[u->seg_idx] &&
                           (linear & kPageMask) <= kPageSize - 4,
                       1)) {
    tlb_hits += 4;
    ++inline_hits;
    const u32 poff = linear & kPageMask;
    std::memcpy(e->host + poff, &sval, 4);
    const u32 phys = e->frame + poff;
    if (sole_dcache_observer) {
      const u32 pfn = PageNumber(phys);
      if (__builtin_expect(pfn < has_code_pages && has_code[pfn] != 0, 0)) {
        dcache_.OnPhysicalWrite(phys, 4);
        if (dcache_.generation() != gen0) goto gen_exit;
      }
    } else {
      pm_.NotifyWrite(phys, 4);
      if (dcache_.generation() != gen0) goto gen_exit;
    }
    PALLADIUM_UOP_NEXT();
  }
  goto *kUopLabels[static_cast<u8>(u->kind)];  // generic kStore / kStoreI
}

u_store:
  sval = regs_[u->r1];
  goto store_common;
u_storei:
  sval = static_cast<u32>(u->imm);
store_common: {
  u32 off = static_cast<u32>(u->disp);
  if (u->r2 != kNoBaseReg) off += regs_[u->r2];
  if (u->scale != 0) off += regs_[u->r3] * u->scale;
  const u32 linear = seg_base[u->seg_idx] + off;
  const Tlb::Entry* e = tlb_.Probe(linear, fast_gen, wr_need);
  if (__builtin_expect(e != nullptr && u->size != 0 &&
                           static_cast<i64>(off) + u->size - 1 <=
                               seg_wr_lim[u->seg_idx] &&
                           (linear & kPageMask) + u->size <= kPageSize,
                       1)) {
    tlb_hits += u->size;
    ++inline_hits;
    const u32 poff = linear & kPageMask;
    u8* host = e->host + poff;
    switch (u->size) {
      case 1:
        *host = static_cast<u8>(sval);
        break;
      case 2: {
        const u16 v16 = static_cast<u16>(sval);
        std::memcpy(host, &v16, 2);
        break;
      }
      case 4:
        std::memcpy(host, &sval, 4);
        break;
      default:
        std::memcpy(host, &sval, u->size);
        break;
    }
    const u32 phys = e->frame + poff;
    // The access stays on one page (checked above), so a single has-code
    // probe decides whether the write could retire decoded code; a clear
    // byte proves the generation cannot have moved.
    if (sole_dcache_observer) {
      const u32 pfn = PageNumber(phys);
      if (__builtin_expect(pfn < has_code_pages && has_code[pfn] != 0, 0)) {
        dcache_.OnPhysicalWrite(phys, u->size);
        regs_[static_cast<u8>(Reg::kEsp)] +=
            static_cast<u32>(static_cast<i32>(u->esp_post));
        if (dcache_.generation() != gen0) goto gen_exit;
        PALLADIUM_UOP_NEXT();
      }
    } else {
      pm_.NotifyWrite(phys, u->size);
      regs_[static_cast<u8>(Reg::kEsp)] +=
          static_cast<u32>(static_cast<i32>(u->esp_post));
      if (dcache_.generation() != gen0) goto gen_exit;
      PALLADIUM_UOP_NEXT();
    }
    regs_[static_cast<u8>(Reg::kEsp)] +=
        static_cast<u32>(static_cast<i32>(u->esp_post));
    PALLADIUM_UOP_NEXT();
  } else {
    PALLADIUM_TRACE_SYNC_OUT();
    const bool ok =
        MemWrite(segs_[u->seg_idx], off, u->size, u->is_stack, sval, &fault);
    PALLADIUM_TRACE_SYNC_IN();
    if (!ok) goto fault_exit;
    regs_[static_cast<u8>(Reg::kEsp)] +=
        static_cast<u32>(static_cast<i32>(u->esp_post));
    if (dcache_.generation() != gen0) goto gen_exit;
    PALLADIUM_UOP_NEXT();
  }
}

u_exec: {
  // Segment moves, udiv: the shared per-opcode core. None of these write
  // flags or read EIP, so the lazy cache and the batched EIP stay coherent
  // across them.
  const DecodedInsn& d = page->slots[u->slot];
  ExecCtx ctx;
  PALLADIUM_TRACE_SYNC_OUT();
  const ES st = kExecFns[d.dispatch](*this, d, ctx);
  PALLADIUM_TRACE_SYNC_IN();
  refresh_seg_windows();  // segment moves live here
  if (st == ES::kFault) {
    fault = ctx.fault;
    goto fault_exit;
  }
  if (dcache_.generation() != gen0) goto gen_exit;
  PALLADIUM_UOP_NEXT();
}

u_jcc: {
  // Guard: evaluated against the lazy cache one flag at a time. r1 is the
  // exit condition; the trace's own edge is the other outcome.
  bool leave;
  switch (u->r1) {
    case 0: leave = LazyZf(fc); break;                                    // je
    case 1: leave = !LazyZf(fc); break;                                   // jne
    case 2: leave = fc.cf; break;                                         // jb
    case 3: leave = !fc.cf; break;                                        // jae
    case 4: leave = fc.cf || LazyZf(fc); break;                           // jbe
    case 5: leave = !fc.cf && !LazyZf(fc); break;                         // ja
    case 6: leave = LazySf(fc) != LazyOf(fc); break;                      // jl
    case 7: leave = LazySf(fc) == LazyOf(fc); break;                      // jge
    case 8: leave = LazyZf(fc) || LazySf(fc) != LazyOf(fc); break;        // jle
    case 9: leave = !LazyZf(fc) && LazySf(fc) == LazyOf(fc); break;       // jg
    case 10: leave = LazySf(fc); break;                                   // js
    default: leave = !LazySf(fc); break;                                  // jns
  }
  if (leave) goto guard_exit;
  PALLADIUM_UOP_NEXT();
}

u_cmpjcc: {
  // Fused compare-and-guard. The condition evaluates directly from the
  // compare operands via the standard sub-flag identities (jb is unsigned
  // a < b, jl is signed a < b, js is the sign of a - b, ...), which are
  // exactly what ExecOp's per-flag reads of a cmp's EFLAGS compute. The
  // operands still enter the flags cache so every exit materializes the
  // compare's architectural flags.
  const u32 a = regs_[u->r1];
  const u32 b = u->b_imm ? static_cast<u32>(u->imm2) : regs_[u->r2];
  fc = FlagsCache::Sub(a, b);
  bool leave;
  switch (u->r3) {
    case 0: leave = a == b; break;                                        // je
    case 1: leave = a != b; break;                                        // jne
    case 2: leave = a < b; break;                                         // jb
    case 3: leave = a >= b; break;                                        // jae
    case 4: leave = a <= b; break;                                        // jbe
    case 5: leave = a > b; break;                                         // ja
    case 6: leave = static_cast<i32>(a) < static_cast<i32>(b); break;     // jl
    case 7: leave = static_cast<i32>(a) >= static_cast<i32>(b); break;    // jge
    case 8: leave = static_cast<i32>(a) <= static_cast<i32>(b); break;    // jle
    case 9: leave = static_cast<i32>(a) > static_cast<i32>(b); break;     // jg
    case 10: leave = ((a - b) >> 31) != 0; break;                         // js
    default: leave = ((a - b) >> 31) == 0; break;                         // jns
  }
  if (leave) goto guard_exit;
  PALLADIUM_UOP_NEXT();
}
#undef PALLADIUM_UOP_NEXT

loop_back:
  // The closing edge retired: one full iteration. Loop in place while the
  // next iteration provably retires below the frontier (the bound RunBlock's
  // entry re-checks) and nothing was invalidated (the re-check `chain`
  // does); the flags stay lazy across the iteration.
  cyc += iter_cost;
  insns += iter_insns;
  if (__builtin_expect(cyc < loop_until && dcache_.generation() == gen0, 1)) {
    ++iters;
    u = ubegin;
    goto *u->target;
  }
  eip_ = entry_eip;
  goto chain_exit;

guard_exit:
  // The guard's exit edge retired: the guard (and a fused compare) plus
  // the edge's own charge.
  cyc += u->cost_before + u->cost2;
  insns += u->insn_before + u->span;
  eip_ = static_cast<u32>(u->imm);

chain_exit:
  // Exact architectural state at the exit edge's target — precisely where
  // the block engine's `chain` label runs its own checks next.
  cycles_ = cyc;
  instructions_ = insns;
  PALLADIUM_TRACE_FLUSH_STATS();
  if (fc.op != FlagsCache::Op::kEager) {
    eflags_ = MaterializeFlags(fc, eflags_);
    ++trace_stats_.flag_materializations;
  }
  return TraceExit::kChain;

fault_exit:
  // The faulting instruction charges no base cost but DOES count in
  // instructions_ — the block engine and StepOne both increment the counter
  // before dispatching and never roll it back on a fault. Its dynamic
  // charges (walk penalties before the fault) were synced back into `cyc`
  // by the call-out wrappers — both exactly as the block engine's fault
  // path. The path is not contiguous in the page, so EIP comes from the
  // uop's own slot.
  cycles_ = cyc + u->cost_before;
  instructions_ = insns + u->insn_before + 1;
  eip_ = entry_eip + (u->slot - entry_slot) * kInsnSize;
  PALLADIUM_TRACE_FLUSH_STATS();
  if (fc.op != FlagsCache::Op::kEager) {
    eflags_ = MaterializeFlags(fc, eflags_);
    ++trace_stats_.flag_materializations;
  }
  stop->reason = StopReason::kFault;
  stop->fault = fault;
  return TraceExit::kStopped;

gen_exit:
  // The access retired decoded code: the current uop (a single memory or
  // fallback instruction) completes, then the trace yields for a re-fetch
  // at the next sequential slot — the same boundary at which the block
  // engine yields.
  cycles_ = cyc + u->cost_before + u->cost;
  instructions_ = insns + u->insn_before + u->span;
  eip_ = entry_eip + (u->slot + u->span - entry_slot) * kInsnSize;
  PALLADIUM_TRACE_FLUSH_STATS();
  if (fc.op != FlagsCache::Op::kEager) {
    eflags_ = MaterializeFlags(fc, eflags_);
    ++trace_stats_.flag_materializations;
  }
  return TraceExit::kYield;
#undef PALLADIUM_TRACE_SYNC_OUT
#undef PALLADIUM_TRACE_SYNC_IN
#undef PALLADIUM_TRACE_FLUSH_STATS
}

}  // namespace palladium
