// Decoded-instruction cache: decode once per physical page, execute many
// times. This is the standard ISS fast path (libriscv's decoder cache,
// riscv-vp++'s DBB cache): instead of re-walking the page tables for all 16
// instruction bytes and re-running Insn::Decode on every step, the CPU
// translates CS:EIP once per page and indexes into a pre-decoded image of
// that *physical* page.
//
// Since the superblock engine (PR 5) a decoded page is more than an array of
// instructions: each slot carries the precomputed execution info the
// threaded dispatch loop (Cpu::RunBlock) needs — the dispatch index, the
// resolved memory segment, the base retire cost from the CPU's cycle model —
// and the page's slots are linked into *basic-block runs*: `run_len` is the
// number of straight-line slots executable from here before the engine must
// re-decide (a control transfer, a non-decodable slot, the page end, or the
// kMaxBlockInsns cap), and `run_cost_max` is a pre-summed upper bound on the
// cycles those slots can charge, which lets the engine prove an entire block
// retires below the cycle-limit/IRQ frontier and skip the per-retire
// boundary checks inside it.
//
// Keying by physical page means entries stay valid across CR3 switches (all
// processes mapping the same text frame share one decoded image) and that
// correctness reduces to one rule: a decoded image must equal what a fresh
// build from the bytes now in memory would produce. The cache learns about
// byte changes by registering as the PhysicalMemory write observer, which
// covers simulated stores (self-modifying code), kernel copy-in, loaders,
// and frame zeroing on reallocation. A write re-decodes only the 16-byte
// slots it touched and retires the page only if one of them now decodes
// differently (state, or the Insn fields of a decoded slot). Everything else
// in a slot — exec info, run links — derives from those fields and the cost
// table, so an all-equal page is exactly a fresh build and stays live: no
// generation bump, hot counters and traces intact. That keeps mixed
// code/data pages (slot words stored next to the stubs that use them) from
// rebuilding per store, and the decision depends only on memory bytes, so
// every decoded engine retires at the same writes. Linear-mapping changes
// (PTE edits, CR3 loads) are the TLB's problem; the CPU revalidates its
// fetch TLB against Tlb::change_count.
#ifndef SRC_ISA_DECODE_CACHE_H_
#define SRC_ISA_DECODE_CACHE_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hw/cycle_model.h"
#include "src/hw/physical_memory.h"
#include "src/hw/types.h"
#include "src/isa/insn.h"
#include "src/isa/uop.h"

namespace palladium {

// Dispatch indices for the execution engine's handler table: one per opcode
// (the opcode's own value), plus sentinels for slots that cannot execute.
// Opcode::kCount doubles as the undecodable sentinel — Insn::Decode never
// yields it, so the index is free.
inline constexpr u16 kDispatchUndecodable = kNumOpcodes;
inline constexpr u16 kDispatchBusError = kNumOpcodes + 1;
inline constexpr u16 kNumDispatch = kNumOpcodes + 2;

// Instruction classification shared by the decoder-side pre-summer and the
// execution engine. Constexpr so the per-opcode handler templates can
// specialize on it.
constexpr bool IsJcc(Opcode op) {
  return op >= Opcode::kJe && op <= Opcode::kJns;
}
// Near transfers whose target stays in the current code segment; the block
// engine may chain directly to a same-page target.
constexpr bool IsNearJump(Opcode op) {
  return op == Opcode::kJmp || op == Opcode::kJmpR || op == Opcode::kCall ||
         op == Opcode::kCallR || op == Opcode::kRet || op == Opcode::kRetN;
}
// Far transfers can change CS/CPL/EFLAGS.IF; the block engine always yields
// to the outer dispatch loop after one.
constexpr bool IsFarTransfer(Opcode op) {
  return op == Opcode::kLcall || op == Opcode::kLret || op == Opcode::kInt ||
         op == Opcode::kIret;
}
// Any instruction after which straight-line execution cannot blindly
// continue: control transfers and HLT end a basic-block run.
constexpr bool IsBlockTerminator(Opcode op) {
  return IsJcc(op) || IsNearJump(op) || IsFarTransfer(op) || op == Opcode::kHlt;
}
// Sequential (non-terminator) instructions that touch simulated memory. A
// memory access can retire code bytes — a store into a decoded page, or even
// a load whose page-table walk sets A/D bits inside one — so the block
// engine re-checks the cache generation after each of these and the
// pre-summer charges them the TLB-miss bound.
constexpr bool TouchesMemSeq(Opcode op) {
  return op == Opcode::kLoad || op == Opcode::kStore || op == Opcode::kStoreI ||
         op == Opcode::kPushR || op == Opcode::kPushI || op == Opcode::kPopR ||
         op == Opcode::kPushSeg || op == Opcode::kPopSeg;
}

// One fetch-aligned 16-byte slot of a decoded page, annotated with the
// precomputed execution info described above.
struct DecodedInsn {
  enum class State : u8 {
    kDecoded,      // insn holds the decoded instruction
    kUndecodable,  // bytes do not decode; executing here is #UD
    kBusError,     // slot extends past physical memory; fault_offset is the
                   // offset of the first out-of-range byte within the slot
  };
  State state = State::kUndecodable;
  u8 fault_offset = 0;
  // --- Precomputed operand info (valid when state == kDecoded) --------------
  u8 seg_idx = 2;       // resolved data-segment register index (override rule)
  bool is_stack = false;  // resolved segment is SS (stack-fault semantics)
  // --- Threaded dispatch / superblock metadata ------------------------------
  u16 dispatch = kDispatchUndecodable;  // handler index for Cpu::RunBlock
  u8 run_len = 1;       // straight-line slots executable from here (>= 1)
  u32 cost = 1;         // base retire cost from the CPU's cost table
  u32 run_cost_max = 0; // pre-summed cycle upper bound for the whole run
  // --- Hot-trace tier (mutated by the CPU, reset with the page) -------------
  u16 hot = 0;          // run-head visits seen; promotion counter
  u16 trace = kTraceNone;  // index into Page::traces, or a kTrace* sentinel
  Insn insn;
};

// Fills the precomputed per-instruction execution info of a *decoded* slot
// (dispatch index, resolved segment, retire cost). Shared by the page
// builder and the CPU's slow fetch path, so the scratch instruction a
// non-aligned fetch decodes carries exactly the same annotations as a
// cached slot.
void FillExecInfo(DecodedInsn& d, const CycleModel::CostTable& costs);

class DecodeCache : public PhysicalMemory::WriteObserver {
 public:
  static constexpr u32 kSlotsPerPage = kPageSize / kInsnSize;
  // Above this many cached pages the whole cache is retired; a runaway
  // working set (pathological for a 32-bit guest) cannot exhaust host memory.
  static constexpr u32 kMaxPages = 1024;
  // Cap on instructions per basic-block run. Bounds the worst-case latency
  // between two boundary checks in the block engine and keeps the pre-summed
  // cost a tight bound.
  static constexpr u32 kMaxBlockInsns = 64;

  struct Page {
    std::array<DecodedInsn, kSlotsPerPage> slots;
    // Lowered hot-loop traces, indexed by DecodedInsn::trace of the loop's
    // head slot. Owned by the page: every invalidation source (write
    // observer, frame eviction, capacity retirement, cost-model rebuild)
    // demotes the page's traces by killing the page itself. Like the page,
    // a trace stays allocated until the next GetOrBuild, so a store that
    // retires the currently-executing trace cannot free it mid-run.
    std::vector<std::unique_ptr<Trace>> traces;
  };

  struct Stats {
    u64 builds = 0;              // pages decoded
    u64 write_invalidations = 0; // pages killed by a write that changed a
                                 // decode, or by EvictFrame
    u64 writes_kept = 0;         // writes to a cached page that left it live
    u64 evictions = 0;           // pages dropped by the capacity cap
  };

  // `pm` is the memory the cache decodes from and observes (the owner
  // registers the cache as its write observer); it must outlive the cache.
  explicit DecodeCache(const PhysicalMemory& pm) : pm_(pm) {}

  // The cost table used to annotate decoded slots (the CPU's, rebuilt on
  // set_cycle_model). Must be set before GetOrBuild; the pointee must
  // outlive the cache's pages — call InvalidateAll when it is rebuilt.
  void set_cost_table(const CycleModel::CostTable* costs) { costs_ = costs; }

  // Returns the decoded image of the page at physical `frame` (page-aligned),
  // building it on first use. The pointer stays valid until the *next* call
  // to GetOrBuild — invalidated pages are retired, not freed, so an
  // instruction that modifies its own page keeps a live decode of itself
  // until the CPU fetches again. Non-const: the CPU's trace tier bumps
  // per-slot hotness counters and attaches lowered traces in place.
  Page* GetOrBuild(u32 frame);

  // PhysicalMemory::WriteObserver: judges every cached page the write
  // touches, each on its own (WriteTouchedCode): the page dies only if a
  // touched slot now decodes differently. O(1) per untracked page (a bitmap
  // probe); inline so the CPU's store fast path pays only the probe, not a
  // call, per store.
  void OnPhysicalWrite(u32 addr, u32 len) override {
    if (len == 0) return;
    const u32 first = PageNumber(addr);
    const u32 last = PageNumber(addr + len - 1);
    for (u32 pfn = first; pfn <= last; ++pfn) {
      if (pfn < has_code_.size() && has_code_[pfn] != 0) WriteTouchedCode(pfn, addr, len);
    }
  }

  // Explicit eviction for a frame being repurposed (e.g. freed back to the
  // kernel's frame allocator). Unconditional, like InvalidateAll and the
  // capacity cap: none of them look at the bytes.
  void EvictFrame(u32 frame);

  // Retires every cached page (cost-model change: the per-slot cost
  // annotations are stale).
  void InvalidateAll();

  // Bumped whenever any cached page dies; consumers holding a Page* compare
  // generations before dereferencing.
  u64 generation() const { return generation_; }

  // Direct view of the has-code bitmap for the trace executor's store fast
  // path: a zero byte proves OnPhysicalWrite would be a no-op for that page,
  // so the post-store generation re-check can be skipped entirely. The
  // pointer is stable across a trace call — only Populate (instruction
  // fetch, never inside a trace) grows the vector.
  const u8* has_code_data() const { return has_code_.data(); }
  u32 has_code_pages() const { return static_cast<u32>(has_code_.size()); }

  const Stats& stats() const { return stats_; }

 private:
  // Decodes the slot at physical `phys` from the bytes now in memory: state,
  // bus-error offset, instruction and the sentinel dispatch of a slot that
  // cannot execute. The one decoder behind both GetOrBuild and the write
  // check, so the two cannot disagree.
  void DecodeSlot(u32 phys, DecodedInsn* d) const;
  // A write touched cached page `pfn` somewhere in [addr, addr + len):
  // re-decodes the touched slots and retires the page if any differs from
  // its cached decode; otherwise counts the write as kept.
  void WriteTouchedCode(u32 pfn, u32 addr, u32 len);
  void Retire(u32 pfn);

  const PhysicalMemory& pm_;
  const CycleModel::CostTable* costs_ = nullptr;
  std::unordered_map<u32, std::unique_ptr<Page>> pages_;  // keyed by pfn
  std::vector<std::unique_ptr<Page>> retired_;  // freed on next GetOrBuild
  std::vector<u8> has_code_;                    // pfn -> has a live entry
  u64 generation_ = 0;
  Stats stats_;
};

}  // namespace palladium

#endif  // SRC_ISA_DECODE_CACHE_H_
