// Decoded-instruction cache tests: self-modifying code through simulated
// stores and host writes, kernel-style page remaps, fetch-fault fidelity,
// and cache reuse. These pin down the invalidation contract of the fetch
// fast path: stale decodes must never execute, a write retires a decoded
// page exactly when a slot it touched now decodes differently, and fetch
// faults must carry the exact faulting linear address.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/asm/assembler.h"
#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

StopInfo RunProgram(BareMachine& bm, const std::string& source, u8 cpl = 0,
                    const char* entry = "main") {
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  if (!img) return StopInfo{};
  auto addr = img->Lookup(entry);
  EXPECT_TRUE(addr.has_value()) << "no symbol " << entry;
  bm.Start(*addr, cpl, kStackTop);
  return bm.Run(10'000'000);
}

// The four 32-bit little-endian words of an encoded instruction, as `sti`
// immediates a simulated program can use to patch its own code.
std::array<u32, 4> InsnWords(const Insn& insn) {
  u8 raw[kInsnSize];
  insn.EncodeTo(raw);
  std::array<u32, 4> words{};
  std::memcpy(words.data(), raw, kInsnSize);
  return words;
}

// A program that executes its page (decoding it whole), then overwrites the
// instruction at `target` with `mov $42, %eax` via plain data stores, then
// falls through into the patched instruction. With a stale decode the run
// ends with EAX = 1; with correct invalidation it ends with EAX = 42.
TEST(DecodeCache, SelfModifyingStoreExecutesNewCode) {
  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 42;
  const auto w = InsnWords(patch);
  // Layout: slots 0-4 are mov+4 stores, so `target` sits at slot 5.
  const u32 target = kCodeBase + 5 * kInsnSize;
  char src[512];
  std::snprintf(src, sizeof(src), R"(
  .global main
main:
  mov $0x%x, %%ebx
  sti $0x%x, 0(%%ebx)
  sti $0x%x, 4(%%ebx)
  sti $0x%x, 8(%%ebx)
  sti $0x%x, 12(%%ebx)
target:
  mov $1, %%eax
  hlt
)",
                target, w[0], w[1], w[2], w[3]);

  BareMachine bm;
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 42u);
  const auto& stats = bm.cpu().decode_cache().stats();
  EXPECT_GE(stats.write_invalidations, 1u);  // the stores killed the page
  EXPECT_GE(stats.builds, 2u);               // ... and it was re-decoded
}

// Self-modifying store through the D-TLB fast path: the first store warms
// the D-TLB entry for the code page, so the patch stores execute on the
// inline hit path (host-pointer memcpy + direct decode-cache notification).
// The write observer must fire there too, or the stale decode of `target`
// would execute. This is the regression test for the fast-path/decode-cache
// coupling. Only the patch's imm word changes what `target` decodes to: the
// warm-up stores zeros over zeros and the other three patch words rewrite
// the bytes already there, so those four writes keep the page.
TEST(DecodeCache, DtlbFastPathStoreInvalidatesDecodedPage) {
  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 42;
  const auto w = InsnWords(patch);
  // Layout: slot 0 = mov, slot 1 = warm-up store, slots 2-5 = patch stores,
  // so `target` sits at slot 6.
  const u32 target = kCodeBase + 6 * kInsnSize;
  char src[640];
  std::snprintf(src, sizeof(src), R"(
  .global main
main:
  mov $0x%x, %%ebx
  sti $0, 0x700(%%ebx)   ; same code page: warms the D-TLB (zeros over zeros)
  sti $0x%x, 0(%%ebx)
  sti $0x%x, 4(%%ebx)
  sti $0x%x, 8(%%ebx)
  sti $0x%x, 12(%%ebx)
target:
  mov $1, %%eax
  hlt
)",
                target, w[0], w[1], w[2], w[3]);

  BareMachine bm;
  bm.cpu().set_dtlb_enabled(true);  // the fast path is the subject here
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 42u);
  // The patch stores must have hit the warm D-TLB entry...
  EXPECT_GE(bm.cpu().dtlb_stats().hits, 4u);
  // ...and the imm word, the one write that changed a decode, killed the
  // decoded page; it was rebuilt for the next fetch and the disp word,
  // stored after that, kept it.
  const auto& stats = bm.cpu().decode_cache().stats();
  EXPECT_EQ(stats.write_invalidations, 1u);
  EXPECT_EQ(stats.writes_kept, 4u);
  EXPECT_EQ(stats.builds, 2u);
}

// Stores into an undecodable slot of the page the loop runs from — the shape
// of a protected user call's stack-pointer slots next to its stubs — change
// data, never a decode. The page is built once, the generation never moves
// and the loop's trace, promoted once, keeps running: every engine keeps
// the page at every one of those writes.
TEST(DecodeCache, StoresIntoUndecodableSlotKeepPageAndTrace) {
  const std::string src = R"(
  .global main
main:
  mov $1000, %ecx
  mov $slots, %ebx
loop:
  st %ecx, 0(%ebx)       ; the opcode word of an all-zero slot: size 0 stays
  dec %ecx               ; undecodable whatever the counter is
  cmp $0, %ecx
  jne loop
  hlt
slots:
  .space 16
)";
  for (Engine engine : {Engine::kTrace, Engine::kBlock, Engine::kInsn}) {
    SCOPED_TRACE(static_cast<int>(engine));
    BareMachine bm;
    bm.cpu().set_engine(engine);
    ASSERT_EQ(RunProgram(bm, src).reason, StopReason::kHalted);
    const auto& stats = bm.cpu().decode_cache().stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.write_invalidations, 0u);
    EXPECT_EQ(stats.writes_kept, 1000u);
    EXPECT_EQ(bm.cpu().decode_cache().generation(), 0u);
    if (engine == Engine::kTrace) {
      const Cpu::TraceStats& trace = bm.cpu().trace_stats();
      EXPECT_EQ(trace.promotions, 1u);
      EXPECT_EQ(trace.calls, 1u) << "the trace must survive its own stores";
      EXPECT_GE(trace.entries, 900u);
    }
  }
}

// The other direction: stores fill two all-zero (undecodable) slots with
// `mov $42, %eax; hlt`, and a jump there runs them. Each word that changes a
// decode retires the page (a size byte making a slot decodable, the imm);
// the words that leave a decode as it was keep it.
TEST(DecodeCache, StoreThatMakesSlotDecodableExecutesIt) {
  Insn mov;
  mov.opcode = Opcode::kMovRI;
  mov.r1 = static_cast<u8>(Reg::kEax);
  mov.imm = 42;
  Insn hlt;
  hlt.opcode = Opcode::kHlt;
  const auto m = InsnWords(mov);
  const auto h = InsnWords(hlt);
  char src[1024];
  std::snprintf(src, sizeof(src), R"(
  .global main
main:
  mov $slots, %%ebx
  sti $0x%x, 0(%%ebx)    ; opcode word: size still 0, undecodable (kept)
  sti $0x%x, 4(%%ebx)    ; size 4: now `mov $0, %%eax` (retires)
  sti $0x%x, 8(%%ebx)    ; imm 42 (retires)
  sti $0x%x, 12(%%ebx)   ; disp 0 over 0 (kept)
  sti $0x%x, 16(%%ebx)   ; kept
  sti $0x%x, 20(%%ebx)   ; now `hlt` (retires)
  sti $0x%x, 24(%%ebx)   ; kept
  sti $0x%x, 28(%%ebx)   ; kept
  jmp slots
  mov $1, %%eax
  hlt
slots:
  .space 32
)",
                m[0], m[1], m[2], m[3], h[0], h[1], h[2], h[3]);
  for (Engine engine : {Engine::kTrace, Engine::kBlock, Engine::kInsn, Engine::kOracle}) {
    SCOPED_TRACE(static_cast<int>(engine));
    BareMachine bm;
    bm.cpu().set_engine(engine);
    ASSERT_EQ(RunProgram(bm, src).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEax), 42u);
    if (engine == Engine::kOracle) continue;  // no decode cache
    const auto& stats = bm.cpu().decode_cache().stats();
    EXPECT_EQ(stats.write_invalidations, 3u);
    EXPECT_EQ(stats.writes_kept, 5u);
    EXPECT_EQ(stats.builds, 4u);
  }
}

// A store straddling two slots: its first two bytes rewrite the zero disp of
// a `nop` with zeros, its last two turn the next slot's `mov $1, %ecx` into
// `add $1, %ecx`. Every slot a write touches is judged, not just the first.
TEST(DecodeCache, StoreSpanningTwoSlotsIsJudgedOnBoth) {
  static_assert(static_cast<u16>(Opcode::kAddRI) == 0x10, "the stored word encodes kAddRI");
  const std::string src = R"(
  .global main
main:
  mov $5, %ecx
  mov $0x100000, %eax
  st %eax, 0x1003e       ; bytes 14-15 of the nop, 0-1 of `target`
  nop
target:                  ; 0x10040
  mov $1, %ecx
  hlt
)";
  for (Engine engine : {Engine::kTrace, Engine::kBlock, Engine::kInsn, Engine::kOracle}) {
    SCOPED_TRACE(static_cast<int>(engine));
    BareMachine bm;
    bm.cpu().set_engine(engine);
    ASSERT_EQ(RunProgram(bm, src).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEcx), 6u);
    if (engine != Engine::kOracle) {
      EXPECT_EQ(bm.cpu().decode_cache().stats().write_invalidations, 1u);
    }
  }
}

// Host-side writes (kernel copy-in, loaders) are judged the same way: a
// byte-identical rewrite keeps the decoded page, a changed one retires it.
TEST(DecodeCache, HostWriteRetiresPageOnlyWhenCodeChanges) {
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $1, %eax
  hlt
)",
                            kCodeBase, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  const u32 main_addr = *img->Lookup("main");

  bm.Start(main_addr, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 1u);
  const DecodeCache& cache = bm.cpu().decode_cache();
  ASSERT_EQ(cache.stats().builds, 1u);

  // The loader writes the same image again: the page stays live.
  ASSERT_TRUE(bm.pm().WriteBlock(kCodeBase, img->bytes.data(),
                                 static_cast<u32>(img->bytes.size())));
  EXPECT_EQ(cache.stats().writes_kept, 1u);
  EXPECT_EQ(cache.stats().write_invalidations, 0u);
  EXPECT_EQ(cache.generation(), 0u);
  bm.Start(main_addr, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(cache.stats().builds, 1u) << "an identical rewrite must not rebuild";

  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 2;
  u8 raw[kInsnSize];
  patch.EncodeTo(raw);
  ASSERT_TRUE(bm.pm().WriteBlock(main_addr, raw, kInsnSize));
  EXPECT_EQ(cache.stats().write_invalidations, 1u);
  EXPECT_EQ(cache.generation(), 1u);

  bm.Start(main_addr, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
}

// One write straddling two decoded pages: its bytes on the first page are
// the ones already there, on the second they change a register field. Each
// page is judged on its own — the first stays live, the second is rebuilt.
TEST(DecodeCache, WriteStraddlingTwoPagesIsJudgedPerPage) {
  BareMachine bm;
  std::string diag;
  const u32 base = kCodeBase + kPageSize - 2 * kInsnSize;  // slots 254-255
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $1, %eax
  mov $2, %ebx
  mov $3, %ecx      ; first slot of the next page
  hlt
)",
                            base, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.Start(base, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  const DecodeCache& cache = bm.cpu().decode_cache();
  ASSERT_EQ(cache.stats().builds, 2u);

  // Bytes 8..15 of `mov $2, %ebx` and 0..7 of `mov $3, %ecx`, with the
  // latter's r1 turned to EDX.
  u8 span[kInsnSize];
  std::memcpy(span, img->bytes.data() + kInsnSize + 8, kInsnSize);
  span[8 + 3] = static_cast<u8>(Reg::kEdx);
  ASSERT_TRUE(bm.pm().WriteBlock(kCodeBase + kPageSize - 8, span, kInsnSize));
  EXPECT_EQ(cache.stats().writes_kept, 1u);
  EXPECT_EQ(cache.stats().write_invalidations, 1u);

  bm.Start(base, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 3u);
  EXPECT_EQ(cache.stats().builds, 3u) << "only the changed page is rebuilt";
}

// Kernel-style page remap: the same linear page is re-pointed at a different
// physical frame holding different code. The PTE edit (through the editor's
// invalidation hook, the kernel's INVLPG analogue) must drop the pinned
// fetch mapping; the decode of the *new* frame takes over.
TEST(DecodeCache, KernelRemapExecutesNewCode) {
  BareMachine bm;
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $1, %eax
  hlt
)");
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 1u);

  // Build the replacement code, linked for linear kCodeBase but living in a
  // different physical frame.
  const u32 alt_frame = 0x30000;
  std::string diag;
  auto alt = AssembleAndLink(R"(
  .global main
main:
  mov $2, %eax
  hlt
)",
                             kCodeBase, {}, &diag);
  ASSERT_TRUE(alt.has_value()) << diag;
  ASSERT_TRUE(bm.pm().WriteBlock(alt_frame, alt->bytes.data(),
                                 static_cast<u32>(alt->bytes.size())));

  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.SetPte(kCodeBase, MakePte(alt_frame, kPtePresent | kPteWrite | kPteUser)));

  bm.Start(kCodeBase, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 2u);
}

// A present PTE pointing past the end of physical memory: the fetch must
// surface a page fault carrying the instruction's linear address and the
// fetch (I/D) bit — not a detail-free #GP.
TEST(DecodeCache, FetchBeyondPhysicalMemoryIsFaithfulFault) {
  BareMachine bm;
  const u32 bad_linear = 0x700000;
  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.SetPte(bad_linear, MakePte(bm.pm().size(), kPtePresent | kPteWrite)));

  bm.Start(bad_linear, 0, kStackTop);
  StopInfo stop = bm.Run(1000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, bad_linear);
  EXPECT_TRUE(stop.fault.error_code & kPfErrFetch);
  EXPECT_TRUE(stop.fault.error_code & kPfErrPresent);
}

// A fetch that crosses into an unmapped page (possible with an unaligned CS
// base) must report the first unmapped byte as the faulting address.
TEST(DecodeCache, CrossPageFetchFaultReportsFaultingByte) {
  BareMachine bm;
  const u32 boundary = 0x601000;  // first byte of the unmapped page
  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.Unmap(boundary));

  // CS with base 8: linear fetches are misaligned, so the instruction at
  // EIP = boundary - 16 spans [boundary - 8, boundary + 8).
  bm.Start(0, 0, kStackTop);
  bm.gdt().Set(BareMachine::kFirstFreeIdx, SegmentDescriptor::MakeCode(8, 0xFFFFFFFFu, 0));
  ASSERT_TRUE(bm.cpu().ForceSegment(
      SegReg::kCs, Selector::FromIndex(BareMachine::kFirstFreeIdx, 0)));
  bm.cpu().set_eip(boundary - 16);

  StopInfo stop = bm.Run(1000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, boundary);
  EXPECT_FALSE(stop.fault.error_code & kPfErrPresent);
  EXPECT_TRUE(stop.fault.error_code & kPfErrFetch);  // I/D bit on walk faults too
}

// Steady-state execution decodes each text page exactly once.
TEST(DecodeCache, DecodedPageReusedAcrossRuns) {
  BareMachine bm;
  const std::string src = R"(
  .global main
main:
  mov $1000, %ecx
loop:
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  const u64 builds_after_first = bm.cpu().decode_cache().stats().builds;
  EXPECT_GE(builds_after_first, 1u);

  bm.Start(kCodeBase, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().decode_cache().stats().builds, builds_after_first);
}

}  // namespace
}  // namespace palladium
