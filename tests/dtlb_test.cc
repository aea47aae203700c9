// Data fast path ("D-TLB") tests: the fast path is the TLB's own entries,
// read through their host pointers. Hit/miss accounting, conflict evictions,
// page-boundary-straddling accesses, write-to-read-only fault fidelity
// (error code and faulting address, on both the live-entry and the walk
// paths), invalidation on PTE edit / INVLPG / CR3 load — a page flush kills
// that page's entry alone — CPL revalidation on probe, segment-reload
// correctness, host-copy probes, and a protection-domain crossing whose
// call-gate parameter block spans a page boundary.
#include <gtest/gtest.h>

#include <string>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

// The fast path is this file's subject: force it on even when the suite
// runs under the PALLADIUM_NO_DTLB oracle switch.
struct DtlbMachine : BareMachine {
  DtlbMachine() { cpu().set_dtlb_enabled(true); }
};

StopInfo RunProgram(BareMachine& bm, const std::string& source, u8 cpl = 0) {
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  if (!img) return StopInfo{};
  bm.Start(*img->Lookup("main"), cpl, kStackTop);
  return bm.Run(10'000'000);
}

PageTableEditor EditorFor(BareMachine& bm) {
  return PageTableEditor(bm.pm(), bm.cpu().cr3(),
                         [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
}

TEST(DTlb, SteadyStateLoadsHitAfterOneFill) {
  DtlbMachine bm;
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x20000, %ebx
  mov $1000, %ecx
loop:
  ld 0(%ebx), %eax
  st %eax, 4(%ebx)
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)");
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  const auto& stats = bm.cpu().dtlb_stats();
  EXPECT_GT(stats.hits, 1900u);          // ~2000 accesses on one page
  EXPECT_LE(stats.misses, 8u);           // data page + stack, once each
  EXPECT_GT(stats.hits, stats.misses * 100);
}

TEST(DTlb, ConflictEvictionStaysCorrect) {
  // Two pages 64 pages apart share a TLB set; alternating accesses must
  // evict each other without ever reading stale data.
  DtlbMachine bm;
  bm.pm().Write32(0x200000, 0x11111111u);
  bm.pm().Write32(0x240000, 0x22222222u);  // 0x40000 = 64 pages later
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x200000, %ebx
  mov $0x240000, %esi
  mov $50, %ecx
loop:
  ld 0(%ebx), %eax
  ld 0(%esi), %edx
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)");
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 0x11111111u);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0x22222222u);
  EXPECT_GT(bm.cpu().tlb_stats().misses, 100u) << "every load should evict the other page";
}

TEST(DTlb, PageStraddlingAccessRoundTrip) {
  // A 4-byte store two bytes before a page boundary takes the per-byte path
  // and must behave exactly like partial accesses on consecutive pages.
  DtlbMachine bm;
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x20FFE, %ebx
  mov $0xA1B2C3D4, %eax
  st %eax, 0(%ebx)
  ld 0(%ebx), %ecx
  ld8 2(%ebx), %edx     ; first byte of next page: 0xB2
  ld16 1(%ebx), %esi    ; straddles: bytes 0xC3,0xB2 -> 0xB2C3
  hlt
)");
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEcx), 0xA1B2C3D4u);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0xB2u);
  EXPECT_EQ(bm.cpu().reg(Reg::kEsi), 0xB2C3u);
}

TEST(DTlb, StraddlingStorePartialCommitOnFaultMatchesOracle) {
  // A user store straddling into a read-only page commits the writable
  // page's bytes, then faults on the first read-only byte — identically with
  // the fast path on or off.
  for (bool dtlb : {true, false}) {
    BareMachine bm;
    bm.cpu().set_dtlb_enabled(dtlb);
    const u32 ro_page = 0x21000;
    ASSERT_TRUE(EditorFor(bm).UpdateFlags(ro_page, 0, kPteWrite));
    StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x20FFE, %ebx
  mov $0xCCDDEEFF, %eax
  st %eax, 0(%ebx)
  hlt
)",
                               /*cpl=*/3);
    ASSERT_EQ(stop.reason, StopReason::kFault);
    EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
    EXPECT_EQ(stop.fault.linear_address, ro_page) << "dtlb=" << dtlb;
    EXPECT_EQ(stop.fault.error_code, kPfErrPresent | kPfErrWrite | kPfErrUser);
    u8 committed[2] = {0, 0};
    ASSERT_TRUE(bm.pm().ReadBlock(0x20FFE, committed, 2));
    EXPECT_EQ(committed[0], 0xFFu);  // low bytes landed before the fault
    EXPECT_EQ(committed[1], 0xEEu);
    u8 ro_byte = 1;
    ASSERT_TRUE(bm.pm().ReadBlock(ro_page, &ro_byte, 1));
    EXPECT_EQ(ro_byte, 0u);  // read-only page untouched
  }
}

TEST(DTlb, WriteToReadOnlyFaultFidelityOnProbeHit) {
  // The read leaves a live TLB entry; the store finds it and must raise the
  // exact architectural fault, not write through the host pointer.
  DtlbMachine bm;
  const u32 ro_page = 0x22000;
  ASSERT_TRUE(EditorFor(bm).UpdateFlags(ro_page, 0, kPteWrite));
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x22008, %ebx
  ld 0(%ebx), %eax      ; leave a live entry (reads are legal)
  st %eax, 0(%ebx)      ; fault on that entry
  hlt
)",
                             /*cpl=*/3);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, 0x22008u);
  EXPECT_EQ(stop.fault.error_code, kPfErrPresent | kPfErrWrite | kPfErrUser);
  // The read missed once and left the entry; the store's fault on the live
  // entry counts as neither a hit nor a miss.
  EXPECT_EQ(bm.cpu().dtlb_stats().misses, 1u);
  EXPECT_EQ(bm.cpu().dtlb_stats().hits, 0u);
}

TEST(DTlb, WriteToReadOnlyFaultFidelityOnMiss) {
  DtlbMachine bm;
  const u32 ro_page = 0x22000;
  ASSERT_TRUE(EditorFor(bm).UpdateFlags(ro_page, 0, kPteWrite));
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $0x2200C, %ebx
  sti $7, 0(%ebx)       ; cold store: fault on the fill path
  hlt
)",
                             /*cpl=*/3);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, 0x2200Cu);
  EXPECT_EQ(stop.fault.error_code, kPfErrPresent | kPfErrWrite | kPfErrUser);
}

TEST(DTlb, CplRevalidationOnProbe) {
  // An entry primed at CPL 0 for a supervisor page must not serve CPL 3:
  // the probe rechecks the live CPL against the cached PTE flags.
  DtlbMachine bm;
  const u32 sup_page = 0x23000;
  ASSERT_TRUE(EditorFor(bm).UpdateFlags(sup_page, 0, kPteUser));
  bm.Start(kCodeBase, /*cpl=*/0, kStackTop);
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, sup_page + 4, 4, &v, &fault));

  bm.Start(kCodeBase, /*cpl=*/3, kStackTop);  // same machine, now user mode
  EXPECT_FALSE(bm.cpu().ReadVirt(SegReg::kDs, sup_page + 4, 4, &v, &fault));
  EXPECT_EQ(fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(fault.linear_address, sup_page + 4);
  EXPECT_EQ(fault.error_code, kPfErrPresent | kPfErrUser);
}

TEST(DTlb, InvalidationOnPteEdit) {
  // Remapping the linear page to a different frame through the editor hook
  // (the kernel's INVLPG analogue) must drop the cached host pointer.
  DtlbMachine bm;
  const u32 linear = 0x24000;
  const u32 alt_frame = 0x30000;
  bm.pm().Write32(linear, 0xAAAAAAAAu);
  bm.pm().Write32(alt_frame, 0xBBBBBBBBu);

  bm.Start(kCodeBase, 0, kStackTop);
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  EXPECT_EQ(v, 0xAAAAAAAAu);

  ASSERT_TRUE(EditorFor(bm).SetPte(linear, MakePte(alt_frame, kPtePresent | kPteWrite)));
  const u64 misses_before = bm.cpu().dtlb_stats().misses;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  EXPECT_EQ(v, 0xBBBBBBBBu);
  EXPECT_GT(bm.cpu().dtlb_stats().misses, misses_before);
}

TEST(DTlb, InvalidationOnCr3LoadAndInvlpg) {
  DtlbMachine bm;
  const u32 linear = 0x25000;
  bm.Start(kCodeBase, 0, kStackTop);
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  u64 misses = bm.cpu().dtlb_stats().misses;

  bm.cpu().LoadCr3(bm.cpu().cr3());  // task-switch analogue: full flush
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  EXPECT_GT(bm.cpu().dtlb_stats().misses, misses) << "CR3 load must kill the entry";
  misses = bm.cpu().dtlb_stats().misses;

  bm.cpu().tlb().FlushPage(linear);  // INVLPG analogue
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  EXPECT_GT(bm.cpu().dtlb_stats().misses, misses) << "INVLPG must kill the entry";

  // And a warm entry keeps hitting when nothing was invalidated.
  const u64 hits = bm.cpu().dtlb_stats().hits;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  EXPECT_GT(bm.cpu().dtlb_stats().hits, hits);
}

TEST(DTlb, PageFlushKillsOnlyThatPagesEntry) {
  // One translation cache: the INVLPG analogue drops page A's entry and
  // nothing else, so a warm page B stays on the fast path.
  DtlbMachine bm;
  const u32 page_a = 0x29000;
  const u32 page_b = 0x2A000;
  bm.Start(kCodeBase, 0, kStackTop);
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, page_a, 4, &v, &fault));
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, page_b, 4, &v, &fault));

  bm.cpu().tlb().FlushPage(page_a);
  const u64 hits = bm.cpu().dtlb_stats().hits;
  const u64 misses = bm.cpu().dtlb_stats().misses;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, page_b, 4, &v, &fault));
  EXPECT_EQ(bm.cpu().dtlb_stats().hits, hits + 1) << "page B's entry must survive";
  EXPECT_EQ(bm.cpu().dtlb_stats().misses, misses);
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, page_a, 4, &v, &fault));
  EXPECT_EQ(bm.cpu().dtlb_stats().misses, misses + 1) << "page A's entry must be gone";
}

TEST(DTlb, SegmentReloadUsesNewBase) {
  // The TLB is keyed on linear addresses: after DS is reloaded with a based
  // descriptor, the same offset must read the shifted location even though
  // the old linear page is still cached.
  DtlbMachine bm;
  bm.pm().Write32(0x26000, 0x01010101u);
  bm.pm().Write32(0x26000 + 0x2000, 0x02020202u);
  bm.Start(kCodeBase, 0, kStackTop);
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, 0x26000, 4, &v, &fault));
  EXPECT_EQ(v, 0x01010101u);

  bm.gdt().Set(BareMachine::kFirstFreeIdx,
               SegmentDescriptor::MakeData(0x2000, 0xFFFFFFFFu, 0));
  ASSERT_TRUE(bm.cpu().ForceSegment(
      SegReg::kDs, Selector::FromIndex(BareMachine::kFirstFreeIdx, 0)));
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, 0x26000, 4, &v, &fault));
  EXPECT_EQ(v, 0x02020202u);
}

TEST(DTlb, HostCopyProbesRequireWarmEntry) {
  DtlbMachine bm;
  bm.Start(kCodeBase, 0, kStackTop);
  const u32 linear = 0x27000;
  u32 buf = 0;
  // Cold: the probe-only host path declines and the caller must walk.
  EXPECT_FALSE(bm.cpu().HostCopy(linear, &buf, 4, /*to_guest=*/false));
  // Warm the page through an architectural access.
  Fault fault;
  u32 v = 0;
  ASSERT_TRUE(bm.cpu().ReadVirt(SegReg::kDs, linear, 4, &v, &fault));
  u32 payload = 0xFEEDFACEu;
  EXPECT_TRUE(bm.cpu().HostCopy(linear + 8, &payload, 4, /*to_guest=*/true));
  EXPECT_TRUE(bm.cpu().HostCopy(linear + 8, &buf, 4, /*to_guest=*/false));
  EXPECT_EQ(buf, 0xFEEDFACEu);
  u32 direct = 0;
  ASSERT_TRUE(bm.pm().Read32(linear + 8, &direct));
  EXPECT_EQ(direct, 0xFEEDFACEu);
  // Spans leaving the page are refused regardless of warmth.
  u8 big[8];
  EXPECT_FALSE(bm.cpu().HostCopy(linear + kPageSize - 4, big, 8, /*to_guest=*/false));
}

TEST(DTlb, FrameBeyondMemoryFallsBackWithOracleParity) {
  // A present PTE whose frame lies past the end of physical memory cannot be
  // host-mapped: the access must take the byte loop, raise the same bus
  // error, and record the same TLB statistics as the per-byte oracle.
  u64 hits[2], misses[2];
  Fault faults[2];
  for (int pass = 0; pass < 2; ++pass) {
    DtlbMachine bm;
    bm.cpu().set_dtlb_enabled(pass == 0);
    const u32 bad_linear = 0x28000;
    ASSERT_TRUE(EditorFor(bm).SetPte(bad_linear, MakePte(bm.pm().size(), kPtePresent | kPteWrite)));
    bm.Start(kCodeBase, 0, kStackTop);
    u32 v = 0;
    EXPECT_FALSE(bm.cpu().ReadVirt(SegReg::kDs, bad_linear + 4, 4, &v, &faults[pass]));
    hits[pass] = bm.cpu().tlb_stats().hits;
    misses[pass] = bm.cpu().tlb_stats().misses;
  }
  EXPECT_EQ(faults[0].vector, FaultVector::kGeneralProtection);
  EXPECT_EQ(faults[0].vector, faults[1].vector);
  EXPECT_EQ(faults[0].error_code, faults[1].error_code);
  EXPECT_EQ(hits[0], hits[1]) << "fast path recorded extra TLB hits";
  EXPECT_EQ(misses[0], misses[1]);
}

TEST(DTlb, GateParamCopySpanningPageBoundary) {
  // Protection-domain crossing with the parameter block straddling a page
  // boundary: the call gate's per-parameter copy (the trampoline's argument
  // copy) reads the outer stack across two pages and pushes onto the inner
  // stack, all on the data fast path.
  DtlbMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
  .global inner
main:
  mov $0x30FFC, %esp     ; params at 0x30FFC (page A) and 0x31000 (page B)
  sti $0x1111, 0(%esp)
  sti $0x2222, 4(%esp)
  lcall $)" + std::to_string(Selector::FromIndex(BareMachine::kFirstFreeIdx, 3).raw()) +
                                 R"(
inner:
  ld 8(%esp), %eax       ; first copied parameter
  ld 12(%esp), %edx      ; second copied parameter
  hlt
)",
                            kCodeBase, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.gdt().Set(BareMachine::kFirstFreeIdx,
               SegmentDescriptor::MakeCallGate(BareMachine::CodeSelector(0).raw(),
                                               *img->Lookup("inner"), /*dpl=*/3,
                                               /*param_count=*/2));
  bm.Start(*img->Lookup("main"), /*cpl=*/3, kStackTop);
  StopInfo stop = bm.Run(1'000'000);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 0x1111u);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0x2222u);
  EXPECT_EQ(bm.cpu().cpl(), 0u);
}

}  // namespace
}  // namespace palladium
