// Kernel-extension mechanism tests (paper Section 4.3): loading into SPL 1
// segments, protected invocation, confinement by segment limits and DPL
// checks, kernel services, shared data areas, multi-module segments,
// asynchronous extensions, and loads that fail without leaving anything
// behind.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/kernel_ext.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

class KextFixture : public ::testing::Test {
 protected:
  KextFixture() : kernel_(machine_), kext_(kernel_) {}

  u32 MustLoad(const std::string& name, const std::string& source,
               KextOptions options = KextOptions{}) {
    AssembleError aerr;
    auto obj = Assemble(AbiPrelude() + source, &aerr);
    EXPECT_TRUE(obj.has_value()) << aerr.ToString();
    std::string diag;
    auto id = kext_.LoadExtension(name, *obj, &diag, options);
    EXPECT_TRUE(id.has_value()) << diag;
    return id.value_or(0);
  }

  u32 Fn(const std::string& name) {
    auto id = kext_.FindFunction(name);
    EXPECT_TRUE(id.has_value()) << "no EFT entry: " << name;
    return id.value_or(0);
  }

  // Loads a module that must fail; returns the diagnostic.
  std::string MustFail(const std::string& source, KextOptions options = KextOptions{}) {
    AssembleError aerr;
    auto obj = Assemble(AbiPrelude() + source, &aerr);
    EXPECT_TRUE(obj.has_value()) << aerr.ToString();
    std::string diag;
    EXPECT_FALSE(kext_.LoadExtension("doomed", *obj, &diag, options).has_value());
    return diag;
  }

  // Dynamic GDT slots in use (extension segments, call gates).
  u32 DynamicGdtSlotsInUse() {
    u32 n = 0;
    for (u16 i = kGdtFirstDynamic; i < kernel_.gdt().size(); ++i) {
      if (kernel_.gdt().Get(i)->type != DescriptorType::kNull) ++n;
    }
    return n;
  }

  Machine machine_;
  Kernel kernel_;
  KernelExtensionManager kext_;
};

TEST_F(KextFixture, InvokeReturnsValue) {
  MustLoad("add", R"(
  .global add1
add1:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %eax
  add $1, %eax
  pop %ebp
  ret
)");
  auto r = kext_.Invoke(Fn("add:add1"), 41);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 42u);
  EXPECT_GT(r.cycles, 0u);
}

TEST_F(KextFixture, ExtensionUsesItsOwnData) {
  MustLoad("stateful", R"(
  .global bump
bump:
  ld counter, %eax
  add $1, %eax
  st %eax, counter
  ret
  .data
counter:
  .long 100
)");
  u32 f = Fn("bump");
  EXPECT_EQ(kext_.Invoke(f, 0).value, 101u);
  EXPECT_EQ(kext_.Invoke(f, 0).value, 102u);
  EXPECT_EQ(kext_.Invoke(f, 0).value, 103u);
}

TEST_F(KextFixture, SegmentLimitConfinesExtension) {
  // The segment is 1 MB; an access beyond the limit must fault and abort the
  // extension while the kernel survives (the paper's core safety claim).
  MustLoad("bad", R"(
  .global escape
escape:
  mov $0x00200000, %ebx    ; 2 MB: outside the 1 MB segment
  ld 0(%ebx), %eax
  ret
)");
  auto r = kext_.Invoke(Fn("escape"), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("#GP"), std::string::npos);
  EXPECT_TRUE(kext_.extension(1)->aborted);
  // Subsequent invocations of the aborted extension are refused.
  auto r2 = kext_.Invoke(Fn("escape"), 0);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("aborted"), std::string::npos);
}

TEST_F(KextFixture, JumpBeyondLimitFaults) {
  MustLoad("jmp_out", R"(
  .global jump_away
jump_away:
  mov $0x00300000, %eax
  jmp *%eax
)");
  auto r = kext_.Invoke(Fn("jump_away"), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("#GP"), std::string::npos);
}

TEST_F(KextFixture, CannotLoadKernelSegment) {
  // SPL 1 code loading the DPL 0 kernel data segment must #GP.
  MustLoad("seg_thief", R"(
  .global steal
steal:
  mov $16, %eax        ; kernel DS selector (index 2, RPL 0)
  mov %eax, %ds
  ret
)");
  auto r = kext_.Invoke(Fn("steal"), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("#GP"), std::string::npos);
}

TEST_F(KextFixture, SyscallFromExtensionAborts) {
  MustLoad("sneaky", R"(
  .global sneak
sneak:
  mov $SYS_WRITE, %eax
  int $INT_SYSCALL
  ret
)");
  auto r = kext_.Invoke(Fn("sneak"), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("system call"), std::string::npos);
}

TEST_F(KextFixture, InfiniteLoopHitsTimeLimit) {
  KextOptions opts;
  opts.cycle_limit = 50'000;
  MustLoad("looper", R"(
  .global spin
spin:
  jmp spin
)",
           opts);
  auto r = kext_.Invoke(Fn("spin"), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("time limit"), std::string::npos);
  EXPECT_GE(r.cycles, 50'000u);
}

TEST_F(KextFixture, PrintkServiceWorks) {
  MustLoad("hello", R"(
  .global say
say:
  mov $1, %eax          ; KSVC_PRINTK
  mov $msg, %ebx
  mov $5, %ecx
  int $INT_KSERVICE
  mov $77, %eax
  ret
  .data
msg:
  .asciz "hello"
)");
  auto r = kext_.Invoke(Fn("say"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 77u);
  EXPECT_EQ(kext_.printk_output(), "hello");
}

TEST_F(KextFixture, SharedDataAreaRoundTrip) {
  // Kernel writes input into pd_shared; extension transforms it in place;
  // kernel reads the result back — no copying through gates (Section 4.3).
  MustLoad("sharer", R"(
  .global sum_shared
sum_shared:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ecx      ; element count
  mov $pd_shared, %ebx
  mov $0, %eax
sum_loop:
  cmp $0, %ecx
  je sum_done
  ld 0(%ebx), %edx
  add %edx, %eax
  add $4, %ebx
  dec %ecx
  jmp sum_loop
sum_done:
  st %eax, pd_shared    ; result goes back through the shared area
  pop %ebp
  ret
  .data
  .global pd_shared
pd_shared:
  .space 256
)");
  u32 values[4] = {10, 20, 30, 40};
  ASSERT_TRUE(kext_.WriteShared(1, 0, values, sizeof(values)));
  auto r = kext_.Invoke(Fn("sum_shared"), 4);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 100u);
  u32 result = 0;
  ASSERT_TRUE(kext_.ReadShared(1, 0, &result, 4));
  EXPECT_EQ(result, 100u);
}

TEST_F(KextFixture, ModulesInSameSegmentShareSymbols) {
  u32 seg = MustLoad("base_mod", R"(
  .global shared_value
  .global get_value
get_value:
  ld shared_value, %eax
  ret
  .data
shared_value:
  .long 5
)");
  KextOptions opts;
  opts.into_segment = seg;
  MustLoad("second_mod", R"(
  .extern shared_value
  .global set_value
set_value:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %eax
  st %eax, shared_value
  pop %ebp
  ret
)",
           opts);
  ASSERT_TRUE(kext_.Invoke(Fn("set_value"), 1234).ok);
  auto r = kext_.Invoke(Fn("get_value"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 1234u);
}

TEST_F(KextFixture, SeparateSegmentsAreDisjoint) {
  // Two extensions in separate segments: all addresses are segment-relative,
  // so extension B dereferencing the numeric offset of A's secret reads its
  // *own* memory, never A's (disjoint linear ranges + limit checks).
  MustLoad("victim", R"(
  .global victim_get
victim_get:
  ld secret, %eax
  ret
  .data
  .global secret
secret:
  .long 0xCAFEBABE
)");
  const KernelExtensionManager::ExtensionState* victim = kext_.extension(1);
  ASSERT_NE(victim, nullptr);
  u32 secret_off = victim->symbols.at("secret");

  MustLoad("snoop", R"(
  .global snoop_read
snoop_read:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ebx      ; offset to probe
  ld 0(%ebx), %eax
  pop %ebp
  ret
  .data
pad:
  .long 0
)");
  auto r = kext_.Invoke(Fn("snoop_read"), secret_off);
  ASSERT_TRUE(r.ok) << r.error;  // within snoop's own limit: reads own memory
  EXPECT_NE(r.value, 0xCAFEBABEu);
  // And the victim still sees its secret intact.
  auto v = kext_.Invoke(Fn("victim_get"), 0);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.value, 0xCAFEBABEu);
}

TEST_F(KextFixture, AsyncQueueRunsToCompletion) {
  MustLoad("counter", R"(
  .global tally
tally:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %eax
  ld total, %ecx
  add %eax, %ecx
  st %ecx, total
  mov %ecx, %eax
  pop %ebp
  ret
  .data
  .global total
total:
  .long 0
)");
  u32 f = Fn("tally");
  EXPECT_TRUE(kext_.EnqueueAsync(f, 5));
  EXPECT_TRUE(kext_.EnqueueAsync(f, 7));
  EXPECT_TRUE(kext_.EnqueueAsync(f, 8));
  EXPECT_TRUE(kext_.IsBusy(1));
  EXPECT_EQ(kext_.DrainAsync(), 3u);
  EXPECT_FALSE(kext_.IsBusy(1));
  auto r = kext_.Invoke(f, 0);
  EXPECT_EQ(r.value, 20u);
}

TEST_F(KextFixture, FindFunctionQualifiedAndUnqualified) {
  MustLoad("alpha", ".global fn_a\nfn_a:\n  ret\n");
  MustLoad("beta", ".global fn_b\nfn_b:\n  ret\n");
  EXPECT_TRUE(kext_.FindFunction("alpha:fn_a").has_value());
  EXPECT_TRUE(kext_.FindFunction("fn_b").has_value());
  EXPECT_FALSE(kext_.FindFunction("fn_c").has_value());
  // Ambiguity: same function name in two extensions.
  MustLoad("gamma", ".global fn_a\nfn_a:\n  ret\n");
  EXPECT_FALSE(kext_.FindFunction("fn_a").has_value());
  EXPECT_TRUE(kext_.FindFunction("alpha:fn_a").has_value());
  EXPECT_TRUE(kext_.FindFunction("gamma:fn_a").has_value());
}

TEST_F(KextFixture, UnloadRemovesFunctions) {
  u32 id = MustLoad("temp", ".global f\nf:\n  ret\n");
  EXPECT_TRUE(kext_.FindFunction("f").has_value());
  kext_.UnloadExtension(id);
  EXPECT_FALSE(kext_.FindFunction("f").has_value());
  EXPECT_EQ(kext_.extension(id), nullptr);
}

TEST_F(KextFixture, InvokeFromUserProcessViaSyscall) {
  // The full Figure 4 path: user process -> INT 0x80 -> kernel -> extension
  // at SPL 1 -> kernel -> user process.
  MustLoad("svc", R"(
  .global triple
triple:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %eax
  mov %eax, %ecx
  add %ecx, %eax
  add %ecx, %eax
  pop %ebp
  ret
)");
  u32 fid = Fn("triple");
  std::string diag;
  auto img = AssembleAndLink(AbiPrelude() + R"(
  .global main
main:
  mov $SYS_INVOKE_KEXT, %eax
  mov $)" + std::to_string(fid) +
                                 R"(, %ebx
  mov $14, %ecx
  int $INT_SYSCALL
  mov %eax, %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                             kUserTextBase, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  Pid pid = kernel_.CreateProcess();
  ASSERT_TRUE(kernel_.LoadUserImage(pid, *img, "main", &diag)) << diag;
  RunResult r = kernel_.RunProcess(pid, 50'000'000);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 42);
}

TEST_F(KextFixture, SharedArgsSpanningPageBoundary) {
  // Protection-domain crossing under the data fast path: the kernel stages
  // an 8-byte argument pair positioned to straddle a page boundary of the
  // extension segment (WriteShared chunks the copy at the boundary), and the
  // SPL 1 extension reads it back across the same boundary through its
  // segment-relative addressing.
  MustLoad("spanner", R"(
  .global sum_pair
sum_pair:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ebx      ; byte offset of the pair within pd_shared
  mov $pd_shared, %esi
  add %esi, %ebx
  ld 0(%ebx), %eax
  ld 4(%ebx), %edx
  add %edx, %eax
  pop %ebp
  ret
  .data
  .global pd_shared
pd_shared:
  .space 8192
)");
  const KernelExtensionManager::ExtensionState* ext = kext_.extension(1);
  ASSERT_NE(ext, nullptr);
  ASSERT_TRUE(ext->shared_offset.has_value());
  const u32 shared_lin = ext->linear_base + *ext->shared_offset;
  // Place the pair so its two words sit on different pages.
  const u32 to_boundary = kPageSize - (shared_lin & kPageMask);
  const u32 off = to_boundary >= 4 ? to_boundary - 4 : to_boundary + kPageSize - 4;
  ASSERT_LT(off + 8, 8192u);
  const u32 pair[2] = {40, 2};
  ASSERT_TRUE(kext_.WriteShared(1, off, pair, sizeof(pair)));
  auto r = kext_.Invoke(Fn("sum_pair"), off);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 42u);
  // And the kernel reads the straddling block back unchanged.
  u32 readback[2] = {0, 0};
  ASSERT_TRUE(kext_.ReadShared(1, off, readback, sizeof(readback)));
  EXPECT_EQ(readback[0], 40u);
  EXPECT_EQ(readback[1], 2u);
}

TEST(DtlbRevocation, StoreThroughStaleEntryAfterKernelRevokesPage) {
  // The kernel revoking a page (munmap: PTE cleared through the editor hook,
  // frame freed) must invalidate any D-TLB entry for it: the process's next
  // store has to raise a page fault, never write the freed frame through a
  // stale host pointer. Identical with the fast path on or off.
  for (bool dtlb : {true, false}) {
    KernelFixture fx;
    fx.kernel().cpu().set_dtlb_enabled(dtlb);
    std::string diag;
    Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_MMAP, %eax
  mov $0x500000, %ebx
  mov $4096, %ecx
  mov $3, %edx          ; PROT_READ | PROT_WRITE
  int $INT_SYSCALL
  mov %eax, %edi        ; mapped address
  sti $0x1234, 0(%edi)  ; demand-map and warm the D-TLB entry
  ld 0(%edi), %esi
  mov $SYS_MUNMAP, %eax
  mov %edi, %ebx
  mov $4096, %ecx
  int $INT_SYSCALL
  sti $0x5678, 0(%edi)  ; stale store: the page was revoked
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
)",
                             &diag);
    ASSERT_NE(pid, 0u) << diag;
    RunResult r = fx.Run(pid);
    EXPECT_EQ(r.outcome, RunOutcome::kKilled) << "dtlb=" << dtlb;
    EXPECT_NE(r.kill_reason.find("#PF"), std::string::npos) << r.kill_reason;
  }
}

TEST_F(KextFixture, AbortedExtensionDoesNotCorruptKernelState) {
  MustLoad("ok_ext", ".global good\ngood:\n  mov $1, %eax\n  ret\n");
  MustLoad("bad_ext", R"(
  .global bad
bad:
  mov $0x00F00000, %ebx
  sti $0xDEAD, 0(%ebx)
  ret
)");
  EXPECT_FALSE(kext_.Invoke(Fn("bad"), 0).ok);
  // The healthy extension still works after the abort.
  auto r = kext_.Invoke(Fn("good"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 1u);
}

// Regression: UnloadExtension used to erase its EFT entries, silently
// shifting every later function id onto the wrong function — fatal for any
// live caller holding ids (the dataplane's FlowInfo does exactly that).
TEST_F(KextFixture, FunctionIdsSurviveEarlierUnload) {
  u32 a = MustLoad("first", ".global fa\nfa:\n  mov $11, %eax\n  ret\n");
  MustLoad("second", ".global fb\nfb:\n  mov $22, %eax\n  ret\n");
  const u32 fa = Fn("first:fa");
  const u32 fb = Fn("second:fb");
  kext_.UnloadExtension(a);
  // The surviving extension keeps its id and its binding.
  EXPECT_EQ(Fn("second:fb"), fb);
  auto r = kext_.Invoke(fb, 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 22u);
  // The dead extension's id is a tombstone: refused, never rebound.
  EXPECT_FALSE(kext_.FindFunction("first:fa").has_value());
  auto dead = kext_.Invoke(fa, 0);
  EXPECT_FALSE(dead.ok);
  EXPECT_NE(dead.error.find("no such extension function"), std::string::npos);
}

// Regression: UnloadExtension used to leak every mapped page and frame of
// the segment and never reclaim its slice of the kext region, so repeated
// load/unload cycles exhausted physical memory (64 MB / 1 MB segments).
TEST_F(KextFixture, RepeatedLoadUnloadReclaimsFramesAndRegion) {
  const u32 free_before = kernel_.frames().free_frames();
  u32 base0 = 0;
  for (int i = 0; i < 80; ++i) {
    const std::string name = "cycle" + std::to_string(i);
    u32 id = MustLoad(name, ".global f\nf:\n  mov $7, %eax\n  ret\n");
    const auto* st = kext_.extension(id);
    ASSERT_NE(st, nullptr);
    if (i == 0) {
      base0 = st->linear_base;
    } else {
      // First-fit reuse of the freed region, not fresh address space.
      EXPECT_EQ(st->linear_base, base0);
    }
    auto r = kext_.Invoke(Fn(name + ":f"), 0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value, 7u);
    kext_.UnloadExtension(id);
    ASSERT_EQ(kernel_.frames().free_frames(), free_before) << "iteration " << i;
  }
  // The unmapped segment is genuinely gone from the kernel address space.
  u32 tmp = 0;
  EXPECT_FALSE(kernel_.ReadKernelVirt(base0, &tmp, 4));
}

// Regression: reloading at a reused linear base must run the *new* image —
// a stale decode-cache or trace-tier entry from the unloaded extension would
// execute v1 code under v2's name. UnmapKernelPage's EvictFrameEverywhere +
// kernel-range shootdown pin this under every engine/D-TLB/SMP combination.
TEST_F(KextFixture, ReloadAtReusedBaseRunsNewCode) {
  u32 v1 = MustLoad("imgv1", ".global f1\nf1:\n  mov $1, %eax\n  ret\n");
  const u32 base = kext_.extension(v1)->linear_base;
  // Decode and run v1 (warm twice so the block engine caches it).
  EXPECT_EQ(kext_.Invoke(Fn("imgv1:f1"), 0).value, 1u);
  EXPECT_EQ(kext_.Invoke(Fn("imgv1:f1"), 0).value, 1u);
  kext_.UnloadExtension(v1);
  u32 v2 = MustLoad("imgv2", ".global f1\nf1:\n  mov $2, %eax\n  ret\n");
  ASSERT_EQ(kext_.extension(v2)->linear_base, base);
  auto r = kext_.Invoke(Fn("imgv2:f1"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 2u);
}

// A failed load leaves nothing behind: its fresh segment's frames, GDT
// slots and region all come back, and it counts as neither a load nor an
// unload. Linking fails only after the segment is mapped.
TEST_F(KextFixture, FailedLinkReleasesItsFreshSegment) {
  const u32 free_before = kernel_.frames().free_frames();
  const u32 slots_before = DynamicGdtSlotsInUse();
  const std::string diag = MustFail(".extern missing\n.global f\nf:\n  call missing\n  ret\n");
  EXPECT_NE(diag.find("link: unresolved symbol"), std::string::npos) << diag;
  EXPECT_EQ(kernel_.frames().free_frames(), free_before);
  EXPECT_EQ(DynamicGdtSlotsInUse(), slots_before);
  EXPECT_EQ(kext_.loads(), 0u);
  EXPECT_EQ(kext_.unloads(), 0u);
  const u32 id = MustLoad("next", ".global f\nf:\n  ret\n");
  EXPECT_EQ(kext_.extension(id)->linear_base, kKextRegionBase);
}

// Running out of frames partway through mapping the 256-page segment gives
// back the pages already mapped, the GDT slots and the region.
TEST_F(KextFixture, OutOfFramesMidSegmentLeavesNothing) {
  std::vector<u32> held;
  while (kernel_.frames().free_frames() > 100) held.push_back(kernel_.frames().Alloc());
  const u32 slots_before = DynamicGdtSlotsInUse();
  const std::string diag = MustFail(".global f\nf:\n  ret\n");
  EXPECT_NE(diag.find("out of frames"), std::string::npos) << diag;
  EXPECT_EQ(kernel_.frames().free_frames(), 100u);
  EXPECT_EQ(DynamicGdtSlotsInUse(), slots_before);
  EXPECT_EQ(kext_.loads(), 0u);
  EXPECT_EQ(kext_.unloads(), 0u);
  for (u32 frame : held) kernel_.frames().Free(frame);
  const u32 id = MustLoad("next", ".global f\nf:\n  ret\n");
  EXPECT_EQ(kext_.extension(id)->linear_base, kKextRegionBase);
}

// A module that fails to link into an existing segment leaves that segment,
// and the modules already in it, as they were.
TEST_F(KextFixture, FailedLinkIntoExistingSegmentKeepsIt) {
  const u32 seg = MustLoad("host", ".global get\nget:\n  mov $9, %eax\n  ret\n");
  const u32 free_before = kernel_.frames().free_frames();
  const u32 slots_before = DynamicGdtSlotsInUse();
  KextOptions opts;
  opts.into_segment = seg;
  const std::string diag =
      MustFail(".extern missing\n.global g\ng:\n  call missing\n  ret\n", opts);
  EXPECT_NE(diag.find("link: unresolved symbol"), std::string::npos) << diag;
  ASSERT_NE(kext_.extension(seg), nullptr);
  EXPECT_EQ(kernel_.frames().free_frames(), free_before);
  EXPECT_EQ(DynamicGdtSlotsInUse(), slots_before);
  auto r = kext_.Invoke(Fn("host:get"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 9u);
  EXPECT_EQ(kext_.loads(), 1u);
  EXPECT_EQ(kext_.unloads(), 0u);
}

// A module's transfer stubs fill the page below the extension stack, one
// per export: 128 fit, and a 129th export would put stubs inside the stack.
TEST_F(KextFixture, TooManyExportsForTheStubPageFailToLoad) {
  const u32 fit = kPageSize / KernelExtensionManager::kStubBytes;
  const auto exports = [](u32 n) {
    std::string src;
    for (u32 i = 0; i < n; ++i) {
      src += "  .global f" + std::to_string(i) + "\nf" + std::to_string(i) + ":\n  mov $" +
             std::to_string(i) + ", %eax\n  ret\n";
    }
    return src;
  };
  const u32 free_before = kernel_.frames().free_frames();
  const u32 slots_before = DynamicGdtSlotsInUse();
  const std::string diag = MustFail(exports(fit + 1));
  EXPECT_NE(diag.find("module does not fit"), std::string::npos) << diag;
  EXPECT_EQ(kernel_.frames().free_frames(), free_before);
  EXPECT_EQ(DynamicGdtSlotsInUse(), slots_before);
  EXPECT_EQ(kext_.loads(), 0u);

  const u32 id = MustLoad("wide", exports(fit));
  EXPECT_EQ(kext_.extension(id)->stub_bump,
            KernelExtensionManager::kSegmentSpan - KernelExtensionManager::kStackBytes);
  auto r = kext_.Invoke(Fn("wide:f" + std::to_string(fit - 1)), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, fit - 1);
}

// A module loaded into a shared segment must end below the stub page, not
// below the stubs allocated so far: one ending inside the first module's
// stub would overwrite it. A module ending exactly at the stub page fits.
TEST_F(KextFixture, ModuleIntoSharedSegmentMustEndBelowTheStubPage) {
  const u32 seg = MustLoad("host", ".global get\nget:\n  mov $9, %eax\n  ret\n");
  const u32 stub_base = KernelExtensionManager::kSegmentSpan -
                        KernelExtensionManager::kStackBytes - kPageSize;
  ASSERT_EQ(kext_.extension(seg)->stub_bump, stub_base + KernelExtensionManager::kStubBytes);
  // A module whose zeroed .bss makes it end exactly at `end`.
  const auto module_ending_at = [&](u32 end) {
    const std::string text = ".global g\ng:\n  mov $7, %eax\n  ret\n  .bss\n";
    AssembleError aerr;
    auto probe = Assemble(AbiPrelude() + text, &aerr);
    EXPECT_TRUE(probe.has_value()) << aerr.ToString();
    const KernelExtensionManager::ExtensionState* st = kext_.extension(seg);
    LinkError lerr;
    auto img = LinkImage(*probe, st->link_bump, st->symbols, &lerr);
    EXPECT_TRUE(img.has_value()) << lerr.message;
    const u32 pad = end - st->link_bump - img->TotalSpan();
    return text + "  .space " + std::to_string(pad) + "\n";
  };
  KextOptions opts;
  opts.into_segment = seg;
  const u32 free_before = kernel_.frames().free_frames();
  const std::string diag = MustFail(module_ending_at(stub_base + 16), opts);
  EXPECT_NE(diag.find("module does not fit"), std::string::npos) << diag;
  EXPECT_EQ(kernel_.frames().free_frames(), free_before);
  auto r = kext_.Invoke(Fn("host:get"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 9u);

  MustLoad("tail", module_ending_at(stub_base), opts);
  r = kext_.Invoke(Fn("host:get"), 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 9u);
  r = kext_.Invoke(Fn("host:g"), 0);  // a shared segment names entries after itself
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(kext_.loads(), 2u);
}

}  // namespace
}  // namespace palladium
