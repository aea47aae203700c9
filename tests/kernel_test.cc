// Kernel-model tests: process lifecycle, syscalls, demand paging, signals,
// fork/exec, and the Palladium syscalls (init_PL / set_range /
// set_call_gate) with their PPL side effects.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "src/hw/paging.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

TEST(KernelProcess, ExitCodePropagates) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_EXIT, %eax
  mov $42, %ebx
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 42);
}

TEST(KernelProcess, WriteToConsole) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_WRITE, %eax
  mov $msg, %ebx
  mov $5, %ecx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
  .data
msg:
  .asciz "hello"
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(fx.kernel().console(), "hello");
}

TEST(KernelProcess, GetPidReturnsPid) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_GETPID, %eax
  int $INT_SYSCALL
  mov %eax, %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.exit_code, static_cast<i32>(pid));
}

TEST(KernelProcess, UnknownSyscallReturnsENOENT) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $9999, %eax
  int $INT_SYSCALL
  mov %eax, %ebx        ; -2 (ENOENT)
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.exit_code, -2);
}

TEST(KernelMemory, DemandPagedStack) {
  KernelFixture fx;
  std::string diag;
  // Touch stack pages far below the initial page.
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov %esp, %ebx
  sub $0x8000, %ebx     ; 32 KB below
  sti $77, 0(%ebx)
  ld 0(%ebx), %ecx
  mov $SYS_EXIT, %eax
  mov %ecx, %ebx
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 77);
}

TEST(KernelMemory, BrkGrowsHeap) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_BRK, %eax
  mov $0, %ebx
  int $INT_SYSCALL      ; current brk
  mov %eax, %esi
  mov %eax, %ebx
  add $0x2000, %ebx
  mov $SYS_BRK, %eax
  int $INT_SYSCALL      ; extend by 8 KB
  sti $123, 0(%esi)     ; write into the new heap
  ld 0(%esi), %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 123);
}

// Shrinking the break gives the pages above the new end back: a store into
// a released heap page faults instead of landing in a frame that no area
// owns any more.
TEST(KernelMemory, BrkShrinkReleasesPages) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_BRK, %eax
  mov $0, %ebx
  int $INT_SYSCALL      ; current brk (page aligned: the heap starts empty)
  mov %eax, %esi
  mov %eax, %ebx
  add $0x2000, %ebx
  mov $SYS_BRK, %eax
  int $INT_SYSCALL      ; grow by two pages
  sti $5, 0(%esi)
  sti $6, 0x1000(%esi)
  mov %esi, %ebx
  add $0x1000, %ebx
  mov $SYS_BRK, %eax
  int $INT_SYSCALL      ; shrink by one page
  sti $7, 0x1000(%esi)  ; store into the released page
  ld 0x1000(%esi), %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kKilled) << "the released page stayed mapped";
  EXPECT_NE(r.kill_reason.find("#PF"), std::string::npos);
}

TEST(KernelMemory, MmapAndMunmap) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_MMAP, %eax
  mov $0, %ebx
  mov $0x3000, %ecx
  mov $3, %edx          ; PROT_READ|PROT_WRITE
  int $INT_SYSCALL
  mov %eax, %esi
  sti $55, 0x2FFC(%esi)
  ld 0x2FFC(%esi), %edi
  mov $SYS_MUNMAP, %eax
  mov %esi, %ebx
  mov $0x3000, %ecx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov %edi, %ebx
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 55);
}

// Maps two pages with `prot0`, touches the first with `touch` (an assembly
// line, or nothing), mprotects `mp_len` bytes from the start to `prot1`, runs
// `after`, and exits with mprotect's result.
std::string MprotectProgram(u32 prot0, const std::string& touch, u32 mp_len, u32 prot1,
                            const std::string& after) {
  return R"(
  .global main
main:
  mov $SYS_MMAP, %eax
  mov $0, %ebx
  mov $0x2000, %ecx
  mov $)" + std::to_string(prot0) + R"(, %edx
  int $INT_SYSCALL
  mov %eax, %esi
)" + touch + R"(
  mov $SYS_MPROTECT, %eax
  mov %esi, %ebx
  mov $)" + std::to_string(mp_len) + R"(, %ecx
  mov $)" + std::to_string(prot1) + R"(, %edx
  int $INT_SYSCALL
  mov %eax, %edi
)" + after + R"(
  mov $SYS_EXIT, %eax
  mov %edi, %ebx
  int $INT_SYSCALL
)";
}

RunResult RunMprotect(const std::string& source) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(source, &diag);
  EXPECT_NE(pid, 0u) << diag;
  return pid != 0 ? fx.Run(pid) : RunResult{};
}

// An area carries one protection, which demand paging gives every page it
// maps later, so mprotect of part of an area is refused: making only the
// first of two read-only pages writable must leave a store into the untouched
// second page faulting.
TEST(KernelMemory, MprotectOfPartOfAnAreaIsRefused) {
  RunResult r = RunMprotect(MprotectProgram(kProtRead, "", 0x1000, kProtRead | kProtWrite, ""));
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, static_cast<i32>(kErrInval));

  r = RunMprotect(MprotectProgram(kProtRead, "", 0x1000, kProtRead | kProtWrite,
                                  "  sti $1, 0x1000(%esi)"));
  EXPECT_EQ(r.outcome, RunOutcome::kKilled) << "the area stayed read-only";
  EXPECT_NE(r.kill_reason.find("#PF"), std::string::npos);
}

// Whole area, read-only to writable: the page a read already mapped has its
// PTE rewritten, the other is demand-paged writable, and both stores land.
TEST(KernelMemory, MprotectWholeAreaMakesItWritable) {
  const RunResult r = RunMprotect(MprotectProgram(kProtRead, "  ld 0(%esi), %eax", 0x2000,
                                                  kProtRead | kProtWrite, R"(
  sti $20, 0(%esi)
  sti $22, 0x1000(%esi)
  ld 0(%esi), %eax
  ld 0x1000(%esi), %edx
  add %eax, %edi
  add %edx, %edi)"));
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 42) << "mprotect returns 0, then 20 + 22";
}

// Whole area, writable to read-only: the page a store already mapped (and
// the TLB already holds) has its PTE rewritten, so the next store faults.
TEST(KernelMemory, MprotectWholeAreaMakesMappedPagesReadOnly) {
  const RunResult r = RunMprotect(MprotectProgram(kProtRead | kProtWrite, "  sti $7, 0(%esi)",
                                                  0x2000, kProtRead, "  sti $8, 0(%esi)"));
  EXPECT_EQ(r.outcome, RunOutcome::kKilled);
  EXPECT_NE(r.kill_reason.find("#PF"), std::string::npos);
}

TEST(KernelMemory, WildAccessKillsProcess) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $0x70000000, %ebx
  ld 0(%ebx), %eax
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kKilled);
  EXPECT_NE(r.kill_reason.find("#PF"), std::string::npos);
}

TEST(KernelMemory, UserCannotTouchKernelSpace) {
  KernelFixture fx;
  std::string diag;
  // 0xC0000000 is beyond the user segment limit: segment-level #GP.
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $0xC0000000, %ebx
  ld 0(%ebx), %eax
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kKilled);
  EXPECT_NE(r.kill_reason.find("#GP"), std::string::npos);
}

TEST(KernelSignals, HandlerRunsOnSegv) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_SIGACTION, %eax
  mov $11, %ebx
  mov $handler, %ecx
  int $INT_SYSCALL
  mov $0x70000000, %ebx  ; unmapped -> SIGSEGV
  ld 0(%ebx), %eax
  mov $SYS_EXIT, %eax    ; never reached
  mov $1, %ebx
  int $INT_SYSCALL
handler:
  mov $SYS_EXIT, %eax
  mov $99, %ebx
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 99);
  EXPECT_EQ(fx.kernel().process(pid)->signals.last_signal, kSigSegv);
}

TEST(KernelSignals, SigreturnResumesAfterKill) {
  KernelFixture fx;
  std::string diag;
  // kill(self, N) runs the handler, whose sigreturn resumes after the kill
  // syscall; the handler reads the signal number from its frame.
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_SIGACTION, %eax
  mov $5, %ebx
  mov $handler, %ecx
  int $INT_SYSCALL
  mov $SYS_KILL, %eax
  mov $5, %ebx
  int $INT_SYSCALL
  ; resumed here by sigreturn; %esi was set by the handler
  mov $SYS_EXIT, %eax
  mov %esi, %ebx
  int $INT_SYSCALL
handler:
  ld 4(%esp), %esi      ; signo argument
  ret                   ; into the sigreturn trampoline
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  // The handler's %esi write is lost by sigreturn's context restore, so the
  // exit code is the *saved* %esi (0). What we really assert is that
  // execution resumed cleanly after the kill syscall.
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(fx.kernel().process(pid)->signals.delivered_count, 1u);
  EXPECT_FALSE(fx.kernel().process(pid)->signals.in_handler);
}

TEST(KernelFork, ChildSeesZeroParentSeesPid) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_FORK, %eax
  int $INT_SYSCALL
  cmp $0, %eax
  je child
  ; parent: write "P", exit with child pid
  mov %eax, %esi
  mov $SYS_WRITE, %eax
  mov $pmsg, %ebx
  mov $1, %ecx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov %esi, %ebx
  int $INT_SYSCALL
child:
  mov $SYS_WRITE, %eax
  mov $cmsg, %ebx
  mov $1, %ecx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
  .data
pmsg:
  .asciz "P"
cmsg:
  .asciz "C"
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult parent = fx.Run(pid);
  EXPECT_EQ(parent.outcome, RunOutcome::kExited);
  Pid child_pid = static_cast<Pid>(parent.exit_code);
  ASSERT_NE(child_pid, 0u);
  RunResult child = fx.Run(child_pid);
  EXPECT_EQ(child.outcome, RunOutcome::kExited);
  EXPECT_EQ(child.exit_code, 0);
  EXPECT_EQ(fx.kernel().console(), "PC");
}

TEST(KernelFork, MemoryIsCopiedNotShared) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $counter, %ebx
  sti $10, 0(%ebx)
  mov $SYS_FORK, %eax
  int $INT_SYSCALL
  cmp $0, %eax
  je child
  mov $counter, %ebx    ; parent increments its copy
  ld 0(%ebx), %ecx
  add $1, %ecx
  st %ecx, 0(%ebx)
  mov $SYS_EXIT, %eax
  ld 0(%ebx), %ebx      ; 11
  int $INT_SYSCALL
child:
  mov $counter, %ebx    ; child still sees 10
  mov $SYS_EXIT, %eax
  ld 0(%ebx), %ebx
  int $INT_SYSCALL
  .data
counter:
  .long 0
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult parent = fx.Run(pid);
  ASSERT_EQ(parent.outcome, RunOutcome::kExited);
  EXPECT_EQ(parent.exit_code, 11);
  // Find the child (created after the parent).
  RunResult child = fx.Run(pid + 1);
  ASSERT_EQ(child.outcome, RunOutcome::kExited);
  EXPECT_EQ(child.exit_code, 10);
}

TEST(KernelPalladium, InitPlPromotesToSpl2) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  ; now at SPL 2; prove we can still make syscalls and run.
  mov $SYS_WRITE, %eax
  mov $msg, %ebx
  mov $2, %ecx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $7, %ebx
  int $INT_SYSCALL
  .data
msg:
  .asciz "ok"
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_EQ(fx.kernel().console(), "ok");
  Process* proc = fx.kernel().process(pid);
  EXPECT_EQ(proc->task_spl, 2);
  EXPECT_TRUE(proc->ppl_policy);
  EXPECT_NE(proc->pl2_stack_top, 0u);
}

TEST(KernelPalladium, InitPlMarksWritablePagesPpl0) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $data_page, %ebx
  sti $1, 0(%ebx)        ; materialize the data page (PPL 1 pre-init)
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
  .data
data_page:
  .long 0
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  Process* proc = fx.kernel().process(pid);
  RunResult r = fx.Run(pid);
  ASSERT_EQ(r.outcome, RunOutcome::kExited);
  auto data_addr = fx.image(pid).Lookup("data_page");
  ASSERT_TRUE(data_addr.has_value());
  auto pte = fx.kernel().GetPte(*proc, *data_addr);
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(*pte & kPtePresent);
  EXPECT_FALSE(*pte & kPteUser) << "writable page should be PPL 0 after init_PL";
  // Text pages stay PPL 1 (read-only).
  auto text_pte = fx.kernel().GetPte(*proc, kUserTextBase);
  ASSERT_TRUE(text_pte.has_value());
  EXPECT_TRUE(*text_pte & kPteUser);
}

TEST(KernelPalladium, SetRangeExposesPagesAtPpl1) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_MMAP, %eax
  mov $0, %ebx
  mov $0x2000, %ecx
  mov $3, %edx
  int $INT_SYSCALL
  mov %eax, %esi
  sti $9, 0(%esi)        ; materialize: PPL 0 under the policy
  mov $SYS_SET_RANGE, %eax
  mov %esi, %ebx
  mov $0x1000, %ecx      ; expose only the first page
  mov $1, %edx
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov %esi, %ebx         ; exit code = mmap base (for the test to find it)
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  ASSERT_EQ(r.outcome, RunOutcome::kExited);
  u32 base = static_cast<u32>(r.exit_code);
  Process* proc = fx.kernel().process(pid);
  auto pte0 = fx.kernel().GetPte(*proc, base);
  ASSERT_TRUE(pte0.has_value());
  EXPECT_TRUE(*pte0 & kPteUser) << "set_range page must be PPL 1";
  EXPECT_EQ(proc->page_ppl, (std::map<u32, u8>{{PageNumber(base), 1}}));
}

// Runs, in an SPL 2 process, an mmap of two pages with `prot` (base in
// %esi), a load from page 0 (mapping it), then `body`; returns the two
// pages' PTEs (0 when not mapped).
std::array<u32, 2> Spl2TwoPagePtes(u32 prot, const std::string& body) {
  KernelFixture fx;
  std::string diag;
  const Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_MMAP, %eax
  mov $0, %ebx
  mov $0x2000, %ecx
  mov $)" + std::to_string(prot) + R"(, %edx
  int $INT_SYSCALL
  mov %eax, %esi
  ld 0(%esi), %eax
)" + body + R"(
  mov $SYS_EXIT, %eax
  mov %esi, %ebx         ; exit code = mmap base (for the test to find it)
  int $INT_SYSCALL
)",
                                 &diag);
  EXPECT_NE(pid, 0u) << diag;
  if (pid == 0) return {};
  const RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited) << r.kill_reason;
  Process* proc = fx.kernel().process(pid);
  const u32 base = static_cast<u32>(r.exit_code);
  return {fx.kernel().GetPte(*proc, base).value_or(0),
          fx.kernel().GetPte(*proc, base + kPageSize).value_or(0)};
}

// mprotect RO -> RW in an SPL 2 process: the page a load already mapped at
// PPL 1 must drop to PPL 0 like the page demand paging maps afterwards, or
// SPL 3 extensions could write it.
TEST(KernelPalladium, MprotectToWritableGivesPpl0) {
  const std::array<u32, 2> ptes = Spl2TwoPagePtes(kProtRead, R"(
  mov $SYS_MPROTECT, %eax
  mov %esi, %ebx
  mov $0x2000, %ecx
  mov $)" + std::to_string(kProtRead | kProtWrite) + R"(, %edx
  int $INT_SYSCALL
  sti $1, 0(%esi)
  sti $2, 0x1000(%esi))");
  for (u32 pte : ptes) {
    EXPECT_EQ(pte & (kPtePresent | kPteWrite | kPteUser), kPtePresent | kPteWrite)
        << "expected a writable PPL 0 page";
  }
}

// set_range PPL 0 over a read-only area holds for the page mapped before it
// and for the page demand paging maps after it.
TEST(KernelPalladium, SetRangePpl0HoldsForLaterMappedPages) {
  const std::array<u32, 2> ptes = Spl2TwoPagePtes(kProtRead, R"(
  mov $SYS_SET_RANGE, %eax
  mov %esi, %ebx
  mov $0x2000, %ecx
  mov $0, %edx
  int $INT_SYSCALL
  ld 0x1000(%esi), %eax)");
  for (u32 pte : ptes) {
    EXPECT_EQ(pte & (kPtePresent | kPteWrite | kPteUser), kPtePresent) << "expected PPL 0";
  }
}

// set_range PPL 1 on a writable page that is not mapped yet: demand paging
// maps it at PPL 1, while its unshared neighbour gets the policy's PPL 0.
TEST(KernelPalladium, SetRangePpl1HoldsForLaterMappedPages) {
  const std::array<u32, 2> ptes = Spl2TwoPagePtes(kProtRead | kProtWrite, R"(
  mov $SYS_SET_RANGE, %eax
  mov %esi, %ebx
  add $0x1000, %ebx
  mov $0x1000, %ecx
  mov $1, %edx
  int $INT_SYSCALL
  sti $1, 0x1000(%esi))");
  EXPECT_EQ(ptes[0] & (kPtePresent | kPteWrite | kPteUser), kPtePresent | kPteWrite);
  EXPECT_EQ(ptes[1] & (kPtePresent | kPteWrite | kPteUser),
            kPtePresent | kPteWrite | kPteUser);
}

TEST(KernelPalladium, SetRangeRejectsUnalignedRange) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SET_RANGE, %eax
  mov $0x08048100, %ebx  ; unaligned
  mov $0x1000, %ecx
  mov $1, %edx
  int $INT_SYSCALL
  mov %eax, %ebx         ; expect -22 (EINVAL)
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.exit_code, -22);
}

TEST(KernelPalladium, SetRangeRequiresSpl2) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_SET_RANGE, %eax
  mov $0x08048000, %ebx
  mov $0x1000, %ecx
  mov $1, %edx
  int $INT_SYSCALL
  mov %eax, %ebx         ; expect -1 (EPERM)
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.exit_code, -1);
}

TEST(KernelPalladium, SetCallGateAllocatesGate) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SET_CALL_GATE, %eax
  mov $service, %ebx
  int $INT_SYSCALL
  mov %eax, %ebx        ; gate selector
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
service:
  ret
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  ASSERT_EQ(r.outcome, RunOutcome::kExited);
  Selector gate_sel(static_cast<u16>(r.exit_code));
  const SegmentDescriptor* gate = fx.kernel().gdt().Get(gate_sel.index());
  ASSERT_NE(gate, nullptr);
  EXPECT_EQ(gate->type, DescriptorType::kCallGate);
  EXPECT_EQ(gate->dpl, 3);
  EXPECT_EQ(Selector(gate->gate_selector).index(), kGdtAppCs);
}

TEST(KernelPalladium, TaskSplInheritedAcrossForkNotExec) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SET_RANGE, %eax
  mov $0x08048000, %ebx  ; the first text page at PPL 0
  mov $0x1000, %ecx
  mov $0, %edx
  int $INT_SYSCALL
  mov $SYS_FORK, %eax
  int $INT_SYSCALL
  mov %eax, %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  ASSERT_EQ(r.outcome, RunOutcome::kExited);
  Pid child_pid = static_cast<Pid>(r.exit_code);
  ASSERT_NE(child_pid, 0u);
  Process* child = fx.kernel().process(child_pid);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->task_spl, 2) << "taskSPL inherited across fork";
  EXPECT_TRUE(child->ppl_policy);
  const Process* parent = fx.kernel().process(pid);
  EXPECT_EQ(parent->page_ppl, (std::map<u32, u8>{{PageNumber(0x08048000), 0}}));
  EXPECT_EQ(child->page_ppl, parent->page_ppl) << "set_range choices inherited across fork";

  // exec resets to SPL 3.
  auto img = AssembleAndLink(AbiPrelude() + R"(
  .global main
main:
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
)",
                             kUserTextBase, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  ASSERT_TRUE(fx.kernel().ExecImage(child_pid, *img, "main", &diag)) << diag;
  EXPECT_EQ(child->task_spl, 3) << "taskSPL must not survive exec";
  EXPECT_FALSE(child->ppl_policy);
  EXPECT_TRUE(child->page_ppl.empty()) << "set_range choices must not survive exec";
  RunResult r2 = fx.Run(child_pid);
  EXPECT_EQ(r2.outcome, RunOutcome::kExited);
}

TEST(KernelPalladium, Spl2AppCanWriteItsPpl0Pages) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $buf, %ebx
  sti $0x5A, 0(%ebx)     ; write a PPL 0 page at SPL 2
  ld 0(%ebx), %ecx
  mov $SYS_EXIT, %eax
  mov %ecx, %ebx
  int $INT_SYSCALL
  .data
buf:
  .long 0
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 0x5A);
}

TEST(KernelBudget, CycleBudgetPreempts) {
  KernelFixture fx;
  std::string diag;
  Pid pid = fx.LoadProgram(R"(
  .global main
main:
loop:
  jmp loop
)",
                           &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = fx.Run(pid, 100'000);
  EXPECT_EQ(r.outcome, RunOutcome::kCycleLimit);
  // Resumable.
  RunResult r2 = fx.Run(pid, 100'000);
  EXPECT_EQ(r2.outcome, RunOutcome::kCycleLimit);
}

}  // namespace
}  // namespace palladium
