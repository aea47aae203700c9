// Preemptive-scheduler tests: round-robin interleaving under the hardware
// timer, voluntary yield, budget exhaustion with clean resume, the legacy
// RunProcess path staying intact alongside the scheduler, fork under the
// scheduler (causality on SMP, no half-built child on failure), a
// cross-CPU wake landing on the wakee's home vCPU, and the idle span that
// wake's causality snap books.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/kernel/sched.h"
#include "src/obs/profile.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

// A program that stamps a host-side log via syscall 232 between spin bursts,
// then exits with its stamp value.
std::string StamperSource(u32 stamp, u32 bursts, u32 burst_len) {
  return R"(
  .global main
main:
  mov $)" + std::to_string(bursts) + R"(, %edi
outer:
  mov $232, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
  mov $)" + std::to_string(burst_len) + R"(, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  dec %edi
  cmp $0, %edi
  jne outer
  mov $SYS_EXIT, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
)";
}

TEST(Sched, RoundRobinInterleavesTwoCpuBoundProcesses) {
  // Pinned to one vCPU: the assertion is uniprocessor time-slicing (on an
  // SMP machine each process gets its own core and nobody is preempted).
  KernelFixture f(/*num_cpus=*/1);
  Scheduler::Config scfg;
  scfg.slice_cycles = 30'000;
  Scheduler sched(f.kernel(), scfg);

  std::vector<u32> log;
  f.kernel().RegisterSyscall(232, [&](Kernel& k, u32 ebx, u32, u32) {
    log.push_back(ebx);
    k.ReturnFromGate(0);
  });

  std::string diag;
  Pid a = f.LoadProgram(StamperSource(1, 40, 4'000), &diag);
  ASSERT_NE(a, 0u) << diag;
  Pid b = f.LoadProgram(StamperSource(2, 40, 4'000), &diag);
  ASSERT_NE(b, 0u) << diag;
  sched.AddProcess(a);
  sched.AddProcess(b);

  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(result.exited, 2u);
  EXPECT_EQ(result.killed, 0u);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(sched.stats().preemptions, 2u) << "timer preemption must have rotated the queue";

  // Interleaving: the stamp log must switch owners mid-stream (neither
  // process runs to completion before the other starts).
  u32 transitions = 0;
  for (size_t i = 1; i < log.size(); ++i) {
    if (log[i] != log[i - 1]) ++transitions;
  }
  EXPECT_GE(transitions, 3u) << "expected A/B alternation, got a serial run";
  EXPECT_EQ(f.kernel().process(a)->state, ProcessState::kExited);
  EXPECT_EQ(f.kernel().process(b)->state, ProcessState::kExited);
}

TEST(Sched, YieldRotatesWithoutWaitingForSliceExpiry) {
  // Pinned to one vCPU: strict A/B rotation is a uniprocessor property.
  KernelFixture f(/*num_cpus=*/1);
  Scheduler::Config scfg;
  scfg.slice_cycles = 100'000'000;  // slices never expire on their own
  Scheduler sched(f.kernel(), scfg);

  std::vector<u32> log;
  f.kernel().RegisterSyscall(232, [&](Kernel& k, u32 ebx, u32, u32) {
    log.push_back(ebx);
    k.ReturnFromGate(0);
  });

  auto yielder = [](u32 stamp) {
    return R"(
  .global main
main:
  mov $6, %edi
loop:
  mov $232, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
  mov $222, %eax          ; SYS_YIELD
  int $0x80
  dec %edi
  cmp $0, %edi
  jne loop
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)";
  };
  std::string diag;
  Pid a = f.LoadProgram(yielder(1), &diag);
  ASSERT_NE(a, 0u) << diag;
  Pid b = f.LoadProgram(yielder(2), &diag);
  ASSERT_NE(b, 0u) << diag;
  sched.AddProcess(a);
  sched.AddProcess(b);
  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(result.exited, 2u);
  // Perfect alternation: 1,2,1,2,...
  ASSERT_EQ(log.size(), 12u);
  for (size_t i = 2; i < log.size(); ++i) {
    EXPECT_EQ(log[i], log[i - 2]) << "yield must rotate strictly";
  }
  EXPECT_NE(log[0], log[1]);
}

TEST(Sched, BudgetExhaustionSavesStateAndResumes) {
  KernelFixture f;
  Scheduler sched(f.kernel());
  std::string diag;
  Pid pid = f.LoadProgram(StamperSource(9, 50, 20'000), &diag);
  ASSERT_NE(pid, 0u) << diag;
  sched.AddProcess(pid);

  auto first = sched.RunAll(100'000);
  EXPECT_TRUE(first.budget_exhausted);
  EXPECT_EQ(first.exited, 0u);
  ASSERT_EQ(f.kernel().process(pid)->state, ProcessState::kRunnable);

  auto second = sched.RunAll(~0ull);
  EXPECT_EQ(second.exited, 1u);
  EXPECT_EQ(f.kernel().process(pid)->exit_code, 9);
}

TEST(Sched, RunProcessStillWorksWithSchedulerAttached) {
  // The legacy single-process entry point must coexist with the scheduler
  // machinery (timer IRQs fire, watchdog runs, no preemption happens).
  KernelFixture f;
  Scheduler sched(f.kernel());
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $123456, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  mov $5, %ebx
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 5);
  EXPECT_GT(f.kernel().pic().delivered(kIrqTimer), 0u) << "timer IRQs were live";
}

TEST(Sched, CooperativeWatchdogUnchangedWithoutInterrupts) {
  // With no scheduler and no EnableTimerInterrupts, RunProcess must behave
  // exactly as before: kCycleLimit on budget exhaustion, no IRQ machinery.
  KernelFixture f;
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $100000000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid, 500'000);
  EXPECT_EQ(r.outcome, RunOutcome::kCycleLimit);
  EXPECT_EQ(f.kernel().pic().delivered(kIrqTimer), 0u);
  EXPECT_EQ(f.kernel().process(pid)->state, ProcessState::kRunnable);
}

// Fork causality on SMP: the child is queued on the forking vCPU, stamped
// with the clock at fork return, so even an idle sibling that steals it
// cannot start it before the fork that created it. The parent spins, forks,
// and both sides then make the same logging syscall; a sibling process on
// vCPU 1 exits early (the idle core's clock lags the fork) or late (it is
// still busy when the fork returns).
TEST(Sched, ForkChildNeverStartsBeforeItsFork) {
  for (const u32 sibling_spin : {100u, 1'000u, 2'000u, 4'000u}) {
    SCOPED_TRACE("sibling spin " + std::to_string(sibling_spin));
    KernelFixture f(/*num_cpus=*/2);
    Scheduler sched(f.kernel());
    std::map<Pid, u64> first_log;  // pid -> cycle of its first logging syscall
    f.kernel().RegisterSyscall(232, [&](Kernel& k, u32, u32, u32) {
      first_log.emplace(k.current()->pid, k.cpu().cycles());
      k.ReturnFromGate(0);
    });

    std::string diag;
    Pid parent = f.LoadProgram(R"(
  .global main
main:
  mov $300, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_FORK, %eax
  int $0x80
  mov $232, %eax
  int $0x80
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)",
                               &diag);
    ASSERT_NE(parent, 0u) << diag;
    Pid sibling = f.LoadProgram(R"(
  .global main
main:
  mov $)" + std::to_string(sibling_spin) + R"(, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)",
                                &diag);
    ASSERT_NE(sibling, 0u) << diag;
    sched.AddProcess(parent, /*home_cpu=*/0);
    sched.AddProcess(sibling, /*home_cpu=*/1);

    auto result = sched.RunAll(1'000'000'000ull);
    EXPECT_EQ(result.exited, 3u);
    EXPECT_FALSE(result.budget_exhausted);
    const Pid child = sibling + 1;  // pids are handed out in creation order
    ASSERT_EQ(first_log.count(parent), 1u);
    ASSERT_EQ(first_log.count(child), 1u) << "the fork child never ran";
    EXPECT_GE(first_log[child], first_log[parent])
        << "the child ran before the fork that created it returned";
  }
}

// A fork that runs out of frames mid-copy fails with kErrNoMem and leaves no
// half-built child: its frames return to the allocator, no other process
// is ever dispatched, and RunAll completes instead of reporting a runnable
// process it cannot place. A 2 MB machine has 254 free frames after boot;
// the parent touches more pages than half of that, so the copy cannot fit.
TEST(Sched, ForkOutOfFramesLeavesNoHalfBuiltChild) {
  constexpr u32 kTouchedPages = 160;
  Machine machine(MachineConfig{2u << 20, CycleModel::Measured(), /*num_cpus=*/2});
  Kernel kernel(machine);
  Scheduler sched(kernel);
  std::vector<Pid> log_pids;
  std::vector<u32> free_frames;
  kernel.RegisterSyscall(232, [&](Kernel& k, u32, u32, u32) {
    log_pids.push_back(k.current()->pid);
    free_frames.push_back(k.frames().free_frames());
    k.ReturnFromGate(0);
  });

  std::string diag;
  auto img = AssembleAndLink(AbiPrelude() + R"(
  .global main
main:
  mov $SYS_MMAP, %eax
  mov $0, %ebx
  mov $)" + std::to_string(kTouchedPages * kPageSize) + R"(, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %esi
  mov $)" + std::to_string(kTouchedPages) + R"(, %ecx
touch:
  st %ecx, 0(%esi)
  add $4096, %esi
  dec %ecx
  cmp $0, %ecx
  jne touch
  mov $232, %eax
  int $0x80
  mov $SYS_FORK, %eax
  int $0x80
  mov %eax, %esi
  mov $232, %eax
  int $0x80
  mov $SYS_EXIT, %eax
  mov %esi, %ebx
  int $0x80
)",
                             kUserTextBase, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  const Pid parent = kernel.CreateProcess();
  ASSERT_NE(parent, 0u);
  ASSERT_TRUE(kernel.LoadUserImage(parent, *img, "main", &diag)) << diag;
  sched.AddProcess(parent, /*home_cpu=*/0);

  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(static_cast<u32>(kernel.process(parent)->exit_code), kErrNoMem);
  EXPECT_EQ(result.exited, 1u);
  EXPECT_EQ(result.killed, 0u);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(sched.stats().context_switches, 1u) << "only the parent ever ran";
  EXPECT_EQ(log_pids, (std::vector<Pid>{parent, parent}));
  ASSERT_EQ(free_frames.size(), 2u);
  EXPECT_EQ(free_frames[1], free_frames[0]) << "the failed fork leaked frames";
  EXPECT_EQ(kernel.process(parent + 1), nullptr) << "the half-built child is still listed";
}

// A wake from vCPU 0 queues the process on its home vCPU 1. A repeat wake
// finds it already queued and does nothing, and an idle home core gets no
// resched IPI: RunAll dispatches it there directly. vCPU 0 has a process of
// its own, so it has no reason to steal the wakee; a second queue entry for
// the wakee would be stolen while it runs on vCPU 1.
TEST(Sched, CrossCpuWakeQueuesOnHomeCpu) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  Scheduler sched(k);
  const std::string exit_source = R"(
  .global main
main:
  mov $SYS_EXIT, %eax
  mov $7, %ebx
  int $0x80
)";
  std::string diag;
  const Pid pid = f.LoadProgram(exit_source, &diag);
  ASSERT_NE(pid, 0u) << diag;
  Process* proc = k.process(pid);
  ASSERT_NE(proc, nullptr);
  proc->home_cpu = 1;
  const Pid own = f.LoadProgram(exit_source, &diag);
  ASSERT_NE(own, 0u) << diag;
  sched.AddProcess(own, /*home_cpu=*/0);

  f.machine().set_current_cpu(0);
  sched.OnWake(pid);
  EXPECT_TRUE(proc->sched_queued);
  EXPECT_EQ(proc->home_cpu, 1u);
  sched.OnWake(pid);
  EXPECT_TRUE(proc->sched_queued);
  EXPECT_EQ(k.pic(1).raised(kIrqIpiResched), 0u) << "an idle home core needs no kick";

  const Scheduler::RunAllResult result = sched.RunAll(50'000'000);
  EXPECT_EQ(result.exited, 2u);
  EXPECT_EQ(k.process(pid)->exit_code, 7);
  EXPECT_EQ(sched.cpu_stats(1).context_switches, 1u) << "the wakee runs on its home vCPU";
  EXPECT_EQ(sched.stats().steals, 0u);
}

// vCPU 0 spins, then wakes a process homed on vCPU 1, which has been parked
// at cycle 0 all along. Dispatch snaps vCPU 1's clock forward to the wake's
// stamp, and that span is idle time on vCPU 1: the scheduler's idle_cycles
// (which obs::BusyCycles subtracts) must book it exactly as the cycle
// profiler does, or busy time reads high by the whole snap.
TEST(Sched, CausalitySnapCountsAsIdle) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  obs::CycleProfile prof;
  prof.Reset(2, f.machine().cpu(0).cycle_model().tlb_miss_penalty);
  k.AttachObservability(nullptr, &prof);
  Scheduler sched(k);
  std::string diag;
  const Pid wakee = f.LoadProgram(R"(
  .global main
main:
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)",
                                  &diag);
  ASSERT_NE(wakee, 0u) << diag;
  k.process(wakee)->home_cpu = 1;
  k.RegisterSyscall(232, [&](Kernel& kk, u32, u32, u32) {
    sched.OnWake(wakee);
    kk.ReturnFromGate(0);
  });
  const Pid waker = f.LoadProgram(R"(
  .global main
main:
  mov $3000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $232, %eax
  int $0x80
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)",
                                  &diag);
  ASSERT_NE(waker, 0u) << diag;
  sched.AddProcess(waker, /*home_cpu=*/0);

  const Scheduler::RunAllResult result = sched.RunAll(50'000'000);
  EXPECT_EQ(result.exited, 2u);
  EXPECT_EQ(sched.cpu_stats(1).context_switches, 1u) << "the wakee runs on its home vCPU";
  EXPECT_GT(prof.BucketTotal(obs::Category::kIdle), 8'000u) << "vCPU 1 lagged the wake";
  EXPECT_EQ(sched.stats().idle_cycles, prof.BucketTotal(obs::Category::kIdle));
}

}  // namespace
}  // namespace palladium
