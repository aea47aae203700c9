// Interrupt fabric tests: PIC latch/mask/ack/EOI semantics, timer and NIC
// device models, bare-machine interrupt delivery (including CPL 3 -> CPL 0
// stack switching and IF semantics), and the kernel-level nested-entry
// scenarios: an IRQ arriving inside a syscall, signal delivery during an
// interrupt-gate frame, and the timer watchdog asynchronously killing a
// looping kernel extension with clean TLB/D-TLB/decode-cache state after.
#include <gtest/gtest.h>

#include "src/core/kernel_ext.h"
#include "src/hw/bare_machine.h"
#include "src/hw/nic.h"
#include "src/hw/timer.h"
#include "src/kernel/sched.h"
#include "src/net/packet.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

// --- InterruptController ------------------------------------------------------

TEST(Pic, PriorityMaskAckEoi) {
  InterruptController pic(0x20);
  EXPECT_FALSE(pic.HasDeliverable());
  pic.Raise(5);
  pic.Raise(2);
  ASSERT_TRUE(pic.HasDeliverable());
  // Lowest IRQ number wins.
  EXPECT_EQ(pic.Acknowledge(), 0x22);
  // IRQ 2 in service blocks IRQ 5 (lower priority)...
  EXPECT_FALSE(pic.HasDeliverable());
  pic.Raise(1);
  // ...but not IRQ 1.
  EXPECT_EQ(pic.Acknowledge(), 0x21);
  pic.Eoi();  // retires IRQ 1
  EXPECT_FALSE(pic.HasDeliverable());
  pic.Eoi();  // retires IRQ 2
  EXPECT_EQ(pic.Acknowledge(), 0x25);
  pic.Eoi();

  pic.Raise(3);
  pic.SetMasked(3, true);
  EXPECT_FALSE(pic.HasDeliverable());
  pic.SetMasked(3, false);
  EXPECT_EQ(pic.Acknowledge(), 0x23);
}

TEST(Pic, CoalescesEdgesWhilePending) {
  InterruptController pic;
  pic.Raise(4);
  pic.Raise(4);
  pic.Raise(4);
  EXPECT_EQ(pic.raised(4), 3u);
  EXPECT_EQ(pic.Acknowledge(), 0x24);
  pic.Eoi();
  EXPECT_FALSE(pic.HasDeliverable()) << "three edges -> one delivery";
  EXPECT_EQ(pic.delivered(4), 1u);
}

TEST(Pic, AutoEoiNeverBlocks) {
  InterruptController pic;
  pic.set_auto_eoi(true);
  pic.Raise(7);
  EXPECT_EQ(pic.Acknowledge(), 0x27);
  pic.Raise(7);
  EXPECT_EQ(pic.Acknowledge(), 0x27) << "no in-service bit in auto-EOI mode";
}

// --- Timer -------------------------------------------------------------------

TEST(Timer, PeriodicTicksCoalesceWhileUnserviced) {
  InterruptController pic;
  IrqHub hub(pic);
  IntervalTimer timer(pic, 0);
  hub.AddDevice(&timer);
  EXPECT_EQ(timer.next_event(), IrqDevice::kIdle);
  timer.Program(100, 50);
  EXPECT_EQ(timer.next_event(), 150u);
  timer.Advance(149);
  EXPECT_EQ(timer.ticks(), 0u);
  timer.Advance(150);
  EXPECT_EQ(timer.ticks(), 1u);
  EXPECT_EQ(timer.next_event(), 250u);
  // A long blocked stretch: every elapsed period ticks, edges coalesce.
  timer.Advance(1000);
  EXPECT_EQ(timer.ticks(), 9u);
  EXPECT_TRUE(pic.HasDeliverable());
  pic.Acknowledge();
  pic.Eoi();
  EXPECT_FALSE(pic.HasDeliverable());
}

// --- IrqHub ------------------------------------------------------------------

TEST(Hub, AttentionTracksDeviceEventsAndPendingIrqs) {
  InterruptController pic;
  IrqHub hub(pic);
  IntervalTimer timer(pic, 0);
  hub.AddDevice(&timer);
  timer.Program(1000, 0);
  EXPECT_EQ(hub.Poll(10, true), InterruptController::kNoIrq);
  EXPECT_EQ(hub.attention_cycle(), 1000u);
  // Delivery blocked (IF clear): attention pins to "ask me every boundary".
  EXPECT_EQ(hub.Poll(1000, false), InterruptController::kNoIrq);
  EXPECT_EQ(hub.attention_cycle(), 1000u);
  EXPECT_EQ(hub.Poll(1001, true), 0x20);
  pic.Eoi();
  EXPECT_EQ(hub.Poll(1001, true), InterruptController::kNoIrq);
  EXPECT_EQ(hub.attention_cycle(), 2000u);
}

// --- Bare-machine delivery ----------------------------------------------------

// Loads a counter ISR and a spin loop; returns the machine ready to run.
struct IsrFixture {
  BareMachine bm;
  InterruptController pic;
  IrqHub hub{pic};
  IntervalTimer timer{pic, 0};
  static constexpr u32 kCounterAddr = 0x40000;
  static constexpr u32 kSpinExit = 0x30000;  // ECX countdown bound

  IsrFixture() : timer(pic, 0) {
    pic.set_auto_eoi(true);  // simulated ISRs cannot EOI
    hub.AddDevice(&timer);
  }

  bool Load(u8 cpl, std::string* diag) {
    auto img = bm.LoadProgram(R"(
  .global main
  .global isr
main:
  mov $200000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  hlt
isr:
  ld 0x40000, %eax
  inc %eax
  st %eax, 0x40000
  iret
)",
                              0x10000, diag);
    if (!img) return false;
    // Hardware IRQ gate: target is CPL 0 code regardless of interrupted CPL.
    bm.idt().Set(0x20, SegmentDescriptor::MakeInterruptGate(
                           BareMachine::CodeSelector(0).raw(), *img->Lookup("isr"), 0));
    bm.Start(*img->Lookup("main"), cpl, 0x80000);
    bm.cpu().set_eflags(kFlagIf);
    bm.cpu().set_irq_hub(&hub);
    return true;
  }
};

TEST(BareIrq, TimerIsrRunsAndReturns) {
  IsrFixture f;
  std::string diag;
  ASSERT_TRUE(f.Load(/*cpl=*/0, &diag)) << diag;
  f.timer.Program(10'000, 0);
  StopInfo stop = f.bm.Run(100'000'000);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  u32 count = 0;
  f.bm.pm().Read32(IsrFixture::kCounterAddr, &count);
  EXPECT_GT(count, 5u) << "timer ISR should have run many times";
  EXPECT_EQ(f.timer.ticks(), count) << "every tick delivered exactly once";
  EXPECT_EQ(f.pic.delivered(0), count);
}

TEST(BareIrq, DeliveryFromCpl3SwitchesToInnerStackAndBack) {
  IsrFixture f;
  std::string diag;
  ASSERT_TRUE(f.Load(/*cpl=*/3, &diag)) << diag;
  f.timer.Program(7'777, 0);
  StopInfo stop = f.bm.Run(100'000'000);
  ASSERT_EQ(stop.reason, StopReason::kFault) << "hlt at CPL 3 faults (after the loop ran)";
  EXPECT_EQ(stop.fault.vector, FaultVector::kGeneralProtection);
  u32 count = 0;
  f.bm.pm().Read32(IsrFixture::kCounterAddr, &count);
  EXPECT_GT(count, 5u);
  EXPECT_EQ(f.bm.cpu().cpl(), 3u) << "IRET restored the interrupted privilege level";
}

TEST(BareIrq, IfClearDefersDeliveryUntilSet) {
  IsrFixture f;
  std::string diag;
  ASSERT_TRUE(f.Load(/*cpl=*/0, &diag)) << diag;
  f.bm.cpu().set_eflags(0);  // interrupts off
  f.timer.Program(1'000, 0);
  StopInfo stop = f.bm.Run(100'000'000);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  u32 count = 0;
  f.bm.pm().Read32(IsrFixture::kCounterAddr, &count);
  EXPECT_EQ(count, 0u) << "no delivery while IF is clear";
  EXPECT_GT(f.timer.ticks(), 0u) << "the device kept ticking regardless";
  EXPECT_TRUE(f.pic.pending() != 0) << "the edge stays latched";
}

TEST(BareIrq, IrqTraceRecordsDeliveries) {
  IsrFixture f;
  std::string diag;
  ASSERT_TRUE(f.Load(/*cpl=*/0, &diag)) << diag;
  std::vector<Cpu::IrqEvent> trace;
  f.bm.cpu().set_irq_trace(&trace);
  f.timer.Program(50'000, 0);
  ASSERT_EQ(f.bm.Run(100'000'000).reason, StopReason::kHalted);
  ASSERT_FALSE(trace.empty());
  for (const auto& ev : trace) {
    EXPECT_EQ(ev.vector, 0x20);
    EXPECT_EQ(ev.cpl, 0);
    EXPECT_GE(ev.cycle, 50'000u);
  }
}

// --- NIC ----------------------------------------------------------------------

struct NicFixture {
  BareMachine bm{BareMachineConfig{}};
  InterruptController pic;
  IrqHub hub{pic};
  Nic nic{bm.pm(), pic, 5};
  static constexpr u32 kEntries = 4;

  NicFixture() {
    NicRing rx;
    rx.desc_phys = 0x50000;
    rx.count = kEntries;
    rx.buf_stride = 2048;
    for (u32 i = 0; i < kEntries; ++i) {
      bm.pm().Write32(rx.desc_phys + i * kNicDescBytes + kNicDescStatus, kDescOwn);
      bm.pm().Write32(rx.desc_phys + i * kNicDescBytes + kNicDescBuf, 0x60000 + i * 0x1000);
    }
    nic.ConfigureRx(rx);
    NicRing tx;
    tx.desc_phys = 0x51000;
    tx.count = kEntries;
    tx.buf_stride = 2048;
    for (u32 i = 0; i < kEntries; ++i) {
      bm.pm().Write32(tx.desc_phys + i * kNicDescBytes + kNicDescBuf, 0x70000 + i * 0x1000);
    }
    nic.ConfigureTx(tx);
    hub.AddDevice(&nic);
  }
};

TEST(NicModel, RxDmaWritesRingAndRaisesIrq) {
  NicFixture f;
  PacketSpec spec;
  auto frame = BuildPacket(spec);
  f.nic.Inject(frame.data(), static_cast<u32>(frame.size()), 1000);
  EXPECT_EQ(f.nic.next_event(), 1000u);
  f.nic.Advance(999);
  EXPECT_EQ(f.nic.stats().rx_frames, 0u);
  f.nic.Advance(1000);
  EXPECT_EQ(f.nic.stats().rx_frames, 1u);
  EXPECT_TRUE(f.pic.pending() & (1u << 5));
  u32 status = 0, len = 0, buf = 0;
  f.bm.pm().Read32(0x50000 + kNicDescStatus, &status);
  f.bm.pm().Read32(0x50000 + kNicDescLen, &len);
  f.bm.pm().Read32(0x50000 + kNicDescBuf, &buf);
  EXPECT_EQ(status, kDescDone);
  EXPECT_EQ(len, frame.size());
  std::vector<u8> landed(frame.size());
  f.bm.pm().ReadBlock(buf, landed.data(), static_cast<u32>(landed.size()));
  EXPECT_EQ(landed, frame);
}

TEST(NicModel, RxDropsWhenRingExhausted) {
  NicFixture f;
  PacketSpec spec;
  auto frame = BuildPacket(spec);
  for (u32 i = 0; i < NicFixture::kEntries + 3; ++i) {
    f.nic.Inject(frame.data(), static_cast<u32>(frame.size()), 100 + i);
  }
  f.nic.Advance(10'000);
  EXPECT_EQ(f.nic.stats().rx_frames, NicFixture::kEntries);
  EXPECT_EQ(f.nic.stats().rx_dropped, 3u);
}

TEST(NicModel, TxKickSchedulesDmaAndCompletesOnTheClock) {
  NicFixture f;
  const char* msgs[] = {"alpha", "bravo"};
  for (u32 i = 0; i < 2; ++i) {
    const u32 desc = 0x51000 + i * kNicDescBytes;
    u32 buf = 0;
    f.bm.pm().Read32(desc + kNicDescBuf, &buf);
    f.bm.pm().WriteBlock(buf, msgs[i], 5);
    f.bm.pm().Write32(desc + kNicDescLen, 5);
    f.bm.pm().Write32(desc + kNicDescStatus, kDescOwn);
  }
  // The doorbell only schedules DMA — nothing completes in zero time.
  EXPECT_EQ(f.nic.TxKick(0, 1000), 2u);
  EXPECT_EQ(f.nic.tx_frames().size(), 0u);
  const u64 dma = f.nic.tx_dma_cycles();
  EXPECT_EQ(f.nic.next_event(), 1000 + dma);
  f.nic.Advance(1000 + dma - 1);
  EXPECT_EQ(f.nic.tx_frames().size(), 0u);
  // Descriptors complete tx_dma_cycles apart, in ring order.
  f.nic.Advance(1000 + dma);
  ASSERT_EQ(f.nic.tx_frames().size(), 1u);
  EXPECT_EQ(std::string(f.nic.tx_frames()[0].begin(), f.nic.tx_frames()[0].end()), "alpha");
  EXPECT_TRUE(f.pic.pending() & (1u << 6)) << "TX-completion IRQ raised";
  f.nic.Advance(1000 + 2 * dma);
  ASSERT_EQ(f.nic.tx_frames().size(), 2u);
  EXPECT_EQ(std::string(f.nic.tx_frames()[1].begin(), f.nic.tx_frames()[1].end()), "bravo");
  EXPECT_EQ(f.nic.stats().tx_frames, 2u);
  // Completions landing in one Advance coalesce into one edge; here the two
  // retired in separate Advances, so two edges total.
  EXPECT_EQ(f.nic.stats().tx_completion_irqs, 2u);
  EXPECT_EQ(f.nic.TxKick(0, 5000), 0u) << "descriptors flipped to done";
}

// --- Kernel-level nested entries ---------------------------------------------

// An IRQ raised while the kernel is inside a syscall handler is deferred
// (the gate cleared IF) and delivered right after the IRET re-enables
// interrupts — before the next user instruction makes progress.
TEST(KernelIrq, IrqArrivingInsideSyscallIsDeferredToIret) {
  KernelFixture f;
  f.kernel().EnableTimerInterrupts();
  bool during_syscall_pending = false;
  u64 delivered_at_syscall = 0;
  f.kernel().RegisterSyscall(230, [&](Kernel& k, u32, u32, u32) {
    // Raise the NIC line from kernel context mid-syscall.
    k.pic().Raise(kIrqNic);
    during_syscall_pending = true;
    k.ReturnFromGate(0);
  });
  u64 nic_irq_count = 0;
  f.kernel().RegisterIrqHandler(kIrqNic, [&](Kernel& k) {
    ++nic_irq_count;
    delivered_at_syscall = k.cpu().cycles();
  });
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $230, %eax
  int $0x80
  mov $1, %ebx
  mov $SYS_EXIT, %eax
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_TRUE(during_syscall_pending);
  EXPECT_EQ(nic_irq_count, 1u) << "the deferred IRQ was delivered exactly once";
}

// Signal delivery during an interrupt-gate entry: a device IRQ handler
// delivers a signal to the interrupted process (exactly how the timer
// watchdog posts SIGXCPU); the handler runs at the process's level and
// sigreturn resumes the interrupted loop where it left off.
TEST(KernelIrq, SignalDeliveredFromInterruptHandlerAndSigreturns) {
  KernelFixture f;
  f.kernel().EnableTimerInterrupts();
  bool signal_sent = false;
  f.kernel().RegisterIrqHandler(kIrqNic, [&](Kernel& k) {
    if (!signal_sent && k.current() != nullptr) {
      signal_sent = true;
      k.DeliverSignal(*k.current(), 10);
    }
  });
  // Syscall 231 latches the NIC line once the handler is registered; the IRQ
  // is delivered at the first post-IRET boundary, mid-spin.
  f.kernel().RegisterSyscall(231, [](Kernel& k, u32, u32, u32) {
    k.pic().Raise(kIrqNic);
    k.ReturnFromGate(0);
  });
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
  .global handler
main:
  mov $SYS_SIGACTION, %eax
  mov $10, %ebx
  mov $handler, %ecx
  int $0x80
  mov $231, %eax
  int $0x80
  mov $40000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $0xBFFF0000, %ebx    ; flag cell in the (demand-paged) stack area
  ld 0(%ebx), %ebx         ; 77 if the handler ran, demand-zero 0 otherwise
  mov $SYS_EXIT, %eax
  int $0x80
handler:
  mov $0xBFFF0000, %ebx
  mov $77, %eax
  st %eax, 0(%ebx)
  mov $SYS_SIGRETURN, %eax ; resume the interrupted spin
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid, 100'000'000);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 77) << "signal handler ran (delivered off an IRQ) and sigreturned";
  EXPECT_TRUE(signal_sent);
}

// The headline safe-termination property: a deliberately looping kernel
// extension is killed asynchronously by the timer watchdog; afterwards the
// TLB/D-TLB/decode-cache state is clean and other work proceeds unharmed.
TEST(KernelIrq, TimerWatchdogKillsLoopingKextAndMachineStaysClean) {
  Machine machine;
  Kernel kernel(machine);
  kernel.EnableTimerInterrupts();
  KernelExtensionManager kext(kernel);

  AssembleError aerr;
  auto looping = Assemble(R"(
  .global spin_forever
spin_forever:
  mov $1, %eax
forever:
  add $1, %eax
  jmp forever
  .data
  .global pd_shared
pd_shared:
  .space 64
)",
                          &aerr);
  ASSERT_TRUE(looping.has_value()) << aerr.ToString();
  std::string diag;
  KextOptions opts;
  opts.cycle_limit = 300'000;
  auto ext = kext.LoadExtension("runaway", *looping, &diag, opts);
  ASSERT_TRUE(ext.has_value()) << diag;
  auto fid = kext.FindFunction("runaway:spin_forever");
  ASSERT_TRUE(fid.has_value());

  const u64 before = kernel.cpu().cycles();
  auto r = kext.Invoke(*fid, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("timer watchdog"), std::string::npos) << r.error;
  // Detection is asynchronous: within a few timer periods past the limit,
  // far before the 16x cooperative backstop.
  EXPECT_GE(r.cycles, 300'000u);
  EXPECT_LT(r.cycles, 300'000u + 4 * Kernel::kTimerSliceCycles);
  EXPECT_GT(kernel.cpu().cycles(), before);

  // The machine is clean afterwards: a fresh process runs to completion and
  // the fast paths agree with the oracle on its output.
  KernelExtensionManager::InvokeResult again;
  auto good = Assemble(R"(
  .global f
f:
  mov $123, %eax
  ret
  .data
  .global pd_shared
pd_shared:
  .space 64
)",
                       &aerr);
  ASSERT_TRUE(good.has_value());
  auto gext = kext.LoadExtension("good", *good, &diag);
  ASSERT_TRUE(gext.has_value()) << diag;
  auto gfid = kext.FindFunction("good:f");
  again = kext.Invoke(*gfid, 0);
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.value, 123u);
}

}  // namespace
}  // namespace palladium
