// SMP machine tests: IPI delivery and priority against device IRQs, the
// exactness of the cross-CPU TLB/D-TLB shootdown protocol (and a negative
// control showing what a *forgotten* shootdown would permit), a kernel-range
// unmap reaching a sibling vCPU's live TLB entry, cross-CPU
// self-modifying-code coherence through the fanned-out write observer,
// work-stealing fairness in the per-CPU scheduler, RSS flow steering, and
// the containment story: a hostile kernel extension invoked from CPU 1 is
// killed by that core's timer watchdog while CPU 0's packet traffic keeps
// flowing.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel_ext.h"
#include "src/hw/bare_machine.h"
#include "src/hw/nic.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

// --- Machine / interleaver basics --------------------------------------------

TEST(Smp, MachineBuildsIndependentVcpusOverSharedMemory) {
  MachineConfig cfg;
  cfg.num_cpus = 4;
  Machine m(cfg);
  ASSERT_EQ(m.num_cpus(), 4u);
  for (u32 c = 0; c < 4; ++c) {
    m.cpu(c).set_reg(Reg::kEax, 100 + c);
  }
  for (u32 c = 0; c < 4; ++c) {
    EXPECT_EQ(m.cpu(c).reg(Reg::kEax), 100 + c) << "per-vCPU register state leaked";
  }
  m.set_current_cpu(2);
  EXPECT_EQ(m.cpu().reg(Reg::kEax), 102u) << "cpu() must follow the current index";
  // Out-of-range switches are ignored, never UB.
  m.set_current_cpu(17);
  EXPECT_EQ(m.current_cpu_index(), 2u);
}

// --- IPI delivery and priority ------------------------------------------------

TEST(Smp, IpiOutranksDeviceIrqAndDeliversOnTargetCore) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  k.EnableTimerInterrupts();

  std::vector<u32> order;
  k.RegisterIrqHandler(kIrqIpiShootdown, [&](Kernel&) { order.push_back(kIrqIpiShootdown); });
  k.RegisterIrqHandler(kIrqNic, [&](Kernel&) { order.push_back(kIrqNic); });

  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $2000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;

  // Latch a device line and an IPI on CPU 1's local PIC before anything
  // runs there; the IPI (lower line number) must be serviced first.
  k.pic(1).Raise(kIrqNic);
  k.SendIpi(1, kIrqIpiShootdown);
  EXPECT_EQ(k.smp_stats().ipis_received, 0u);

  f.machine().set_current_cpu(1);
  RunResult r = k.RunProcess(pid, 10'000'000);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);

  ASSERT_GE(order.size(), 2u) << "both the IPI and the device IRQ must have been serviced";
  EXPECT_EQ(order[0], kIrqIpiShootdown) << "IPIs must outrank device interrupts";
  EXPECT_EQ(order[1], kIrqNic);
  EXPECT_GE(k.smp_stats().ipis_received, 1u);
  EXPECT_GE(k.pic(1).delivered(kIrqIpiShootdown), 1u) << "delivery happened on CPU 1's PIC";
  EXPECT_EQ(k.pic(0).delivered(kIrqIpiShootdown), 0u) << "CPU 0 must not see CPU 1's IPI";
}

// --- Shootdown exactness --------------------------------------------------------

// CPU 1 (CPL 3) stores to a page in a tight loop, priming its TLB and D-TLB;
// at a scripted cycle the host write-protects the page the way the kernel
// editor hook does — flushing the page on EVERY core. The very next store on
// CPU 1 must fault, with an identical fault point whether the D-TLB fast
// path is on or off.
struct ShootdownResult {
  bool faulted = false;
  u32 fault_eip = 0;
  u32 fault_linear = 0;
  u64 fault_cycle = 0;
  u32 final_value = 0;
};

ShootdownResult RunShootdownScenario(bool dtlb, bool flush_remote) {
  constexpr u32 kTarget = 0x300000;
  BareMachineConfig cfg;
  cfg.num_cpus = 2;
  BareMachine bm(cfg);
  Machine& m = bm.machine();
  for (u32 c = 0; c < 2; ++c) m.cpu(c).set_dtlb_enabled(dtlb);

  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $0x300000, %ebx
  mov $0, %eax
loop:
  add $1, %eax
  st %eax, 0(%ebx)
  jmp loop
)",
                            0x10000, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  bm.StartCpu(1, *img->Lookup("main"), /*cpl=*/3, 0x80000);

  SmpInterleaver il(m);
  il.Park(0);  // CPU 0 has no program; CPU 1 is the victim core
  il.AddEvent(3'000, [&] {
    // The kernel's shootdown protocol, by hand: edit the PTE, then INVLPG
    // on the initiator (CPU 0, host-side here) and — iff the protocol is
    // honoured — on the remote core too.
    PageTableEditor ed(bm.pm(), m.cpu(0).cr3(), [&](u32 linear) {
      m.cpu(0).tlb().FlushPage(linear);
      if (flush_remote) m.cpu(1).tlb().FlushPage(linear);
    });
    EXPECT_TRUE(ed.UpdateFlags(kTarget, 0, kPteWrite));
  });

  ShootdownResult out;
  il.Run(40'000, [&](u32 c, const StopInfo& stop) {
    EXPECT_EQ(c, 1u);
    if (stop.reason == StopReason::kFault) {
      out.faulted = true;
      out.fault_eip = m.cpu(1).eip();
      out.fault_linear = stop.fault.linear_address;
      out.fault_cycle = m.cpu(1).cycles();
      return false;  // park: the scenario is over
    }
    return false;
  });
  bm.pm().Read32(kTarget, &out.final_value);
  return out;
}

TEST(Smp, RemotePteEditShootsDownStaleTlbAndDtlb) {
  ShootdownResult fast = RunShootdownScenario(/*dtlb=*/true, /*flush_remote=*/true);
  ShootdownResult slow = RunShootdownScenario(/*dtlb=*/false, /*flush_remote=*/true);
  ASSERT_TRUE(fast.faulted) << "the store after the shootdown must fault";
  ASSERT_TRUE(slow.faulted);
  EXPECT_EQ(fast.fault_eip, slow.fault_eip) << "fast path faulted at a different point";
  EXPECT_EQ(fast.fault_cycle, slow.fault_cycle);
  EXPECT_EQ(fast.fault_linear, 0x300000u);
  // The faulting store is the first one after the event fired at cycle 3000:
  // no stale window where a write still lands.
  EXPECT_LT(fast.fault_cycle, 3'100u) << "the remote core kept a stale entry for a while";
  EXPECT_EQ(fast.final_value, slow.final_value) << "memory image diverged";
}

TEST(Smp, ForgottenShootdownWouldLeaveStaleEntries) {
  // Negative control: flush only the initiating core and the remote CPU
  // keeps writing through its stale TLB/D-TLB entry for the rest of the run
  // — this is exactly the hole the shootdown protocol closes.
  ShootdownResult leaky = RunShootdownScenario(/*dtlb=*/true, /*flush_remote=*/false);
  EXPECT_FALSE(leaky.faulted) << "without a shootdown the stale entry persists";
  EXPECT_GT(leaky.final_value, 100u) << "stores must have kept landing through the stale entry";
}

TEST(Smp, KernelEditorBroadcastsOnlyToCoresOnTheAddressSpace) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  k.EnableTimerInterrupts();
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $SYS_EXIT, %eax
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  Process* proc = k.process(pid);
  ASSERT_NE(proc, nullptr);
  ASSERT_TRUE(k.PopulateRange(*proc, kUserTextBase, kUserTextBase + kPageSize));

  // No core has this CR3 loaded: a user-range PTE edit stays local.
  const u64 pages_before = k.smp_stats().shootdown_pages;
  ASSERT_TRUE(k.SetPageWritable(*proc, kUserTextBase, false));
  EXPECT_EQ(k.smp_stats().shootdown_pages, pages_before)
      << "no remote core could cache this translation";

  // CPU 1 runs the address space: now the same edit must broadcast.
  f.machine().cpu(1).LoadCr3(proc->cr3);
  ASSERT_TRUE(k.SetPageWritable(*proc, kUserTextBase, true));
  EXPECT_EQ(k.smp_stats().shootdown_pages, pages_before + 1);
  EXPECT_GE(k.pic(1).raised(kIrqIpiShootdown), 1u) << "shootdown IPI latched on CPU 1";
  EXPECT_EQ(k.pic(0).raised(kIrqIpiShootdown), 0u);
}

// Loading a kernel extension fills absent kernel PTEs for its whole segment,
// which no core can cache, so it shoots nothing down on a live 4-vCPU
// kernel; unmapping one of those pages replaces a present PTE and does.
TEST(Smp, KextLoadShootsDownNothingAndItsUnmapOnePage) {
  KernelFixture f(/*num_cpus=*/4);
  Kernel& k = f.kernel();
  Scheduler sched(k, Scheduler::Config{});
  KernelExtensionManager kext(k);
  AssembleError aerr;
  auto obj = Assemble(R"(
  .global nop
nop:
  ret
)",
                      &aerr);
  ASSERT_TRUE(obj.has_value()) << aerr.ToString();
  std::string diag;
  auto ext = kext.LoadExtension("quiet", *obj, &diag);
  ASSERT_TRUE(ext.has_value()) << diag;
  EXPECT_EQ(k.smp_stats().shootdown_pages, 0u);
  EXPECT_EQ(k.smp_stats().shootdown_ipis, 0u);

  ASSERT_TRUE(k.UnmapKernelPage(kext.extension(*ext)->linear_base));
  EXPECT_EQ(k.smp_stats().shootdown_pages, 1u);
  EXPECT_EQ(k.smp_stats().shootdown_ipis, 3u) << "one IPI per other core";
}

// A kernel-range unmap on one vCPU kills a live TLB entry on every other
// vCPU: unloading a kext depends on it. vCPU 1 stores into a page from
// MapKernelPage, so its TLB holds the translation; vCPU 0 unmaps the page.
// vCPU 1 runs the same store again without reloading CR3 (a reload would
// flush): it must stop with #PF at that address, not write the freed frame.
TEST(Smp, KernelUnmapKillsSiblingVcpuTlbEntry) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  Machine& m = f.machine();
  constexpr u32 kCode = 0x00200000;  // kernel-segment offsets
  constexpr u32 kStackTop = 0x00202000;
  constexpr u32 kData = 0x00203000;
  ASSERT_NE(k.MapKernelPage(kKernelBase + kCode), 0u);
  ASSERT_NE(k.MapKernelPage(kKernelBase + kStackTop - kPageSize), 0u);
  ASSERT_NE(k.MapKernelPage(kKernelBase + kData), 0u);
  std::string diag;
  auto img = AssembleAndLink(R"(
  .global main
main:
  mov $)" + std::to_string(kData) + R"(, %ebx
  sti $0x77, 0(%ebx)
  hlt
)",
                             kCode, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  ASSERT_TRUE(k.WriteKernelVirt(kKernelBase + kCode, img->bytes.data(),
                                static_cast<u32>(img->bytes.size())));

  m.set_current_cpu(1);
  Cpu& cpu = m.cpu(1);
  cpu.LoadCr3(k.kernel_cr3());
  cpu.ForceSegment(SegReg::kCs, kKernelCsSel);
  cpu.ForceSegment(SegReg::kSs, kKernelDsSel);
  cpu.ForceSegment(SegReg::kDs, kKernelDsSel);
  cpu.ForceSegment(SegReg::kEs, kKernelDsSel);
  cpu.set_cpl(0);
  const auto run_store = [&cpu] {
    cpu.set_eip(kCode);
    cpu.set_reg(Reg::kEsp, kStackTop);
    return cpu.Run(cpu.cycles() + 100'000);
  };
  ASSERT_EQ(run_store().reason, StopReason::kHalted);
  u8 byte = 0;
  ASSERT_TRUE(k.ReadKernelVirt(kKernelBase + kData, &byte, 1));
  ASSERT_EQ(byte, 0x77u);

  m.set_current_cpu(0);
  ASSERT_TRUE(k.UnmapKernelPage(kKernelBase + kData));

  m.set_current_cpu(1);
  const StopInfo stop = run_store();
  EXPECT_EQ(stop.reason, StopReason::kFault) << "vCPU 1 stored through a page vCPU 0 unmapped";
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, kKernelBase + kData);
}

// --- Cross-CPU self-modifying code ---------------------------------------------

// CPU 1 overwrites an instruction in CPU 0's (already decoded) text; the
// write-observer fan-out must kill CPU 0's decoded page so it executes the
// new bytes — identically on every engine, each with the D-TLB on and off.
TEST(Smp, CrossCpuCodeWriteInvalidatesEveryDecodeCache) {
  constexpr u32 kCpu0Base = 0x10000;
  constexpr u32 kCpu1Base = 0x40000;
  constexpr u32 kAdds = 1000;
  // Instruction slot CPU 1 rewrites to hlt: on CPU 0's first code page, so
  // the page is already decoded (and inside a block) when the store lands.
  constexpr u32 kPatchIndex = 200;

  u64 ref_cycles0 = 0, ref_cycles1 = 0;
  bool have_ref = false;
  const std::pair<Engine, const char*> engines[] = {{Engine::kTrace, "trace"},
                                                    {Engine::kBlock, "block"},
                                                    {Engine::kInsn, "insn"},
                                                    {Engine::kOracle, "oracle"}};
  for (const auto& [engine, engine_name] : engines) {
    for (bool dtlb : {true, false}) {
      BareMachineConfig cfg;
      cfg.num_cpus = 2;
      BareMachine bm(cfg);
      Machine& m = bm.machine();
      for (u32 c = 0; c < 2; ++c) {
        m.cpu(c).set_engine(engine);
        m.cpu(c).set_dtlb_enabled(dtlb);
      }

      // CPU 0: mov ebx,0 ; add ebx,1 x kAdds ; hlt.
      std::vector<Insn> prog0;
      Insn mov;
      mov.opcode = Opcode::kMovRI;
      mov.r1 = static_cast<u8>(Reg::kEbx);
      mov.imm = 0;
      prog0.push_back(mov);
      for (u32 i = 0; i < kAdds; ++i) {
        Insn add;
        add.opcode = Opcode::kAddRI;
        add.r1 = static_cast<u8>(Reg::kEbx);
        add.imm = 1;
        prog0.push_back(add);
      }
      Insn hlt;
      hlt.opcode = Opcode::kHlt;
      prog0.push_back(hlt);
      std::vector<u8> bytes0(prog0.size() * kInsnSize);
      for (size_t i = 0; i < prog0.size(); ++i) prog0[i].EncodeTo(bytes0.data() + i * kInsnSize);
      ASSERT_TRUE(bm.pm().WriteBlock(kCpu0Base, bytes0.data(), static_cast<u32>(bytes0.size())));

      // CPU 1: store the encoding of `hlt` over CPU 0's slot kPatchIndex,
      // then halt itself.
      u8 patch[kInsnSize];
      hlt.EncodeTo(patch);
      std::vector<Insn> prog1;
      for (u32 w = 0; w < kInsnSize / 4; ++w) {
        u32 word = 0;
        std::memcpy(&word, patch + w * 4, 4);
        Insn st;
        st.opcode = Opcode::kStoreI;
        st.r2 = kNoBaseReg;
        st.size = 4;
        st.imm = static_cast<i32>(word);
        st.disp = static_cast<i32>(kCpu0Base + kPatchIndex * kInsnSize + w * 4);
        prog1.push_back(st);
      }
      prog1.push_back(hlt);
      std::vector<u8> bytes1(prog1.size() * kInsnSize);
      for (size_t i = 0; i < prog1.size(); ++i) prog1[i].EncodeTo(bytes1.data() + i * kInsnSize);
      ASSERT_TRUE(bm.pm().WriteBlock(kCpu1Base, bytes1.data(), static_cast<u32>(bytes1.size())));

      bm.StartCpu(0, kCpu0Base, 0, 0x80000);
      bm.StartCpu(1, kCpu1Base, 0, 0x7E000);

      SmpInterleaver il(m);
      il.Run(10'000'000, [&](u32, const StopInfo& stop) {
        EXPECT_EQ(stop.reason, StopReason::kHalted);
        return false;
      });

      SCOPED_TRACE(std::string("engine=") + engine_name + " dtlb=" + (dtlb ? "on" : "off"));
      // CPU 1's stores land (deterministically) while CPU 0 is still well
      // below the patched slot, so CPU 0 executes adds 1..kPatchIndex-1 and
      // then the freshly written hlt — never the stale decoded add.
      EXPECT_EQ(m.cpu(0).reg(Reg::kEbx), kPatchIndex - 1)
          << "CPU 0 executed a stale decoded instruction";
      if (!have_ref) {
        have_ref = true;
        ref_cycles0 = m.cpu(0).cycles();
        ref_cycles1 = m.cpu(1).cycles();
      } else {
        EXPECT_EQ(m.cpu(0).cycles(), ref_cycles0) << "cycle model diverged across modes";
        EXPECT_EQ(m.cpu(1).cycles(), ref_cycles1);
      }
    }
  }
}

// --- Work stealing ---------------------------------------------------------------

TEST(Smp, WorkStealingSpreadsAQueueLoadedOnOneCore) {
  KernelFixture f(/*num_cpus=*/4);
  Scheduler::Config scfg;
  scfg.slice_cycles = 50'000;
  Scheduler sched(f.kernel(), scfg);

  std::string diag;
  constexpr u32 kProcs = 8;
  for (u32 i = 0; i < kProcs; ++i) {
    Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $60000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  mov $7, %ebx
  int $0x80
)",
                            &diag);
    ASSERT_NE(pid, 0u) << diag;
    // Everything lands on CPU 0's queue; the other cores must steal.
    sched.AddProcess(pid, /*home_cpu=*/0);
  }

  auto result = sched.RunAll(2'000'000'000ull);
  EXPECT_EQ(result.exited, kProcs);
  EXPECT_EQ(result.killed, 0u);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GE(sched.stats().steals, 3u) << "idle cores must have stolen from CPU 0";
  u32 cores_used = 0;
  for (u32 c = 0; c < 4; ++c) {
    if (sched.cpu_stats(c).context_switches > 0) ++cores_used;
  }
  EXPECT_GE(cores_used, 3u) << "the load stayed on too few cores";
  // Parallelism: 8 CPU-bound processes of ~240k cycles each must finish in
  // well under the serial sum on 4 cores.
  EXPECT_LT(result.cycles, 8u * 240'000u) << "no wall-clock (simulated) speedup";
}

// --- RSS flow steering -----------------------------------------------------------

TEST(Smp, FlowHashIsStableAndSpreadsClients) {
  auto frame_for = [](u32 client) {
    PacketSpec spec;
    spec.proto = kIpProtoTcp;
    spec.src_ip = 0x0A000100u + client;
    spec.src_port = static_cast<u16>(1024 + client);
    spec.dst_ip = 0x0A000001u;
    spec.dst_port = 80;
    return BuildPacket(spec);
  };
  std::vector<u32> hit(4, 0);
  for (u32 client = 0; client < 16; ++client) {
    const u32 h1 = PacketDataplane::FlowHash(frame_for(client));
    const u32 h2 = PacketDataplane::FlowHash(frame_for(client));
    EXPECT_EQ(h1, h2) << "a flow's hash must be stable (frames of one flow stick together)";
    ++hit[h1 % 4];
  }
  u32 used = 0;
  for (u32 n : hit) used += n > 0 ? 1 : 0;
  EXPECT_GE(used, 3u) << "16 clients must spread across (nearly) all of 4 workers";
}

// --- Hostile kext on CPU 1, traffic on CPU 0 -------------------------------------

TEST(Smp, HostileKextOnCpu1DiesWhileCpu0TrafficContinues) {
  KernelFixture f(/*num_cpus=*/2);
  Kernel& k = f.kernel();
  Scheduler::Config scfg;
  scfg.slice_cycles = 60'000;
  Scheduler sched(k, scfg);
  KernelExtensionManager kext(k);

  // The hostile extension: loops forever; its per-invocation CPU-time cap
  // makes the *local* (CPU 1) timer watchdog the kill mechanism.
  AssembleError aerr;
  auto hostile_obj = Assemble(R"(
  .global spin
spin:
  mov $0, %eax
forever:
  add $1, %eax
  jmp forever
  .data
  .global pd_shared
pd_shared:
  .space 64
)",
                              &aerr);
  ASSERT_TRUE(hostile_obj.has_value()) << aerr.ToString();
  std::string diag;
  KextOptions opts;
  opts.cycle_limit = 400'000;
  auto ext = kext.LoadExtension("hostile", *hostile_obj, &diag, opts);
  ASSERT_TRUE(ext.has_value()) << diag;
  auto fid = kext.FindFunction("hostile:spin");
  ASSERT_TRUE(fid.has_value());

  // Worker echoing packets (home CPU 0), invoker of the hostile extension
  // (home CPU 1).
  auto img = AssembleAndLink(kPktEchoWorkerSource, kUserTextBase, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  Pid worker = k.CreateProcess();
  ASSERT_NE(worker, 0u);
  ASSERT_TRUE(k.LoadUserImage(worker, *img, "main", &diag)) << diag;
  sched.AddProcess(worker, /*home_cpu=*/0);

  Pid hostile = f.LoadProgram(R"(
  .global main
main:
  mov $SYS_INVOKE_KEXT, %eax
  mov $)" + std::to_string(*fid) +
                                  R"(, %ebx
  mov $0, %ecx
  int $0x80
  mov %eax, %ebx          ; exit code = invoke result (kErrFault on abort)
  mov $SYS_EXIT, %eax
  int $0x80
)",
                              &diag);
  ASSERT_NE(hostile, 0u) << diag;
  sched.AddProcess(hostile, /*home_cpu=*/1);

  Nic nic(f.machine().pm(), k.pic(), kIrqNic);
  PacketDataplane dataplane(k, kext, nic);
  ASSERT_TRUE(dataplane.AddFlow("tcp", "ip.proto == 6", {worker}, &diag)) << diag;

  PacketSpec spec;
  spec.proto = kIpProtoTcp;
  spec.payload_len = 32;
  auto frame = BuildPacket(spec);
  constexpr u32 kTotal = 24;
  u64 at = 4'000;
  for (u32 i = 0; i < kTotal; ++i) {
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += 60'000;  // the stream spans the hostile invocation's whole lifetime
  }
  bool shutdown_issued = false;
  sched.set_idle_hook([&] {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dataplane.Shutdown();
    return true;
  });

  auto result = sched.RunAll(4'000'000'000ull);
  EXPECT_EQ(result.exited, 2u) << "both processes must finish";
  EXPECT_EQ(result.killed, 0u);

  // The hostile invocation died under the watchdog and its caller saw the
  // error, while every frame crossed CPU 0's dataplane.
  const auto* est = kext.extension(*ext);
  ASSERT_NE(est, nullptr);
  EXPECT_TRUE(est->aborted) << "the watchdog must have aborted the looping extension";
  EXPECT_EQ(k.process(hostile)->exit_code, static_cast<i32>(kErrFault));
  EXPECT_EQ(dataplane.stats().tx_frames, kTotal) << "CPU 0's traffic must not have stalled";
  EXPECT_EQ(static_cast<u64>(k.process(worker)->exit_code), static_cast<u64>(kTotal));
}

}  // namespace
}  // namespace palladium
