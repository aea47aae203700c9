// The kernel model: a Linux-2.0.34-style kernel (as modified by Palladium)
// running as host code over the simulated hardware. It owns the GDT/IDT,
// per-process page tables with the Figure-2 address-space layout, demand
// paging with Palladium's PPL policy, system-call dispatch through an
// interrupt gate, signals, fork/exec, and the taskSPL syscall gating of
// Section 4.5.2. The Palladium extension mechanisms (src/core) plug into the
// hooks exposed here.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/asm/object_file.h"
#include "src/hw/irq.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/timer.h"
#include "src/kernel/abi.h"
#include "src/kernel/page_alloc.h"
#include "src/kernel/process.h"
#include "src/obs/profile.h"

namespace palladium {

class Scheduler;

namespace obs {
class FlightRecorder;
}  // namespace obs

// Outcome of RunProcess.
enum class RunOutcome : u8 {
  kExited,       // process called exit
  kKilled,       // unrecoverable fault
  kCycleLimit,   // budget exhausted while still runnable
  kBlocked,      // parked in a blocking syscall; resumable via WakeProcess
};

struct RunResult {
  RunOutcome outcome = RunOutcome::kExited;
  i32 exit_code = 0;
  std::string kill_reason;
};

// What a dispatched CPU stop means for the run loop that observed it.
enum class StopAction : u8 {
  kContinue,    // handled; keep running the current process
  kPreempt,     // scheduler requested a context switch (slice expiry, yield)
  kBlocked,     // current process went to sleep; its context is saved
  kTerminated,  // current process exited or was killed
};

class Kernel {
 public:
  struct Config {
    u64 extension_cycle_limit = 5'000'000;  // per-invocation CPU-time cap
    u64 timer_period_cycles = 0;  // hardware timer period; 0 = kTimerSliceCycles
    KernelCosts costs;
  };

  // Granularity of the extension time-limit check: RunProcess's cooperative
  // slice while hardware timer interrupts are off (until
  // EnableTimerInterrupts, which attaching a Scheduler calls), and the
  // default timer period once they are on.
  static constexpr u64 kTimerSliceCycles = 50'000;

  explicit Kernel(Machine& machine);
  Kernel(Machine& machine, const Config& config);

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  Cpu& cpu() { return machine_.cpu(); }
  FrameAllocator& frames() { return frames_; }
  const Config& config() const { return config_; }
  KernelCosts& costs() { return config_.costs; }

  // --- Processes -------------------------------------------------------------
  Pid CreateProcess();
  Process* process(Pid pid);

  // Loads a linked user image: text (read-exec), data+bss (read-write), a
  // stack area, a heap area, and the signal trampoline page. Sets the saved
  // context to enter at `entry_symbol` at SPL 3.
  bool LoadUserImage(Pid pid, const LinkedImage& image, const std::string& entry_symbol,
                     std::string* diag);

  // exec() semantics (host-level, standing in for the syscall + filesystem):
  // replaces the address space with `image`; taskSPL resets to 3 (the paper:
  // privilege levels are *not* inherited across exec).
  bool ExecImage(Pid pid, const LinkedImage& image, const std::string& entry_symbol,
                 std::string* diag);

  // Runs the process until exit/kill or cycle budget exhaustion.
  RunResult RunProcess(Pid pid, u64 cycle_budget = ~0ull);

  // --- Memory ----------------------------------------------------------------
  // Adds a VmArea (no eager mapping). Returns false on overlap.
  bool AddArea(Process& proc, u32 start, u32 end, u32 prot, const char* tag);
  // Demand-pages one user page according to the Palladium PPL policy.
  bool MapUserPage(Process& proc, u32 linear, const VmArea& area);
  // Eagerly materializes every page of [start,end).
  bool PopulateRange(Process& proc, u32 start, u32 end);
  // Reads/writes process memory from the host (kernel copy_to/from_user).
  bool CopyToUser(Process& proc, u32 linear, const void* src, u32 len);
  bool CopyFromUser(Process& proc, u32 linear, void* dst, u32 len);
  // Removes an area and frees its frames (munmap's core).
  bool UnmapArea(Process& proc, u32 start, u32 end);
  // Page-table access for the Palladium module (set_range etc).
  bool SetPageUserBit(Process& proc, u32 linear, bool user);
  bool SetPageWritable(Process& proc, u32 linear, bool writable);
  std::optional<u32> GetPte(Process& proc, u32 linear);

  // --- Kernel virtual memory --------------------------------------------------
  // Maps `linear` (in kernel space, >= 3 GB) to a fresh frame in every
  // process (kernel mappings are shared). Returns the frame, 0 on OOM.
  u32 MapKernelPage(u32 linear, bool user_bit = false);
  // Undoes MapKernelPage: evicts the frame from every vCPU's decode cache,
  // unmaps the shared kernel PTE (shooting down all TLBs/D-TLBs) and frees
  // the frame. Returns false if the page was not mapped.
  bool UnmapKernelPage(u32 linear);
  // Direct-map helpers: kernel linear <-> physical.
  static u32 KernelLinearToPhys(u32 linear) { return linear - kKernelBase; }
  // The kernel-only page directory (valid CR3 when no process is current).
  u32 kernel_cr3() const { return kernel_page_dir_template_; }
  // Read/write kernel virtual memory (e.g. extension segments) from the host.
  bool WriteKernelVirt(u32 linear, const void* src, u32 len);
  bool ReadKernelVirt(u32 linear, void* dst, u32 len);
  // Reads a NUL-terminated string from the current process (max 256 bytes).
  std::optional<std::string> ReadUserString(Process& proc, u32 linear);

  // --- Host-call hooks (used by src/core) --------------------------------------
  // Handler receives the kernel; return value semantics: the handler is
  // responsible for adjusting CPU state (e.g. ReturnFromGate).
  using HostCallHandler = std::function<void(Kernel&)>;
  void RegisterHostCall(u32 id, HostCallHandler handler);
  u32 AllocateHostCallId();
  // Linear address of a host entry (for gate targets): kernel-segment offset.
  static u32 HostEntryOffset(u32 id) { return id * kInsnSize; }

  // --- Interrupts --------------------------------------------------------------
  // The kernel owns the interrupt fabric: one PIC + hub + local interval
  // timer *per vCPU* (the 8259/APIC-timer analogue). Shared devices (NIC,
  // ...) attach to vCPU 0's hub — I/O interrupts route to the boot CPU, the
  // classic pre-IO-APIC model — while every core's local timer drives its
  // own preemption slice and extension watchdog, and the IPI lines
  // (kIrqIpiShootdown / kIrqIpiResched) carry cross-CPU kicks. IDT gates for
  // vectors 0x20..0x2F are always installed; delivery begins when
  // EnableTimerInterrupts() attaches each hub to its CPU and arms the
  // timers. From then on the extension watchdog runs off the timer
  // interrupt instead of the cooperative RunProcess slice check.
  void EnableTimerInterrupts();
  bool interrupts_enabled() const { return interrupts_enabled_; }
  // The I/O fabric (vCPU 0's): where devices raise their lines.
  InterruptController& pic() { return fabric_[0]->pic; }
  IrqHub& irq_hub() { return fabric_[0]->hub; }
  IntervalTimer& timer() { return fabric_[0]->timer; }
  // Per-CPU fabric.
  InterruptController& pic(u32 cpu_index) { return fabric_[cpu_index]->pic; }
  IrqHub& irq_hub(u32 cpu_index) { return fabric_[cpu_index]->hub; }
  IntervalTimer& timer(u32 cpu_index) { return fabric_[cpu_index]->timer; }
  u32 num_cpus() const { return machine_.num_cpus(); }

  // --- SMP ---------------------------------------------------------------------
  // Cross-CPU coherence. The shootdown protocol rides the page-table editor
  // hook: every PTE edit flushes the edited page on the initiating CPU
  // (INVLPG), and — exactly like a real kernel's flush_tlb_others with the
  // initiator spinning for acks — synchronously invalidates the page on
  // every remote CPU that could cache the translation (same CR3, or any CPU
  // for shared kernel-range mappings) before the edit returns. The remote
  // cost is modelled by a shootdown IPI raised on each such CPU's local
  // PIC: the target core takes the interrupt at its next retire boundary
  // and pays gate + dispatch cycles. Flushing the hardware TLB page bumps
  // Tlb::change_count(), which kills the target's D-TLB and decoded-page
  // fetch TLB in O(1) — so no stale data or instruction fast path survives
  // a remote PTE edit, with or without the fast paths enabled.
  struct SmpStats {
    u64 shootdown_pages = 0;  // PTE edits that broadcast remote invalidations
    u64 shootdown_ipis = 0;   // shootdown IPIs raised on remote cores
    u64 full_flushes = 0;     // address-space-wide flush broadcasts
    u64 ipis_received = 0;    // IPI vectors delivered on any core
  };
  const SmpStats& smp_stats() const { return smp_stats_; }
  // Raises an IPI line on the target CPU's local PIC.
  void SendIpi(u32 target_cpu, u32 ipi_irq);
  // The editor-hook body: local INVLPG + remote shootdown (see above).
  void ShootdownPage(u32 cr3, u32 linear);
  // Full-flush analogue for address-space-wide permission changes
  // (exec, init_PL): flushes every CPU running `cr3`.
  void FlushAddressSpace(u32 cr3);

  // --- Epoch-staged cross-CPU work ---------------------------------------------
  // With staging on, the *remote* side of every cross-CPU operation —
  // sibling TLB shootdowns/flushes, IPIs, sibling decode-cache frame
  // evictions, cross-queue scheduler wakeups — is queued per target instead
  // of applied synchronously, and DrainRemoteOps applies a target's queue.
  // This is the one staging channel: a kernel-level epoch loop is to
  // drain every target in the quiesced barrier window, so that remote
  // effects land no later than the next barrier. Nothing drives it yet:
  // ThreadedSmp runs bare machines and never calls DrainRemoteOps; only
  // tests switch staging on and drain it. Local effects (the initiator's
  // own INVLPG/flush/evict) stay synchronous either way. Staging is off by
  // default: the interleaver's synchronous protocol remains the oracle and
  // the default semantics.
  //
  // StageRemoteOp may be called from any thread; draining and the
  // initiator-side recorder events assume the caller is in a
  // quiesced/serial context with current_cpu meaningful.
  struct RemoteOp {
    enum class Kind : u8 { kFlushPage, kFlushAll, kIpi, kEvictFrame, kWake };
    Kind kind;
    u32 arg = 0;    // kFlushPage: linear; kEvictFrame: frame; kWake: pid
    u32 irq = 0;    // kIpi: IRQ line on the target's local PIC
    u64 stamp = 0;  // kWake: the waker's cycle stamp (causality)
  };
  void set_stage_remote_ops(bool on) { stage_remote_ops_ = on; }
  bool stage_remote_ops() const { return stage_remote_ops_; }
  // Applies the target's queued ops in FIFO order as-if executing on the
  // target core (temporarily switches current_cpu and disables staging so
  // the synchronous appliers run). Returns the number of ops applied.
  u32 DrainRemoteOps(u32 target_cpu);
  u32 staged_remote_ops(u32 target_cpu) const;
  void StageRemoteOp(u32 target_cpu, const RemoteOp& op);

  // Handler for a device IRQ (NIC, ...), run host-side after the interrupted
  // context has been restored. The timer IRQ is the kernel's own.
  using IrqHandler = std::function<void(Kernel&)>;
  void RegisterIrqHandler(u32 irq, IrqHandler handler);
  void UnregisterIrqHandler(u32 irq) { irq_handlers_.erase(irq); }
  void UnregisterSyscall(u32 number) { extra_syscalls_.erase(number); }

  // IRET from the current interrupt-gate frame preserving every register
  // (hardware interrupts must be transparent to the interrupted code).
  void ReturnFromInterrupt();

  // Full IRQ service from a live gate frame: charge, EOI, resume the
  // interrupted context, then run watchdog/scheduler bookkeeping (skipped
  // in_kernel_context, e.g. during a kernel-extension invocation) and the
  // registered device handler. Returns true if the scheduler asked to
  // preempt the current process.
  bool HandleIrqFromGate(u32 irq, bool in_kernel_context);

  // Idle-loop IRQ service: advances devices to the current cycle counter and
  // dispatches handlers directly (there is no simulated context to interrupt).
  void ServicePendingIrqsHostSide();

  // Dispatches one CPU stop (host call / fault / halt) and reports what the
  // run loop should do next. Shared by RunProcess and the Scheduler.
  StopAction DispatchStop(const StopInfo& stop);

  // --- Blocking / wakeup -------------------------------------------------------
  // Parks the current process mid-syscall: the saved context re-executes the
  // `int $0x80` on wakeup (restart semantics, as Linux does for interrupted
  // slow syscalls). The caller must not ReturnFromGate afterwards.
  void BlockCurrentForRestart();
  void WakeProcess(Process& proc);

  void set_scheduler(Scheduler* sched) { sched_ = sched; }
  Scheduler* scheduler() { return sched_; }

  // --- Observability (optional, pure observers) --------------------------------
  // Attaches a flight recorder (tracks 0..N-1 = vCPUs; device tracks are the
  // harness's business) and/or a cycle profiler to the whole machine: every
  // CPU gets its hooks, and kernel-level transitions (IRQ service, context
  // switches, shootdowns, protection crossings) record/attribute through
  // these pointers. Hooks only read the cycle counters — they never charge —
  // so runs are byte-identical with telemetry attached. nullptr detaches.
  void AttachObservability(obs::FlightRecorder* recorder, obs::CycleProfile* profiler);
  obs::FlightRecorder* recorder() const { return recorder_; }
  obs::CycleProfile* profiler() const { return profiler_; }
  // Category switch + restore helpers for host-side kernel code running on
  // the current vCPU (no-ops when no profiler is attached).
  obs::Category ProfileSet(obs::Category cat);
  void ProfileRestore(obs::Category cat) { ProfileSet(cat); }

  // --- Syscall/gate plumbing ---------------------------------------------------
  // Emulates IRET from the current interrupt-gate frame, placing `eax_value`
  // in EAX. Used by every syscall handler.
  void ReturnFromGate(u32 eax_value);
  // Reads the interrupt frame of the in-progress gate entry.
  struct GateFrame {
    u32 eip = 0, cs = 0, eflags = 0, esp = 0, ss = 0;
    bool has_outer_stack = false;
  };
  bool PeekGateFrame(GateFrame* frame);
  // Rewrites the CS/SS selectors in the current gate frame (init_PL uses
  // this to return the caller at SPL 2 instead of SPL 3).
  bool PatchGateFrameSelectors(Selector cs, Selector ss);

  // Charges host-side kernel work to the simulated cycle counter.
  void Charge(u32 cycles) { cpu().set_cycles(cpu().cycles() + cycles); }

  // --- Signals ----------------------------------------------------------------
  // Queues + immediately delivers `signo` to the process's registered
  // handler (at the application privilege level); kills on no handler.
  void DeliverSignal(Process& proc, u32 signo);

  // --- Console ----------------------------------------------------------------
  const std::string& console() const { return console_; }

  // The process running on the *current* vCPU (the one whose trap the
  // kernel is servicing), and per-CPU lookup for schedulers/harnesses.
  Process* current() { return current_[machine_.current_cpu_index()]; }
  Process* current(u32 cpu_index) { return current_[cpu_index]; }
  DescriptorTable& gdt() { return machine_.gdt(); }

  // The paper's Extension Function Table lives in the kernel (Figure 4);
  // the kext module populates it and kSysInvokeKext consults it.
  using KextInvoker = std::function<u32(Kernel&, u32 function_id, u32 arg, bool* ok)>;
  void SetKextInvoker(KextInvoker invoker) { kext_invoker_ = std::move(invoker); }

  // Extra syscall handlers (dl / palladium modules add theirs).
  using SyscallHandler = std::function<void(Kernel&, u32 ebx, u32 ecx, u32 edx)>;
  void RegisterSyscall(u32 number, SyscallHandler handler);

 private:
  friend class Scheduler;

  void SetupGdtIdt();
  void SwitchTo(Process& proc);
  void SaveCurrent();
  // A frame returning to the allocator must leave no decoded image on any
  // core (SMP: every vCPU has its own decode cache).
  void EvictFrameEverywhere(u32 frame);

  void HandleSyscall();
  void HandleFault(const StopInfo& stop);
  void KillCurrent(const std::string& reason);

  // One watchdog tick for the user-extension CPU-time limit (Section 4.5.2).
  // Interrupt-driven from the timer IRQ when interrupts are enabled, or from
  // the cooperative slice check otherwise — same logic either way.
  void ExtensionWatchdogTick(Process& proc);
  // Shared IRET body of ReturnFromGate / ReturnFromInterrupt.
  void ResumeFromGateFrame();

  // Built-in syscall implementations.
  void SysExit(u32 code);
  void SysWrite(u32 ptr, u32 len);
  void SysBrk(u32 new_brk);
  void SysMmap(u32 addr, u32 len, u32 prot);
  void SysMunmap(u32 addr, u32 len);
  void SysMprotect(u32 addr, u32 len, u32 prot);
  void SysSigaction(u32 signo, u32 handler);
  void SysSigreturn();
  void SysFork();
  void SysInitPL();
  void SysSetRange(u32 addr, u32 len, u32 ppl);
  void SysSetCallGate(u32 function);

  void InstallSignalTrampoline(Process& proc);
  bool BuildAddressSpace(Process& proc);
  void ReleaseAddressSpace(Process& proc);

  // Page-table editor wired to the CPU's invalidation hook: every mapping
  // edit flushes that page's TLB entry, which also kills the instruction
  // fetch fast path (Tlb::change_count). Use this, not a raw
  // PageTableEditor, for any edit while the machine is live.
  PageTableEditor Editor(u32 cr3);

  // The process slot of the current vCPU (most kernel code runs "on" the
  // trapping core; this is its `current` in the Linux sense).
  Process*& cur() { return current_[machine_.current_cpu_index()]; }

  Machine& machine_;
  Config config_;
  FrameAllocator frames_;
  u32 kernel_page_dir_template_ = 0;  // PDEs >= 3GB shared by all processes

  // Interrupt fabric, one per vCPU (see the Interrupts section above).
  struct CpuIrqFabric {
    InterruptController pic{kVecIrqBase};
    IrqHub hub{pic};
    IntervalTimer timer{pic, kIrqTimer};
  };
  std::vector<std::unique_ptr<CpuIrqFabric>> fabric_;
  bool interrupts_enabled_ = false;
  std::map<u32, IrqHandler> irq_handlers_;
  Scheduler* sched_ = nullptr;
  bool preempt_pending_ = false;
  SmpStats smp_stats_;
  bool stage_remote_ops_ = false;
  mutable std::mutex remote_ops_mu_;           // staging can come off-thread
  std::vector<std::vector<RemoteOp>> staged_remote_;  // one FIFO per vCPU
  obs::FlightRecorder* recorder_ = nullptr;
  obs::CycleProfile* profiler_ = nullptr;

  std::map<Pid, std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 1;
  std::vector<Process*> current_;  // one slot per vCPU

  std::map<u32, HostCallHandler> host_calls_;
  u32 next_host_call_id_ = kHostEntryFirstFree;
  std::map<u32, SyscallHandler> extra_syscalls_;
  KextInvoker kext_invoker_;

  std::string console_;
};

}  // namespace palladium

#endif  // SRC_KERNEL_KERNEL_H_
