// The kernel/user ABI: GDT layout, selectors, syscall numbers, signal
// numbers, interrupt vectors, and the fixed virtual-address-space layout of
// Figure 2 in the paper. Assembly programs reference these values via .equ;
// keep them in sync with the table below.
#ifndef SRC_KERNEL_ABI_H_
#define SRC_KERNEL_ABI_H_

#include "src/hw/segment.h"
#include "src/hw/types.h"

namespace palladium {

// --- GDT layout -------------------------------------------------------------
// 0        null
// 1,2      kernel code/data   base=3GB  limit=1GB  DPL0
// 3,4      user code/data     base=0    limit=3GB  DPL3
// 5,6      application code/data (Palladium SPL 2) base=0 limit=3GB DPL2
// 7        kernel-return call gate (kernel extensions -> kernel, DPL1)
// 8..15    reserved
// 16..     dynamically allocated: extension segments, application call gates
inline constexpr u16 kGdtKernelCs = 1;
inline constexpr u16 kGdtKernelDs = 2;
inline constexpr u16 kGdtUserCs = 3;
inline constexpr u16 kGdtUserDs = 4;
inline constexpr u16 kGdtAppCs = 5;
inline constexpr u16 kGdtAppDs = 6;
inline constexpr u16 kGdtKernelReturnGate = 7;
inline constexpr u16 kGdtFirstDynamic = 16;

inline constexpr Selector kKernelCsSel = Selector::FromIndex(kGdtKernelCs, 0);
inline constexpr Selector kKernelDsSel = Selector::FromIndex(kGdtKernelDs, 0);
inline constexpr Selector kUserCsSel = Selector::FromIndex(kGdtUserCs, 3);
inline constexpr Selector kUserDsSel = Selector::FromIndex(kGdtUserDs, 3);
inline constexpr Selector kAppCsSel = Selector::FromIndex(kGdtAppCs, 2);
inline constexpr Selector kAppDsSel = Selector::FromIndex(kGdtAppDs, 2);
inline constexpr Selector kKernelReturnGateSel = Selector::FromIndex(kGdtKernelReturnGate, 1);

// --- Interrupt vectors ------------------------------------------------------
inline constexpr u8 kVecSyscall = 0x80;        // user / app system calls (gate DPL 3)
inline constexpr u8 kVecKernelService = 0x81;  // kernel-extension services (gate DPL 1)
// Hardware IRQs are remapped to 0x20..0x2F (the Linux-on-x86 convention).
inline constexpr u8 kVecIrqBase = 0x20;
inline constexpr u32 kNumIrqVectors = 16;
inline constexpr u32 kIrqTimer = 0;  // interval timer (scheduler + watchdog), per CPU
// IPI lines (SMP): raised on the *target* CPU's local PIC. They sit just
// below the timer in priority and above every device line, matching the
// "IPIs outrank device interrupts" convention: a pending TLB shootdown must
// not wait behind NIC servicing on the target core.
inline constexpr u32 kIrqIpiShootdown = 1;  // TLB shootdown ack (vector 0x21)
inline constexpr u32 kIrqIpiResched = 2;    // reschedule kick (vector 0x22)
inline constexpr u32 kIrqNic = 5;    // network interface RX (per-queue: owning core)
// TX-completion line: the NIC latches it when descriptor DMA finishes (one
// edge per completion batch, not per frame). With multi-queue wiring each
// queue raises the line on its owning core's local PIC, MSI-X style.
inline constexpr u32 kIrqNicTx = 6;

// --- Host entry ids (offsets into the host-call range) ----------------------
inline constexpr u32 kHostEntrySyscall = 0;
inline constexpr u32 kHostEntryKernelService = 1;
inline constexpr u32 kHostEntryKextReturn = 2;
// IRQ gate targets occupy the top of the 256-entry host page.
inline constexpr u32 kHostEntryIrqBase = 224;

// --- System call numbers (Linux-2.0-flavoured + Palladium additions) --------
inline constexpr u32 kSysExit = 1;
inline constexpr u32 kSysFork = 2;
inline constexpr u32 kSysWrite = 4;      // ebx=ptr ecx=len -> console
inline constexpr u32 kSysGetPid = 20;
inline constexpr u32 kSysKill = 37;  // ebx=signo, delivered to self on return
inline constexpr u32 kSysBrk = 45;
inline constexpr u32 kSysMmap = 90;      // ebx=addr(0=any) ecx=len edx=prot
inline constexpr u32 kSysMunmap = 91;
inline constexpr u32 kSysMprotect = 125;
inline constexpr u32 kSysSigaction = 67;   // ebx=signo ecx=handler
inline constexpr u32 kSysSigreturn = 119;
// Palladium (paper Section 4.4.2 / 4.5.2):
inline constexpr u32 kSysInitPL = 200;       // promote to SPL 2, writable pages -> PPL 0
inline constexpr u32 kSysSetRange = 201;     // ebx=addr ecx=len edx=ppl(0|1)
inline constexpr u32 kSysSetCallGate = 202;  // ebx=function -> returns gate selector
inline constexpr u32 kSysInvokeKext = 210;   // ebx=extension function id ecx=arg
// Dynamic loading (the seg_dl* family of Section 4.4.2; the loader logic is
// kernel-assisted in this prototype, standing in for a user-level ld.so):
inline constexpr u32 kSysSegDlopen = 212;    // ebx=name -> handle
inline constexpr u32 kSysSegDlsym = 213;     // ebx=handle ecx=name -> Prepare ptr
inline constexpr u32 kSysDlsym = 214;        // ebx=handle ecx=name -> raw data ptr
inline constexpr u32 kSysSegDlclose = 215;   // ebx=handle
inline constexpr u32 kSysDlopenUnprot = 216; // unprotected dlopen (baseline)
inline constexpr u32 kSysExposeService = 217; // ebx=name ecx=fn -> gate selector
// Packet dataplane (NIC RX -> protected filter -> per-process queues):
inline constexpr u32 kSysPktRecv = 220;  // ebx=buf ecx=cap edx=flags(1=nonblock) -> len
inline constexpr u32 kSysPktSend = 221;  // ebx=buf ecx=len -> len (via the NIC TX ring)
inline constexpr u32 kSysYield = 222;    // voluntarily end the scheduling slice
// Batched packet I/O (recvmmsg/sendmmsg-style): one gate crossing moves a
// vector of frames. Buffer layout: repeated records of [u32 len][len bytes],
// each record padded to 4-byte alignment.
inline constexpr u32 kSysPktRecvM = 223;  // ebx=buf ecx=cap edx=flags -> total bytes
inline constexpr u32 kSysPktSendM = 224;  // ebx=buf ecx=total bytes -> frames sent

// Errno-style return values (negative in EAX, as in Linux).
inline constexpr u32 kErrPerm = static_cast<u32>(-1);
inline constexpr u32 kErrNoEnt = static_cast<u32>(-2);
inline constexpr u32 kErrFault = static_cast<u32>(-14);
inline constexpr u32 kErrInval = static_cast<u32>(-22);
inline constexpr u32 kErrNoMem = static_cast<u32>(-12);
inline constexpr u32 kErrAgain = static_cast<u32>(-11);     // pkt_recv: queue empty (nonblock)
inline constexpr u32 kErrShutdown = static_cast<u32>(-108); // pkt_recv: dataplane drained

// --- Signals ---------------------------------------------------------------
inline constexpr u32 kSigSegv = 11;
inline constexpr u32 kSigXcpu = 24;  // extension ran past its time limit
inline constexpr u32 kNumSignals = 32;

// --- Memory protection bits for mmap/mprotect ------------------------------
inline constexpr u32 kProtRead = 1;
inline constexpr u32 kProtWrite = 2;
inline constexpr u32 kProtExec = 4;

// --- Virtual address space layout (Figure 2) --------------------------------
inline constexpr u32 kUserTextBase = 0x08048000;   // "a little greater than 0"
inline constexpr u32 kSharedLibBase = 0x40000000;  // middle of the 0-3GB range
inline constexpr u32 kUserStackTop = 0xBFFFE000;   // below 3 GB
inline constexpr u32 kUserStackSize = 64 * kPageSize;
inline constexpr u32 kSignalTrampolinePage = 0xBFFFE000;  // one PPL1 RO page
inline constexpr u32 kMmapSearchBase = 0x50000000;

// Kernel-side layout (all linear addresses; kernel segment base is 3 GB so
// kernel-segment offsets are linear - kKernelBase).
inline constexpr u32 kHostCallLinearBase = kKernelBase;        // 4 KB of host stubs
inline constexpr u32 kKernelStackSpan = 2 * kPageSize;         // per-process
inline constexpr u32 kKextRegionBase = 0xC8000000;             // extension segments live here
inline constexpr u32 kKextRegionSpan = 0x08000000;

// --- Kernel services exposed to kernel extensions (via INT 0x81) -----------
inline constexpr u32 kKsvcPrintk = 1;     // ebx=segment-relative ptr ecx=len
inline constexpr u32 kKsvcGetCycles = 2;  // -> low 32 bits of the cycle counter
inline constexpr u32 kKsvcPktOutput = 3;  // router-style "emit packet" counter

// --- Kernel software cost model (cycles charged for host-side kernel work) --
// Calibrated against the measurements quoted in Section 5.1 of the paper.
struct KernelCosts {
  u32 syscall_dispatch = 120;        // gate already charged by hardware model
  u32 page_fault_service = 350;      // demand-paging a fresh page
  u32 sigsegv_delivery = 3100;       // + in-sim frame pushes => ~3,325 total
  u32 kext_gp_processing = 1020;     // abort path for kernel extensions
  u32 ppl_mark_startup = 3400;       // set_range: fixed cost ("3000 to 5000")
  u32 ppl_mark_per_page = 45;        // set_range: per page marked
  u32 fork_base = 20000;
  u32 exec_base = 40000;
  u32 context_switch = 500;
  // Interrupt path: kernel-side IRQ prologue/epilogue around the handler
  // (the gate and IRET themselves are charged by the hardware model).
  u32 irq_dispatch = 290;
  // Packet syscalls: fixed dispatch work plus the copy loop.
  u32 pkt_syscall_base = 380;
  u32 pkt_copy_per_byte = 1;
  // Batched packet syscalls: the gate + dispatch + base are paid once per
  // call; each additional frame in the vector costs only the queue/ring
  // bookkeeping plus its copy loop.
  u32 pkt_msg_overhead = 48;
  // NAPI poll loop: driver cost per poll iteration (ring scan, IRQ
  // mask/unmask bookkeeping) and per frame collected from the ring.
  u32 napi_poll = 80;
  u32 napi_per_frame = 16;
};

}  // namespace palladium

#endif  // SRC_KERNEL_ABI_H_
