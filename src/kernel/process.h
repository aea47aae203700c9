// Process model: virtual-memory areas, page directory, saved CPU context,
// signal state, and the Palladium-specific taskSPL field (Section 4.5.2).
#ifndef SRC_KERNEL_PROCESS_H_
#define SRC_KERNEL_PROCESS_H_

#include <array>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/hw/cpu.h"
#include "src/kernel/abi.h"

namespace palladium {

using Pid = u32;

enum class ProcessState : u8 { kRunnable, kBlocked, kExited, kKilled };

// One mapped region of the user address space.
struct VmArea {
  u32 start = 0;  // page-aligned
  u32 end = 0;    // exclusive, page-aligned
  u32 prot = kProtRead | kProtWrite;
  // Palladium: area explicitly exposed to extensions via set_range; its
  // pages stay at PPL 1 even though they are writable.
  bool shared_ppl1 = false;
  const char* tag = "";

  bool Contains(u32 addr) const { return addr >= start && addr < end; }
};

struct SignalState {
  std::array<u32, kNumSignals> handlers{};  // 0 = default (kill)
  bool in_handler = false;
  CpuContext saved_context;  // context to restore on sigreturn
  u64 delivered_count = 0;
  u32 last_signal = 0;
};

struct Process {
  Pid pid = 0;
  ProcessState state = ProcessState::kRunnable;
  i32 exit_code = 0;
  std::string kill_reason;

  u32 cr3 = 0;  // page-directory frame
  std::vector<VmArea> areas;
  u32 brk = 0;          // heap break (linear)
  u32 heap_start = 0;
  u32 mmap_next = kMmapSearchBase;

  // Palladium state.
  u8 task_spl = 3;         // logical SPL; 2 after init_PL
  bool ppl_policy = false; // writable pages get PPL 0 on fault
  u32 xmalloc_brk = 0;     // extension heap break (inside an extension area)
  std::map<u32, u8> page_ppl;  // page number -> PPL (0 or 1) chosen by set_range
  u32 pl2_stack_top = 0;     // TSS inner stack for SPL3 -> SPL2 transitions

  // Kernel stack (direct-mapped): esp0 is a *kernel-segment offset*.
  u32 kernel_stack_frame = 0;
  u32 esp0 = 0;

  // Scheduler bookkeeping (SMP): the vCPU whose run queue owns this process
  // (wakeups go home; stealing migrates it), and whether it currently sits
  // in a ready queue (guards against double-enqueue).
  u32 home_cpu = 0;
  bool sched_queued = false;

  CpuContext context;  // saved user context while not running
  SignalState signals;

  // Cycle bookkeeping for the extension time limit: consecutive cycles spent
  // at SPL 3 while task_spl == 2 (i.e. inside a user extension).
  u64 ext_cycle_start = 0;
  bool in_extension = false;

  // Packet delivery queue (filled by the dataplane from NIC RX interrupts,
  // drained by sys_pkt_recv). waiting_packet marks a process blocked in
  // pkt_recv so a delivery wakes exactly the right sleeper.
  std::deque<std::vector<u8>> pkt_queue;
  u32 pkt_queue_limit = 64;
  bool waiting_packet = false;
  u64 pkts_delivered = 0;
  u64 pkts_dropped = 0;

  VmArea* FindArea(u32 addr) {
    for (VmArea& a : areas) {
      if (a.Contains(addr)) return &a;
    }
    return nullptr;
  }
  const VmArea* FindArea(u32 addr) const {
    for (const VmArea& a : areas) {
      if (a.Contains(addr)) return &a;
    }
    return nullptr;
  }
};

}  // namespace palladium

#endif  // SRC_KERNEL_PROCESS_H_
