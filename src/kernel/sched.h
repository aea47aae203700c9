// Preemptive scheduler over the kernel's processes, driven by the per-CPU
// hardware interval timers: a timer IRQ whose slice has expired context-
// switches to the next runnable process on that vCPU, blocking syscalls park
// the current process until a device interrupt wakes it, and idle vCPUs
// fast-forward to the next device event when everything sleeps.
//
// SMP: one ready queue per vCPU with work stealing (an idle vCPU takes from
// the back of the longest sibling queue). RunAll is the machine's
// deterministic interleaver: it always advances the vCPU with the smallest
// cycle counter and lets it run at most kSmpQuantumCycles past the
// second-smallest before rotating — SmpInterleaver's frontier rule
// (PickFrontier, src/hw/smp.h), plus scheduling. A vCPU with
// no current process still services its interrupt fabric (a parked vCPU 0
// keeps draining NIC RX while workers run elsewhere), and a process woken
// by core A never starts on core B earlier than A's wake point (its queue
// stamp bumps the idle core's clock), so cycle accounting is causal. A
// process enters a ready queue only through AddProcess or a wake: fork
// queues its child on the forking vCPU, stamped with the clock at fork
// return, and an idle sibling steals it like any other queued process.
// On a 1-vCPU machine all of this degenerates to the PR 3 behavior.
//
// Constructing a Scheduler enables hardware timer interrupts on the kernel
// (preemption needs a timer) and registers itself as the kernel's scheduler.
#ifndef SRC_KERNEL_SCHED_H_
#define SRC_KERNEL_SCHED_H_

#include <deque>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"

namespace palladium {

class Scheduler {
 public:
  struct Config {
    // A process runs at most this many cycles per slice before a timer tick
    // rotates it to the back of its vCPU's ready queue (if anyone waits).
    u64 slice_cycles = 200'000;
  };

  // SMP interleave granularity: a running vCPU may get at most this far
  // ahead of the laggard vCPU before control rotates. Smaller = finer
  // interleave (more host overhead); cross-CPU event visibility latency is
  // bounded by it. Irrelevant on a 1-vCPU machine.
  static constexpr u64 kSmpQuantumCycles = 4'000;

  struct Stats {
    u64 context_switches = 0;  // times a process was put on a CPU
    u64 preemptions = 0;       // involuntary slice-expiry switches
    u64 yields_or_blocks = 0;  // voluntary departures (yield, blocking syscall)
    u64 timer_ticks = 0;       // timer IRQs observed while scheduling
    u64 idle_jumps = 0;        // machine-idle fast-forwards to a device event
    u64 idle_cycles = 0;       // cycles vCPUs skipped while parked (per-core idle)
    u64 steals = 0;            // cross-CPU work-steals
  };
  struct CpuStats {
    u64 context_switches = 0;
    u64 preemptions = 0;
    u64 steals = 0;  // processes this vCPU stole from a sibling
  };

  struct RunAllResult {
    u32 exited = 0;
    u32 killed = 0;
    u32 blocked = 0;           // still parked when RunAll returned
    bool budget_exhausted = false;
    bool deadlocked = false;   // everyone blocked, no device event, no idle-hook progress
    u64 cycles = 0;            // simulated cycles consumed (max over vCPUs)
  };

  explicit Scheduler(Kernel& kernel);
  Scheduler(Kernel& kernel, const Config& config);
  ~Scheduler();

  // Adds a runnable process, assigning it a home vCPU round-robin (or
  // explicitly: tests that pin placement, and fork, which queues the child
  // on the forking vCPU).
  void AddProcess(Pid pid);
  void AddProcess(Pid pid, u32 home_cpu);

  // Runs every managed process to completion (exit/kill), or until the cycle
  // budget is exhausted (per-vCPU counters measured from the entry maximum),
  // or until the system deadlocks (every live process blocked with no wakeup
  // source in sight).
  RunAllResult RunAll(u64 cycle_budget = ~0ull);

  // Kernel callbacks (run on the machine's current vCPU).
  bool OnTimerTick();    // true => preempt the current process
  void OnWake(Pid pid);  // a blocked process became runnable: queue it home
  void OnYield() { yield_pending_ = true; }  // sys_yield: voluntary departure

  // Consulted when every process is blocked and no device has a scheduled
  // event: return true after creating new work (e.g. the harness decides the
  // packet source is drained and shuts the dataplane down, waking sleepers).
  using IdleHook = std::function<bool()>;
  void set_idle_hook(IdleHook hook) { idle_hook_ = std::move(hook); }

  const Stats& stats() const { return stats_; }
  const CpuStats& cpu_stats(u32 cpu_index) const { return cpus_[cpu_index].stats; }
  const Config& config() const { return config_; }

 private:
  struct ReadyEntry {
    Pid pid = 0;
    u64 stamp = 0;  // wake/enqueue cycle on the enqueuing vCPU (causality)
  };
  struct PerCpu {
    std::deque<ReadyEntry> ready;
    u64 slice_start = 0;
    CpuStats stats;
  };

  // Puts a process on vCPU `c`: own queue, else steal from a sibling.
  // Returns false when there is nothing to run.
  bool Dispatch(u32 c, u64 deadline);
  Pid PopRunnable(std::deque<ReadyEntry>& queue, bool from_back, u64* stamp);
  void Enqueue(u32 c, Pid pid, u64 stamp, bool front);
  // Advances a parked vCPU to `event_cycle` and services its fabric.
  void ServiceParked(u32 c, u64 event_cycle, bool machine_idle);
  // Moves idle vCPU `c`'s clock forward to `cycle`, booking the span as idle
  // in the stats (which obs::BusyCycles subtracts) and in the profiler.
  void SkipIdle(u32 c, u64 cycle);

  Kernel& kernel_;
  Config config_;
  std::vector<PerCpu> cpus_;
  u32 next_home_ = 0;
  bool yield_pending_ = false;
  Stats stats_;
  IdleHook idle_hook_;
};

}  // namespace palladium

#endif  // SRC_KERNEL_SCHED_H_
