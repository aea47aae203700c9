// SMP execution harnesses: the deterministic min-cycle interleaver (the
// oracle, and the CI default) and the host-parallel threaded mode.
//
// SmpInterleaver model: each vCPU carries its own cycle counter; the
// interleaver always steps the vCPU with the *smallest* counter (ties broken
// by lowest index) and lets it run only until it is no longer the minimum.
// Because Cpu::Run honours its cycle limit strictly at instruction-retire
// boundaries — the superblock engine bounds its quanta the same way: basic-
// block runs end early at the cycle-limit frontier, so a slice never
// overshoots by more than the one instruction the per-instruction path would
// also retire — the resulting schedule is a deterministic retire-boundary
// interleave: a pure function of program + initial state, independent of
// host timing, and — because every Engine and the D-TLB keep per-CPU cycle
// counters byte-identical to the per-byte oracle — identical in all eight
// engine × D-TLB modes. That is what makes SMP runs differential-testable
// with the same oracle discipline as the uniprocessor
// (tests/cpu_property_test.cc, tests/smp_test.cc).
//
// Host-side events (scripted PTE edits with cross-CPU shootdown, fault
// injection, ...) register against a *global* cycle threshold and fire the
// first time the frontier — the minimum counter over live vCPUs — reaches
// it, again a deterministic point. Both harnesses keep them in one
// SmpEventQueue and pick the frontier with one rule.
//
// ThreadedSmp model: one host thread per vCPU. Each thread runs its vCPU
// freely up to the next *epoch barrier* cycle, then all threads rendezvous;
// the last arriver performs the serial barrier work (replay deferred
// cross-CPU invalidations, fire due scripted events with exactly the
// interleaver's ordering rules, pick the next barrier) and releases the
// epoch. The barrier schedule is chosen so that no thread ever runs past an
// unfired event: the next barrier is min(next epoch-grid point, next
// unfired event cycle, cycle limit), and a vCPU stopping at barrier B sits
// at its first retire boundary >= B — which is precisely the state the
// interleaver has when its frontier first reaches B. Hence for
// *data-race-free* workloads (no two vCPUs touch the same bytes within an
// epoch; a change to a sibling's state goes through a scripted event in the
// serial window) the threaded mode reaches byte-identical final state,
// cycle counters and event streams. Racy workloads get whatever the host
// memory system gives them — the interleaver remains the oracle for those,
// which is why it stays the default: a caller gets threaded mode only by
// constructing a ThreadedSmp.
//
// The kernel's Scheduler implements this same min-cycle discipline itself
// (it needs scheduling decisions interleaved with the stepping); these
// classes are the bare-machine harnesses used by fuzzers, tests and benches.
#ifndef SRC_HW_SMP_H_
#define SRC_HW_SMP_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/hw/machine.h"

namespace palladium {

// The scripted host-side events of one harness. Each fires once, the first
// time the frontier reaches its cycle; due events fire in cycle order, ties
// in registration order. The caller decides which vCPU is current while
// they fire and never fires once the frontier has reached its cycle limit.
class SmpEventQueue {
 public:
  using EventFn = std::function<void()>;

  void Add(u64 cycle, EventFn fn);
  // Fires every event due at `frontier` (cycle <= frontier), in order.
  void FireDue(u64 frontier);
  // Cycle of the earliest unfired event; ~0 when none is left.
  u64 next_cycle() const { return events_.empty() ? ~0ull : events_.begin()->first; }

 private:
  std::multimap<u64, EventFn> events_;  // equal keys keep insertion order
};

class SmpInterleaver {
 public:
  // Return value of the stop handler: keep stepping this vCPU or park it.
  // A parked vCPU no longer advances and no longer holds back the frontier.
  using StopHandler = std::function<bool(u32 cpu_index, const StopInfo& stop)>;
  using EventFn = SmpEventQueue::EventFn;

  explicit SmpInterleaver(Machine& machine);

  // Registers a host-side action fired once, when the frontier first
  // reaches `cycle`. Events fire in cycle order (ties: registration order),
  // with the machine's current vCPU set to the frontier vCPU.
  void AddEvent(u64 cycle, EventFn fn) { events_.Add(cycle, std::move(fn)); }

  void Park(u32 cpu_index) { parked_[cpu_index] = true; }
  void Unpark(u32 cpu_index) { parked_[cpu_index] = false; }
  bool parked(u32 cpu_index) const { return parked_[cpu_index]; }

  // Runs until every vCPU is parked or every live vCPU's counter has
  // reached `cycle_limit`. `on_stop` is invoked for every CPU stop that is
  // not the interleaver's own slice boundary (faults, HLT, host calls).
  void Run(u64 cycle_limit, const StopHandler& on_stop);

  // Frontier: smallest cycle counter over live vCPUs (~0 when all parked).
  u64 Frontier() const;

 private:
  Machine& machine_;
  std::vector<bool> parked_;
  SmpEventQueue events_;
};

// Sense-reversing rendezvous for one epoch generation. C++17 has no
// std::barrier, and epochs are a few thousand *simulated* cycles (tens of
// microseconds of host work), so the wait is a bounded spin on the phase
// counter before falling back to a condition variable — a pure CV barrier
// would eat most of the parallel speedup in wakeup latency.
class EpochBarrier {
 public:
  explicit EpochBarrier(u32 parties) : parties_(parties) {}

  // Returns true to exactly one caller per phase — the last arriver, which
  // must perform the serial work and then call Release(). All other callers
  // block until Release() opens the next phase.
  bool Arrive();

  // Opens the next phase. Resets the arrival count *before* publishing the
  // phase bump (both under the mutex), so a fast thread re-arriving for the
  // next epoch cannot observe a stale count.
  void Release();

 private:
  const u32 parties_;
  std::atomic<u32> arrived_{0};
  std::atomic<u64> phase_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// Host-parallel SMP: one host thread per vCPU, epoch-barrier synchronized.
// API mirrors SmpInterleaver so differential harnesses can drive either.
//
// Threading contract:
//  - `on_stop` runs on the stopping vCPU's own thread, concurrently with
//    other vCPUs' handlers. It must only touch state owned by that vCPU
//    (index it explicitly; never use Machine::cpu() / current_cpu here).
//  - Scripted events and the barrier hook run in the quiesced serial window
//    with every vCPU parked at a retire boundary; they may touch anything,
//    including Park/Unpark and Machine::set_current_cpu.
//  - AddEvent is setup-time (before Run) or event-time (from an event fn);
//    calling it from on_stop would race the serial scheduler.
//  - There is no mid-epoch cross-CPU channel: a scripted event is how a
//    bare harness changes a sibling mid-run. The kernel's RemoteOp queue
//    (Kernel::StageRemoteOp) is the channel a kernel-level epoch loop
//    will drain at barriers; no harness drives it yet.
class ThreadedSmp {
 public:
  using StopHandler = SmpInterleaver::StopHandler;
  using EventFn = SmpEventQueue::EventFn;
  using BarrierHook = std::function<void(u64 barrier_cycle)>;

  // "A few thousand simulated cycles": long enough to amortize the barrier
  // (a handful of microseconds) over tens of microseconds of simulation,
  // short enough that cross-CPU delivery latency stays bounded and IRQ-rich
  // workloads don't starve.
  static constexpr u64 kDefaultEpochCycles = 4096;

  // Throws std::invalid_argument for a zero epoch (the barrier grid is
  // computed by dividing by it).
  explicit ThreadedSmp(Machine& machine, u64 epoch_cycles = kDefaultEpochCycles);

  void AddEvent(u64 cycle, EventFn fn) { events_.Add(cycle, std::move(fn)); }
  void Park(u32 cpu_index) { parked_[cpu_index].store(true, std::memory_order_relaxed); }
  void Unpark(u32 cpu_index) { parked_[cpu_index].store(false, std::memory_order_relaxed); }
  bool parked(u32 cpu_index) const {
    return parked_[cpu_index].load(std::memory_order_relaxed);
  }

  // Invoked in the serial window of every barrier (after replay and event
  // firing) with the barrier's cycle. Used by the differential fuzz to
  // sample per-epoch cycle counters.
  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }

  u64 epoch_cycles() const { return epoch_cycles_; }

  // Runs until every vCPU is parked or every live vCPU's counter has
  // reached `cycle_limit`. Spawns num_cpus-1 host threads (the calling
  // thread drives vCPU 0) and joins them before returning.
  void Run(u64 cycle_limit, const StopHandler& on_stop);

  u64 Frontier() const;

 private:
  void WorkerLoop(u32 cpu_index, const StopHandler& on_stop);
  // Last arriver only: replay write-lane logs to sibling observers, fire
  // due events with the interleaver's rules, pick the next barrier cycle or
  // declare the run done.
  void SerialBarrierWork(u64 cycle_limit);

  Machine& machine_;
  const u64 epoch_cycles_;
  EpochBarrier barrier_;
  std::vector<std::atomic<bool>> parked_;
  std::vector<PhysicalMemory::WriteLane> lanes_;
  SmpEventQueue events_;
  std::atomic<u64> next_barrier_{0};
  std::atomic<bool> done_{false};
  u64 cycle_limit_ = 0;
  BarrierHook hook_;
};

}  // namespace palladium

#endif  // SRC_HW_SMP_H_
