#include "src/hw/smp.h"

#include <algorithm>
#include <stdexcept>

namespace palladium {

namespace {

// The frontier vCPU: the live vCPU with the smallest counter, lowest index
// on ties (cpu == num_cpus when every vCPU is parked), and the second-
// smallest live counter.
struct FrontierPick {
  u32 cpu;
  u64 cycles = ~0ull;
  u64 second = ~0ull;
};

template <typename IsParked>
FrontierPick PickFrontier(const Machine& machine, IsParked is_parked) {
  const u32 n = machine.num_cpus();
  FrontierPick f{n};
  for (u32 c = 0; c < n; ++c) {
    if (is_parked(c)) continue;
    const u64 cy = machine.cpu(c).cycles();
    if (f.cpu == n || cy < f.cycles) {
      f.second = f.cycles;
      f.cycles = cy;
      f.cpu = c;
    } else {
      f.second = std::min(f.second, cy);
    }
  }
  return f;
}

}  // namespace

void SmpEventQueue::Add(u64 cycle, EventFn fn) { events_.emplace(cycle, std::move(fn)); }

void SmpEventQueue::FireDue(u64 frontier) {
  // Pop before calling: an event may add events.
  while (!events_.empty() && events_.begin()->first <= frontier) {
    EventFn fn = std::move(events_.begin()->second);
    events_.erase(events_.begin());
    fn();
  }
}

SmpInterleaver::SmpInterleaver(Machine& machine)
    : machine_(machine), parked_(machine.num_cpus(), false) {}

u64 SmpInterleaver::Frontier() const {
  return PickFrontier(machine_, [this](u32 c) { return parked_[c]; }).cycles;
}

void SmpInterleaver::Run(u64 cycle_limit, const StopHandler& on_stop) {
  for (;;) {
    const FrontierPick f = PickFrontier(machine_, [this](u32 c) { return parked_[c]; });
    if (f.cpu == machine_.num_cpus()) return;  // everyone parked
    if (f.cycles >= cycle_limit) return;
    const u32 c = f.cpu;

    // Fire due host-side events at the frontier vCPU, before any further
    // retire.
    machine_.set_current_cpu(c);
    events_.FireDue(f.cycles);
    const u64 next_event = events_.next_cycle();

    // Run the frontier vCPU only until it stops being the minimum (or hits
    // the global limit / the next scripted event). `+1` guarantees at least
    // one retired instruction on exact ties, keeping the round-robin strict.
    u64 stop_at = cycle_limit;
    if (f.second != ~0ull) stop_at = std::min(stop_at, f.second + 1);
    if (next_event != ~0ull) stop_at = std::min(stop_at, next_event);
    if (stop_at <= f.cycles) stop_at = f.cycles + 1;

    StopInfo stop = machine_.cpu(c).Run(stop_at);
    if (stop.reason == StopReason::kCycleLimit) continue;  // slice boundary
    if (!on_stop(c, stop)) parked_[c] = true;
  }
}

bool EpochBarrier::Arrive() {
  const u64 phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    return true;  // last arriver: caller runs the serial work, then Release()
  }
  // Bounded spin first: barrier turnaround is the hot path of threaded mode,
  // and the serial window is typically shorter than a CV wakeup.
  for (int spin = 0; spin < 16384; ++spin) {
    if (phase_.load(std::memory_order_acquire) != phase) return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return phase_.load(std::memory_order_acquire) != phase; });
  return false;
}

void EpochBarrier::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  // The release store on phase_ publishes the arrival reset (and all serial-
  // window writes) to every thread that acquire-loads the new phase.
  arrived_.store(0, std::memory_order_relaxed);
  phase_.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
}

ThreadedSmp::ThreadedSmp(Machine& machine, u64 epoch_cycles)
    : machine_(machine),
      epoch_cycles_(epoch_cycles),
      barrier_(machine.num_cpus()),
      parked_(machine.num_cpus()),
      lanes_(machine.num_cpus()) {
  if (epoch_cycles_ == 0) throw std::invalid_argument("ThreadedSmp: epoch_cycles must be > 0");
}

u64 ThreadedSmp::Frontier() const {
  return PickFrontier(machine_, [this](u32 c) { return parked(c); }).cycles;
}

void ThreadedSmp::SerialBarrierWork(u64 cycle_limit) {
  const u32 n = machine_.num_cpus();
  PhysicalMemory& pm = machine_.pm();

  // (1) Replay deferred cross-CPU invalidations, in vCPU index order so the
  // replay order is deterministic. Each lane's local observer already saw
  // its writes synchronously; siblings observe them here, i.e. no later
  // than the next barrier.
  for (u32 c = 0; c < n; ++c) {
    PhysicalMemory::WriteLane& lane = lanes_[c];
    for (const auto& range : lane.log) {
      pm.NotifyRangeExcept(range.first, range.second, lane.local);
    }
    lane.log.clear();
    lane.last_begin = 1;
    lane.last_end = 0;
  }

  // (2) Fire due scripted events with exactly the interleaver's rules, then
  // pick the next barrier. Every live vCPU sits at its first retire
  // boundary >= the frontier — the same machine state the interleaver has
  // when its frontier first reaches that cycle — so firing here is
  // byte-equivalent for data-race-free workloads.
  for (;;) {
    const FrontierPick f = PickFrontier(machine_, [this](u32 c) { return parked(c); });
    if (f.cpu == n || f.cycles >= cycle_limit) {
      // The interleaver returns before firing events once the frontier
      // reaches the limit (an event below the limit stays unfired when
      // every vCPU overshoots past it); replicate that exactly.
      done_.store(true, std::memory_order_release);
      return;
    }
    if (events_.next_cycle() <= f.cycles) {
      machine_.set_current_cpu(f.cpu);
      events_.FireDue(f.cycles);
      continue;  // events may Park/Unpark: recompute the frontier
    }

    if (hook_) hook_(next_barrier_.load(std::memory_order_relaxed));

    // Never schedule a barrier past an unfired event: a thread must not run
    // beyond the cycle where the interleaver would have fired it.
    const u64 next = std::min({cycle_limit, (f.cycles / epoch_cycles_ + 1) * epoch_cycles_,
                               events_.next_cycle()});
    next_barrier_.store(next, std::memory_order_relaxed);
    return;
  }
}

void ThreadedSmp::WorkerLoop(u32 cpu_index, const StopHandler& on_stop) {
  Cpu& cpu = machine_.cpu(cpu_index);
  PhysicalMemory::WriteLane& lane = lanes_[cpu_index];
  for (;;) {
    if (done_.load(std::memory_order_acquire)) return;
    const u64 target = next_barrier_.load(std::memory_order_acquire);
    if (!parked(cpu_index)) {
      // Route this thread's writes through its lane: the vCPU's own decode
      // cache keeps exact synchronous self-modifying-code semantics, while
      // sibling invalidations are deferred to the barrier replay.
      lane.Reset(&cpu.decode_cache());
      PhysicalMemory::SetActiveWriteLane(&lane);
      while (cpu.cycles() < target) {
        const StopInfo stop = cpu.Run(target);
        if (stop.reason == StopReason::kCycleLimit) break;  // epoch boundary
        if (!on_stop(cpu_index, stop)) {
          Park(cpu_index);
          break;
        }
      }
      PhysicalMemory::SetActiveWriteLane(nullptr);
    }
    if (barrier_.Arrive()) {
      SerialBarrierWork(cycle_limit_);
      barrier_.Release();
    }
  }
}

void ThreadedSmp::Run(u64 cycle_limit, const StopHandler& on_stop) {
  cycle_limit_ = cycle_limit;
  done_.store(false, std::memory_order_relaxed);
  // Fire events already due at the starting frontier and pick the first
  // barrier — the same "events before any retire" rule as the interleaver.
  SerialBarrierWork(cycle_limit);
  if (done_.load(std::memory_order_relaxed)) return;

  const u32 n = machine_.num_cpus();
  std::vector<std::thread> threads;
  threads.reserve(n > 0 ? n - 1 : 0);
  for (u32 c = 1; c < n; ++c) {
    threads.emplace_back([this, c, &on_stop] { WorkerLoop(c, on_stop); });
  }
  WorkerLoop(0, on_stop);  // the calling thread drives vCPU 0
  for (std::thread& t : threads) t.join();
}

}  // namespace palladium
