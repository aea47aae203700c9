#include "src/hw/smp.h"

#include <algorithm>
#include <stdexcept>

namespace palladium {

SmpInterleaver::SmpInterleaver(Machine& machine)
    : machine_(machine), parked_(machine.num_cpus(), false) {}

void SmpInterleaver::AddEvent(u64 cycle, EventFn fn) {
  events_.push_back(Event{cycle, next_seq_++, std::move(fn), false});
  std::stable_sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
  });
}

u64 SmpInterleaver::Frontier() const {
  u64 frontier = ~0ull;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    if (!parked_[c]) frontier = std::min(frontier, machine_.cpu(c).cycles());
  }
  return frontier;
}

void SmpInterleaver::Run(u64 cycle_limit, const StopHandler& on_stop) {
  const u32 n = machine_.num_cpus();
  for (;;) {
    // Pick the frontier vCPU: minimum counter, lowest index on ties.
    u32 c = n;
    u64 min_cycles = ~0ull;
    u64 second = ~0ull;
    for (u32 i = 0; i < n; ++i) {
      if (parked_[i]) continue;
      const u64 cy = machine_.cpu(i).cycles();
      if (c == n || cy < min_cycles) {
        second = min_cycles;
        min_cycles = cy;
        c = i;
      } else {
        second = std::min(second, cy);
      }
    }
    if (c == n) return;  // everyone parked
    if (min_cycles >= cycle_limit) return;

    machine_.set_current_cpu(c);

    // Fire due host-side events at the frontier, before any further retire.
    u64 next_event = ~0ull;
    for (Event& e : events_) {
      if (e.fired) continue;
      if (e.cycle <= min_cycles) {
        e.fired = true;
        e.fn();
      } else {
        next_event = e.cycle;
        break;
      }
    }

    // Run the frontier vCPU only until it stops being the minimum (or hits
    // the global limit / the next scripted event). `+1` guarantees at least
    // one retired instruction on exact ties, keeping the round-robin strict.
    u64 stop_at = cycle_limit;
    if (second != ~0ull) stop_at = std::min(stop_at, second + 1);
    if (next_event != ~0ull) stop_at = std::min(stop_at, next_event);
    if (stop_at <= min_cycles) stop_at = min_cycles + 1;

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
      lanes_(machine.num_cpus()),
      remote_(machine.num_cpus()) {
  if (epoch_cycles_ == 0) throw std::invalid_argument("ThreadedSmp: epoch_cycles must be > 0");
}

void ThreadedSmp::AddEvent(u64 cycle, EventFn fn) {
  events_.push_back(Event{cycle, next_seq_++, std::move(fn), false});
  std::stable_sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
  });
}

void ThreadedSmp::StageRemoteWork(u32 target, RemoteFn fn) {
  std::lock_guard<std::mutex> lock(remote_mu_);
  remote_[target].push_back(std::move(fn));
}

u64 ThreadedSmp::Frontier() const {
  u64 frontier = ~0ull;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    if (!parked(c)) frontier = std::min(frontier, machine_.cpu(c).cycles());
  }
  return frontier;
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

  // (2) Drain staged remote work: FIFO per target, targets in index order.
  {
    std::vector<std::vector<RemoteFn>> staged(n);
    {
      std::lock_guard<std::mutex> lock(remote_mu_);
      staged.swap(remote_);
      remote_.resize(n);
    }
    for (u32 c = 0; c < n; ++c) {
      for (RemoteFn& fn : staged[c]) fn(machine_.cpu(c));
    }
  }

  // (3) Fire due scripted events with exactly the interleaver's rules, then
  // pick the next barrier. Every live vCPU sits at its first retire
  // boundary >= the frontier — the same machine state the interleaver has
  // when its frontier first reaches that cycle — so firing here is
  // byte-equivalent for data-race-free workloads.
  for (;;) {
    u64 frontier = ~0ull;
    u32 argmin = n;
    for (u32 c = 0; c < n; ++c) {
      if (parked(c)) continue;
      const u64 cy = machine_.cpu(c).cycles();
      if (argmin == n || cy < frontier) {
        frontier = cy;
        argmin = c;
      }
    }
    if (argmin == n || frontier >= cycle_limit) {
      // The interleaver returns before firing events once the frontier
      // reaches the limit (an event below the limit stays unfired when
      // every vCPU overshoots past it); replicate that exactly.
      done_.store(true, std::memory_order_release);
      return;
    }
    u64 next_event = ~0ull;
    bool fired = false;
    for (Event& e : events_) {
      if (e.fired) continue;
      if (e.cycle <= frontier) {
        if (!fired) machine_.set_current_cpu(argmin);
        e.fired = true;
        fired = true;
        e.fn();
      } else {
        next_event = e.cycle;
        break;
      }
    }
    if (fired) continue;  // events may Park/Unpark: recompute the frontier

    if (hook_) hook_(next_barrier_.load(std::memory_order_relaxed));

    // Never schedule a barrier past an unfired event: a thread must not run
    // beyond the cycle where the interleaver would have fired it.
    u64 next = std::min(cycle_limit, (frontier / epoch_cycles_ + 1) * epoch_cycles_);
    if (next_event != ~0ull) next = std::min(next, next_event);
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
