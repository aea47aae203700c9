#include "src/kernel/sched.h"

#include <algorithm>

#include "src/hw/smp.h"
#include "src/obs/profile.h"

namespace palladium {

Scheduler::Scheduler(Kernel& kernel) : Scheduler(kernel, Config{}) {}

Scheduler::Scheduler(Kernel& kernel, const Config& config)
    : kernel_(kernel), config_(config), cpus_(kernel.machine().num_cpus()) {
  kernel_.set_scheduler(this);
  kernel_.EnableTimerInterrupts();
}

Scheduler::~Scheduler() {
  if (kernel_.scheduler() == this) kernel_.set_scheduler(nullptr);
}

void Scheduler::AddProcess(Pid pid) {
  AddProcess(pid, next_home_++ % static_cast<u32>(cpus_.size()));
}

void Scheduler::AddProcess(Pid pid, u32 home_cpu) {
  if (home_cpu >= cpus_.size()) home_cpu = 0;
  Process* proc = kernel_.process(pid);
  if (proc != nullptr) {
    if (proc->sched_queued) return;
    proc->home_cpu = home_cpu;
  }
  Enqueue(home_cpu, pid, kernel_.cpu().cycles(), /*front=*/false);
}

void Scheduler::Enqueue(u32 c, Pid pid, u64 stamp, bool front) {
  if (front) {
    cpus_[c].ready.push_front(ReadyEntry{pid, stamp});
  } else {
    cpus_[c].ready.push_back(ReadyEntry{pid, stamp});
  }
  Process* proc = kernel_.process(pid);
  if (proc != nullptr) proc->sched_queued = true;
}

bool Scheduler::OnTimerTick() {
  ++stats_.timer_ticks;
  const u32 c = kernel_.machine().current_cpu_index();
  return kernel_.cpu().cycles() - cpus_[c].slice_start >= config_.slice_cycles &&
         !cpus_[c].ready.empty();
}

void Scheduler::OnWake(Pid pid) {
  Process* proc = kernel_.process(pid);
  if (proc != nullptr && proc->sched_queued) return;
  const u32 home =
      proc != nullptr && proc->home_cpu < cpus_.size() ? proc->home_cpu : 0;
  const u32 cur_cpu = kernel_.machine().current_cpu_index();
  // Stamp with the waking vCPU's clock: the wakee must not start in the past.
  Enqueue(home, pid, kernel_.cpu().cycles(), /*front=*/false);
  // Cross-CPU wakeup onto a busy core: kick it with a reschedule IPI so the
  // wakee is considered at the target's next retire boundary instead of
  // waiting out the running process's slice. The waker's own core needs no
  // kick (it re-evaluates on return), and an idle core is dispatched by the
  // RunAll loop directly.
  if (home != cur_cpu && kernel_.current(home) != nullptr) {
    kernel_.SendIpi(home, kIrqIpiResched);
  }
}

Pid Scheduler::PopRunnable(std::deque<ReadyEntry>& queue, bool from_back, u64* stamp) {
  while (!queue.empty()) {
    ReadyEntry e;
    if (from_back) {
      e = queue.back();
      queue.pop_back();
    } else {
      e = queue.front();
      queue.pop_front();
    }
    Process* proc = kernel_.process(e.pid);
    if (proc != nullptr) proc->sched_queued = false;
    if (proc != nullptr && proc->state == ProcessState::kRunnable) {
      *stamp = e.stamp;
      return e.pid;
    }
    // Exited, killed, or a stale entry: drop it.
  }
  return 0;
}

bool Scheduler::Dispatch(u32 c, u64 deadline) {
  Machine& m = kernel_.machine();
  if (m.cpu(c).cycles() >= deadline) return false;  // this vCPU is out of budget
  u64 stamp = 0;
  Pid pid = PopRunnable(cpus_[c].ready, /*from_back=*/false, &stamp);
  if (pid == 0 && cpus_.size() > 1) {
    // Steal from the back of the longest sibling queue.
    u32 victim = static_cast<u32>(cpus_.size());
    size_t best = 0;
    for (u32 v = 0; v < cpus_.size(); ++v) {
      if (v == c || cpus_[v].ready.size() <= best) continue;
      best = cpus_[v].ready.size();
      victim = v;
    }
    if (victim != cpus_.size()) {
      pid = PopRunnable(cpus_[victim].ready, /*from_back=*/true, &stamp);
      if (pid != 0) {
        ++stats_.steals;
        ++cpus_[c].stats.steals;
      }
    }
  }
  if (pid == 0) return false;

  Process* proc = kernel_.process(pid);
  proc->home_cpu = c;
  Cpu& cpu = m.cpu(c);
  // Causality: a process enqueued at cycle S on another core cannot start
  // before S on this one; an idle core's lagging clock snaps forward.
  if (stamp > cpu.cycles()) SkipIdle(c, stamp);
  m.set_current_cpu(c);
  kernel_.SwitchTo(*proc);
  ++stats_.context_switches;
  ++cpus_[c].stats.context_switches;
  cpus_[c].slice_start = cpu.cycles();
  return true;
}

void Scheduler::ServiceParked(u32 c, u64 event_cycle, bool machine_idle) {
  kernel_.machine().set_current_cpu(c);
  if (event_cycle > kernel_.machine().cpu(c).cycles()) {
    // The span this vCPU skips was idle time on this core whether or not
    // the rest of the machine was busy — counting only whole-machine idle
    // under-reported idle on any loaded SMP run (and reported 0 for a
    // saturated N=1 run that still parked between bursts).
    SkipIdle(c, event_cycle);
    if (machine_idle) ++stats_.idle_jumps;
  }
  kernel_.ServicePendingIrqsHostSide();
}

void Scheduler::SkipIdle(u32 c, u64 cycle) {
  Cpu& cpu = kernel_.machine().cpu(c);
  stats_.idle_cycles += cycle - cpu.cycles();
  obs::CycleProfile* prof = kernel_.profiler();
  if (prof != nullptr && prof->enabled()) {
    prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kIdle);
    cpu.set_cycles(cycle);
    prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kKernel);
  } else {
    cpu.set_cycles(cycle);
  }
}

Scheduler::RunAllResult Scheduler::RunAll(u64 cycle_budget) {
  Machine& m = kernel_.machine();
  const u32 n = static_cast<u32>(cpus_.size());
  u64 start_max = 0;
  for (u32 c = 0; c < n; ++c) start_max = std::max(start_max, m.cpu(c).cycles());
  const u64 deadline = cycle_budget == ~0ull ? ~0ull : start_max + cycle_budget;
  RunAllResult result;
  obs::CycleProfile* prof = kernel_.profiler();
  if (prof != nullptr && prof->enabled()) {
    for (u32 c = 0; c < n; ++c) {
      prof->Begin(c, m.cpu(c).cycles(), m.cpu(c).tlb_stats().misses,
                  obs::Category::kKernel);
    }
  }

  for (;;) {
    // (1) Hand work to idle vCPUs: own queue, else steal.
    for (u32 c = 0; c < n; ++c) {
      if (kernel_.current(c) == nullptr) Dispatch(c, deadline);
    }

    // (2) Survey. Active vCPUs (those with a current process): the frontier
    // runs next, picked by the interleaver's rule. Parked vCPUs: the
    // earliest interrupt-fabric event (an already-latched deliverable line
    // counts as "now") competes with the frontier.
    const FrontierPick f =
        PickFrontier(m, [this](u32 c) { return kernel_.current(c) == nullptr; });
    u32 ev_cpu = n;
    u64 ev_cycle = ~0ull;
    for (u32 c = 0; c < n; ++c) {
      if (kernel_.current(c) != nullptr) continue;
      u64 ev;
      if (kernel_.pic(c).HasDeliverable()) {
        ev = m.cpu(c).cycles();
      } else {
        // This vCPU's own free-running timer cannot wake anybody; only
        // real device events (NIC arrivals, ...) count as wakeup sources.
        ev = kernel_.irq_hub(c).NextDeviceEventExcept(&kernel_.timer(c));
        if (ev == IrqDevice::kIdle) continue;
      }
      if (ev < ev_cycle) {
        ev_cycle = ev;
        ev_cpu = c;
      }
    }
    const u32 run_cpu = f.cpu;
    const bool have_active = run_cpu != n;
    const bool have_event = ev_cpu != n && ev_cycle < deadline;

    if (!have_active) {
      if (have_event) {
        ServiceParked(ev_cpu, ev_cycle, /*machine_idle=*/true);
        continue;
      }
      if (result.budget_exhausted) break;  // every vCPU ran out of budget
      bool any_blocked = false, any_runnable = false;
      for (const auto& [p, proc] : kernel_.processes_) {
        (void)p;
        if (proc->state == ProcessState::kBlocked) any_blocked = true;
        if (proc->state == ProcessState::kRunnable) any_runnable = true;
      }
      if (any_runnable) {
        // Nothing active and nothing dispatchable, yet a runnable process
        // exists: Dispatch refused it because every vCPU is out of budget
        // (e.g. an event service charged a clock past the deadline after
        // waking a sleeper). That is budget exhaustion, not completion.
        result.budget_exhausted = true;
        break;
      }
      if (!any_blocked) break;  // everything has finished
      if (ev_cpu != n) {
        // A wakeup source exists but lies beyond the budget horizon.
        result.budget_exhausted = true;
        break;
      }
      if (idle_hook_ && idle_hook_()) continue;
      result.deadlocked = true;
      break;
    }

    // (3) A parked vCPU's event at or before the frontier is serviced first
    // (its NIC drain / IPI ack happens "while" the others compute).
    if (have_event && ev_cycle <= f.cycles) {
      ServiceParked(ev_cpu, ev_cycle, /*machine_idle=*/false);
      continue;
    }

    // (4) Run the frontier vCPU until it stops being the laggard (bounded
    // by the interleave quantum), the next parked event, or the deadline.
    m.set_current_cpu(run_cpu);
    Cpu& cpu = m.cpu(run_cpu);
    u64 stop_at = deadline;
    if (f.second != ~0ull) stop_at = std::min(stop_at, f.second + kSmpQuantumCycles);
    if (have_event) stop_at = std::min(stop_at, ev_cycle + 1);
    if (stop_at <= f.cycles) stop_at = f.cycles + 1;

    if (prof != nullptr && prof->enabled()) {
      prof->Set(run_cpu, cpu.cycles(), cpu.tlb_stats().misses,
                obs::Category::kUser);
    }
    StopInfo stop = cpu.Run(stop_at);
    if (prof != nullptr && prof->enabled()) {
      prof->Set(run_cpu, cpu.cycles(), cpu.tlb_stats().misses,
                obs::Category::kKernel);
    }
    if (stop.reason == StopReason::kCycleLimit) {
      if (cpu.cycles() >= deadline) {
        const Pid pid = kernel_.current(run_cpu)->pid;
        kernel_.SaveCurrent();
        kernel_.current_[run_cpu] = nullptr;
        Enqueue(run_cpu, pid, cpu.cycles(), /*front=*/true);  // resumes first
        result.budget_exhausted = true;
      }
      continue;  // interleave rotation
    }

    const Pid pid = kernel_.current(run_cpu)->pid;
    const StopAction action = kernel_.DispatchStop(stop);
    switch (action) {
      case StopAction::kContinue:
        continue;  // the process stays resident on this vCPU
      case StopAction::kPreempt:
        kernel_.SaveCurrent();
        kernel_.current_[run_cpu] = nullptr;
        Enqueue(run_cpu, pid, cpu.cycles(), /*front=*/false);
        // Distinguish a voluntary sys_yield from an involuntary slice-expiry
        // preemption in the stats (both arrive here as kPreempt).
        if (yield_pending_) {
          yield_pending_ = false;
          ++stats_.yields_or_blocks;
        } else {
          ++stats_.preemptions;
          ++cpus_[run_cpu].stats.preemptions;
        }
        break;
      case StopAction::kBlocked:
        // Context was saved by BlockCurrentForRestart; a wake re-queues it.
        kernel_.current_[run_cpu] = nullptr;
        ++stats_.yields_or_blocks;
        break;
      case StopAction::kTerminated:
        kernel_.current_[run_cpu] = nullptr;
        break;
    }
  }

  if (prof != nullptr && prof->enabled()) {
    for (u32 c = 0; c < n; ++c) {
      prof->Finish(c, m.cpu(c).cycles(), m.cpu(c).tlb_stats().misses);
    }
  }

  for (const auto& [p, proc] : kernel_.processes_) {
    (void)p;
    switch (proc->state) {
      case ProcessState::kExited:
        ++result.exited;
        break;
      case ProcessState::kKilled:
        ++result.killed;
        break;
      case ProcessState::kBlocked:
        ++result.blocked;
        break;
      case ProcessState::kRunnable:
        break;
    }
  }
  u64 end_max = 0;
  for (u32 c = 0; c < n; ++c) end_max = std::max(end_max, m.cpu(c).cycles());
  result.cycles = end_max - start_max;
  return result;
}

}  // namespace palladium
