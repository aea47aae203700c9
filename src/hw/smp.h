// SMP stepping on one host thread: the frontier rule, and the bare-machine
// min-cycle interleaver built on it.
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
// host timing, and — because every Engine and the data fast path keep
// per-CPU cycle counters byte-identical to the per-byte oracle — identical in
// all eight engine × D-TLB modes. That is what makes SMP runs differential-testable
// with the same oracle discipline as the uniprocessor
// (tests/cpu_property_test.cc, tests/smp_test.cc).
//
// Host-side events (scripted PTE edits with cross-CPU shootdown, fault
// injection, ...) register against a *global* cycle threshold and fire the
// first time the frontier — the minimum counter over live vCPUs — reaches
// it, again a deterministic point.
//
// The kernel's Scheduler (src/kernel/sched.h) steps the machine with the
// same frontier rule (PickFrontier), plus scheduling; SmpInterleaver is the
// bare-machine harness used by fuzzers, tests and benches.
#ifndef SRC_HW_SMP_H_
#define SRC_HW_SMP_H_

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "src/hw/machine.h"

namespace palladium {

// The frontier vCPU: the live vCPU with the smallest counter, lowest index
// on ties (cpu == num_cpus when every vCPU is parked), and the second-
// smallest live counter (~0 when fewer than two vCPUs are live).
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

class SmpInterleaver {
 public:
  // Return value of the stop handler: keep stepping this vCPU or park it.
  // A parked vCPU no longer advances and no longer holds back the frontier.
  using StopHandler = std::function<bool(u32 cpu_index, const StopInfo& stop)>;
  using EventFn = std::function<void()>;

  explicit SmpInterleaver(Machine& machine);

  // Registers a host-side action fired once, when the frontier first
  // reaches `cycle`. Events fire in cycle order (ties: registration order),
  // with the machine's current vCPU set to the frontier vCPU. An event fn
  // may add events. None fires once the frontier has reached Run's limit.
  void AddEvent(u64 cycle, EventFn fn) { events_.emplace(cycle, std::move(fn)); }

  void Park(u32 cpu_index) { parked_[cpu_index] = true; }

  // Runs until every vCPU is parked or every live vCPU's counter has
  // reached `cycle_limit`. `on_stop` is invoked for every CPU stop that is
  // not the interleaver's own slice boundary (faults, HLT, host calls).
  void Run(u64 cycle_limit, const StopHandler& on_stop);

 private:
  FrontierPick Pick() const {
    return PickFrontier(machine_, [this](u32 c) { return parked_[c]; });
  }

  Machine& machine_;
  std::vector<bool> parked_;
  std::multimap<u64, EventFn> events_;  // equal keys keep insertion order
};

}  // namespace palladium

#endif  // SRC_HW_SMP_H_
