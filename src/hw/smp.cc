#include "src/hw/smp.h"

namespace palladium {

SmpInterleaver::SmpInterleaver(Machine& machine)
    : machine_(machine), parked_(machine.num_cpus(), false) {}

void SmpInterleaver::Run(u64 cycle_limit, const StopHandler& on_stop) {
  for (;;) {
    const FrontierPick f = Pick();
    if (f.cpu == machine_.num_cpus()) return;  // everyone parked
    if (f.cycles >= cycle_limit) return;
    const u32 c = f.cpu;

    // Fire due host-side events at the frontier vCPU, before any further
    // retire. Pop before calling: an event may add events.
    machine_.set_current_cpu(c);
    while (!events_.empty() && events_.begin()->first <= f.cycles) {
      EventFn fn = std::move(events_.begin()->second);
      events_.erase(events_.begin());
      fn();
    }
    const u64 next_event = events_.empty() ? ~0ull : events_.begin()->first;

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

}  // namespace palladium
