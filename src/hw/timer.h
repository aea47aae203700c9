// Programmable interval timer: raises its IRQ line every `period` cycles of
// the simulated clock. Ticks that elapse while interrupts are blocked
// coalesce into one pending edge, like a real PIT behind a masked PIC.
#ifndef SRC_HW_TIMER_H_
#define SRC_HW_TIMER_H_

#include "src/hw/irq.h"
#include "src/hw/types.h"

namespace palladium {

class IntervalTimer : public IrqDevice {
 public:
  explicit IntervalTimer(InterruptController& pic, u32 irq = 0) : pic_(pic), irq_(irq) {}

  // Arms the timer: first edge at now + period, then every period cycles.
  void Program(u64 period_cycles, u64 now) {
    period_ = period_cycles == 0 ? 1 : period_cycles;
    next_fire_ = now + period_;
    NotifyHub();
  }

  u64 next_event() const override { return next_fire_; }

  void Advance(u64 now) override {
    while (next_fire_ <= now) {
      pic_.Raise(irq_);
      ++ticks_;
      next_fire_ += period_;
    }
  }

  u32 irq() const { return irq_; }
  u64 ticks() const { return ticks_; }

 private:
  InterruptController& pic_;
  u32 irq_;
  u64 period_ = 1;
  u64 next_fire_ = kIdle;
  u64 ticks_ = 0;
};

}  // namespace palladium

#endif  // SRC_HW_TIMER_H_
