// Cycle-attribution profiler: hierarchical accounting of every retired
// simulated cycle into {user, kernel, filter body, crossing overhead, IRQ,
// TLB-miss penalty, idle}, the paper's Table 1-3 cost-breakdown style from
// live runs.
//
// The profiler is a pure observer of the simulated clock: hooks hand it the
// current (cycle, TLB-miss) counters at category transitions and it
// attributes the elapsed span to the *previous* category. It never charges
// cycles, so attaching it cannot perturb a run ("observation is free in
// simulated time") — the differential fuzz runs with it attached in every
// mode and stays byte-identical.
//
// TLB-miss carve-out: `Tlb::Stats::misses` increments only in
// `Cpu::Translate`, which always charges exactly `CycleModel::
// tlb_miss_penalty` alongside it — so within any span, miss-penalty cycles
// are (miss delta) x penalty *exactly*, and the profiler can peel them out
// of the enclosing category into kTlbMiss with zero hot-path
// instrumentation.
#ifndef SRC_OBS_PROFILE_H_
#define SRC_OBS_PROFILE_H_

#include <array>
#include <cstdio>
#include <vector>

#include "src/hw/types.h"

namespace palladium {
namespace obs {

enum class Category : u8 {
  kUser = 0,     // simulated code at CPL 3 (and guest ISR bodies)
  kKernel,       // host-side kernel work (syscalls, dispatch, services)
  kFilterBody,   // protected extension code executing at SPL 1
  kCrossing,     // protection-crossing overhead around a filter invocation
  kIrq,          // interrupt delivery + host-side IRQ handling
  kTlbMiss,      // TLB-miss penalty cycles carved out of any span
  kIdle,         // parked vCPU fast-forwarded to the next device event
};
inline constexpr u32 kNumCategories = 7;

const char* CategoryName(Category c);

// The one shared definition of "busy" for an N-vCPU run: every core's clock
// advances to the global frontier, so busy = vCPUs x wall - idle (clamped).
// Consumed by server_sim, bench_dataplane and the profiler's report.
inline u64 BusyCycles(u32 num_cpus, u64 wall_cycles, u64 idle_cycles) {
  const u64 cpu_cycles = static_cast<u64>(num_cpus) * wall_cycles;
  return cpu_cycles - (idle_cycles < cpu_cycles ? idle_cycles : cpu_cycles);
}

class CycleProfile {
 public:
  CycleProfile() = default;

  // (Re)arms the profiler for `num_cpus` vCPUs. `tlb_miss_penalty` is
  // CycleModel::tlb_miss_penalty of the profiled machine.
  void Reset(u32 num_cpus, u32 tlb_miss_penalty);

  bool enabled() const { return !per_cpu_.empty(); }
  u32 num_cpus() const { return static_cast<u32>(per_cpu_.size()); }

  // Opens accounting on vCPU `c` at (cycle, misses) in `cat`.
  void Begin(u32 c, u64 cycle, u64 misses, Category cat);
  // Flushes the open span to its category and opens a new one in `cat`.
  void Set(u32 c, u64 cycle, u64 misses, Category cat);
  // The currently open category (so nested hooks can restore their caller's).
  Category Current(u32 c) const { return per_cpu_[c].cat; }
  // Flushes the final span and closes accounting on vCPU `c`.
  void Finish(u32 c, u64 cycle, u64 misses);

  u64 bucket(u32 c, Category cat) const {
    return per_cpu_[c].buckets[static_cast<u32>(cat)];
  }
  // Summed over every vCPU.
  u64 BucketTotal(Category cat) const;
  // Cycles between Begin and Finish on vCPU `c`; the invariant — asserted in
  // tests/obs_test.cc — is that the seven buckets sum to exactly this.
  u64 total(u32 c) const { return per_cpu_[c].end_cycle - per_cpu_[c].begin_cycle; }
  u64 TotalAll() const;

  // Prints the paper-style breakdown table: per-category cycles, share of
  // total, and (when per_unit > 0) cycles per unit (request, packet, ...).
  void PrintBreakdown(std::FILE* out, u64 per_unit, const char* unit_name) const;

 private:
  struct PerCpu {
    std::array<u64, kNumCategories> buckets{};
    u64 span_cycle = 0;    // open span's start cycle
    u64 span_misses = 0;   // TLB misses at span start
    u64 begin_cycle = 0;
    u64 end_cycle = 0;
    Category cat = Category::kKernel;
    bool open = false;
    bool begun = false;  // has ever seen a Begin (survives Finish)
  };

  void Flush(PerCpu& p, u64 cycle, u64 misses);

  std::vector<PerCpu> per_cpu_;
  u32 tlb_miss_penalty_ = 0;
};

}  // namespace obs
}  // namespace palladium

#endif  // SRC_OBS_PROFILE_H_
