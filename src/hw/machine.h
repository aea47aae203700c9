// Machine: the assembled simulated computer — physical memory, descriptor
// tables, and one or more vCPUs. The kernel model builds on exactly this.
//
// SMP model: all vCPUs share PhysicalMemory, the GDT and the IDT (as on a
// real SMP x86 with a shared descriptor-table image); each vCPU owns its
// architectural registers, TLB, decode cache and fetch TLB. The
// machine tracks a "current" vCPU index — the core whose trap the host-side
// kernel is presently servicing — so host code written against the
// uniprocessor `cpu()` accessor transparently operates on the trapping core.
// Interleaving across vCPUs is the interleaver's/scheduler's job (see
// src/hw/smp.h); the Machine itself is purely the shared chassis.
#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/physical_memory.h"
#include "src/hw/runtime_config.h"
#include "src/hw/segment.h"
#include "src/hw/types.h"

namespace palladium {

// Upper bound on vCPUs (the interleaver and kernel fabrics size off it; the
// paper-era target is N <= 4, the cap leaves headroom).
inline constexpr u32 kMaxCpus = 8;

struct MachineConfig {
  u32 physical_memory_bytes = 64u << 20;  // 64 MB
  CycleModel cycle_model = CycleModel::Measured();
  // Number of vCPUs. 0 = the environment's count (PALLADIUM_SMP, default 1),
  // so any existing harness can be re-run SMP without code changes; an
  // explicit value pins the count (tests asserting uniprocessor scheduling
  // order pass 1). Clamped to [1, kMaxCpus].
  u32 num_cpus = 0;
};

// The vCPU count a config's `num_cpus` resolves to. The environment is read
// only for 0.
inline u32 ResolveNumCpus(u32 requested) {
  if (requested == 0) requested = RuntimeConfig::FromEnv().num_cpus;
  return std::min(requested, kMaxCpus);
}

class Machine {
 public:
  using Config = MachineConfig;

  // Reads the environment once (src/hw/runtime_config.h): the vCPU count
  // when the config leaves it open, and the engine and D-TLB setting of
  // every vCPU.
  explicit Machine(const Config& config = MachineConfig{})
      : pm_(config.physical_memory_bytes), gdt_(128), idt_(64) {
    const RuntimeConfig env = RuntimeConfig::FromEnv();
    const u32 n = ResolveNumCpus(config.num_cpus != 0 ? config.num_cpus : env.num_cpus);
    cpus_.reserve(n);
    for (u32 i = 0; i < n; ++i) {
      cpus_.push_back(std::make_unique<Cpu>(pm_, gdt_, idt_, config.cycle_model));
      cpus_.back()->set_engine(env.engine);
      cpus_.back()->set_dtlb_enabled(env.dtlb);
    }
  }

  PhysicalMemory& pm() { return pm_; }
  DescriptorTable& gdt() { return gdt_; }
  DescriptorTable& idt() { return idt_; }

  u32 num_cpus() const { return static_cast<u32>(cpus_.size()); }

  // The current vCPU: the core whose instruction stream the host is driving
  // or whose trap it is servicing. Uniprocessor callers never touch the
  // index and keep operating on vCPU 0.
  Cpu& cpu() { return *cpus_[current_cpu_]; }
  const Cpu& cpu() const { return *cpus_[current_cpu_]; }
  Cpu& cpu(u32 index) { return *cpus_[index]; }
  const Cpu& cpu(u32 index) const { return *cpus_[index]; }

  u32 current_cpu_index() const { return current_cpu_; }
  void set_current_cpu(u32 index) {
    if (index < cpus_.size()) current_cpu_ = index;
  }

 private:
  PhysicalMemory pm_;
  DescriptorTable gdt_;
  DescriptorTable idt_;
  std::vector<std::unique_ptr<Cpu>> cpus_;  // Cpu holds references; not movable
  u32 current_cpu_ = 0;
};

}  // namespace palladium

#endif  // SRC_HW_MACHINE_H_
