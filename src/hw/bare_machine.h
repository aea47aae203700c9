// BareMachine: a minimal bring-up of the simulated hardware — identity-mapped
// page tables and flat 4 GB segments at each privilege level — used by unit
// tests, micro-benchmarks and the assembler's execution tests. The full
// kernel model (src/kernel) supersedes this for OS-level scenarios.
#ifndef SRC_HW_BARE_MACHINE_H_
#define SRC_HW_BARE_MACHINE_H_

#include "src/asm/object_file.h"
#include "src/hw/machine.h"

namespace palladium {

struct BareMachineConfig {
  u32 physical_memory_bytes = 16u << 20;
  CycleModel cycle_model = CycleModel::Measured();
  // vCPU count (0 = PALLADIUM_SMP env, default 1). All vCPUs share the
  // identity page tables and the GDT; each gets its own TSS inner stacks.
  u32 num_cpus = 0;
};

class BareMachine {
 public:
  using Config = BareMachineConfig;
  // Well-known GDT slots.
  static constexpr u16 kNullIdx = 0;
  static constexpr u16 kCode0Idx = 1;
  static constexpr u16 kData0Idx = 2;
  static constexpr u16 kCode3Idx = 3;
  static constexpr u16 kData3Idx = 4;
  static constexpr u16 kCode1Idx = 5;
  static constexpr u16 kData1Idx = 6;
  static constexpr u16 kCode2Idx = 7;
  static constexpr u16 kData2Idx = 8;
  static constexpr u16 kTssStackBase = 9;  // 9..11: PL0..PL2 stack segments (flat aliases)
  static constexpr u16 kFirstFreeIdx = 16;

  explicit BareMachine(const BareMachineConfig& config = BareMachineConfig{});

  Machine& machine() { return machine_; }
  Cpu& cpu() { return machine_.cpu(); }
  PhysicalMemory& pm() { return machine_.pm(); }
  DescriptorTable& gdt() { return machine_.gdt(); }
  DescriptorTable& idt() { return machine_.idt(); }

  // Copies a linked image into (identity-mapped) memory.
  bool LoadImage(const LinkedImage& image);

  // Points the CPU at `entry` with flat segments of the given privilege
  // level and the stack at `stack_top`.
  void Start(u32 entry, u8 cpl, u32 stack_top) { StartCpu(0, entry, cpl, stack_top); }
  // SMP bring-up: same, for an arbitrary vCPU (callers give each vCPU its
  // own entry point and stack; memory and page tables are shared).
  void StartCpu(u32 cpu_index, u32 entry, u8 cpl, u32 stack_top);

  StopInfo Run(u64 cycle_limit = ~0ull) { return cpu().Run(cycle_limit); }

  // Assembles, links at `base`, loads, and returns the image (nullopt +
  // *diag on failure). Convenience for tests.
  std::optional<LinkedImage> LoadProgram(const std::string& source, u32 base, std::string* diag);

  static Selector CodeSelector(u8 cpl);
  static Selector DataSelector(u8 cpl);

  // Physical bump allocator used for page tables; exposed so tests can
  // allocate scratch frames that do not collide with loaded code.
  u32 AllocFrame();

  u32 tss_stack_top(u8 level) const { return tss_stack_top_[level]; }

 private:
  // Identity map, every page PPL 1 (U set) except the page tables' own.
  void BuildIdentityPageTables();
  void BuildGdt();

  Machine machine_;
  u32 bump_next_;  // grows downward from the top of physical memory
  u32 tss_stack_top_[3] = {0, 0, 0};  // vCPU 0's (compat accessor)
};

}  // namespace palladium

#endif  // SRC_HW_BARE_MACHINE_H_
