#include "src/hw/bare_machine.h"

#include "src/asm/assembler.h"
#include "src/hw/paging.h"

namespace palladium {

BareMachine::BareMachine(const BareMachineConfig& config)
    : machine_(Machine::Config{config.physical_memory_bytes, config.cycle_model,
                               config.num_cpus}),
      bump_next_(config.physical_memory_bytes) {
  BuildIdentityPageTables();
  BuildGdt();
}

u32 BareMachine::AllocFrame() {
  bump_next_ -= kPageSize;
  machine_.pm().Fill(bump_next_, 0, kPageSize);
  return bump_next_;
}

void BareMachine::BuildIdentityPageTables() {
  PhysicalMemory& pm = machine_.pm();
  const u32 cr3 = AllocFrame();
  const u32 flags = kPtePresent | kPteWrite | kPteUser;
  const u32 pages = pm.size() / kPageSize;
  for (u32 vpn = 0; vpn < pages; ++vpn) {
    const u32 linear = vpn << kPageShift;
    u32 pde = 0;
    pm.Read32(cr3 + PdeIndex(linear) * 4, &pde);
    if (!(pde & kPtePresent)) {
      u32 table = AllocFrame();
      pde = MakePte(table, kPtePresent | kPteWrite | kPteUser);
      pm.Write32(cr3 + PdeIndex(linear) * 4, pde);
    }
    // Skip mapping the page-table region itself as user-writable; the bump
    // region keeps supervisor-only mappings so stray user writes fault.
    const bool is_pt_area = linear >= bump_next_;
    const u32 f = is_pt_area ? (kPtePresent | kPteWrite) : flags;
    pm.Write32((pde & kPteFrameMask) + PteIndex(linear) * 4, MakePte(linear, f));
  }
  // Every vCPU boots on the shared identity tables.
  for (u32 c = 0; c < machine_.num_cpus(); ++c) machine_.cpu(c).LoadCr3(cr3);
}

void BareMachine::BuildGdt() {
  DescriptorTable& gdt = machine_.gdt();
  const u32 kFlatLimit = 0xFFFFFFFFu;
  gdt.Set(kCode0Idx, SegmentDescriptor::MakeCode(0, kFlatLimit, 0));
  gdt.Set(kData0Idx, SegmentDescriptor::MakeData(0, kFlatLimit, 0));
  gdt.Set(kCode3Idx, SegmentDescriptor::MakeCode(0, kFlatLimit, 3));
  gdt.Set(kData3Idx, SegmentDescriptor::MakeData(0, kFlatLimit, 3));
  gdt.Set(kCode1Idx, SegmentDescriptor::MakeCode(0, kFlatLimit, 1));
  gdt.Set(kData1Idx, SegmentDescriptor::MakeData(0, kFlatLimit, 1));
  gdt.Set(kCode2Idx, SegmentDescriptor::MakeCode(0, kFlatLimit, 2));
  gdt.Set(kData2Idx, SegmentDescriptor::MakeData(0, kFlatLimit, 2));
  // Inner stacks for privilege transitions: one page each at PL0..PL2 *per
  // vCPU* (concurrent privilege transitions on different cores must not
  // share a transition stack), described by flat data segments at the
  // matching DPL.
  for (u8 level = 0; level < 3; ++level) {
    gdt.Set(kTssStackBase + level, SegmentDescriptor::MakeData(0, 0xFFFFFFFFu, level));
    for (u32 c = 0; c < machine_.num_cpus(); ++c) {
      u32 frame = AllocFrame();
      if (c == 0) tss_stack_top_[level] = frame + kPageSize;
      machine_.cpu(c).tss().ss[level] =
          Selector::FromIndex(kTssStackBase + level, level).raw();
      machine_.cpu(c).tss().esp[level] = frame + kPageSize;
    }
  }
}

Selector BareMachine::CodeSelector(u8 cpl) {
  switch (cpl) {
    case 0:
      return Selector::FromIndex(kCode0Idx, 0);
    case 1:
      return Selector::FromIndex(kCode1Idx, 1);
    case 2:
      return Selector::FromIndex(kCode2Idx, 2);
    default:
      return Selector::FromIndex(kCode3Idx, 3);
  }
}

Selector BareMachine::DataSelector(u8 cpl) {
  switch (cpl) {
    case 0:
      return Selector::FromIndex(kData0Idx, 0);
    case 1:
      return Selector::FromIndex(kData1Idx, 1);
    case 2:
      return Selector::FromIndex(kData2Idx, 2);
    default:
      return Selector::FromIndex(kData3Idx, 3);
  }
}

bool BareMachine::LoadImage(const LinkedImage& image) {
  return machine_.pm().WriteBlock(image.base, image.bytes.data(),
                                  static_cast<u32>(image.bytes.size()));
}

void BareMachine::StartCpu(u32 cpu_index, u32 entry, u8 cpl, u32 stack_top) {
  Cpu& cpu = machine_.cpu(cpu_index);
  cpu.ForceSegment(SegReg::kCs, CodeSelector(cpl));
  cpu.ForceSegment(SegReg::kSs, DataSelector(cpl));
  cpu.ForceSegment(SegReg::kDs, DataSelector(cpl));
  cpu.ForceSegment(SegReg::kEs, DataSelector(cpl));
  cpu.set_cpl(cpl);
  cpu.set_eip(entry);
  cpu.set_reg(Reg::kEsp, stack_top);
}

std::optional<LinkedImage> BareMachine::LoadProgram(const std::string& source, u32 base,
                                                    std::string* diag) {
  auto img = AssembleAndLink(source, base, {}, diag);
  if (!img) return std::nullopt;
  if (!LoadImage(*img)) {
    if (diag != nullptr) *diag = "image does not fit in physical memory";
    return std::nullopt;
  }
  return img;
}

}  // namespace palladium
