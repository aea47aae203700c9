#include "src/kernel/kernel.h"

#include <cstring>

#include "src/hw/paging.h"
#include "src/kernel/sched.h"
#include "src/obs/trace.h"

namespace palladium {

namespace {

// Builds a LoadedSegment the way ForceSegment would, for saved contexts.
LoadedSegment MakeLoaded(const DescriptorTable& gdt, Selector sel) {
  LoadedSegment seg;
  seg.selector = sel;
  const SegmentDescriptor* d = gdt.Get(sel.index());
  if (d != nullptr && d->present) {
    seg.cache = *d;
    seg.valid = true;
  }
  return seg;
}

}  // namespace

Kernel::Kernel(Machine& machine) : Kernel(machine, Config{}) {}

Kernel::Kernel(Machine& machine, const Config& config)
    : machine_(machine), config_(config), frames_(machine.pm(), kPageSize) {
  SetupGdtIdt();
  // One interrupt fabric (PIC + hub + local timer) and one `current` slot
  // per vCPU. Devices attach to vCPU 0's hub; IPIs target any core's PIC.
  current_.resize(machine_.num_cpus(), nullptr);
  staged_remote_.resize(machine_.num_cpus());
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    fabric_.push_back(std::make_unique<CpuIrqFabric>());
    fabric_.back()->hub.AddDevice(&fabric_.back()->timer);
  }

  // Kernel page-directory template: one page directory whose kernel half
  // (PDEs for >= 3 GB) is copied into every process. All 256 kernel page
  // tables are pre-created so that later kernel mappings (e.g. extension
  // segments) are visible in every address space.
  PhysicalMemory& pm = machine_.pm();
  kernel_page_dir_template_ = frames_.Alloc();
  for (u32 pde_idx = PdeIndex(kKernelBase); pde_idx < kPtesPerTable; ++pde_idx) {
    u32 table = frames_.Alloc();
    pm.Write32(kernel_page_dir_template_ + pde_idx * 4,
               MakePte(table, kPtePresent | kPteWrite));
  }
  // Direct map: kernel linear [3GB, 3GB + physmem) -> physical [0, physmem),
  // supervisor-only, writable.
  PageTableEditor ed(pm, kernel_page_dir_template_);
  for (u32 phys = 0; phys < pm.size(); phys += kPageSize) {
    ed.Map(kKernelBase + phys, phys, kPtePresent | kPteWrite, [] { return 0u; });
  }

  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    machine_.cpu(c).SetHostCallRange(kHostCallLinearBase, kPageSize);
  }
}

void Kernel::SetupGdtIdt() {
  DescriptorTable& gdt = machine_.gdt();
  gdt.Set(kGdtKernelCs, SegmentDescriptor::MakeCode(kKernelBase, kKernelSpan, 0));
  gdt.Set(kGdtKernelDs, SegmentDescriptor::MakeData(kKernelBase, kKernelSpan, 0));
  gdt.Set(kGdtUserCs, SegmentDescriptor::MakeCode(0, kUserLimit, 3));
  gdt.Set(kGdtUserDs, SegmentDescriptor::MakeData(0, kUserLimit, 3));
  gdt.Set(kGdtAppCs, SegmentDescriptor::MakeCode(0, kUserLimit, 2));
  gdt.Set(kGdtAppDs, SegmentDescriptor::MakeData(0, kUserLimit, 2));
  gdt.Set(kGdtKernelReturnGate,
          SegmentDescriptor::MakeCallGate(kKernelCsSel.raw(),
                                          HostEntryOffset(kHostEntryKextReturn), 1));

  DescriptorTable& idt = machine_.idt();
  idt.Set(kVecSyscall, SegmentDescriptor::MakeInterruptGate(
                           kKernelCsSel.raw(), HostEntryOffset(kHostEntrySyscall), 3));
  idt.Set(kVecKernelService,
          SegmentDescriptor::MakeInterruptGate(kKernelCsSel.raw(),
                                               HostEntryOffset(kHostEntryKernelService), 1));
  // Hardware IRQ vectors: DPL 0 gates (hardware delivery ignores gate DPL;
  // the DPL keeps simulated code from raising them with `int`).
  for (u32 irq = 0; irq < kNumIrqVectors; ++irq) {
    idt.Set(static_cast<u16>(kVecIrqBase + irq),
            SegmentDescriptor::MakeInterruptGate(
                kKernelCsSel.raw(), HostEntryOffset(kHostEntryIrqBase + irq), 0));
  }
}

void Kernel::EnableTimerInterrupts() {
  if (interrupts_enabled_) return;
  interrupts_enabled_ = true;
  const u64 period =
      config_.timer_period_cycles != 0 ? config_.timer_period_cycles : kTimerSliceCycles;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    machine_.cpu(c).set_irq_hub(&fabric_[c]->hub);
    fabric_[c]->timer.Program(period, machine_.cpu(c).cycles());
  }
}

void Kernel::AttachObservability(obs::FlightRecorder* recorder,
                                 obs::CycleProfile* profiler) {
  recorder_ = recorder;
  profiler_ = profiler;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    machine_.cpu(c).set_recorder(recorder, c);
    machine_.cpu(c).set_profiler(profiler, c);
    if (recorder != nullptr && c < recorder->num_tracks() &&
        recorder->track_name(c).empty()) {
      recorder->SetTrackName(c, "cpu" + std::to_string(c));
    }
  }
}

obs::Category Kernel::ProfileSet(obs::Category cat) {
  if (profiler_ == nullptr || !profiler_->enabled()) return cat;
  const u32 c = machine_.current_cpu_index();
  const obs::Category prev = profiler_->Current(c);
  const Cpu& cpu = machine_.cpu(c);
  profiler_->Set(c, cpu.cycles(), cpu.tlb_stats().misses, cat);
  return prev;
}

void Kernel::StageRemoteOp(u32 target_cpu, const RemoteOp& op) {
  std::lock_guard<std::mutex> lock(remote_ops_mu_);
  staged_remote_[target_cpu].push_back(op);
}

u32 Kernel::staged_remote_ops(u32 target_cpu) const {
  std::lock_guard<std::mutex> lock(remote_ops_mu_);
  return target_cpu < staged_remote_.size()
             ? static_cast<u32>(staged_remote_[target_cpu].size())
             : 0;
}

u32 Kernel::DrainRemoteOps(u32 target_cpu) {
  std::vector<RemoteOp> ops;
  {
    std::lock_guard<std::mutex> lock(remote_ops_mu_);
    if (target_cpu >= staged_remote_.size()) return 0;
    ops.swap(staged_remote_[target_cpu]);
  }
  if (ops.empty()) return 0;
  // Apply as-if on the target core: staging off so the synchronous paths
  // run, current_cpu switched so recorder events and cycle stamps land on
  // the target's track. Only valid in a quiesced/serial context (the epoch
  // barrier window) — documented in the header.
  const bool was_staging = stage_remote_ops_;
  stage_remote_ops_ = false;
  const u32 saved_cpu = machine_.current_cpu_index();
  machine_.set_current_cpu(target_cpu);
  for (const RemoteOp& op : ops) {
    switch (op.kind) {
      case RemoteOp::Kind::kFlushPage:
        machine_.cpu(target_cpu).tlb().FlushPage(op.arg);
        break;
      case RemoteOp::Kind::kFlushAll:
        machine_.cpu(target_cpu).tlb().Flush();
        break;
      case RemoteOp::Kind::kIpi:
        SendIpi(target_cpu, op.irq);
        break;
      case RemoteOp::Kind::kEvictFrame:
        machine_.cpu(target_cpu).decode_cache().EvictFrame(op.arg);
        break;
      case RemoteOp::Kind::kWake:
        if (sched_ != nullptr) sched_->ApplyStagedWake(target_cpu, op.arg, op.stamp);
        break;
    }
  }
  machine_.set_current_cpu(saved_cpu);
  stage_remote_ops_ = was_staging;
  return static_cast<u32>(ops.size());
}

void Kernel::SendIpi(u32 target_cpu, u32 ipi_irq) {
  if (target_cpu >= machine_.num_cpus()) return;
  if (stage_remote_ops_ && target_cpu != machine_.current_cpu_index()) {
    StageRemoteOp(target_cpu, RemoteOp{RemoteOp::Kind::kIpi, 0, ipi_irq, 0});
    return;
  }
  fabric_[target_cpu]->pic.Raise(ipi_irq);
  if (recorder_ != nullptr) {
    const u32 cur_cpu = machine_.current_cpu_index();
    recorder_->Record(cur_cpu, machine_.cpu(cur_cpu).cycles(),
                      obs::EventType::kIrqRaise, obs::EventClass::kArch,
                      ipi_irq, target_cpu);
  }
}

void Kernel::ShootdownPage(u32 cr3, u32 linear) {
  // Local INVLPG, exactly the uniprocessor behavior (flushing the TLB page
  // bumps change_count, killing the D-TLB and fetch fast path).
  const u32 cur_cpu = machine_.current_cpu_index();
  machine_.cpu(cur_cpu).tlb().FlushPage(linear);
  if (machine_.num_cpus() == 1) return;
  // Remote shootdown. Only cores that can actually cache the translation
  // are targeted (the cpu_vm_mask optimization): a core running another
  // CR3 flushed everything on its last address-space switch, so only cores
  // on the edited CR3 — or every core, for shared kernel-range mappings —
  // can hold a stale entry. The initiator "spins for acks": the remote
  // invalidation is applied synchronously here, and the IPI charges the
  // target core's interrupt cost at its next retire boundary.
  const bool kernel_range = linear >= kKernelBase || cr3 == kernel_page_dir_template_;
  u32 remote = 0;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    if (c == cur_cpu) continue;
    if (!kernel_range && machine_.cpu(c).cr3() != cr3) continue;
    if (stage_remote_ops_) {
      // Threaded mode: the sibling may be mid-epoch on its own thread, so
      // its TLB cannot be touched here. Queue the invalidation; the barrier
      // drain applies it before the sibling's next epoch.
      StageRemoteOp(c, RemoteOp{RemoteOp::Kind::kFlushPage, linear, 0, 0});
    } else {
      machine_.cpu(c).tlb().FlushPage(linear);
    }
    ++remote;
    if (interrupts_enabled_) {
      SendIpi(c, kIrqIpiShootdown);
      ++smp_stats_.shootdown_ipis;
    }
  }
  if (remote != 0) {
    ++smp_stats_.shootdown_pages;
    if (recorder_ != nullptr) {
      recorder_->Record(cur_cpu, machine_.cpu(cur_cpu).cycles(),
                        obs::EventType::kTlbShootdown, obs::EventClass::kArch,
                        PageNumber(linear), remote);
    }
  }
}

void Kernel::FlushAddressSpace(u32 cr3) {
  const u32 cur_cpu = machine_.current_cpu_index();
  machine_.cpu(cur_cpu).tlb().Flush();
  if (machine_.num_cpus() == 1) return;
  bool any_remote = false;
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    if (c == cur_cpu || machine_.cpu(c).cr3() != cr3) continue;
    if (stage_remote_ops_) {
      StageRemoteOp(c, RemoteOp{RemoteOp::Kind::kFlushAll, 0, 0, 0});
    } else {
      machine_.cpu(c).tlb().Flush();
    }
    any_remote = true;
    if (interrupts_enabled_) {
      SendIpi(c, kIrqIpiShootdown);
      ++smp_stats_.shootdown_ipis;
    }
  }
  if (any_remote) ++smp_stats_.full_flushes;
}

void Kernel::RegisterIrqHandler(u32 irq, IrqHandler handler) {
  irq_handlers_[irq] = std::move(handler);
}

// --- Process lifecycle -------------------------------------------------------

Pid Kernel::CreateProcess() {
  auto proc = std::make_unique<Process>();
  proc->pid = next_pid_++;
  if (!BuildAddressSpace(*proc)) return 0;
  Pid pid = proc->pid;
  processes_[pid] = std::move(proc);
  return pid;
}

Process* Kernel::process(Pid pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

bool Kernel::BuildAddressSpace(Process& proc) {
  PhysicalMemory& pm = machine_.pm();
  proc.cr3 = frames_.Alloc();
  if (proc.cr3 == 0) return false;
  // Share the kernel half of the template page directory.
  for (u32 pde_idx = PdeIndex(kKernelBase); pde_idx < kPtesPerTable; ++pde_idx) {
    u32 pde = 0;
    pm.Read32(kernel_page_dir_template_ + pde_idx * 4, &pde);
    pm.Write32(proc.cr3 + pde_idx * 4, pde);
  }
  proc.kernel_stack_frame = frames_.Alloc();
  if (proc.kernel_stack_frame == 0) return false;
  // Kernel-segment offset == physical address thanks to the direct map.
  proc.esp0 = proc.kernel_stack_frame + kPageSize;
  return true;
}

void Kernel::EvictFrameEverywhere(u32 frame) {
  const u32 cur_cpu = machine_.current_cpu_index();
  for (u32 c = 0; c < machine_.num_cpus(); ++c) {
    if (stage_remote_ops_ && c != cur_cpu) {
      StageRemoteOp(c, RemoteOp{RemoteOp::Kind::kEvictFrame, frame, 0, 0});
    } else {
      machine_.cpu(c).decode_cache().EvictFrame(frame);
    }
  }
}

PageTableEditor Kernel::Editor(u32 cr3) {
  // Every live-machine PTE edit goes through the shootdown protocol: local
  // INVLPG plus exact cross-CPU invalidation with IPI cost modelling.
  return PageTableEditor(machine_.pm(), cr3,
                         [this, cr3](u32 linear) { ShootdownPage(cr3, linear); });
}

void Kernel::ReleaseAddressSpace(Process& proc) {
  // Frees user page tables and frames (kernel tables are shared). Freed
  // frames are evicted from *every* vCPU's decode cache so a stale decoded
  // image cannot linger across frame reuse on any core, and the fetch fast
  // path is dropped with the address space.
  PhysicalMemory& pm = machine_.pm();
  for (u32 pde_idx = 0; pde_idx < PdeIndex(kKernelBase); ++pde_idx) {
    u32 pde = 0;
    pm.Read32(proc.cr3 + pde_idx * 4, &pde);
    if (!(pde & kPtePresent)) continue;
    u32 table = pde & kPteFrameMask;
    for (u32 i = 0; i < kPtesPerTable; ++i) {
      u32 pte = 0;
      pm.Read32(table + i * 4, &pte);
      if (pte & kPtePresent) {
        EvictFrameEverywhere(pte & kPteFrameMask);
        frames_.Free(pte & kPteFrameMask);
      }
    }
    frames_.Free(table);
    pm.Write32(proc.cr3 + pde_idx * 4, 0);
  }
  proc.areas.clear();
}

bool Kernel::AddArea(Process& proc, u32 start, u32 end, u32 prot, const char* tag) {
  start = PageAlignDown(start);
  end = PageAlignUp(end);
  if (start >= end || end > kUserLimit) return false;
  for (const VmArea& a : proc.areas) {
    if (start < a.end && a.start < end) return false;  // overlap
  }
  VmArea area;
  area.start = start;
  area.end = end;
  area.prot = prot;
  area.tag = tag;
  proc.areas.push_back(area);
  return true;
}

bool Kernel::MapUserPage(Process& proc, u32 linear, const VmArea& area) {
  linear = PageAlignDown(linear);
  u32 frame = frames_.Alloc();
  if (frame == 0) return false;
  const bool writable = (area.prot & kProtWrite) != 0;
  // Palladium PPL policy (Section 4.4.1): once the process is at SPL 2,
  // writable pages default to PPL 0 unless explicitly shared via set_range.
  bool ppl1 = true;
  if (proc.ppl_policy && writable && !area.shared_ppl1 &&
      proc.ppl1_pages.count(PageNumber(linear)) == 0) {
    ppl1 = false;
  }
  u32 flags = kPtePresent | (writable ? kPteWrite : 0) | (ppl1 ? kPteUser : 0);
  PageTableEditor ed = Editor(proc.cr3);
  return ed.Map(linear, frame, flags, [this] { return frames_.Alloc(); });
}

bool Kernel::PopulateRange(Process& proc, u32 start, u32 end) {
  for (u32 addr = PageAlignDown(start); addr < end; addr += kPageSize) {
    VmArea* area = proc.FindArea(addr);
    if (area == nullptr) return false;
    PageTableEditor ed(machine_.pm(), proc.cr3);
    u32 pte = 0;
    if (ed.GetPte(addr, &pte) && (pte & kPtePresent)) continue;
    if (!MapUserPage(proc, addr, *area)) return false;
  }
  return true;
}

bool Kernel::CopyToUser(Process& proc, u32 linear, const void* src, u32 len) {
  // access_ok: user copies must stay inside the user half of the address
  // space. Without this a syscall taking a user pointer (write, sigaction)
  // would walk the shared kernel PDEs and read or clobber kernel memory.
  if (linear >= kUserLimit || len > kUserLimit - linear) return false;
  const u8* p = static_cast<const u8*>(src);
  const bool current_space = cpu().cr3() == proc.cr3;
  while (len > 0) {
    u32 page_off = linear & kPageMask;
    u32 chunk = std::min(len, kPageSize - page_off);
    // Fast path: pages the simulated CPU touched recently sit in its D-TLB
    // with a validated host pointer; a hit replaces the page-table walk.
    // Only valid for the live address space (the D-TLB caches cpu.cr3()).
    if (current_space && cpu().DtlbHostWrite(linear, p, chunk)) {
      linear += chunk;
      p += chunk;
      len -= chunk;
      continue;
    }
    VmArea* area = proc.FindArea(linear);
    if (area == nullptr) return false;
    PageTableEditor ed(machine_.pm(), proc.cr3);
    u32 pte = 0;
    if (!ed.GetPte(linear, &pte) || !(pte & kPtePresent)) {
      if (!MapUserPage(proc, linear, *area)) return false;
      ed.GetPte(linear, &pte);
    }
    if (!machine_.pm().WriteBlock((pte & kPteFrameMask) + page_off, p, chunk)) return false;
    linear += chunk;
    p += chunk;
    len -= chunk;
  }
  return true;
}

bool Kernel::CopyFromUser(Process& proc, u32 linear, void* dst, u32 len) {
  if (linear >= kUserLimit || len > kUserLimit - linear) return false;  // access_ok
  u8* p = static_cast<u8*>(dst);
  const bool current_space = cpu().cr3() == proc.cr3;
  while (len > 0) {
    u32 page_off = linear & kPageMask;
    u32 chunk = std::min(len, kPageSize - page_off);
    if (current_space && cpu().DtlbHostRead(linear, p, chunk)) {
      linear += chunk;
      p += chunk;
      len -= chunk;
      continue;
    }
    PageTableEditor ed(machine_.pm(), proc.cr3);
    u32 pte = 0;
    if (!ed.GetPte(linear, &pte) || !(pte & kPtePresent)) {
      // Unmapped page: demand-zero if within an area.
      VmArea* area = proc.FindArea(linear);
      if (area == nullptr) return false;
      if (!MapUserPage(proc, linear, *area)) return false;
      ed.GetPte(linear, &pte);
    }
    if (!machine_.pm().ReadBlock((pte & kPteFrameMask) + page_off, p, chunk)) return false;
    linear += chunk;
    p += chunk;
    len -= chunk;
  }
  return true;
}

bool Kernel::SetPageUserBit(Process& proc, u32 linear, bool user) {
  // Invalidation rides on the editor hook.
  PageTableEditor ed = Editor(proc.cr3);
  return user ? ed.UpdateFlags(linear, kPteUser, 0) : ed.UpdateFlags(linear, 0, kPteUser);
}

bool Kernel::SetPageWritable(Process& proc, u32 linear, bool writable) {
  PageTableEditor ed = Editor(proc.cr3);
  return writable ? ed.UpdateFlags(linear, kPteWrite, 0) : ed.UpdateFlags(linear, 0, kPteWrite);
}

std::optional<u32> Kernel::GetPte(Process& proc, u32 linear) {
  PageTableEditor ed(machine_.pm(), proc.cr3);
  u32 pte = 0;
  if (!ed.GetPte(linear, &pte)) return std::nullopt;
  return pte;
}

bool Kernel::WriteKernelVirt(u32 linear, const void* src, u32 len) {
  const u8* p = static_cast<const u8*>(src);
  PageTableEditor ed(machine_.pm(), kernel_page_dir_template_);
  while (len > 0) {
    u32 off = linear & kPageMask;
    u32 chunk = std::min(len, kPageSize - off);
    // Kernel mappings are shared by every address space, so any live D-TLB
    // entry for a kernel-range page (extension segments, trampoline argument
    // slots the extension just touched) is valid here regardless of which
    // CR3 primed it. User-range addresses must keep walking the template
    // tables (where they are unmapped) — never the current process's.
    if (linear >= kKernelBase && cpu().DtlbHostWrite(linear, p, chunk)) {
      linear += chunk;
      p += chunk;
      len -= chunk;
      continue;
    }
    u32 pte = 0;
    if (!ed.GetPte(linear, &pte) || !(pte & kPtePresent)) return false;
    if (!machine_.pm().WriteBlock((pte & kPteFrameMask) + off, p, chunk)) return false;
    linear += chunk;
    p += chunk;
    len -= chunk;
  }
  return true;
}

bool Kernel::ReadKernelVirt(u32 linear, void* dst, u32 len) {
  u8* p = static_cast<u8*>(dst);
  PageTableEditor ed(machine_.pm(), kernel_page_dir_template_);
  while (len > 0) {
    u32 off = linear & kPageMask;
    u32 chunk = std::min(len, kPageSize - off);
    if (linear >= kKernelBase && cpu().DtlbHostRead(linear, p, chunk)) {
      linear += chunk;
      p += chunk;
      len -= chunk;
      continue;
    }
    u32 pte = 0;
    if (!ed.GetPte(linear, &pte) || !(pte & kPtePresent)) return false;
    if (!machine_.pm().ReadBlock((pte & kPteFrameMask) + off, p, chunk)) return false;
    linear += chunk;
    p += chunk;
    len -= chunk;
  }
  return true;
}

std::optional<std::string> Kernel::ReadUserString(Process& proc, u32 linear) {
  std::string out;
  for (u32 i = 0; i < 256; ++i) {
    char c = 0;
    if (!CopyFromUser(proc, linear + i, &c, 1)) return std::nullopt;
    if (c == '\0') return out;
    out += c;
  }
  return std::nullopt;
}

u32 Kernel::MapKernelPage(u32 linear, bool user_bit) {
  if (linear < kKernelBase) return 0;
  u32 frame = frames_.Alloc();
  if (frame == 0) return 0;
  PageTableEditor ed = Editor(kernel_page_dir_template_);
  u32 flags = kPtePresent | kPteWrite | (user_bit ? kPteUser : 0);
  if (!ed.Map(linear, frame, flags, [] { return 0u; })) {
    frames_.Free(frame);
    return 0;
  }
  return frame;
}

bool Kernel::UnmapKernelPage(u32 linear) {
  if (linear < kKernelBase) return false;
  PageTableEditor ed = Editor(kernel_page_dir_template_);
  u32 pte = 0;
  if (!ed.GetPte(linear, &pte) || !(pte & kPtePresent)) return false;
  u32 frame = pte & kPteFrameMask;
  // Kernel mappings may have been decoded (extension code runs from them):
  // drop every vCPU's cached translations before the frame is recycled.
  EvictFrameEverywhere(frame);
  ed.Unmap(linear);
  frames_.Free(frame);
  return true;
}

// --- Image loading -----------------------------------------------------------

void Kernel::InstallSignalTrampoline(Process& proc) {
  // The sigreturn trampoline (Linux 2.0 placed an equivalent on the user
  // stack): mov $kSysSigreturn, %eax ; int $0x80
  AddArea(proc, kSignalTrampolinePage, kSignalTrampolinePage + kPageSize, kProtRead,
          "sigreturn-trampoline");
  Insn mov;
  mov.opcode = Opcode::kMovRI;
  mov.r1 = static_cast<u8>(Reg::kEax);
  mov.imm = static_cast<i32>(kSysSigreturn);
  Insn intr;
  intr.opcode = Opcode::kInt;
  intr.imm = static_cast<i32>(kVecSyscall);
  u8 code[2 * kInsnSize];
  mov.EncodeTo(code);
  intr.EncodeTo(code + kInsnSize);
  CopyToUser(proc, kSignalTrampolinePage, code, sizeof(code));
}

bool Kernel::LoadUserImage(Pid pid, const LinkedImage& image, const std::string& entry_symbol,
                           std::string* diag) {
  Process* proc = process(pid);
  if (proc == nullptr) {
    if (diag != nullptr) *diag = "no such process";
    return false;
  }
  auto entry = image.Lookup(entry_symbol);
  if (!entry) {
    if (diag != nullptr) *diag = "entry symbol not found: " + entry_symbol;
    return false;
  }
  const u32 text_start = PageAlignDown(image.text_start);
  const u32 text_end = PageAlignUp(image.text_start + image.text_size);
  const u32 data_end = PageAlignUp(image.data_start + image.data_size);
  if (!AddArea(*proc, text_start, text_end, kProtRead | kProtExec, "text") ||
      (data_end > image.data_start &&
       !AddArea(*proc, image.data_start, data_end, kProtRead | kProtWrite, "data"))) {
    if (diag != nullptr) *diag = "image areas overlap";
    return false;
  }
  proc->heap_start = data_end;
  proc->brk = data_end;
  AddArea(*proc, data_end, data_end + 1, kProtRead | kProtWrite, "heap");
  // Heap area starts empty; brk grows it. (AddArea page-aligns to one page.)
  proc->areas.back().end = data_end;  // truly empty until brk

  if (!AddArea(*proc, kUserStackTop - kUserStackSize, kUserStackTop, kProtRead | kProtWrite,
               "stack")) {
    if (diag != nullptr) *diag = "stack area overlaps image";
    return false;
  }
  InstallSignalTrampoline(*proc);

  if (!CopyToUser(*proc, image.base, image.bytes.data(), static_cast<u32>(image.bytes.size()))) {
    if (diag != nullptr) *diag = "failed to copy image";
    return false;
  }

  CpuContext& ctx = proc->context;
  ctx = CpuContext{};
  ctx.eip = *entry;
  // Processes run with hardware interrupts enabled once the machine has a
  // live timer; without one the bit is meaningless and stays clear so
  // cooperative-mode memory images are untouched.
  ctx.eflags = interrupts_enabled_ ? kFlagIf : 0;
  ctx.cpl = 3;
  ctx.regs[static_cast<u8>(Reg::kEsp)] = kUserStackTop - 16;
  const DescriptorTable& gdt = machine_.gdt();
  ctx.segs[static_cast<u8>(SegReg::kCs)] = MakeLoaded(gdt, kUserCsSel);
  ctx.segs[static_cast<u8>(SegReg::kSs)] = MakeLoaded(gdt, kUserDsSel);
  ctx.segs[static_cast<u8>(SegReg::kDs)] = MakeLoaded(gdt, kUserDsSel);
  ctx.segs[static_cast<u8>(SegReg::kEs)] = MakeLoaded(gdt, kUserDsSel);
  return true;
}

bool Kernel::ExecImage(Pid pid, const LinkedImage& image, const std::string& entry_symbol,
                       std::string* diag) {
  Process* proc = process(pid);
  if (proc == nullptr) {
    if (diag != nullptr) *diag = "no such process";
    return false;
  }
  ReleaseAddressSpace(*proc);
  FlushAddressSpace(proc->cr3);
  // Privilege levels are not inherited across exec (Section 4.5.2).
  proc->task_spl = 3;
  proc->ppl_policy = false;
  proc->ppl1_pages.clear();
  proc->signals = SignalState{};
  proc->state = ProcessState::kRunnable;
  Charge(config_.costs.exec_base);
  return LoadUserImage(pid, image, entry_symbol, diag);
}

// --- Run loop ----------------------------------------------------------------

void Kernel::SwitchTo(Process& proc) {
  cpu().LoadCr3(proc.cr3);
  Tss& tss = cpu().tss();
  tss.ss[0] = kKernelDsSel.raw();
  tss.esp[0] = proc.esp0;
  tss.ss[2] = kAppDsSel.raw();
  tss.esp[2] = proc.pl2_stack_top;
  cpu().RestoreContext(proc.context);
  // Kernel policy, as on Linux: process context always runs with hardware
  // interrupts open once the machine has a live timer. Applying it here (not
  // only at image load) means processes loaded before EnableTimerInterrupts
  // or the Scheduler existed are still preemptible and watchdog-covered.
  if (interrupts_enabled_) cpu().set_eflags(cpu().eflags() | kFlagIf);
  cur() = &proc;
  Charge(config_.costs.context_switch);
  if (recorder_ != nullptr) {
    const u32 cur_cpu = machine_.current_cpu_index();
    recorder_->Record(cur_cpu, cpu().cycles(), obs::EventType::kContextSwitch,
                      obs::EventClass::kArch, proc.pid, 0);
  }
}

void Kernel::SaveCurrent() {
  if (cur() != nullptr) cur()->context = cpu().SaveContext();
}

void Kernel::ExtensionWatchdogTick(Process& proc) {
  // The extension CPU-time limit (Section 4.5.2). Interrupt-driven (called
  // from the timer IRQ after the interrupted context was restored) or from
  // the cooperative slice check — identical logic either way.
  if (proc.task_spl == 2 && cpu().cpl() == 3) {
    if (!proc.in_extension) {
      proc.in_extension = true;
      proc.ext_cycle_start = cpu().cycles();
    } else if (cpu().cycles() - proc.ext_cycle_start > config_.extension_cycle_limit) {
      proc.in_extension = false;
      DeliverSignal(proc, kSigXcpu);
    }
  } else {
    proc.in_extension = false;
  }
}

bool Kernel::HandleIrqFromGate(u32 irq, bool in_kernel_context) {
  const u32 cur_cpu = machine_.current_cpu_index();
  // Attribute the host-side IRQ service span to kIrq, restoring the
  // interrupted category (kernel, or crossing during a kext invocation) on
  // every exit path below.
  const obs::Category prev_cat = ProfileSet(obs::Category::kIrq);
  Charge(config_.costs.irq_dispatch);
  fabric_[cur_cpu]->pic.Eoi();
  if (recorder_ != nullptr) {
    recorder_->Record(cur_cpu, cpu().cycles(), obs::EventType::kIrqEoi,
                      obs::EventClass::kArch, irq, 0);
  }
  // Hardware interrupts are transparent: restore the interrupted context
  // before any kernel work, so handlers (which are host code) see the
  // machine exactly as the interrupt found it.
  ReturnFromInterrupt();
  bool preempt = false;
  if (irq == kIrqTimer && !in_kernel_context) {
    if (cur() != nullptr) ExtensionWatchdogTick(*cur());
    if (sched_ != nullptr && sched_->OnTimerTick()) preempt = true;
  } else if (irq == kIrqIpiShootdown) {
    // The invalidation itself was applied synchronously by the initiator
    // (it spins for acks); what the target pays here is the interrupt cost.
    ++smp_stats_.ipis_received;
  } else if (irq == kIrqIpiResched) {
    ++smp_stats_.ipis_received;
    if (sched_ != nullptr && !in_kernel_context) preempt = true;
  }
  auto it = irq_handlers_.find(irq);
  if (it != irq_handlers_.end()) it->second(*this);
  ProfileRestore(prev_cat);
  return preempt;
}

void Kernel::ServicePendingIrqsHostSide() {
  // Services the *current* vCPU's fabric (the scheduler walks the cores,
  // setting the machine's current index, when several sit idle).
  const u32 cur_cpu = machine_.current_cpu_index();
  InterruptController& pic = fabric_[cur_cpu]->pic;
  fabric_[cur_cpu]->hub.AdvanceDevices(cpu().cycles());
  for (;;) {
    const int vec = pic.Acknowledge();
    if (vec < 0) break;
    const u32 irq = static_cast<u32>(vec) - kVecIrqBase;
    const obs::Category prev_cat = ProfileSet(obs::Category::kIrq);
    pic.Eoi();
    if (recorder_ != nullptr) {
      recorder_->Record(cur_cpu, cpu().cycles(), obs::EventType::kIrqEoi,
                        obs::EventClass::kArch, irq, 0);
    }
    if (irq == kIrqIpiShootdown || irq == kIrqIpiResched) ++smp_stats_.ipis_received;
    // No watchdog/preemption while idle (there is no current process), but
    // user-registered handlers — including one on the timer line — still
    // run, matching the gate path.
    auto it = irq_handlers_.find(irq);
    if (it != irq_handlers_.end()) it->second(*this);
    ProfileRestore(prev_cat);
  }
}

StopAction Kernel::DispatchStop(const StopInfo& stop) {
  bool preempt = false;
  switch (stop.reason) {
    case StopReason::kHostCall:
      if (stop.host_call_id >= kHostEntryIrqBase &&
          stop.host_call_id < kHostEntryIrqBase + kNumIrqVectors) {
        preempt = HandleIrqFromGate(stop.host_call_id - kHostEntryIrqBase,
                                    /*in_kernel_context=*/false);
      } else if (stop.host_call_id == kHostEntrySyscall) {
        HandleSyscall();
      } else {
        auto it = host_calls_.find(stop.host_call_id);
        if (it != host_calls_.end()) {
          it->second(*this);
        } else {
          KillCurrent("jump into unregistered kernel entry");
        }
      }
      break;
    case StopReason::kFault:
      HandleFault(stop);
      break;
    case StopReason::kHalted:
      KillCurrent("unexpected hlt from process context");
      break;
    case StopReason::kCycleLimit:
      break;  // the run loop owns deadline semantics
  }
  if (preempt_pending_) {
    preempt_pending_ = false;
    preempt = true;
  }
  if (cur() == nullptr) return StopAction::kTerminated;
  switch (cur()->state) {
    case ProcessState::kRunnable:
      return preempt ? StopAction::kPreempt : StopAction::kContinue;
    case ProcessState::kBlocked:
      return StopAction::kBlocked;
    default:
      return StopAction::kTerminated;
  }
}

RunResult Kernel::RunProcess(Pid pid, u64 cycle_budget) {
  RunResult result;
  Process* proc = process(pid);
  if (proc == nullptr || proc->state != ProcessState::kRunnable) {
    result.outcome = RunOutcome::kKilled;
    result.kill_reason = "process not runnable";
    return result;
  }
  SwitchTo(*proc);
  const u64 deadline =
      cycle_budget == ~0ull ? ~0ull : cpu().cycles() + cycle_budget;

  while (proc->state == ProcessState::kRunnable) {
    // With hardware timer interrupts the watchdog rides the IRQ path and the
    // CPU runs straight to the caller's deadline; without them, chop the run
    // into slices and tick the watchdog cooperatively (the legacy behavior,
    // observable-identical for existing callers). Either way the slice edge
    // is exact: Cpu::Run stops at instruction-retire boundaries only, and
    // the superblock engine ends its basic-block runs early at the same
    // frontier, so watchdog and slice accounting are engine-independent.
    u64 slice_end = deadline;
    if (!interrupts_enabled_) {
      slice_end = cpu().cycles() + kTimerSliceCycles;
      if (slice_end > deadline) slice_end = deadline;
    }
    StopInfo stop = cpu().Run(slice_end);
    if (stop.reason == StopReason::kCycleLimit) {
      if (cpu().cycles() >= deadline) {
        SaveCurrent();
        result.outcome = RunOutcome::kCycleLimit;
        return result;
      }
      ExtensionWatchdogTick(*proc);
      continue;
    }
    const StopAction action = DispatchStop(stop);
    if (action == StopAction::kBlocked) {
      // RunProcess has no other process to switch to; the process stays
      // parked (state kBlocked) and a Scheduler — or a WakeProcess plus a
      // second RunProcess — can resume it.
      cur() = nullptr;
      result.outcome = RunOutcome::kBlocked;
      return result;
    }
    // kContinue / kPreempt (meaningless without a scheduler) / kTerminated:
    // the loop condition sorts them out.
  }

  cur() = nullptr;
  if (proc->state == ProcessState::kExited) {
    result.outcome = RunOutcome::kExited;
    result.exit_code = proc->exit_code;
  } else {
    result.outcome = RunOutcome::kKilled;
    result.kill_reason = proc->kill_reason;
  }
  return result;
}

void Kernel::BlockCurrentForRestart() {
  Process& proc = *cur();
  GateFrame frame;
  if (!PeekGateFrame(&frame) || !frame.has_outer_stack) {
    KillCurrent("cannot block: unreadable gate frame");
    return;
  }
  // Park the process with a context that re-executes the trapping `int`
  // instruction on wakeup (restart semantics): registers still hold the
  // system-call arguments, so the retry re-evaluates the wait condition.
  CpuContext ctx = cpu().SaveContext();
  const DescriptorTable& gdt = machine_.gdt();
  Selector cs_sel(static_cast<u16>(frame.cs));
  Selector ss_sel(static_cast<u16>(frame.ss));
  ctx.eip = frame.eip - kInsnSize;
  ctx.eflags = frame.eflags;
  ctx.cpl = cs_sel.rpl();
  ctx.regs[static_cast<u8>(Reg::kEsp)] = frame.esp;
  ctx.segs[static_cast<u8>(SegReg::kCs)] = MakeLoaded(gdt, cs_sel);
  ctx.segs[static_cast<u8>(SegReg::kSs)] = MakeLoaded(gdt, ss_sel);
  proc.context = ctx;
  proc.state = ProcessState::kBlocked;
}

void Kernel::WakeProcess(Process& proc) {
  if (proc.state != ProcessState::kBlocked) return;
  proc.state = ProcessState::kRunnable;
  proc.waiting_packet = false;
  if (sched_ != nullptr) sched_->OnWake(proc.pid);
}

void Kernel::KillCurrent(const std::string& reason) {
  if (cur() == nullptr) return;
  cur()->state = ProcessState::kKilled;
  cur()->kill_reason = reason;
}

// --- Gate frame helpers --------------------------------------------------------

bool Kernel::PeekGateFrame(GateFrame* frame) {
  Fault f;
  u32 esp = cpu().reg(Reg::kEsp);
  u32 eip = 0, cs = 0, eflags = 0, oesp = 0, oss = 0;
  if (!cpu().ReadVirt(SegReg::kSs, esp + 0, 4, &eip, &f) ||
      !cpu().ReadVirt(SegReg::kSs, esp + 4, 4, &cs, &f) ||
      !cpu().ReadVirt(SegReg::kSs, esp + 8, 4, &eflags, &f)) {
    return false;
  }
  frame->eip = eip;
  frame->cs = cs;
  frame->eflags = eflags;
  Selector cs_sel(static_cast<u16>(cs));
  if (cs_sel.rpl() > cpu().cpl()) {
    if (!cpu().ReadVirt(SegReg::kSs, esp + 12, 4, &oesp, &f) ||
        !cpu().ReadVirt(SegReg::kSs, esp + 16, 4, &oss, &f)) {
      return false;
    }
    frame->esp = oesp;
    frame->ss = oss;
    frame->has_outer_stack = true;
  }
  return true;
}

bool Kernel::PatchGateFrameSelectors(Selector cs, Selector ss) {
  Fault f;
  u32 esp = cpu().reg(Reg::kEsp);
  return cpu().WriteVirt(SegReg::kSs, esp + 4, 4, cs.raw(), &f) &&
         cpu().WriteVirt(SegReg::kSs, esp + 16, 4, ss.raw(), &f);
}

void Kernel::ReturnFromGate(u32 eax_value) {
  cpu().set_reg(Reg::kEax, eax_value);
  ResumeFromGateFrame();
}

// IRET for hardware interrupts: identical to a syscall return except every
// register — EAX included — must come back untouched.
void Kernel::ReturnFromInterrupt() { ResumeFromGateFrame(); }

void Kernel::ResumeFromGateFrame() {
  Fault f;
  u32 eip = 0, cs = 0, eflags = 0;
  if (!cpu().Pop32(&eip, &f) || !cpu().Pop32(&cs, &f) || !cpu().Pop32(&eflags, &f)) {
    KillCurrent("corrupt gate frame");
    return;
  }
  Selector cs_sel(static_cast<u16>(cs));
  if (cs_sel.rpl() > cpu().cpl()) {
    u32 oesp = 0, oss = 0;
    if (!cpu().Pop32(&oesp, &f) || !cpu().Pop32(&oss, &f)) {
      KillCurrent("corrupt gate frame (outer stack)");
      return;
    }
    if (!cpu().ForceSegment(SegReg::kCs, cs_sel) ||
        !cpu().ForceSegment(SegReg::kSs, Selector(static_cast<u16>(oss)))) {
      KillCurrent("gate frame references dead segments");
      return;
    }
    cpu().set_reg(Reg::kEsp, oesp);
  } else if (!cpu().ForceSegment(SegReg::kCs, cs_sel)) {
    KillCurrent("gate frame references dead segment");
    return;
  }
  cpu().set_eip(eip);
  cpu().set_eflags(eflags);
  Charge(cpu().cycle_model().iret_inter);
}

// --- Host call / syscall plumbing ---------------------------------------------

void Kernel::RegisterHostCall(u32 id, HostCallHandler handler) {
  host_calls_[id] = std::move(handler);
}

u32 Kernel::AllocateHostCallId() { return next_host_call_id_++; }

void Kernel::RegisterSyscall(u32 number, SyscallHandler handler) {
  extra_syscalls_[number] = std::move(handler);
}

void Kernel::HandleSyscall() {
  Process& proc = *cur();
  Charge(config_.costs.syscall_dispatch);
  const u32 nr = cpu().reg(Reg::kEax);
  const u32 ebx = cpu().reg(Reg::kEbx);
  const u32 ecx = cpu().reg(Reg::kEcx);
  const u32 edx = cpu().reg(Reg::kEdx);

  // taskSPL gating (Section 4.5.2): once the process promoted itself to SPL
  // 2, system calls arriving from SPL 3 code (i.e. user extensions) are
  // rejected. Non-Palladium processes (taskSPL == 3) are unaffected.
  GateFrame frame;
  if (!PeekGateFrame(&frame)) {
    KillCurrent("unreadable syscall frame");
    return;
  }
  const u8 caller_spl = Selector(static_cast<u16>(frame.cs)).rpl();
  if (proc.task_spl == 2 && caller_spl == 3) {
    ReturnFromGate(kErrPerm);
    return;
  }
  // Kernel extensions (SPL 1) may only use the kernel-service gate, never
  // the general system-call interface (Section 4.1).
  if (caller_spl <= 1) {
    ReturnFromGate(kErrPerm);
    return;
  }

  switch (nr) {
    case kSysExit:
      SysExit(ebx);
      return;
    case kSysFork:
      SysFork();
      return;
    case kSysWrite:
      SysWrite(ebx, ecx);
      return;
    case kSysGetPid:
      ReturnFromGate(proc.pid);
      return;
    case kSysKill:
      // Signal to self, delivered on return to user (as Linux does).
      ReturnFromGate(0);
      if (proc.state == ProcessState::kRunnable) DeliverSignal(proc, ebx);
      return;
    case kSysBrk:
      SysBrk(ebx);
      return;
    case kSysMmap:
      SysMmap(ebx, ecx, edx);
      return;
    case kSysMunmap:
      SysMunmap(ebx, ecx);
      return;
    case kSysMprotect:
      SysMprotect(ebx, ecx, edx);
      return;
    case kSysSigaction:
      SysSigaction(ebx, ecx);
      return;
    case kSysSigreturn:
      SysSigreturn();
      return;
    case kSysInitPL:
      SysInitPL();
      return;
    case kSysSetRange:
      SysSetRange(ebx, ecx, edx);
      return;
    case kSysSetCallGate:
      SysSetCallGate(ebx);
      return;
    case kSysYield:
      ReturnFromGate(0);
      if (sched_ != nullptr) {
        preempt_pending_ = true;
        sched_->OnYield();
      }
      return;
    case kSysInvokeKext: {
      if (!kext_invoker_) {
        ReturnFromGate(kErrNoEnt);
        return;
      }
      bool ok = true;
      u32 result = kext_invoker_(*this, ebx, ecx, &ok);
      if (cur() == nullptr || cur()->state != ProcessState::kRunnable) return;
      ReturnFromGate(ok ? result : kErrFault);
      return;
    }
    default: {
      auto it = extra_syscalls_.find(nr);
      if (it != extra_syscalls_.end()) {
        it->second(*this, ebx, ecx, edx);
        return;
      }
      ReturnFromGate(kErrNoEnt);
      return;
    }
  }
}

// --- Fault handling ------------------------------------------------------------

void Kernel::HandleFault(const StopInfo& stop) {
  Process& proc = *cur();
  const Fault& fault = stop.fault;
  const u8 cpl = cpu().cpl();

  if (fault.vector == FaultVector::kPageFault && !(fault.error_code & kPfErrPresent)) {
    // Demand paging: a not-present page inside a mapped area.
    VmArea* area = proc.FindArea(fault.linear_address);
    const bool want_write = (fault.error_code & kPfErrWrite) != 0;
    if (area != nullptr && (!want_write || (area->prot & kProtWrite) != 0)) {
      if (MapUserPage(proc, fault.linear_address, *area)) {
        // MapUserPage's editor hook already flushed the page's TLB entry.
        Charge(config_.costs.page_fault_service);
        return;  // retry the faulting instruction
      }
      KillCurrent("out of memory during demand paging");
      return;
    }
  }

  // Palladium user-extension containment: fault raised by SPL 3 code in an
  // SPL 2 process delivers SIGSEGV to the extended application.
  if (proc.task_spl == 2 && cpl == 3) {
    Charge(config_.costs.sigsegv_delivery);
    DeliverSignal(proc, kSigSegv);
    return;
  }

  // Ordinary process fault: SIGSEGV if handled, else kill.
  if (cpl == 3 && proc.signals.handlers[kSigSegv % kNumSignals] != 0) {
    Charge(config_.costs.sigsegv_delivery);
    DeliverSignal(proc, kSigSegv);
    return;
  }
  KillCurrent("fault: " + FaultToString(fault));
}

void Kernel::DeliverSignal(Process& proc, u32 signo) {
  signo %= kNumSignals;
  u32 handler = proc.signals.handlers[signo];
  if (handler == 0) {
    KillCurrent("unhandled signal " + std::to_string(signo));
    return;
  }
  proc.signals.saved_context = cpu().SaveContext();
  proc.signals.in_handler = true;
  proc.signals.last_signal = signo;
  ++proc.signals.delivered_count;

  const DescriptorTable& gdt = machine_.gdt();
  CpuContext ctx = cpu().SaveContext();
  u32 stack_top;
  if (proc.task_spl == 2) {
    // Handler runs in the extended application at SPL 2; use the PL 2
    // transition stack (never the extension's stack).
    ctx.cpl = 2;
    ctx.segs[static_cast<u8>(SegReg::kCs)] = MakeLoaded(gdt, kAppCsSel);
    ctx.segs[static_cast<u8>(SegReg::kSs)] = MakeLoaded(gdt, kAppDsSel);
    ctx.segs[static_cast<u8>(SegReg::kDs)] = MakeLoaded(gdt, kAppDsSel);
    ctx.segs[static_cast<u8>(SegReg::kEs)] = MakeLoaded(gdt, kAppDsSel);
    stack_top = proc.pl2_stack_top != 0 ? proc.pl2_stack_top - 256 : kUserStackTop - 4096;
  } else {
    ctx.cpl = 3;
    ctx.segs[static_cast<u8>(SegReg::kCs)] = MakeLoaded(gdt, kUserCsSel);
    ctx.segs[static_cast<u8>(SegReg::kSs)] = MakeLoaded(gdt, kUserDsSel);
    ctx.segs[static_cast<u8>(SegReg::kDs)] = MakeLoaded(gdt, kUserDsSel);
    ctx.segs[static_cast<u8>(SegReg::kEs)] = MakeLoaded(gdt, kUserDsSel);
    stack_top = ctx.regs[static_cast<u8>(Reg::kEsp)];
  }
  // Frame: [return address -> sigreturn trampoline][signo]
  u32 esp = stack_top - 8;
  u32 words[2] = {kSignalTrampolinePage, signo};
  if (!CopyToUser(proc, esp, words, sizeof(words))) {
    KillCurrent("cannot build signal frame");
    return;
  }
  ctx.regs[static_cast<u8>(Reg::kEsp)] = esp;
  ctx.eip = handler;
  cpu().RestoreContext(ctx);
}

// --- System call implementations ------------------------------------------------

void Kernel::SysExit(u32 code) {
  cur()->state = ProcessState::kExited;
  cur()->exit_code = static_cast<i32>(code);
}

void Kernel::SysWrite(u32 ptr, u32 len) {
  if (len > 1u << 20) {
    ReturnFromGate(kErrInval);
    return;
  }
  std::string buf(len, '\0');
  if (!CopyFromUser(*cur(), ptr, buf.data(), len)) {
    ReturnFromGate(kErrFault);
    return;
  }
  console_ += buf;
  ReturnFromGate(len);
}

void Kernel::SysBrk(u32 new_brk) {
  Process& proc = *cur();
  if (new_brk == 0) {
    ReturnFromGate(proc.brk);
    return;
  }
  if (new_brk < proc.heap_start || new_brk > proc.heap_start + (64u << 20)) {
    ReturnFromGate(proc.brk);
    return;
  }
  for (VmArea& a : proc.areas) {
    if (a.start == proc.heap_start && std::string(a.tag) == "heap") {
      u32 new_end = PageAlignUp(new_brk);
      // Refuse to collide with a later area.
      for (const VmArea& other : proc.areas) {
        if (&other != &a && new_end > other.start && other.start >= a.start) {
          ReturnFromGate(proc.brk);
          return;
        }
      }
      a.end = new_end;
      proc.brk = new_brk;
      ReturnFromGate(new_brk);
      return;
    }
  }
  ReturnFromGate(proc.brk);
}

void Kernel::SysMmap(u32 addr, u32 len, u32 prot) {
  Process& proc = *cur();
  if (len == 0) {
    ReturnFromGate(kErrInval);
    return;
  }
  len = PageAlignUp(len);
  if (addr == 0) {
    addr = proc.mmap_next;
    proc.mmap_next += len + kPageSize;
  }
  if (!AddArea(proc, addr, addr + len, prot, "mmap")) {
    ReturnFromGate(kErrNoMem);
    return;
  }
  // Palladium's mmap change (Section 4.5.2): pages of a writable region in
  // an SPL 2 process are marked PPL 0 — which MapUserPage already applies at
  // page-fault time, exactly as the paper describes.
  ReturnFromGate(addr);
}

bool Kernel::UnmapArea(Process& proc, u32 start, u32 end) {
  for (auto it = proc.areas.begin(); it != proc.areas.end(); ++it) {
    if (it->start == start && it->end == end) {
      PageTableEditor ed = Editor(proc.cr3);
      for (u32 a = start; a < end; a += kPageSize) {
        u32 pte = 0;
        if (ed.GetPte(a, &pte) && (pte & kPtePresent)) {
          EvictFrameEverywhere(pte & kPteFrameMask);
          frames_.Free(pte & kPteFrameMask);
          ed.Unmap(a);
        }
      }
      proc.areas.erase(it);
      return true;
    }
  }
  return false;
}

void Kernel::SysMunmap(u32 addr, u32 len) {
  Process& proc = *cur();
  const u32 start = PageAlignDown(addr);
  const u32 end = PageAlignUp(addr + len);
  ReturnFromGate(UnmapArea(proc, start, end) ? 0 : kErrInval);
}

void Kernel::SysMprotect(u32 addr, u32 len, u32 prot) {
  Process& proc = *cur();
  // The Palladium mprotect hardening is subsumed by taskSPL gating: an SPL 3
  // extension cannot reach this syscall at all in an SPL 2 process. The
  // explicit check remains for defense in depth.
  GateFrame frame;
  if (PeekGateFrame(&frame) && Selector(static_cast<u16>(frame.cs)).rpl() == 3 &&
      proc.task_spl == 2) {
    ReturnFromGate(kErrPerm);
    return;
  }
  const u32 start = PageAlignDown(addr);
  const u32 end = PageAlignUp(addr + len);
  VmArea* area = proc.FindArea(start);
  if (area == nullptr || end > area->end) {
    ReturnFromGate(kErrInval);
    return;
  }
  area->prot = prot;
  PageTableEditor ed = Editor(proc.cr3);
  for (u32 a = start; a < end; a += kPageSize) {
    u32 pte = 0;
    if (ed.GetPte(a, &pte) && (pte & kPtePresent)) {
      if (prot & kProtWrite) {
        ed.UpdateFlags(a, kPteWrite, 0);
      } else {
        ed.UpdateFlags(a, 0, kPteWrite);
      }
    }
  }
  ReturnFromGate(0);
}

void Kernel::SysSigaction(u32 signo, u32 handler) {
  if (signo >= kNumSignals) {
    ReturnFromGate(kErrInval);
    return;
  }
  cur()->signals.handlers[signo] = handler;
  ReturnFromGate(0);
}

void Kernel::SysSigreturn() {
  Process& proc = *cur();
  if (!proc.signals.in_handler) {
    ReturnFromGate(kErrInval);
    return;
  }
  proc.signals.in_handler = false;
  cpu().RestoreContext(proc.signals.saved_context);
}

void Kernel::SysFork() {
  Process& parent = *cur();
  Pid child_pid = CreateProcess();
  if (child_pid == 0) {
    ReturnFromGate(kErrNoMem);
    return;
  }
  Process& child = *process(child_pid);
  // A fork that fails leaves no half-built child behind: its frames return
  // to the allocator and its pid leaves the process table before any
  // scheduler can see it.
  auto discard_child = [&] {
    ReleaseAddressSpace(child);
    frames_.Free(child.kernel_stack_frame);
    frames_.Free(child.cr3);
    processes_.erase(child_pid);
  };
  // Clone the memory map eagerly (no COW in the prototype kernel).
  child.areas = parent.areas;
  child.brk = parent.brk;
  child.heap_start = parent.heap_start;
  child.mmap_next = parent.mmap_next;
  child.xmalloc_brk = parent.xmalloc_brk;
  child.pl2_stack_top = parent.pl2_stack_top;
  // Palladium: segment/page privilege levels are inherited across fork
  // (Section 4.5.2) — that includes taskSPL, the PPL policy, and the PPL
  // bits in every copied PTE.
  child.task_spl = parent.task_spl;
  child.ppl_policy = parent.ppl_policy;
  child.ppl1_pages = parent.ppl1_pages;
  child.signals.handlers = parent.signals.handlers;

  PhysicalMemory& pm = machine_.pm();
  PageTableEditor ped(pm, parent.cr3);  // read-only walks, no hook needed
  PageTableEditor ced = Editor(child.cr3);
  u32 copied_pages = 0;
  for (const VmArea& area : parent.areas) {
    for (u32 a = area.start; a < area.end; a += kPageSize) {
      u32 pte = 0;
      if (!ped.GetPte(a, &pte) || !(pte & kPtePresent)) continue;
      const u32 frame = frames_.Alloc();
      if (frame == 0 ||
          !ced.Map(a, frame, pte & kPteFlagsMask, [this] { return frames_.Alloc(); })) {
        if (frame != 0) frames_.Free(frame);  // its page table did not fit
        discard_child();
        ReturnFromGate(kErrNoMem);
        return;
      }
      u8 buf[kPageSize];
      pm.ReadBlock(pte & kPteFrameMask, buf, kPageSize);
      pm.WriteBlock(frame, buf, kPageSize);
      ++copied_pages;
    }
  }
  Charge(config_.costs.fork_base + copied_pages * 100);

  // The child resumes at the syscall return point with EAX = 0.
  GateFrame frame;
  if (!PeekGateFrame(&frame) || !frame.has_outer_stack) {
    discard_child();
    KillCurrent("fork: unreadable gate frame");
    return;
  }
  CpuContext ctx = cpu().SaveContext();
  ctx.regs[static_cast<u8>(Reg::kEax)] = 0;
  ctx.regs[static_cast<u8>(Reg::kEsp)] = frame.esp;
  ctx.eip = frame.eip;
  ctx.eflags = frame.eflags;
  const DescriptorTable& gdt = machine_.gdt();
  Selector cs_sel(static_cast<u16>(frame.cs));
  Selector ss_sel(static_cast<u16>(frame.ss));
  ctx.cpl = cs_sel.rpl();
  ctx.segs[static_cast<u8>(SegReg::kCs)] = MakeLoaded(gdt, cs_sel);
  ctx.segs[static_cast<u8>(SegReg::kSs)] = MakeLoaded(gdt, ss_sel);
  // DS/ES as currently loaded in the parent.
  child.context = ctx;
  // The child joins the forking vCPU's ready queue, stamped with the clock
  // after fork's copy cost: it cannot start, on this core or a sibling that
  // steals it, before the fork that created it.
  if (sched_ != nullptr) sched_->AddProcess(child_pid, machine_.current_cpu_index());

  ReturnFromGate(child_pid);
}

void Kernel::SysInitPL() {
  Process& proc = *cur();
  if (proc.task_spl != 3) {
    ReturnFromGate(kErrPerm);
    return;
  }
  GateFrame frame;
  if (!PeekGateFrame(&frame) || !frame.has_outer_stack) {
    KillCurrent("init_PL: unreadable gate frame");
    return;
  }
  proc.task_spl = 2;
  proc.ppl_policy = true;

  // Mark every already-mapped writable page PPL 0 (Section 4.4.1) and count
  // the work for the cycle model.
  PageTableEditor ed = Editor(proc.cr3);
  u32 marked = 0;
  for (const VmArea& area : proc.areas) {
    if (!(area.prot & kProtWrite) || area.shared_ppl1) continue;
    for (u32 a = area.start; a < area.end; a += kPageSize) {
      u32 pte = 0;
      if (ed.GetPte(a, &pte) && (pte & kPtePresent)) {
        ed.UpdateFlags(a, 0, kPteUser);
        ++marked;
      }
    }
  }
  cpu().tlb().Flush();
  Charge(config_.costs.ppl_mark_startup + marked * config_.costs.ppl_mark_per_page);

  // Allocate the PL 2 transition stack (the TSS inner stack for lcalls from
  // SPL 3 into the application).
  u32 base = proc.mmap_next;
  proc.mmap_next += 4 * kPageSize;
  if (!AddArea(proc, base, base + 2 * kPageSize, kProtRead | kProtWrite, "pl2-stack") ||
      !PopulateRange(proc, base, base + 2 * kPageSize)) {
    KillCurrent("init_PL: cannot allocate PL2 stack");
    return;
  }
  proc.pl2_stack_top = base + 2 * kPageSize;
  cpu().tss().esp[2] = proc.pl2_stack_top;
  cpu().tss().ss[2] = kAppDsSel.raw();

  // Return the caller at SPL 2: rewrite the frame's CS (DPL 2 code) and SS
  // (SS DPL must equal CPL). DS/ES keep the DPL 3 user data segment — legal
  // at CPL 2 (DPL >= CPL) and what lets extensions inherit a usable DS.
  if (!PatchGateFrameSelectors(kAppCsSel, kAppDsSel)) {
    KillCurrent("init_PL: cannot patch gate frame");
    return;
  }
  ReturnFromGate(0);
}

void Kernel::SysSetRange(u32 addr, u32 len, u32 ppl) {
  Process& proc = *cur();
  if (proc.task_spl != 2) {
    ReturnFromGate(kErrPerm);
    return;
  }
  if ((addr & kPageMask) != 0 || len == 0 || (len & kPageMask) != 0 || ppl > 1) {
    // Sharing granularity is whole pages (Section 4.4.1).
    ReturnFromGate(kErrInval);
    return;
  }
  u32 marked = 0;
  for (u32 a = addr; a < addr + len; a += kPageSize) {
    if (proc.FindArea(a) == nullptr) {
      ReturnFromGate(kErrFault);
      return;
    }
    if (ppl == 1) {
      proc.ppl1_pages.insert(PageNumber(a));
    } else {
      proc.ppl1_pages.erase(PageNumber(a));
    }
    u32 pte = 0;
    PageTableEditor ed(machine_.pm(), proc.cr3);
    if (ed.GetPte(a, &pte) && (pte & kPtePresent)) {
      SetPageUserBit(proc, a, ppl == 1);
    }
    ++marked;
  }
  Charge(config_.costs.ppl_mark_startup + marked * config_.costs.ppl_mark_per_page);
  ReturnFromGate(0);
}

void Kernel::SysSetCallGate(u32 function) {
  Process& proc = *cur();
  if (proc.task_spl != 2) {
    ReturnFromGate(kErrPerm);
    return;
  }
  u16 slot = gdt().AllocateSlot(kGdtFirstDynamic);
  gdt().Set(slot, SegmentDescriptor::MakeCallGate(kAppCsSel.raw(), function, /*dpl=*/3));
  ReturnFromGate(Selector::FromIndex(slot, 3).raw());
}

}  // namespace palladium
