#include "src/core/kernel_ext.h"

#include "src/asm/assembler.h"
#include "src/core/trampoline.h"
#include "src/hw/paging.h"
#include "src/obs/trace.h"

namespace palladium {

KernelExtensionManager::KernelExtensionManager(Kernel& kernel) : kernel_(kernel) {
  // Idle kernel stack for invocations made outside any process context (the
  // paper: such extensions execute in the stack of the idle process).
  u32 frame = kernel_.frames().Alloc();
  idle_stack_top_ = frame + kPageSize;  // kernel-segment offset == phys

  // INT 0x81 — the kernel-service dispatcher.
  kernel_.RegisterHostCall(kHostEntryKernelService,
                           [this](Kernel&) { HandleKernelService(); });
  // kSysInvokeKext: user processes trigger extension services through the
  // kernel (Figure 4, steps 4-5-9).
  kernel_.SetKextInvoker([this](Kernel&, u32 function_id, u32 arg, bool* ok) {
    InvokeResult r = Invoke(function_id, arg);
    *ok = r.ok;
    return r.value;
  });

  // Pre-registered core kernel services.
  RegisterService(kKsvcPrintk, [this](Kernel& k, u32 ptr, u32 len, u32) -> u32 {
    // `ptr` is segment-relative within the *current* extension segment; the
    // dispatcher stores it in service_ext_ before calling us.
    const ExtensionState* ext = extension(service_ext_);
    if (ext == nullptr || len > 4096 || ptr + len > ext->span) return kErrFault;
    std::string buf(len, '\0');
    if (!k.ReadKernelVirt(ext->linear_base + ptr, buf.data(), len)) return kErrFault;
    printk_output_ += buf;
    return len;
  });
  RegisterService(kKsvcGetCycles, [](Kernel& k, u32, u32, u32) -> u32 {
    return static_cast<u32>(k.cpu().cycles());
  });
  RegisterService(kKsvcPktOutput, [this](Kernel&, u32, u32, u32) -> u32 {
    ++packets_output_;
    return 0;
  });
}

std::optional<u32> KernelExtensionManager::LoadExtension(const std::string& name,
                                                         const ObjectFile& obj,
                                                         std::string* diag,
                                                         const KextOptions& options) {
  const bool fresh = options.into_segment == 0;
  u32 ext_id = options.into_segment;
  if (fresh) {
    // Reuse a region that a released segment returned before bumping, so
    // repeated load/unload cycles reuse addresses instead of exhausting the
    // kext region — and so stale-translation bugs at a reused base would show.
    u32 region_offset = next_region_offset_;
    if (!free_regions_.empty()) {
      region_offset = free_regions_.front();
      free_regions_.erase(free_regions_.begin());
    } else if (next_region_offset_ + kSegmentSpan > kKextRegionSpan) {
      if (diag != nullptr) *diag = "kernel extension region exhausted";
      return std::nullopt;
    } else {
      next_region_offset_ += kSegmentSpan;
    }
    // Registered before anything is mapped, so ReleaseSegment undoes every
    // step below.
    ext_id = next_ext_id_++;
    ExtensionState& st = extensions_[ext_id];
    st.name = name;
    st.linear_base = kKextRegionBase + region_offset;
    st.span = kSegmentSpan;
    st.cycle_limit = options.cycle_limit;
    // Stack at the top of the segment; stubs right below it.
    st.stack_top = st.span;
    st.stub_bump = st.span - kStackBytes - kPageSize;

    // GDT: one code and one data descriptor, both DPL 1, confined to the
    // segment (Figure 3).
    u16 cs_slot = kernel_.gdt().AllocateSlot(kGdtFirstDynamic);
    kernel_.gdt().Set(cs_slot, SegmentDescriptor::MakeCode(st.linear_base, st.span, kSpl1));
    u16 ds_slot = kernel_.gdt().AllocateSlot(kGdtFirstDynamic);
    kernel_.gdt().Set(ds_slot, SegmentDescriptor::MakeData(st.linear_base, st.span, kSpl1));
    st.code_selector = Selector::FromIndex(cs_slot, 1).raw();
    st.data_selector = Selector::FromIndex(ds_slot, 1).raw();
  } else if (extensions_.count(ext_id) == 0) {
    if (diag != nullptr) *diag = "no such extension segment";
    return std::nullopt;
  }
  // Modules sharing a segment share its stack and can link against each
  // other's symbols (Section 4.3).
  ExtensionState& seg = extensions_.at(ext_id);
  // Every failure from here on releases a fresh segment; a shared one stays
  // as it was.
  const auto fail = [&](const std::string& why) -> std::optional<u32> {
    if (diag != nullptr) *diag = why;
    if (fresh) ReleaseSegment(ext_id);
    return std::nullopt;
  };

  // Map the whole fresh segment in kernel space (present supervisor pages;
  // the confinement is purely segment-level, as in the paper).
  for (u32 off = 0; fresh && off < seg.span; off += kPageSize) {
    if (kernel_.MapKernelPage(seg.linear_base + off) == 0) {
      return fail("out of frames for extension segment");
    }
  }

  // Link the module segment-relative at the segment's bump pointer; imports
  // resolve against modules already in this segment.
  LinkError lerr;
  auto img = LinkImage(obj, seg.link_bump, seg.symbols, &lerr);
  if (!img) return fail("link: " + lerr.message);
  // Every global text symbol becomes an extension service entry point with
  // its own transfer stub.
  const auto is_entry = [&img](const Symbol& sym) {
    return sym.defined && sym.global && sym.section == SectionId::kText &&
           img->Lookup(sym.name).has_value();
  };
  u32 stubs = 0;
  for (const Symbol& sym : obj.symbols) stubs += is_entry(sym) ? 1 : 0;
  // The segment's fixed layout: modules from offset 0 up to the stub page,
  // stubs from there up to the stack floor, the stack at the top. Both
  // bounds are checked before anything is written.
  const u32 stack_floor = seg.span - kStackBytes;
  const u32 stub_base = stack_floor - kPageSize;
  if (u64{seg.link_bump} + img->TotalSpan() > stub_base ||
      u64{seg.stub_bump} + u64{stubs} * kStubBytes > stack_floor) {
    return fail("module does not fit in extension segment");
  }
  if (!kernel_.WriteKernelVirt(seg.linear_base + seg.link_bump + (img->text_start - img->base),
                               img->bytes.data(), static_cast<u32>(img->bytes.size()))) {
    return fail("cannot write extension segment");
  }
  seg.link_bump = PageAlignUp(seg.link_bump + img->TotalSpan());

  // Register every global text symbol of this module as an extension service
  // entry point (the module's registration step in Section 4.3).
  for (const Symbol& sym : obj.symbols) {
    if (!sym.defined) continue;
    auto addr = img->Lookup(sym.name);
    if (!addr) continue;
    seg.symbols[sym.name] = *addr;
    if (sym.name == "pd_shared") seg.shared_offset = *addr;
    if (!is_entry(sym)) continue;
    // Transfer stub: call f ; lcall kernel-return-gate.
    std::string stub_diag;
    auto stub = AssembleAndLink(KextTransferStubSource(*addr, kKernelReturnGateSel.raw()),
                                seg.stub_bump, {}, &stub_diag);
    if (!stub || !kernel_.WriteKernelVirt(seg.linear_base + seg.stub_bump,
                                          stub->bytes.data(),
                                          static_cast<u32>(stub->bytes.size()))) {
      return fail("cannot emit transfer stub: " + stub_diag);
    }
    FunctionEntry entry;
    entry.ext_id = ext_id;
    entry.name = seg.name + ":" + sym.name;
    entry.transfer_offset = seg.stub_bump;
    eft_.push_back(std::move(entry));
    seg.stub_bump += kStubBytes;
  }
  ++loads_;
  return ext_id;
}

void KernelExtensionManager::UnloadExtension(u32 ext_id) {
  if (extensions_.count(ext_id) == 0) return;
  ReleaseSegment(ext_id);
  ++unloads_;
}

void KernelExtensionManager::ReleaseSegment(u32 ext_id) {
  auto it = extensions_.find(ext_id);
  ExtensionState& ext = it->second;
  kernel_.gdt().Clear(Selector(ext.code_selector).index());
  kernel_.gdt().Clear(Selector(ext.data_selector).index());
  // Tombstone (never erase) this extension's EFT entries: function ids are
  // indices held by live callers (e.g. dataplane flows), so erasing entries
  // would silently rebind every later id to the wrong function.
  for (FunctionEntry& e : eft_) {
    if (e.ext_id == ext_id) {
      e.ext_id = 0;
      e.name.clear();
      e.transfer_offset = 0;
    }
  }
  // Queued async requests against the dead extension must not run.
  for (auto qit = async_queue_.begin(); qit != async_queue_.end();) {
    if (eft_[qit->first].ext_id == 0) {
      qit = async_queue_.erase(qit);
    } else {
      ++qit;
    }
  }
  // Unmap and free every page of the segment (a page a failed load never
  // mapped is skipped). UnmapKernelPage evicts each frame from every vCPU's
  // decode cache (and trace tier) and the kernel-range PTE shootdown flushes
  // all TLBs, so no stale translation of the dead image survives a reload at
  // the same linear base.
  for (u32 off = 0; off < ext.span; off += kPageSize) {
    kernel_.UnmapKernelPage(ext.linear_base + off);
  }
  // Return the region for reuse by the next LoadExtension.
  free_regions_.push_back(ext.linear_base - kKextRegionBase);
  extensions_.erase(it);
}

std::optional<u32> KernelExtensionManager::FindFunction(const std::string& name) const {
  std::optional<u32> match;
  for (u32 i = 0; i < eft_.size(); ++i) {
    const FunctionEntry& e = eft_[i];
    if (e.ext_id == 0) continue;  // tombstone of an unloaded extension
    if (e.name == name) return i;
    // Suffix match on ":<fn>" for the unqualified form.
    if (e.name.size() > name.size() &&
        e.name.compare(e.name.size() - name.size() - 1, name.size() + 1, ":" + name) == 0) {
      if (match) return std::nullopt;  // ambiguous
      match = i;
    }
  }
  return match;
}

const KernelExtensionManager::ExtensionState* KernelExtensionManager::extension(
    u32 ext_id) const {
  auto it = extensions_.find(ext_id);
  return it == extensions_.end() ? nullptr : &it->second;
}

KernelExtensionManager::InvokeResult KernelExtensionManager::Abort(ExtensionState& ext,
                                                                   const std::string& reason,
                                                                   u32 charge) {
  // The paper: ~1,020 cycles of exception processing, then the kernel aborts
  // the offending extension without further cleanup.
  kernel_.Charge(charge);
  ext.aborted = true;
  ++aborts_;
  InvokeResult r;
  r.ok = false;
  r.error = reason;
  return r;
}

KernelExtensionManager::InvokeResult KernelExtensionManager::Invoke(u32 function_id, u32 arg) {
  InvokeResult result;
  if (function_id >= eft_.size() || eft_[function_id].ext_id == 0) {
    result.error = "no such extension function";
    return result;
  }
  const FunctionEntry& fn = eft_[function_id];
  ExtensionState& ext = extensions_.at(fn.ext_id);
  if (ext.aborted) {
    result.error = "extension was aborted";
    return result;
  }
  ++invocations_;

  Cpu& cpu = kernel_.cpu();
  const CpuContext saved = cpu.SaveContext();
  const u32 saved_cr3 = cpu.cr3();
  Tss saved_tss = cpu.tss();
  const u64 start_cycles = cpu.cycles();

  // Observability: the whole invocation is crossing overhead except the spans
  // the extension itself retires (kFilterBody, set around each inner Run).
  const u32 obs_cpu = kernel_.machine().current_cpu_index();
  const obs::Category prev_cat = kernel_.ProfileSet(obs::Category::kCrossing);
  obs::FlightRecorder* rec = kernel_.recorder();
  if (rec != nullptr) {
    rec->Record(obs_cpu, cpu.cycles(), obs::EventType::kCrossingEnter,
                obs::EventClass::kArch, function_id, arg);
  }

  // Ensure a kernel-capable address space and a safe inner PL0 stack for the
  // return gate (nested entries must not trample an in-progress syscall
  // frame on the per-process kernel stack).
  if (saved_cr3 == 0) cpu.LoadCr3(kernel_.kernel_cr3());
  cpu.tss().ss[0] = kKernelDsSel.raw();
  if (cpu.cpl() == 0 && cpu.seg(SegReg::kSs).valid) {
    cpu.tss().esp[0] = cpu.reg(Reg::kEsp) - 64;
  } else if (kernel_.current() != nullptr) {
    cpu.tss().esp[0] = kernel_.current()->esp0 - 256;
  } else {
    cpu.tss().esp[0] = idle_stack_top_;
  }

  // Kernel-side Prepare: enter the extension segment at SPL 1 with the
  // argument on the extension stack (Figure 4, step 5).
  cpu.ForceSegment(SegReg::kCs, Selector(ext.code_selector));
  cpu.ForceSegment(SegReg::kSs, Selector(ext.data_selector));
  cpu.ForceSegment(SegReg::kDs, Selector(ext.data_selector));
  cpu.ForceSegment(SegReg::kEs, Selector(ext.data_selector));
  cpu.set_cpl(kSpl1);
  // Extensions run with interrupts open (when the machine has a live timer):
  // a runaway extension is detected and killed *asynchronously* by the timer
  // watchdog — the paper's safe-termination claim — instead of by the
  // cooperative run-loop deadline below.
  if (kernel_.interrupts_enabled()) cpu.set_eflags(cpu.eflags() | kFlagIf);
  cpu.set_reg(Reg::kEsp, ext.stack_top - 4);
  u32 arg_le = arg;
  kernel_.WriteKernelVirt(ext.linear_base + ext.stack_top - 4, &arg_le, 4);
  cpu.set_eip(eft_[function_id].transfer_offset);
  // Model the kernel-side sequence that stages the call (mirrors Prepare).
  kernel_.Charge(26);

  // Cooperative deadline: the exact limit when the timer cannot interrupt,
  // a generous backstop (timer granularity is the real detector) otherwise.
  const u64 deadline = cpu.cycles() + (kernel_.interrupts_enabled() ? ext.cycle_limit * 16
                                                                    : ext.cycle_limit);
  // Run until the extension returns through the kernel return gate (an
  // empty abort reason) or must be aborted.
  std::string abort_reason;
  for (;;) {
    kernel_.ProfileSet(obs::Category::kFilterBody);
    const StopInfo stop = cpu.Run(deadline);
    kernel_.ProfileSet(obs::Category::kCrossing);
    if (stop.reason == StopReason::kHostCall) {
      const u32 id = stop.host_call_id;
      if (id >= kHostEntryIrqBase && id < kHostEntryIrqBase + kNumIrqVectors) {
        const u32 irq = id - kHostEntryIrqBase;
        // Kernel context is not preemptible: service the device, then
        // apply the extension watchdog on the timer line.
        kernel_.HandleIrqFromGate(irq, /*in_kernel_context=*/true);
        if (irq == kIrqTimer && cpu.cycles() - start_cycles > ext.cycle_limit) {
          abort_reason = "extension exceeded its CPU-time limit (timer watchdog)";
          break;
        }
        continue;
      }
      if (id == kHostEntryKernelService) {
        service_ext_ = fn.ext_id;
        HandleKernelService();
        continue;
      }
      if (id == kHostEntryKextReturn) break;
      // Kernel extensions cannot make arbitrary system calls (Section 4.1):
      // treat one as a protection violation and abort.
      abort_reason = id == kHostEntrySyscall ? "extension attempted a system call"
                                             : "extension reached an unknown kernel entry";
    } else if (stop.reason == StopReason::kFault) {
      abort_reason = "extension fault: " + FaultToString(stop.fault);
    } else if (stop.reason == StopReason::kCycleLimit) {
      abort_reason = "extension exceeded its CPU-time limit";
    } else {
      abort_reason = "extension executed hlt";
    }
    break;
  }

  if (abort_reason.empty()) {
    result.ok = true;
    result.value = cpu.reg(Reg::kEax);
  } else {
    result = Abort(ext, abort_reason, kernel_.costs().kext_gp_processing);
  }
  result.cycles = cpu.cycles() - start_cycles;
  invoke_cycles_ += result.cycles;
  cpu.RestoreContext(saved);
  if (saved_cr3 != cpu.cr3() && saved_cr3 != 0) cpu.LoadCr3(saved_cr3);
  cpu.tss() = saved_tss;
  if (rec != nullptr) {
    rec->Record(obs_cpu, cpu.cycles(), obs::EventType::kCrossingExit, obs::EventClass::kArch,
                function_id, result.ok ? 1u : 0u);
  }
  kernel_.ProfileRestore(prev_cat);
  return result;
}

void KernelExtensionManager::HandleKernelService() {
  Cpu& cpu = kernel_.cpu();
  const u32 nr = cpu.reg(Reg::kEax);
  const u32 ebx = cpu.reg(Reg::kEbx);
  const u32 ecx = cpu.reg(Reg::kEcx);
  const u32 edx = cpu.reg(Reg::kEdx);
  u32 result = kErrNoEnt;
  auto it = services_.find(nr);
  if (it != services_.end()) result = it->second(kernel_, ebx, ecx, edx);
  kernel_.ReturnFromGate(result);
}

void KernelExtensionManager::RegisterService(u32 number, ServiceFn fn) {
  services_[number] = std::move(fn);
}

bool KernelExtensionManager::EnqueueAsync(u32 function_id, u32 arg) {
  if (function_id >= eft_.size() || eft_[function_id].ext_id == 0) return false;
  ExtensionState& ext = extensions_.at(eft_[function_id].ext_id);
  if (ext.aborted) return false;
  ext.busy = true;
  async_queue_.emplace_back(function_id, arg);
  return true;
}

u32 KernelExtensionManager::DrainAsync() {
  u32 executed = 0;
  while (!async_queue_.empty()) {
    auto [fid, arg] = async_queue_.front();
    async_queue_.pop_front();
    Invoke(fid, arg);
    ++executed;
    auto eit = extensions_.find(eft_[fid].ext_id);
    if (eit == extensions_.end()) continue;  // unloaded while draining
    bool more = false;
    for (const auto& [qfid, _] : async_queue_) {
      if (eft_[qfid].ext_id == eft_[fid].ext_id) more = true;
    }
    eit->second.busy = more;
  }
  return executed;
}

bool KernelExtensionManager::IsBusy(u32 ext_id) const {
  auto it = extensions_.find(ext_id);
  return it != extensions_.end() && it->second.busy;
}

std::optional<u32> KernelExtensionManager::SharedSpan(u32 ext_id, u32 offset, u32 len) const {
  const ExtensionState* ext = extension(ext_id);
  if (ext == nullptr || !ext->shared_offset ||
      u64{*ext->shared_offset} + offset + len > ext->span) {
    return std::nullopt;
  }
  return ext->linear_base + *ext->shared_offset + offset;
}

bool KernelExtensionManager::WriteShared(u32 ext_id, u32 offset, const void* src, u32 len) {
  const std::optional<u32> at = SharedSpan(ext_id, offset, len);
  return at && kernel_.WriteKernelVirt(*at, src, len);
}

bool KernelExtensionManager::ReadShared(u32 ext_id, u32 offset, void* dst, u32 len) {
  const std::optional<u32> at = SharedSpan(ext_id, offset, len);
  return at && kernel_.ReadKernelVirt(*at, dst, len);
}

}  // namespace palladium
