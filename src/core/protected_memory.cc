#include "src/core/protected_memory.h"

#include "src/hw/paging.h"

namespace palladium {

namespace {
// Windows live above the kernel-extension region.
constexpr u32 kWindowRegionBase = 0xD8000000;
}  // namespace

ProtectedMemoryService::ProtectedMemoryService(Kernel& kernel)
    : kernel_(kernel), next_window_base_(kWindowRegionBase) {}

ProtectedMemoryService::Handle ProtectedMemoryService::CreateRegion(u32 pages) {
  if (pages == 0) return 0;
  Region region;
  region.frames.reserve(pages);
  PageTableEditor ed = kernel_.Editor(kernel_.kernel_cr3());
  for (u32 i = 0; i < pages; ++i) {
    u32 frame = kernel_.frames().Alloc();
    if (frame == 0) {
      for (u32 f : region.frames) kernel_.frames().Free(f);
      return 0;
    }
    region.frames.push_back(frame);
    // Evict the frame from the kernel direct map: after this, *no* linear
    // address in any address space, on any vCPU, reaches it.
    ed.Unmap(kKernelBase + frame);
  }
  region.window_base = next_window_base_;
  next_window_base_ += PageAlignUp(pages * kPageSize) + kPageSize;  // guard gap
  Handle handle = next_handle_++;
  regions_[handle] = std::move(region);
  return handle;
}

void ProtectedMemoryService::DestroyRegion(Handle handle) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return;
  CloseWindow(handle);
  PageTableEditor ed = kernel_.Editor(kernel_.kernel_cr3());
  for (u32 f : it->second.frames) {
    // Restore the direct mapping before returning the frame to the pool.
    ed.Map(kKernelBase + f, f, kPtePresent | kPteWrite, [] { return 0u; });
    kernel_.frames().Free(f);
  }
  regions_.erase(it);
}

bool ProtectedMemoryService::Read(Handle handle, u32 offset, void* dst, u32 len) {
  return Copy(handle, offset, dst, len, /*to_region=*/false);
}

bool ProtectedMemoryService::Write(Handle handle, u32 offset, const void* src, u32 len) {
  return Copy(handle, offset, const_cast<void*>(src), len, /*to_region=*/true);
}

bool ProtectedMemoryService::Copy(Handle handle, u32 offset, void* buf, u32 len, bool to_region) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return false;
  const Region& region = it->second;
  if (offset + len < offset || offset + len > region.frames.size() * kPageSize) return false;
  PhysicalMemory& pm = kernel_.machine().pm();
  u8* p = static_cast<u8*>(buf);
  while (len > 0) {
    const u32 in_page = offset % kPageSize;
    const u32 chunk = std::min(len, kPageSize - in_page);
    const u32 phys = region.frames[offset / kPageSize] + in_page;
    if (!(to_region ? pm.WriteBlock(phys, p, chunk) : pm.ReadBlock(phys, p, chunk))) return false;
    offset += chunk;
    p += chunk;
    len -= chunk;
  }
  return true;
}

std::optional<u16> ProtectedMemoryService::OpenWindow(Handle handle) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return std::nullopt;
  Region& region = it->second;
  if (region.open) return Selector::FromIndex(region.gdt_slot, 0).raw();
  PageTableEditor ed = kernel_.Editor(kernel_.kernel_cr3());
  for (u32 i = 0; i < region.frames.size(); ++i) {
    if (!ed.Map(region.window_base + i * kPageSize, region.frames[i],
                kPtePresent | kPteWrite, [] { return 0u; })) {
      return std::nullopt;
    }
  }
  // A segment covering exactly the window: trusted code may load it and gets
  // limit-checked access; everything else still has no mapping to the frames
  // except through this window range.
  region.gdt_slot = kernel_.gdt().AllocateSlot(kGdtFirstDynamic);
  kernel_.gdt().Set(region.gdt_slot,
                    SegmentDescriptor::MakeData(
                        region.window_base,
                        static_cast<u32>(region.frames.size()) * kPageSize, /*dpl=*/0));
  region.open = true;
  return Selector::FromIndex(region.gdt_slot, 0).raw();
}

void ProtectedMemoryService::CloseWindow(Handle handle) {
  auto it = regions_.find(handle);
  if (it == regions_.end() || !it->second.open) return;
  Region& region = it->second;
  // Unmapping must reach every vCPU's TLB, or a sibling keeps writing
  // through the closed window: the editor shoots each page down.
  PageTableEditor ed = kernel_.Editor(kernel_.kernel_cr3());
  for (u32 i = 0; i < region.frames.size(); ++i) ed.Unmap(region.window_base + i * kPageSize);
  kernel_.gdt().Clear(region.gdt_slot);
  region.open = false;
}

bool ProtectedMemoryService::IsWindowOpen(Handle handle) const {
  auto it = regions_.find(handle);
  return it != regions_.end() && it->second.open;
}

std::optional<u32> ProtectedMemoryService::WindowBase(Handle handle) const {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return std::nullopt;
  return it->second.window_base;
}

u32 ProtectedMemoryService::region_pages(Handle handle) const {
  auto it = regions_.find(handle);
  return it == regions_.end() ? 0 : static_cast<u32>(it->second.frames.size());
}

}  // namespace palladium
