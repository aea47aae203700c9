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
  for (u32 i = 0; i < pages; ++i) {
    u32 frame = kernel_.frames().Alloc();
    if (frame == 0) {
      for (u32 f : region.frames) kernel_.frames().Free(f);
      return 0;
    }
    region.frames.push_back(frame);
    // Evict the frame from the kernel direct map: after this, *no* linear
    // address in any address space, on any vCPU, reaches it.
    PageTableEditor ed(kernel_.machine().pm(), kernel_.kernel_cr3());
    ed.Unmap(kKernelBase + frame);
    kernel_.ShootdownPage(kernel_.kernel_cr3(), kKernelBase + frame);
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
  for (u32 f : it->second.frames) {
    // Restore the direct mapping before returning the frame to the pool.
    PageTableEditor ed(kernel_.machine().pm(), kernel_.kernel_cr3());
    ed.Map(kKernelBase + f, f, kPtePresent | kPteWrite, [] { return 0u; });
    kernel_.frames().Free(f);
  }
  regions_.erase(it);
}

bool ProtectedMemoryService::Read(Handle handle, u32 offset, void* dst, u32 len) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return false;
  const Region& region = it->second;
  if (offset + len < offset || offset + len > region.frames.size() * kPageSize) return false;
  u8* out = static_cast<u8*>(dst);
  while (len > 0) {
    u32 page = offset / kPageSize, in_page = offset % kPageSize;
    u32 chunk = std::min(len, kPageSize - in_page);
    if (!kernel_.machine().pm().ReadBlock(region.frames[page] + in_page, out, chunk)) {
      return false;
    }
    offset += chunk;
    out += chunk;
    len -= chunk;
  }
  return true;
}

bool ProtectedMemoryService::Write(Handle handle, u32 offset, const void* src, u32 len) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return false;
  const Region& region = it->second;
  if (offset + len < offset || offset + len > region.frames.size() * kPageSize) return false;
  const u8* in = static_cast<const u8*>(src);
  while (len > 0) {
    u32 page = offset / kPageSize, in_page = offset % kPageSize;
    u32 chunk = std::min(len, kPageSize - in_page);
    if (!kernel_.machine().pm().WriteBlock(region.frames[page] + in_page, in, chunk)) {
      return false;
    }
    offset += chunk;
    in += chunk;
    len -= chunk;
  }
  return true;
}

std::optional<u16> ProtectedMemoryService::OpenWindow(Handle handle) {
  auto it = regions_.find(handle);
  if (it == regions_.end()) return std::nullopt;
  Region& region = it->second;
  if (region.open) return Selector::FromIndex(region.gdt_slot, 0).raw();
  PageTableEditor ed(kernel_.machine().pm(), kernel_.kernel_cr3());
  for (u32 i = 0; i < region.frames.size(); ++i) {
    if (!ed.Map(region.window_base + i * kPageSize, region.frames[i],
                kPtePresent | kPteWrite, [] { return 0u; })) {
      return std::nullopt;
    }
    kernel_.cpu().tlb().FlushPage(region.window_base + i * kPageSize);
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
  // through the closed window.
  PageTableEditor ed(kernel_.machine().pm(), kernel_.kernel_cr3());
  for (u32 i = 0; i < region.frames.size(); ++i) {
    ed.Unmap(region.window_base + i * kPageSize);
    kernel_.ShootdownPage(kernel_.kernel_cr3(), region.window_base + i * kPageSize);
  }
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
