// Protected memory service — the paper's second "on-going work" direction
// (Section 6): using the protection hardware to keep wild pointers and
// random software errors away from specific physical memory regions.
//
// Mechanism: a protected region's frames are evicted from the kernel direct
// map, so no linear address reaches them — not even from supervisor code.
// Access happens either through host-side accessors (the "protected
// procedure" interface) or through an explicitly opened *window*: the region
// is temporarily mapped at a dedicated linear range guarded by its own
// segment descriptor, and unmapped again when the window closes.
#ifndef SRC_CORE_PROTECTED_MEMORY_H_
#define SRC_CORE_PROTECTED_MEMORY_H_

#include <map>
#include <optional>
#include <vector>

#include "src/kernel/kernel.h"

namespace palladium {

class ProtectedMemoryService {
 public:
  using Handle = u32;

  explicit ProtectedMemoryService(Kernel& kernel);

  // Allocates a region of `pages` frames and removes them from every
  // address space. Returns 0 on exhaustion.
  Handle CreateRegion(u32 pages);
  void DestroyRegion(Handle handle);

  // Host-side accessors (always legal; they go straight to physical memory,
  // standing in for the service's protected procedures).
  bool Read(Handle handle, u32 offset, void* dst, u32 len);
  bool Write(Handle handle, u32 offset, const void* src, u32 len);

  // Opens an access window: maps the region at its reserved kernel linear
  // range and installs a DPL 0 data segment covering exactly the region.
  // Returns the segment selector trusted simulated code should load.
  std::optional<u16> OpenWindow(Handle handle);
  void CloseWindow(Handle handle);
  bool IsWindowOpen(Handle handle) const;

  // The linear base a region occupies while its window is open (for
  // simulated code that addresses it via the flat kernel segment).
  std::optional<u32> WindowBase(Handle handle) const;

  u32 region_pages(Handle handle) const;

 private:
  // Read and Write's body: `len` bytes at `offset` of the region's frames.
  bool Copy(Handle handle, u32 offset, void* buf, u32 len, bool to_region);

  struct Region {
    std::vector<u32> frames;
    u32 window_base = 0;   // reserved linear range (fixed per region)
    u16 gdt_slot = 0;      // segment descriptor slot while open
    bool open = false;
  };

  Kernel& kernel_;
  std::map<Handle, Region> regions_;
  Handle next_handle_ = 1;
  u32 next_window_base_;
};

}  // namespace palladium

#endif  // SRC_CORE_PROTECTED_MEMORY_H_
