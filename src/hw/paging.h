// Two-level page tables with IA-32 semantics: the page-level half of the
// paper's protection hardware. The PTE U/S bit is the paper's "PPL" (PPL 0 ==
// supervisor page, PPL 1 == user page): code at SPL 3 cannot touch PPL 0.
#ifndef SRC_HW_PAGING_H_
#define SRC_HW_PAGING_H_

#include <functional>
#include <utility>

#include "src/hw/fault.h"
#include "src/hw/physical_memory.h"
#include "src/hw/types.h"

namespace palladium {

// PTE/PDE flag bits (IA-32 layout).
inline constexpr u32 kPtePresent = 1u << 0;
inline constexpr u32 kPteWrite = 1u << 1;
inline constexpr u32 kPteUser = 1u << 2;  // 1 => PPL 1 (user), 0 => PPL 0 (supervisor)
inline constexpr u32 kPteAccessed = 1u << 5;
inline constexpr u32 kPteDirty = 1u << 6;
inline constexpr u32 kPteFlagsMask = kPageMask;
inline constexpr u32 kPteFrameMask = ~kPageMask;

inline constexpr u32 MakePte(u32 frame_addr, u32 flags) {
  return (frame_addr & kPteFrameMask) | (flags & kPteFlagsMask);
}

inline constexpr u32 PdeIndex(u32 linear) { return linear >> 22; }
inline constexpr u32 PteIndex(u32 linear) { return (linear >> 12) & 0x3FF; }

struct WalkResult {
  bool ok = false;
  u32 frame = 0;      // physical base of the 4 KB frame
  u32 flags = 0;      // effective PTE flags (W and U anded with the PDE's)
  u32 accesses = 0;   // physical memory touches performed by the walk
  Fault fault;        // valid when !ok
};

// Walks the two-level table rooted at `cr3`. `is_write` / `is_user` describe
// the access being translated; `is_user` is true only for CPL 3, matching the
// hardware rule that SPL 0–2 code accesses pages as supervisor. `is_fetch`
// marks instruction fetches so the fault's I/D bit is reported faithfully.
WalkResult WalkPageTable(const PhysicalMemory& pm, u32 cr3, u32 linear, bool is_write,
                         bool is_user, bool is_fetch = false);

// Sets the Accessed/Dirty bits the way the MMU would. Returns false if the
// mapping vanished (caller bug).
bool SetAccessedDirty(PhysicalMemory& pm, u32 cr3, u32 linear, bool dirty);

// Host-side page-table editing helpers used by the kernel model. These are
// "kernel software", not hardware, and charge no cycles themselves.
//
// An editor can carry an invalidation hook that fires with the linear
// address of every PTE it writes — the kernel wires it to the CPU's INVLPG
// analogue (Tlb::FlushPage), so no PTE edit can leave a stale entry in
// either the data TLB or the instruction-fetch fast path. The one exception
// is a Map over a not-present PTE, which fires nothing: no TLB caches a
// not-present entry (a TLB fill, and the fetch pin, follow only a
// successful walk).
class PageTableEditor {
 public:
  using InvalidateFn = std::function<void(u32 linear)>;

  PageTableEditor(PhysicalMemory& pm, u32 cr3, InvalidateFn invalidate = nullptr)
      : pm_(pm), cr3_(cr3), invalidate_(std::move(invalidate)) {}

  // Reads the raw PTE for `linear`; returns false if no page table is present.
  bool GetPte(u32 linear, u32* out) const;

  // Writes the raw PTE for `linear`; the page table itself must exist.
  bool SetPte(u32 linear, u32 pte);

  // Maps `linear` -> `frame` with `flags`, allocating the page table from
  // `alloc_frame` (a callback returning a zeroed frame address, 0 on OOM).
  // Invalidates only when it replaces a present PTE.
  template <typename FrameAlloc>
  bool Map(u32 linear, u32 frame, u32 flags, FrameAlloc&& alloc_frame) {
    u32 pde;
    if (!pm_.Read32(cr3_ + PdeIndex(linear) * 4, &pde)) return false;
    if (!(pde & kPtePresent)) {
      u32 table = alloc_frame();
      if (table == 0) return false;
      pde = MakePte(table, kPtePresent | kPteWrite | kPteUser);
      if (!pm_.Write32(cr3_ + PdeIndex(linear) * 4, pde)) return false;
    }
    const u32 pte_addr = (pde & kPteFrameMask) + PteIndex(linear) * 4;
    u32 old_pte = 0;
    if (!pm_.Read32(pte_addr, &old_pte) || !pm_.Write32(pte_addr, MakePte(frame, flags))) {
      return false;
    }
    if (old_pte & kPtePresent) Invalidate(linear);
    return true;
  }

  bool Unmap(u32 linear);

  // Sets or clears PTE flag bits on an existing present mapping.
  bool UpdateFlags(u32 linear, u32 set_bits, u32 clear_bits);

 private:
  void Invalidate(u32 linear) {
    if (invalidate_) invalidate_(linear);
  }

  PhysicalMemory& pm_;
  u32 cr3_;
  InvalidateFn invalidate_;
};

}  // namespace palladium

#endif  // SRC_HW_PAGING_H_
