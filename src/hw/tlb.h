// A small direct-mapped TLB. Flushed on CR3 load, exactly like the hardware
// the paper describes ("automatically flushed on task switch").
//
// Entries are validated against a flush generation instead of a per-entry
// valid bit, so Flush() is O(1): it bumps the generation and every stale
// entry misses on its next lookup. A separate change counter ticks on every
// Flush *and* FlushPage; the CPU's one-entry fetch TLB revalidates against
// it, which makes all the kernel's invalidation hooks (CR3 switch, PTE edit,
// INVLPG analogue) propagate to the instruction fast path for free.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <array>

#include "src/hw/types.h"

namespace palladium {

class Tlb {
 public:
  static constexpr u32 kEntries = 64;
  // Insert's "nothing evicted" sentinel (no valid vpn is ~0: that linear
  // range would sit beyond the 32-bit address space).
  static constexpr u32 kNoVpn = ~0u;

  struct Entry {
    u64 gen = 0;    // valid iff gen == current flush generation (gen 0 = never)
    u32 vpn = 0;    // virtual page number
    u32 frame = 0;  // physical frame base
    u32 flags = 0;  // effective PTE flags
  };

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 flushes = 0;
  };

  bool Lookup(u32 linear, u32* frame, u32* flags) {
    const u32 vpn = PageNumber(linear);
    Entry& e = entries_[vpn % kEntries];
    if (e.gen == gen_ && e.vpn == vpn) {
      ++stats_.hits;
      *frame = e.frame;
      *flags = e.flags;
      return true;
    }
    ++stats_.misses;
    return false;
  }

  // Returns the vpn of a *live* entry this insert displaced (kNoVpn
  // otherwise), so caches validated against TLB residency — the CPU's D-TLB —
  // can drop the victim and keep "D-TLB hit implies TLB hit" exact.
  u32 Insert(u32 linear, u32 frame, u32 flags) {
    const u32 vpn = PageNumber(linear);
    Entry& e = entries_[vpn % kEntries];
    const u32 evicted = (e.gen == gen_ && e.vpn != vpn) ? e.vpn : kNoVpn;
    e = Entry{gen_, vpn, frame, flags};
    return evicted;
  }

  // Sets extra flag bits on a live entry (the MMU's dirty-bit bookkeeping:
  // the first TLB-hit write marks the cached translation known-dirty).
  void OrFlags(u32 linear, u32 bits) {
    const u32 vpn = PageNumber(linear);
    Entry& e = entries_[vpn % kEntries];
    if (e.gen == gen_ && e.vpn == vpn) e.flags |= bits;
  }

  // Stat credit for lookups the D-TLB fast path answered. A D-TLB hit is by
  // construction a set of would-be TLB hits (one per byte of the access), so
  // hit-rate consumers keep seeing the same numbers with the fast path on.
  void RecordFastPathHits(u64 n) { stats_.hits += n; }

  // O(1): stale entries are recognised by their generation tag.
  void Flush() {
    ++gen_;
    ++change_count_;
    ++stats_.flushes;
  }

  // INVLPG analogue, used by the kernel model after PTE edits.
  void FlushPage(u32 linear) {
    const u32 vpn = PageNumber(linear);
    Entry& e = entries_[vpn % kEntries];
    if (e.gen == gen_ && e.vpn == vpn) e.gen = 0;
    ++change_count_;
  }

  // Monotonic counter covering every invalidation event (full flushes and
  // single-page flushes alike). Consumers caching translations outside the
  // TLB compare it to detect that their copy may be stale.
  u64 change_count() const { return change_count_; }

  const Stats& stats() const { return stats_; }

 private:
  std::array<Entry, kEntries> entries_{};
  u64 gen_ = 1;  // starts above the entries' default tag of 0
  u64 change_count_ = 0;
  Stats stats_;
};

}  // namespace palladium

#endif  // SRC_HW_TLB_H_
