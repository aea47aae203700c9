// A small direct-mapped TLB. Flushed on CR3 load, exactly like the hardware
// the paper describes ("automatically flushed on task switch").
//
// Entries are validated against a flush generation instead of a per-entry
// valid bit, so Flush() is O(1): it bumps the generation and every stale
// entry misses on its next lookup. A separate change counter ticks on every
// Flush *and* FlushPage; the CPU's one-entry fetch TLB revalidates against
// it, which makes all the kernel's invalidation hooks (CR3 switch, PTE edit,
// INVLPG analogue) propagate to the instruction fast path for free.
//
// Each entry also carries the host pointer of its frame, so the same entry
// is the data fast path (QEMU's softmmu keeps the host address in its TLB
// entry the same way): a load or store whose page has a live entry reads or
// writes host memory directly. Nothing else caches the translation, so a
// page flush ends exactly that page's fast path and a conflict eviction
// replaces it in place.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <array>

#include "src/hw/types.h"

namespace palladium {

class Tlb {
 public:
  static constexpr u32 kEntries = 64;
  // A generation no entry ever carries (the live one starts at 1 and only
  // counts up; flushed entries hold 0): a Probe against it always misses.
  static constexpr u64 kNoGen = ~0ull;

  struct Entry {
    u64 gen = 0;         // valid iff gen == current flush generation (gen 0 = never)
    u32 vpn = 0;         // virtual page number
    u32 frame = 0;       // physical frame base
    u32 flags = 0;       // effective PTE flags plus the A/D bits known set
    u8* host = nullptr;  // the frame's bytes; nullptr if not wholly in physical memory
  };

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 flushes = 0;
  };

  // The architectural lookup: counts one hit or one miss.
  Entry* Lookup(u32 linear) {
    Entry* e = Find(linear, gen_);
    ++(e != nullptr ? stats_.hits : stats_.misses);
    return e;
  }

  // The data fast path's lookup: the live entry for `linear`'s page if it
  // carries a host pointer and every flag bit in `need`, else nullptr.
  // Counts nothing — a caller charges the lookups a hit stands for
  // (RecordFastPathHits). `gen` stands in for generation(), so a hot loop
  // can keep it in a register, or pass kNoGen to miss every entry.
  Entry* Probe(u32 linear, u64 gen, u32 need = 0) {
    Entry* e = Find(linear, gen);
    return e != nullptr && e->host != nullptr && (e->flags & need) == need ? e : nullptr;
  }

  void Insert(u32 linear, u32 frame, u32 flags, u8* host) {
    const u32 vpn = PageNumber(linear);
    entries_[vpn % kEntries] = Entry{gen_, vpn, frame, flags, host};
  }

  // Stat credit for lookups the data fast path answered. A fast-path hit is
  // by construction a set of would-be TLB hits (one per byte of the access),
  // so hit-rate consumers keep seeing the same numbers with it on or off.
  void RecordFastPathHits(u64 n) { stats_.hits += n; }

  // O(1): stale entries are recognised by their generation tag.
  void Flush() {
    ++gen_;
    ++change_count_;
    ++stats_.flushes;
  }

  // INVLPG analogue, used by the kernel model after PTE edits.
  void FlushPage(u32 linear) {
    if (Entry* e = Find(linear, gen_)) e->gen = 0;
    ++change_count_;
  }

  u64 generation() const { return gen_; }

  // Monotonic counter covering every invalidation event (full flushes and
  // single-page flushes alike). The fetch TLB, which caches a decoded page
  // outside this one, compares it to detect that its copy may be stale.
  u64 change_count() const { return change_count_; }

  const Stats& stats() const { return stats_; }

 private:
  Entry* Find(u32 linear, u64 gen) {
    const u32 vpn = PageNumber(linear);
    Entry& e = entries_[vpn % kEntries];
    return e.gen == gen && e.vpn == vpn ? &e : nullptr;
  }

  std::array<Entry, kEntries> entries_{};
  u64 gen_ = 1;  // starts above the entries' default tag of 0
  u64 change_count_ = 0;
  Stats stats_;
};

}  // namespace palladium

#endif  // SRC_HW_TLB_H_
