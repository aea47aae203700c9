// Simulated physical memory: a flat byte array with bounds-checked accessors.
#ifndef SRC_HW_PHYSICAL_MEMORY_H_
#define SRC_HW_PHYSICAL_MEMORY_H_

#include <array>
#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "src/hw/types.h"

namespace palladium {

class PhysicalMemory {
 public:
  // Notified after every successful mutation of physical memory, with the
  // first byte address and the length. Every CPU's decode cache registers one
  // so self-modifying code is caught no matter who performs the write:
  // simulated stores from any vCPU, kernel copy-in, image loaders, device
  // DMA, or frame zeroing. With N vCPUs there are N observers (one decode
  // cache per core); a write fans out to all of them, which is exactly the
  // SMP coherence rule "every core judges a store to a physical page against
  // its own decoded image of it".
  class WriteObserver {
   public:
    virtual ~WriteObserver() = default;
    virtual void OnPhysicalWrite(u32 addr, u32 len) = 0;
  };

  // Observer slots are a fixed atomic array rather than a vector so the
  // threaded SMP mode can *read* the fan-out list from N host threads while
  // it is structurally stable. Memory-ordering contract:
  //  - AddWriteObserver publishes the slot with a release store and then
  //    bumps observer_count_ (release), so any thread that acquire-loads the
  //    count sees fully constructed observer pointers below it.
  //  - Registration and removal are machine-setup / machine-teardown
  //    operations (Cpu constructor/destructor). They must happen while no
  //    other thread is running simulated code — threaded epochs never add or
  //    remove observers, which is also why the trace tier may cache
  //    sole_write_observer() as a loop invariant.
  static constexpr u32 kMaxObservers = 16;

  // One per host thread in threaded SMP mode. While a lane is active on a
  // thread, Notify() routes every write on that thread to the lane instead
  // of the global fan-out: the lane's *local* observer (the running vCPU's
  // own decode cache) is still served synchronously — self-modifying code on
  // the writing CPU keeps its exact uniprocessor semantics — while the
  // page-granular range is appended to the lane's log. The epoch barrier's
  // serial section replays the logs to every *sibling* observer before any
  // thread starts the next epoch, so a cross-CPU code write is observed no
  // later than the next barrier (the delivery rule threaded mode promises;
  // data-race-free workloads cannot tell the difference). Page granularity
  // is exact for decode caches: a replayed range re-decodes every slot of
  // the page, and a slot no write touched still decodes as cached.
  struct WriteLane {
    WriteObserver* local = nullptr;
    // Page-aligned [begin, end) ranges touched this epoch, deduped against
    // the most recent range so tight loops storing to one page log once.
    std::vector<std::pair<u32, u32>> log;
    u32 last_begin = 1;
    u32 last_end = 0;

    void Reset(WriteObserver* local_observer) {
      local = local_observer;
      log.clear();
      last_begin = 1;
      last_end = 0;
    }
    void LogRange(u32 addr, u32 len) {
      const u32 begin = addr & ~(kPageSize - 1);
      const u32 end = ((addr + len - 1) & ~(kPageSize - 1)) + kPageSize;
      if (begin >= last_begin && end <= last_end) return;
      log.emplace_back(begin, end);
      last_begin = begin;
      last_end = end;
    }
  };

  explicit PhysicalMemory(u32 size_bytes) : bytes_(size_bytes, 0) {
    for (auto& slot : observers_) slot.store(nullptr, std::memory_order_relaxed);
  }

  u32 size() const { return static_cast<u32>(bytes_.size()); }

  void AddWriteObserver(WriteObserver* observer) {
    const u32 n = observer_count_.load(std::memory_order_relaxed);
    if (n >= kMaxObservers) return;  // kMaxCpus is 8; cannot happen.
    observers_[n].store(observer, std::memory_order_release);
    observer_count_.store(n + 1, std::memory_order_release);
  }
  void RemoveWriteObserver(WriteObserver* observer) {
    // Teardown-only (see the ordering contract above): compacts the array
    // while no simulated code is running on any thread.
    const u32 n = observer_count_.load(std::memory_order_relaxed);
    for (u32 i = 0; i < n; ++i) {
      if (observers_[i].load(std::memory_order_relaxed) != observer) continue;
      for (u32 j = i + 1; j < n; ++j) {
        observers_[j - 1].store(observers_[j].load(std::memory_order_relaxed),
                                std::memory_order_release);
      }
      observers_[n - 1].store(nullptr, std::memory_order_release);
      observer_count_.store(n - 1, std::memory_order_release);
      return;
    }
  }
  // The uniprocessor devirtualization hook: when exactly one observer is
  // registered the CPU's store fast path calls it directly instead of going
  // through the notify loop. nullptr whenever that shortcut is invalid.
  WriteObserver* sole_write_observer() const {
    return observer_count_.load(std::memory_order_acquire) == 1
               ? observers_[0].load(std::memory_order_acquire)
               : nullptr;
  }

  // Installs (or clears, with nullptr) the calling thread's write lane.
  // Active only while a vCPU runs inside a threaded epoch; the barrier's
  // serial section runs with no lane so scripted events and replays fan out
  // to every observer directly.
  static void SetActiveWriteLane(WriteLane* lane) { active_lane_ = lane; }

  // Replays one logged page range to every observer except `except` (the
  // lane's local observer, which already saw the writes synchronously).
  void NotifyRangeExcept(u32 begin, u32 end, WriteObserver* except) {
    const u32 n = observer_count_.load(std::memory_order_acquire);
    for (u32 i = 0; i < n; ++i) {
      WriteObserver* o = observers_[i].load(std::memory_order_acquire);
      if (o != nullptr && o != except) o->OnPhysicalWrite(begin, end - begin);
    }
  }

  bool Contains(u32 addr, u32 len) const {
    return addr < bytes_.size() && len <= bytes_.size() - addr;
  }

  // All accessors return false (and leave *out untouched / memory unmodified)
  // on an out-of-range physical address. The CPU maps that to a bus-error
  // style #GP; well-formed page tables never produce one.
  bool Read8(u32 addr, u8* out) const {
    if (!Contains(addr, 1)) return false;
    *out = bytes_[addr];
    return true;
  }
  bool Read32(u32 addr, u32* out) const {
    if (!Contains(addr, 4)) return false;
    std::memcpy(out, &bytes_[addr], 4);
    return true;
  }
  // The one byte store, and unlike Write16/Write32 it does not notify: the
  // caller MUST NotifyWrite the range once its last byte has landed (the
  // CPU's per-byte store loop notifies each store's bytes together, as
  // one-copy paths do), so no observer judges a half-written store.
  bool Write8Deferred(u32 addr, u8 v) {
    if (!Contains(addr, 1)) return false;
    bytes_[addr] = v;
    return true;
  }
  bool Write16(u32 addr, u16 v) {
    if (!Contains(addr, 2)) return false;
    std::memcpy(&bytes_[addr], &v, 2);
    Notify(addr, 2);
    return true;
  }
  bool Write32(u32 addr, u32 v) {
    if (!Contains(addr, 4)) return false;
    std::memcpy(&bytes_[addr], &v, 4);
    Notify(addr, 4);
    return true;
  }

  // Host pointer to a whole page-sized frame, for translation caches that
  // copy to/from guest memory without per-byte bounds checks. Returns
  // nullptr when the frame is not entirely inside physical memory (the
  // caller must then take a bounds-checked path). Any mutation through the
  // pointer MUST be followed by NotifyWrite for the touched range, or the
  // decode cache would miss self-modifying stores.
  u8* FrameHostPtr(u32 frame) {
    return Contains(frame, kPageSize) ? bytes_.data() + frame : nullptr;
  }
  // Read-only view of all of physical memory (diff harnesses, dumps).
  const u8* HostData() const { return bytes_.data(); }

  // Fires the write observer for bytes mutated through FrameHostPtr.
  void NotifyWrite(u32 addr, u32 len) { Notify(addr, len); }

  // Bulk helpers for loaders and the kernel model (not charged cycles).
  bool ReadBlock(u32 addr, void* dst, u32 len) const {
    if (!Contains(addr, len)) return false;
    std::memcpy(dst, &bytes_[addr], len);
    return true;
  }
  bool WriteBlock(u32 addr, const void* src, u32 len) {
    if (!Contains(addr, len)) return false;
    std::memcpy(&bytes_[addr], src, len);
    Notify(addr, len);
    return true;
  }
  bool Fill(u32 addr, u8 value, u32 len) {
    if (!Contains(addr, len)) return false;
    std::memset(&bytes_[addr], value, len);
    Notify(addr, len);
    return true;
  }

 private:
  void Notify(u32 addr, u32 len) {
    WriteLane* lane = active_lane_;
    if (lane != nullptr) {
      if (lane->local != nullptr) lane->local->OnPhysicalWrite(addr, len);
      lane->LogRange(addr, len);
      return;
    }
    const u32 n = observer_count_.load(std::memory_order_acquire);
    for (u32 i = 0; i < n; ++i) {
      WriteObserver* o = observers_[i].load(std::memory_order_acquire);
      if (o != nullptr) o->OnPhysicalWrite(addr, len);
    }
  }

  std::vector<u8> bytes_;
  std::array<std::atomic<WriteObserver*>, kMaxObservers> observers_;
  std::atomic<u32> observer_count_{0};
  inline static thread_local WriteLane* active_lane_ = nullptr;
};

}  // namespace palladium

#endif  // SRC_HW_PHYSICAL_MEMORY_H_
