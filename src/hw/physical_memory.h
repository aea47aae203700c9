// Simulated physical memory: a flat byte array with bounds-checked accessors.
#ifndef SRC_HW_PHYSICAL_MEMORY_H_
#define SRC_HW_PHYSICAL_MEMORY_H_

#include <algorithm>
#include <cstring>
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

  explicit PhysicalMemory(u32 size_bytes) : bytes_(size_bytes, 0) {}

  u32 size() const { return static_cast<u32>(bytes_.size()); }

  // Registration and removal happen at machine setup and teardown (Cpu
  // constructor/destructor), never while simulated code runs, which is why
  // the trace tier may cache sole_write_observer() as a loop invariant.
  void AddWriteObserver(WriteObserver* observer) { observers_.push_back(observer); }
  void RemoveWriteObserver(WriteObserver* observer) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                     observers_.end());
  }
  // The uniprocessor devirtualization hook: when exactly one observer is
  // registered the CPU's store fast path calls it directly instead of going
  // through the notify loop. nullptr whenever that shortcut is invalid.
  WriteObserver* sole_write_observer() const {
    return observers_.size() == 1 ? observers_[0] : nullptr;
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
  // The one byte store, and unlike Write32 it does not notify: the
  // caller MUST NotifyWrite the range once its last byte has landed (the
  // CPU's per-byte store loop notifies each store's bytes together, as
  // one-copy paths do), so no observer judges a half-written store.
  bool Write8Deferred(u32 addr, u8 v) {
    if (!Contains(addr, 1)) return false;
    bytes_[addr] = v;
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
    for (WriteObserver* o : observers_) o->OnPhysicalWrite(addr, len);
  }

  std::vector<u8> bytes_;
  std::vector<WriteObserver*> observers_;
};

}  // namespace palladium

#endif  // SRC_HW_PHYSICAL_MEMORY_H_
