// Global operator new/delete for palladium_e2e: a freed block of 16 MB or
// more is kept and handed to the next request of the same size.
//
// The one such block is a simulated machine's physical memory (64 MB), and
// every round builds a fresh machine. Freed normally, glibc unmaps it, and
// the next round's machine takes a page fault on each of its 16384 pages
// before its zero fill. Those faults are half of a round's set-up, and what
// they cost depends on the host's memory state rather than on this program:
// between two sets of runs a few minutes apart, set-up time moved by 25%
// while the run phase moved by 8%. Kept, the block's pages stay mapped, and
// set-up time is the program's own work, zero fill included.
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

namespace {

constexpr std::size_t kKeepBytes = std::size_t{16} << 20;

struct Slot {
  std::atomic<void*> block{nullptr};  // set once under g_mu, never cleared
  std::size_t size = 0;
  bool in_use = false;
};

// More blocks than slots are allocated and freed normally.
Slot g_slots[4];
std::mutex g_mu;  // PALLADIUM_HOST_THREADS runs vCPUs on several host threads

void* Allocate(std::size_t n) {
  if (n >= kKeepBytes) {
    std::lock_guard<std::mutex> lock(g_mu);
    for (Slot& s : g_slots) {
      void* b = s.block.load(std::memory_order_relaxed);
      if (b != nullptr && !s.in_use && s.size == n) {
        s.in_use = true;
        return b;
      }
    }
    void* p = std::malloc(n);
    if (p == nullptr) throw std::bad_alloc();
    for (Slot& s : g_slots) {
      if (s.block.load(std::memory_order_relaxed) == nullptr) {
        s.size = n;
        s.in_use = true;
        s.block.store(p, std::memory_order_release);
        break;
      }
    }
    return p;
  }
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  for (Slot& s : g_slots) {
    if (s.block.load(std::memory_order_acquire) == p) {
      std::lock_guard<std::mutex> lock(g_mu);
      s.in_use = false;
      return;
    }
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
