// A bus-mastering NIC model with per-core RX/TX queue pairs: descriptor
// rings living in simulated physical memory, DMA through PhysicalMemory (so
// every DMA write fires the write observer and the decode cache stays
// coherent), hardware RSS spreading arriving frames across queues, and one
// RX + one TX-completion interrupt line per queue, each wired to its owning
// core's local PIC (MSI-X style). Frames are injected by the host harness
// with an explicit arrival cycle, which keeps the whole device a pure
// function of the simulated clock.
//
// Production mechanisms modeled here:
//  - RSS: the queue for an arriving frame is a hash of its 5-tuple,
//    computed "in hardware" at wire time (RssHash below — also the software
//    steering hash, so queue placement and flow steering agree).
//  - NAPI masking: the driver may disable a queue's RX interrupt while it
//    polls the ring; DMA during the masked window latches a deferred edge
//    that fires on re-enable, so an undrained ring can never lose its wakeup.
//  - TX completion: the doorbell (TxKick) only *schedules* per-descriptor
//    DMA; descriptors complete tx_dma_cycles() apart on the simulated clock
//    and each Advance() that retires completions raises one TX-completion
//    IRQ (completions landing together coalesce into a single edge).
//
// Descriptor layout (16 bytes, little-endian):
//   word0  status — kDescOwn: owned by the NIC (RX: slot free for hardware;
//                   TX: frame ready to send); kDescDone: hardware finished
//                   (RX: frame landed; TX: frame sent)
//   word1  frame length in bytes
//   word2  physical address of this descriptor's buffer (driver-provided;
//          buffers need not be contiguous — they are ordinary frames)
//   word3  reserved
// A buffer holds at most buf_stride bytes.
#ifndef SRC_HW_NIC_H_
#define SRC_HW_NIC_H_

#include <deque>
#include <vector>

#include "src/hw/irq.h"
#include "src/hw/physical_memory.h"
#include "src/hw/types.h"

namespace palladium {

namespace obs {
class FlightRecorder;
}  // namespace obs

struct NicRing {
  u32 desc_phys = 0;    // base of `count` 16-byte descriptors
  u32 count = 0;
  u32 buf_stride = 2048;  // capacity of each descriptor's buffer
};

inline constexpr u32 kDescOwn = 1;
inline constexpr u32 kDescDone = 2;
inline constexpr u32 kNicDescBytes = 16;
inline constexpr u32 kNicDescStatus = 0;
inline constexpr u32 kNicDescLen = 4;
inline constexpr u32 kNicDescBuf = 8;

inline constexpr u32 kNicMaxQueues = 8;  // matches kMaxCpus

class Nic : public IrqDevice {
 public:
  struct Stats {
    u64 rx_frames = 0;    // DMA'd into a ring
    u64 rx_dropped = 0;   // arrived with no free descriptor
    u64 rx_bytes = 0;
    u64 tx_frames = 0;          // descriptor DMA completed
    u64 tx_bytes = 0;
    u64 rx_irqs_deferred = 0;   // DMA while the RX line was masked (NAPI)
    u64 tx_completion_irqs = 0; // TX-completion edges raised (coalesced)
    u64 tx_irqs_suppressed = 0; // completion batches with the TX line off
  };

  // Single-queue construction: queue 0 raises `irq` (RX) and `irq + 1`
  // (TX completion) on `pic`. Additional queues are wired with WireQueue.
  Nic(PhysicalMemory& pm, InterruptController& pic, u32 irq);

  // Multi-queue setup. SetQueueCount resets per-queue state; queue 0 keeps
  // the constructor's wiring until re-wired. Count is clamped to
  // [1, kNicMaxQueues].
  void SetQueueCount(u32 n);
  void WireQueue(u32 q, InterruptController* pic, u32 rx_irq, u32 tx_irq);

  void ConfigureRx(const NicRing& ring) { ConfigureRx(0, ring); }
  void ConfigureTx(const NicRing& ring) { ConfigureTx(0, ring); }
  void ConfigureRx(u32 q, const NicRing& ring);
  void ConfigureTx(u32 q, const NicRing& ring);

  // Host harness: a frame arrives on the wire at `at_cycle` (clamped to be
  // non-decreasing so the arrival sequence is a valid timeline). With more
  // than one queue the frame lands on queue RssHash(frame) % num_queues.
  // The bytes are copied into that queue's current arrival block.
  void Inject(const u8* frame, u32 len, u64 at_cycle);

  // The hardware RSS hash: FNV-1a over the 5-tuple fields present, finished
  // with a murmur3 fmix32 avalanche. Shared with the dataplane's software
  // flow steering so queue placement and worker placement agree.
  static u32 RssHash(const u8* frame, u32 len);

  // NAPI: the driver masks a queue's RX line while polling. DMA during the
  // masked window sets a deferred edge; re-enabling with the edge pending
  // raises the line immediately (no lost wakeups on an undrained ring).
  void SetRxIrqEnabled(u32 q, bool enabled);
  bool rx_irq_enabled(u32 q) const { return queues_[q].rx_irq_enabled; }

  // TX-completion interrupt enable (a per-queue device register, as on real
  // NICs): drivers that reclaim completed descriptors in the xmit path can
  // switch the line off entirely instead of eating one dispatch per
  // completion batch. Suppressed edges are counted, not latched.
  void SetTxIrqEnabled(u32 q, bool enabled);
  bool tx_irq_enabled(u32 q) const { return queues_[q].tx_irq_enabled; }

  // RX interrupt moderation (the ITR register): with a nonzero window the
  // NIC raises at most one RX interrupt per `cycles` per queue — the first
  // DMA after a quiet period fires (almost) immediately, subsequent frames
  // ride the armed timer and are picked up by the same NAPI poll. 0 (the
  // default) interrupts on every DMA.
  void set_rx_irq_moderation(u32 cycles) { rx_irq_moderation_ = cycles; }
  u32 rx_irq_moderation() const { return rx_irq_moderation_; }

  // Whole-device view (single-hub compatibility): earliest event over every
  // queue; Advance runs them all.
  u64 next_event() const override;
  void Advance(u64 now) override;

  // Per-queue device handles for per-core IRQ hubs: attaching queue_device(q)
  // to core q's hub means core q advances (and is interrupted by) only its
  // own queue.
  IrqDevice* queue_device(u32 q) { return &queue_devices_[q]; }

  // Kernel driver doorbell for queue q's TX ring at cycle `now`: every ready
  // (kDescOwn) descriptor is scheduled for DMA, completing tx_dma_cycles()
  // apart; Advance() retires completions and raises the TX-completion IRQ.
  // Returns the number of descriptors newly scheduled.
  u32 TxKick(u32 q, u64 now);

  // Harness finalization: complete every scheduled TX descriptor now (the
  // run is over; nobody is left to advance the clock past the last DMA).
  void FlushTx();

  // Driver backpressure: when queue q's TX ring is full but completions are
  // pending, returns the cycle at which the oldest pending completion
  // retires (the driver spins on the doorbell until then). kIdle if nothing
  // is pending.
  u64 NextTxCompletion(u32 q) const;

  u32 num_queues() const { return static_cast<u32>(queues_.size()); }
  u32 irq() const { return queues_[0].rx_irq; }
  u32 tx_irq() const { return queues_[0].tx_irq; }
  u32 tx_dma_cycles() const { return tx_dma_cycles_; }
  void set_tx_dma_cycles(u32 cycles) { tx_dma_cycles_ = cycles > 0 ? cycles : 1; }

  // Observability: a pure observer — recording never touches device state or
  // the simulated clock. Queue q records on track `first_track + q` so every
  // track stays inside one core's clock domain (per-queue devices advance on
  // their owning core's clock, which is not globally monotone under SMP).
  void set_recorder(obs::FlightRecorder* recorder, u32 first_track) {
    recorder_ = recorder;
    obs_first_track_ = first_track;
  }

  const Stats& stats() const { return stats_; }
  const std::deque<std::vector<u8>>& tx_frames() const { return tx_log_; }
  const NicRing& rx_ring(u32 q = 0) const { return queues_[q].rx; }
  const NicRing& tx_ring(u32 q = 0) const { return queues_[q].tx; }
  u32 rx_head(u32 q = 0) const { return queues_[q].rx_head; }
  u64 rx_frames_on_queue(u32 q) const { return queues_[q].rx_count; }

  static constexpr size_t kTxLogCap = 4096;

 private:
  // Queued arrivals' bytes are packed into blocks of this size (a longer
  // frame gets a block of its own). It stays under glibc's 128 KB mmap
  // threshold, so blocks come from, and go back to, the heap.
  static constexpr u32 kArrivalBlockBytes = 64 * 1024;

  // A frame waiting for its wire cycle; `bytes` points into one of the
  // queue's arrival blocks.
  struct Arrival {
    u64 cycle;
    const u8* bytes;
    u32 len;
  };
  // Reserved once and never grown past its capacity, so arrivals may point
  // into it. Freed once its last arrival has been DMA'd or dropped.
  struct ArrivalBlock {
    std::vector<u8> bytes;
    u32 pending = 0;  // arrivals still queued in this block
  };

  struct Queue {
    NicRing rx;
    NicRing tx;
    u32 rx_head = 0;  // next RX descriptor the hardware fills
    u32 tx_head = 0;  // next TX descriptor to complete
    InterruptController* pic = nullptr;
    u32 rx_irq = 0;
    u32 tx_irq = 0;
    bool rx_irq_enabled = true;
    bool rx_irq_deferred = false;
    bool tx_irq_enabled = true;
    u64 rx_irq_due = IrqDevice::kIdle;  // armed moderation timer, if any
    u64 rx_irq_gate = 0;                // earliest cycle the next IRQ may fire
    std::deque<Arrival> arrivals;
    std::deque<ArrivalBlock> arrival_blocks;  // in arrival order
    std::deque<u64> tx_complete_at;  // scheduled completions, in ring order
    u64 tx_last_scheduled = 0;       // serializes the DMA engine across kicks
    u64 rx_count = 0;                // frames DMA'd via this queue
  };

  // Adapter exposing one queue as an IrqDevice on a per-core hub.
  class QueueDevice : public IrqDevice {
   public:
    void Bind(Nic* nic, u32 q) {
      nic_ = nic;
      q_ = q;
    }
    u64 next_event() const override { return nic_->QueueNextEvent(q_); }
    void Advance(u64 now) override { nic_->AdvanceQueue(q_, now); }
    void Poke() { NotifyHub(); }

   private:
    Nic* nic_ = nullptr;
    u32 q_ = 0;
  };

  u64 QueueNextEvent(u32 q) const;
  void AdvanceQueue(u32 q, u64 now);
  bool DmaRxFrame(Queue& queue, const Arrival& arrival);
  u32 CompleteOneTx(Queue& queue);  // returns the completed frame's length

  PhysicalMemory& pm_;
  std::vector<Queue> queues_;
  std::vector<QueueDevice> queue_devices_;
  u64 last_arrival_ = 0;
  u32 tx_dma_cycles_ = 64;  // per-descriptor DMA latency
  u32 rx_irq_moderation_ = 0;  // ITR window; 0 = interrupt per DMA
  std::deque<std::vector<u8>> tx_log_;  // completion order, most recent kTxLogCap
  std::vector<u8> tx_spare_;  // the buffer tx_log_ evicted last, for the next frame
  Stats stats_;
  obs::FlightRecorder* recorder_ = nullptr;
  u32 obs_first_track_ = 0;
};

}  // namespace palladium

#endif  // SRC_HW_NIC_H_
