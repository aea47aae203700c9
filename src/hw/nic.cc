#include "src/hw/nic.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace palladium {

namespace {
// Frame field offsets (duplicated from src/net/packet.h to keep the hw layer
// free of net-layer includes; static_asserts in dataplane.cc pin them).
constexpr u32 kNicOffIpProto = 23;
constexpr u32 kNicOffIpSrc = 26;
constexpr u32 kNicOffSrcPort = 34;
}  // namespace

Nic::Nic(PhysicalMemory& pm, InterruptController& pic, u32 irq) : pm_(pm) {
  queues_.resize(1);
  queue_devices_.resize(kNicMaxQueues);
  for (u32 q = 0; q < kNicMaxQueues; ++q) queue_devices_[q].Bind(this, q);
  queues_[0].pic = &pic;
  queues_[0].rx_irq = irq;
  queues_[0].tx_irq = irq + 1;
}

void Nic::SetQueueCount(u32 n) {
  n = std::max(1u, std::min(n, kNicMaxQueues));
  InterruptController* const pic = queues_[0].pic;
  const u32 rx_irq = queues_[0].rx_irq;
  const u32 tx_irq = queues_[0].tx_irq;
  queues_.clear();
  queues_.resize(n);
  // Queue 0 keeps its wiring; fresh queues inherit it until WireQueue.
  for (Queue& q : queues_) {
    q.pic = pic;
    q.rx_irq = rx_irq;
    q.tx_irq = tx_irq;
  }
}

void Nic::WireQueue(u32 q, InterruptController* pic, u32 rx_irq, u32 tx_irq) {
  if (q >= queues_.size()) return;
  queues_[q].pic = pic;
  queues_[q].rx_irq = rx_irq;
  queues_[q].tx_irq = tx_irq;
}

void Nic::ConfigureRx(u32 q, const NicRing& ring) {
  if (q >= queues_.size()) return;
  queues_[q].rx = ring;
  queues_[q].rx_head = 0;
}

void Nic::ConfigureTx(u32 q, const NicRing& ring) {
  if (q >= queues_.size()) return;
  queues_[q].tx = ring;
  queues_[q].tx_head = 0;
  queues_[q].tx_complete_at.clear();
  queues_[q].tx_last_scheduled = 0;
}

u32 Nic::RssHash(const u8* frame, u32 len) {
  u32 h = 2166136261u;
  auto mix = [&h, frame](u32 off, u32 n) {
    for (u32 i = 0; i < n; ++i) {
      h ^= frame[off + i];
      h *= 16777619u;
    }
  };
  if (len >= kNicOffIpSrc + 8) mix(kNicOffIpSrc, 8);  // src + dst ip
  if (len > kNicOffIpProto) mix(kNicOffIpProto, 1);
  if (len >= kNicOffSrcPort + 4) mix(kNicOffSrcPort, 4);  // both ports
  // fmix32 avalanche: adjacent tuples (client n, port 1024+n) must not
  // collapse onto the same residue class mod small queue/worker counts.
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

void Nic::Inject(const u8* frame, u32 len, u64 at_cycle) {
  if (at_cycle < last_arrival_) at_cycle = last_arrival_;
  last_arrival_ = at_cycle;
  const u32 q =
      queues_.size() > 1 ? RssHash(frame, len) % static_cast<u32>(queues_.size()) : 0;
  Queue& queue = queues_[q];
  std::deque<ArrivalBlock>& blocks = queue.arrival_blocks;
  if (blocks.empty() || blocks.back().bytes.capacity() - blocks.back().bytes.size() < len) {
    blocks.emplace_back();
    blocks.back().bytes.reserve(std::max(kArrivalBlockBytes, len));
  }
  ArrivalBlock& block = blocks.back();
  const u8* bytes = block.bytes.data() + block.bytes.size();
  block.bytes.insert(block.bytes.end(), frame, frame + len);  // within capacity: no move
  ++block.pending;
  queue.arrivals.push_back(Arrival{at_cycle, bytes, len});
  // Both hub attachments must see the new arrival: the whole-device view
  // (single-hub harnesses) and the per-queue device on the owning core.
  NotifyHub();
  queue_devices_[q].Poke();
}

bool Nic::DmaRxFrame(Queue& queue, const Arrival& arrival) {
  if (queue.rx.count == 0) return false;
  const u32 desc = queue.rx.desc_phys + queue.rx_head * kNicDescBytes;
  u32 status = 0, buf = 0;
  if (!pm_.Read32(desc + kNicDescStatus, &status) || status != kDescOwn) return false;
  if (!pm_.Read32(desc + kNicDescBuf, &buf)) return false;
  const u32 len = std::min(arrival.len, queue.rx.buf_stride);
  if (!pm_.WriteBlock(buf, arrival.bytes, len)) return false;
  pm_.Write32(desc + kNicDescLen, len);
  pm_.Write32(desc + kNicDescStatus, kDescDone);
  queue.rx_head = (queue.rx_head + 1) % queue.rx.count;
  ++stats_.rx_frames;
  ++queue.rx_count;
  stats_.rx_bytes += len;
  return true;
}

u32 Nic::CompleteOneTx(Queue& queue) {
  const u32 desc = queue.tx.desc_phys + queue.tx_head * kNicDescBytes;
  u32 status = 0, len = 0, buf = 0;
  u32 sent = 0;
  if (pm_.Read32(desc + kNicDescStatus, &status) && status == kDescOwn) {
    pm_.Read32(desc + kNicDescLen, &len);
    pm_.Read32(desc + kNicDescBuf, &buf);
    len = std::min(len, queue.tx.buf_stride);
    tx_spare_.clear();  // grows, if it must, to exactly `len`
    tx_spare_.resize(len);
    if (pm_.ReadBlock(buf, tx_spare_.data(), len)) {
      tx_log_.push_back(std::move(tx_spare_));
      if (tx_log_.size() > kTxLogCap) {
        tx_spare_ = std::move(tx_log_.front());
        tx_log_.pop_front();
      }
      ++stats_.tx_frames;
      stats_.tx_bytes += len;
      sent = len;
    }
    pm_.Write32(desc + kNicDescStatus, kDescDone);
  }
  // A descriptor reclaimed (or misprogrammed) under a scheduled completion
  // still advances the engine; the schedule entry is consumed either way.
  queue.tx_head = queue.tx.count > 0 ? (queue.tx_head + 1) % queue.tx.count : 0;
  return sent;
}

u64 Nic::QueueNextEvent(u32 q) const {
  const Queue& queue = queues_[q];
  u64 next = kIdle;
  if (!queue.arrivals.empty()) next = queue.arrivals.front().cycle;
  if (!queue.tx_complete_at.empty()) next = std::min(next, queue.tx_complete_at.front());
  if (queue.rx_irq_due != kIdle) next = std::min(next, queue.rx_irq_due);
  return next;
}

void Nic::AdvanceQueue(u32 q, u64 now) {
  Queue& queue = queues_[q];
  while (!queue.arrivals.empty() && queue.arrivals.front().cycle <= now) {
    const Arrival& arrival = queue.arrivals.front();
    const u64 at = arrival.cycle;
    // Oversize frames never land truncated-but-"complete": the wire drops
    // them (no jumbo support), the same as a ring with no free descriptor.
    if (arrival.len > queue.rx.buf_stride) {
      ++stats_.rx_dropped;
    } else if (DmaRxFrame(queue, arrival)) {
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, at, obs::EventType::kFrameDma,
                          obs::EventClass::kArch, q, arrival.len);
      }
      if (queue.rx_irq_enabled) {
        if (rx_irq_moderation_ == 0) {
          if (queue.pic != nullptr) queue.pic->Raise(queue.rx_irq);
          if (recorder_ != nullptr) {
            recorder_->Record(obs_first_track_ + q, at, obs::EventType::kIrqRaise,
                              obs::EventClass::kArch, queue.rx_irq, q);
          }
        } else if (queue.rx_irq_due == kIdle) {
          // ITR: arm the moderation timer — the first DMA after a quiet
          // period fires as soon as the gate allows; frames landing while
          // the timer is armed share the one interrupt.
          queue.rx_irq_due = std::max(at, queue.rx_irq_gate);
        }
      } else {
        // NAPI masked window: latch the edge for re-enable time.
        queue.rx_irq_deferred = true;
        ++stats_.rx_irqs_deferred;
      }
    } else {
      // No free descriptor (or a misconfigured ring): the wire does not
      // wait — the frame is dropped, silently from the driver's view.
      ++stats_.rx_dropped;
    }
    queue.arrivals.pop_front();
    if (--queue.arrival_blocks.front().pending == 0) queue.arrival_blocks.pop_front();
  }
  if (queue.rx_irq_due != kIdle && queue.rx_irq_due <= now) {
    if (queue.rx_irq_enabled && queue.pic != nullptr) {
      queue.pic->Raise(queue.rx_irq);
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, queue.rx_irq_due,
                          obs::EventType::kIrqRaise, obs::EventClass::kArch,
                          queue.rx_irq, q);
      }
    }
    queue.rx_irq_gate = queue.rx_irq_due + rx_irq_moderation_;
    queue.rx_irq_due = kIdle;
  }
  bool completed = false;
  while (!queue.tx_complete_at.empty() && queue.tx_complete_at.front() <= now) {
    const u64 at = queue.tx_complete_at.front();
    const u32 sent = CompleteOneTx(queue);
    if (recorder_ != nullptr) {
      recorder_->Record(obs_first_track_ + q, at, obs::EventType::kFrameTx,
                        obs::EventClass::kArch, q, sent);
    }
    queue.tx_complete_at.pop_front();
    completed = true;
  }
  if (completed) {
    if (queue.tx_irq_enabled) {
      // One coalesced TX-completion edge per Advance that retired work.
      if (queue.pic != nullptr) queue.pic->Raise(queue.tx_irq);
      ++stats_.tx_completion_irqs;
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, now, obs::EventType::kIrqRaise,
                          obs::EventClass::kArch, queue.tx_irq, q);
      }
    } else {
      ++stats_.tx_irqs_suppressed;
    }
  }
}

u64 Nic::next_event() const {
  u64 next = kIdle;
  for (u32 q = 0; q < queues_.size(); ++q) next = std::min(next, QueueNextEvent(q));
  return next;
}

void Nic::Advance(u64 now) {
  for (u32 q = 0; q < queues_.size(); ++q) AdvanceQueue(q, now);
}

void Nic::SetRxIrqEnabled(u32 q, bool enabled) {
  if (q >= queues_.size()) return;
  Queue& queue = queues_[q];
  queue.rx_irq_enabled = enabled;
  if (enabled && queue.rx_irq_deferred) {
    queue.rx_irq_deferred = false;
    // The deferred edge only matters if work is still sitting in the ring:
    // a poll loop that already drained the masked-window DMAs must not eat
    // a spurious interrupt. The hardware knows — it scans its own ring for
    // descriptors it completed (kDescDone) that the driver has not yet
    // returned (kDescOwn).
    bool undrained = false;
    for (u32 i = 0; i < queue.rx.count; ++i) {
      u32 status = 0;
      if (pm_.Read32(queue.rx.desc_phys + i * kNicDescBytes + kNicDescStatus, &status) &&
          status == kDescDone) {
        undrained = true;
        break;
      }
    }
    if (undrained && queue.pic != nullptr) queue.pic->Raise(queue.rx_irq);
  }
}

void Nic::SetTxIrqEnabled(u32 q, bool enabled) {
  if (q >= queues_.size()) return;
  queues_[q].tx_irq_enabled = enabled;
}

u32 Nic::TxKick(u32 q, u64 now) {
  if (q >= queues_.size()) return 0;
  Queue& queue = queues_[q];
  if (queue.tx.count == 0) return 0;
  // Ready descriptors not yet scheduled start after the pending window.
  u32 scanned = static_cast<u32>(queue.tx_complete_at.size());
  u32 accepted = 0;
  u64 at = std::max(now, queue.tx_last_scheduled);
  while (scanned < queue.tx.count) {
    const u32 idx = (queue.tx_head + scanned) % queue.tx.count;
    const u32 desc = queue.tx.desc_phys + idx * kNicDescBytes;
    u32 status = 0;
    if (!pm_.Read32(desc + kNicDescStatus, &status) || status != kDescOwn) break;
    at += tx_dma_cycles_;
    queue.tx_complete_at.push_back(at);
    queue.tx_last_scheduled = at;
    ++scanned;
    ++accepted;
  }
  if (accepted > 0) {
    NotifyHub();
    queue_devices_[q].Poke();
  }
  return accepted;
}

u64 Nic::NextTxCompletion(u32 q) const {
  if (q >= queues_.size() || queues_[q].tx_complete_at.empty()) return kIdle;
  return queues_[q].tx_complete_at.front();
}

void Nic::FlushTx() {
  for (Queue& queue : queues_) {
    while (!queue.tx_complete_at.empty()) {
      CompleteOneTx(queue);
      queue.tx_complete_at.pop_front();
    }
  }
}

}  // namespace palladium
