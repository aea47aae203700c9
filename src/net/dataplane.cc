#include "src/net/dataplane.h"

#include <algorithm>
#include <cstring>

#include "src/asm/assembler.h"
#include "src/filter/filter.h"
#include "src/hw/runtime_config.h"
#include "src/net/packet.h"
#include "src/obs/trace.h"

namespace palladium {

// The NIC computes its RSS hash over hard-coded wire offsets (the hw layer
// does not include net headers); pin them to the net layer's view here.
static_assert(kOffIpProto == 23, "NIC RSS hash offset drifted from packet.h");
static_assert(kOffIpSrc == 26, "NIC RSS hash offset drifted from packet.h");
static_assert(kOffSrcPort == 34, "NIC RSS hash offset drifted from packet.h");

u32 PacketDataplane::FlowHash(const std::vector<u8>& frame) {
  // One hash for hardware queue placement and software worker steering:
  // with workers round-robin homed across vCPUs (worker w on cpu w % N) and
  // the worker count a multiple of the queue count, a frame's RSS queue and
  // its steered worker land on the same core.
  return Nic::RssHash(frame.data(), static_cast<u32>(frame.size()));
}

PacketDataplane::PacketDataplane(Kernel& kernel, KernelExtensionManager& kext, Nic& nic)
    : PacketDataplane(kernel, kext, nic, Config{}) {}

PacketDataplane::PacketDataplane(Kernel& kernel, KernelExtensionManager& kext, Nic& nic,
                                 const Config& config)
    : kernel_(kernel), kext_(kext), nic_(nic), config_(config) {
  if (!RuntimeConfig::FromEnv().napi) {
    // The switchable oracle: single queue, one IRQ per DMA'd frame, one
    // protected crossing per frame — the pipeline this PR replaced.
    // Differential tests assert identical served/dropped/match accounting
    // against the fast path.
    config_.napi = false;
    config_.filter_batch = 1;
    config_.queues = 1;
    config_.rx_irq_moderation = 0;
  }
  config_.queues = std::max(1u, std::min({config_.queues, kernel_.num_cpus(), kNicMaxQueues}));
  config_.filter_batch = std::max(1u, std::min(config_.filter_batch, kMaxFilterBatch));
  rx_consume_.assign(config_.queues, 0);
  tx_produce_.assign(config_.queues, 0);

  // Rings: one descriptor page per direction per queue, one buffer frame per
  // descriptor (frames need not be contiguous — descriptors carry their
  // buffer's physical address, as on real hardware).
  static_assert(kRingEntries <= kPageSize / kNicDescBytes, "a ring's descriptors fit in one page");
  static_assert(kBufStride <= kPageSize, "a buffer is one frame");
  PhysicalMemory& pm = kernel_.machine().pm();
  auto build_ring = [&](bool hw_owned) {
    NicRing ring;
    ring.desc_phys = kernel_.frames().Alloc();
    if (ring.desc_phys == 0) return ring;  // out of frames: empty ring, NIC drops
    ring.count = kRingEntries;
    ring.buf_stride = kBufStride;
    for (u32 i = 0; i < ring.count; ++i) {
      const u32 buf = kernel_.frames().Alloc();
      if (buf == 0) {
        // Frame exhaustion mid-build: truncate to the descriptors that got
        // real buffers rather than DMA-ing into physical page 0.
        ring.count = i;
        break;
      }
      const u32 desc = ring.desc_phys + i * kNicDescBytes;
      pm.Write32(desc + kNicDescStatus, hw_owned ? kDescOwn : 0);
      pm.Write32(desc + kNicDescLen, 0);
      pm.Write32(desc + kNicDescBuf, buf);
    }
    return ring;
  };
  nic_.SetQueueCount(config_.queues);
  nic_.set_rx_irq_moderation(config_.rx_irq_moderation);
  for (u32 q = 0; q < config_.queues; ++q) {
    // Queue q interrupts core q's local PIC and is advanced by core q's IRQ
    // hub: each core owns exactly its queue's ring, IRQs and poll loop.
    nic_.WireQueue(q, &kernel_.pic(q), kIrqNic, kIrqNicTx);
    nic_.ConfigureRx(q, build_ring(/*hw_owned=*/true));
    nic_.ConfigureTx(q, build_ring(/*hw_owned=*/false));
    // NAPI drivers reclaim completed TX descriptors in the xmit path
    // (Transmit reuses kDescDone slots directly), so the TX-completion line
    // stays off — one less dispatch per completion batch. The oracle keeps
    // it on and pays the interrupt, as the old pipeline did implicitly by
    // completing the ring synchronously.
    nic_.SetTxIrqEnabled(q, !config_.napi);
    kernel_.irq_hub(q).AddDevice(nic_.queue_device(q));
  }
  kernel_.RegisterIrqHandler(kIrqNic, [this](Kernel&) { ServiceRx(); });
  kernel_.RegisterIrqHandler(kIrqNicTx, [this](Kernel&) { OnTxComplete(); });
  kernel_.RegisterSyscall(kSysPktRecv, [this](Kernel&, u32 ebx, u32 ecx, u32 edx) {
    SysPktRecv(ebx, ecx, edx);
  });
  kernel_.RegisterSyscall(kSysPktSend, [this](Kernel&, u32 ebx, u32 ecx, u32) {
    SysPktSend(ebx, ecx);
  });
  kernel_.RegisterSyscall(kSysPktRecvM, [this](Kernel&, u32 ebx, u32 ecx, u32 edx) {
    SysPktRecvM(ebx, ecx, edx);
  });
  kernel_.RegisterSyscall(kSysPktSendM, [this](Kernel&, u32 ebx, u32 ecx, u32) {
    SysPktSendM(ebx, ecx);
  });
}

PacketDataplane::~PacketDataplane() {
  kernel_.UnregisterIrqHandler(kIrqNic);
  kernel_.UnregisterIrqHandler(kIrqNicTx);
  kernel_.UnregisterSyscall(kSysPktRecv);
  kernel_.UnregisterSyscall(kSysPktSend);
  kernel_.UnregisterSyscall(kSysPktRecvM);
  kernel_.UnregisterSyscall(kSysPktSendM);
  for (u32 q = 0; q < config_.queues; ++q) {
    kernel_.irq_hub(q).RemoveDevice(nic_.queue_device(q));
  }
}

std::optional<PacketDataplane::CompiledFilter> PacketDataplane::LoadFilterExtension(
    const std::string& kext_name, const std::string& filter_text, std::string* diag) {
  std::string err;
  auto expr = ParseFilter(filter_text, &err);
  if (!expr) {
    if (diag != nullptr) *diag = "parse: " + err;
    return std::nullopt;
  }
  // Shared area: the single-frame image at +0/+4 and the batch records at
  // +16 overlap in use, never in time; capacity covers the larger layout.
  const u32 stride = 4 + ((kBufStride + 3) & ~3u);
  const u32 capacity = std::max(kBufStride + 16, kFilterBatchBase + kMaxFilterBatch * stride);
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(*expr, capacity, stride), &aerr);
  if (!obj) {
    if (diag != nullptr) *diag = "assemble: " + aerr.ToString();
    return std::nullopt;
  }
  auto ext = kext_.LoadExtension(kext_name, *obj, diag);
  if (!ext) return std::nullopt;
  auto fid = kext_.FindFunction(kext_name + ":filter_run");
  if (!fid) {
    if (diag != nullptr) *diag = "compiled filter exports no filter_run";
    kext_.UnloadExtension(*ext);
    return std::nullopt;
  }
  CompiledFilter out;
  out.ext_id = *ext;
  out.function_id = *fid;
  auto bfid = kext_.FindFunction(kext_name + ":filter_run_batch");
  if (bfid) {
    out.has_batch = true;
    out.batch_function_id = *bfid;
    out.batch_stride = stride;
  }
  return out;
}

bool PacketDataplane::AddFlow(const std::string& name, const std::string& filter_text,
                              std::vector<Pid> dests, std::string* diag) {
  auto cf = LoadFilterExtension(name, filter_text, diag);
  if (!cf) return false;
  if (!AddFlowFunction(name, cf->ext_id, cf->function_id, std::move(dests))) return false;
  flows_.back().batch_function_id = cf->batch_function_id;
  flows_.back().has_batch = cf->has_batch;
  flows_.back().batch_stride = cf->batch_stride;
  return true;
}

bool PacketDataplane::UpgradeFlow(const std::string& name, const std::string& filter_text,
                                  std::string* diag) {
  FlowInfo* flow = nullptr;
  for (FlowInfo& f : flows_) {
    if (f.name == name) {
      flow = &f;
      break;
    }
  }
  if (flow == nullptr || flow->dead) {
    if (diag != nullptr) *diag = "no such live flow: " + name;
    return false;
  }
  // Load v2 under a versioned extension name so both images coexist across
  // the swap (the old EFT entries stay live until the flow points away).
  const std::string vname = name + "#v" + std::to_string(++upgrade_seq_);
  auto cf = LoadFilterExtension(vname, filter_text, diag);
  if (!cf) return false;
  const u32 old_ext = flow->ext_id;
  // The swap: host code between classification runs, so every frame is
  // classified by exactly the old or exactly the new image — never dropped.
  flow->ext_id = cf->ext_id;
  flow->function_id = cf->function_id;
  flow->batch_function_id = cf->batch_function_id;
  flow->has_batch = cf->has_batch;
  flow->batch_stride = cf->batch_stride;
  // Retire the old image: pages unmapped and freed, decode/trace entries
  // evicted on every vCPU, TLBs shot down, region reusable.
  kext_.UnloadExtension(old_ext);
  ++stats_.flow_upgrades;
  return true;
}

bool PacketDataplane::AddFlowFunction(const std::string& name, u32 ext_id, u32 function_id,
                                      std::vector<Pid> dests) {
  FlowInfo flow;
  flow.name = name;
  flow.ext_id = ext_id;
  flow.function_id = function_id;
  flow.dests = std::move(dests);
  flows_.push_back(std::move(flow));
  for (Pid pid : flows_.back().dests) all_dests_.push_back(pid);
  return true;
}

bool PacketDataplane::AllDestsSaturated(Process** blocker) {
  bool any_live = false;
  Process* first_full = nullptr;
  for (const FlowInfo& flow : flows_) {
    if (flow.dead) continue;
    for (Pid pid : flow.dests) {
      Process* proc = kernel_.process(pid);
      if (proc == nullptr ||
          (proc->state != ProcessState::kRunnable && proc->state != ProcessState::kBlocked)) {
        continue;
      }
      any_live = true;
      if (proc->pkt_queue.size() < proc->pkt_queue_limit) return false;
      if (first_full == nullptr) first_full = proc;
    }
  }
  // No live destination at all is the dead-dest case, not backpressure —
  // classification still runs and Deliver accounts dropped_dead_dest.
  if (!any_live) return false;
  *blocker = first_full;
  return true;
}

bool PacketDataplane::Deliver(FlowInfo& flow, std::vector<u8>& frame) {
  Process* first_full = nullptr;
  // RSS steering anchors the probe sequence at the flow-hash slot so a wire
  // flow sticks to one worker; round-robin rotates the anchor every frame.
  if (config_.steering == FlowSteering::kFlowHash && !flow.dests.empty()) {
    flow.next_dest = FlowHash(frame) % static_cast<u32>(flow.dests.size());
  }
  for (u32 attempt = 0; attempt < flow.dests.size(); ++attempt) {
    const Pid pid = flow.dests[flow.next_dest];
    flow.next_dest = (flow.next_dest + 1) % static_cast<u32>(flow.dests.size());
    Process* proc = kernel_.process(pid);
    if (proc == nullptr ||
        (proc->state != ProcessState::kRunnable && proc->state != ProcessState::kBlocked)) {
      continue;  // round-robin past dead workers
    }
    if (proc->pkt_queue.size() >= proc->pkt_queue_limit) {
      // A stalled worker must not sink the frame while siblings have room:
      // keep probing; the drop is charged only if every destination is full.
      if (first_full == nullptr) first_full = proc;
      continue;
    }
    proc->pkt_queue.push_back(std::move(frame));
    ++proc->pkts_delivered;
    ++stats_.delivered;
    if (obs::FlightRecorder* rec = kernel_.recorder()) {
      rec->Record(kernel_.machine().current_cpu_index(),
                  kernel_.machine().cpu().cycles(), obs::EventType::kFrameEnqueue,
                  obs::EventClass::kArch, pid,
                  static_cast<u32>(proc->pkt_queue.size()));
    }
    if (proc->state == ProcessState::kBlocked && proc->waiting_packet) {
      kernel_.WakeProcess(*proc);
    }
    return true;
  }
  if (first_full != nullptr) {
    ++stats_.dropped_queue_full;
    ++first_full->pkts_dropped;
  } else {
    ++stats_.dropped_dead_dest;
  }
  return false;
}

void PacketDataplane::ClassifyFrames() {
  const u32 n = static_cast<u32>(rx_batch_.size());
  if (n == 0) return;
  // Backpressure: every live destination is already saturated, so every
  // frame in this batch would be dropped after classification anyway — skip
  // the protected crossings entirely. (In the per-frame oracle this is
  // exactly the "check occupancy before paying the gate" fast-out.)
  {
    Process* blocker = nullptr;
    if (AllDestsSaturated(&blocker)) {
      for (u32 i = 0; i < n; ++i) {
        ++stats_.dropped_queue_full;
        ++stats_.filter_calls_avoided;
        if (blocker != nullptr) ++blocker->pkts_dropped;
      }
      return;
    }
  }
  // Phase 1, flow-major: compute each frame's first matching flow. Flows are
  // still consulted in registration order per frame (a frame matched by an
  // earlier flow is never offered to a later one); only the crossings are
  // batched. Filters are pure functions of the staged frame, so flow-major
  // invocation order cannot change any verdict.
  first_match_.assign(n, -1);
  for (u32 fi = 0; fi < flows_.size(); ++fi) {
    FlowInfo& flow = flows_[fi];
    if (flow.dead) continue;
    idxs_.clear();
    for (u32 i = 0; i < n; ++i) {
      if (first_match_[i] < 0) idxs_.push_back(i);
    }
    if (idxs_.empty()) break;
    u32 pos = 0;
    while (pos < static_cast<u32>(idxs_.size()) && !flow.dead) {
      const u32 chunk =
          std::min<u32>(config_.filter_batch, static_cast<u32>(idxs_.size()) - pos);
      if (chunk == 1 || !flow.has_batch) {
        // Single-frame ABI — also the oracle path (filter_batch == 1).
        const std::vector<u8>& frame = rx_batch_[idxs_[pos]];
        if (!StageRecord(flow.ext_id, 0, frame)) {
          flow.dead = true;
          break;
        }
        ++stats_.filter_invocations;
        ++stats_.filter_frames;
        auto r = kext_.Invoke(flow.function_id, static_cast<u32>(frame.size()));
        if (!r.ok) {
          ++stats_.filter_aborts;
          flow.dead = true;  // aborted extensions stay dead; the flow is disabled
          break;
        }
        if (r.value == 1) first_match_[idxs_[pos]] = static_cast<i32>(fi);
        ++pos;
      } else {
        // Batched ABI: count at +0, [u32 len][bytes] records every
        // batch_stride bytes from +16; the filter returns a match bitmap.
        // Each record is its own copy: records sit batch_stride apart, so
        // one copy of the whole batch would move the gaps too.
        bool staged = kext_.WriteShared(flow.ext_id, 0, &chunk, 4);
        for (u32 j = 0; staged && j < chunk; ++j) {
          staged = StageRecord(flow.ext_id, kFilterBatchBase + j * flow.batch_stride,
                               rx_batch_[idxs_[pos + j]]);
        }
        if (!staged) {
          flow.dead = true;
          break;
        }
        ++stats_.filter_invocations;
        ++stats_.filter_batches;
        stats_.filter_frames += chunk;
        auto r = kext_.Invoke(flow.batch_function_id, chunk);
        if (!r.ok) {
          ++stats_.filter_aborts;
          flow.dead = true;
          break;
        }
        for (u32 j = 0; j < chunk; ++j) {
          if ((r.value >> j) & 1u) first_match_[idxs_[pos + j]] = static_cast<i32>(fi);
        }
        pos += chunk;
      }
    }
  }
  // Phase 2, strict frame order: the same accounting state machine the
  // per-frame oracle runs, so batch and oracle modes agree byte-for-byte on
  // matched/delivered/dropped counters. Saturation is re-checked per frame:
  // this batch's own deliveries can fill the last queue mid-batch.
  if (obs::FlightRecorder* rec = kernel_.recorder()) {
    u32 matched = 0;
    for (u32 i = 0; i < n; ++i) {
      if (first_match_[i] >= 0) ++matched;
    }
    rec->Record(kernel_.machine().current_cpu_index(),
                kernel_.machine().cpu().cycles(), obs::EventType::kFrameClassify,
                obs::EventClass::kArch, n, matched);
  }
  for (u32 i = 0; i < n; ++i) {
    Process* blocker = nullptr;
    if (AllDestsSaturated(&blocker)) {
      ++stats_.dropped_queue_full;
      ++stats_.filter_calls_avoided;
      if (blocker != nullptr) ++blocker->pkts_dropped;
      continue;
    }
    if (first_match_[i] < 0) {
      ++stats_.dropped_no_match;
      continue;
    }
    FlowInfo& flow = flows_[static_cast<u32>(first_match_[i])];
    ++stats_.matched;
    ++flow.matched;
    Deliver(flow, rx_batch_[i]);
  }
}

u32 PacketDataplane::QueueForCurrentCpu() const {
  if (config_.queues <= 1) return 0;
  return kernel_.machine().current_cpu_index() % config_.queues;
}

bool PacketDataplane::StageRecord(u32 ext_id, u32 offset, const std::vector<u8>& frame) {
  const u32 len = static_cast<u32>(frame.size());
  stage_.resize(4 + len);
  std::memcpy(stage_.data(), &len, 4);
  std::memcpy(stage_.data() + 4, frame.data(), len);
  return kext_.WriteShared(ext_id, offset, stage_.data(), 4 + len);
}

void PacketDataplane::CollectRx(u32 q, u32 budget) {
  for (std::vector<u8>& frame : rx_batch_) {
    if (frame.capacity() > 0) spare_frames_.push_back(std::move(frame));
  }
  rx_batch_.clear();
  PhysicalMemory& pm = kernel_.machine().pm();
  const NicRing& ring = nic_.rx_ring(q);
  if (ring.count == 0) return;
  while (static_cast<u32>(rx_batch_.size()) < budget) {
    const u32 desc = ring.desc_phys + rx_consume_[q] * kNicDescBytes;
    u32 status = 0, len = 0, buf = 0;
    if (!pm.Read32(desc + kNicDescStatus, &status) || status != kDescDone) break;
    pm.Read32(desc + kNicDescLen, &len);
    pm.Read32(desc + kNicDescBuf, &buf);
    len = std::min(len, ring.buf_stride);
    rx_batch_.emplace_back();
    std::vector<u8>& frame = rx_batch_.back();
    if (!spare_frames_.empty()) {
      frame.swap(spare_frames_.back());
      spare_frames_.pop_back();
    }
    // Emptied first: an empty vector grows to exactly `len`, while one that
    // still holds the last frame may grow to twice its size.
    frame.clear();
    frame.resize(len);
    pm.ReadBlock(buf, frame.data(), len);
    // Return the descriptor to the hardware before classifying so a burst
    // arriving mid-filter still finds room.
    pm.Write32(desc + kNicDescStatus, kDescOwn);
    rx_consume_[q] = (rx_consume_[q] + 1) % ring.count;
    ++stats_.rx_frames;
  }
}

void PacketDataplane::PopQueued(Process& proc) {
  spare_frames_.push_back(std::move(proc.pkt_queue.front()));
  proc.pkt_queue.pop_front();
}

void PacketDataplane::PollQueue(u32 q) {
  const u32 cpu = kernel_.machine().current_cpu_index();
  for (;;) {
    CollectRx(q, kNapiPollBudget);
    if (rx_batch_.empty()) break;
    ++stats_.napi_polls;
    stats_.napi_frames += rx_batch_.size();
    kernel_.Charge(kernel_.costs().napi_poll +
                   static_cast<u32>(rx_batch_.size()) * kernel_.costs().napi_per_frame);
    if (obs::FlightRecorder* rec = kernel_.recorder()) {
      rec->Record(cpu, kernel_.machine().cpu().cycles(), obs::EventType::kNapiPoll,
                  obs::EventClass::kArch, q, static_cast<u32>(rx_batch_.size()));
    }
    ClassifyFrames();
    // Let the wire catch up to the cycles classification consumed: frames
    // that arrived mid-poll DMA now (IRQ still masked) and are drained by
    // this same loop instead of raising fresh interrupts — the mechanism
    // that turns an IRQ per packet into an IRQ per burst.
    kernel_.irq_hub(cpu).AdvanceDevices(kernel_.machine().cpu().cycles());
  }
}

void PacketDataplane::ServiceQueue(u32 q) {
  if (config_.napi) {
    nic_.SetRxIrqEnabled(q, false);
    PollQueue(q);
    // Re-enable: the NIC re-raises only if DMA-complete descriptors are
    // still sitting in the ring (the driver's post-unmask race check).
    nic_.SetRxIrqEnabled(q, true);
    return;
  }
  // Legacy IRQ-per-frame drain (the oracle): one frame at a time, each
  // classified through a per-frame protected crossing.
  for (;;) {
    CollectRx(q, 1);
    if (rx_batch_.empty()) break;
    ClassifyFrames();
  }
}

void PacketDataplane::ServiceRx() {
  ++stats_.nic_irqs;
  if (in_service_) return;  // nested NIC IRQ during a filter run: outer loop drains
  in_service_ = true;
  ServiceQueue(QueueForCurrentCpu());
  in_service_ = false;
}

void PacketDataplane::OnTxComplete() {
  // Completion work (descriptor reclaim) is already done by the NIC's
  // Advance; the driver half only accounts the interrupt. Transmit reuses
  // kDescDone descriptors directly.
  ++stats_.tx_completion_irqs;
}

bool PacketDataplane::Transmit(const std::vector<u8>& frame) {
  const u32 q = QueueForCurrentCpu();
  PhysicalMemory& pm = kernel_.machine().pm();
  const NicRing& ring = nic_.tx_ring(q);
  if (ring.count == 0) return false;
  const u32 desc = ring.desc_phys + tx_produce_[q] * kNicDescBytes;
  u32 status = 0, buf = 0;
  pm.Read32(desc + kNicDescStatus, &status);
  if (status == kDescOwn) {
    // Ring full. The oldest pending completion frees exactly this slot
    // (full ring => completion head == produce cursor), so the driver spins
    // on the doorbell until it retires — honest backpressure, charged to
    // the sending vCPU. Zero-time ring completion was the old bug.
    const u64 at = nic_.NextTxCompletion(q);
    if (at == IrqDevice::kIdle) return false;  // full with nothing pending: misprogrammed
    Cpu& cpu = kernel_.machine().cpu();
    if (at > cpu.cycles()) kernel_.Charge(static_cast<u32>(at - cpu.cycles()));
    nic_.queue_device(q)->Advance(cpu.cycles());
    pm.Read32(desc + kNicDescStatus, &status);
    if (status == kDescOwn) return false;
  }
  pm.Read32(desc + kNicDescBuf, &buf);
  const u32 len = std::min<u32>(static_cast<u32>(frame.size()), ring.buf_stride);
  pm.WriteBlock(buf, frame.data(), len);
  pm.Write32(desc + kNicDescLen, len);
  pm.Write32(desc + kNicDescStatus, kDescOwn);
  tx_produce_[q] = (tx_produce_[q] + 1) % ring.count;
  // The doorbell only schedules descriptor DMA; completions land
  // tx_dma_cycles() apart and raise the TX-completion IRQ from Advance.
  nic_.TxKick(q, kernel_.machine().cpu().cycles());
  ++stats_.tx_frames;
  return true;
}

bool PacketDataplane::TransmitUserFrame(Process& proc) {
  if (!tx_hook_) return Transmit(tx_frame_);
  return Transmit(tx_hook_(kernel_, proc, tx_frame_));
}

void PacketDataplane::SysPktRecv(u32 buf, u32 cap, u32 flags) {
  Process& proc = *kernel_.current();
  kernel_.Charge(kernel_.costs().pkt_syscall_base);
  if (proc.pkt_queue.empty()) {
    if (shutdown_) {
      kernel_.ReturnFromGate(kErrShutdown);
      return;
    }
    if (flags & 1) {
      kernel_.ReturnFromGate(kErrAgain);
      return;
    }
    proc.waiting_packet = true;
    kernel_.BlockCurrentForRestart();
    return;
  }
  const std::vector<u8>& pkt = proc.pkt_queue.front();
  const u32 n = std::min(cap, static_cast<u32>(pkt.size()));
  if (!kernel_.CopyToUser(proc, buf, pkt.data(), n)) {
    PopQueued(proc);
    kernel_.ReturnFromGate(kErrFault);
    return;
  }
  kernel_.Charge(n * kernel_.costs().pkt_copy_per_byte);
  PopQueued(proc);
  if (obs::FlightRecorder* rec = kernel_.recorder()) {
    rec->Record(kernel_.machine().current_cpu_index(),
                kernel_.machine().cpu().cycles(), obs::EventType::kFrameRecv,
                obs::EventClass::kArch, proc.pid, n);
  }
  kernel_.ReturnFromGate(n);
}

void PacketDataplane::SysPktSend(u32 buf, u32 len) {
  Process& proc = *kernel_.current();
  kernel_.Charge(kernel_.costs().pkt_syscall_base);
  if (len == 0 || len > nic_.tx_ring(QueueForCurrentCpu()).buf_stride) {
    kernel_.ReturnFromGate(kErrInval);
    return;
  }
  tx_frame_.resize(len);
  if (!kernel_.CopyFromUser(proc, buf, tx_frame_.data(), len)) {
    kernel_.ReturnFromGate(kErrFault);
    return;
  }
  kernel_.Charge(len * kernel_.costs().pkt_copy_per_byte);
  if (!TransmitUserFrame(proc)) {
    kernel_.ReturnFromGate(kErrAgain);
    return;
  }
  kernel_.ReturnFromGate(len);
}

void PacketDataplane::SysPktRecvM(u32 buf, u32 cap, u32 flags) {
  Process& proc = *kernel_.current();
  kernel_.Charge(kernel_.costs().pkt_syscall_base);
  if (proc.pkt_queue.empty()) {
    if (shutdown_) {
      kernel_.ReturnFromGate(kErrShutdown);
      return;
    }
    if (flags & 1) {
      kernel_.ReturnFromGate(kErrAgain);
      return;
    }
    proc.waiting_packet = true;
    kernel_.BlockCurrentForRestart();
    return;
  }
  // Assemble as many queued frames as fit into the caller's buffer as
  // [u32 len][bytes] records (4-byte aligned), then copy out once: the
  // recvmmsg idea — the gate + dispatch + base cost is paid once per batch,
  // only the per-frame copy and a small header cost scale with frames.
  records_.clear();
  u32 frames = 0;
  while (!proc.pkt_queue.empty()) {
    const std::vector<u8>& pkt = proc.pkt_queue.front();
    const u32 len = static_cast<u32>(pkt.size());
    const u32 rec = 4 + ((len + 3) & ~3u);
    if (static_cast<u32>(records_.size()) + rec > cap) break;
    const size_t at = records_.size();
    records_.resize(at + rec, 0);
    std::memcpy(records_.data() + at, &len, 4);
    std::memcpy(records_.data() + at + 4, pkt.data(), len);
    kernel_.Charge(kernel_.costs().pkt_msg_overhead + len * kernel_.costs().pkt_copy_per_byte);
    PopQueued(proc);
    ++frames;
  }
  if (frames == 0) {
    kernel_.ReturnFromGate(kErrInval);  // buffer too small for even one frame
    return;
  }
  if (!kernel_.CopyToUser(proc, buf, records_.data(), static_cast<u32>(records_.size()))) {
    kernel_.ReturnFromGate(kErrFault);
    return;
  }
  kernel_.ReturnFromGate(static_cast<u32>(records_.size()));
}

void PacketDataplane::SysPktSendM(u32 buf, u32 total) {
  Process& proc = *kernel_.current();
  kernel_.Charge(kernel_.costs().pkt_syscall_base);
  constexpr u32 kMaxBatchBytes = 65536;
  if (total < 8 || total > kMaxBatchBytes) {  // at least one header + one byte
    kernel_.ReturnFromGate(kErrInval);
    return;
  }
  records_.resize(total);
  if (!kernel_.CopyFromUser(proc, buf, records_.data(), total)) {
    kernel_.ReturnFromGate(kErrFault);
    return;
  }
  const u32 stride_cap = nic_.tx_ring(QueueForCurrentCpu()).buf_stride;
  u32 off = 0;
  u32 sent = 0;
  while (off + 4 <= total) {
    u32 len = 0;
    std::memcpy(&len, records_.data() + off, 4);
    if (len == 0) break;  // zero header terminates a partially-used buffer
    if (len > stride_cap || off + 4 + len > total) {
      if (sent == 0) {
        kernel_.ReturnFromGate(kErrInval);
        return;
      }
      break;
    }
    tx_frame_.assign(records_.begin() + off + 4, records_.begin() + off + 4 + len);
    kernel_.Charge(kernel_.costs().pkt_msg_overhead + len * kernel_.costs().pkt_copy_per_byte);
    if (!TransmitUserFrame(proc)) break;
    ++sent;
    off += 4 + ((len + 3) & ~3u);
  }
  kernel_.ReturnFromGate(sent);
}

void PacketDataplane::Shutdown() {
  shutdown_ = true;
  for (Pid pid : all_dests_) {
    Process* proc = kernel_.process(pid);
    if (proc != nullptr && proc->state == ProcessState::kBlocked && proc->waiting_packet) {
      kernel_.WakeProcess(*proc);
    }
  }
}

}  // namespace palladium
