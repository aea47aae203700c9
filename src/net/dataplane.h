// The protected-extension packet dataplane: NIC RX interrupts feed frames
// through packet filters running as Palladium kernel extensions (SPL 1,
// segment-confined — the paper's "compiled packet filter" deployed for
// real), and matching frames land in per-process delivery queues drained by
// the pkt_recv/pkt_recvm syscalls. TX goes back out through the NIC's
// descriptor rings.
//
// The kernel driver half (ring management, classify loop, queue delivery)
// is host code, like the rest of the kernel model; every filter decision is
// made by simulated code behind the simulated protection hardware, so a
// buggy or hostile filter can stall or crash only itself — the timer
// watchdog aborts it and the dataplane keeps forwarding on other flows.
//
// Fast path (default): per-core NIC queues with hardware RSS, NAPI-style
// interrupt mitigation (the RX IRQ masks itself and arms a poll loop that
// drains the ring in budget-bounded batches), and batched filter invocation
// (a vector of frames per protected SPL 1 crossing). The PR 3
// IRQ-per-packet / crossing-per-frame pipeline remains as the switchable
// oracle: PALLADIUM_NO_NAPI=1 (or Config{napi=false, filter_batch=1,
// queues=1}) must produce byte-identical served/dropped/match accounting.
#ifndef SRC_NET_DATAPLANE_H_
#define SRC_NET_DATAPLANE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/kernel_ext.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"

namespace palladium {

// The canonical packet-echo worker (simulated assembly, numeric syscall
// numbers so it composes with any prelude): mmap a buffer, then
// pkt_recv -> pkt_send until the dataplane shuts down; exit code = frames
// served. Shared by benches and tests so the worker and the syscall ABI
// cannot drift apart.
inline constexpr char kPktEchoWorkerSource[] = R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $4096, %ecx
  mov $3, %edx            ; PROT_READ|PROT_WRITE
  int $0x80
  mov %eax, %esi          ; packet buffer
  mov $0, %edi            ; served counter
loop:
  mov $220, %eax          ; SYS_PKT_RECV
  mov %esi, %ebx
  mov $2048, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done                 ; negative => dataplane shut down
  mov %eax, %ecx
  mov $221, %eax          ; SYS_PKT_SEND
  mov %esi, %ebx
  int $0x80
  inc %edi
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

// The batched echo worker: pkt_recvm drains a vector of frames per gate
// crossing ([u32 len][bytes] records, 4-byte aligned), pkt_sendm sends the
// same buffer back — the recvmmsg/sendmmsg idea, amortizing the
// gate + dispatch + syscall-base cost across the batch. Exit code = frames
// served (the sum of pkt_sendm return values).
inline constexpr char kPktEchoMWorkerSource[] = R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $8192, %ecx
  mov $3, %edx            ; PROT_READ|PROT_WRITE
  int $0x80
  mov %eax, %esi          ; batch buffer
  mov $0, %edi            ; served counter
loop:
  mov $223, %eax          ; SYS_PKT_RECVM
  mov %esi, %ebx
  mov $8192, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done                 ; negative => dataplane shut down
  mov %eax, %ecx          ; total bytes received
  mov $224, %eax          ; SYS_PKT_SENDM
  mov %esi, %ebx
  int $0x80
  cmp $0, %eax
  jl done
  add %eax, %edi          ; frames sent this batch
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

// How a flow spreads matched frames across its destination processes.
enum class FlowSteering : u8 {
  kRoundRobin,  // strict rotation (uniform load, no affinity)
  // RSS-style: hash the frame's 5-tuple and pick dests[hash % n], so every
  // wire flow sticks to one worker — and, with workers homed on different
  // vCPUs by the SMP scheduler, to one core. Full queues/dead workers fall
  // back to probing the remaining dests round-robin.
  kFlowHash,
};

class PacketDataplane {
 public:
  struct Config {
    FlowSteering steering = FlowSteering::kRoundRobin;
    // RX/TX queue pairs with hardware RSS; clamped to the machine's vCPU
    // count. Queue q is wired to vCPU q's local PIC and advanced by vCPU
    // q's IRQ hub, so each core services exactly its own queue.
    u32 queues = 1;
    // NAPI-style interrupt mitigation: the RX IRQ handler masks the queue's
    // line and polls the ring in kNapiPollBudget-frame batches until it
    // runs dry, then re-enables the IRQ. Off: one IRQ (and one drain) per
    // DMA'd frame, the PR 3 behavior.
    bool napi = true;
    // NIC ITR window (cycles): at most one RX interrupt per window per
    // queue; frames landing while the timer is armed share the interrupt
    // and are drained by the same NAPI poll. 0 = interrupt per DMA. Must
    // stay well under kRingEntries * inter-arrival or the ring overflows
    // while the timer holds the line.
    u32 rx_irq_moderation = 0;
    // Frames classified per protected filter crossing (the batch entry
    // point compiled alongside every filter). 1 = one crossing per frame,
    // the oracle behavior. Clamped to kMaxFilterBatch.
    u32 filter_batch = 32;
  };

  // Descriptors per RX and per TX ring, per queue.
  static constexpr u32 kRingEntries = 32;
  // One frame per buffer, so a buffer holds a full-size frame.
  static constexpr u32 kBufStride = 2048;
  // Frames one NAPI poll collects before classifying them.
  static constexpr u32 kNapiPollBudget = 32;

  struct Stats {
    u64 rx_frames = 0;           // consumed off the RX rings
    u64 filter_invocations = 0;  // protected kext calls made (crossings)
    u64 filter_frames = 0;       // frames evaluated across those crossings
    u64 filter_batches = 0;      // crossings that used the batch entry point
    u64 filter_aborts = 0;       // filters killed (fault or watchdog)
    u64 filter_calls_avoided = 0;  // backpressure: crossings not paid
    u64 matched = 0;
    u64 delivered = 0;           // enqueued to a process
    u64 dropped_no_match = 0;
    u64 dropped_queue_full = 0;
    u64 dropped_dead_dest = 0;   // destination exited/was killed
    u64 tx_frames = 0;           // frames enqueued to a TX ring
    u64 nic_irqs = 0;            // RX ServiceRx activations
    u64 tx_completion_irqs = 0;  // TX-completion handler activations
    u64 napi_polls = 0;          // non-empty poll batches
    u64 napi_frames = 0;         // frames collected by the poll loop
    u64 flow_upgrades = 0;       // live filter replacements (UpgradeFlow)
  };

  struct FlowInfo {
    std::string name;
    u32 ext_id = 0;
    u32 function_id = 0;
    u32 batch_function_id = 0;  // valid iff has_batch
    bool has_batch = false;
    u32 batch_stride = 0;
    bool dead = false;  // filter aborted; flow no longer matches
    std::vector<Pid> dests;
    u32 next_dest = 0;  // round-robin cursor
    u64 matched = 0;
  };

  // Builds the per-queue rings (frames from the kernel allocator), wires
  // each NIC queue to its owning core's PIC and IRQ hub, and registers the
  // pkt_recv/pkt_send/pkt_recvm/pkt_sendm syscalls and the NIC RX +
  // TX-completion IRQ handlers.
  PacketDataplane(Kernel& kernel, KernelExtensionManager& kext, Nic& nic);
  PacketDataplane(Kernel& kernel, KernelExtensionManager& kext, Nic& nic, const Config& config);
  // Unhooks everything registered in the constructor (IRQ handlers,
  // syscalls, the NIC queues' hub memberships) so a dataplane — and the
  // caller-owned NIC — may die before the kernel without leaving dangling
  // callbacks behind.
  ~PacketDataplane();

  // Compiles `filter_text` (src/filter syntax) to simulated code — both the
  // per-frame and the batched entry points — loads it as a protected kernel
  // extension named `name`, and routes matching frames across `dests`.
  // Flows are evaluated in registration order; the first match consumes the
  // frame.
  bool AddFlow(const std::string& name, const std::string& filter_text, std::vector<Pid> dests,
               std::string* diag);

  // Live filter upgrade (the paper's dynamically-replaceable extension
  // story): compiles `filter_text`, loads it as a *new* kernel extension
  // (versioned name, so both images coexist for the swap), atomically points
  // the flow's classification at the new function ids, then unloads the old
  // image — whose pages are unmapped, decode-cache/trace entries evicted and
  // TLB/D-TLB entries shot down. In-flight frames are never dropped: the
  // swap happens between classification runs (host code), so every frame is
  // classified by exactly one version. Must not be called from inside a
  // filter invocation. Only valid for flows created by AddFlow (which own
  // their extension segment).
  bool UpgradeFlow(const std::string& name, const std::string& filter_text, std::string* diag);

  // Registers a flow classified by an arbitrary Extension Function Table
  // entry (any loaded kext exporting the filter_run/pd_shared convention) —
  // the hook for hand-written or deliberately hostile filters. Such flows
  // are always invoked per-frame (no batch entry point).
  bool AddFlowFunction(const std::string& name, u32 ext_id, u32 function_id,
                       std::vector<Pid> dests);

  // NIC RX IRQ handler body for the current vCPU's queue. NAPI mode masks
  // the queue's IRQ and polls the ring dry in budget-bounded batches;
  // otherwise each DMA'd frame is drained and classified individually.
  // Re-entrancy safe (a nested NIC IRQ during a filter invocation defers to
  // the outer drain loop).
  void ServiceRx();

  // Declares the packet source drained: every sleeper in pkt_recv wakes and
  // gets kErrShutdown, now and on any later call.
  void Shutdown();
  bool shutdown() const { return shutdown_; }

  // Optional transform applied to frames a process sends with pkt_send; the
  // returned bytes are what actually enters the TX ring (the web server uses
  // this to run request parsing/response formatting on the way out).
  using TxHook = std::function<std::vector<u8>(Kernel&, Process&, const std::vector<u8>&)>;
  void set_tx_hook(TxHook hook) { tx_hook_ = std::move(hook); }

  // Sends a frame from kernel context through the current vCPU's TX ring
  // (also the backend of pkt_send). The doorbell only schedules descriptor
  // DMA; when the ring is full the driver spins until the oldest pending
  // completion retires (charged to the sending vCPU). Returns false only
  // when the ring is unusable.
  bool Transmit(const std::vector<u8>& frame);

  // The RSS hash: a stable function of (src ip, dst ip, proto, src port,
  // dst port) — the same hash the NIC uses for queue placement. Exposed so
  // tests can predict kFlowHash placement.
  static u32 FlowHash(const std::vector<u8>& frame);

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const std::vector<FlowInfo>& flows() const { return flows_; }
  Nic& nic() { return nic_; }

 private:
  // Compiled-filter deployment shared by AddFlow and UpgradeFlow: compiles
  // `filter_text` (per-frame + batch entry points), loads it as extension
  // `kext_name`, and resolves the function ids.
  struct CompiledFilter {
    u32 ext_id = 0;
    u32 function_id = 0;
    bool has_batch = false;
    u32 batch_function_id = 0;
    u32 batch_stride = 0;
  };
  std::optional<CompiledFilter> LoadFilterExtension(const std::string& kext_name,
                                                    const std::string& filter_text,
                                                    std::string* diag);
  void SysPktRecv(u32 buf, u32 cap, u32 flags);
  void SysPktSend(u32 buf, u32 len);
  void SysPktRecvM(u32 buf, u32 cap, u32 flags);
  void SysPktSendM(u32 buf, u32 total);
  void OnTxComplete();
  // Classifies `frames` (in arrival order) through the flows and delivers:
  // match bits are computed flow-major with batched crossings where
  // available; delivery and drop accounting then run in strict frame order,
  // the same state machine as the per-frame oracle. Destination occupancy
  // is checked before the protected crossing: when every live destination
  // is saturated a frame drops pre-filter and the crossing counts as
  // avoided (backpressure).
  void ClassifyFrames(std::vector<std::vector<u8>>& frames);
  // True when every live destination of every live flow has a full queue
  // (then *blocker = the first full destination, for drop attribution).
  bool AllDestsSaturated(Process** blocker);
  bool Deliver(FlowInfo& flow, const std::vector<u8>& frame);
  // Pops up to `budget` DMA-completed frames off queue q's RX ring,
  // returning the descriptors to the hardware.
  void CollectRx(u32 q, u32 budget, std::vector<std::vector<u8>>* out);
  // NAPI poll loop for queue q: classify in batches, advancing the wire
  // between batches so frames arriving mid-poll are drained by this same
  // loop instead of raising fresh IRQs.
  void PollQueue(u32 q);
  void ServiceQueue(u32 q);
  u32 QueueForCurrentCpu() const;

  Kernel& kernel_;
  KernelExtensionManager& kext_;
  Nic& nic_;
  Config config_;
  Stats stats_;
  std::vector<FlowInfo> flows_;
  std::vector<Pid> all_dests_;
  TxHook tx_hook_;
  std::vector<u32> rx_consume_;  // per queue: next RX descriptor to inspect
  std::vector<u32> tx_produce_;  // per queue: next TX descriptor to fill
  bool in_service_ = false;
  bool shutdown_ = false;
  u32 upgrade_seq_ = 0;  // versions UpgradeFlow kext names
};

}  // namespace palladium

#endif  // SRC_NET_DATAPLANE_H_
