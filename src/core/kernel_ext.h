// Palladium's kernel extension mechanism (paper Section 4.3): extension
// segments at SPL 1 carved out of the kernel address space, the modified-
// insmod loader, the Extension Function Table, synchronous and asynchronous
// invocation, shared data areas, and the kernel-service gate (INT 0x81).
#ifndef SRC_CORE_KERNEL_EXT_H_
#define SRC_CORE_KERNEL_EXT_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/asm/object_file.h"
#include "src/kernel/kernel.h"

namespace palladium {

struct KextOptions {
  u64 cycle_limit = 2'000'000;   // per-invocation CPU-time cap
  u32 into_segment = 0;          // 0 = new segment; else an existing ext id
};

class KernelExtensionManager {
 public:
  // Every extension segment spans 1 MB, with one stack at its top (paper).
  static constexpr u32 kSegmentSpan = 1u << 20;
  static constexpr u32 kStackBytes = 16 * 1024;
  // A transfer stub: `call f; lcall kernel-return-gate`. The page below the
  // stack holds kPageSize / kStubBytes of them per segment.
  static constexpr u32 kStubBytes = 2 * kInsnSize;

  struct InvokeResult {
    bool ok = false;
    u32 value = 0;
    u64 cycles = 0;  // cycles consumed by the invocation
    std::string error;
  };

  using ServiceFn = std::function<u32(Kernel&, u32 ebx, u32 ecx, u32 edx)>;

  explicit KernelExtensionManager(Kernel& kernel);

  // The modified-insmod path: links `obj` segment-relative, maps an SPL 1
  // extension segment in kernel space, installs code/data/stack, generates a
  // Transfer stub per global text symbol, and registers those functions in
  // the Extension Function Table. Returns the extension id. A failed load
  // leaves nothing behind: a fresh segment is released, and a segment named
  // by `into_segment` is left as it was.
  std::optional<u32> LoadExtension(const std::string& name, const ObjectFile& obj,
                                   std::string* diag, const KextOptions& options = KextOptions{});

  void UnloadExtension(u32 ext_id);

  // Extension Function Table lookup: "<ext-name>:<function>" or, if
  // unambiguous, just "<function>". Returns the function id.
  std::optional<u32> FindFunction(const std::string& name) const;

  // Synchronous protected invocation at SPL 1, from kernel context. `arg` is
  // the single 4-byte argument of the extension call model.
  InvokeResult Invoke(u32 function_id, u32 arg);

  // Asynchronous extensions: the kernel enqueues a request, marks the module
  // busy, and returns; queued requests run to completion later.
  bool EnqueueAsync(u32 function_id, u32 arg);
  u32 DrainAsync();  // runs all pending requests; returns the count executed
  bool IsBusy(u32 ext_id) const;

  // Shared data area: the module's exported `pd_shared` symbol (Section
  // 4.3); kernel and extension exchange bulk data (e.g. packet headers)
  // through it without copying through syscall boundaries.
  bool WriteShared(u32 ext_id, u32 offset, const void* src, u32 len);
  bool ReadShared(u32 ext_id, u32 offset, void* dst, u32 len);

  // Kernel services callable from extensions via INT 0x81 (EAX = number).
  // printk / get-cycles / packet-output are pre-registered.
  void RegisterService(u32 number, ServiceFn fn);
  u64 packets_output() const { return packets_output_; }
  const std::string& printk_output() const { return printk_output_; }

  struct ExtensionState {
    std::string name;
    u32 linear_base = 0;  // kernel-linear base of the segment
    u32 span = 0;
    u16 code_selector = 0;
    u16 data_selector = 0;
    u32 stack_top = 0;    // segment-relative
    u32 link_bump = 0;    // next free segment-relative offset for modules
    u32 stub_bump = 0;    // transfer-stub allocation (segment-relative)
    u64 cycle_limit = 0;
    bool aborted = false;
    bool busy = false;
    std::map<std::string, u32> symbols;  // segment-relative
    std::optional<u32> shared_offset;
  };
  const ExtensionState* extension(u32 ext_id) const;

  struct FunctionEntry {
    u32 ext_id = 0;  // 0 = tombstone (extension unloaded; id stays reserved)
    std::string name;
    u32 transfer_offset = 0;  // segment-relative entry for Invoke
  };
  const std::vector<FunctionEntry>& function_table() const { return eft_; }

  // Lifetime / invocation counters for the obs layer.
  u64 loads() const { return loads_; }
  u64 unloads() const { return unloads_; }
  u64 invocations() const { return invocations_; }
  u64 aborts() const { return aborts_; }
  u64 invoke_cycles() const { return invoke_cycles_; }

 private:
  void HandleKernelService();
  // UnloadExtension's body, without counting an unload: a failed load
  // releases its fresh segment through it.
  void ReleaseSegment(u32 ext_id);
  // The kernel-linear address of [offset, offset + len) of the extension's
  // shared area, if it has one and the span stays inside its segment.
  std::optional<u32> SharedSpan(u32 ext_id, u32 offset, u32 len) const;
  InvokeResult Abort(ExtensionState& ext, const std::string& reason, u32 charge);

  Kernel& kernel_;
  std::map<u32, ExtensionState> extensions_;
  u32 next_ext_id_ = 1;
  u32 next_region_offset_ = 0;  // within [kKextRegionBase, +kKextRegionSpan)
  // Region offsets returned by ReleaseSegment; LoadExtension reuses the
  // first before bumping next_region_offset_.
  std::vector<u32> free_regions_;
  std::vector<FunctionEntry> eft_;
  std::map<u32, ServiceFn> services_;
  std::deque<std::pair<u32, u32>> async_queue_;  // (function id, arg)
  u32 idle_stack_top_ = 0;  // kernel-segment offset for no-process invocations
  u64 packets_output_ = 0;
  u32 service_ext_ = 0;  // extension id whose service call is being handled
  std::string printk_output_;
  u64 loads_ = 0;
  u64 unloads_ = 0;
  u64 invocations_ = 0;
  u64 aborts_ = 0;
  u64 invoke_cycles_ = 0;  // total cycles spent inside Invoke (incl. crossing)
};

}  // namespace palladium

#endif  // SRC_CORE_KERNEL_EXT_H_
