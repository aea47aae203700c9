#include "src/core/trampoline.h"

#include <sstream>

namespace palladium {

std::string PrepareStubSource(const TrampolineSlots& slots, u32 ext_arg_slot,
                              u32 ext_stack_ptr, u16 ext_cs_selector, u16 ext_ss_selector,
                              u32 transfer_addr) {
  std::ostringstream os;
  os << "  .global prepare\n"
     << "prepare:\n"
     // pushl 0x4(%esp); popl ExtensionStack — copy the argument word. This
     // and the phantom-frame pushes below are ordinary data accesses, so the
     // protection-domain crossing executes on the CPU's data fast path; the
     // cost of the crossing is the lret privilege transition, not paging.
     << "  ld 4(%esp), %eax\n"
     << "  st %eax, " << ext_arg_slot << "\n"
     // movl %esp, SP2 ; movl %ebp, BP2
     << "  st %esp, " << slots.sp2_slot << "\n"
     << "  st %ebp, " << slots.bp2_slot << "\n"
     // Phantom activation record for lret: SS, ESP, CS, EIP.
     << "  push $" << ext_ss_selector << "\n"
     << "  push $" << ext_stack_ptr << "\n"
     << "  push $" << ext_cs_selector << "\n"
     << "  push $" << transfer_addr << "\n"
     << "  lret\n";
  return os.str();
}

std::string TransferStubSource(u32 ext_function_addr, u16 app_gate_selector) {
  std::ostringstream os;
  os << "  .global transfer\n"
     << "transfer:\n"
     << "  call " << ext_function_addr << "\n"
     << "  lcall $" << app_gate_selector << "\n";
  return os.str();
}

std::string AppCallGateSource(const TrampolineSlots& slots) {
  std::ostringstream os;
  os << "  .global app_call_gate\n"
     << "app_call_gate:\n"
     << "  ld " << slots.sp2_slot << ", %esp\n"
     << "  ld " << slots.bp2_slot << ", %ebp\n"
     << "  ret\n";
  return os.str();
}

std::string AppServiceStubSource(u32 service_function_addr, u32 gate_frame_addr) {
  std::ostringstream os;
  // Gate-entry stack (after the 3->2 lcall): [EIP][CS][old ESP][old SS],
  // always built at the same place (the TSS PL2 stack), so the stub can
  // rematerialize it as a constant after the service returns — no register
  // survives the service call, which follows the standard ABI.
  os << "  .global service_stub\n"
     << "service_stub:\n"
     << "  ld 8(%esp), %esp\n"      // switch to the extension's own stack
     << "  call " << service_function_addr << "\n"
     << "  mov $" << gate_frame_addr << ", %esp\n"  // back to the gate frame
     << "  lret\n";
  return os.str();
}

std::string LibxSource() {
  return R"(
  .extern pd_heap_base
  .extern pd_heap_limit
  .global xmalloc
  .global xfree
; u32 xmalloc(u32 size): 8-byte-aligned bump allocation from the extension
; segment's heap; returns 0 on exhaustion.
xmalloc:
  ld 4(%esp), %ecx
  add $7, %ecx
  and $0xFFFFFFF8, %ecx
  ld xheap_ptr, %eax
  mov %eax, %edx
  add %ecx, %edx
  ld xheap_limit, %ecx
  cmp %ecx, %edx
  ja xmalloc_fail
  st %edx, xheap_ptr
  ret
xmalloc_fail:
  mov $0, %eax
  ret
; xfree is a no-op for the bump allocator.
xfree:
  ret
  .data
  .global xheap_ptr
xheap_ptr:
  .long pd_heap_base
xheap_limit:
  .long pd_heap_limit
)";
}

std::string KextTransferStubSource(u32 function_offset, u16 kernel_return_gate_selector) {
  std::ostringstream os;
  os << "  .global kext_transfer\n"
     << "kext_transfer:\n"
     << "  call " << function_offset << "\n"
     << "  lcall $" << kernel_return_gate_selector << "\n";
  return os.str();
}

}  // namespace palladium
