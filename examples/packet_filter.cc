// Kernel-extension example: a compiled packet filter running safely inside
// the kernel at SPL 1 (the paper's second demo application, Section 5.2).
//
//  1. Compile a filter expression to native (simulated) code.
//  2. Load it as a kernel extension with a shared data area.
//  3. Stream a synthetic trace through it and through the interpreted BPF
//     baseline; cross-check the decisions and compare cycle costs.
//  4. Load a *buggy* filter that dereferences a wild pointer: the segment
//     limit catches it and the kernel aborts the extension, unharmed.
#include <cstdio>
#include <string>

#include "src/asm/assembler.h"
#include "src/bpf/bpf.h"
#include "src/core/kernel_ext.h"
#include "src/filter/filter.h"
#include "src/hw/bare_machine.h"
#include "src/net/packet.h"

using namespace palladium;

int main() {
  const std::string filter_text =
      "ip.proto == 6 && ip.src == 10.20.30.40 && tcp.dport == 8080";
  std::printf("filter: %s\n\n", filter_text.c_str());

  std::string err;
  auto expr = ParseFilter(filter_text, &err);
  if (!expr) {
    std::fprintf(stderr, "parse: %s\n", err.c_str());
    return 1;
  }

  // --- Compiled filter as a kernel extension --------------------------------
  Machine machine;
  Kernel kernel(machine);
  KernelExtensionManager kext(kernel);

  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(*expr), &aerr);
  if (!obj) {
    std::fprintf(stderr, "compile: %s\n", aerr.ToString().c_str());
    return 1;
  }
  std::string diag;
  auto ext = kext.LoadExtension("filter", *obj, &diag);
  if (!ext) {
    std::fprintf(stderr, "insmod: %s\n", diag.c_str());
    return 1;
  }
  auto fid = kext.FindFunction("filter:filter_run");

  // --- Stream a trace --------------------------------------------------------
  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.src_ip = 0x0A141E28;  // 10.20.30.40
  match.dst_port = 8080;
  TraceGenerator gen(2026, match, 0.25);
  BpfProgram bpf = CompileFilterToBpf(*expr);

  u32 accepted = 0, total = 200, disagreements = 0;
  u64 compiled_cycles = 0;
  for (u32 i = 0; i < total; ++i) {
    bool expect_match = false;
    auto pkt = BuildPacket(gen.Next(&expect_match));
    u32 len = static_cast<u32>(pkt.size());
    kext.WriteShared(*ext, 0, &len, 4);
    kext.WriteShared(*ext, 4, pkt.data(), len);
    auto r = kext.Invoke(*fid, len);
    if (!r.ok) {
      std::fprintf(stderr, "invoke failed: %s\n", r.error.c_str());
      return 1;
    }
    compiled_cycles += r.cycles;
    u32 bpf_verdict = BpfInterpretHost(bpf, pkt.data(), len);
    if (bpf_verdict != r.value) ++disagreements;
    if (r.value == 1) ++accepted;
  }
  std::printf("trace: %u packets, %u accepted, %u compiled/BPF disagreements\n", total,
              accepted, disagreements);
  std::printf("compiled filter: %.1f cycles/packet (protected SPL 1 invocation included)\n\n",
              static_cast<double>(compiled_cycles) / total);

  // --- A buggy filter cannot hurt the kernel --------------------------------
  auto bad_obj = Assemble(R"(
  .global filter_run
filter_run:
  mov $0x00F00000, %ebx    ; far outside the 1 MB extension segment
  ld 0(%ebx), %eax         ; segment-limit #GP
  ret
  .data
  .global pd_shared
pd_shared:
  .space 64
)",
                          &aerr);
  if (!kext.LoadExtension("buggy", *bad_obj, &diag)) {
    std::fprintf(stderr, "insmod: %s\n", diag.c_str());
    return 1;
  }
  auto bad_fid = kext.FindFunction("buggy:filter_run");
  if (!bad_fid) {
    std::fprintf(stderr, "buggy:filter_run not exported\n");
    return 1;
  }
  auto bad_result = kext.Invoke(*bad_fid, 0);
  std::printf("buggy filter invocation: %s\n",
              bad_result.ok ? "SUCCEEDED (bad!)" : bad_result.error.c_str());

  // The good filter (and the kernel) are unaffected.
  auto again = kext.Invoke(*fid, 64);
  std::printf("original filter still runs: %s\n", again.ok ? "yes" : "no");
  std::printf("\nThe buggy module was confined by its segment limit, aborted, and the\n");
  std::printf("rest of the kernel kept working — the paper's core safety property.\n");
  return (disagreements == 0 && !bad_result.ok && again.ok) ? 0 : 1;
}
