// Figure 7: packet-filter cost (cycles) vs number of conjunctive terms, all
// terms true — compiled filter running as a Palladium kernel extension vs
// the interpreted BPF filter. Both run on the same simulated CPU; the BPF
// interpreter itself is simulated machine code at SPL 0.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/bpf/bpf.h"
#include "src/filter/filter.h"
#include "src/hw/bare_machine.h"
#include "src/net/packet.h"

namespace palladium {
namespace {

const char* kFilterSources[] = {
    "",
    "ip.proto == 6",
    "ip.proto == 6 && ip.src == 10.20.30.40",
    "ip.proto == 6 && ip.src == 10.20.30.40 && ip.dst == 10.20.30.41",
    "ip.proto == 6 && ip.src == 10.20.30.40 && ip.dst == 10.20.30.41 && tcp.dport == 8080",
};

PacketSpec MatchingPacket() {
  PacketSpec spec;
  spec.proto = kIpProtoTcp;
  spec.src_ip = 0x0A141E28;   // 10.20.30.40
  spec.dst_ip = 0x0A141E29;   // 10.20.30.41
  spec.dst_port = 8080;
  return spec;
}

// Compiled filter as a kernel extension: returns invocation cycles.
u64 MeasurePalladium(const FilterExpr& expr, const std::vector<u8>& pkt, bool* match) {
  Machine machine;
  Kernel kernel(machine);
  KernelExtensionManager kext(kernel);
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(expr), &aerr);
  if (!obj) {
    std::fprintf(stderr, "compile: %s\n", aerr.ToString().c_str());
    std::exit(1);
  }
  std::string diag;
  auto ext = kext.LoadExtension("filter", *obj, &diag);
  if (!ext) {
    std::fprintf(stderr, "load: %s\n", diag.c_str());
    std::exit(1);
  }
  auto fid = kext.FindFunction("filter:filter_run");
  u32 len = static_cast<u32>(pkt.size());
  kext.WriteShared(*ext, 0, &len, 4);
  kext.WriteShared(*ext, 4, pkt.data(), len);
  // Warm-up, then measured run.
  kext.Invoke(*fid, len);
  auto r = kext.Invoke(*fid, len);
  if (!r.ok) {
    std::fprintf(stderr, "invoke: %s\n", r.error.c_str());
    std::exit(1);
  }
  *match = r.value == 1;
  return r.cycles;
}

// Interpreted BPF at SPL 0 on the bare machine: returns call cycles.
u64 MeasureBpf(const FilterExpr& expr, const std::vector<u8>& pkt, bool* match) {
  constexpr u32 kProgAddr = 0x40000;
  constexpr u32 kPktAddr = 0x48000;
  constexpr u32 kCodeBase = 0x10000;
  BpfProgram prog = CompileFilterToBpf(expr);
  std::string diag;
  if (!prog.Validate(&diag)) {
    std::fprintf(stderr, "bpf validate: %s\n", diag.c_str());
    std::exit(1);
  }
  BareMachine bm;
  std::string src = BpfInterpreterAsmSource(kProgAddr, kPktAddr) + R"(
  .global main
main:
  push $)" + std::to_string(pkt.size()) +
                    R"(
  call bpf_run
  pop %ecx
  push $)" + std::to_string(pkt.size()) +
                    R"(
  call bpf_run          ; warmed, measured via cycle delta below
  hlt
)";
  auto img = bm.LoadProgram(src, kCodeBase, &diag);
  if (!img) {
    std::fprintf(stderr, "bpf asm: %s\n", diag.c_str());
    std::exit(1);
  }
  auto ser = prog.Serialize();
  bm.pm().WriteBlock(kProgAddr, ser.data(), static_cast<u32>(ser.size()));
  bm.pm().WriteBlock(kPktAddr, pkt.data(), static_cast<u32>(pkt.size()));
  bm.Start(*img->Lookup("main"), 0, 0x80000);

  // Run the warm-up call, snapshot, run the measured call.
  // We detect the boundary by running to completion twice: first measure the
  // total, then the total of a single-call variant, and subtract.
  StopInfo stop = bm.Run(10'000'000);
  if (stop.reason != StopReason::kHalted) {
    std::fprintf(stderr, "bpf run did not halt\n");
    std::exit(1);
  }
  u64 two_calls = bm.cpu().cycles();
  *match = bm.cpu().reg(Reg::kEax) == 1;

  // Single-call variant for the subtraction.
  BareMachine bm1;
  std::string src1 = BpfInterpreterAsmSource(kProgAddr, kPktAddr) + R"(
  .global main
main:
  push $)" + std::to_string(pkt.size()) +
                     R"(
  call bpf_run
  pop %ecx
  hlt
)";
  auto img1 = bm1.LoadProgram(src1, kCodeBase, &diag);
  if (!img1) {
    std::fprintf(stderr, "bpf asm: %s\n", diag.c_str());
    std::exit(1);
  }
  bm1.pm().WriteBlock(kProgAddr, ser.data(), static_cast<u32>(ser.size()));
  bm1.pm().WriteBlock(kPktAddr, pkt.data(), static_cast<u32>(pkt.size()));
  bm1.Start(*img1->Lookup("main"), 0, 0x80000);
  if (bm1.Run(10'000'000).reason != StopReason::kHalted) {
    std::fprintf(stderr, "bpf run did not halt\n");
    std::exit(1);
  }
  u64 one_call = bm1.cpu().cycles();
  return two_calls > one_call ? two_calls - one_call : one_call;
}

}  // namespace
}  // namespace palladium

int main() {
  using namespace palladium;

  std::printf("Figure 7: packet filter cost vs number of terms (all terms true)\n");
  std::printf("%-8s %18s %14s %8s\n", "Terms", "Palladium (cyc)", "BPF (cyc)", "BPF/Pd");

  auto pkt = BuildPacket(MatchingPacket());
  BenchJson json("fig7");
  for (int terms = 0; terms <= 4; ++terms) {
    std::string err;
    auto expr = ParseFilter(kFilterSources[terms], &err);
    if (!expr) {
      std::fprintf(stderr, "parse: %s\n", err.c_str());
      return 1;
    }
    bool pd_match = false, bpf_match = false;
    u64 pd = MeasurePalladium(*expr, pkt, &pd_match);
    u64 bpf = MeasureBpf(*expr, pkt, &bpf_match);
    if (!pd_match || !bpf_match) {
      std::fprintf(stderr, "filter disagreement at %d terms (pd=%d bpf=%d)\n", terms,
                   pd_match, bpf_match);
      return 1;
    }
    std::printf("%-8d %18llu %14llu %8.2f\n", terms, static_cast<unsigned long long>(pd),
                static_cast<unsigned long long>(bpf), static_cast<double>(bpf) / pd);
    json.Set("terms_" + std::to_string(terms) + "_palladium_cycles", pd);
    json.Set("terms_" + std::to_string(terms) + "_bpf_cycles", bpf);
  }
  std::printf("\nPaper reference: BPF grows steeply with terms while the compiled\n");
  std::printf("Palladium filter is nearly flat; at 4 terms the extension-based filter\n");
  std::printf("is more than twice as fast as the interpreted one.\n");
  std::printf("wrote %s\n", json.Write().c_str());
  return 0;
}
