// Protection head-to-head: the same packet-filter workload under (a)
// unprotected run-to-completion, (b) Palladium segmentation+paging — both
// the per-frame crossing and the batched entry point — (c) SFI sandboxing,
// and (d) the interpreted BPF baseline; plus the RPC (Table 2) row and a
// live filter upgrade under sustained dataplane traffic. Every mode runs
// the identical 64-packet mixed trace and is cross-checked, packet by
// packet, against the host filter evaluator before any number is reported.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/bpf/bpf.h"
#include "src/filter/filter.h"
#include "src/hw/bare_machine.h"
#include "src/hw/nic.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/rpc/rpc.h"
#include "src/sfi/sfi.h"

namespace palladium {
namespace {

constexpr char kFilterText[] = "ip.proto == 6 && tcp.dport == 7777";
constexpr u32 kPackets = 64;

struct Workload {
  std::vector<std::vector<u8>> packets;
  std::vector<bool> verdicts;  // host ground truth
};

Workload BuildWorkload(const FilterExpr& expr) {
  Workload w;
  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(7777, match, 0.5);
  for (u32 i = 0; i < kPackets; ++i) {
    bool unused = false;
    w.packets.push_back(BuildPacket(gen.Next(&unused)));
    w.verdicts.push_back(
        EvalFilterHost(expr, w.packets.back().data(),
                       static_cast<u32>(w.packets.back().size())));
  }
  return w;
}

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "%s: %s\n", what, detail.c_str());
  std::exit(1);
}

void CheckVerdict(const char* mode, u32 i, bool got, bool want) {
  if (got != want) {
    std::fprintf(stderr, "%s: packet %u verdict %d, host says %d\n", mode, i, got, want);
    std::exit(1);
  }
}

// (a) Unprotected run-to-completion: the very same compiled-filter code the
// Palladium mode runs, called directly at CPL 0 with no protection boundary.
u64 MeasureUnprotected(const FilterExpr& expr, const Workload& w) {
  BareMachine bm;
  std::string diag;
  const std::string src = CompileFilterToAsm(expr) + R"(
  .text
  .global main
main:
  mov $pd_shared, %ebx
  ld 0(%ebx), %eax
  push %eax
  call filter_run
  pop %ecx
  hlt
)";
  auto img = bm.LoadProgram(src, 0x10000, &diag);
  if (!img) Die("unprotected asm", diag);
  const u32 shared = *img->Lookup("pd_shared");
  const u32 entry = *img->Lookup("main");

  auto stage_and_run = [&](u32 i) -> bool {
    const auto& pkt = w.packets[i];
    const u32 len = static_cast<u32>(pkt.size());
    bm.pm().WriteBlock(shared, &len, 4);
    bm.pm().WriteBlock(shared + 4, pkt.data(), len);
    bm.Start(entry, 0, 0x80000);
    StopInfo stop = bm.Run(10'000'000);
    if (stop.reason != StopReason::kHalted) Die("unprotected", "did not halt");
    return bm.cpu().reg(Reg::kEax) == 1;
  };
  stage_and_run(0);  // warm the decode cache
  const u64 before = bm.cpu().cycles();
  for (u32 i = 0; i < kPackets; ++i) {
    CheckVerdict("unprotected", i, stage_and_run(i), w.verdicts[i]);
  }
  return bm.cpu().cycles() - before;
}

// (b) Palladium, one protected crossing per frame.
u64 MeasurePalladium(const FilterExpr& expr, const Workload& w) {
  Machine machine;
  Kernel kernel(machine);
  KernelExtensionManager kext(kernel);
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(expr), &aerr);
  if (!obj) Die("palladium asm", aerr.ToString());
  std::string diag;
  auto ext = kext.LoadExtension("flt", *obj, &diag);
  if (!ext) Die("palladium load", diag);
  auto fid = kext.FindFunction("flt:filter_run");
  if (!fid) Die("palladium", "filter_run missing");

  auto stage = [&](u32 i) -> u32 {
    const auto& pkt = w.packets[i];
    const u32 len = static_cast<u32>(pkt.size());
    kext.WriteShared(*ext, 0, &len, 4);
    kext.WriteShared(*ext, 4, pkt.data(), len);
    return len;
  };
  kext.Invoke(*fid, stage(0));  // warm
  u64 total = 0;
  for (u32 i = 0; i < kPackets; ++i) {
    auto r = kext.Invoke(*fid, stage(i));
    if (!r.ok) Die("palladium invoke", r.error);
    CheckVerdict("palladium", i, r.value == 1, w.verdicts[i]);
    total += r.cycles;
  }
  return total;
}

// (b') Palladium batched: one crossing classifies up to kMaxFilterBatch
// frames through the filter_run_batch entry (the dataplane's NAPI path).
u64 MeasurePalladiumBatched(const FilterExpr& expr, const Workload& w) {
  Machine machine;
  Kernel kernel(machine);
  KernelExtensionManager kext(kernel);
  const u32 stride = 4 + ((2048u + 3) & ~3u);
  const u32 capacity = kFilterBatchBase + kMaxFilterBatch * stride;
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(expr, capacity, stride), &aerr);
  if (!obj) Die("batched asm", aerr.ToString());
  std::string diag;
  auto ext = kext.LoadExtension("fltb", *obj, &diag);
  if (!ext) Die("batched load", diag);
  auto fid = kext.FindFunction("fltb:filter_run_batch");
  if (!fid) Die("batched", "filter_run_batch missing");

  auto run_batch = [&](u32 first, u32 count) -> KernelExtensionManager::InvokeResult {
    kext.WriteShared(*ext, 0, &count, 4);
    for (u32 j = 0; j < count; ++j) {
      const auto& pkt = w.packets[first + j];
      const u32 len = static_cast<u32>(pkt.size());
      const u32 base = kFilterBatchBase + j * stride;
      kext.WriteShared(*ext, base, &len, 4);
      kext.WriteShared(*ext, base + 4, pkt.data(), len);
    }
    return kext.Invoke(*fid, count);
  };
  run_batch(0, kMaxFilterBatch);  // warm
  u64 total = 0;
  for (u32 first = 0; first < kPackets; first += kMaxFilterBatch) {
    const u32 count = std::min(kMaxFilterBatch, kPackets - first);
    auto r = run_batch(first, count);
    if (!r.ok) Die("batched invoke", r.error);
    for (u32 j = 0; j < count; ++j) {
      CheckVerdict("batched", first + j, ((r.value >> j) & 1u) == 1u,
                   w.verdicts[first + j]);
    }
    total += r.cycles;
  }
  return total;
}

// (c) SFI. The compiled-filter codegen uses all six GPRs, which leaves no
// scratch register for the rewriter — so the SFI mode runs a hand-written
// equivalent of the same predicate restricted to eax/ebx/ecx/esi (%edx is
// the rewriter's scratch, %edi stays free). `rewritten` selects the
// sandboxed or the untouched original (the SFI overhead baseline).
constexpr u32 kSfiBase = 0x00400000;
constexpr u32 kSfiBits = 20;
constexpr u32 kSfiLenCell = kSfiBase + 0x5FF00;
constexpr u32 kSfiPkt = kSfiBase + 0x60000;

std::string SfiFilterSource() {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
  .global filter_run
filter_run:
  push %%ebp
  mov %%esp, %%ebp
  ld 8(%%ebp), %%ecx
  cmp $38, %%ecx          ; ethernet + ip + dport must be in-bounds
  jb no
  mov $%u, %%ebx
  ld8 12(%%ebx), %%eax    ; ether.type == 0x0800
  shl $8, %%eax
  ld8 13(%%ebx), %%esi
  add %%esi, %%eax
  cmp $0x0800, %%eax
  jne no
  ld8 23(%%ebx), %%eax    ; ip.proto == 6
  cmp $6, %%eax
  jne no
  ld8 36(%%ebx), %%eax    ; be16 tcp.dport == 7777
  shl $8, %%eax
  ld8 37(%%ebx), %%esi
  add %%esi, %%eax
  cmp $7777, %%eax
  jne no
  mov $1, %%eax
  jmp out
no:
  mov $0, %%eax
out:
  pop %%ebp
  ret
  .global main
main:
  mov $%u, %%ebx
  ld 0(%%ebx), %%eax
  push %%eax
  call filter_run
  pop %%ecx
  hlt
)",
                kSfiPkt, kSfiLenCell);
  return buf;
}

u64 MeasureSfi(const Workload& w, bool rewritten, SfiStats* stats) {
  AssembleError aerr;
  auto obj = Assemble(SfiFilterSource(), &aerr);
  if (!obj) Die("sfi asm", aerr.ToString());
  ObjectFile to_run = *obj;
  if (rewritten) {
    SfiOptions opt;
    opt.sandbox_base = kSfiBase;
    opt.sandbox_bits = kSfiBits;
    std::string diag;
    auto rw = SfiRewrite(*obj, opt, stats, &diag);
    if (!rw) Die("sfi rewrite", diag);
    to_run = *rw;
  }
  BareMachine bm;
  LinkError lerr;
  auto img = LinkImage(to_run, kSfiBase, {}, &lerr);
  if (!img) Die("sfi link", lerr.message);
  if (!bm.LoadImage(*img)) Die("sfi", "image does not fit");
  const u32 entry = *img->Lookup("main");

  auto stage_and_run = [&](u32 i) -> bool {
    const auto& pkt = w.packets[i];
    const u32 len = static_cast<u32>(pkt.size());
    bm.pm().WriteBlock(kSfiLenCell, &len, 4);
    bm.pm().WriteBlock(kSfiPkt, pkt.data(), len);
    bm.Start(entry, 0, kSfiBase + 0x80000);
    StopInfo stop = bm.Run(10'000'000);
    if (stop.reason != StopReason::kHalted) Die("sfi", "did not halt");
    return bm.cpu().reg(Reg::kEax) == 1;
  };
  stage_and_run(0);  // warm
  const u64 before = bm.cpu().cycles();
  for (u32 i = 0; i < kPackets; ++i) {
    CheckVerdict(rewritten ? "sfi" : "sfi-baseline", i, stage_and_run(i), w.verdicts[i]);
  }
  return bm.cpu().cycles() - before;
}

// (d) Interpreted BPF at SPL 0, fed the actual per-frame length. The host
// reference interpreter runs the same program in parallel for the obs
// counters and a second cross-check.
u64 MeasureBpf(const FilterExpr& expr, const Workload& w, BpfHostStats* host_stats) {
  constexpr u32 kProgAddr = 0x40000;
  constexpr u32 kPktAddr = 0x48000;
  constexpr u32 kLenCell = 0x47000;
  BpfProgram prog = CompileFilterToBpf(expr);
  std::string diag;
  if (!prog.Validate(&diag)) Die("bpf validate", diag);
  BareMachine bm;
  const std::string src = BpfInterpreterAsmSource(kProgAddr, kPktAddr) + R"(
  .global main
main:
  mov $0x47000, %ebx
  ld 0(%ebx), %eax
  push %eax
  call bpf_run
  pop %ecx
  hlt
)";
  auto img = bm.LoadProgram(src, 0x10000, &diag);
  if (!img) Die("bpf asm", diag);
  auto ser = prog.Serialize();
  bm.pm().WriteBlock(kProgAddr, ser.data(), static_cast<u32>(ser.size()));
  const u32 entry = *img->Lookup("main");

  auto stage_and_run = [&](u32 i) -> bool {
    const auto& pkt = w.packets[i];
    const u32 len = static_cast<u32>(pkt.size());
    bm.pm().WriteBlock(kLenCell, &len, 4);
    bm.pm().WriteBlock(kPktAddr, pkt.data(), len);
    bm.Start(entry, 0, 0x80000);
    StopInfo stop = bm.Run(10'000'000);
    if (stop.reason != StopReason::kHalted) Die("bpf", "did not halt");
    return bm.cpu().reg(Reg::kEax) == 1;
  };
  stage_and_run(0);  // warm
  const u64 before = bm.cpu().cycles();
  for (u32 i = 0; i < kPackets; ++i) {
    const bool got = stage_and_run(i);
    CheckVerdict("bpf", i, got, w.verdicts[i]);
    const u32 host = BpfInterpretHost(prog, w.packets[i].data(),
                                      static_cast<u32>(w.packets[i].size()), host_stats);
    CheckVerdict("bpf-host", i, host == 1, w.verdicts[i]);
  }
  return bm.cpu().cycles() - before;
}

// Scenario 2: a live filter upgrade under sustained traffic. The echo
// worker requests the upgrade (syscall 235) after its 3rd served frame; the
// control plane loads v2, atomically switches the flow, and unloads v1 —
// and also swaps a dynamically linked helper library in the worker's
// address space, exercising src/dl under the same traffic.
struct UpgradeOutcome {
  PacketDataplane::Stats stats;
  u64 cycles = 0;
  u64 dl_loads = 0, dl_unloads = 0;
  i32 served = 0;
  bool ok = false;
};

constexpr char kUpgradeWorkerSource[] = R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $4096, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %esi
  mov $0, %edi
loop:
  mov $220, %eax          ; SYS_PKT_RECV
  mov %esi, %ebx
  mov $2048, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done
  mov %eax, %ecx
  mov $221, %eax          ; SYS_PKT_SEND
  mov %esi, %ebx
  int $0x80
  inc %edi
  cmp $3, %edi
  jne loop
  mov $235, %eax          ; request the live upgrade
  int $0x80
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

UpgradeOutcome RunUpgradeScenario(obs::MetricsRegistry* registry) {
  UpgradeOutcome out;
  Machine machine;
  Kernel kernel(machine);
  Scheduler sched(kernel);
  KernelExtensionManager kext(kernel);
  DynamicLinker dl(kernel);
  Nic nic(machine.pm(), kernel.pic(), kIrqNic);
  PacketDataplane dp(kernel, kext, nic);
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp.Shutdown();
    return true;
  });
  std::string diag;
  auto img = AssembleAndLink(kUpgradeWorkerSource, kUserTextBase, {}, &diag);
  if (!img) Die("upgrade worker asm", diag);
  Pid w = kernel.CreateProcess();
  if (w == 0 || !kernel.LoadUserImage(w, *img, "main", &diag)) Die("upgrade worker", diag);
  sched.AddProcess(w);

  AssembleError aerr;
  auto helper = Assemble(".global helper\nhelper:\n  ret\n", &aerr);
  if (!helper) Die("helper asm", aerr.ToString());
  dl.RegisterObject("libhelper_v1", *helper);
  dl.RegisterObject("libhelper_v2", *helper);
  if (!dl.LoadLibrary(w, "libhelper_v1", false, &diag)) Die("dl load v1", diag);

  bool upgrade_ok = true;
  kernel.RegisterSyscall(235, [&](Kernel& k, u32, u32, u32) {
    std::string d2;
    if (!dp.UpgradeFlow("f7777", kFilterText, &d2)) {
      std::fprintf(stderr, "upgrade: %s\n", d2.c_str());
      upgrade_ok = false;
    }
    if (!dl.UnloadLibrary(w, "libhelper_v1", &d2) ||
        !dl.LoadLibrary(w, "libhelper_v2", false, &d2)) {
      std::fprintf(stderr, "dl swap: %s\n", d2.c_str());
      upgrade_ok = false;
    }
    k.ReturnFromGate(0);
  });
  if (!dp.AddFlow("f7777", kFilterText, {w}, &diag)) Die("add flow", diag);

  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(20260808, match, 0.6);
  u64 at = 5'000;
  for (u32 i = 0; i < 200; ++i) {
    bool unused = false;
    auto frame = BuildPacket(gen.Next(&unused));
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += 2'500;
  }
  auto result = sched.RunAll(4'000'000'000ull);
  nic.FlushTx();
  out.stats = dp.stats();
  out.cycles = kernel.cpu().cycles();
  out.dl_loads = dl.loads();
  out.dl_unloads = dl.unloads();
  out.served = kernel.process(w)->exit_code;
  out.ok = upgrade_ok && result.exited == 1 && out.stats.flow_upgrades == 1;

  if (registry != nullptr) {
    registry->CollectMachine(kernel, &sched);
    registry->CollectNic(nic);
    registry->CollectDataplane(dp);
    registry->CollectKext(kext);
    registry->CollectDl(dl);
  }
  return out;
}

}  // namespace
}  // namespace palladium

int main() {
  using namespace palladium;

  std::string err;
  auto expr = ParseFilter(kFilterText, &err);
  if (!expr) Die("parse", err);
  Workload w = BuildWorkload(*expr);

  obs::MetricsRegistry registry;
  BenchJson json("protection");

  // --- Scenario 1: the four protection modes, identical workload ------------
  const u64 unprot = MeasureUnprotected(*expr, w);

  const u64 pd = MeasurePalladium(*expr, w);
  const u64 pd_batched = MeasurePalladiumBatched(*expr, w);

  SfiStats sfi_stats;
  const u64 sfi_base = MeasureSfi(w, /*rewritten=*/false, nullptr);
  const u64 sfi = MeasureSfi(w, /*rewritten=*/true, &sfi_stats);

  BpfHostStats bpf_host;
  const u64 bpf = MeasureBpf(*expr, w, &bpf_host);

  registry.CollectSfi(sfi_stats);
  registry.CollectBpf(bpf_host);

  auto per_inv = [](u64 total) { return static_cast<double>(total) / kPackets; };
  auto pps = [](u64 total) {
    return total == 0 ? 0.0 : kPackets * kCpuMhz * 1e6 / static_cast<double>(total);
  };

  std::printf("Protection head-to-head: %u-packet mixed trace, filter \"%s\"\n\n",
              kPackets, kFilterText);
  std::printf("%-22s %16s %14s %10s\n", "Mode", "cycles/invoc", "pps", "vs unprot");
  struct Row {
    const char* name;
    const char* key;
    u64 total;
  } rows[] = {
      {"unprotected", "unprotected", unprot},
      {"palladium", "palladium", pd},
      {"palladium-batched", "palladium_batched", pd_batched},
      {"sfi", "sfi", sfi},
      {"bpf-interpreter", "bpf", bpf},
  };
  for (const Row& r : rows) {
    std::printf("%-22s %16.1f %14.0f %9.2fx\n", r.name, per_inv(r.total), pps(r.total),
                per_inv(r.total) / per_inv(unprot));
    json.Set(std::string(r.key) + "_cycles_per_invocation", per_inv(r.total));
    json.Set(std::string(r.key) + "_pps", pps(r.total));
  }
  json.Set("workload_packets", kPackets);
  json.Set("sfi_baseline_cycles_per_invocation", per_inv(sfi_base));
  json.Set("sfi_expansion", sfi_stats.Expansion());
  std::printf("\nSFI code expansion: %.2fx (%llu -> %llu insns); SFI overhead vs its own\n"
              "unprotected baseline: %.2fx\n",
              sfi_stats.Expansion(), static_cast<unsigned long long>(sfi_stats.original_insns),
              static_cast<unsigned long long>(sfi_stats.rewritten_insns),
              per_inv(sfi) / per_inv(sfi_base));

  // --- RPC row (Table 2 baseline) -------------------------------------------
  LocalRpcChannel rpc;
  rpc.Bind("classify", [](const std::vector<u8>& req) { return req; });
  u64 rpc_before = rpc.cycles();
  rpc.Call("classify", std::vector<u8>(32, 0x5A));
  const double rpc_us_32 = CyclesToUs(static_cast<double>(rpc.cycles() - rpc_before));
  rpc_before = rpc.cycles();
  rpc.Call("classify", std::vector<u8>(256, 0x5A));
  const double rpc_us_256 = CyclesToUs(static_cast<double>(rpc.cycles() - rpc_before));
  registry.CollectRpc(rpc);
  json.Set("rpc_us_per_call_32b", rpc_us_32);
  json.Set("rpc_us_per_call_256b", rpc_us_256);
  std::printf("\nRPC extension call (socket baseline): %.2f us @ 32 B, %.2f us @ 256 B\n",
              rpc_us_32, rpc_us_256);

  // --- Scenario 2: live upgrade under traffic -------------------------------
  UpgradeOutcome up = RunUpgradeScenario(&registry);
  if (!up.ok) Die("upgrade scenario", "did not complete cleanly");
  const u64 upgrade_drops = up.stats.dropped_queue_full + up.stats.dropped_dead_dest;
  json.Set("upgrade_rx_frames", up.stats.rx_frames);
  json.Set("upgrade_served", static_cast<u64>(up.served));
  json.Set("upgrade_dropped_frames", upgrade_drops);
  json.Set("upgrade_flow_upgrades", up.stats.flow_upgrades);
  json.Set("upgrade_dl_loads", up.dl_loads);
  json.Set("upgrade_dl_unloads", up.dl_unloads);
  const double up_pps =
      up.cycles == 0 ? 0.0
                     : static_cast<double>(up.stats.delivered) * kCpuMhz * 1e6 /
                           static_cast<double>(up.cycles);
  json.Set("upgrade_delivered_pps", up_pps);
  std::printf("\nLive upgrade under traffic: %llu frames in, %d served, %llu dropped by\n"
              "the upgrade (flow upgrades: %llu, dl loads/unloads: %llu/%llu)\n",
              static_cast<unsigned long long>(up.stats.rx_frames), up.served,
              static_cast<unsigned long long>(upgrade_drops),
              static_cast<unsigned long long>(up.stats.flow_upgrades),
              static_cast<unsigned long long>(up.dl_loads),
              static_cast<unsigned long long>(up.dl_unloads));
  if (upgrade_drops != 0) Die("upgrade scenario", "frames were dropped");

  EmitMetrics(registry, &json);
  std::printf("\nPaper reference: Palladium's segment+paging crossing costs far less\n");
  std::printf("than interpretation (BPF) and avoids SFI's per-access expansion; the\n");
  std::printf("batched entry amortizes the crossing to near-unprotected cost.\n");
  std::printf("wrote %s\n", json.Write().c_str());
  return 0;
}
