// Host-side performance of the reproduction infrastructure itself, using
// google-benchmark: simulator instruction throughput, assembler speed, and
// the host BPF reference interpreter. These are engineering metrics for the
// repository (how fast experiments run), not paper results.
//
// The simulator throughput benches run the same workload under each
// execution engine so speedups are measured in-binary, paired, on the same
// machine:
//   trace   hot-trace tier (micro-op IR with lazy flags, inline TLB
//           probes, constant folding) on top of the superblock engine —
//           the default configuration
//   block   superblock engine (decoded basic-block runs, threaded dispatch,
//           block chaining) + data fast path, trace tier off
//           (PALLADIUM_NO_TRACE=1)
//   insn    per-instruction fast path (decode cache + data fast path,
//           dispatched one instruction at a time; PALLADIUM_NO_BLOCKS=1)
//   oracle  everything off: per-byte fetch + per-byte data path
// All four appear in one BENCH_simspeed.json; `--engine
// {trace,block,insn,oracle}` restricts the run to a single engine.
// Architectural results are identical across engines — only the wall-clock
// rate moves.
// The SMP rows (`BM_Smp{Alu,Mem}_nN_interleaved`) run the same per-vCPU
// workloads on an N-vCPU machine under the deterministic min-cycle
// interleaver (src/hw/smp.h): `sim_mips` is the *aggregate* simulated
// instruction rate over all vCPUs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/asm/assembler.h"
#include "src/bpf/bpf.h"
#include "src/filter/filter.h"
#include "src/hw/bare_machine.h"
#include "src/hw/smp.h"
#include "src/net/packet.h"

namespace palladium {
namespace {

// ALU-heavy steady state: register ops plus one load, a tight loop.
constexpr const char* kAluWorkload = R"(
  .global main
main:
  mov $1000, %ecx
loop:
  add $3, %eax
  xor $5, %eax
  ld 0x20000, %ebx
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";

// Memory-heavy steady state: nearly every instruction is a load, store,
// push or pop.
constexpr const char* kMemWorkload = R"(
  .global main
main:
  mov $1000, %ecx
  mov $0x20000, %ebx
  mov $0x21000, %esi
loop:
  st %eax, 0(%ebx)
  ld 0(%ebx), %eax
  st %eax, 8(%esi)
  ld 8(%esi), %edx
  push %eax
  push %edx
  st16 %edx, 16(%ebx)
  ld16 16(%ebx), %eax
  st8 %eax, 24(%esi)
  ld8 24(%esi), %edx
  pop %edx
  pop %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";

void RunThroughput(benchmark::State& state, const char* workload, Engine engine) {
  BareMachine bm;
  bm.cpu().set_engine(engine);
  bm.cpu().set_dtlb_enabled(engine != Engine::kOracle);  // "oracle": per-byte data path too
  std::string diag;
  auto img = bm.LoadProgram(workload, 0x10000, &diag);
  if (!img) {
    state.SkipWithError(diag.c_str());
    return;
  }
  u64 insns = 0;
  for (auto _ : state) {
    bm.Start(*img->Lookup("main"), 0, 0x80000);
    bm.cpu().set_cycles(0);  // Run()'s limit is on *cumulative* cycles
    u64 before = bm.cpu().instructions_retired();
    benchmark::DoNotOptimize(bm.Run(10'000'000));
    insns += bm.cpu().instructions_retired() - before;
  }
  state.counters["sim_insns_per_sec"] =
      benchmark::Counter(static_cast<double>(insns), benchmark::Counter::kIsRate);
  state.counters["sim_mips"] = benchmark::Counter(
      static_cast<double>(insns) / 1e6, benchmark::Counter::kIsRate);
  if (engine == Engine::kBlock || engine == Engine::kTrace) {
    const auto& bs = bm.cpu().block_stats();
    state.counters["block_chains"] = benchmark::Counter(static_cast<double>(bs.chains));
    state.counters["block_entries"] = benchmark::Counter(static_cast<double>(bs.entries));
  }
  if (engine == Engine::kTrace) {
    const auto& ts = bm.cpu().trace_stats();
    state.counters["trace_promotions"] = benchmark::Counter(static_cast<double>(ts.promotions));
    state.counters["trace_entries"] = benchmark::Counter(static_cast<double>(ts.entries));
    state.counters["trace_uop_insns"] = benchmark::Counter(static_cast<double>(ts.uop_insns));
    state.counters["trace_flag_materializations"] =
        benchmark::Counter(static_cast<double>(ts.flag_materializations));
    state.counters["trace_inline_accesses"] =
        benchmark::Counter(static_cast<double>(ts.inline_accesses));
  }
}

// Per-vCPU variants of the workloads above: identical instruction mix, but
// every vCPU gets a private data window and its own code and stack
// placement.
std::string SmpAluWorkload(u32 c, u32 iterations) {
  char buf[512];
  std::snprintf(buf, sizeof buf, R"(
  .global main
main:
  mov $%u, %%ecx
loop:
  add $3, %%eax
  xor $5, %%eax
  ld 0x%x, %%ebx
  dec %%ecx
  cmp $0, %%ecx
  jne loop
  hlt
)",
                iterations, 0x200000 + c * 0x2000);
  return buf;
}

std::string SmpMemWorkload(u32 c, u32 iterations) {
  // Private per-vCPU window well above the code images (which sit at
  // 0x10000 + c * 0x8000, i.e. up to 0x28000+): a window below 0x28000
  // would let CPU 0's stores clobber CPU 2's instruction bytes, making the
  // workload racy instead of DRF. Vpns 512+ also map to TLB sets 0..7,
  // clear of the code pages' sets.
  const u32 base = 0x200000 + c * 0x2000;
  char buf[1024];
  std::snprintf(buf, sizeof buf, R"(
  .global main
main:
  mov $%u, %%ecx
  mov $0x%x, %%ebx
  mov $0x%x, %%esi
loop:
  st %%eax, 0(%%ebx)
  ld 0(%%ebx), %%eax
  st %%eax, 8(%%esi)
  ld 8(%%esi), %%edx
  push %%eax
  push %%edx
  st16 %%edx, 16(%%ebx)
  ld16 16(%%ebx), %%eax
  st8 %%eax, 24(%%esi)
  ld8 24(%%esi), %%edx
  pop %%edx
  pop %%eax
  dec %%ecx
  cmp $0, %%ecx
  jne loop
  hlt
)",
                iterations, base, base + 0x1000);
  return buf;
}

// Aggregate N-vCPU throughput under the interleaver.
void RunSmpThroughput(benchmark::State& state, bool mem_workload, u32 n) {
  constexpr u32 kIterations = 50'000;
  BareMachineConfig cfg;
  cfg.num_cpus = n;
  BareMachine bm(cfg);
  Machine& m = bm.machine();
  std::vector<u32> entries(n);
  for (u32 c = 0; c < n; ++c) {
    m.cpu(c).set_engine(Engine::kTrace);  // the default configuration
    m.cpu(c).set_dtlb_enabled(true);
    const std::string src =
        mem_workload ? SmpMemWorkload(c, kIterations) : SmpAluWorkload(c, kIterations);
    std::string diag;
    auto img = bm.LoadProgram(src, 0x10000 + c * 0x8000, &diag);
    if (!img) {
      state.SkipWithError(diag.c_str());
      return;
    }
    entries[c] = *img->Lookup("main");
  }
  const auto park_on_stop = [](u32, const StopInfo&) { return false; };
  u64 insns = 0;
  for (auto _ : state) {
    u64 before = 0;
    for (u32 c = 0; c < n; ++c) {
      bm.StartCpu(c, entries[c], 0, 0x80000 - c * 0x4000);
      m.cpu(c).set_cycles(0);  // the harness limit is on cumulative cycles
      before += m.cpu(c).instructions_retired();
    }
    SmpInterleaver il(m);
    il.Run(~0ull, park_on_stop);
    u64 after = 0;
    for (u32 c = 0; c < n; ++c) after += m.cpu(c).instructions_retired();
    insns += after - before;
  }
  state.counters["sim_insns_per_sec"] =
      benchmark::Counter(static_cast<double>(insns), benchmark::Counter::kIsRate);
  state.counters["sim_mips"] = benchmark::Counter(
      static_cast<double>(insns) / 1e6, benchmark::Counter::kIsRate);
}

void BM_AssembleFilter(benchmark::State& state) {
  std::string err;
  auto expr = ParseFilter(
      "ip.proto == 6 && ip.src == 10.20.30.40 && ip.dst == 10.20.30.41 && tcp.dport == 80",
      &err);
  std::string src = CompileFilterToAsm(*expr);
  for (auto _ : state) {
    AssembleError aerr;
    auto obj = Assemble(src, &aerr);
    benchmark::DoNotOptimize(obj);
  }
}
BENCHMARK(BM_AssembleFilter);

void BM_HostBpfInterpreter(benchmark::State& state) {
  std::string err;
  auto expr = ParseFilter("ip.proto == 6 && tcp.dport == 8080", &err);
  BpfProgram prog = CompileFilterToBpf(*expr);
  PacketSpec spec;
  spec.dst_port = 8080;
  auto pkt = BuildPacket(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BpfInterpretHost(prog, pkt.data(), static_cast<u32>(pkt.size())));
  }
}
BENCHMARK(BM_HostBpfInterpreter);

void BM_PacketBuild(benchmark::State& state) {
  PacketSpec spec;
  spec.payload_len = static_cast<u16>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPacket(spec));
  }
}
BENCHMARK(BM_PacketBuild)->Arg(64)->Arg(512);

struct EngineSpec {
  Engine engine;
  const char* name;
};
constexpr EngineSpec kEngines[] = {
    {Engine::kTrace, "trace"},
    {Engine::kBlock, "block"},
    {Engine::kInsn, "insn"},
    {Engine::kOracle, "oracle"},
};

void RegisterSimBenches(const std::string& engine_filter) {
  for (const EngineSpec& spec : kEngines) {
    if (!engine_filter.empty() && engine_filter != spec.name) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_SimAluThroughput_") + spec.name).c_str(),
        [engine = spec.engine](benchmark::State& st) {
          RunThroughput(st, kAluWorkload, engine);
        });
    benchmark::RegisterBenchmark(
        (std::string("BM_SimMemThroughput_") + spec.name).c_str(),
        [engine = spec.engine](benchmark::State& st) {
          RunThroughput(st, kMemWorkload, engine);
        });
  }
  // SMP rows only in unfiltered runs (the CI invocation).
  if (!engine_filter.empty()) return;
  for (u32 n : {1u, 2u, 4u}) {
    // UseRealTime: aggregate throughput over wall time. It also names the
    // rows `.../real_time`, as the committed baseline has them.
    benchmark::RegisterBenchmark(
        ("BM_SmpAlu_n" + std::to_string(n) + "_interleaved").c_str(),
        [n](benchmark::State& st) { RunSmpThroughput(st, /*mem_workload=*/false, n); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_SmpMem_n" + std::to_string(n) + "_interleaved").c_str(),
        [n](benchmark::State& st) { RunSmpThroughput(st, /*mem_workload=*/true, n); })
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace palladium

// Custom main: like BENCHMARK_MAIN(), but (a) strips the repo's own
// --engine {trace,block,insn,oracle} flag, which restricts the simulator
// throughput benches to one engine (default: all four, reported in one
// JSON), and (b) defaults --benchmark_out to BENCH_simspeed.json in JSON
// format (BENCH_JSON_DIR overrides the directory) so this binary emits
// machine-readable results like every other bench_*. An explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string engine_filter;
  bool has_out = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg(argv[i]);
    if (i > 0 && arg.rfind("--engine=", 0) == 0) {
      engine_filter = arg.substr(strlen("--engine="));
      continue;
    }
    if (i > 0 && arg == "--engine" && i + 1 < argc) {
      engine_filter = argv[++i];
      continue;
    }
    if (i > 0 && arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  if (!engine_filter.empty() && engine_filter != "trace" && engine_filter != "block" &&
      engine_filter != "insn" && engine_filter != "oracle") {
    fprintf(stderr, "--engine must be one of trace, block, insn, oracle (got '%s')\n",
            engine_filter.c_str());
    return 1;
  }
  palladium::RegisterSimBenches(engine_filter);

  std::string out_flag = "--benchmark_out=" + palladium::BenchJsonPath("simspeed");
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
