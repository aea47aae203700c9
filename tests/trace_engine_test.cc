// Hot-trace tier tests: promotion lifecycle (cold -> hot -> lowered ->
// re-promoted after invalidation), loop formation (multi-run loops close,
// heads that cannot close stay on the block engine), guard exits, the
// invalidation edges the tier must get exactly right — a self-modifying
// store executing *inside* the hot trace, and an SMP remote store retiring
// the trace's page mid-loop — plus lazy-flags exactness at a fault boundary
// and at every flag producer's operand edges under all 12 guard conditions,
// the memory labels' segment windows and inline TLB probes (byte and dword
// accesses at a segment limit, a PPL 0 page's live entry after a drop to
// CPL 3, entries killed by a PTE edit or CR3 reload, both fast-path
// settings), cycle-limit slicing, the flight recorder's engine events, and
// the RuntimeConfig table that maps every env switch to an engine setting.
// Everywhere, the block engine with the tier disabled is the in-binary
// differential oracle: registers, memory, cycles, TLB statistics, fault
// streams must be byte-identical with the tier on or off.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/runtime_config.h"
#include "src/hw/smp.h"
#include "src/obs/trace.h"
#include "tests/env_util.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

struct TraceRunResult {
  StopInfo stop;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 dtlb_hits = 0;
  u64 dtlb_misses = 0;
  Cpu::TraceStats trace;
};

TraceRunResult Capture(const StopInfo& stop, const Cpu& cpu) {
  TraceRunResult r;
  r.stop = stop;
  r.ctx = cpu.SaveContext();
  r.cycles = cpu.cycles();
  r.instructions = cpu.instructions_retired();
  r.tlb_hits = cpu.tlb_stats().hits;
  r.tlb_misses = cpu.tlb_stats().misses;
  r.dtlb_hits = cpu.dtlb_stats().hits;
  r.dtlb_misses = cpu.dtlb_stats().misses;
  r.trace = cpu.trace_stats();
  return r;
}

// Assembles and runs `source` at kCodeBase with the trace tier on or off
// (block engine always on — it is the tier's host) and returns final state.
// An optional flight recorder is attached on track 0. With `faults`, a fault
// does not end the run: the state its handler would see is appended there
// and execution resumes at the address the program keeps in EDI.
TraceRunResult RunWithTrace(const std::string& source, bool trace,
                            u64 cycle_limit = 10'000'000,
                            obs::FlightRecorder* recorder = nullptr,
                            std::vector<TraceRunResult>* faults = nullptr) {
  BareMachine bm;
  bm.cpu().set_engine(trace ? Engine::kTrace : Engine::kBlock);
  if (recorder != nullptr) bm.cpu().set_recorder(recorder, 0);
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  StopInfo stop = bm.Run(cycle_limit);
  while (faults != nullptr && stop.reason == StopReason::kFault && faults->size() < 10'000) {
    faults->push_back(Capture(stop, bm.cpu()));
    bm.cpu().set_eip(bm.cpu().reg(Reg::kEdi));
    stop = bm.Run(cycle_limit);
  }
  return Capture(stop, bm.cpu());
}

void ExpectSameState(const TraceRunResult& a, const TraceRunResult& b) {
  EXPECT_EQ(a.stop.reason, b.stop.reason);
  EXPECT_EQ(a.stop.fault.vector, b.stop.fault.vector);
  EXPECT_EQ(a.stop.fault.error_code, b.stop.fault.error_code);
  EXPECT_EQ(a.stop.fault.linear_address, b.stop.fault.linear_address);
  EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ctx.eip, b.ctx.eip);
  EXPECT_EQ(a.ctx.eflags, b.ctx.eflags) << "EFLAGS diverged";
  EXPECT_EQ(a.tlb_hits, b.tlb_hits) << "TLB statistics diverged";
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.dtlb_hits, b.dtlb_hits) << "D-TLB statistics diverged";
  EXPECT_EQ(a.dtlb_misses, b.dtlb_misses);
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
  }
}

constexpr const char* kHotMemLoop = R"(
  .global main
main:
  mov $1000, %ecx
  mov $0x20000, %ebx
loop:
  st %eax, 0(%ebx)
  ld 0(%ebx), %eax
  push %eax
  pop %edx
  add $3, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";

// Below the hotness threshold nothing is lowered: a short-lived loop runs
// entirely in the block engine.
TEST(TraceEngine, BelowThresholdNeverPromotes) {
  const std::string source = R"(
  .global main
main:
  mov $10, %ecx
loop:
  add $1, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  EXPECT_EQ(on.trace.promotions, 0u) << "10 iterations are below the threshold of 16";
  EXPECT_EQ(on.trace.entries, 0u);
  EXPECT_EQ(on.trace.uop_insns, 0u);
}

// One rule for every boolean switch — unset, empty or "0" is off, anything
// else is on — in RuntimeConfig, and one clamp for PALLADIUM_SMP in
// ResolveNumCpus. Every variable is pinned for the test and the caller's
// value restored, so the table holds under any CI leg.
TEST(RuntimeConfig, EverySwitchParsesByOneRule) {
  ScopedEnv no_blocks("PALLADIUM_NO_BLOCKS", nullptr);
  ScopedEnv no_trace("PALLADIUM_NO_TRACE", nullptr);
  ScopedEnv no_dtlb("PALLADIUM_NO_DTLB", nullptr);
  ScopedEnv no_napi("PALLADIUM_NO_NAPI", nullptr);
  ScopedEnv smp("PALLADIUM_SMP", nullptr);

  const struct {
    const char* name;
    bool (*on)(const RuntimeConfig&);
  } flags[] = {
      {"PALLADIUM_NO_BLOCKS", [](const RuntimeConfig& rc) { return rc.engine == Engine::kInsn; }},
      {"PALLADIUM_NO_TRACE", [](const RuntimeConfig& rc) { return rc.engine == Engine::kBlock; }},
      {"PALLADIUM_NO_DTLB", [](const RuntimeConfig& rc) { return !rc.dtlb; }},
      {"PALLADIUM_NO_NAPI", [](const RuntimeConfig& rc) { return !rc.napi; }},
  };
  const struct {
    const char* value;  // nullptr = unset
    bool on;
  } values[] = {{nullptr, false}, {"", false}, {"0", false}, {"1", true}};
  for (const auto& flag : flags) {
    for (const auto& v : values) {
      ScopedEnv set(flag.name, v.value);
      SCOPED_TRACE(std::string(flag.name) + "=" + (v.value != nullptr ? v.value : "<unset>"));
      EXPECT_EQ(flag.on(RuntimeConfig::FromEnv()), v.on);
    }
  }

  const struct {
    const char* value;
    u32 num_cpus;
  } counts[] = {{nullptr, 1}, {"garbage", 1}, {"0", 1}, {"3", 3}, {"99", kMaxCpus}};
  for (const auto& row : counts) {
    ScopedEnv set("PALLADIUM_SMP", row.value);
    EXPECT_EQ(ResolveNumCpus(0), row.num_cpus)
        << "PALLADIUM_SMP=" << (row.value != nullptr ? row.value : "<unset>");
  }

  {
    ScopedEnv set("PALLADIUM_NO_TRACE", "1");
    BareMachine bm;
    EXPECT_EQ(bm.cpu().engine(), Engine::kBlock) << "Machine applies the parsed engine";
    ScopedEnv both("PALLADIUM_NO_BLOCKS", "1");
    EXPECT_EQ(RuntimeConfig::FromEnv().engine, Engine::kInsn) << "NO_BLOCKS wins over NO_TRACE";
  }
}

// Body slot `add $1, %ebx` lives at 0x10040; its imm field is at +8. The
// loop's head trace spans three runs: two mid-trace guards (`je fix`,
// `je unfix`) and the closing `jne loop`.
constexpr const char* kSelfModifyingLoop = R"(
  .global main
main:
  mov $100, %ecx
  mov $0x20000, %esi
  mov $1, %edx
loop:
  st %edx, 0(%esi)
  add $1, %ebx
  dec %ecx
  cmp $25, %ecx
  je fix
  cmp $24, %ecx
  je unfix
  cmp $0, %ecx
  jne loop
  hlt
fix:
  mov $0x10048, %esi
  mov $100, %edx
  jmp loop
unfix:
  mov $0x20000, %esi
  jmp loop
)";

// A store executing *inside* the hot trace patches a later instruction of
// the trace's own body. The store must exit the trace at the invalidation
// boundary, the patched bytes must execute on the very same iteration, and
// once the stores move back off the code page the loop must re-heat and be
// promoted a second time.
TEST(TraceEngine, SelfModifyingStoreInsideHotTraceRepromotes) {
  TraceRunResult on = RunWithTrace(kSelfModifyingLoop, /*trace=*/true);
  TraceRunResult off = RunWithTrace(kSelfModifyingLoop, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);

  const u32 ebx = on.ctx.regs[static_cast<u8>(Reg::kEbx)];
  EXPECT_GT(ebx, 100u) << "patched +100 increments must have executed";
  EXPECT_EQ((ebx - 100u) % 99u, 0u) << "every patched iteration adds exactly 99 extra";
  EXPECT_GE(on.trace.promotions, 2u)
      << "the loop must re-heat and be lowered again after the self-modify";
}

// An SMP neighbour's store lands on the hot trace's code page mid-loop (via
// the physical-memory write-observer fan-out, since with two vCPUs the
// victim's decode cache is not the sole observer). The victim must pick up
// the new bytes at the same retire boundary as the oracle, preserving the
// deterministic interleave byte-for-byte.
TEST(TraceEngine, SmpRemoteStoreInvalidatesHotTraceMidLoop) {
  constexpr u32 kCpu1Code = kCodeBase + 0x4000;
  auto run = [&](bool trace) {
    BareMachineConfig config;
    config.num_cpus = 2;
    BareMachine bm(config);
    Machine& m = bm.machine();
    for (u32 c = 0; c < 2; ++c) m.cpu(c).set_engine(trace ? Engine::kTrace : Engine::kBlock);
    std::string diag;
    // vCPU 0: a hot loop; `add $1, %eax` is slot 1 (0x10010), imm at +8.
    auto img0 = bm.LoadProgram(R"(
  .global main
main:
  mov $1000, %ecx
loop:
  add $1, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)",
                               kCodeBase, &diag);
    EXPECT_TRUE(img0.has_value()) << diag;
    // vCPU 1: delay long enough for vCPU 0's loop to go hot, then patch
    // vCPU 0's increment from +1 to +7 and halt.
    auto img1 = bm.LoadProgram(R"(
  .global main
main:
  mov $30, %ecx
delay:
  dec %ecx
  cmp $0, %ecx
  jne delay
  mov $7, %edx
  st %edx, 0x10018
  hlt
)",
                               kCpu1Code, &diag);
    EXPECT_TRUE(img1.has_value()) << diag;
    bm.StartCpu(0, *img0->Lookup("main"), 0, kStackTop);
    bm.StartCpu(1, *img1->Lookup("main"), 0, kStackTop - 0x2000);

    SmpInterleaver il(m);
    il.Run(10'000'000, [&](u32, const StopInfo& stop) {
      EXPECT_EQ(stop.reason, StopReason::kHalted);
      return false;
    });
    struct SmpResult {
      CpuContext ctx0, ctx1;
      u64 cycles0, cycles1, insns0;
      Cpu::TraceStats trace0;
    } r{m.cpu(0).SaveContext(), m.cpu(1).SaveContext(), m.cpu(0).cycles(),
        m.cpu(1).cycles(),      m.cpu(0).instructions_retired(),
        m.cpu(0).trace_stats()};
    return r;
  };

  auto on = run(/*trace=*/true);
  auto off = run(/*trace=*/false);
  const u32 eax = on.ctx0.regs[static_cast<u8>(Reg::kEax)];
  EXPECT_GT(eax, 1000u) << "patched +7 increments must have executed";
  EXPECT_EQ((eax - 1000u) % 6u, 0u) << "every patched iteration adds exactly 6 extra";
  EXPECT_GE(on.trace0.promotions, 1u) << "the victim loop must have been hot";
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(on.ctx0.regs[r], off.ctx0.regs[r]) << "vcpu0 reg " << static_cast<int>(r);
    EXPECT_EQ(on.ctx1.regs[r], off.ctx1.regs[r]) << "vcpu1 reg " << static_cast<int>(r);
  }
  EXPECT_EQ(on.cycles0, off.cycles0) << "interleave diverged";
  EXPECT_EQ(on.cycles1, off.cycles1);
  EXPECT_EQ(on.insns0, off.insns0);
}

// A page fault raised by a memory uop mid-trace must deliver the exact
// architectural EFLAGS even though the flag producers before it executed
// lazily: the trace's fault exit materializes the pending flags cache.
TEST(TraceEngine, LazyFlagsExactAtFaultBoundary) {
  // Stores march toward the end of identity-mapped memory (16 MiB) in a hot
  // loop; iteration ~256 faults on the first unmapped page, long after
  // promotion. The last flag write before the faulting store is the `add`
  // of the same iteration, held lazy in the flags cache.
  const std::string source = R"(
  .global main
main:
  mov $0xFFF000, %esi
  mov $5000, %ecx
loop:
  add $3, %eax
  st %eax, 0(%esi)
  add $16, %esi
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  ASSERT_EQ(on.stop.reason, StopReason::kFault);
  ASSERT_EQ(off.stop.reason, StopReason::kFault);
  EXPECT_EQ(on.stop.fault.vector, off.stop.fault.vector);
  EXPECT_EQ(on.stop.fault.error_code, off.stop.fault.error_code);
  EXPECT_EQ(on.stop.fault.linear_address, off.stop.fault.linear_address);
  ExpectSameState(on, off);
  EXPECT_GE(on.trace.promotions, 1u) << "the loop must have faulted while hot";
  EXPECT_GE(on.trace.flag_materializations, 1u)
      << "the fault exit must have materialized lazy flags";
}

// --- Lazy flags at every producer's edges ------------------------------------
// Each flag producer the tier lowers, on the operands where its flag rules
// turn ({0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}; shift counts 0, 1, 31),
// guarded by each of the 12 conditions. A case is its own hot loop
//
//     c<k>: EDI = c<k+1>; ESI = 32 bytes below the end of mapped memory;
//           CF = the case's entry carry
//     l<k>: EAX (, EBX) = the operands; <producer>; j<cond> t<k>
//     b<k>: ld8 (%esi) — faults on iteration 33; ESI += 1; jmp l<k>
//     t<k>: jmp b<k>
//
// that promotes by iteration 17 and whose byte load then faults with the
// producer's flags still lazy, so the fault delivers them materialized. INC
// and DEC, which keep CF, also run with the carry set and clear at entry and
// with no guard at all (the fault comes right after them); every other
// producer alternates the entry carry. One row runs its `cmp` before l<k>
// instead, so the guard reads the flags the trace was entered with.
// RunWithTrace resumes each fault at the next case, and every fault's state
// must match the block engine's.
constexpr u32 kIdentityEnd = 16u << 20;  // BareMachine's default memory, all mapped

// How a row's producer takes its operands; `a` is always in EAX. A fold is
// an add/sub-immediate chain whose last op sees `a`.
enum class Form { kRegReg, kRegImm, kUnary, kFold };

struct FlagProducer {
  const char* op;
  Form form;
  std::vector<u32> seconds;  // operand b or shift count (kUnary: one, ignored)
  bool before_head = false;  // runs in place of the entry-carry setup
};

std::string Hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%X", v);
  return buf;
}

std::string Mov(u32 v, const char* reg) { return "  mov $" + Hex(v) + ", %" + reg + "\n"; }

std::string ProducerLines(const FlagProducer& p, u32 a, u32 b) {
  const std::string op = std::string("  ") + p.op;
  switch (p.form) {
    case Form::kRegReg:
      return Mov(a, "eax") + Mov(b, "ebx") + op + " %ebx, %eax\n";
    case Form::kRegImm:
      return Mov(a, "eax") + op + " $" + Hex(b) + ", %eax\n";
    case Form::kUnary:
      return Mov(a, "eax") + op + " %eax\n";
    case Form::kFold:
      return Mov(a - 1, "eax") + "  add $1, %eax\n" + op + " $" + Hex(b) + ", %eax\n";
  }
  return "";
}

TEST(TraceEngine, LazyFlagsExactAtEveryProducerEdgeAndCondition) {
  const std::vector<u32> edges = {0, 1, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  const std::vector<u32> counts = {0, 1, 31};
  const char* const kConditions[] = {"je",  "jne", "jb",  "jae", "jbe", "ja",
                                     "jl",  "jge", "jle", "jg",  "js",  "jns"};
  const char* const kFormNames[] = {"r,r", "r,i", "r", "fold"};
  const FlagProducer producers[] = {
      {"add", Form::kRegReg, edges},  {"add", Form::kRegImm, edges},
      {"sub", Form::kRegReg, edges},  {"sub", Form::kRegImm, edges},
      {"cmp", Form::kRegReg, edges},  {"cmp", Form::kRegImm, edges},
      {"cmp", Form::kRegReg, edges, /*before_head=*/true},
      {"and", Form::kRegReg, edges},  {"or", Form::kRegReg, edges},
      {"xor", Form::kRegReg, edges},  {"test", Form::kRegReg, edges},
      {"shl", Form::kRegImm, counts}, {"shr", Form::kRegImm, counts},
      {"sar", Form::kRegImm, counts}, {"imul", Form::kRegReg, edges},
      {"imul", Form::kRegImm, edges}, {"neg", Form::kUnary, {0}},
      {"inc", Form::kUnary, {0}},     {"dec", Form::kUnary, {0}},
      {"add", Form::kFold, edges},    {"sub", Form::kFold, edges},
  };
  for (const FlagProducer& p : producers) {
    SCOPED_TRACE(std::string(p.op) + " " + kFormNames[static_cast<int>(p.form)] +
                 (p.before_head ? " before the head" : ""));
    const bool keeps_cf = std::string(p.op) == "inc" || std::string(p.op) == "dec";
    std::string source = "  .global main\nmain:\n";
    std::vector<std::string> cases;
    const auto add_case = [&](u32 a, u32 b, const char* cond, bool cf_in) {
      const std::string k = std::to_string(cases.size());
      cases.push_back(std::string("a=") + Hex(a) + " b=" + Hex(b) + " " +
                      (cond != nullptr ? cond : "unguarded") + " cf_in=" + (cf_in ? "1" : "0"));
      // Aligned so that no case's loop straddles a page, which would keep
      // it off the trace tier.
      source += "  .align 256\nc" + k + ":\n  mov $c" + std::to_string(cases.size()) + ", %edi\n" +
                Mov(kIdentityEnd - 32, "esi");
      if (p.before_head) {
        source += ProducerLines(p, a, b) + "l" + k + ":\n";
      } else {
        source += Mov(0, "eax") + "  cmp $" + (cf_in ? "1" : "0") + ", %eax\nl" + k + ":\n" +
                  ProducerLines(p, a, b);
      }
      if (cond != nullptr) source += std::string("  ") + cond + " t" + k + "\n";
      source += "b" + k + ":\n  ld8 0(%esi), %ecx\n  lea 1(%esi), %esi\n  jmp l" + k +
                "\nt" + k + ":\n  jmp b" + k + "\n";
    };
    for (u32 a : edges) {
      for (u32 b : p.seconds) {
        for (const char* cond : kConditions) {
          if (keeps_cf) {
            add_case(a, b, cond, false);
            add_case(a, b, cond, true);
          } else {
            add_case(a, b, cond, cases.size() % 2 != 0);
          }
        }
        if (keeps_cf) {
          add_case(a, b, nullptr, false);
          add_case(a, b, nullptr, true);
        }
      }
    }
    source += "c" + std::to_string(cases.size()) + ":\n  hlt\n";

    std::vector<TraceRunResult> on_faults, off_faults;
    const TraceRunResult on = RunWithTrace(source, /*trace=*/true, 10'000'000, nullptr, &on_faults);
    const TraceRunResult off =
        RunWithTrace(source, /*trace=*/false, 10'000'000, nullptr, &off_faults);
    EXPECT_EQ(on.stop.reason, StopReason::kHalted);
    ExpectSameState(on, off);
    ASSERT_EQ(on_faults.size(), cases.size());
    ASSERT_EQ(off_faults.size(), cases.size());
    u64 promotions = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(cases[i]);
      EXPECT_EQ(on_faults[i].stop.fault.linear_address, kIdentityEnd);
      ExpectSameState(on_faults[i], off_faults[i]);
      EXPECT_GT(on_faults[i].trace.promotions, promotions) << "the case never ran in a trace";
      promotions = on_faults[i].trace.promotions;
    }
  }
}

// The web worker's checksum loop is top-tested: `cmp; je` is one run and the
// byte-processing body ending in `jmp csum` another. Loop lowering closes it
// into one trace, so each payload byte is one in-trace iteration of all
// seven instructions instead of two trace entries.
TEST(TraceEngine, TopTestedChecksumLoopRunsInTrace) {
  const std::string source = R"(
  .global main
main:
  mov $0x20000, %ebp
  mov $300, %ecx
fill:
  st8 %ecx, 0(%ebp)
  add $1, %ebp
  dec %ecx
  cmp $0, %ecx
  jne fill
  mov $200, %edi          ; packets
pkt:
  mov $300, %ecx          ; frame length
  mov $0x20000, %ebp
  mov $0, %edx
csum:
  cmp $0, %ecx
  je send
  ld8 0(%ebp), %eax
  add %eax, %edx
  add $1, %ebp
  dec %ecx
  jmp csum
send:
  add %edx, %ebx
  dec %edi
  cmp $0, %edi
  jne pkt
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  // Bytes 300..1 stored as st8: 255 * 256 / 2 + (0 + ... + 44) per packet.
  EXPECT_EQ(on.ctx.regs[static_cast<u8>(Reg::kEbx)], 200u * 33630u);
  EXPECT_GE(on.trace.promotions, 1u);
  EXPECT_GE(on.trace.uop_insns * 10, on.instructions * 9)
      << "at least 90% of the instructions should retire in-trace";
  EXPECT_GE(on.trace.uop_insns * 2, on.trace.entries * 13)
      << "each entry should run the whole 7-instruction byte loop";
  EXPECT_LT(on.trace.calls, on.trace.entries / 100)
      << "the loop should iterate in place, not be re-entered per byte";
}

constexpr u32 kByteData = 0x20000;
constexpr u32 kByteLoopHead = kCodeBase + 3 * kInsnSize;  // ByteSumLoop's `ld8`

// Sums `count` bytes from DS:`start` with `ld8`, the one load of a checksum
// loop, which the trace tier threads to its byte-load label.
std::string ByteSumLoop(u32 start, u32 count) {
  return R"(
  .global main
main:
  mov $)" + std::to_string(count) + R"(, %ecx
  mov $)" + std::to_string(start) + R"(, %esi
  mov $0, %edx
loop:
  ld8 0(%esi), %eax
  add %eax, %edx
  add $1, %esi
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
}

// The trace tier's memory labels against their oracle: one loop under
// kTrace and under kBlock, the data fast path set alike in both (on unless
// asked otherwise: the labels' inline TLB probes are its trace half), over a
// page of known bytes at kByteData. Every Run slices both machines at the
// same cycle limit and checks they agree on the stop, the architectural
// state and the TLB and D-TLB statistics.
class TraceOraclePair {
 public:
  explicit TraceOraclePair(const std::string& source, bool dtlb = true) {
    std::vector<u8> bytes(kPageSize);
    for (u32 i = 0; i < kPageSize; ++i) bytes[i] = static_cast<u8>(i * 7 + 3);
    for (BareMachine* bm : {&on_, &off_}) {
      bm->cpu().set_engine(bm == &on_ ? Engine::kTrace : Engine::kBlock);
      bm->cpu().set_dtlb_enabled(dtlb);
      std::string diag;
      auto img = bm->LoadProgram(source, kCodeBase, &diag);
      EXPECT_TRUE(img.has_value()) << diag;
      EXPECT_TRUE(bm->pm().WriteBlock(kByteData, bytes.data(), kPageSize));
      bm->Start(*img->Lookup("main"), 0, kStackTop);
    }
  }

  template <typename F>
  void Both(F f) {
    f(on_);
    f(off_);
  }

  StopInfo Run(u64 cycle_limit) {
    const StopInfo a = on_.Run(cycle_limit);
    const StopInfo b = off_.Run(cycle_limit);
    ExpectSameState(Capture(a, on_.cpu()), Capture(b, off_.cpu()));
    return a;
  }

  // One-instruction slices (the block engine retires one instruction per
  // slice that short) until both machines stand at `eip`.
  void StepTo(u32 eip) {
    for (int i = 0; i < 64 && on_.cpu().eip() != eip; ++i) Run(on_.cpu().cycles() + 1);
    ASSERT_EQ(on_.cpu().eip(), eip);
  }

  const Cpu& traced() { return on_.cpu(); }
  const Cpu& oracle() { return off_.cpu(); }

 private:
  BareMachine on_, off_;
};

// A hot loop is promoted to a micro-op trace, runs nearly all of its
// instructions there, serves its data accesses inline from the TLB, and
// keeps flags lazy across iterations — byte-identical with the block-engine
// oracle, TLB and D-TLB statistics included. Both fast-path settings run
// whatever the environment says: with it off, every memory label (the 4-byte
// load, store, push and pop of kHotMemLoop, the byte load of ByteSumLoop)
// must test the switch itself and serve nothing inline.
TEST(TraceEngine, HotLoopPromotesAndAccessesMemoryInline) {
  const struct {
    std::string source;
    u64 min_inline;  // inline accesses expected with the fast path on
  } loops[] = {{kHotMemLoop, 3000}, {ByteSumLoop(kByteData, 1000), 900}};
  for (const auto& loop : loops) {
    for (bool dtlb : {true, false}) {
      SCOPED_TRACE(std::string(dtlb ? "fast path on: " : "fast path off: ") + loop.source);
      TraceOraclePair pair(loop.source, dtlb);
      ASSERT_EQ(pair.Run(10'000'000).reason, StopReason::kHalted);
      const Cpu::TraceStats& on = pair.traced().trace_stats();
      EXPECT_GE(on.promotions, 1u) << "the loop must have been lowered";
      EXPECT_GE(on.entries, 900u) << "nearly every iteration should enter the trace";
      EXPECT_GT(on.uop_insns, pair.traced().instructions_retired() / 2)
          << "most instructions should retire as micro-ops";
      if (dtlb) {
        EXPECT_GT(on.inline_accesses, loop.min_inline)
            << "the TLB should serve the loop's memory accesses inline";
      } else {
        EXPECT_EQ(on.inline_accesses, 0u) << "a memory label skipped the fast-path switch";
        EXPECT_EQ(pair.traced().dtlb_stats().hits, 0u);
      }
      EXPECT_GE(on.flag_materializations, 1u);
      // Lazy flags: materializations must be rare relative to trace entries
      // — the whole point is NOT computing EFLAGS per iteration.
      EXPECT_LT(on.flag_materializations, on.entries / 4)
          << "flags should stay lazy across in-trace loop iterations";

      const Cpu::TraceStats& off = pair.oracle().trace_stats();
      EXPECT_EQ(off.promotions, 0u);
      EXPECT_EQ(off.entries, 0u);
      EXPECT_EQ(off.uop_insns, 0u);
      EXPECT_EQ(off.inline_accesses, 0u);
    }
  }
}

// The loop reads the last byte of a 300-byte data segment, then faults with
// #GP at the same `ld8` one byte past it: the label's window compare admits
// exactly the offsets CheckSegmentAccess does.
TEST(TraceEngine, ByteLoadFaultsOneBytePastItsSegment) {
  constexpr u32 kLimit = 300;  // DS = [kByteData, kByteData + 300)
  TraceOraclePair pair(ByteSumLoop(0, 1000));
  pair.Both([](BareMachine& bm) {
    bm.gdt().Set(BareMachine::kFirstFreeIdx, SegmentDescriptor::MakeData(kByteData, kLimit, 0));
    ASSERT_TRUE(
        bm.cpu().ForceSegment(SegReg::kDs, Selector::FromIndex(BareMachine::kFirstFreeIdx, 0)));
  });
  const StopInfo stop = pair.Run(10'000'000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kGeneralProtection);
  EXPECT_EQ(pair.traced().reg(Reg::kEsi), kLimit);
  EXPECT_EQ(pair.traced().eip(), kByteLoopHead) << "fault at the ld8";
  u32 sum = 0;
  for (u32 i = 0; i < kLimit; ++i) sum += static_cast<u8>(i * 7 + 3);
  EXPECT_EQ(pair.traced().reg(Reg::kEdx), sum) << "the segment's last byte was read";
  EXPECT_GE(pair.traced().trace_stats().promotions, 1u);
  EXPECT_GT(pair.traced().trace_stats().inline_accesses, 200u);
}

// The 4-byte load and store labels against a 303-byte data segment: the
// dword at offset 300 would cover the byte at 303, one past the segment, so
// the access there faults with #GP like the block engine's, after the one
// at 296 succeeded.
TEST(TraceEngine, DwordAccessFaultsWhereItWouldCrossTheSegmentLimit) {
  constexpr u32 kLimit = 303;
  for (const char* access : {"ld 0(%esi), %eax", "st %ecx, 0(%esi)"}) {
    SCOPED_TRACE(access);
    TraceOraclePair pair(std::string(R"(
  .global main
main:
  mov $1000, %ecx
  mov $0, %esi
loop:
  )") + access + R"(
  add $4, %esi
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)");
    pair.Both([](BareMachine& bm) {
      bm.gdt().Set(BareMachine::kFirstFreeIdx,
                   SegmentDescriptor::MakeData(kByteData, kLimit, 0));
      ASSERT_TRUE(bm.cpu().ForceSegment(SegReg::kDs,
                                        Selector::FromIndex(BareMachine::kFirstFreeIdx, 0)));
    });
    const StopInfo stop = pair.Run(10'000'000);
    ASSERT_EQ(stop.reason, StopReason::kFault);
    EXPECT_EQ(stop.fault.vector, FaultVector::kGeneralProtection);
    EXPECT_EQ(pair.traced().reg(Reg::kEsi), 300u);
    EXPECT_GT(pair.traced().trace_stats().inline_accesses, 50u);
  }
}

// The loop runs at CPL 0 over a PPL 0 page long enough to serve it inline,
// then the host drops the vCPU to CPL 3 at the loop head (no TLB change).
// The page's entry is still live, but the label's privilege check must
// refuse it: the trace's next `ld8` takes the generic path and raises the
// user-mode #PF.
TEST(TraceEngine, ByteLoadRefusesLivePpl0EntryAtCpl3) {
  TraceOraclePair pair(ByteSumLoop(kByteData, 1000));
  pair.Both([](BareMachine& bm) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    ASSERT_TRUE(ed.UpdateFlags(kByteData, 0, kPteUser));
  });
  ASSERT_EQ(pair.Run(3'000).reason, StopReason::kCycleLimit);
  pair.StepTo(kByteLoopHead);
  const u64 inline_before = pair.traced().trace_stats().inline_accesses;
  EXPECT_GT(inline_before, 100u) << "the PPL 0 page must be served inline before the drop";
  pair.Both([](BareMachine& bm) {
    ASSERT_TRUE(bm.cpu().ForceSegment(SegReg::kCs, BareMachine::CodeSelector(3)));
    for (SegReg sr : {SegReg::kSs, SegReg::kDs, SegReg::kEs}) {
      ASSERT_TRUE(bm.cpu().ForceSegment(sr, BareMachine::DataSelector(3)));
    }
  });
  const StopInfo stop = pair.Run(10'000'000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.error_code, kPfErrPresent | kPfErrUser);
  EXPECT_EQ(stop.fault.linear_address, pair.traced().reg(Reg::kEsi));
  EXPECT_EQ(pair.traced().trace_stats().inline_accesses, inline_before);
}

// Between two slices, at the loop head, the host remaps the loop's data page
// to another frame (a PTE edit with its INVLPG) or reloads CR3. Either kills
// the page's TLB entry: the next `ld8` misses, refills through the walk —
// reading the new frame after a remap — and the loop is served inline
// again from the new entry.
TEST(TraceEngine, ByteLoadEntryGoesStaleBetweenSlices) {
  constexpr u32 kAltFrame = 0x30000;
  for (bool remap : {true, false}) {
    SCOPED_TRACE(remap ? "PTE edit" : "CR3 reload");
    TraceOraclePair pair(ByteSumLoop(kByteData, 1000));
    ASSERT_EQ(pair.Run(3'000).reason, StopReason::kCycleLimit);
    pair.StepTo(kByteLoopHead);
    const u64 inline_before = pair.traced().trace_stats().inline_accesses;
    EXPECT_GT(inline_before, 100u);
    pair.Both([&](BareMachine& bm) {
      if (remap) {
        const std::vector<u8> ones(kPageSize, 1);
        ASSERT_TRUE(bm.pm().WriteBlock(kAltFrame, ones.data(), kPageSize));
        PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                           [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
        ASSERT_TRUE(ed.SetPte(kByteData, MakePte(kAltFrame, kPtePresent | kPteWrite | kPteUser)));
      } else {
        bm.cpu().LoadCr3(bm.cpu().cr3());
      }
    });
    const u32 left = pair.traced().reg(Reg::kEcx);
    const u32 edx = pair.traced().reg(Reg::kEdx);
    ASSERT_EQ(pair.Run(10'000'000).reason, StopReason::kHalted);
    EXPECT_GT(pair.traced().trace_stats().inline_accesses, inline_before + left / 2)
        << "the refilled entry must serve the rest of the loop inline";
    if (remap) {
      EXPECT_EQ(pair.traced().reg(Reg::kEdx), edx + left) << "the rest came from the new frame";
    }
  }
}

// A guard taken on iteration k of a hot loop — long after promotion, with
// the flags it tests held lazily from a `sub` — leaves the trace with the
// exact EIP, cycles, instruction count and EFLAGS of the block engine.
TEST(TraceEngine, MidTraceGuardExitIsExact) {
  for (u32 k : {17u, 18u, 40u, 99u}) {
    SCOPED_TRACE("guard taken on iteration " + std::to_string(k));
    const std::string source = R"(
  .global main
main:
  mov $100, %ecx
  mov $)" + std::to_string(k - 1) + R"(, %edx
loop:
  add $3, %eax
  sub $1, %edx
  js out
  st %eax, 0x20000
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
out:
  hlt
)";
    TraceRunResult on = RunWithTrace(source, /*trace=*/true);
    TraceRunResult off = RunWithTrace(source, /*trace=*/false);
    EXPECT_EQ(on.stop.reason, StopReason::kHalted);
    ExpectSameState(on, off);
    EXPECT_EQ(on.ctx.regs[static_cast<u8>(Reg::kEax)], 3u * k) << "exited on iteration k";
    EXPECT_NE(on.ctx.eflags & kFlagSf, 0u) << "the sub's SF must survive the exit";
    EXPECT_NE(on.ctx.eflags & kFlagCf, 0u) << "the sub's CF must survive the exit";
    // One call that iterated in place (7 instructions per iteration) and
    // left three instructions into iteration k, at the guard.
    EXPECT_EQ(on.trace.calls, 1u);
    EXPECT_EQ(on.trace.uop_insns % 7, 3u) << "the guard must have exited from inside the trace";
  }
}

// A hot function body reached by call/ret never closes a loop (its path ends
// at `ret`), and neither does its caller's loop (its path reaches `call`):
// both heads stay on the block engine.
TEST(TraceEngine, HeadThatCannotCloseALoopIsNeverPromoted) {
  const std::string source = R"(
  .global main
main:
  mov $200, %ecx
loop:
  call f
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
f:
  add $3, %eax
  xor $5, %eax
  add %eax, %ebx
  ret
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.trace.promotions, 0u);
  EXPECT_EQ(on.trace.calls, 0u);
  EXPECT_EQ(on.trace.uop_insns, 0u);
}

// A 100-instruction straight-line body: the block engine caps the loop's
// first run at kMaxBlockInsns (64) on a store, so the trace continues across
// a run boundary that has no branch, and the capped run's final memory
// access contributes its worst-case walk charge to the entry bound.
std::string LongBodyLoop() {
  std::string body;
  for (int i = 0; i < 100; ++i) {
    const std::string disp = std::to_string(4 * i);
    switch (i % 4) {
      case 0: body += "  add $" + std::to_string(i + 1) + ", %eax\n"; break;
      case 1: body += "  ld " + disp + "(%esi), %edx\n"; break;
      case 2: body += "  xor %edx, %ebx\n"; break;
      default: body += "  st %ebx, " + disp + "(%esi)\n"; break;
    }
  }
  return "  .global main\nmain:\n  mov $60, %ecx\n  mov $0x20000, %esi\nloop:\n" + body +
         "  dec %ecx\n  cmp $0, %ecx\n  jne loop\n  hlt\n";
}

// Loop shapes sliced by tiny cycle limits land on exactly the same
// (cycles, EIP, instructions) boundaries with the tier on and off — a trace
// is entered only where the block engine would run a whole iteration
// unchecked, and leaves at the frontier otherwise. The shapes: a two-run
// top-tested loop, a loop whose first run is capped without a branch, and a
// loop closed by a guard's fall-through edge into the head.
TEST(TraceEngine, CycleLimitSlicesLandOnIdenticalBoundaries) {
  const std::pair<const char*, std::string> shapes[] = {
      {"two-run top-tested", R"(
  .global main
main:
  mov $300, %ecx
loop:
  cmp $0, %ecx
  je done
  add $3, %eax
  ld 0x20000, %edx
  xor %edx, %eax
  add $1, %ebx
  dec %ecx
  jmp loop
done:
  hlt
)"},
      {"capped first run", LongBodyLoop()},
      {"closed by fall-through", R"(
  .global main
main:
  mov $200, %ecx
  jmp head
back:
  dec %ecx
  cmp $0, %ecx
  je done
head:
  add $3, %eax
  ld 0x20000, %edx
  xor %edx, %eax
  jmp back
done:
  hlt
)"},
  };
  for (const auto& [name, source] : shapes) {
    SCOPED_TRACE(name);
    u64 calls_total = 0;
    for (u64 slice : {1ull, 7ull, 23ull, 64ull, 5000ull}) {
      BareMachine on, off;
      on.cpu().set_engine(Engine::kTrace);
      off.cpu().set_engine(Engine::kBlock);
      for (BareMachine* bm : {&on, &off}) {
        std::string diag;
        auto img = bm->LoadProgram(source, kCodeBase, &diag);
        ASSERT_TRUE(img.has_value()) << diag;
        bm->Start(*img->Lookup("main"), 0, kStackTop);
      }
      for (int step = 0; step < 100'000; ++step) {
        const u64 limit = on.cpu().cycles() + slice;
        StopInfo a = on.Run(limit);
        StopInfo b = off.Run(limit);
        ASSERT_EQ(a.reason, b.reason) << "slice " << slice << " step " << step;
        ASSERT_EQ(on.cpu().cycles(), off.cpu().cycles())
            << "slice " << slice << " step " << step;
        ASSERT_EQ(on.cpu().eip(), off.cpu().eip()) << "slice " << slice << " step " << step;
        ASSERT_EQ(on.cpu().instructions_retired(), off.cpu().instructions_retired())
            << "slice " << slice << " step " << step;
        if (a.reason == StopReason::kHalted) break;
      }
      EXPECT_EQ(on.cpu().eflags(), off.cpu().eflags());
      for (u8 r = 0; r < kNumRegs; ++r) {
        EXPECT_EQ(on.cpu().reg(static_cast<Reg>(r)), off.cpu().reg(static_cast<Reg>(r)));
      }
      calls_total += on.cpu().trace_stats().calls;
    }
    EXPECT_GT(calls_total, 0u) << "the wider slices must have run the loop in-trace";
  }
}

u64 CountEvents(const obs::FlightRecorder& recorder, obs::EventType type) {
  u64 n = 0;
  for (const obs::Event& e : recorder.Events(0)) n += e.type == type ? 1 : 0;
  return n;
}

// The recorder's kTraceInvalidate means "a hot trace died to a code write":
// a plain hot loop — whose guard and frontier exits are ordinary — records
// its compile and no invalidation, while the self-modifying loop records
// the invalidation its store causes.
TEST(TraceEngine, RecorderLogsInvalidateOnlyForCodeWrites) {
  {
    obs::FlightRecorder recorder;
    recorder.Reset(1, 1u << 16);
    TraceRunResult on = RunWithTrace(kHotMemLoop, /*trace=*/true, 10'000'000, &recorder);
    EXPECT_EQ(on.stop.reason, StopReason::kHalted);
    EXPECT_GE(CountEvents(recorder, obs::EventType::kTraceCompile), 1u);
    EXPECT_EQ(CountEvents(recorder, obs::EventType::kTraceInvalidate), 0u);
  }
  {
    obs::FlightRecorder recorder;
    recorder.Reset(1, 1u << 16);
    TraceRunResult on = RunWithTrace(kSelfModifyingLoop, /*trace=*/true, 10'000'000, &recorder);
    EXPECT_EQ(on.stop.reason, StopReason::kHalted);
    EXPECT_GE(CountEvents(recorder, obs::EventType::kTraceCompile), 2u);
    EXPECT_GE(CountEvents(recorder, obs::EventType::kTraceInvalidate), 1u);
  }
}

}  // namespace
}  // namespace palladium
