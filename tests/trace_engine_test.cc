// Hot-trace tier tests: promotion lifecycle (cold -> hot -> lowered ->
// re-promoted after invalidation), loop formation (multi-run loops close,
// heads that cannot close stay on the block engine), guard exits, the
// invalidation edges the tier must get exactly right — a self-modifying
// store executing *inside* the hot trace, and an SMP remote store retiring
// the trace's page mid-loop — plus lazy-flags exactness at a fault boundary,
// cycle-limit slicing, the flight recorder's engine events and the
// engine/env switches.
// Everywhere, the block engine with the tier disabled is the in-binary
// differential oracle: registers, memory, cycles, TLB statistics, fault
// streams must be byte-identical with the tier on or off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "src/hw/bare_machine.h"
#include "src/hw/smp.h"
#include "src/obs/trace.h"

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
  u64 dtlb_hits = 0;
  bool dtlb_enabled = false;
  Cpu::TraceStats trace;
};

// Assembles and runs `source` at kCodeBase with the trace tier on or off
// (block engine always on — it is the tier's host) and returns final state.
// An optional flight recorder is attached on track 0.
TraceRunResult RunWithTrace(const std::string& source, bool trace,
                            u64 cycle_limit = 10'000'000,
                            obs::FlightRecorder* recorder = nullptr) {
  BareMachine bm;
  bm.cpu().set_block_engine_enabled(true);
  bm.cpu().set_trace_engine_enabled(trace);
  if (recorder != nullptr) bm.cpu().set_recorder(recorder, 0);
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  TraceRunResult r;
  r.stop = bm.Run(cycle_limit);
  r.ctx = bm.cpu().SaveContext();
  r.cycles = bm.cpu().cycles();
  r.instructions = bm.cpu().instructions_retired();
  r.tlb_hits = bm.cpu().tlb_stats().hits;
  r.dtlb_hits = bm.cpu().dtlb_stats().hits;
  r.dtlb_enabled = bm.cpu().dtlb_enabled();
  r.trace = bm.cpu().trace_stats();
  return r;
}

void ExpectSameState(const TraceRunResult& a, const TraceRunResult& b) {
  EXPECT_EQ(a.stop.reason, b.stop.reason);
  EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ctx.eip, b.ctx.eip);
  EXPECT_EQ(a.ctx.eflags, b.ctx.eflags) << "EFLAGS diverged";
  EXPECT_EQ(a.tlb_hits, b.tlb_hits) << "TLB statistics diverged";
  EXPECT_EQ(a.dtlb_hits, b.dtlb_hits) << "D-TLB statistics diverged";
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

// A hot loop is promoted to a micro-op trace, runs nearly all of its
// instructions there, answers its data translations from pins, and keeps
// flags lazy across iterations — while staying byte-identical with the
// block-engine oracle, TLB statistics included.
TEST(TraceEngine, HotLoopPromotesAndElidesProbes) {
  TraceRunResult on = RunWithTrace(kHotMemLoop, /*trace=*/true);
  TraceRunResult off = RunWithTrace(kHotMemLoop, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);

  EXPECT_GE(on.trace.promotions, 1u) << "the loop must have been lowered";
  EXPECT_GE(on.trace.entries, 900u) << "nearly every iteration should enter the trace";
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2)
      << "most instructions should retire as micro-ops";
  // Probe elision rides on D-TLB pins; under the PALLADIUM_NO_DTLB oracle
  // every trace memory access takes the full probe path instead, so the
  // counter must stay at zero there (state and cycles above are already
  // asserted identical either way).
  if (on.dtlb_enabled) {
    EXPECT_GT(on.trace.probes_elided, 3000u)
        << "pinned translations should answer the loop's memory accesses";
  } else {
    EXPECT_EQ(on.trace.probes_elided, 0u)
        << "without the D-TLB there are no pins to elide probes with";
  }
  EXPECT_GE(on.trace.flag_materializations, 1u);
  // Lazy flags: materializations must be rare relative to trace entries —
  // the whole point is NOT computing EFLAGS per iteration.
  EXPECT_LT(on.trace.flag_materializations, on.trace.entries / 4)
      << "flags should stay lazy across in-trace loop iterations";

  EXPECT_EQ(off.trace.promotions, 0u);
  EXPECT_EQ(off.trace.entries, 0u);
  EXPECT_EQ(off.trace.uop_insns, 0u);
  EXPECT_EQ(off.trace.probes_elided, 0u);
}

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

// PALLADIUM_NO_TRACE=1 disables the tier at construction, exactly like
// set_trace_engine_enabled(false). The suite itself may run under the
// oracle switch, so the caller's setting is saved and restored.
TEST(TraceEngine, EnvSwitchDisablesTraceTier) {
  const char* outer = std::getenv("PALLADIUM_NO_TRACE");
  const std::string saved = outer != nullptr ? outer : "";
  ::unsetenv("PALLADIUM_NO_TRACE");
  {
    BareMachine bm;
    EXPECT_TRUE(bm.cpu().trace_engine_enabled()) << "tier defaults to on";
  }
  ::setenv("PALLADIUM_NO_TRACE", "1", 1);
  {
    BareMachine bm;
    EXPECT_FALSE(bm.cpu().trace_engine_enabled());
  }
  if (outer != nullptr) {
    ::setenv("PALLADIUM_NO_TRACE", saved.c_str(), 1);
  } else {
    ::unsetenv("PALLADIUM_NO_TRACE");
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
    for (u32 c = 0; c < 2; ++c) {
      m.cpu(c).set_block_engine_enabled(true);
      m.cpu(c).set_trace_engine_enabled(trace);
    }
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
      on.cpu().set_block_engine_enabled(true);
      on.cpu().set_trace_engine_enabled(true);
      off.cpu().set_block_engine_enabled(true);
      off.cpu().set_trace_engine_enabled(false);
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
