// Property tests for CPU semantics: ALU results and flags must agree with
// host-side 32-bit arithmetic across pseudo-random operand sweeps, and
// memory round-trips must hold for every width and addressing form.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"
#include "src/hw/timer.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "tests/fuzz_util.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

// NextRand / FaultRecord / the fuzz-program builder live in
// tests/fuzz_util.h.

// Runs `op a, b` with a in EAX, b in EBX and returns EAX plus the flags.
struct AluResult {
  u32 value;
  bool cf, zf, sf, of;
};

AluResult RunAlu(const std::string& mnemonic, u32 a, u32 b) {
  BareMachine bm;
  std::string diag;
  std::string src = R"(
  .global main
main:
  mov $)" + std::to_string(a) + R"(, %eax
  mov $)" + std::to_string(b) + R"(, %ebx
  )" + mnemonic + R"( %ebx, %eax
  hlt
)";
  auto img = bm.LoadProgram(src, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  StopInfo stop = bm.Run(10'000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  u32 fl = bm.cpu().eflags();
  return AluResult{bm.cpu().reg(Reg::kEax), (fl & kFlagCf) != 0, (fl & kFlagZf) != 0,
                   (fl & kFlagSf) != 0, (fl & kFlagOf) != 0};
}

class AluProperty : public ::testing::TestWithParam<u64> {};

TEST_P(AluProperty, AddMatchesHostSemantics) {
  u64 state = GetParam();
  for (int i = 0; i < 8; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    AluResult r = RunAlu("add", a, b);
    u32 expected = a + b;
    EXPECT_EQ(r.value, expected) << a << "+" << b;
    EXPECT_EQ(r.cf, expected < a);
    EXPECT_EQ(r.zf, expected == 0);
    EXPECT_EQ(r.sf, (expected >> 31) != 0);
    bool of = ((~(a ^ b)) & (a ^ expected) & 0x80000000u) != 0;
    EXPECT_EQ(r.of, of);
  }
}

TEST_P(AluProperty, SubMatchesHostSemantics) {
  u64 state = GetParam() * 3 + 1;
  for (int i = 0; i < 8; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    AluResult r = RunAlu("sub", a, b);
    u32 expected = a - b;
    EXPECT_EQ(r.value, expected);
    EXPECT_EQ(r.cf, a < b);
    EXPECT_EQ(r.zf, expected == 0);
    EXPECT_EQ(r.sf, (expected >> 31) != 0);
  }
}

TEST_P(AluProperty, LogicOpsMatchHostSemantics) {
  u64 state = GetParam() * 7 + 5;
  for (int i = 0; i < 5; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    EXPECT_EQ(RunAlu("and", a, b).value, a & b);
    EXPECT_EQ(RunAlu("or", a, b).value, a | b);
    EXPECT_EQ(RunAlu("xor", a, b).value, a ^ b);
    AluResult r = RunAlu("and", a, b);
    EXPECT_FALSE(r.cf);
    EXPECT_FALSE(r.of);
    EXPECT_EQ(r.zf, (a & b) == 0);
  }
}

TEST_P(AluProperty, MulDivMatchHostSemantics) {
  u64 state = GetParam() * 13 + 11;
  for (int i = 0; i < 5; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    EXPECT_EQ(RunAlu("imul", a, b).value,
              static_cast<u32>(static_cast<i64>(static_cast<i32>(a)) *
                               static_cast<i32>(b)));
    if (b != 0) {
      EXPECT_EQ(RunAlu("udiv", a, b).value, a / b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluProperty, ::testing::Values(1u, 42u, 0xDEADBEEFu, 7777u));

class ShiftProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShiftProperty, ShiftsMatchHostSemantics) {
  const int amount = GetParam();
  u64 state = 1000 + amount;
  for (int i = 0; i < 4; ++i) {
    u32 a = NextRand(&state);
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $)" + std::to_string(a) + R"(, %eax
  mov %eax, %ebx
  mov %eax, %ecx
  shl $)" + std::to_string(amount) + R"(, %eax
  shr $)" + std::to_string(amount) + R"(, %ebx
  sar $)" + std::to_string(amount) + R"(, %ecx
  hlt
)";
    auto img = bm.LoadProgram(src, kCodeBase, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEax), a << amount);
    EXPECT_EQ(bm.cpu().reg(Reg::kEbx), a >> amount);
    EXPECT_EQ(bm.cpu().reg(Reg::kEcx), static_cast<u32>(static_cast<i32>(a) >> amount));
  }
}

INSTANTIATE_TEST_SUITE_P(Amounts, ShiftProperty, ::testing::Values(0, 1, 7, 16, 31));

class MemWidthProperty : public ::testing::TestWithParam<int> {};

TEST_P(MemWidthProperty, StoreLoadRoundTrip) {
  const int width = GetParam();
  const char* st = width == 1 ? "st8" : (width == 2 ? "st16" : "st");
  const char* ld = width == 1 ? "ld8" : (width == 2 ? "ld16" : "ld");
  u64 state = 99 + width;
  for (int i = 0; i < 6; ++i) {
    u32 v = NextRand(&state);
    u32 mask = width == 1 ? 0xFFu : (width == 2 ? 0xFFFFu : 0xFFFFFFFFu);
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $0x20000, %ebx
  mov $)" + std::to_string(v) + R"(, %eax
  )" + st + R"( %eax, 0(%ebx)
  mov $0, %eax
  )" + ld + R"( 0(%ebx), %eax
  hlt
)";
    auto img = bm.LoadProgram(src, kCodeBase, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEax), v & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MemWidthProperty, ::testing::Values(1, 2, 4));

TEST(MemAddressing, PageCrossingAccess) {
  // A 4-byte store straddling a page boundary must behave like two partial
  // accesses on consecutive pages.
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $0x20FFE, %ebx     ; 2 bytes before a page boundary
  mov $0xAABBCCDD, %eax
  st %eax, 0(%ebx)
  ld 0(%ebx), %ecx
  ld8 2(%ebx), %edx      ; first byte of the next page: 0xBB
  hlt
)",
                            0x10000, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEcx), 0xAABBCCDDu);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0xBBu);
}

TEST(MemAddressing, ScaledIndexSweep) {
  for (u32 scale : {1u, 2u, 4u, 8u}) {
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $0x20000, %ebx
  mov $3, %ecx
  mov $0x77, %eax
  st %eax, 0(%ebx,%ecx,)" + std::to_string(scale) +
                      R"()
  ld )" + std::to_string(3 * scale) +
                      R"((%ebx), %edx
  hlt
)";
    auto img = bm.LoadProgram(src, 0x10000, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0x77u) << "scale " << scale;
  }
}

// --- Fast/slow differential fuzz ---------------------------------------------
// Randomized instruction sequences executed twice — D-TLB fast path on vs the
// per-byte oracle — must produce identical architectural state, memory
// images, cycle counts, TLB statistics and fault streams. Faulting
// instructions are skipped and recorded so hostile page setups yield long
// fault streams instead of stopping at the first one.

// Every distinct (engine x D-TLB) mode; the first is the reference the
// differential fuzzes compare every other mode against.
struct EngineMode {
  Engine engine;
  bool dtlb;
  const char* name;
};
constexpr EngineMode kEngineModes[] = {
    {Engine::kTrace, true, "trace/dtlb"},   {Engine::kTrace, false, "trace/no-dtlb"},
    {Engine::kBlock, true, "block/dtlb"},   {Engine::kBlock, false, "block/no-dtlb"},
    {Engine::kInsn, true, "insn/dtlb"},     {Engine::kInsn, false, "insn/no-dtlb"},
    {Engine::kOracle, true, "oracle/dtlb"}, {Engine::kOracle, false, "oracle/no-dtlb"},
};

struct DiffRun {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  std::vector<u8> memory;
};

constexpr u32 kFuzzDataBase = 0x200000;
constexpr u32 kFuzzDataSpan = 4 * 4096;
constexpr u32 kFuzzMem = 8u << 20;

// Hostile-page setups rotated across seeds: none, a read-only page and a
// supervisor (PPL 0) page inside the data window.
enum class FuzzMode : int { kPlainCpl0 = 0, kPlainCpl3, kHostileCpl3, kHostileCpl0, kCount };

std::vector<u8> EncodeFuzzProgram(u64 seed, u32 iterations, u32 body_len) {
  return EncodeLoopedFuzzProgram(seed, iterations, body_len, kCodeBase, kFuzzDataBase,
                                 kFuzzDataSpan);
}

// Runs `program` with the D-TLB on or off, on `engine` or, when none is
// given, on the engine the environment selects (RuntimeConfig).
DiffRun RunDifferential(const std::vector<u8>& program, FuzzMode mode, bool dtlb,
                        std::optional<Engine> engine = std::nullopt) {
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  BareMachine bm(config);
  bm.cpu().set_dtlb_enabled(dtlb);
  if (engine.has_value()) bm.cpu().set_engine(*engine);
  EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, program.data(),
                                 static_cast<u32>(program.size())));
  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  if (hostile) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));   // read-only
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));  // PPL 0
  }
  const u8 cpl =
      (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  bm.Start(kCodeBase, cpl, kStackTop);

  DiffRun out;
  for (;;) {
    StopInfo stop = bm.Run(50'000'000);
    if (stop.reason == StopReason::kFault && out.faults.size() < 4096) {
      out.faults.push_back(FaultRecord{bm.cpu().eip(), stop.fault.vector,
                                       stop.fault.error_code, stop.fault.linear_address});
      // Skip the faulting instruction and keep going — the hostile pages
      // produce a long fault stream, which both paths must reproduce.
      bm.cpu().set_eip(bm.cpu().eip() + kInsnSize);
      continue;
    }
    out.final_reason = stop.reason;
    break;
  }
  out.ctx = bm.cpu().SaveContext();
  out.cycles = bm.cpu().cycles();
  out.instructions = bm.cpu().instructions_retired();
  out.tlb_hits = bm.cpu().tlb_stats().hits;
  out.tlb_misses = bm.cpu().tlb_stats().misses;
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  return out;
}

// Architectural state, memory image, cycles, TLB misses and fault stream
// must match; so must TLB hits unless one side is the oracle engine, which
// fetches per byte.
void ExpectSameDiffRun(const DiffRun& a, const DiffRun& b, bool compare_tlb_hits) {
  EXPECT_EQ(a.final_reason, b.final_reason);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
  if (compare_tlb_hits) {
    EXPECT_EQ(a.tlb_hits, b.tlb_hits) << "TLB hit accounting diverged";
  }
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);

  ASSERT_EQ(a.faults.size(), b.faults.size()) << "fault streams differ in length";
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_TRUE(a.faults[i] == b.faults[i]) << "fault " << i << " diverged";
  }

  EXPECT_EQ(a.ctx.eip, b.ctx.eip);
  EXPECT_EQ(a.ctx.eflags, b.ctx.eflags);
  EXPECT_EQ(a.ctx.cpl, b.ctx.cpl);
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
  }
  for (u8 s = 0; s < kNumSegRegs; ++s) {
    EXPECT_EQ(a.ctx.segs[s].selector.raw(), b.ctx.segs[s].selector.raw());
  }
  ASSERT_EQ(a.memory.size(), b.memory.size());
  EXPECT_EQ(std::memcmp(a.memory.data(), b.memory.data(), a.memory.size()), 0)
      << "memory images diverged";
}

TEST(DtlbDifferential, FastAndSlowPathsAgreeOnRandomPrograms) {
  constexpr u32 kSeeds = 52;
  constexpr u32 kIterations = 400;
  constexpr u32 kBodyLen = 224;  // > 10k executed instructions per seed
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
    const std::vector<u8> program = EncodeFuzzProgram(seed, kIterations, kBodyLen);
    DiffRun fast = RunDifferential(program, mode, /*dtlb=*/true);
    DiffRun slow = RunDifferential(program, mode, /*dtlb=*/false);

    SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                 std::to_string(static_cast<int>(mode)));
    EXPECT_GE(fast.instructions, 10'000u) << "fuzz body too small to be meaningful";
    ExpectSameDiffRun(fast, slow, /*compare_tlb_hits=*/true);
  }
}

// The same comparison across all eight engine modes on flag-corner programs
// (tests/fuzz_util.h): an up-counting loop whose head, and so every trace
// entry, sees CF set, and bodies that draw `imul` and forward branches on
// all 12 conditions. A trace tier that loses the carry live at its entry,
// or gets a guard condition the default draw never makes wrong, diverges
// from the eager engines here.
TEST(FlagCornerDifferential, AllEightModesAgreeWithCarryLiveAtEntry) {
  constexpr u32 kSeeds = 24;
  constexpr u32 kIterations = 300;
  constexpr u32 kBodyLen = 224;
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
    const std::vector<u8> program =
        EncodeLoopedFuzzProgram(seed, kIterations, kBodyLen, kCodeBase, kFuzzDataBase,
                                kFuzzDataSpan, /*code_stores=*/false, /*flag_corners=*/true);
    DiffRun ref;
    for (const EngineMode& em : kEngineModes) {
      DiffRun run = RunDifferential(program, mode, em.dtlb, em.engine);
      SCOPED_TRACE("seed " + std::to_string(seed) + " config " + em.name);
      if (&em == &kEngineModes[0]) {
        ref = std::move(run);
        // Forward branches on all 12 conditions skip more of the body.
        EXPECT_GE(ref.instructions, 5'000u) << "fuzz body too small to be meaningful";
        continue;
      }
      ExpectSameDiffRun(run, ref, /*compare_tlb_hits=*/em.engine != Engine::kOracle);
    }
  }
}

// --- Async-interrupt differential fuzz ----------------------------------------
// The same random-program harness with a hardware timer and a scripted
// second device injecting IRQs at pseudo-random cycle counts. Delivery is
// keyed off the cycle counter at retire boundaries, so ALL architectural
// effects — registers, memory (ISR counters, interrupt frames), cycles,
// fault stream AND interrupt stream — must be identical in the eight
// distinct modes: Engine {trace, block, insn, oracle} x D-TLB {on, off}.

class ScriptedIrqDevice : public IrqDevice {
 public:
  ScriptedIrqDevice(InterruptController& pic, u32 irq, std::vector<u64> times)
      : pic_(pic), irq_(irq), times_(std::move(times)) {}
  u64 next_event() const override { return next_ < times_.size() ? times_[next_] : kIdle; }
  void Advance(u64 now) override {
    while (next_ < times_.size() && times_[next_] <= now) {
      pic_.Raise(irq_);
      ++next_;
    }
  }

 private:
  InterruptController& pic_;
  u32 irq_;
  std::vector<u64> times_;
  size_t next_ = 0;
};

constexpr u32 kIsrBase = 0x8000;       // one ISR per IRQ, 0x100 apart
constexpr u32 kIsrCounters = 0x9000;   // ISR hit counters (outside the fuzz window)

// push %eax ; eax <- [counter] ; inc ; [counter] <- eax ; pop %eax ; iret
std::vector<u8> EncodeCounterIsr(u32 counter_addr) {
  std::vector<Insn> insns(6);
  insns[0].opcode = Opcode::kPushR;
  insns[0].r1 = static_cast<u8>(Reg::kEax);
  insns[1].opcode = Opcode::kLoad;
  insns[1].r1 = static_cast<u8>(Reg::kEax);
  insns[1].r2 = kNoBaseReg;
  insns[1].size = 4;
  insns[1].disp = static_cast<i32>(counter_addr);
  insns[2].opcode = Opcode::kIncR;
  insns[2].r1 = static_cast<u8>(Reg::kEax);
  insns[3].opcode = Opcode::kStore;
  insns[3].r1 = static_cast<u8>(Reg::kEax);
  insns[3].r2 = kNoBaseReg;
  insns[3].size = 4;
  insns[3].disp = static_cast<i32>(counter_addr);
  insns[4].opcode = Opcode::kPopR;
  insns[4].r1 = static_cast<u8>(Reg::kEax);
  insns[5].opcode = Opcode::kIret;
  std::vector<u8> bytes(insns.size() * kInsnSize);
  for (size_t i = 0; i < insns.size(); ++i) insns[i].EncodeTo(bytes.data() + i * kInsnSize);
  return bytes;
}

struct IrqDiffRun {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  std::vector<Cpu::IrqEvent> irqs;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  std::vector<u8> memory;
  // Architectural flight-recorder stream: tracing+profiling run fully
  // enabled in every mode, and the kArch events must be byte-identical.
  std::vector<obs::Event> arch_events;
  u64 trace_promotions = 0;  // engine counter: never compared across modes
  DecodeCache::Stats decode;
  u64 decode_generation = 0;
};

IrqDiffRun RunDifferentialIrq(const std::vector<u8>& program, FuzzMode mode,
                              const EngineMode& em, u64 timer_period,
                              const std::vector<u64>& nic_times) {
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  BareMachine bm(config);
  bm.cpu().set_engine(em.engine);
  bm.cpu().set_dtlb_enabled(em.dtlb);
  // Telemetry fully on: observation must be free in simulated time, so the
  // differential assertions below hold with the recorder and profiler
  // attached. Capacity is sized so nothing wraps (engine-event counts differ
  // across modes and would otherwise evict different arch events).
  obs::FlightRecorder recorder;
  recorder.Reset(1, 1u << 16);
  obs::CycleProfile profiler;
  profiler.Reset(1, bm.cpu().cycle_model().tlb_miss_penalty);
  bm.cpu().set_recorder(&recorder, 0);
  bm.cpu().set_profiler(&profiler, 0);
  EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, program.data(), static_cast<u32>(program.size())));
  auto isr0 = EncodeCounterIsr(kIsrCounters + 0);
  auto isr5 = EncodeCounterIsr(kIsrCounters + 4);
  EXPECT_TRUE(bm.pm().WriteBlock(kIsrBase, isr0.data(), static_cast<u32>(isr0.size())));
  EXPECT_TRUE(bm.pm().WriteBlock(kIsrBase + 0x100, isr5.data(), static_cast<u32>(isr5.size())));
  bm.idt().Set(0x20, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          kIsrBase, 0));
  bm.idt().Set(0x25, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          kIsrBase + 0x100, 0));

  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  if (hostile) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));
  }
  const u8 cpl = (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  bm.Start(kCodeBase, cpl, kStackTop);
  bm.cpu().set_eflags(kFlagIf);

  InterruptController pic;
  pic.set_auto_eoi(true);  // simulated ISRs have no EOI channel
  IrqHub hub(pic);
  IntervalTimer timer(pic, 0);
  ScriptedIrqDevice nic(pic, 5, nic_times);
  hub.AddDevice(&timer);
  hub.AddDevice(&nic);
  timer.Program(timer_period, 0);
  bm.cpu().set_irq_hub(&hub);

  IrqDiffRun out;
  bm.cpu().set_irq_trace(&out.irqs);
  for (;;) {
    StopInfo stop = bm.Run(30'000'000);
    if (stop.reason == StopReason::kFault && out.faults.size() < 4096) {
      out.faults.push_back(FaultRecord{bm.cpu().eip(), stop.fault.vector,
                                       stop.fault.error_code, stop.fault.linear_address});
      bm.cpu().set_eip(bm.cpu().eip() + kInsnSize);
      continue;
    }
    out.final_reason = stop.reason;
    break;
  }
  bm.cpu().set_irq_trace(nullptr);
  out.ctx = bm.cpu().SaveContext();
  out.cycles = bm.cpu().cycles();
  out.instructions = bm.cpu().instructions_retired();
  out.tlb_hits = bm.cpu().tlb_stats().hits;
  out.tlb_misses = bm.cpu().tlb_stats().misses;
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  EXPECT_EQ(recorder.TotalDropped(), 0u) << "fuzz ring sized too small to compare streams";
  out.arch_events = recorder.ArchEvents(0);
  out.trace_promotions = bm.cpu().trace_stats().promotions;
  out.decode = bm.cpu().decode_cache().stats();
  out.decode_generation = bm.cpu().decode_cache().generation();
  return out;
}

TEST(IrqDifferential, AllEightModesAgreeUnderRandomInterrupts) {
  constexpr u32 kSeeds = 16;
  constexpr u32 kIterations = 300;
  constexpr u32 kBodyLen = 160;
  u64 total_irqs = 0;
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
    const u64 program_seed = seed * 31 + 7;
    const std::vector<u8> program = EncodeFuzzProgram(program_seed, kIterations, kBodyLen);
    const u64 timer_period = 2'000 + (seed * 977) % 9'000;
    // Scripted second device: IRQ 5 at pseudo-random cycle counts.
    std::vector<u64> nic_times;
    u64 st = seed * 0xA24BAED4963EE407ull + 3;
    u64 t = 1'000;
    for (int i = 0; i < 40; ++i) {
      t += 500 + NextRand(&st) % 120'000;
      nic_times.push_back(t);
    }

    IrqDiffRun ref;
    for (const EngineMode& em : kEngineModes) {
      IrqDiffRun run = RunDifferentialIrq(program, mode, em, timer_period, nic_times);
      SCOPED_TRACE("seed " + std::to_string(seed) + " config " + em.name);
      // The top-tested loop spans several runs: only loop lowering can
      // promote it, and the differential must actually exercise that.
      if (em.engine == Engine::kTrace && FuzzLoopIsTopTested(program_seed)) {
        EXPECT_GT(run.trace_promotions, 0u) << "the top-tested loop must promote";
      }
      if (&em == &kEngineModes[0]) {
        ref = std::move(run);
        // Forward branches can shorten a seed's run; at least one delivery
        // per seed plus a healthy aggregate (checked below) keeps the fuzz
        // honest about interrupts actually firing.
        EXPECT_GE(ref.irqs.size(), 1u) << "interrupts must actually have fired";
        total_irqs += ref.irqs.size();
        continue;
      }
      EXPECT_EQ(run.final_reason, ref.final_reason);
      EXPECT_EQ(run.instructions, ref.instructions);
      EXPECT_EQ(run.cycles, ref.cycles) << "cycle model diverged";
      ASSERT_EQ(run.faults.size(), ref.faults.size());
      for (size_t i = 0; i < run.faults.size(); ++i) {
        EXPECT_TRUE(run.faults[i] == ref.faults[i]) << "fault " << i << " diverged";
      }
      ASSERT_EQ(run.irqs.size(), ref.irqs.size()) << "interrupt streams differ in length";
      for (size_t i = 0; i < run.irqs.size(); ++i) {
        EXPECT_TRUE(run.irqs[i] == ref.irqs[i])
            << "irq " << i << " diverged: vector " << static_cast<int>(run.irqs[i].vector)
            << " at cycle " << run.irqs[i].cycle << " vs " << ref.irqs[i].cycle;
      }
      ASSERT_EQ(run.arch_events.size(), ref.arch_events.size())
          << "flight-recorder arch streams differ in length";
      for (size_t i = 0; i < run.arch_events.size(); ++i) {
        EXPECT_TRUE(run.arch_events[i] == ref.arch_events[i])
            << "arch event " << i << " (" << EventTypeName(run.arch_events[i].type)
            << ") diverged at cycle " << run.arch_events[i].cycle << " vs "
            << ref.arch_events[i].cycle;
      }
      EXPECT_EQ(run.ctx.eip, ref.ctx.eip);
      EXPECT_EQ(run.ctx.eflags, ref.ctx.eflags);
      EXPECT_EQ(run.ctx.cpl, ref.ctx.cpl);
      for (u8 r = 0; r < kNumRegs; ++r) {
        EXPECT_EQ(run.ctx.regs[r], ref.ctx.regs[r]) << "reg " << static_cast<int>(r);
      }
      // TLB statistics are an implementation counter of the *fetch* path:
      // they match whenever both modes fetch from decoded pages, as the
      // reference does (the D-TLB keeps them exact by construction); against
      // the per-byte fetch of the oracle engine only the miss count is
      // comparable.
      if (em.engine != Engine::kOracle) {
        EXPECT_EQ(run.tlb_hits, ref.tlb_hits);
      }
      EXPECT_EQ(run.tlb_misses, ref.tlb_misses);
      ASSERT_EQ(run.memory.size(), ref.memory.size());
      EXPECT_EQ(std::memcmp(run.memory.data(), ref.memory.data(), run.memory.size()), 0)
          << "memory images diverged";
    }
  }
  EXPECT_GT(total_irqs, 60u) << "the interrupt fuzz barely interrupted anything";
}

// --- Code-page store differential fuzz -------------------------------------------
// The interrupt fuzz's harness on programs that also store into their own
// code page (tests/fuzz_util.h, BuildCodeStore): random data into spare
// slots, re-stores of body slots' own words, and toggles of the immediate of
// a `mov` the loop executes. A decoded page dies exactly when a write
// changes what a slot decodes to — a decision made from memory bytes alone —
// so on top of the architectural agreement every decoded mode must keep,
// retire and rebuild pages at the same writes: equal decode.* counters, and
// equal TLB hits (each retirement costs the next fetch one translation).

TEST(CodeStoreDifferential, AllEightModesAgreeOnCodePageStores) {
  constexpr u32 kSeeds = 12;
  constexpr u32 kIterations = 600;
  constexpr u32 kBodyLen = 160;
  u64 total_kept = 0;
  u64 total_invalidations = 0;
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
    const u64 program_seed = seed * 53 + 5;
    const std::vector<u8> program =
        EncodeLoopedFuzzProgram(program_seed, kIterations, kBodyLen, kCodeBase, kFuzzDataBase,
                                kFuzzDataSpan, /*code_stores=*/true);
    const u64 timer_period = 3'000 + (seed * 1'213) % 9'000;
    std::vector<u64> nic_times;
    u64 st = seed * 0xD1B54A32D192ED03ull + 9;
    u64 t = 2'000;
    for (int i = 0; i < 20; ++i) {
      t += 500 + NextRand(&st) % 120'000;
      nic_times.push_back(t);
    }

    IrqDiffRun ref;
    for (const EngineMode& em : kEngineModes) {
      IrqDiffRun run = RunDifferentialIrq(program, mode, em, timer_period, nic_times);
      SCOPED_TRACE("seed " + std::to_string(seed) + " config " + em.name);
      if (&em == &kEngineModes[0]) {
        ref = std::move(run);
        EXPECT_GE(ref.instructions, 10'000u) << "fuzz body too small to be meaningful";
        total_kept += ref.decode.writes_kept;
        total_invalidations += ref.decode.write_invalidations;
        continue;
      }
      EXPECT_EQ(run.final_reason, ref.final_reason);
      EXPECT_EQ(run.instructions, ref.instructions);
      EXPECT_EQ(run.cycles, ref.cycles) << "cycle model diverged";
      EXPECT_EQ(run.tlb_misses, ref.tlb_misses);
      EXPECT_TRUE(run.faults == ref.faults)
          << "fault streams diverged (" << run.faults.size() << " vs " << ref.faults.size() << ")";
      EXPECT_TRUE(run.irqs == ref.irqs)
          << "interrupt streams diverged (" << run.irqs.size() << " vs " << ref.irqs.size() << ")";
      EXPECT_TRUE(run.arch_events == ref.arch_events) << "flight-recorder arch streams diverged";
      EXPECT_EQ(run.ctx.eip, ref.ctx.eip);
      EXPECT_EQ(run.ctx.eflags, ref.ctx.eflags);
      EXPECT_EQ(run.ctx.cpl, ref.ctx.cpl);
      for (u8 r = 0; r < kNumRegs; ++r) {
        EXPECT_EQ(run.ctx.regs[r], ref.ctx.regs[r]) << "reg " << static_cast<int>(r);
      }
      ASSERT_EQ(run.memory.size(), ref.memory.size());
      EXPECT_EQ(std::memcmp(run.memory.data(), ref.memory.data(), run.memory.size()), 0)
          << "memory images diverged";
      if (em.engine == Engine::kOracle) continue;  // no decode cache, per-byte fetch
      EXPECT_EQ(run.tlb_hits, ref.tlb_hits);
      EXPECT_EQ(run.decode.builds, ref.decode.builds);
      EXPECT_EQ(run.decode.write_invalidations, ref.decode.write_invalidations);
      EXPECT_EQ(run.decode.writes_kept, ref.decode.writes_kept);
      EXPECT_EQ(run.decode.evictions, ref.decode.evictions);
      EXPECT_EQ(run.decode_generation, ref.decode_generation);
    }
  }
  EXPECT_GT(total_kept, 0u) << "no code-page store kept its page";
  EXPECT_GT(total_invalidations, 0u) << "no code-page store changed a decode";
}

// --- SMP differential fuzz -----------------------------------------------------
// N vCPUs share physical memory, the identity page tables and the fuzz data
// window; the deterministic min-cycle interleaver (src/hw/smp.h) steps them
// at instruction-retire boundaries, and scripted cross-CPU shootdowns flip a
// window page's W bit at pseudo-random global cycles, flushing the page on
// every core (the kernel shootdown protocol, driven by hand). Because per-CPU
// cycle counters are byte-identical with the fast paths on or off, the whole
// interleave — and therefore every per-vCPU register file, fault stream,
// cycle count and the shared memory image — must be identical in all eight
// (engine × D-TLB) modes, for N ∈ {1, 2, 4}.

constexpr u32 kSmpCodeStride = 0x8000;  // per-vCPU program base spacing
// Per-vCPU stacks, one page each. Geometry rule: no page a *data* access
// can touch may share a direct-mapped TLB set with a code page (sets
// 16/24/32/40 here). The decoded-page fetch path performs fewer TLB
// lookups than the per-byte oracle (that is what makes it fast), so a
// code/data set conflict would make TLB miss counts — and thus cycle
// counts — legitimately mode-dependent. Note the "data" set includes pages
// *above* each stack top: a runtime-unbalanced forward branch can pop more
// than was pushed, reading past the initial ESP. The uniprocessor fuzz
// obeys the same rule implicitly (stack pages land in sets 63/0).
constexpr u32 kSmpStackTop = 0x80000;
constexpr u32 kSmpStackStride = 0x2000;

struct SmpCpuResult {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  std::vector<u64> fault_cycles;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  std::vector<obs::Event> arch_events;
  u64 trace_promotions = 0;  // engine counter: never compared across modes
};

struct SmpDiffRun {
  std::vector<SmpCpuResult> cpus;
  std::vector<u8> memory;
};

SmpDiffRun RunSmpDifferential(const std::vector<std::vector<u8>>& programs, FuzzMode mode,
                              const EngineMode& em, const std::vector<u64>& shootdown_cycles) {
  const u32 n = static_cast<u32>(programs.size());
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  config.num_cpus = n;
  BareMachine bm(config);
  Machine& m = bm.machine();
  EXPECT_EQ(m.num_cpus(), n);
  // Telemetry fully on (one recorder track and one profiler slot per vCPU);
  // the per-vCPU differential assertions below must hold regardless.
  obs::FlightRecorder recorder;
  recorder.Reset(n, 1u << 16);
  obs::CycleProfile profiler;
  profiler.Reset(n, m.cpu(0).cycle_model().tlb_miss_penalty);
  for (u32 c = 0; c < n; ++c) {
    m.cpu(c).set_engine(em.engine);
    m.cpu(c).set_dtlb_enabled(em.dtlb);
    m.cpu(c).set_recorder(&recorder, c);
    m.cpu(c).set_profiler(&profiler, c);
  }
  for (u32 c = 0; c < n; ++c) {
    const u32 base = kCodeBase + c * kSmpCodeStride;
    EXPECT_TRUE(bm.pm().WriteBlock(base, programs[c].data(),
                                   static_cast<u32>(programs[c].size())));
  }
  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  const u32 cr3 = m.cpu(0).cr3();
  auto flush_all = [&m, n](u32 linear) {
    for (u32 c = 0; c < n; ++c) m.cpu(c).tlb().FlushPage(linear);
  };
  if (hostile) {
    PageTableEditor ed(bm.pm(), cr3, flush_all);
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));   // read-only
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));  // PPL 0
  }
  const u8 cpl = (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  for (u32 c = 0; c < n; ++c) {
    bm.StartCpu(c, kCodeBase + c * kSmpCodeStride, cpl, kSmpStackTop - c * kSmpStackStride);
  }

  SmpInterleaver il(m);
  // Scripted cross-CPU shootdowns: toggle the W bit of window page 3 at the
  // given global cycles, flushing the page on every core exactly as the
  // kernel's editor-hook shootdown would.
  bool write_protected = false;
  for (u64 cy : shootdown_cycles) {
    il.AddEvent(cy, [&bm, &m, cr3, &flush_all, &write_protected] {
      PageTableEditor ed(bm.pm(), cr3, flush_all);
      if (write_protected) {
        ed.UpdateFlags(kFuzzDataBase + 3 * kPageSize, kPteWrite, 0);
      } else {
        ed.UpdateFlags(kFuzzDataBase + 3 * kPageSize, 0, kPteWrite);
      }
      write_protected = !write_protected;
      (void)m;
    });
  }

  SmpDiffRun out;
  out.cpus.resize(n);
  il.Run(80'000'000, [&](u32 c, const StopInfo& stop) {
    if (stop.reason == StopReason::kFault && out.cpus[c].faults.size() < 4096) {
      out.cpus[c].faults.push_back(FaultRecord{m.cpu(c).eip(), stop.fault.vector,
                                               stop.fault.error_code,
                                               stop.fault.linear_address});
      out.cpus[c].fault_cycles.push_back(m.cpu(c).cycles());
      m.cpu(c).set_eip(m.cpu(c).eip() + kInsnSize);
      return true;  // keep running past the faulting instruction
    }
    out.cpus[c].final_reason = stop.reason;
    return false;  // halted (or fault overflow): park this vCPU
  });
  for (u32 c = 0; c < n; ++c) {
    out.cpus[c].ctx = m.cpu(c).SaveContext();
    out.cpus[c].cycles = m.cpu(c).cycles();
    out.cpus[c].instructions = m.cpu(c).instructions_retired();
    out.cpus[c].arch_events = recorder.ArchEvents(c);
    out.cpus[c].trace_promotions = m.cpu(c).trace_stats().promotions;
  }
  EXPECT_EQ(recorder.TotalDropped(), 0u) << "fuzz ring sized too small to compare streams";
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  return out;
}

TEST(SmpDifferential, AllModesAgreePerVcpuUnderSharedMemoryAndShootdowns) {
  constexpr u32 kSeeds = 6;
  constexpr u32 kIterations = 150;
  constexpr u32 kBodyLen = 160;
  for (u64 seed = 1; seed <= kSeeds; ++seed) {
    const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
    // Scripted shootdown points: pseudo-random global cycles early enough to
    // land inside the run.
    std::vector<u64> shootdowns;
    u64 st = seed * 0x9E3779B97F4A7C15ull + 11;
    u64 t = 1'200;
    for (int i = 0; i < 6; ++i) {
      t += 400 + NextRand(&st) % 4'000;
      shootdowns.push_back(t);
    }
    for (u32 n : {1u, 2u, 4u}) {
      std::vector<std::vector<u8>> programs;
      std::vector<bool> top_tested;
      for (u32 c = 0; c < n; ++c) {
        // Each vCPU gets its own random body, branch targets rebased to its
        // code window. (Shared builder: tests/fuzz_util.h.)
        const u64 pseed = seed * 101 + c * 17 + 3;
        top_tested.push_back(FuzzLoopIsTopTested(pseed));
        programs.push_back(EncodeLoopedFuzzProgram(pseed, kIterations, kBodyLen,
                                                   kCodeBase + c * kSmpCodeStride,
                                                   kFuzzDataBase, kFuzzDataSpan));
      }

      SmpDiffRun ref;
      for (const EngineMode& em : kEngineModes) {
        SmpDiffRun run = RunSmpDifferential(programs, mode, em, shootdowns);
        SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n) +
                     " config " + em.name);
        if (em.engine == Engine::kTrace) {
          for (u32 c = 0; c < n; ++c) {
            if (top_tested[c]) {
              EXPECT_GT(run.cpus[c].trace_promotions, 0u)
                  << "vCPU " << c << ": the top-tested loop must promote";
            }
          }
        }
        if (&em == &kEngineModes[0]) {
          ref = std::move(run);
          for (u32 c = 0; c < n; ++c) {
            EXPECT_GE(ref.cpus[c].instructions, 1'000u)
                << "vCPU " << c << " barely executed — fuzz not meaningful";
          }
          continue;
        }
        ASSERT_EQ(run.cpus.size(), ref.cpus.size());
        for (u32 c = 0; c < n; ++c) {
          SCOPED_TRACE("vcpu " + std::to_string(c));
          const SmpCpuResult& a = run.cpus[c];
          const SmpCpuResult& b = ref.cpus[c];
          EXPECT_EQ(a.final_reason, b.final_reason);
          EXPECT_EQ(a.instructions, b.instructions);
          EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
          ASSERT_EQ(a.faults.size(), b.faults.size()) << "fault streams differ in length";
          for (size_t i = 0; i < a.faults.size(); ++i) {
            EXPECT_TRUE(a.faults[i] == b.faults[i])
                << "fault " << i << " diverged: eip " << std::hex << a.faults[i].eip
                << " vs " << b.faults[i].eip << ", err " << a.faults[i].error_code << " vs "
                << b.faults[i].error_code << ", linear " << a.faults[i].linear << " vs "
                << b.faults[i].linear << std::dec << ", vector "
                << static_cast<int>(a.faults[i].vector) << " vs "
                << static_cast<int>(b.faults[i].vector) << ", at cycle "
                << a.fault_cycles[i] << " vs " << b.fault_cycles[i];
          }
          EXPECT_EQ(a.ctx.eip, b.ctx.eip);
          EXPECT_EQ(a.ctx.eflags, b.ctx.eflags);
          EXPECT_EQ(a.ctx.cpl, b.ctx.cpl);
          for (u8 r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
          }
          ASSERT_EQ(a.arch_events.size(), b.arch_events.size())
              << "flight-recorder arch streams differ in length";
          for (size_t i = 0; i < a.arch_events.size(); ++i) {
            EXPECT_TRUE(a.arch_events[i] == b.arch_events[i])
                << "arch event " << i << " diverged";
          }
        }
        ASSERT_EQ(run.memory.size(), ref.memory.size());
        EXPECT_EQ(std::memcmp(run.memory.data(), ref.memory.data(), run.memory.size()), 0)
            << "shared memory images diverged";
      }
    }
  }
}

TEST(Flags, EflagsSurviveInterruptRoundTrip) {
  // Flags are pushed/popped by int/iret; a comparison result must survive a
  // software interrupt.
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
  .global isr
main:
  mov $5, %eax
  cmp $5, %eax          ; ZF := 1
  int $0x40
  je good               ; ZF must still be set
  mov $0, %edi
  hlt
good:
  mov $1, %edi
  hlt
isr:
  mov $7, %eax
  cmp $9, %eax          ; clobber flags inside the handler
  iret
)",
                            0x10000, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.idt().Set(0x40, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          *img->Lookup("isr"), 0));
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(100'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdi), 1u);
}

}  // namespace
}  // namespace palladium
