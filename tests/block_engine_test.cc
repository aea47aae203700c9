// Superblock-engine tests: block lifecycle (build, chain, yield), the
// invalidation edges the engine must get exactly right — a self-modifying
// store into the *currently executing* block, cross-page fallthrough into a
// just-remapped page, and an SMP invalidation landing while another vCPU is
// mid-block — and retire-boundary equivalence with the per-instruction
// oracle (Engine::kBlock vs Engine::kInsn; PALLADIUM_NO_BLOCKS analogue).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

std::vector<u8> Encode(const std::vector<Insn>& program) {
  std::vector<u8> bytes(program.size() * kInsnSize);
  for (size_t i = 0; i < program.size(); ++i) {
    program[i].EncodeTo(bytes.data() + i * kInsnSize);
  }
  return bytes;
}

Insn MovRI(Reg r, i32 imm) {
  Insn in;
  in.opcode = Opcode::kMovRI;
  in.r1 = static_cast<u8>(r);
  in.imm = imm;
  return in;
}

Insn StoreAbs(Reg r, u32 addr, u8 size = 4) {
  Insn in;
  in.opcode = Opcode::kStore;
  in.r1 = static_cast<u8>(r);
  in.r2 = kNoBaseReg;
  in.size = size;
  in.disp = static_cast<i32>(addr);
  return in;
}

Insn AddRI(Reg r, i32 imm) {
  Insn in;
  in.opcode = Opcode::kAddRI;
  in.r1 = static_cast<u8>(r);
  in.imm = imm;
  return in;
}

Insn Hlt() {
  Insn in;
  in.opcode = Opcode::kHlt;
  return in;
}

struct EngineResult {
  StopInfo stop;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
};

// Runs `bytes` at kCodeBase on a fresh machine with the block engine on or
// off and returns the final architectural state.
EngineResult RunProgram(const std::vector<u8>& bytes, Engine engine,
                        u64 cycle_limit = 1'000'000) {
  BareMachine bm;
  bm.cpu().set_engine(engine);
  EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, bytes.data(), static_cast<u32>(bytes.size())));
  bm.Start(kCodeBase, 0, kStackTop);
  EngineResult r;
  r.stop = bm.Run(cycle_limit);
  r.ctx = bm.cpu().SaveContext();
  r.cycles = bm.cpu().cycles();
  r.instructions = bm.cpu().instructions_retired();
  return r;
}

void ExpectSameState(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.stop.reason, b.stop.reason);
  EXPECT_EQ(a.cycles, b.cycles) << "cycle streams diverged";
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ctx.eip, b.ctx.eip);
  EXPECT_EQ(a.ctx.eflags, b.ctx.eflags);
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
  }
}

// A store that patches the *next instruction in the currently executing
// block* must take effect before that instruction retires: the engine has to
// finish the store, notice its own page died, and refetch — the
// per-instruction rule, preserved mid-block.
TEST(BlockEngine, SelfModifyingStoreIntoCurrentBlockExecutesNewCode) {
  // Slot 3 is `mov $1, %edi`; slot 2 patches slot 3's imm field (offset 8
  // within the slot) to 2 before it executes. Straight-line, one page, one
  // block.
  const u32 patched_imm_addr = kCodeBase + 3 * kInsnSize + 8;
  std::vector<Insn> program = {
      MovRI(Reg::kEax, 2),
      MovRI(Reg::kEdi, 0),
      StoreAbs(Reg::kEax, patched_imm_addr),
      MovRI(Reg::kEdi, 1),  // imm patched to 2 at runtime
      Hlt(),
  };
  const std::vector<u8> bytes = Encode(program);
  EngineResult block = RunProgram(bytes, Engine::kBlock);
  EngineResult insn = RunProgram(bytes, Engine::kInsn);
  EXPECT_EQ(block.stop.reason, StopReason::kHalted);
  EXPECT_EQ(block.ctx.regs[static_cast<u8>(Reg::kEdi)], 2u)
      << "patched instruction must execute its new bytes";
  ExpectSameState(block, insn);
}

// Code falling through a page boundary into a page whose mapping was edited
// mid-run (a scripted host event at a deterministic global cycle) must fetch
// through the *new* translation — the fetch pins revalidate against
// Tlb::change_count on the far side of the boundary.
TEST(BlockEngine, CrossPageFallthroughIntoRemappedPage) {
  constexpr u32 kPageA = kCodeBase;            // 0x10000
  constexpr u32 kPageB = kCodeBase + kPageSize;  // 0x11000, remapped mid-run
  auto run = [&](Engine engine) {
    BareMachine bm;
    Machine& m = bm.machine();
    bm.cpu().set_engine(engine);

    // Page A: a long straight-line run (eax += 1 each) that falls through
    // into page B.
    std::vector<Insn> page_a;
    for (u32 i = 0; i < DecodeCache::kSlotsPerPage; ++i) page_a.push_back(AddRI(Reg::kEax, 1));
    const std::vector<u8> a_bytes = Encode(page_a);
    EXPECT_TRUE(bm.pm().WriteBlock(kPageA, a_bytes.data(), static_cast<u32>(a_bytes.size())));

    // Page B's original frame: mov $1, %edi; hlt. The replacement frame:
    // mov $2, %edi; hlt.
    const std::vector<u8> b_old = Encode({MovRI(Reg::kEdi, 1), Hlt()});
    EXPECT_TRUE(bm.pm().WriteBlock(kPageB, b_old.data(), static_cast<u32>(b_old.size())));
    const u32 new_frame = bm.AllocFrame();
    const std::vector<u8> b_new = Encode({MovRI(Reg::kEdi, 2), Hlt()});
    EXPECT_TRUE(bm.pm().WriteBlock(new_frame, b_new.data(), static_cast<u32>(b_new.size())));

    bm.Start(kPageA, 0, kStackTop);

    // Remap linear page B onto the replacement frame while page A is still
    // executing (the straight-line run costs 1 cycle/insn; cycle 64 is
    // mid-page). The editor hook flushes the page on the CPU, which bumps
    // the TLB change count the fetch pins validate against.
    SmpInterleaver il(m);
    il.AddEvent(64, [&] {
      PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                         [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
      EXPECT_TRUE(ed.SetPte(kPageB, MakePte(new_frame, kPtePresent | kPteWrite | kPteUser)));
    });
    StopReason final_reason = StopReason::kCycleLimit;
    il.Run(1'000'000, [&](u32, const StopInfo& stop) {
      final_reason = stop.reason;
      return false;
    });
    EngineResult r;
    r.stop.reason = final_reason;
    r.ctx = bm.cpu().SaveContext();
    r.cycles = bm.cpu().cycles();
    r.instructions = bm.cpu().instructions_retired();
    return r;
  };

  EngineResult block = run(Engine::kBlock);
  EngineResult insn = run(Engine::kInsn);
  EXPECT_EQ(block.stop.reason, StopReason::kHalted);
  EXPECT_EQ(block.ctx.regs[static_cast<u8>(Reg::kEdi)], 2u)
      << "fallthrough must fetch through the remapped translation";
  EXPECT_EQ(block.ctx.regs[static_cast<u8>(Reg::kEax)], DecodeCache::kSlotsPerPage);
  ExpectSameState(block, insn);
}

// An SMP write invalidating a code page lands (via the physical-memory
// write-observer fan-out) while another vCPU is mid-way through a block of
// that page: the victim finishes the instruction retiring at the
// interleave frontier, then refetches and executes the new bytes. Both
// engines must produce identical per-vCPU state and shared memory.
TEST(BlockEngine, SmpInvalidationMidBlockRefetchesNewCode) {
  constexpr u32 kCpu1Code = kCodeBase + 0x4000;
  // vCPU 0 retires ~1 cycle/insn, so at global cycle 100 it is mid-page,
  // inside a block, and still before the patched tail (slots 128..255).
  constexpr u32 kPatchCycle = 100;
  auto run = [&](Engine engine) {
    BareMachineConfig config;
    config.num_cpus = 2;
    BareMachine bm(config);
    Machine& m = bm.machine();
    for (u32 c = 0; c < 2; ++c) m.cpu(c).set_engine(engine);

    // vCPU 0: a long straight-line page of `add $1, %eax`, then hlt on the
    // next page. The patch event rewrites the tail of the page (slots
    // 128..255) to `add $100, %eax` while vCPU 0 is executing inside it.
    std::vector<Insn> code0;
    for (u32 i = 0; i < DecodeCache::kSlotsPerPage; ++i) code0.push_back(AddRI(Reg::kEax, 1));
    const std::vector<u8> bytes0 = Encode(code0);
    EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, bytes0.data(), static_cast<u32>(bytes0.size())));
    const std::vector<u8> tail_hlt = Encode({Hlt()});
    EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase + kPageSize, tail_hlt.data(),
                                   static_cast<u32>(tail_hlt.size())));

    // vCPU 1: its own add loop, far from vCPU 0's code.
    std::vector<Insn> code1;
    for (int i = 0; i < 64; ++i) code1.push_back(AddRI(Reg::kEbx, 3));
    code1.push_back(Hlt());
    const std::vector<u8> bytes1 = Encode(code1);
    EXPECT_TRUE(bm.pm().WriteBlock(kCpu1Code, bytes1.data(), static_cast<u32>(bytes1.size())));

    bm.StartCpu(0, kCodeBase, 0, kStackTop);
    bm.StartCpu(1, kCpu1Code, 0, kStackTop - 0x2000);

    SmpInterleaver il(m);
    il.AddEvent(kPatchCycle, [&] {
      std::vector<Insn> patch;
      for (u32 i = DecodeCache::kSlotsPerPage / 2; i < DecodeCache::kSlotsPerPage; ++i) {
        patch.push_back(AddRI(Reg::kEax, 100));
      }
      const std::vector<u8> pbytes = Encode(patch);
      // Host-side write: fans out to every vCPU's decode cache.
      EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase + (kPageSize / 2), pbytes.data(),
                                     static_cast<u32>(pbytes.size())));
    });
    il.Run(1'000'000, [&](u32, const StopInfo& stop) {
      EXPECT_EQ(stop.reason, StopReason::kHalted);
      return false;
    });

    struct SmpResult {
      CpuContext ctx0, ctx1;
      u64 cycles0, cycles1;
    } r{m.cpu(0).SaveContext(), m.cpu(1).SaveContext(), m.cpu(0).cycles(), m.cpu(1).cycles()};
    return r;
  };

  auto block = run(Engine::kBlock);
  auto insn = run(Engine::kInsn);
  // The patch fired at cycle 200 with vCPU 0 inside the page (1 cycle/insn,
  // interleaved with vCPU 1), so the final EAX must mix old (+1) and new
  // (+100) increments: strictly more than 256 plain increments, and the
  // patched tail (128 slots) must all count +100.
  const u32 eax = block.ctx0.regs[static_cast<u8>(Reg::kEax)];
  EXPECT_GT(eax, DecodeCache::kSlotsPerPage) << "patched instructions must have executed";
  EXPECT_EQ((eax - DecodeCache::kSlotsPerPage) % 99u, 0u)
      << "every patched slot adds exactly 99 extra";
  EXPECT_EQ((eax - DecodeCache::kSlotsPerPage) / 99u, DecodeCache::kSlotsPerPage / 2)
      << "the whole patched tail (and nothing before it) must run with new bytes";
  EXPECT_EQ(block.ctx0.regs[static_cast<u8>(Reg::kEax)],
            insn.ctx0.regs[static_cast<u8>(Reg::kEax)]);
  EXPECT_EQ(block.ctx1.regs[static_cast<u8>(Reg::kEbx)],
            insn.ctx1.regs[static_cast<u8>(Reg::kEbx)]);
  EXPECT_EQ(block.cycles0, insn.cycles0);
  EXPECT_EQ(block.cycles1, insn.cycles1);
}

// Retire-boundary equivalence under arbitrary cycle-limit slices: blocks
// and (once the loop goes hot) traces must end early at the frontier, so
// stepping a program in small slices lands on exactly the same (cycles, EIP)
// staircase as the per-instruction engine.
TEST(BlockEngine, CycleLimitSlicesLandOnIdenticalBoundaries) {
  std::vector<Insn> program;
  Insn init = MovRI(Reg::kEcx, 50);
  program.push_back(init);
  for (int i = 0; i < 20; ++i) program.push_back(AddRI(Reg::kEax, i + 1));
  Insn dec;
  dec.opcode = Opcode::kDecR;
  dec.r1 = static_cast<u8>(Reg::kEcx);
  program.push_back(dec);
  Insn cmp;
  cmp.opcode = Opcode::kCmpRI;
  cmp.r1 = static_cast<u8>(Reg::kEcx);
  cmp.imm = 0;
  program.push_back(cmp);
  Insn jne;
  jne.opcode = Opcode::kJne;
  jne.imm = static_cast<i32>(kCodeBase + kInsnSize);
  program.push_back(jne);
  program.push_back(Hlt());
  const std::vector<u8> bytes = Encode(program);

  for (Engine engine : {Engine::kBlock, Engine::kTrace}) {
    for (u64 slice : {1ull, 7ull, 23ull, 64ull}) {
      SCOPED_TRACE(engine == Engine::kTrace ? "trace" : "block");
      BareMachine bm_fast, bm_insn;
      bm_fast.cpu().set_engine(engine);
      bm_insn.cpu().set_engine(Engine::kInsn);
      for (BareMachine* bm : {&bm_fast, &bm_insn}) {
        ASSERT_TRUE(bm->pm().WriteBlock(kCodeBase, bytes.data(), static_cast<u32>(bytes.size())));
        bm->Start(kCodeBase, 0, kStackTop);
      }
      for (int step = 0; step < 10'000; ++step) {
        const u64 limit = bm_fast.cpu().cycles() + slice;
        StopInfo a = bm_fast.Run(limit);
        StopInfo b = bm_insn.Run(limit);
        ASSERT_EQ(a.reason, b.reason) << "slice " << slice << " step " << step;
        ASSERT_EQ(bm_fast.cpu().cycles(), bm_insn.cpu().cycles())
            << "slice " << slice << " step " << step;
        ASSERT_EQ(bm_fast.cpu().eip(), bm_insn.cpu().eip());
        ASSERT_EQ(bm_fast.cpu().instructions_retired(), bm_insn.cpu().instructions_retired());
        if (a.reason == StopReason::kHalted) break;
      }
      EXPECT_EQ(bm_fast.cpu().reg(Reg::kEax), bm_insn.cpu().reg(Reg::kEax));
      if (engine == Engine::kTrace) {
        // The loop goes hot under every slice; only slices wider than one
        // iteration's worst-case cost can enter the trace.
        EXPECT_EQ(bm_fast.cpu().trace_stats().promotions, 1u);
        if (slice == 64) {
          EXPECT_GT(bm_fast.cpu().trace_stats().uop_insns, 0u);
        }
      }
    }
  }
}

// Block observability: a tight loop enters block dispatch once and chains
// block-to-block on every taken branch instead of re-entering the outer
// loop, and nearly every instruction retires inside the engine.
TEST(BlockEngine, LoopChainsWithoutLeavingDispatch) {
  BareMachine bm;
  // This test is about the engine itself; override the PALLADIUM_NO_BLOCKS
  // oracle so it still observes block dispatch under the CI oracle matrix,
  // and stop below the trace tier — once the loop goes hot the trace
  // executor iterates in place without chaining, which is exactly what this
  // test must not measure.
  bm.cpu().set_engine(Engine::kBlock);
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $1000, %ecx
loop:
  add $3, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)",
                            kCodeBase, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(1'000'000).reason, StopReason::kHalted);
  const Cpu::BlockStats& bs = bm.cpu().block_stats();
  EXPECT_GE(bs.chains, 999u) << "taken loop branches must chain in-page";
  EXPECT_LE(bs.entries, 8u) << "a steady loop re-enters block dispatch rarely";
  EXPECT_GE(bs.insns, bm.cpu().instructions_retired() - 8)
      << "nearly all instructions should retire inside block dispatch";
}

// The engine switch really selects the per-instruction path.
TEST(BlockEngine, DisabledEngineRetiresNothingInBlockDispatch) {
  BareMachine bm;
  bm.cpu().set_engine(Engine::kInsn);
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $10, %ecx
loop:
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)",
                            kCodeBase, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(1'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().block_stats().entries, 0u);
  EXPECT_EQ(bm.cpu().block_stats().insns, 0u);
}

}  // namespace
}  // namespace palladium
