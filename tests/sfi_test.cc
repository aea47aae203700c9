// SFI rewriter tests: instruction expansion, relocation/symbol remapping,
// semantic preservation for in-sandbox code, and containment of hostile
// out-of-sandbox accesses.
#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/hw/bare_machine.h"
#include "src/sfi/sfi.h"

namespace palladium {
namespace {

constexpr u32 kSandboxBase = 0x00400000;
constexpr u32 kSandboxBits = 20;  // 1 MB

ObjectFile MustAssemble(const std::string& src) {
  AssembleError err;
  auto obj = Assemble(src, &err);
  EXPECT_TRUE(obj.has_value()) << err.ToString();
  return obj.value_or(ObjectFile{});
}

SfiOptions DefaultOptions() {
  SfiOptions opt;
  opt.sandbox_base = kSandboxBase;
  opt.sandbox_bits = kSandboxBits;
  return opt;
}

TEST(SfiRewrite, ExpandsMemoryOps) {
  ObjectFile obj = MustAssemble(R"(
  mov $1, %eax
  st %eax, 0(%ebx)
  ld 4(%ebx), %ecx
  ret
)");
  SfiStats stats;
  std::string diag;
  auto out = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(out.has_value()) << diag;
  EXPECT_EQ(stats.original_insns, 4u);
  EXPECT_EQ(stats.sandboxed_memory_ops, 2u);
  EXPECT_EQ(stats.rewritten_insns, 4u + 2 * 3);
  EXPECT_GT(stats.Expansion(), 2.0);
}

TEST(SfiRewrite, WriteOnlyModeSkipsLoads) {
  ObjectFile obj = MustAssemble(R"(
  st %eax, 0(%ebx)
  ld 4(%ebx), %ecx
  ret
)");
  SfiOptions opt = DefaultOptions();
  opt.protection = SfiProtection::kWriteOnly;
  SfiStats stats;
  std::string diag;
  auto out = SfiRewrite(obj, opt, &stats, &diag);
  ASSERT_TRUE(out.has_value()) << diag;
  EXPECT_EQ(stats.sandboxed_memory_ops, 1u);
  EXPECT_EQ(stats.rewritten_insns, 3u + 3);
}

TEST(SfiRewrite, RejectsScratchRegisterUse) {
  ObjectFile obj = MustAssemble("  st %edx, 0(%ebx)\n  ret\n");
  SfiStats stats;
  std::string diag;
  auto out = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  EXPECT_FALSE(out.has_value());
  EXPECT_NE(diag.find("scratch"), std::string::npos);
}

TEST(SfiRewrite, RemapsSymbolsAndBranchTargets) {
  ObjectFile obj = MustAssemble(R"(
  .global entry
entry:
  st %eax, 0(%ebx)
loop:
  dec %ecx
  cmp $0, %ecx
  jne loop
  ret
)");
  SfiStats stats;
  std::string diag;
  auto out = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(out.has_value()) << diag;
  // `loop` originally at insn 1; the store before it expanded to 4 insns.
  const Symbol* loop = out->FindSymbol("loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->offset, 4 * kInsnSize);
  // The jne's relocation still resolves to `loop` after linking.
  LinkError lerr;
  auto img = LinkImage(*out, kSandboxBase, {}, &lerr);
  ASSERT_TRUE(img.has_value()) << lerr.message;
}

TEST(SfiExecution, InSandboxCodeBehavesIdentically) {
  // Sum an array: run original and rewritten inside the sandbox; results
  // must match (masking is the identity for in-sandbox addresses).
  const std::string src = R"(
  .global main
main:
  mov $data, %ebx
  mov $4, %ecx
  mov $0, %eax
loop:
  ld 0(%ebx), %esi
  add %esi, %eax
  add $4, %ebx
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
  .data
data:
  .long 3, 5, 7, 11
)";
  ObjectFile obj = MustAssemble(src);
  SfiOptions opt = DefaultOptions();
  opt.scratch = Reg::kEdi;  // %esi is used; pick a free scratch
  SfiStats stats;
  std::string diag;
  auto rewritten = SfiRewrite(obj, opt, &stats, &diag);
  ASSERT_TRUE(rewritten.has_value()) << diag;

  auto run = [&](const ObjectFile& o) -> u32 {
    BareMachine bm;
    LinkError lerr;
    auto img = LinkImage(o, kSandboxBase, {}, &lerr);
    EXPECT_TRUE(img.has_value()) << lerr.message;
    EXPECT_TRUE(bm.LoadImage(*img));
    bm.Start(*img->Lookup("main"), 0, kSandboxBase + 0x80000);
    StopInfo stop = bm.Run(1'000'000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    return bm.cpu().reg(Reg::kEax);
  };
  EXPECT_EQ(run(obj), 26u);
  EXPECT_EQ(run(*rewritten), 26u);
}

TEST(SfiExecution, HostileStoreIsConfined) {
  // The canary lives outside the sandbox; the hostile store targets it, but
  // masking redirects the write into the sandbox.
  const u32 canary_addr = 0x00600000;  // outside [0x400000, 0x500000)
  const std::string src = R"(
  .global main
main:
  mov $0x00600000, %ebx
  sti $0xDEAD, 0(%ebx)
  hlt
)";
  ObjectFile obj = MustAssemble(src);
  SfiStats stats;
  std::string diag;
  auto rewritten = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(rewritten.has_value()) << diag;

  BareMachine bm;
  bm.pm().Write32(canary_addr, 0xCAFED00D);
  LinkError lerr;
  auto img = LinkImage(*rewritten, kSandboxBase, {}, &lerr);
  ASSERT_TRUE(img.has_value()) << lerr.message;
  ASSERT_TRUE(bm.LoadImage(*img));
  bm.Start(*img->Lookup("main"), 0, kSandboxBase + 0x80000);
  StopInfo stop = bm.Run(1'000'000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  u32 canary = 0;
  ASSERT_TRUE(bm.pm().Read32(canary_addr, &canary));
  EXPECT_EQ(canary, 0xCAFED00Du) << "store must not escape the sandbox";
  // The masked address received the value instead.
  u32 redirected = 0;
  ASSERT_TRUE(bm.pm().Read32(kSandboxBase | (canary_addr & ((1u << kSandboxBits) - 1)),
                             &redirected));
  EXPECT_EQ(redirected, 0xDEADu);
}

TEST(SfiExecution, IndirectJumpIsConfined) {
  // An indirect jump whose target has poisoned high bits is masked back
  // inside the sandbox and lands on the intended in-sandbox code.
  ObjectFile obj = MustAssemble(R"(
  .global main
main:
  mov $landing, %eax
  or $0x00700000, %eax    ; poison the high bits
  jmp *%eax
  .global landing
landing:
  mov $1, %esi
  hlt
)");
  SfiStats stats;
  std::string diag;
  auto rewritten = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(rewritten.has_value()) << diag;
  EXPECT_EQ(stats.sandboxed_indirect_jumps, 1u);

  BareMachine bm;
  LinkError lerr;
  auto img = LinkImage(*rewritten, kSandboxBase, {}, &lerr);
  ASSERT_TRUE(img.has_value()) << lerr.message;
  ASSERT_TRUE(bm.LoadImage(*img));
  bm.Start(*img->Lookup("main"), 0, kSandboxBase + 0x80000);
  StopInfo stop = bm.Run(1'000'000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEsi), 1u) << "jump must land on the masked in-sandbox target";
}

TEST(SfiExecution, RewrittenHotLoopPromotesToTraceTier) {
  // A hot sandboxed loop must survive promotion through the block and trace
  // tiers: the masked address computation (lea/and/or) is exactly the kind
  // of straight-line arithmetic the trace tier folds, and a divergence here
  // means the fast tiers execute different semantics than the insn engine.
  const std::string src = R"(
  .global main
main:
  mov $buf, %ebx
  mov $200, %ecx
  mov $0, %esi
loop:
  st %ecx, 0(%ebx)
  ld 0(%ebx), %eax
  add %eax, %esi
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
  .data
buf:
  .long 0
)";
  ObjectFile obj = MustAssemble(src);
  SfiStats stats;
  std::string diag;
  auto rewritten = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(rewritten.has_value()) << diag;
  ASSERT_GT(stats.sandboxed_memory_ops, 0u);

  auto run = [&](Engine engine, u64* promotions) -> u32 {
    BareMachine bm;
    bm.cpu().set_engine(engine);
    LinkError lerr;
    auto img = LinkImage(*rewritten, kSandboxBase, {}, &lerr);
    EXPECT_TRUE(img.has_value()) << lerr.message;
    EXPECT_TRUE(bm.LoadImage(*img));
    bm.Start(*img->Lookup("main"), 0, kSandboxBase + 0x80000);
    StopInfo stop = bm.Run(10'000'000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    *promotions = bm.cpu().trace_stats().promotions;
    return bm.cpu().reg(Reg::kEsi);
  };
  u64 oracle_promotions = 0, traced_promotions = 0;
  const u32 oracle = run(Engine::kInsn, &oracle_promotions);
  const u32 traced = run(Engine::kTrace, &traced_promotions);
  EXPECT_EQ(oracle, 20100u);  // sum 1..200
  EXPECT_EQ(traced, oracle) << "trace tier diverges on SFI-rewritten code";
  EXPECT_EQ(oracle_promotions, 0u);
  EXPECT_GT(traced_promotions, 0u) << "loop never promoted; test is vacuous";
}

// Regression pin: rewriting an image in place must kill the stale decoded
// blocks of the old code. If the decode cache survived the overwrite, the
// second run would re-execute the unsandboxed v1 store and clobber the
// canary even though the bytes in memory are the confined v2.
TEST(SfiExecution, InPlaceRewriteInvalidatesStaleDecodedCode) {
  const u32 canary_addr = 0x00600000;  // outside [0x400000, 0x500000)
  const std::string src = R"(
  .global main
main:
  mov $0x00600000, %ebx
  sti $0xDEAD, 0(%ebx)
  hlt
)";
  ObjectFile obj = MustAssemble(src);
  SfiStats stats;
  std::string diag;
  auto rewritten = SfiRewrite(obj, DefaultOptions(), &stats, &diag);
  ASSERT_TRUE(rewritten.has_value()) << diag;

  LinkError lerr;
  auto v1 = LinkImage(obj, kSandboxBase, {}, &lerr);
  ASSERT_TRUE(v1.has_value()) << lerr.message;
  auto v2 = LinkImage(*rewritten, kSandboxBase, {}, &lerr);
  ASSERT_TRUE(v2.has_value()) << lerr.message;

  BareMachine bm;
  ASSERT_TRUE(bm.pm().Write32(canary_addr, 0xCAFED00Du));
  ASSERT_TRUE(bm.LoadImage(*v1));
  bm.Start(*v1->Lookup("main"), 0, kSandboxBase + 0x80000);
  StopInfo stop = bm.Run(1'000'000);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  u32 canary = 0;
  ASSERT_TRUE(bm.pm().Read32(canary_addr, &canary));
  ASSERT_EQ(canary, 0xDEADu) << "unprotected v1 must reach the canary";

  // In-place upgrade: the rewritten image lands on the very addresses the
  // CPU just executed, through the same physical-write path loaders use.
  ASSERT_TRUE(bm.pm().Write32(canary_addr, 0xCAFED00Du));
  ASSERT_TRUE(bm.pm().WriteBlock(v2->base, v2->bytes.data(),
                                 static_cast<u32>(v2->bytes.size())));
  bm.Start(*v2->Lookup("main"), 0, kSandboxBase + 0x80000);
  stop = bm.Run(1'000'000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  ASSERT_TRUE(bm.pm().Read32(canary_addr, &canary));
  EXPECT_EQ(canary, 0xCAFED00Du) << "stale decoded v1 code ran after the rewrite";
  u32 redirected = 0;
  ASSERT_TRUE(bm.pm().Read32(
      kSandboxBase | (canary_addr & ((1u << kSandboxBits) - 1)), &redirected));
  EXPECT_EQ(redirected, 0xDEADu) << "v2 must have run, confined";
}

}  // namespace
}  // namespace palladium
