// Protected-memory service tests (the paper's Section 6 "protected memory
// service" direction): data survives wild writes because no linear mapping
// reaches the region's frames unless a window is explicitly open, on any
// vCPU.
#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/core/protected_memory.h"
#include "src/kernel/abi.h"

namespace palladium {
namespace {

class ProtectedMemoryTest : public ::testing::Test {
 protected:
  ProtectedMemoryTest() : kernel_(machine_), pmem_(kernel_) {}

  // Runs simulated *kernel* code (flat CPL 0) that stores 0x77 at the given
  // linear address; returns true if the store succeeded.
  bool SimulatedKernelStore(u32 linear) {
    // Place a tiny routine in a scratch kernel page.
    const u32 code_linear = kKernelBase + 0x00200000;
    static bool mapped = false;
    if (!mapped) {
      kernel_.MapKernelPage(code_linear);
      kernel_.MapKernelPage(kKernelBase + 0x00201000);  // stack page
      mapped = true;
    }
    std::string diag;
    auto img = AssembleAndLink(R"(
  .global main
main:
  mov $)" + std::to_string(linear - kKernelBase) +
                                   R"(, %ebx
  sti $0x77, 0(%ebx)
  hlt
)",
                               0x00200000, {}, &diag);
    EXPECT_TRUE(img.has_value()) << diag;
    EXPECT_TRUE(kernel_.WriteKernelVirt(code_linear, img->bytes.data(),
                                        static_cast<u32>(img->bytes.size())));
    Cpu& cpu = kernel_.cpu();
    cpu.LoadCr3(kernel_.kernel_cr3());
    cpu.ForceSegment(SegReg::kCs, kKernelCsSel);
    cpu.ForceSegment(SegReg::kSs, kKernelDsSel);
    cpu.ForceSegment(SegReg::kDs, kKernelDsSel);
    cpu.ForceSegment(SegReg::kEs, kKernelDsSel);
    cpu.set_cpl(0);
    cpu.set_eip(0x00200000);
    cpu.set_reg(Reg::kEsp, 0x00202000);
    StopInfo stop = cpu.Run(cpu.cycles() + 100'000);
    return stop.reason == StopReason::kHalted;
  }

  Machine machine_;
  Kernel kernel_;
  ProtectedMemoryService pmem_;
};

TEST_F(ProtectedMemoryTest, HostAccessorsRoundTrip) {
  auto h = pmem_.CreateRegion(2);
  ASSERT_NE(h, 0u);
  EXPECT_EQ(pmem_.region_pages(h), 2u);
  u32 value = 0xFEEDFACE;
  ASSERT_TRUE(pmem_.Write(h, 100, &value, 4));
  u32 out = 0;
  ASSERT_TRUE(pmem_.Read(h, 100, &out, 4));
  EXPECT_EQ(out, 0xFEEDFACEu);
  // Cross-page access.
  u64 wide = 0x1122334455667788ull;
  ASSERT_TRUE(pmem_.Write(h, kPageSize - 4, &wide, 8));
  u64 wide_out = 0;
  ASSERT_TRUE(pmem_.Read(h, kPageSize - 4, &wide_out, 8));
  EXPECT_EQ(wide_out, wide);
}

TEST_F(ProtectedMemoryTest, OutOfRangeAccessRejected) {
  auto h = pmem_.CreateRegion(1);
  u32 v = 0;
  EXPECT_FALSE(pmem_.Read(h, kPageSize - 2, &v, 4));
  EXPECT_FALSE(pmem_.Write(h, kPageSize, &v, 1));
  EXPECT_FALSE(pmem_.Read(999, 0, &v, 4));
}

TEST_F(ProtectedMemoryTest, WildKernelStoreCannotReachRegion) {
  auto h = pmem_.CreateRegion(1);
  u32 canary = 0xCAFEBABE;
  ASSERT_TRUE(pmem_.Write(h, 0, &canary, 4));

  // The frames were evicted from the direct map: a wild supervisor store to
  // their old direct-mapped address faults instead of corrupting them.
  // (We cannot name the frame directly; probe via the window base while the
  // window is CLOSED — also unmapped.)
  u32 window = *pmem_.WindowBase(h);
  EXPECT_FALSE(SimulatedKernelStore(window)) << "store must fault while window is closed";

  u32 after = 0;
  ASSERT_TRUE(pmem_.Read(h, 0, &after, 4));
  EXPECT_EQ(after, 0xCAFEBABEu);
}

TEST_F(ProtectedMemoryTest, OpenWindowPermitsStores) {
  auto h = pmem_.CreateRegion(1);
  auto sel = pmem_.OpenWindow(h);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(pmem_.IsWindowOpen(h));
  u32 window = *pmem_.WindowBase(h);
  EXPECT_TRUE(SimulatedKernelStore(window));
  u32 out = 0;
  ASSERT_TRUE(pmem_.Read(h, 0, &out, 4));
  EXPECT_EQ(out & 0xFF, 0x77u);

  // Closing the window re-seals the region.
  pmem_.CloseWindow(h);
  EXPECT_FALSE(pmem_.IsWindowOpen(h));
  EXPECT_FALSE(SimulatedKernelStore(window));
}

TEST_F(ProtectedMemoryTest, WindowSegmentCoversExactlyTheRegion) {
  auto h = pmem_.CreateRegion(2);
  auto sel = pmem_.OpenWindow(h);
  ASSERT_TRUE(sel.has_value());
  const SegmentDescriptor* d = kernel_.gdt().Get(Selector(*sel).index());
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->IsData());
  EXPECT_EQ(d->base, *pmem_.WindowBase(h));
  EXPECT_EQ(d->limit, 2 * kPageSize);
  EXPECT_EQ(d->dpl, 0);
  pmem_.CloseWindow(h);
  EXPECT_EQ(kernel_.gdt().Get(Selector(*sel).index())->type, DescriptorType::kNull);
}

TEST_F(ProtectedMemoryTest, DestroyRestoresFramesToPool) {
  u32 before = kernel_.frames().free_frames();
  auto h = pmem_.CreateRegion(8);
  EXPECT_EQ(kernel_.frames().free_frames(), before - 8);
  pmem_.DestroyRegion(h);
  EXPECT_EQ(kernel_.frames().free_frames(), before);
  // Handle is dead afterwards.
  u32 v = 0;
  EXPECT_FALSE(pmem_.Read(h, 0, &v, 4));
}

TEST_F(ProtectedMemoryTest, ReopeningWindowIsIdempotent) {
  auto h = pmem_.CreateRegion(1);
  auto s1 = pmem_.OpenWindow(h);
  auto s2 = pmem_.OpenWindow(h);
  ASSERT_TRUE(s1 && s2);
  EXPECT_EQ(*s1, *s2);
  pmem_.CloseWindow(h);
  pmem_.CloseWindow(h);  // double close is a no-op
  EXPECT_FALSE(pmem_.IsWindowOpen(h));
}

// Closing a window must reach every vCPU, not only the one that closes it.
// vCPU 1 stores through the open window, so its TLB and D-TLB hold the
// translation; vCPU 0 then closes the window. vCPU 1 runs the same store
// again without reloading CR3 (a reload would flush): it must fault, and the
// region must keep its bytes.
TEST(ProtectedMemorySmp, ClosedWindowIsClosedOnSiblingVcpu) {
  Machine machine(MachineConfig{64u << 20, CycleModel::Measured(), /*num_cpus=*/2});
  Kernel kernel(machine);
  ProtectedMemoryService pmem(kernel);
  const auto h = pmem.CreateRegion(1);
  ASSERT_NE(h, 0u);
  ASSERT_TRUE(pmem.OpenWindow(h).has_value());
  const u32 window = *pmem.WindowBase(h);

  constexpr u32 kCode = 0x00200000;  // kernel-segment offsets
  constexpr u32 kStackTop = 0x00202000;
  ASSERT_NE(kernel.MapKernelPage(kKernelBase + kCode), 0u);
  ASSERT_NE(kernel.MapKernelPage(kKernelBase + kStackTop - kPageSize), 0u);
  std::string diag;
  auto img = AssembleAndLink(R"(
  .global main
main:
  mov $)" + std::to_string(window - kKernelBase) +
                                 R"(, %ebx
  sti $0x77, 0(%ebx)
  hlt
)",
                             kCode, {}, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  ASSERT_TRUE(kernel.WriteKernelVirt(kKernelBase + kCode, img->bytes.data(),
                                     static_cast<u32>(img->bytes.size())));

  machine.set_current_cpu(1);
  Cpu& cpu = machine.cpu(1);
  cpu.LoadCr3(kernel.kernel_cr3());
  cpu.ForceSegment(SegReg::kCs, kKernelCsSel);
  cpu.ForceSegment(SegReg::kSs, kKernelDsSel);
  cpu.ForceSegment(SegReg::kDs, kKernelDsSel);
  cpu.ForceSegment(SegReg::kEs, kKernelDsSel);
  cpu.set_cpl(0);
  const auto run_store = [&cpu] {
    cpu.set_eip(kCode);
    cpu.set_reg(Reg::kEsp, kStackTop);
    return cpu.Run(cpu.cycles() + 100'000);
  };
  ASSERT_EQ(run_store().reason, StopReason::kHalted);
  u8 byte = 0;
  ASSERT_TRUE(pmem.Read(h, 0, &byte, 1));
  EXPECT_EQ(byte, 0x77u);

  const u8 canary = 0x11;
  ASSERT_TRUE(pmem.Write(h, 0, &canary, 1));
  machine.set_current_cpu(0);
  pmem.CloseWindow(h);

  machine.set_current_cpu(1);
  const StopInfo stop = run_store();
  EXPECT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  ASSERT_TRUE(pmem.Read(h, 0, &byte, 1));
  EXPECT_EQ(byte, canary) << "vCPU 1 stored through a window vCPU 0 had closed";
}

}  // namespace
}  // namespace palladium
