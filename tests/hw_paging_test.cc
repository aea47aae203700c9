// Page-table walker and editor tests, including the page-privilege (PPL)
// semantics Palladium's user-level mechanism depends on.
#include <gtest/gtest.h>

#include "src/hw/paging.h"
#include "src/hw/physical_memory.h"

namespace palladium {
namespace {

class PagingTest : public ::testing::Test {
 protected:
  PagingTest() : pm_(4u << 20) {
    cr3_ = Alloc();
    next_table_ = 0;
  }

  u32 Alloc() {
    bump_ -= kPageSize;
    pm_.Fill(bump_, 0, kPageSize);
    return bump_;
  }

  // Maps linear -> frame with flags through the editor.
  void Map(u32 linear, u32 frame, u32 flags) {
    PageTableEditor ed(pm_, cr3_);
    ASSERT_TRUE(ed.Map(linear, frame, flags, [&] { return Alloc(); }));
  }

  PhysicalMemory pm_;
  u32 cr3_ = 0;
  u32 bump_ = 4u << 20;
  u32 next_table_ = 0;
};

TEST_F(PagingTest, NotPresentFaults) {
  WalkResult r = WalkPageTable(pm_, cr3_, 0x1000, false, false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(r.fault.error_code & kPfErrPresent, 0u);
  EXPECT_EQ(r.fault.linear_address, 0x1000u);
}

TEST_F(PagingTest, MapThenWalk) {
  u32 frame = Alloc();
  Map(0x00400000, frame, kPtePresent | kPteWrite | kPteUser);
  WalkResult r = WalkPageTable(pm_, cr3_, 0x00400123, true, true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.frame, frame);
}

TEST_F(PagingTest, UserCannotTouchSupervisorPage) {
  // This is the paper's core page-level rule: SPL 3 cannot access PPL 0.
  u32 frame = Alloc();
  Map(0x2000, frame, kPtePresent | kPteWrite);  // PPL 0: no U bit
  WalkResult user = WalkPageTable(pm_, cr3_, 0x2000, false, true);
  EXPECT_FALSE(user.ok);
  EXPECT_TRUE(user.fault.error_code & kPfErrPresent);  // protection, not missing
  EXPECT_TRUE(user.fault.error_code & kPfErrUser);

  WalkResult sup = WalkPageTable(pm_, cr3_, 0x2000, false, false);
  EXPECT_TRUE(sup.ok);  // SPL 0..2 are supervisor at page level
}

TEST_F(PagingTest, UserWriteToReadOnlyFaults) {
  u32 frame = Alloc();
  Map(0x3000, frame, kPtePresent | kPteUser);  // read-only user page (the GOT case)
  WalkResult w = WalkPageTable(pm_, cr3_, 0x3000, true, true);
  EXPECT_FALSE(w.ok);
  EXPECT_TRUE(w.fault.error_code & kPfErrWrite);
  WalkResult r = WalkPageTable(pm_, cr3_, 0x3000, false, true);
  EXPECT_TRUE(r.ok);
}

TEST_F(PagingTest, SupervisorWriteIgnoresReadOnly) {
  // No CR0.WP (Linux 2.0 era): the SPL 2 application may write pages that
  // are read-only for its SPL 3 extensions.
  u32 frame = Alloc();
  Map(0x4000, frame, kPtePresent | kPteUser);
  WalkResult w = WalkPageTable(pm_, cr3_, 0x4000, true, false);
  EXPECT_TRUE(w.ok);
}

TEST_F(PagingTest, EffectivePermissionIsAndOfLevels) {
  // Clear the U bit at the PDE level: even a U-bit PTE must then fault for
  // user accesses.
  u32 frame = Alloc();
  Map(0x5000, frame, kPtePresent | kPteWrite | kPteUser);
  u32 pde = 0;
  ASSERT_TRUE(pm_.Read32(cr3_ + PdeIndex(0x5000) * 4, &pde));
  ASSERT_TRUE(pm_.Write32(cr3_ + PdeIndex(0x5000) * 4, pde & ~kPteUser));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x5000, false, true);
  EXPECT_FALSE(r.ok);
}

TEST_F(PagingTest, AccessedDirtyBits) {
  u32 frame = Alloc();
  Map(0x6000, frame, kPtePresent | kPteWrite | kPteUser);
  ASSERT_TRUE(SetAccessedDirty(pm_, cr3_, 0x6000, /*dirty=*/true));
  PageTableEditor ed(pm_, cr3_);
  u32 pte = 0;
  ASSERT_TRUE(ed.GetPte(0x6000, &pte));
  EXPECT_TRUE(pte & kPteAccessed);
  EXPECT_TRUE(pte & kPteDirty);
}

TEST_F(PagingTest, EditorUpdateFlags) {
  // The set_range syscall path: flip the U bit ("PPL") on an existing page.
  u32 frame = Alloc();
  Map(0x7000, frame, kPtePresent | kPteWrite);
  PageTableEditor ed(pm_, cr3_);
  ASSERT_TRUE(ed.UpdateFlags(0x7000, kPteUser, 0));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x7000, false, true);
  EXPECT_TRUE(r.ok);
  ASSERT_TRUE(ed.UpdateFlags(0x7000, 0, kPteUser));
  r = WalkPageTable(pm_, cr3_, 0x7000, false, true);
  EXPECT_FALSE(r.ok);
}

TEST_F(PagingTest, EditorUnmap) {
  u32 frame = Alloc();
  Map(0x8000, frame, kPtePresent | kPteWrite | kPteUser);
  PageTableEditor ed(pm_, cr3_);
  ASSERT_TRUE(ed.Unmap(0x8000));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x8000, false, false);
  EXPECT_FALSE(r.ok);
}

// The editor's hook fires only for edits of a present PTE: no TLB caches a
// not-present entry, so filling one leaves nothing stale, while a remap or
// an unmap replaces a translation a TLB may hold.
TEST_F(PagingTest, EditorInvalidatesOnlyPresentPtes) {
  u32 fired = 0;
  PageTableEditor ed(pm_, cr3_, [&](u32) { ++fired; });
  ASSERT_TRUE(ed.Map(0xA000, Alloc(), kPtePresent | kPteWrite, [&] { return Alloc(); }));
  EXPECT_EQ(fired, 0u) << "a map over an absent PTE has nothing to invalidate";
  ASSERT_TRUE(ed.Map(0xA000, Alloc(), kPtePresent | kPteWrite, [&] { return Alloc(); }));
  EXPECT_EQ(fired, 1u) << "a remap must invalidate";
  ASSERT_TRUE(ed.Unmap(0xA000));
  EXPECT_EQ(fired, 2u) << "an unmap must invalidate";
}

TEST_F(PagingTest, UpdateFlagsOnMissingMappingFails) {
  PageTableEditor ed(pm_, cr3_);
  EXPECT_FALSE(ed.UpdateFlags(0x00900000, kPteUser, 0));
}

TEST_F(PagingTest, DistinctAddressSpaces) {
  u32 other_cr3 = Alloc();
  u32 frame = Alloc();
  Map(0x9000, frame, kPtePresent | kPteWrite | kPteUser);
  // The second address space has no such mapping.
  WalkResult r = WalkPageTable(pm_, other_cr3, 0x9000, false, false);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace palladium
