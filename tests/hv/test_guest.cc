/**
 * @file
 * Unit tests for the untrusted primary OS model: guest memory access is
 * mediated by the normal EPT, and guest-built page tables behave.
 */

#include <gtest/gtest.h>

#include "hv/guest.hh"
#include "hv/monitor.hh"

namespace hev::hv
{
namespace
{

MonitorConfig
smallConfig()
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    return cfg;
}

class GuestTest : public ::testing::Test
{
  protected:
    GuestTest() : mon(smallConfig()), os(mon) {}

    Monitor mon;
    PrimaryOs os;
};

TEST_F(GuestTest, PhysReadWriteNormalMemory)
{
    ASSERT_TRUE(os.physWrite(Gpa(0x2000), 0x1234).ok());
    auto read = os.physRead(Gpa(0x2000));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, 0x1234ull);
}

TEST_F(GuestTest, PhysAccessToSecureMemoryFaults)
{
    const u64 secure = mon.config().layout.secureBase();
    const u64 before = mon.mem().read(Hpa(secure));
    EXPECT_FALSE(os.physRead(Gpa(secure)).ok());
    EXPECT_FALSE(os.physWrite(Gpa(secure), 0x41).ok());
    EXPECT_FALSE(os.physRead(Gpa(secure + 0x10000)).ok());
    // The word itself is untouched by the blocked write.
    EXPECT_EQ(mon.mem().read(Hpa(secure)), before);
}

TEST_F(GuestTest, AllocPagesDistinctAndNeverNull)
{
    std::vector<u64> pages;
    for (int i = 0; i < 64; ++i) {
        auto page = os.allocPage();
        ASSERT_TRUE(page.ok());
        EXPECT_NE(page->value, 0ull) << "null page handed out";
        for (u64 prev : pages)
            ASSERT_NE(prev, page->value);
        pages.push_back(page->value);
    }
}

TEST_F(GuestTest, FreedPageReusable)
{
    auto page = os.allocPage();
    ASSERT_TRUE(page.ok());
    const u64 used = os.usedPages();
    ASSERT_TRUE(os.freePage(*page).ok());
    EXPECT_EQ(os.usedPages(), used - 1);
    EXPECT_FALSE(os.freePage(*page).ok()) << "double free accepted";
}

TEST_F(GuestTest, GptMapThenWalk)
{
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    auto frame = os.allocPage();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x7000'0000, *frame,
                          PteFlags::userRw()).ok());

    // Walk via the monitor's nested translation (identity EPT).
    auto hpa = mon.translateUncached(Hpa(root->value),
                                     mon.normalEptRoot(),
                                     Gva(0x7000'0000), true);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(hpa->value, frame->value);
}

TEST_F(GuestTest, GptDoubleMapRejected)
{
    auto root = os.createPageTable();
    auto frame = os.allocPage();
    ASSERT_TRUE(root.ok() && frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x1000, *frame, PteFlags::userRw()).ok());
    EXPECT_EQ(os.gptMap(*root, 0x1000, *frame,
                        PteFlags::userRw()).error(),
              HvError::AlreadyMapped);
}

TEST_F(GuestTest, GptUnmapRemovesMapping)
{
    auto root = os.createPageTable();
    auto frame = os.allocPage();
    ASSERT_TRUE(root.ok() && frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x1000, *frame, PteFlags::userRw()).ok());
    ASSERT_TRUE(os.gptUnmap(*root, 0x1000).ok());
    EXPECT_FALSE(mon.translateUncached(Hpa(root->value),
                                       mon.normalEptRoot(), Gva(0x1000),
                                       false).ok());
    EXPECT_EQ(os.gptUnmap(*root, 0x1000).error(), HvError::NotMapped);
}

TEST_F(GuestTest, RawEntryWriteWorksOnOwnTables)
{
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(os.writePtEntryRaw(*root, 0, 0xdead000 | 1).ok());
    auto raw = os.physRead(*root);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, 0xdead000ull | 1);
}

TEST_F(GuestTest, RawEntryWriteCannotTouchSecureTables)
{
    // The monitor's PT frames live in the secure region; a raw write
    // aimed there must fault at the EPT.
    const Gpa secure_table(mon.config().layout.ptAreaRange().start.value);
    EXPECT_FALSE(os.writePtEntryRaw(secure_table, 0, 0x41).ok());
}

TEST_F(GuestTest, ZeroPageClearsTheWholeGuestPage)
{
    const Gpa page(0x6000);
    for (u64 off = 0; off < pageSize; off += sizeof(u64))
        ASSERT_TRUE(os.physWrite(page + off, off + 1).ok());
    ASSERT_TRUE(os.physWrite(page + pageSize, 0x99).ok());
    ASSERT_TRUE(os.zeroPage(page).ok());
    for (u64 off = 0; off < pageSize; off += sizeof(u64))
        ASSERT_EQ(*os.physRead(page + off), 0ull);
    EXPECT_EQ(*os.physRead(page + pageSize), 0x99ull) << "neighbour zeroed";
}

TEST_F(GuestTest, ZeroPageRejectsUnalignedAndUnmappedPages)
{
    ASSERT_TRUE(os.physWrite(Gpa(0x6008), 5).ok());
    EXPECT_EQ(os.zeroPage(Gpa(0x6008)).error(), HvError::NotAligned);
    EXPECT_EQ(os.zeroPage(Gpa(0x6800)).error(), HvError::NotAligned);
    EXPECT_EQ(*os.physRead(Gpa(0x6008)), 5ull);

    const MemLayout &layout = mon.config().layout;
    EXPECT_EQ(os.zeroPage(Gpa(layout.totalBytes)).error(),
              HvError::NotMapped);
    EXPECT_EQ(os.zeroPage(Gpa(layout.totalBytes + 64 * pageSize)).error(),
              HvError::NotMapped);
}

TEST_F(GuestTest, ZeroPageNeverReachesTheSecureRegion)
{
    // Every page of the secure region (monitor page tables and EPC) is
    // absent from the normal EPT, so zeroPage reaches none of it.
    const MemLayout &layout = mon.config().layout;
    const Hpa ept_root = mon.normalEptRoot();
    const u64 root_entry = mon.mem().read(ept_root);
    ASSERT_NE(root_entry, 0ull);
    const u64 epc_word = 0x5eed;
    const Hpa epc = layout.epcRange().start;
    mon.mem().write(epc, epc_word);
    for (u64 gpa = layout.secureBase(); gpa < layout.totalBytes;
         gpa += pageSize)
        ASSERT_EQ(os.zeroPage(Gpa(gpa)).error(), HvError::NotMapped)
            << std::hex << gpa;
    EXPECT_EQ(mon.mem().read(ept_root), root_entry);
    EXPECT_EQ(mon.mem().read(epc), epc_word);
}

TEST(GuestHugeEptTest, ZeroPageThroughAHugeNormalEpt)
{
    MonitorConfig cfg = smallConfig();
    cfg.hugeNormalEpt = true;
    Monitor mon(cfg);
    PrimaryOs os(mon);
    const Gpa page(0x20'3000);
    ASSERT_TRUE(os.physWrite(page + 0x10, 3).ok());
    ASSERT_TRUE(os.zeroPage(page).ok());
    EXPECT_EQ(*os.physRead(page + 0x10), 0ull);
    EXPECT_EQ(os.zeroPage(Gpa(cfg.layout.secureBase())).error(),
              HvError::NotMapped);
}

} // namespace
} // namespace hev::hv
