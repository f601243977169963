/**
 * @file
 * Unit tests for the flat abstract state and its trusted-pointer
 * handlers (the bottom layer of the stack).
 */

#include <gtest/gtest.h>

#include "ccal/flat_state.hh"
#include "ccal/specs.hh"
#include "mirlight/interp.hh"

namespace hev::ccal
{
namespace
{

TEST(FlatStateTest, FreshStateIsZeroed)
{
    FlatState s;
    EXPECT_EQ(s.words.size(), s.geo.frameCount * entriesPerTable);
    for (u64 w : s.words)
        ASSERT_EQ(w, 0ull);
    for (bool bit : s.allocated)
        ASSERT_FALSE(bit);
    for (const AbsEpcmEntry &e : s.epcm)
        ASSERT_EQ(e.state, epcStateFree);
}

TEST(FlatStateTest, WordAddressing)
{
    FlatState s;
    const u64 addr = s.geo.frameBase + 16;
    EXPECT_TRUE(s.validWord(addr));
    EXPECT_FALSE(s.validWord(addr + 1));
    EXPECT_FALSE(s.validWord(s.geo.frameBase - 8));
    EXPECT_FALSE(s.validWord(s.geo.frameBase + s.geo.frameAreaBytes()));

    s.writeWord(addr, 0xabcd);
    EXPECT_EQ(s.readWord(addr), 0xabcdull);
    EXPECT_EQ(s.readWord(addr + 8), 0ull);
}

TEST(FlatStateTest, EntryAddressing)
{
    FlatState s;
    const u64 table = s.frameAt(3);
    s.writeEntry(table, 511, 0x77);
    EXPECT_EQ(s.readEntry(table, 511), 0x77ull);
    EXPECT_EQ(s.readWord(table + 511 * 8), 0x77ull);
}

TEST(FlatStateTest, ZeroFrame)
{
    FlatState s;
    const u64 frame = s.frameAt(1);
    s.writeEntry(frame, 5, 0x1234);
    s.zeroFrame(frame);
    for (u64 i = 0; i < entriesPerTable; ++i)
        ASSERT_EQ(s.readEntry(frame, i), 0ull);
}

TEST(FlatStateTest, EqualityIsStructural)
{
    FlatState a, b;
    EXPECT_EQ(a, b);
    b.writeWord(b.geo.frameBase, 1);
    EXPECT_NE(a, b);
}

TEST(FlatStateTest, ZeroFrameOfAFreshFrameKeepsEquality)
{
    FlatState a, b;
    a.zeroFrame(a.frameAt(2));
    EXPECT_EQ(a, b);
    a.writeEntry(a.frameAt(2), 9, 0x55);
    a.zeroFrame(a.frameAt(2));
    EXPECT_EQ(a, b);
}

constexpr u64 foldElStart = 0x10'0000;

/** Init an enclave with room for `pages` pages; -1 on failure. */
i64
initEnclave(FlatState &s, u64 pages)
{
    const spec::IntResult init =
        spec::specHcInit(s, foldElStart, foldElStart + pages * pageSize,
                         0x50'0000, 1, 0x8000);
    return init.isOk ? i64(init.value) : -1;
}

TEST(FlatStateFoldTest, BatchAndFoldCopiesCompareEqual)
{
    FlatState pre;
    const i64 id = initEnclave(pre, 8);
    ASSERT_GE(id, 0);
    ASSERT_EQ(spec::specHcAddPage(pre, id, foldElStart, 0x4000,
                                  epcStateReg), 0);
    std::vector<spec::SpecAddPageOp> ops;
    for (u64 i = 1; i < 5; ++i)
        ops.push_back({foldElStart + i * pageSize, 0x4000, epcStateReg});

    FlatState batch = pre;
    ASSERT_EQ(spec::specHcAddPagesBatch(batch, id, ops), 0);
    FlatState fold = pre;
    for (const spec::SpecAddPageOp &op : ops)
        ASSERT_EQ(spec::specHcAddPage(fold, id, op.gva, op.src, op.kind), 0);
    EXPECT_EQ(batch, fold);
    EXPECT_EQ(batch.words, fold.words);
    EXPECT_NE(batch.words, pre.words);

    // A batch whose second element fails leaves an exact copy of pre.
    FlatState failed = pre;
    EXPECT_NE(spec::specHcAddPagesBatch(failed, id, {ops[0], ops[0]}), 0);
    EXPECT_EQ(failed, pre);

    // Assigning pre back over a state that touched more frames.
    batch = pre;
    EXPECT_EQ(batch, pre);
    EXPECT_TRUE(spec::checkAddBatchFold(pre, id, ops).equivalent);
}

TEST(FlatStateFoldTest, MigrateCopiesCompareEqual)
{
    FlatState src;
    const i64 id = initEnclave(src, 4);
    ASSERT_GE(id, 0);
    for (u64 i = 0; i < 4; ++i)
        ASSERT_EQ(spec::specHcAddPage(src, id, foldElStart + i * pageSize,
                                      0x4000,
                                      i == 3 ? epcStateTcs : epcStateReg),
                  0);
    ASSERT_EQ(spec::specHcInitFinish(src, id), 0);
    const FlatState dst;

    EXPECT_TRUE(
        spec::checkMigrateQuiescedFold(src, dst, id, false, 0x6ea5)
            .equivalent);
    EXPECT_TRUE(
        spec::checkMigrateQuiescedFold(src, dst, id, true, 0x6ea5)
            .equivalent);

    // A fork leaves the source's tables as they were.
    FlatState fork = src;
    AbsImage img;
    ASSERT_EQ(spec::specHcSnapshot(fork, id, false, 0x6ea5, &img), 0);
    EXPECT_EQ(fork.words, src.words);

    // Restoring the same image into two copies of one host agrees.
    FlatState a = dst;
    FlatState b = dst;
    ASSERT_TRUE(spec::specHcRestoreImage(a, img).isOk);
    ASSERT_TRUE(spec::specHcRestoreImage(b, img).isOk);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.words, dst.words);
    a = dst;
    EXPECT_EQ(a, dst);
}

TEST(FlatAbsStateTest, PhysWordHandler)
{
    FlatState s;
    FlatAbsState abs(s);
    const u64 addr = s.geo.frameBase + 64;
    ASSERT_TRUE(abs.trustedStore(FlatAbsState::physWordHandler, addr,
                                 mir::Value::intVal(42)).ok());
    auto loaded = abs.trustedLoad(FlatAbsState::physWordHandler, addr);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->asInt(), 42);
    EXPECT_EQ(s.readWord(addr), 42ull);
}

TEST(FlatAbsStateTest, PhysWordHandlerRejectsOutOfArea)
{
    FlatState s;
    FlatAbsState abs(s);
    auto bad = abs.trustedLoad(FlatAbsState::physWordHandler, 0x1000);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.trap().kind, mir::TrapKind::TrustedFault);
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::physWordHandler, 0x1000,
                                  mir::Value::intVal(1)).ok());
}

TEST(FlatAbsStateTest, BitmapHandler)
{
    FlatState s;
    FlatAbsState abs(s);
    ASSERT_TRUE(abs.trustedStore(FlatAbsState::bitmapHandler, 7,
                                 mir::Value::intVal(1)).ok());
    EXPECT_TRUE(s.allocated[7]);
    auto loaded = abs.trustedLoad(FlatAbsState::bitmapHandler, 7);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->asInt(), 1);
    EXPECT_FALSE(
        abs.trustedLoad(FlatAbsState::bitmapHandler, 9999).ok());
}

TEST(FlatAbsStateTest, EpcmHandlerRoundTrip)
{
    FlatState s;
    FlatAbsState abs(s);
    const mir::Value entry = mir::Value::tuple(
        {mir::Value::intVal(epcStateReg), mir::Value::intVal(3),
         mir::Value::intVal(0x7000)});
    ASSERT_TRUE(
        abs.trustedStore(FlatAbsState::epcmHandler, 2, entry).ok());
    EXPECT_EQ(s.epcm[2].state, epcStateReg);
    EXPECT_EQ(s.epcm[2].owner, 3);
    EXPECT_EQ(s.epcm[2].linAddr, 0x7000ull);
    auto loaded = abs.trustedLoad(FlatAbsState::epcmHandler, 2);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, entry);
}

TEST(FlatAbsStateTest, EpcmHandlerRejectsMalformed)
{
    FlatState s;
    FlatAbsState abs(s);
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::epcmHandler, 0,
                                  mir::Value::intVal(5)).ok());
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::epcmHandler, 0,
                                  mir::Value::tuple(
                                      {mir::Value::intVal(1)})).ok());
}

TEST(TrustedLayerTest, PointerCastPrimitives)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);

    auto ptr = interp.call("pt_ptr",
                           {mir::Value::intVal(i64(s.geo.frameBase))});
    ASSERT_TRUE(ptr.ok());
    ASSERT_TRUE(ptr->isTrustedPtr());
    EXPECT_EQ(ptr->asTrusted().handler, FlatAbsState::physWordHandler);
    EXPECT_EQ(ptr->asTrusted().meta, s.geo.frameBase);
}

TEST(TrustedLayerTest, AsRegisterAndResolve)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);

    auto handle = interp.call("as_register", {mir::Value::intVal(0x5000)});
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(handle->isRDataPtr());
    EXPECT_EQ(s.asRoots.size(), 1u);

    auto root = interp.call("as_root", {*handle});
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(mir::result::isOk(*root));
    EXPECT_EQ(mir::result::payload(*root).asInt(), 0x5000);

    // A forged foreign handle resolves to an error, not a root.
    auto foreign =
        interp.call("as_root", {mir::Value::rdataPtr(99, {1})});
    ASSERT_TRUE(foreign.ok());
    EXPECT_TRUE(mir::result::isErr(*foreign));
}

TEST(TrustedLayerTest, CopyPageTracksProvenance)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);
    ASSERT_TRUE(interp.call("copy_page",
                            {mir::Value::intVal(i64(s.geo.epcBase)),
                             mir::Value::intVal(0x3000)}).ok());
    EXPECT_EQ(s.pageContents.at(s.geo.epcBase), 0x3000ull);
}

} // namespace
} // namespace hev::ccal
