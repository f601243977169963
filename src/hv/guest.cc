#include "hv/guest.hh"

#include "support/logging.hh"

namespace hev::hv
{

namespace
{

/** Bytes mapped by one level-1 table. */
constexpr u64 leafSpan = entriesPerTable * pageSize;

} // namespace

PrimaryOs::PrimaryOs(Monitor &mon) : monitor(mon)
{
    const u64 pages = mon.config().layout.normalRange().size() / pageSize;
    pageBitmap.assign(pages, false);
    // Reserve page 0 so no allocation ever hands out the null page.
    pageBitmap[0] = true;
    ++usedCount;
}

Expected<Gpa>
PrimaryOs::allocPage()
{
    const u64 n = pageBitmap.size();
    for (u64 probe = 0; probe < n; ++probe) {
        const u64 idx = (searchHint + probe) % n;
        if (!pageBitmap[idx]) {
            pageBitmap[idx] = true;
            ++usedCount;
            searchHint = (idx + 1) % n;
            const Gpa page = Gpa(idx * pageSize);
            (void)zeroPage(page);
            return page;
        }
    }
    return HvError::OutOfMemory;
}

Status
PrimaryOs::freePage(Gpa page)
{
    if (page.value % pageSize != 0)
        return HvError::NotAligned;
    const u64 idx = page.value / pageSize;
    if (idx >= pageBitmap.size() || !pageBitmap[idx])
        return HvError::InvalidParam;
    pageBitmap[idx] = false;
    --usedCount;
    return okStatus();
}

Expected<Hpa>
PrimaryOs::eptTranslate(Gpa addr, bool is_write) const
{
    // The OS kernel can touch any guest-physical address: model that as
    // a direct EPT translation (identity GPT), which is what an OS
    // running with a full linear mapping achieves.
    const PageTable ept(const_cast<PhysMem &>(monitor.mem()), nullptr,
                        monitor.normalEptRoot());
    auto tr = ept.translate(addr.value, is_write, false);
    if (!tr)
        return tr.error();
    return Hpa(tr->physAddr);
}

Expected<u64>
PrimaryOs::physRead(Gpa addr) const
{
    auto hpa = eptTranslate(addr, false);
    if (!hpa)
        return hpa.error();
    return monitor.mem().read(*hpa);
}

Status
PrimaryOs::physWrite(Gpa addr, u64 value)
{
    auto hpa = eptTranslate(addr, true);
    if (!hpa)
        return hpa.error();
    monitor.mem().write(*hpa, value);
    return okStatus();
}

Status
PrimaryOs::zeroPage(Gpa page)
{
    if (page.value % pageSize != 0)
        return HvError::NotAligned;
    auto hpa = eptTranslate(page, true);
    if (!hpa)
        return hpa.error();
    monitor.mem().zeroPage(*hpa);
    return okStatus();
}

Expected<Gpa>
PrimaryOs::createPageTable()
{
    return allocPage();
}

Status
PrimaryOs::gptMap(Gpa root, u64 va, Gpa target, PteFlags flags)
{
    PageTable::LeafCursor cursor;
    return gptMap(root, va, target, flags, cursor);
}

Status
PrimaryOs::gptMap(Gpa root, u64 va, Gpa target, PteFlags flags,
                  PageTable::LeafCursor &cursor)
{
    if (va % pageSize != 0 || target.value % pageSize != 0)
        return HvError::NotAligned;
    const u64 span_base = va & ~(leafSpan - 1);
    if (cursor.vaBase != span_base) {
        Gpa table = root;
        for (int level = pagingLevels; level > 1; --level) {
            const u64 index = Gva(va).tableIndex(level);
            auto raw = physRead(table + index * sizeof(u64));
            if (!raw)
                return raw.error();
            Pte entry(*raw);
            if (!entry.present()) {
                auto frame = allocPage();
                if (!frame)
                    return frame.error();
                entry = Pte::make(frame->value, PteFlags::tableLink());
                if (auto st = physWrite(table + index * sizeof(u64),
                                        entry.raw()); !st)
                    return st.error();
            } else if (entry.huge()) {
                return HvError::AlreadyMapped;
            }
            table = Gpa(entry.addr());
        }
        // One translation covers the whole leaf table (EPT permissions
        // are per page); its entries are then accessed directly.
        auto leaf = eptTranslate(table, true);
        if (!leaf)
            return leaf.error();
        cursor.vaBase = span_base;
        cursor.table = *leaf;
    }
    const Hpa slot = cursor.table + Gva(va).tableIndex(1) * sizeof(u64);
    if (Pte(monitor.mem().read(slot)).present())
        return HvError::AlreadyMapped;
    flags.huge = false;
    monitor.mem().write(slot, Pte::make(target.value, flags).raw());
    return okStatus();
}

Expected<Hpa>
PrimaryOs::gptLeafEntry(Gpa root, u64 va) const
{
    if (va % pageSize != 0)
        return HvError::NotAligned;
    Gpa table = root;
    for (int level = pagingLevels; level > 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        auto raw = physRead(table + index * sizeof(u64));
        if (!raw)
            return raw.error();
        const Pte entry(*raw);
        if (!entry.present())
            return HvError::NotMapped;
        if (entry.huge())
            return HvError::Unsupported;
        table = Gpa(entry.addr());
    }
    const Gpa slot = table + Gva(va).tableIndex(1) * sizeof(u64);
    auto raw = physRead(slot);
    if (!raw)
        return raw.error();
    if (!Pte(*raw).present())
        return HvError::NotMapped;
    return eptTranslate(slot, true);
}

Status
PrimaryOs::gptUnmap(Gpa root, u64 va)
{
    auto slot = gptLeafEntry(root, va);
    if (!slot)
        return slot.error();
    monitor.mem().write(*slot, 0);
    return okStatus();
}

Status
PrimaryOs::writePtEntryRaw(Gpa table, u64 index, u64 raw)
{
    if (index >= entriesPerTable)
        return HvError::InvalidParam;
    return physWrite(table + index * sizeof(u64), raw);
}

} // namespace hev::hv
