/**
 * @file
 * Model of the untrusted primary OS (the adversary of the threat model).
 *
 * The primary OS owns normal memory and manages its own and its apps'
 * guest page tables (paper Sec. 2.1) — the monitor never validates
 * those.  Per the threat model (Sec. 2.2) it may issue arbitrary memory
 * accesses through whatever its EPT permits, program malicious DMA, and
 * fire any hypercall sequence.  Everything here goes through the same
 * mediation real hardware would apply, so attack attempts exercise
 * exactly the isolation machinery under verification.
 */

#ifndef HEV_HV_GUEST_HH
#define HEV_HV_GUEST_HH

#include <vector>

#include "hv/monitor.hh"
#include "support/result.hh"
#include "support/types.hh"

namespace hev::hv
{

/** The untrusted primary OS. */
class PrimaryOs
{
  public:
    explicit PrimaryOs(Monitor &mon);

    PrimaryOs(const PrimaryOs &) = delete;
    PrimaryOs &operator=(const PrimaryOs &) = delete;

    /// @name Guest-side physical page management (normal memory)
    /// @{

    /** Allocate a free page of normal memory from the guest's pool. */
    Expected<Gpa> allocPage();

    /** Return a page to the guest's pool. */
    Status freePage(Gpa page);

    /// @}

    /// @name Guest-physical memory access, mediated by the normal EPT
    /// @{

    /** 64-bit load at a guest-physical address. */
    Expected<u64> physRead(Gpa addr) const;

    /** 64-bit store at a guest-physical address. */
    Status physWrite(Gpa addr, u64 value);

    /**
     * Zero one guest-physical page: one EPT translation for the whole
     * page (EPT permissions are per page), then a bulk zero.
     * NotAligned if page is not page aligned.
     */
    Status zeroPage(Gpa page);

    /// @}

    /// @name Guest page-table management (untrusted, guest-built)
    /// @{

    /**
     * Build a fresh, empty page-table root in normal memory.
     * @return the guest-physical address of the level-4 table.
     */
    Expected<Gpa> createPageTable();

    /**
     * Install a 4 KiB mapping va -> target in a guest-built table,
     * allocating intermediate tables from the guest pool.
     */
    Status gptMap(Gpa root, u64 va, Gpa target, PteFlags flags);

    /**
     * gptMap() reusing (and refreshing) a cached leaf-table walk.  The
     * cursor holds the host frame of the level-1 table, so a run of
     * maps costs one walk and one EPT translation per 2 MiB span.  It
     * must not outlive a change to the GPT's intermediate tables or
     * to the normal EPT.
     */
    Status gptMap(Gpa root, u64 va, Gpa target, PteFlags flags,
                  PageTable::LeafCursor &cursor);

    /**
     * Host address of the present 4 KiB leaf entry mapping va in a
     * guest-built table: gptUnmap's walk and checks without the write.
     * Where the entry points does not matter; a GPA the normal EPT
     * leaves unmapped is still a mapping the OS may remove.
     */
    Expected<Hpa> gptLeafEntry(Gpa root, u64 va) const;

    /** Remove a 4 KiB mapping from a guest-built table. */
    Status gptUnmap(Gpa root, u64 va);

    /**
     * Attack helper: write a raw 64-bit entry at (table, index) with no
     * validation whatsoever — the OS can always do this to its own
     * tables, and a malicious OS will.
     */
    Status writePtEntryRaw(Gpa table, u64 index, u64 raw);

    /// @}

    /** Pages currently allocated from the guest pool. */
    u64 usedPages() const { return usedCount; }

  private:
    /** Normal-EPT translation of a guest-physical address. */
    Expected<Hpa> eptTranslate(Gpa addr, bool is_write) const;

    Monitor &monitor;
    /** One bit per page of normal memory; true = allocated. */
    std::vector<bool> pageBitmap;
    u64 usedCount = 0;
    u64 searchHint = 0;
};

} // namespace hev::hv

#endif // HEV_HV_GUEST_HH
