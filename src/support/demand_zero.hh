/**
 * @file
 * A fixed-size array of 64-bit words that starts all zero and costs
 * only what is written to it.
 *
 * The words live in an anonymous mapping, so a fresh array is not
 * zero-filled by the program: the kernel hands out a zero page on the
 * first access to each page.  The array also keeps a per-page
 * "touched" set (one bit per 4 KiB page of words, set by every mutable
 * access).  A page outside that set still reads all zero, so copy and
 * comparison visit only the pages touched on either side and still
 * mean copy and equality of the full contents.  This is what lets the
 * executor build a whole machine and three abstract states per fuzz
 * exec at a cost proportional to the pages the exec touches.
 *
 * A page's bit, once set, stays set for the life of the array (copy
 * assignment merges the source's set into the destination's), so a
 * mutable page pointer handed out earlier can never write into a page
 * that later copies would skip.  Concurrent writes to distinct words
 * are safe, as with a plain array: the touched bits are atomic.
 *
 * A released mapping has its touched pages zeroed and is kept in a
 * small per-thread cache for the next array of the same size, so a
 * thread that builds and drops worlds in a loop reuses warm, zero
 * pages instead of mapping and unmapping (which serialises threads on
 * the kernel's mapping lock and flushes every CPU's TLB on unmap).
 */

#ifndef HEV_SUPPORT_DEMAND_ZERO_HH
#define HEV_SUPPORT_DEMAND_ZERO_HH

#include <atomic>
#include <memory>

#include "support/types.hh"

namespace hev
{

/** Zero-initialised word array with page-granular touch tracking. */
class DemandZeroWords
{
  public:
    /** Words per tracked page (one 4 KiB page). */
    static constexpr u64 wordsPerPage = pageSize / sizeof(u64);

    /** An empty array (size 0). */
    DemandZeroWords() = default;

    /** `word_count` words, all zero. */
    explicit DemandZeroWords(u64 word_count);

    DemandZeroWords(const DemandZeroWords &other);
    DemandZeroWords(DemandZeroWords &&other) noexcept;
    DemandZeroWords &operator=(const DemandZeroWords &other);
    DemandZeroWords &operator=(DemandZeroWords &&other) noexcept;
    ~DemandZeroWords();

    /** Number of words. */
    u64 size() const { return count; }

    /** Load word `index` (unchecked, like std::vector). */
    u64 operator[](u64 index) const { return base[index]; }

    /** Store word `index` (unchecked). */
    void
    set(u64 index, u64 value)
    {
        touch(index / wordsPerPage);
        base[index] = value;
    }

    /// @name Read-only iteration over all words
    /// @{
    const u64 *begin() const { return base; }
    const u64 *end() const { return base + count; }
    /// @}

    /** First word of page `page` (unchecked). */
    const u64 *
    page(u64 page) const
    {
        return base + page * wordsPerPage;
    }

    /** Mutable first word of page `page`; marks the page touched. */
    u64 *
    pageMut(u64 page)
    {
        touch(page);
        return base + page * wordsPerPage;
    }

    /** Zero page `page`.  A page never touched is already zero. */
    void zeroPage(u64 page);

    /** Equality of the full contents. */
    bool operator==(const DemandZeroWords &other) const;

  private:
    u64 pageCount() const { return (count + wordsPerPage - 1) / wordsPerPage; }
    u64 bitmapWords() const { return (pageCount() + 63) / 64; }

    /** Words of page `page` (the last page may be partial). */
    u64
    wordsIn(u64 page) const
    {
        const u64 first = page * wordsPerPage;
        return count - first < wordsPerPage ? count - first : wordsPerPage;
    }

    bool
    touched(u64 page) const
    {
        return bits[page / 64].load(std::memory_order_relaxed) &
               (1ull << (page % 64));
    }

    void
    touch(u64 page)
    {
        std::atomic<u64> &word = bits[page / 64];
        const u64 bit = 1ull << (page % 64);
        if (!(word.load(std::memory_order_relaxed) & bit))
            word.fetch_or(bit, std::memory_order_relaxed);
    }

    /** Take a zero mapping (cached or new) of `word_count` words, with
     *  an empty touched set. */
    void allocate(u64 word_count);
    /** Give the mapping back (to the cache or the kernel); become empty. */
    void release();

    u64 *base = nullptr;
    u64 count = 0;
    std::unique_ptr<std::atomic<u64>[]> bits;
};

} // namespace hev

#endif // HEV_SUPPORT_DEMAND_ZERO_HH
