#include "support/demand_zero.hh"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace hev
{

namespace
{

/**
 * Mappings released on this thread, all zero again, kept for reuse.
 * Threads that build and drop arrays concurrently (the campaign
 * runner's workers) would otherwise contend on the kernel's mapping
 * lock and pay a cross-CPU TLB flush for every munmap.
 */
class MappingCache
{
  public:
    ~MappingCache()
    {
        closed = true;
        for (const Entry &entry : entries)
            munmap(entry.base, entry.bytes);
    }

    /** A cached zero mapping of exactly `bytes`, or null. */
    u64 *
    take(u64 bytes)
    {
        if (closed)
            return nullptr;
        for (Entry &entry : entries) {
            if (entry.bytes == bytes) {
                u64 *base = entry.base;
                entry = entries.back();
                entries.pop_back();
                return base;
            }
        }
        return nullptr;
    }

    /** True if put() would keep a mapping. */
    bool
    hasRoom() const
    {
        return !closed && entries.size() < capacity;
    }

    /** Keep a zero mapping; requires hasRoom(). */
    void put(u64 *base, u64 bytes) { entries.push_back({base, bytes}); }

  private:
    struct Entry
    {
        u64 *base;
        u64 bytes;
    };

    static constexpr size_t capacity = 8;
    std::vector<Entry> entries;
    /** Set once the thread tears the cache down; arrays freed later
     *  (thread-local or static owners) unmap directly. */
    static thread_local bool closed;
};

thread_local bool MappingCache::closed = false;
thread_local MappingCache mappingCache;

/** Call f(page) for every set bit of `mask`, bitmap word `word`. */
template <typename F>
void
forEachBit(u64 word, u64 mask, F &&f)
{
    while (mask) {
        f(word * 64 + u64(std::countr_zero(mask)));
        mask &= mask - 1;
    }
}

} // namespace

DemandZeroWords::DemandZeroWords(u64 word_count)
{
    allocate(word_count);
}

DemandZeroWords::DemandZeroWords(const DemandZeroWords &other)
    : DemandZeroWords(other.count)
{
    *this = other;
}

DemandZeroWords::DemandZeroWords(DemandZeroWords &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      count(std::exchange(other.count, 0)), bits(std::move(other.bits))
{
}

DemandZeroWords &
DemandZeroWords::operator=(const DemandZeroWords &other)
{
    if (this == &other)
        return *this;
    if (count != other.count) {
        release();
        allocate(other.count);
    }
    // Visit the union: pages only this side touched must read zero
    // again.  They stay in the set (see the file comment).
    for (u64 w = 0; w < bitmapWords(); ++w) {
        const u64 theirs = other.bits[w].load(std::memory_order_relaxed);
        const u64 both = bits[w].load(std::memory_order_relaxed) | theirs;
        forEachBit(w, both, [&](u64 p) {
            u64 *dst = base + p * wordsPerPage;
            if (theirs & (1ull << (p % 64)))
                std::memcpy(dst, other.page(p), wordsIn(p) * sizeof(u64));
            else
                std::memset(dst, 0, wordsIn(p) * sizeof(u64));
        });
        bits[w].store(both, std::memory_order_relaxed);
    }
    return *this;
}

DemandZeroWords &
DemandZeroWords::operator=(DemandZeroWords &&other) noexcept
{
    if (this != &other) {
        release();
        base = std::exchange(other.base, nullptr);
        count = std::exchange(other.count, 0);
        bits = std::move(other.bits);
    }
    return *this;
}

DemandZeroWords::~DemandZeroWords()
{
    release();
}

void
DemandZeroWords::zeroPage(u64 page)
{
    if (touched(page))
        std::memset(base + page * wordsPerPage, 0, wordsIn(page) * sizeof(u64));
}

bool
DemandZeroWords::operator==(const DemandZeroWords &other) const
{
    if (count != other.count)
        return false;
    for (u64 w = 0; w < bitmapWords(); ++w) {
        const u64 both = bits[w].load(std::memory_order_relaxed) |
                         other.bits[w].load(std::memory_order_relaxed);
        bool same = true;
        forEachBit(w, both, [&](u64 p) {
            same = same && std::memcmp(page(p), other.page(p),
                                       wordsIn(p) * sizeof(u64)) == 0;
        });
        if (!same)
            return false;
    }
    return true;
}

void
DemandZeroWords::allocate(u64 word_count)
{
    count = word_count;
    if (count == 0)
        return;
    base = mappingCache.take(pageCount() * pageSize);
    if (!base) {
        void *mapping = mmap(nullptr, pageCount() * pageSize,
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                             -1, 0);
        if (mapping == MAP_FAILED)
            fatal("cannot map %llu zero words", (unsigned long long)count);
        base = static_cast<u64 *>(mapping);
    }
    bits = std::make_unique<std::atomic<u64>[]>(bitmapWords());
}

void
DemandZeroWords::release()
{
    if (base && mappingCache.hasRoom()) {
        // Hand the mapping on all zero: only touched pages can differ.
        for (u64 w = 0; w < bitmapWords(); ++w) {
            forEachBit(w, bits[w].load(std::memory_order_relaxed),
                       [&](u64 p) {
                           std::memset(base + p * wordsPerPage, 0,
                                       wordsIn(p) * sizeof(u64));
                       });
        }
        mappingCache.put(base, pageCount() * pageSize);
    } else if (base) {
        munmap(base, pageCount() * pageSize);
    }
    base = nullptr;
    count = 0;
    bits.reset();
}

} // namespace hev
