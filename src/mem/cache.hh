/**
 * @file
 * Sub-blocked cache model (the dinero-equivalent of paper §4.1).
 *
 * Implements the paper's one cache policy: direct-mapped caches
 * organized as blocks of 8..64 bytes with 4- or 8-byte sub-blocks,
 * wrap-around prefetch of the remainder of the block on read misses,
 * no prefetch on writes, write-allocate, write-back.
 *
 * Each frame holds one tag plus per-sub-block valid and dirty bits
 * (a "sector cache", one bit per sub-block in a 64-bit mask): a read
 * that hits the tag but misses its sub-block counts as a miss and
 * fills the invalid sub-blocks of the block; a write miss fetches only
 * the written sub-block.
 *
 * Traffic is counted in 32-bit words: wordsIn (memory -> cache fills
 * and prefetches) and wordsOut (dirty write-backs), the quantities
 * behind the paper's Figure 19 "Words/Cycle" curves.
 */

#ifndef D16SIM_MEM_CACHE_HH
#define D16SIM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "support/stat_field.hh"

namespace d16sim::mem
{

struct CacheConfig
{
    uint32_t sizeBytes = 4096;
    uint32_t blockBytes = 32;
    uint32_t subBlockBytes = 8;
};

struct CacheStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t readMisses = 0;
    uint64_t writeMisses = 0;
    uint64_t wordsIn = 0;   //!< words fetched from memory
    uint64_t wordsOut = 0;  //!< words written back to memory

    uint64_t accesses() const { return reads + writes; }
    uint64_t misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        return accesses() ? static_cast<double>(misses()) /
                                static_cast<double>(accesses())
                          : 0.0;
    }

    double
    readMissRate() const
    {
        return reads ? static_cast<double>(readMisses) /
                           static_cast<double>(reads)
                     : 0.0;
    }

    double
    writeMissRate() const
    {
        return writes ? static_cast<double>(writeMisses) /
                            static_cast<double>(writes)
                      : 0.0;
    }

    uint64_t wordsTransferred() const { return wordsIn + wordsOut; }
};

/** The CacheStats wire schema: every cache-stats codec derives from
 *  this list. */
inline constexpr auto kCacheStatFields =
    std::to_array<StatField<CacheStats>>({
        {"reads", &CacheStats::reads},
        {"writes", &CacheStats::writes},
        {"readMisses", &CacheStats::readMisses},
        {"writeMisses", &CacheStats::writeMisses},
        {"wordsIn", &CacheStats::wordsIn},
        {"wordsOut", &CacheStats::wordsOut},
    });
static_assert(sizeof(CacheStats) ==
                  kCacheStatFields.size() * sizeof(uint64_t),
              "every CacheStats counter needs a kCacheStatFields line");

class Cache
{
  public:
    explicit Cache(CacheConfig config);

    /**
     * Simulate one access. `size` bytes at `addr` (the access must not
     * span a sub-block, which natural alignment guarantees).
     * @return true on hit.
     */
    bool access(uint32_t addr, int size, bool isWrite);

    /** Read access convenience. */
    bool read(uint32_t addr, int size) { return access(addr, size, false); }
    /** Write access convenience. */
    bool write(uint32_t addr, int size) { return access(addr, size, true); }

    /**
     * `count` sequential reads of `size` bytes each, starting at
     * `addr` and advancing by `size` — exactly equivalent to calling
     * read() `count` times, but references after the first to one
     * sub-block are folded into the counters (they are guaranteed
     * hits: nothing can evict the sub-block between them). This is the
     * trace-replay fast path for instruction streams.
     */
    void readSeq(uint32_t addr, int size, uint32_t count);

    /** Flush: write back all dirty sub-blocks and invalidate. */
    void flush();

    const CacheStats &stats() const { return stats_; }

  private:
    /** One block frame; bit s of each mask is sub-block s. A dirty
     *  sub-block is always valid. */
    struct Frame
    {
        uint32_t tag = 0;
        uint64_t valid = 0;
        uint64_t dirty = 0;
    };

    void evict(Frame &frame);

    CacheConfig config_;
    uint32_t wordsPerSub_ = 0;
    uint64_t fullMask_ = 0;  //!< a valid bit for every sub-block

    // Shift/mask forms of the geometry divisors. Every dimension is a
    // power of two (asserted in the constructor), so set indexing and
    // sub-block selection are single-cycle bit operations on the
    // access hot path.
    uint32_t blockShift_ = 0;  //!< log2(blockBytes)
    uint32_t subShift_ = 0;    //!< log2(subBlockBytes)
    uint32_t setShift_ = 0;    //!< log2(numSets)
    uint32_t setMask_ = 0;     //!< numSets - 1
    uint32_t blockMask_ = 0;   //!< blockBytes - 1
    std::vector<Frame> frames_;  //!< one per set
    CacheStats stats_;
};

} // namespace d16sim::mem

#endif // D16SIM_MEM_CACHE_HH
