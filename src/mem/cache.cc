#include "mem/cache.hh"

#include <bit>

#include "support/bits.hh"
#include "support/error.hh"

namespace d16sim::mem
{

Cache::Cache(CacheConfig config) : config_(config)
{
    const auto &c = config_;
    if (!isPowerOfTwo(c.sizeBytes) || !isPowerOfTwo(c.blockBytes) ||
        !isPowerOfTwo(c.subBlockBytes)) {
        fatal("cache geometry must be powers of two");
    }
    if (c.subBlockBytes < 4 || c.subBlockBytes > c.blockBytes)
        fatal("sub-block size must be in [4, blockBytes]");
    if (c.blockBytes > c.sizeBytes)
        fatal("cache smaller than one block");
    const uint32_t subPerBlock = c.blockBytes / c.subBlockBytes;
    if (subPerBlock > 64)
        fatal("more than 64 sub-blocks per block");
    const uint32_t numSets = c.sizeBytes / c.blockBytes;
    wordsPerSub_ = c.subBlockBytes / 4;
    fullMask_ = subPerBlock == 64 ? ~uint64_t{0}
                                  : (uint64_t{1} << subPerBlock) - 1;
    blockShift_ = floorLog2(c.blockBytes);
    subShift_ = floorLog2(c.subBlockBytes);
    setShift_ = floorLog2(numSets);
    setMask_ = numSets - 1;
    blockMask_ = c.blockBytes - 1;
    frames_.resize(numSets);
}

void
Cache::evict(Frame &frame)
{
    stats_.wordsOut +=
        static_cast<uint64_t>(std::popcount(frame.dirty)) * wordsPerSub_;
    frame.valid = 0;
    frame.dirty = 0;
}

bool
Cache::access(uint32_t addr, int size, bool isWrite)
{
    panicIf(size <= 0 || static_cast<uint32_t>(size) > config_.subBlockBytes,
            "access size ", size, " exceeds sub-block");
    panicIf((addr >> subShift_) !=
                ((addr + static_cast<uint32_t>(size) - 1) >> subShift_),
            "access spans a sub-block boundary");

    if (isWrite)
        stats_.writes += 1;
    else
        stats_.reads += 1;

    const uint32_t blockAddr = addr >> blockShift_;
    const uint32_t tag = blockAddr >> setShift_;
    const uint64_t bit = uint64_t{1} << ((addr & blockMask_) >> subShift_);
    Frame &frame = frames_[blockAddr & setMask_];

    if (frame.tag == tag && (frame.valid & bit)) {
        // Full hit.
        if (isWrite)
            frame.dirty |= bit;
        return true;
    }

    // Miss (tag miss, or sub-block miss within a resident block).
    if (frame.tag != tag) {
        evict(frame);
        frame.tag = tag;
    }
    if (isWrite) {
        // Write-allocate fetches only the written sub-block.
        stats_.writeMisses += 1;
        frame.valid |= bit;
        frame.dirty |= bit;
        stats_.wordsIn += wordsPerSub_;
    } else {
        // Demand fill plus wrap-around prefetch: every invalid
        // sub-block of the block, the missed one included.
        stats_.readMisses += 1;
        stats_.wordsIn += static_cast<uint64_t>(std::popcount(
                              fullMask_ & ~frame.valid)) *
                          wordsPerSub_;
        frame.valid = fullMask_;
    }
    return false;
}

void
Cache::readSeq(uint32_t addr, int size, uint32_t count)
{
    const uint32_t stride = static_cast<uint32_t>(size);
    while (count) {
        // References left in this sub-block: the stride equals the
        // access size, so the i-th reference lands at addr + i*size.
        uint32_t k =
            (config_.subBlockBytes - (addr & (config_.subBlockBytes - 1))) /
            stride;
        if (k == 0)
            k = 1;  // let access() report the span violation
        if (k > count)
            k = count;
        // The sub-block is resident after the first read (a read miss
        // fills it) and nothing intervenes, so the next k-1 reads are
        // guaranteed full hits; fold their counter updates.
        access(addr, size, false);
        stats_.reads += k - 1;
        addr += k * stride;
        count -= k;
    }
}

void
Cache::flush()
{
    for (Frame &f : frames_)
        evict(f);
}

} // namespace d16sim::mem
