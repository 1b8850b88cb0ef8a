/**
 * @file
 * Randomized differential test for the sub-blocked cache model.
 *
 * A naive reference model — per-frame tag plus per-sub-block valid and
 * dirty bits, written as the most literal possible transcription of
 * the paper's policy in mem/cache.hh (direct-mapped, read-miss
 * wrap-around prefetch, no prefetch on writes, write-allocate,
 * write-back) — is driven in lockstep with mem::Cache over ~1k seeded
 * random access streams spanning the paper's geometry vocabulary.
 * Every access must agree on hit/miss, and every stream must end with
 * identical traffic classification (reads/writes/read-misses/
 * write-misses/words-in/words-out), including after a flush. A second
 * differential drives the replay fast path, Cache::readSeq(), against
 * the reference taking the same run as single reads.
 */

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace d16sim;

namespace
{

/** The most literal possible sector cache: no derived index math
 *  shared with the implementation under test beyond the set mapping
 *  the config dictates. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const mem::CacheConfig &cfg) : cfg_(cfg)
    {
        numSets_ = cfg.sizeBytes / cfg.blockBytes;
        subPerBlock_ = cfg.blockBytes / cfg.subBlockBytes;
        sets_.assign(numSets_, Frame(subPerBlock_));
    }

    bool
    access(uint32_t addr, bool isWrite)
    {
        if (isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;

        const uint32_t block = addr / cfg_.blockBytes;
        const uint32_t tag = block / numSets_;
        const uint32_t sub =
            (addr % cfg_.blockBytes) / cfg_.subBlockBytes;
        Frame &frame = sets_[block % numSets_];

        if (frame.live && frame.tag == tag && frame.valid[sub]) {
            if (isWrite)
                frame.dirty[sub] = true;
            return true;
        }

        if (isWrite)
            ++stats_.writeMisses;
        else
            ++stats_.readMisses;

        if (!frame.live || frame.tag != tag) {
            writeBackAndInvalidate(frame);
            frame.live = true;
            frame.tag = tag;
        }

        // Demand fill, then wrap-around prefetch of the rest of the
        // block on read misses only.
        frame.valid[sub] = true;
        frame.dirty[sub] = false;
        stats_.wordsIn += cfg_.subBlockBytes / 4;
        if (!isWrite) {
            for (uint32_t s = 0; s < subPerBlock_; ++s) {
                if (!frame.valid[s]) {
                    frame.valid[s] = true;
                    frame.dirty[s] = false;
                    stats_.wordsIn += cfg_.subBlockBytes / 4;
                }
            }
        }
        if (isWrite)
            frame.dirty[sub] = true;
        return false;
    }

    void
    flush()
    {
        for (Frame &f : sets_)
            writeBackAndInvalidate(f);
    }

    const mem::CacheStats &stats() const { return stats_; }

  private:
    struct Frame
    {
        explicit Frame(uint32_t subs) : valid(subs), dirty(subs) {}
        bool live = false;
        uint32_t tag = 0;
        std::vector<bool> valid;
        std::vector<bool> dirty;
    };

    void
    writeBackAndInvalidate(Frame &f)
    {
        if (!f.live)
            return;
        for (uint32_t s = 0; s < subPerBlock_; ++s)
            if (f.dirty[s])
                stats_.wordsOut += cfg_.subBlockBytes / 4;
        f.live = false;
        std::fill(f.valid.begin(), f.valid.end(), false);
        std::fill(f.dirty.begin(), f.dirty.end(), false);
    }

    mem::CacheConfig cfg_;
    uint32_t numSets_ = 0;
    uint32_t subPerBlock_ = 0;
    std::vector<Frame> sets_;
    mem::CacheStats stats_;
};

void
expectStatsEqual(const mem::CacheStats &got, const mem::CacheStats &ref,
                 const std::string &where)
{
    EXPECT_EQ(got.reads, ref.reads) << where;
    EXPECT_EQ(got.writes, ref.writes) << where;
    EXPECT_EQ(got.readMisses, ref.readMisses) << where;
    EXPECT_EQ(got.writeMisses, ref.writeMisses) << where;
    EXPECT_EQ(got.wordsIn, ref.wordsIn) << where;
    EXPECT_EQ(got.wordsOut, ref.wordsOut) << where;
}

/** Geometries spanning the paper's vocabulary: 8-64 byte blocks with
 *  every sub-block size from 4 bytes to the whole block. */
std::vector<mem::CacheConfig>
configs()
{
    std::vector<mem::CacheConfig> out;
    for (uint32_t size : {256u, 1024u, 4096u}) {
        for (uint32_t block : {8u, 16u, 32u, 64u}) {
            for (uint32_t sub = 4; sub <= block; sub *= 2) {
                mem::CacheConfig cfg;
                cfg.sizeBytes = size;
                cfg.blockBytes = block;
                cfg.subBlockBytes = sub;
                out.push_back(cfg);
            }
        }
    }
    return out;
}

} // namespace

TEST(CacheDifferential, RandomStreamsMatchReferenceModel)
{
    const std::vector<mem::CacheConfig> cfgs = configs();
    const int streams = 1024;
    const int accessesPerStream = 512;
    uint64_t totalAccesses = 0;

    for (int stream = 0; stream < streams; ++stream) {
        std::mt19937 rng(0xd16c0de + stream);
        const mem::CacheConfig &cfg = cfgs[stream % cfgs.size()];

        mem::Cache cache(cfg);
        ReferenceCache ref(cfg);

        // A small address space (a few multiples of the cache size)
        // keeps conflict and capacity behavior hot.
        const uint32_t span = cfg.sizeBytes * (1 + stream % 4);
        std::uniform_int_distribution<uint32_t> addrDist(0, span - 1);
        std::uniform_int_distribution<int> sizeDist(0, 2);
        std::uniform_int_distribution<int> writeDist(0, 99);

        for (int i = 0; i < accessesPerStream; ++i) {
            const int size = 1 << sizeDist(rng);  // 1, 2, or 4 bytes
            const uint32_t addr = addrDist(rng) & ~(size - 1u);
            const bool isWrite = writeDist(rng) < 30;
            const bool hit = cache.access(addr, size, isWrite);
            const bool refHit = ref.access(addr, isWrite);
            ASSERT_EQ(hit, refHit)
                << "stream " << stream << " access " << i << " addr 0x"
                << std::hex << addr << std::dec << " size " << size
                << (isWrite ? " write" : " read");
            ++totalAccesses;
        }
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream));

        cache.flush();
        ref.flush();
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream) +
                             " after flush");
        if (::testing::Test::HasFatalFailure())
            break;
    }
    EXPECT_EQ(totalAccesses,
              static_cast<uint64_t>(streams) * accessesPerStream);
}

TEST(CacheDifferential, ReadSeqMatchesSingleReads)
{
    const std::vector<mem::CacheConfig> cfgs = configs();
    const int streams = 512;
    const int opsPerStream = 256;

    for (int stream = 0; stream < streams; ++stream) {
        std::mt19937 rng(0x5e9d16 + stream);
        const mem::CacheConfig &cfg = cfgs[stream % cfgs.size()];
        mem::Cache cache(cfg);
        ReferenceCache ref(cfg);

        const uint32_t span = cfg.sizeBytes * (1 + stream % 4);
        std::uniform_int_distribution<uint32_t> addrDist(0, span - 1);
        std::uniform_int_distribution<int> sizeDist(0, 2);
        std::uniform_int_distribution<int> opDist(0, 99);
        std::uniform_int_distribution<uint32_t> runDist(1, 40);

        for (int i = 0; i < opsPerStream; ++i) {
            const int size = 1 << sizeDist(rng);  // 1, 2, or 4 bytes
            const uint32_t addr = addrDist(rng) & ~(size - 1u);
            const int op = opDist(rng);
            if (op < 20) {
                // Writes interleave so runs meet dirty, partly valid
                // blocks.
                cache.write(addr, size);
                ref.access(addr, true);
                continue;
            }
            // A sequential run: one readSeq() call for the model, n
            // single reads for the reference.
            const uint32_t n = op < 40 ? 1 : runDist(rng);
            const mem::CacheStats before = cache.stats();
            cache.readSeq(addr, size, n);
            uint64_t refHits = 0;
            for (uint32_t k = 0; k < n; ++k)
                refHits += ref.access(addr + k * size, false);
            const uint64_t hits =
                (cache.stats().reads - before.reads) -
                (cache.stats().readMisses - before.readMisses);
            ASSERT_EQ(hits, refHits)
                << "stream " << stream << " op " << i << " readSeq(0x"
                << std::hex << addr << std::dec << ", " << size << ", "
                << n << ")";
        }
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream));
        cache.flush();
        ref.flush();
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream) +
                             " after flush");
        if (::testing::Test::HasFatalFailure())
            break;
    }
}
