/**
 * @file
 * Figure 16 + Tables 14-16: instruction (and data) cache miss rates
 * for the cache benchmarks (assem, ipl, latex), cache sizes 1K-16K.
 *
 * Caches are direct-mapped, 32-byte blocks with 8-byte sub-blocks,
 * wrap-around prefetch on read misses, no prefetch on writes
 * (paper §4.1.1 / Appendix A.3). Miss rates are per instruction for
 * the I-cache and per read/write for the D-cache, as in Tables 14-16.
 * The paper's headline: byte-for-byte D16 has roughly half the I-cache
 * miss rate of DLXe.
 */

#include "common.hh"

using namespace d16bench;

int
main()
{
    header("Figure 16 / Tables 14-16: cache miss rates",
           "Bunda et al. 1993, Fig. 16 and Tables 14-16");

    const CompileOptions optD16 = CompileOptions::d16();
    const CompileOptions optDLXe = CompileOptions::dlxe();

    auto config = [](uint32_t kb, uint32_t block) {
        return sweep::paperCacheConfig(kb * 1024, block);
    };

    std::vector<JobSpec> plan;
    for (const std::string &name : cacheBenchmarkNames())
        for (const CompileOptions &opts : {optD16, optDLXe})
            for (uint32_t kb : {1u, 2u, 4u, 8u, 16u})
                for (uint32_t block : {8u, 16u, 32u, 64u})
                    plan.push_back(JobSpec::cache(
                        name, opts, config(kb, block), config(kb, block)));
    prefetch(std::move(plan));

    for (const std::string &name : cacheBenchmarkNames()) {
        Table t({"cache", "block", "I D16", "I DLXe", "Dread D16",
                 "Dread DLXe", "Dwrite D16", "Dwrite DLXe"});
        for (uint32_t kb : {1, 2, 4, 8, 16}) {
            for (uint32_t block : {8u, 16u, 32u, 64u}) {
                const mem::CacheConfig cfg = config(kb, block);
                const auto &jD = measureCache(name, optD16, cfg, cfg);
                const auto &jX = measureCache(name, optDLXe, cfg, cfg);

                auto perInsn = [](const mem::CacheStats &c,
                                  uint64_t insns) {
                    return static_cast<double>(c.misses()) / insns;
                };
                t.addRow({std::to_string(kb) + "K",
                          std::to_string(block),
                          fixed(perInsn(jD.icache,
                                        jD.run.stats.instructions), 3),
                          fixed(perInsn(jX.icache,
                                        jX.run.stats.instructions), 3),
                          fixed(jD.dcache.readMissRate(), 3),
                          fixed(jX.dcache.readMissRate(), 3),
                          fixed(jD.dcache.writeMissRate(), 3),
                          fixed(jX.dcache.writeMissRate(), 3)});
            }
        }
        t.setTitle("Benchmark: " + name +
                   " (I-cache misses per instruction; D per ref)");
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Paper shape: D16 I-miss rates roughly half of DLXe "
                 "at each size; both fall steeply with cache size.\n";
    return 0;
}
