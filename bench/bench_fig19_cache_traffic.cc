/**
 * @file
 * Figure 19: instruction traffic (bus words per cycle) with an
 * instruction cache, cache sizes 1K-16K, miss penalty 4.
 *
 * Traffic = words moved between memory and the I-cache (fills +
 * prefetches). The paper's headline: regardless of program or hit
 * rate, D16 instruction traffic stays significantly below DLXe's.
 */

#include "common.hh"

using namespace d16bench;

int
main()
{
    header("Figure 19: instruction traffic with an instruction cache",
           "Bunda et al. 1993, Fig. 19");

    const CompileOptions optD16 = CompileOptions::d16();
    const CompileOptions optDLXe = CompileOptions::dlxe();
    const int missPenalty = 4;

    auto config = [](uint32_t kb) {
        return sweep::paperCacheConfig(kb * 1024, 32);
    };

    std::vector<JobSpec> plan;
    for (const std::string &name : cacheBenchmarkNames())
        for (const CompileOptions &opts : {optD16, optDLXe})
            for (uint32_t kb : {1u, 2u, 4u, 8u, 16u})
                plan.push_back(
                    JobSpec::cache(name, opts, config(kb), config(kb)));
    prefetch(std::move(plan));

    for (const std::string &name : cacheBenchmarkNames()) {
        Table t({"cache", "D16 words/cycle", "DLXe words/cycle",
                 "ratio"});
        for (uint32_t kb : {1, 2, 4, 8, 16}) {
            const mem::CacheConfig cfg = config(kb);
            const auto &jD = measureCache(name, optD16, cfg, cfg);
            const auto &jX = measureCache(name, optDLXe, cfg, cfg);

            const uint64_t cycD = cyclesWithCache(
                jD.run.stats, missPenalty, jD.icache, jD.dcache);
            const uint64_t cycX = cyclesWithCache(
                jX.run.stats, missPenalty, jX.icache, jX.dcache);
            const double wpcD =
                static_cast<double>(jD.icache.wordsTransferred()) /
                cycD;
            const double wpcX =
                static_cast<double>(jX.icache.wordsTransferred()) /
                cycX;
            t.addRow({std::to_string(kb) + "K", fixed(wpcD, 4),
                      fixed(wpcX, 4),
                      wpcD > 0 ? fixed(wpcX / wpcD, 2) : "-"});
        }
        t.setTitle("Benchmark: " + name);
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Paper shape: D16 well below DLXe at every size.\n";
    return 0;
}
