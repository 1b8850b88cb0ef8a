/**
 * @file
 * Figures 17-18 + Table 13: CPI vs miss penalty with 4K and 16K
 * split I/D caches, for the cache benchmarks.
 *
 * Cycles = IC + Interlocks + MissPenalty * (Imiss + Rmiss + Wmiss)
 * (paper Appendix A.3). D16 CPI is also reported normalized by the
 * DLXe instruction count. The paper's headline: with 4K caches D16
 * matches or beats DLXe despite its longer path (for assem it wins
 * outright because 4K captures the D16 working set but not DLXe's).
 */

#include "common.hh"

using namespace d16bench;

int
main()
{
    header("Figures 17-18 / Table 13: performance with caches",
           "Bunda et al. 1993, Figs. 17-18 and Table 13");

    const CompileOptions optD16 = CompileOptions::d16();
    const CompileOptions optDLXe = CompileOptions::dlxe();

    Table t13({"Program", "ISA", "insns", "interlock rate", "Ifetches",
               "Dreads", "Dwrites"});

    auto config = [](uint32_t kb) {
        return sweep::paperCacheConfig(kb * 1024, 32);
    };

    std::vector<JobSpec> plan;
    for (uint32_t kb : {4u, 16u})
        for (const std::string &name : cacheBenchmarkNames())
            for (const CompileOptions &opts : {optD16, optDLXe})
                plan.push_back(
                    JobSpec::cache(name, opts, config(kb), config(kb)));
    prefetch(std::move(plan));

    for (uint32_t kb : {4, 16}) {
        std::cout << "---- " << kb << "K instruction and data caches ----"
                  << "\n\n";
        for (const std::string &name : cacheBenchmarkNames()) {
            const mem::CacheConfig cfg = config(kb);
            const auto &jD = measureCache(name, optD16, cfg, cfg);
            const auto &jX = measureCache(name, optDLXe, cfg, cfg);
            const auto &mD = jD.run;
            const auto &mX = jX.run;

            if (kb == 4) {
                t13.addRow({name, "D16",
                            std::to_string(mD.stats.instructions),
                            fixed(mD.stats.interlockRate(), 3),
                            std::to_string(mD.stats.instructions),
                            std::to_string(mD.stats.loads),
                            std::to_string(mD.stats.stores)});
                t13.addRow({name, "DLXe",
                            std::to_string(mX.stats.instructions),
                            fixed(mX.stats.interlockRate(), 3),
                            std::to_string(mX.stats.instructions),
                            std::to_string(mX.stats.loads),
                            std::to_string(mX.stats.stores)});
            }

            Table t({"miss penalty", "DLXe CPI", "D16 CPI",
                     "D16 CPI (normalized)"});
            for (int penalty : {4, 8, 12, 16}) {
                const uint64_t cycD = cyclesWithCache(
                    mD.stats, penalty, jD.icache, jD.dcache);
                const uint64_t cycX = cyclesWithCache(
                    mX.stats, penalty, jX.icache, jX.dcache);
                t.addRow({std::to_string(penalty),
                          fixed(static_cast<double>(cycX) /
                                    mX.stats.instructions, 2),
                          fixed(static_cast<double>(cycD) /
                                    mD.stats.instructions, 2),
                          fixed(static_cast<double>(cycD) /
                                    mX.stats.instructions, 2)});
            }
            t.setTitle(name + " (path ratio D16/DLXe = " +
                       ratio(mD.stats.instructions,
                             mX.stats.instructions) + ")");
            t.print(std::cout);
            std::cout << "\n";
        }
    }

    t13.setTitle("Table 13: traffic and interlocks for the cache "
                 "benchmarks");
    t13.print(std::cout);
    return 0;
}
