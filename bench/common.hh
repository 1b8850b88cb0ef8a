/**
 * @file
 * Shared helpers for the experiment-reproduction binaries in bench/.
 *
 * Each binary regenerates one or more of the paper's tables/figures:
 * it declares the slice of the experiment matrix it needs, lets the
 * sweep engine (src/core/sweep) build and simulate it in parallel,
 * then formats the same rows/series the paper reports. Absolute
 * counts differ from the paper (our workloads are reduced-scale
 * miniatures); the reproduction target is the shape: who wins, by
 * what rough factor, and where crossovers fall. EXPERIMENTS.md
 * records paper-vs-measured for every artifact.
 *
 * All measurements live in one process-wide thread-safe ResultStore
 * (the old function-local static-map memo here was unsynchronized and
 * handed out references across rehashing inserts — it is gone).
 * Thread count comes from D16SWEEP_JOBS, defaulting to the hardware
 * concurrency.
 */

#ifndef D16SIM_BENCH_COMMON_HH
#define D16SIM_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>

#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "support/parallel.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace d16bench
{

using namespace d16sim;
using namespace d16sim::core;
using mc::CompileOptions;
using sweep::JobResult;
using sweep::JobSpec;

inline int
defaultJobs()
{
    if (const char *env = std::getenv("D16SWEEP_JOBS"))
        return std::max(1, std::atoi(env));
    return hardwareThreads();
}

/** The process-wide result store every measurement lands in. */
inline sweep::ResultStore &
store()
{
    static sweep::ResultStore s;
    return s;
}

/** Run every listed job not already measured, in parallel. */
inline void
prefetch(std::vector<JobSpec> specs)
{
    sweep::SweepEngine engine(store(), defaultJobs());
    engine.add(std::move(specs));
    engine.run();
}

/** Fetch one job's result, computing it on demand if the driver did
 *  not prefetch it. */
inline const JobResult &
measureJob(const JobSpec &spec)
{
    const std::string key = sweep::jobKey(spec);
    if (const JobResult *r = store().find(key))
        return *r;
    return store().put(key, sweep::executeJob(spec));
}

/** One workload built+run for one variant (no probe). */
inline const JobResult &
measure(const std::string &workloadName, const CompileOptions &opts)
{
    return measureJob(JobSpec::base(workloadName, opts));
}

/** ... with the fetch-buffer probe on a `busBytes`-wide fetch path. */
inline const JobResult &
measureFetch(const std::string &workloadName, const CompileOptions &opts,
             uint32_t busBytes)
{
    return measureJob(JobSpec::fetch(workloadName, opts, busBytes));
}

/** ... with split I/D caches attached. */
inline const JobResult &
measureCache(const std::string &workloadName, const CompileOptions &opts,
             const mem::CacheConfig &icache, const mem::CacheConfig &dcache)
{
    return measureJob(JobSpec::cache(workloadName, opts, icache, dcache));
}

/** ... with the immediate-width classifier (paper Table 4). */
inline const JobResult &
measureImm(const std::string &workloadName, const CompileOptions &opts)
{
    return measureJob(JobSpec::imm(workloadName, opts));
}

inline std::string
ratio(double num, double den, int prec = 2)
{
    return fixed(den == 0 ? 0 : num / den, prec);
}

inline void
header(const std::string &what, const std::string &paperRef)
{
    std::cout << "\n=== " << what << " ===\n"
              << "(reproduces " << paperRef << ")\n\n";
}

} // namespace d16bench

#endif // D16SIM_BENCH_COMMON_HH
