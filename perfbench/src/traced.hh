/**
 * @file
 * The traced path: the same jobs the untraced workloads hand to
 * core::build and SweepEngine::run, driven through the layers' public
 * functions instead, with one span around each call (tracer.hh). They
 * mirror the engine's and core::build's decisions step for step, so a
 * traced round yields byte-identical results; the benchmark's tests
 * check that.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <string>
#include <vector>

#include "asm/image.hh"
#include "core/store/store.hh"
#include "core/sweep/result_store.hh"
#include "tracer.hh"

namespace perfbench
{

/** core::build, traced: mc::compile with per-phase spans taken from the
 *  VerifyHook and PassValidator seams, then link, lint and CFG checks
 *  (the last two only with opts.verifyEach, as core::build does in a
 *  release build). Must run on a traced lane. */
d16sim::assem::Image tracedBuild(const std::string &source,
                                 const d16sim::mc::CompileOptions &opts);

/** What a traced sweep did, in the engine's SweepTiming terms. */
struct TracedSweepCounts
{
    int builds = 0;
    int captures = 0;
    int directRuns = 0;
    int replays = 0;
    int resultHits = 0;
};

/** SweepEngine::run, traced: settles `jobs` into `out` on `pool`'s
 *  lanes, with the optional artifact store, and returns what it did. */
TracedSweepCounts tracedSweep(LanePool &pool,
                              const std::vector<d16sim::core::sweep::JobSpec>
                                  &jobs,
                              d16sim::core::store::ArtifactStore *artifacts,
                              d16sim::core::sweep::ResultStore &out);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
