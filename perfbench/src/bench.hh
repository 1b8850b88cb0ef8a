/**
 * @file
 * The benchmark's workloads: what each one sets up, the work a timed
 * round does, and how its output is checked. See perfbench/README.md
 * for why each workload exists and which layer it targets.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep/sweep.hh"
#include "support/json.hh"
#include "tracer.hh"

namespace perfbench
{

using d16sim::Json;

/** Everything a workload learns from the command line. */
struct Context
{
    uint64_t seed = 1;
    std::string root;    //!< checkout root (golden files live under it)
    std::string outDir;  //!< scratch directory for stores and traces
    /** Output-check self test: "row" alters one result row, "digest"
     *  one reference digest; either must make every check fail. */
    std::string tamper;
    std::string referenceDigest;  //!< expected canonical-output SHA-256
};

/** Engine bookkeeping of one sweep, untraced or traced. */
struct SweepCounts
{
    int builds = 0;
    int captures = 0;
    int simulations = 0;  //!< direct runs + captured base runs
    int replays = 0;
    int resultHits = 0;
};

/** What one round produced, for the output check. */
struct Output
{
    /** Canonical documents; docs[0] is the one whose digest is pinned
     *  in reference.json. */
    std::vector<Json> docs;
    std::vector<std::string> texts;  //!< docs[i].dump()
    std::vector<SweepCounts> sweeps;
    std::vector<std::string> errors;  //!< exceptions raised by the work
    /** Untraced engine timing, summed over the round's sweeps. */
    d16sim::core::sweep::SweepTiming timing;
    int engineThreads = 0;
    double jsonSeconds = 0;
    int gcRemoved = -1;  //!< store-reuse: rows evicted this round
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Worker threads of a round (engine workers / traced lanes). */
    virtual int threads() const = 0;
    /** Set-up repetitions; set-up time is their median. The host runs
     *  a fresh process slowly for its first few hundred milliseconds,
     *  so short set-ups repeat enough times to put the median past
     *  that. */
    virtual int setupRepeats() const { return 31; }
    /** One set-up from scratch (repeatable: a later call replaces what
     *  an earlier one made). */
    virtual void setup() = 0;
    /** Failures of the last set-up; they fail every round. */
    virtual std::vector<std::string> checkSetup() = 0;

    /** One timed round through the public entry points users call
     *  (SweepEngine::run, core::build). */
    virtual Output round(int index) = 0;
    /** The same round through the traced path (traced.hh), on `pool`. */
    virtual Output tracedRound(int index, LanePool &pool) = 0;

    /** Failures of `out` against golden rows, reference digest and the
     *  workload's own invariants; empty means correct. */
    virtual std::vector<std::string> check(Output &out) = 0;

    /** Distinct (workload, variant) images in one round's job list. */
    virtual int distinctImages() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Context &ctx);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Deterministic Fisher-Yates permutation driven by splitmix64. */
template <typename T>
void
permute(std::vector<T> &items, uint64_t seed)
{
    uint64_t state = seed;
    auto next = [&state] {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[next() % i]);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
