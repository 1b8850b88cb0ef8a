/**
 * @file
 * Dynamic execution statistics (the paper's raw measures).
 *
 * `instructions` is the paper's *path length*; `loadInterlocks` +
 * `fpInterlocks` is the interlock count of Table 10; loads/stores feed
 * the data-traffic comparisons of Tables 3 and 9. Base cycles
 * (instructions + interlocks) combine with the memory models in
 * src/mem to produce the time-to-completion numbers of §4.
 */

#ifndef D16SIM_SIM_STATS_HH
#define D16SIM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <span>

#include "support/stat_field.hh"

namespace d16sim::sim
{

struct SimStats
{
    uint64_t instructions = 0;  //!< path length
    uint64_t loads = 0;         //!< incl. Ldc pool loads
    uint64_t stores = 0;
    uint64_t loadInterlocks = 0;  //!< delayed-load stall cycles
    uint64_t fpInterlocks = 0;    //!< math-unit stall cycles
    uint64_t branches = 0;        //!< branches + jumps executed
    uint64_t takenBranches = 0;
    uint64_t fpOps = 0;
    uint64_t traps = 0;

    /** Conditional branches executed (bz/bnz/jrz/jrnz) — the length
     *  of a captured trace's branch-outcome stream. */
    uint64_t condBranches = 0;

    /** Branch-policy stall cycles (sim/uarch.hh): mispredict
     *  penalties and taken-transfer fetch extras. Additive accounting
     *  only — never advances the issue scoreboard — so the interlock
     *  counters are branch-policy-invariant. Zero at the default
     *  microarchitecture. */
    uint64_t branchStalls = 0;

    /** Mispredicted conditional branches (zero under the delay-slot
     *  policy). */
    uint64_t mispredicts = 0;

    /** Stall cycles removed by the store-data forwarding path (zero
     *  with forwarding off). */
    uint64_t fwdSavedStalls = 0;

    /** Canonical nops executed in a branch/jump shadow (unfilled delay
     *  slots). Already included in `instructions`: a bubble is a wasted
     *  issue slot, not an extra stall — counted separately so static
     *  and dynamic cycle accounting share one taxonomy. */
    uint64_t branchBubbles = 0;

    /** Field-by-field equality (the block-engine differential gate). */
    bool operator==(const SimStats &) const = default;

    uint64_t interlocks() const { return loadInterlocks + fpInterlocks; }

    /** Cycles assuming a perfect memory system (no wait states). */
    uint64_t
    baseCycles() const
    {
        return instructions + interlocks() + branchStalls;
    }

    /** Total load/store operations (the paper's MemOps). */
    uint64_t memOps() const { return loads + stores; }

    double
    interlockRate() const
    {
        return instructions ? static_cast<double>(interlocks()) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * The SimStats wire schema, in D16T byte order: the trace, the store
 * row and the sweep row all derive from this one list. The paper's ten
 * base counters (kBaseStatFields) come first, then the
 * microarchitectural ones (kUarchStatFields, sim/uarch.hh), which the
 * sweep row emits only off the default machine.
 */
inline constexpr auto kStatFields =
    std::to_array<StatField<SimStats>>({
        {"instructions", &SimStats::instructions},
        {"loads", &SimStats::loads},
        {"stores", &SimStats::stores},
        {"loadInterlocks", &SimStats::loadInterlocks},
        {"fpInterlocks", &SimStats::fpInterlocks},
        {"branches", &SimStats::branches},
        {"takenBranches", &SimStats::takenBranches},
        {"fpOps", &SimStats::fpOps},
        {"traps", &SimStats::traps},
        {"branchBubbles", &SimStats::branchBubbles},
        {"condBranches", &SimStats::condBranches},
        {"branchStalls", &SimStats::branchStalls},
        {"mispredicts", &SimStats::mispredicts},
        {"fwdSavedStalls", &SimStats::fwdSavedStalls},
    });
static_assert(sizeof(SimStats) == kStatFields.size() * sizeof(uint64_t),
              "every SimStats counter needs a kStatFields line");

inline constexpr auto kBaseStatFields = std::span(kStatFields).first<10>();
inline constexpr auto kUarchStatFields =
    std::span(kStatFields).subspan<10>();

} // namespace d16sim::sim

#endif // D16SIM_SIM_STATS_HH
