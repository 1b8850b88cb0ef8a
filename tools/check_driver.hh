/**
 * @file
 * The driver the static-check tools share (d16lint, d16cfa, d16timing,
 * d16tv).
 *
 * Each tool checks a matrix of *units*, one workload compiled for one
 * machine variant at one optimization level, and differs only in what
 * it does with a unit. Everything else lives here once: the workload
 * and --isa/--opt flags, the unit matrix, the parallel loop with its
 * per-unit build-failure report, and the diagnostics tally.
 *
 * Units are named "<workload>/<sweep::variantKey(opts)>", the same
 * variant spelling the sweep keys and goldens use ("queens/DLXe/32/3",
 * "towers/D16/O0").
 */

#ifndef D16SIM_TOOLS_CHECK_DRIVER_HH
#define D16SIM_TOOLS_CHECK_DRIVER_HH

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "support/cli.hh"
#include "support/error.hh"
#include "support/parallel.hh"
#include "verify/diag.hh"

namespace d16sim::tools
{

/** One (workload, variant, opt level) unit. Tools derive their
 *  per-unit results from it. */
struct CheckUnit
{
    const core::Workload *workload = nullptr;
    mc::CompileOptions opts;
    std::string name;          //!< "<workload>/<variantKey(opts)>"
    verify::DiagEngine diags;  //!< reports are tagged with `name`
    bool built = false;        //!< the tool's check ran to completion
};

/** The unit-selection flags the check tools share. */
struct UnitArgs
{
    std::vector<std::string> workloads;  //!< positional; empty = all
    bool d16 = true;                     //!< --isa
    bool dlxe = true;
    int optLevel = 2;  //!< --opt
    bool smoke = false;

    /** The variants these flags select: the five paper variants with
     *  --smoke (the base slice of sweep::smokeMatrix(), all at O2),
     *  else D16 and DLXe; those of the --isa machines, at --opt. */
    std::vector<mc::CompileOptions>
    variants() const
    {
        std::vector<mc::CompileOptions> base;
        if (smoke) {
            for (auto &[label, opts] : core::sweep::paperVariants())
                base.push_back(std::move(opts));
        } else {
            base = {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()};
        }
        std::vector<mc::CompileOptions> out;
        for (mc::CompileOptions &opts : base) {
            if (opts.isa == isa::IsaKind::D16 ? !d16 : !dlxe)
                continue;
            opts.optLevel = optLevel;
            out.push_back(std::move(opts));
        }
        return out;
    }
};

/** Register --list and the workload positionals. */
inline void
addWorkloadFlags(cli::Cli &cli, UnitArgs &args)
{
    cli.flag("--list", [] {
        for (const core::Workload &w : core::workloadSuite())
            std::printf("%s\n", w.name.c_str());
        std::exit(0);
    });
    cli.positionals(&args.workloads);
}

/** Register --isa d16|dlxe|both and --opt N. */
inline void
addIsaFlags(cli::Cli &cli, UnitArgs &args)
{
    cli.value("--isa", [&args](const std::string &v) {
        args.d16 = v == "d16" || v == "both";
        args.dlxe = v == "dlxe" || v == "both";
        return args.d16 || args.dlxe;
    });
    cli.intValue("--opt", &args.optLevel);
}

/**
 * The unit matrix: the named workloads (all when none are named) in
 * suite order, each under every variant in order. Returns false after
 * printing "<tool>: <error>" when a workload name is unknown.
 */
template <typename Unit>
bool
unitMatrix(const char *tool, const std::vector<std::string> &workloads,
           const std::vector<mc::CompileOptions> &variants,
           std::vector<Unit> &units)
{
    try {
        for (const std::string &name : workloads)
            core::workload(name);  // FatalError if unknown
    } catch (const Error &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return false;
    }
    for (const core::Workload &w : core::workloadSuite()) {
        if (!workloads.empty() &&
            std::find(workloads.begin(), workloads.end(), w.name) ==
                workloads.end())
            continue;
        for (const mc::CompileOptions &opts : variants) {
            Unit &u = units.emplace_back();
            u.workload = &w;
            u.opts = opts;
            u.name = w.name + "/" + core::sweep::variantKey(opts);
            u.diags.setUnit(u.name);
        }
    }
    return true;
}

/**
 * Run check(unit) for every unit on `jobs` threads. A unit whose check
 * throws an Error is reported on stderr as "<tool>: <unit>: build
 * failed: <what>" and stays unbuilt; the others still run. Returns
 * false when any unit failed.
 */
template <typename Unit, typename Check>
bool
checkUnits(const char *tool, std::vector<Unit> &units, int jobs,
           Check check)
{
    std::atomic<bool> ok{true};
    parallelFor(units.size(), jobs, [&](size_t i) {
        Unit &u = units[i];
        try {
            check(u);
            u.built = true;
        } catch (const Error &e) {
            std::fprintf(stderr, "%s: %s: build failed: %s\n", tool,
                         u.name.c_str(), e.what());
            ok = false;
        }
    });
    return ok;
}

/** Diagnostic counts summed over every unit. */
struct Tally
{
    int errors = 0;
    int warnings = 0;
    int notes = 0;

    template <typename Unit>
    explicit Tally(const std::vector<Unit> &units)
    {
        for (const Unit &u : units) {
            errors += u.diags.errors();
            warnings += u.diags.warnings();
            notes += u.diags.notes();
        }
    }

    /** Errors + warnings: what the tools fail on. */
    int failures() const { return errors + warnings; }

    /** "<tool>: N units, E errors, W warnings, N notes<suffix>" on
     *  stderr. */
    void
    print(const char *tool, size_t units, const char *suffix = "") const
    {
        std::fprintf(stderr,
                     "%s: %zu units, %d errors, %d warnings, %d notes%s\n",
                     tool, units, errors, warnings, notes, suffix);
    }
};

} // namespace d16sim::tools

#endif // D16SIM_TOOLS_CHECK_DRIVER_HH
