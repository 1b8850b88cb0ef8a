/**
 * @file
 * d16lint — run the toolchain verification layer from the command line.
 *
 * Compiles workloads for the selected targets with the IR verifier
 * hooked into every pipeline stage, links them, and runs the
 * machine-code linter over the images, checking units in parallel.
 * Diagnostics go to stdout in unit order as text, or as a JSON array
 * (--json) for CI diffing.
 *
 *   d16lint                      lint every workload, both targets
 *   d16lint towers queens        lint specific workloads
 *   d16lint --isa d16 --opt 0    one target, unoptimized code
 *   d16lint --verify-each        verify after every optimization pass
 *   d16lint --cfg                also run the binary CFG analyzer
 *   d16lint --perf               include load-use interlock notes
 *
 * Exit status: 0 = clean, 1 = diagnostics reported, 2 = build failure.
 */

#include <iostream>
#include <vector>

#include "analysis/analysis.hh"
#include "check_driver.hh"
#include "core/toolchain.hh"
#include "verify/verify.hh"

namespace
{

using namespace d16sim;

struct Args
{
    tools::UnitArgs units;
    bool verifyEach = false;
    bool json = false;
    bool perf = false;
    bool cfg = false;
};

/** Compile + link one unit with the IR verifier reporting into the
 *  unit's diagnostics, then lint (and optionally CFG-analyze) the
 *  image. */
void
lintUnit(tools::CheckUnit &u, const Args &args)
{
    mc::CompileOptions opts = u.opts;
    opts.verifyEach = args.verifyEach;
    opts.verifyHook = [&u](const mc::IrFunction &fn, const char *stage,
                           const mc::MachineEnv *env) {
        verify::IrVerifyOptions vo;
        vo.env = env;
        vo.stage = stage;
        verify::verifyIr(fn, u.diags, vo);
    };
    const assem::Image img = core::link(u.workload->source, opts);
    verify::LintOptions lo;
    lo.perfNotes = args.perf;
    verify::lintImage(img, u.diags, lo);
    if (args.cfg)
        analysis::analyzeImage(img, u.diags, analysis::Abi::from(opts));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli parser("d16lint",
                    "[--isa d16|dlxe|both] [--opt 0|1|2] [--verify-each]\n"
                    "       [--cfg] [--perf] [--json] [--list] "
                    "[workload...]");
    tools::addIsaFlags(parser, args.units);
    tools::addWorkloadFlags(parser, args.units);
    parser.flag("--verify-each", &args.verifyEach);
    parser.flag("--json", &args.json);
    parser.flag("--perf", &args.perf);
    parser.flag("--cfg", &args.cfg);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }

    std::vector<tools::CheckUnit> units;
    if (!tools::unitMatrix("d16lint", args.units.workloads,
                           args.units.variants(), units))
        return 2;
    const bool built = tools::checkUnits(
        "d16lint", units, hardwareThreads(),
        [&](tools::CheckUnit &u) { lintUnit(u, args); });

    verify::DiagEngine all;
    for (const tools::CheckUnit &u : units)
        for (const verify::Diag &d : u.diags.diags())
            all.report(d);
    if (args.json)
        std::cout << all.json().dump(2) << "\n";
    else
        all.renderText(std::cout);

    const tools::Tally tally(units);
    if (!args.json)
        tally.print("d16lint", units.size());
    if (!built)
        return 2;
    return tally.failures() ? 1 : 0;
}
