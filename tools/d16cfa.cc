/**
 * @file
 * d16cfa — whole-program binary CFG analyzer.
 *
 * Compiles workloads for the selected targets, recovers the
 * control-flow and call graphs from the *linked binaries*, and runs
 * every static pass (dominators/loops, unreachable code, register
 * dataflow, stack bounds, code-density accounting) over them.
 * Optionally re-runs each image in the simulator and cross-validates
 * the static analysis against the dynamic execution profile, exactly.
 *
 *   d16cfa                          analyze every workload, both targets
 *   d16cfa towers queens            specific workloads
 *   d16cfa --isa d16 --opt 0        one target, unoptimized code
 *   d16cfa --smoke                  the sweep's smoke matrix (all five
 *                                   paper variants incl. restricted DLXe)
 *   d16cfa --cross-validate         also simulate + check static vs dynamic
 *   d16cfa --json                   diagnostics + summaries as JSON
 *   d16cfa --cfg out.dot towers     CFG DOT export (one workload/target)
 *   d16cfa --calls out.dot towers   call-graph DOT export
 *   d16cfa --jobs N                 analysis worker threads
 *
 * Exit status: 0 = clean, 1 = findings reported, 2 = bad usage or
 * build failure.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/dot.hh"
#include "analysis/xvalidate.hh"
#include "check_driver.hh"
#include "core/toolchain.hh"

namespace
{

using namespace d16sim;

struct Args
{
    tools::UnitArgs units;
    bool json = false;
    bool crossValidate = false;
    std::string cfgDot;    //!< write CFG DOT here ("-" = stdout)
    std::string callsDot;  //!< write call-graph DOT here
    int jobs = hardwareThreads();
};

/** One analysis unit and everything it produced. */
struct Unit : tools::CheckUnit
{
    analysis::AnalysisResult result;
    std::unique_ptr<assem::Image> image;  //!< result.cfg points into this
    bool validated = false;  //!< cross-validation ran
};

/** Build + analyze (+ optionally simulate and cross-validate) one
 *  unit. */
void
analyzeUnit(Unit &u, const Args &args)
{
    u.image = std::make_unique<assem::Image>(
        core::link(u.workload->source, u.opts));
    u.result = analysis::analyzeImage(*u.image, u.diags,
                                      analysis::Abi::from(u.opts));
    if (args.crossValidate) {
        // The instruction width arms dynamic-edge recording: the
        // observed block graph must be a subset of the static CFG.
        analysis::ExecProbe probe(u.opts.target().insnBytes());
        const core::RunMeasurement m = core::run(*u.image, {&probe});
        u.result.findings += analysis::crossValidate(u.result.cfg, probe,
                                                     m.stats, u.diags);
        u.validated = true;
    }
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["unit"] = u.name;
    j["summary"] = u.result.json();
    j["diags"] = u.diags.json();
    j["crossValidated"] = u.validated;
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli parser(
        "d16cfa",
        "[--isa d16|dlxe|both] [--opt 0|1|2] [--smoke]\n"
        "       [--cross-validate] [--json] [--cfg FILE|-] "
        "[--calls FILE|-]\n"
        "       [--jobs N] [--list] [workload...]");
    tools::addIsaFlags(parser, args.units);
    tools::addWorkloadFlags(parser, args.units);
    parser.flag("--smoke", &args.units.smoke);
    parser.flag("--json", &args.json);
    parser.flag("--cross-validate", &args.crossValidate);
    parser.stringValue("--cfg", &args.cfgDot);
    parser.stringValue("--calls", &args.callsDot);
    parser.intValue("--jobs", &args.jobs);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }

    std::vector<Unit> units;
    if (!tools::unitMatrix("d16cfa", args.units.workloads,
                           args.units.variants(), units))
        return 2;
    if ((!args.cfgDot.empty() || !args.callsDot.empty()) &&
        units.size() != 1) {
        std::fprintf(stderr,
                     "d16cfa: --cfg/--calls need exactly one unit "
                     "(got %zu): name one workload and one --isa\n",
                     units.size());
        return 2;
    }

    // Analyze in parallel; report in deterministic unit order below.
    const bool built = tools::checkUnits(
        "d16cfa", units, args.jobs,
        [&](Unit &u) { analyzeUnit(u, args); });

    // DOT export (single unit by construction).
    if (!args.cfgDot.empty() || !args.callsDot.empty()) {
        const Unit &u = units[0];
        if (!u.built)
            return 2;
        auto dump = [&](const std::string &path, auto writer) {
            if (path.empty())
                return true;
            if (path == "-") {
                writer(u.result.cfg, std::cout);
                return true;
            }
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr, "d16cfa: cannot write %s\n",
                             path.c_str());
                return false;
            }
            writer(u.result.cfg, out);
            return true;
        };
        if (!dump(args.cfgDot, analysis::writeCfgDot) ||
            !dump(args.callsDot, analysis::writeCallGraphDot))
            return 2;
    }

    if (args.json) {
        Json doc = Json::array();
        for (const Unit &u : units)
            if (u.built)
                doc.push(unitJson(u));
        std::cout << doc.dump(2) << "\n";
    } else {
        for (const Unit &u : units) {
            if (!u.built)
                continue;
            std::printf("%s:%s\n", u.name.c_str(),
                        u.validated ? " (cross-validated)" : "");
            std::ostringstream os;
            u.result.renderText(os);
            std::fputs(os.str().c_str(), stdout);
            u.diags.renderText(std::cout);
        }
    }
    const tools::Tally tally(units);
    tally.print("d16cfa", units.size(),
                args.crossValidate ? " (cross-validated)" : "");

    if (!built)
        return 2;
    return tally.failures() ? 1 : 0;
}
