/**
 * @file
 * d16timing — static pipeline-timing analyzer, cross-validated against
 * the simulator.
 *
 * Compiles workloads for the selected targets, recovers the CFG from
 * each *linked binary*, and runs the abstract-interpretation timing
 * pass (analysis/timing.hh): per-site hazard classification (load-use
 * interlocks, math-unit busy stalls, branch bubbles, fetch-buffer
 * refills), per-block static cycle costs, and loop-aware whole-program
 * best/worst base-cycle bounds. Reports the stall hotspots — the
 * blocks with the highest static stall density — for the D16 and DLXe
 * encodings side by side, plus the scheduler feedback (load-use
 * interlocks the final image retains that an in-block move could have
 * hidden). With --cross-validate every image is also simulated with a
 * per-PC stall probe and the dynamic stalls are checked, exactly,
 * against the static classification.
 *
 *   d16timing                         analyze every workload, both targets
 *   d16timing towers queens           specific workloads
 *   d16timing --isa d16 --opt 0       one target, unoptimized code
 *   d16timing --smoke                 the sweep's smoke matrix (all five
 *                                     paper variants)
 *   d16timing --cross-validate        also simulate + check static vs dynamic
 *   d16timing --notes                 per-site tim-* hazard notes
 *   d16timing --top N                 hotspot rows per unit (default 3)
 *   d16timing --bus N                 fetch-buffer width in bytes (default 4)
 *   d16timing --uarch SPEC            non-default microarchitecture
 *                                     ("fwd=on,bp=bimodal6,depth=7");
 *                                     the analysis and the
 *                                     cross-validated machine both
 *                                     follow it
 *   d16timing --json                  summaries + diagnostics as JSON
 *   d16timing --jobs N                analysis worker threads
 *
 * Exit status: 0 = clean, 1 = findings reported, 2 = bad usage or
 * build failure.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/timing.hh"
#include "check_driver.hh"
#include "core/toolchain.hh"
#include "support/table.hh"

namespace
{

using namespace d16sim;

struct Args
{
    tools::UnitArgs units;
    bool json = false;
    bool crossValidate = false;
    bool notes = false;
    int top = 3;
    int bus = 4;
    sim::UarchConfig uarch;
    int jobs = hardwareThreads();
};

/** One timing unit and everything it produced. */
struct Unit : tools::CheckUnit
{
    std::unique_ptr<assem::Image> image;
    std::unique_ptr<analysis::ImageCfg> cfg;  //!< timing points into this
    analysis::TimingResult timing;
    mc::SchedFeedback feedback;
    int findings = 0;
    bool validated = false;
};

void
analyzeUnit(Unit &u, const Args &args)
{
    u.image = std::make_unique<assem::Image>(
        core::link(u.workload->source, u.opts));
    u.cfg = std::make_unique<analysis::ImageCfg>(
        analysis::buildCfg(*u.image));
    analysis::TimingOptions topts;
    topts.busBytes = static_cast<uint32_t>(args.bus);
    topts.siteDiags = args.notes;
    topts.uarch = args.uarch;
    u.timing = analysis::analyzeTiming(*u.cfg, u.diags, topts);
    u.feedback = analysis::schedFeedback(u.timing, u.diags);
    if (args.crossValidate) {
        analysis::StallProbe probe;
        sim::MachineConfig mcfg;
        mcfg.uarch = args.uarch;
        const core::RunMeasurement m = core::run(*u.image, {&probe}, mcfg);
        u.findings += analysis::crossValidateTiming(u.timing, probe,
                                                    m.stats, u.diags);
        u.validated = true;
    }
}

/** Block ids of `u`'s top stall hotspots, densest first. */
std::vector<int>
hotspots(const Unit &u, int top)
{
    std::vector<int> ids;
    for (const analysis::Block &b : u.cfg->blocks)
        if (b.func >= 0 && u.timing.blocks[b.id].stallHi > 0)
            ids.push_back(b.id);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        const auto &ta = u.timing.blocks[a];
        const auto &tb = u.timing.blocks[b];
        // Density descending; ties by total stalls, then block order.
        const uint64_t da = uint64_t{ta.stallHi} * tb.size;
        const uint64_t db = uint64_t{tb.stallHi} * ta.size;
        if (da != db)
            return da > db;
        if (ta.stallHi != tb.stallHi)
            return ta.stallHi > tb.stallHi;
        return a < b;
    });
    if (static_cast<int>(ids.size()) > top)
        ids.resize(top);
    return ids;
}

/** The D16-vs-DLXe side-by-side hotspot table for one workload. */
void
printHotspots(const std::vector<const Unit *> &group, int top,
              std::ostream &os)
{
    Table table({"variant", "block", "insns", "stall lo", "stall hi",
                 "bubbles", "stalls/insn"});
    table.setTitle(group.front()->workload->name + ": stall hotspots");
    for (const Unit *u : group) {
        for (int id : hotspots(*u, top)) {
            const analysis::BlockTiming &bt = u->timing.blocks[id];
            char density[32];
            std::snprintf(density, sizeof density, "%.2f",
                          bt.stallDensity());
            table.addRow({core::sweep::variantKey(u->opts),
                          u->timing.blockLabel(id),
                          std::to_string(bt.size),
                          std::to_string(bt.stallLo),
                          std::to_string(bt.stallHi),
                          std::to_string(bt.bubbles), density});
        }
    }
    if (table.rowCount())
        table.print(os);
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["unit"] = u.name;
    j["summary"] = u.timing.json();
    Json fb = Json::object();
    fb["residualLoadUse"] = Json(int64_t{u.feedback.loadUseSites});
    fb["avoidableLoadUse"] = Json(int64_t{u.feedback.avoidableSites});
    j["schedFeedback"] = fb;
    Json hot = Json::array();
    for (int id : hotspots(u, 3)) {
        const analysis::BlockTiming &bt = u.timing.blocks[id];
        Json h = Json::object();
        h["block"] = u.timing.blockLabel(id);
        h["insns"] = Json(int64_t{bt.size});
        h["stallLo"] = Json(int64_t{bt.stallLo});
        h["stallHi"] = Json(int64_t{bt.stallHi});
        h["bubbles"] = Json(int64_t{bt.bubbles});
        hot.push(h);
    }
    j["hotspots"] = hot;
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
        "d16timing",
        "[--isa d16|dlxe|both] [--opt 0|1|2] [--smoke]\n"
        "       [--cross-validate] [--notes] [--top N] [--bus N]\n"
        "       [--uarch SPEC] [--json] [--jobs N] [--list]\n"
        "       [workload...]");
    tools::addIsaFlags(parser, args.units);
    tools::addWorkloadFlags(parser, args.units);
    parser.flag("--smoke", &args.units.smoke);
    parser.flag("--json", &args.json);
    parser.flag("--cross-validate", &args.crossValidate);
    parser.flag("--notes", &args.notes);
    parser.intValue("--top", &args.top);
    parser.intValue("--bus", &args.bus);
    parser.value("--uarch", [&](const std::string &v) {
        try {
            args.uarch = core::sweep::parseUarch(v);
        } catch (const Error &e) {
            std::fprintf(stderr, "d16timing: %s\n", e.what());
            return false;
        }
        return true;
    });
    parser.intValue("--jobs", &args.jobs);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }
    args.top = std::max(1, args.top);
    if (args.bus < 4 || (args.bus & (args.bus - 1)) != 0) {
        std::fprintf(stderr,
                     "d16timing: --bus must be a power of two >= 4\n");
        return 2;
    }

    std::vector<Unit> units;
    if (!tools::unitMatrix("d16timing", args.units.workloads,
                           args.units.variants(), units))
        return 2;

    // Analyze in parallel; report in deterministic unit order below.
    const bool built = tools::checkUnits(
        "d16timing", units, args.jobs,
        [&](Unit &u) { analyzeUnit(u, args); });

    if (args.json) {
        Json doc = Json::array();
        for (const Unit &u : units)
            if (u.built)
                doc.push(unitJson(u));
        std::cout << doc.dump(2) << "\n";
    } else {
        // Per-unit summaries, then the per-workload side-by-side
        // hotspot tables (the units of one workload are adjacent by
        // construction in both matrix orders).
        for (const Unit &u : units) {
            if (!u.built)
                continue;
            std::printf("%s:%s\n", u.name.c_str(),
                        u.validated ? " (cross-validated)" : "");
            std::ostringstream os;
            u.timing.renderText(os);
            os << "  scheduler feedback: " << u.feedback.loadUseSites
               << " residual load-use interlock(s), "
               << u.feedback.avoidableSites << " avoidable\n";
            std::fputs(os.str().c_str(), stdout);
            u.diags.renderText(std::cout);
        }
        std::vector<const Unit *> group;
        for (const Unit &u : units) {
            if (u.built && !group.empty() &&
                group.back()->workload != u.workload) {
                printHotspots(group, args.top, std::cout);
                group.clear();
            }
            if (u.built)
                group.push_back(&u);
        }
        if (!group.empty())
            printHotspots(group, args.top, std::cout);
    }
    int findings = 0;
    for (const Unit &u : units)
        findings += u.findings;
    const tools::Tally tally(units);
    tally.print("d16timing", units.size(),
                args.crossValidate ? " (cross-validated)" : "");

    if (!built)
        return 2;
    return findings + tally.failures() > 0 ? 1 : 0;
}
