/**
 * @file
 * d16tv — per-pass translation validation over the workload matrix.
 *
 * Compiles every selected (workload, variant, optLevel) unit with the
 * collecting validator attached (verify/tv): each pass of each compile
 * is statically proven equivalent to its input, and any divergence is
 * reported as a tv-* diagnostic naming the pass, function, and block.
 * The summary aggregates per-pass check counts, failures, and wall
 * time, so the cost of validating each transformation is visible.
 *
 *   d16tv                        validate all workloads, all five paper
 *                                variants, -O0/-O1/-O2
 *   d16tv towers queens          specific workloads
 *   d16tv --variants D16,DLXe/32/3   restrict machine variants
 *   d16tv --opt 2                one optimization level (default: all)
 *   d16tv --pass licm            only passes whose name contains "licm"
 *   d16tv --json                 per-unit results as JSON
 *   d16tv --jobs N               validation worker threads
 *
 * Exit status: 0 = every pass validated, 1 = findings reported,
 * 2 = bad usage or build failure.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check_driver.hh"
#include "support/table.hh"
#include "verify/tv/tv.hh"

namespace
{

using namespace d16sim;

struct Args
{
    tools::UnitArgs units;
    std::vector<std::string> variants;   //!< empty = all five
    int optLevel = -1;                   //!< -1 = 0, 1, and 2
    std::string pass;                    //!< substring filter; empty = all
    bool json = false;
    int jobs = hardwareThreads();

    /** The paper variants --variants names, each at every --opt level. */
    std::vector<mc::CompileOptions>
    unitVariants() const
    {
        std::vector<mc::CompileOptions> out;
        for (const auto &[label, base] : core::sweep::paperVariants()) {
            if (!variants.empty() &&
                std::find(variants.begin(), variants.end(), base.name()) ==
                    variants.end())
                continue;
            for (int opt = 0; opt <= 2; ++opt) {
                if (optLevel >= 0 && opt != optLevel)
                    continue;
                mc::CompileOptions opts = base;
                opts.optLevel = opt;
                out.push_back(std::move(opts));
            }
        }
        return out;
    }
};

/** One validation unit and its validator's per-pass statistics. */
struct Unit : tools::CheckUnit
{
    std::shared_ptr<verify::tv::CollectingValidator> validator;
};

void
validateUnit(Unit &u, const Args &args)
{
    u.validator = std::make_shared<verify::tv::CollectingValidator>(
        u.diags, args.pass);
    mc::CompileOptions opts = u.opts;
    opts.validateEach = true;
    opts.validator = u.validator;
    mc::compile(u.workload->source, opts);
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["unit"] = u.name;
    Json passes = Json::object();
    for (const auto &[pass, s] : u.validator->stats()) {
        Json p = Json::object();
        p["checks"] = Json(s.checks);
        p["failures"] = Json(s.failures);
        p["micros"] = Json(s.micros);
        passes[pass] = p;
    }
    j["passes"] = passes;
    j["diags"] = u.diags.json();
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli parser("d16tv",
                    "[--variants V1,V2,...] [--opt 0|1|2] [--pass NAME]\n"
                    "       [--json] [--jobs N] [--list] [workload...]");
    parser.value("--variants", [&](const std::string &v) {
        args.variants = cli::csvList(v);
        return !args.variants.empty();
    });
    parser.intValue("--opt", &args.optLevel);
    parser.value("--pass", [&](const std::string &v) {
        args.pass = v;
        return true;
    });
    parser.flag("--json", &args.json);
    parser.intValue("--jobs", &args.jobs);
    tools::addWorkloadFlags(parser, args.units);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }
    if (args.optLevel < -1 || args.optLevel > 2) {
        std::fprintf(stderr, "d16tv: --opt must be 0, 1, or 2\n");
        return 2;
    }

    std::vector<Unit> units;
    if (!tools::unitMatrix("d16tv", args.units.workloads, args.unitVariants(),
                           units))
        return 2;

    // Validate in parallel; report in deterministic unit order below.
    const bool built = tools::checkUnits(
        "d16tv", units, args.jobs, [&](Unit &u) { validateUnit(u, args); });

    // Aggregate per-pass statistics across all units.
    std::map<std::string, verify::tv::PassStats> total;
    int64_t checks = 0, failures = 0;
    for (const Unit &u : units) {
        if (!u.built)
            continue;
        for (const auto &[pass, s] : u.validator->stats()) {
            verify::tv::PassStats &t = total[pass];
            t.checks += s.checks;
            t.failures += s.failures;
            t.micros += s.micros;
            checks += s.checks;
            failures += s.failures;
        }
    }

    if (args.json) {
        Json doc = Json::array();
        for (const Unit &u : units)
            if (u.built)
                doc.push(unitJson(u));
        std::cout << doc.dump(2) << "\n";
    } else {
        for (const Unit &u : units) {
            if (!u.built || u.diags.empty())
                continue;
            u.diags.renderText(std::cout);
        }
        Table table({"pass", "checks", "failures", "ms"});
        table.setTitle("translation validation");
        for (const auto &[pass, s] : total) {
            char ms[32];
            std::snprintf(ms, sizeof ms, "%.1f",
                          static_cast<double>(s.micros) / 1000.0);
            table.addRow({pass, std::to_string(s.checks),
                          std::to_string(s.failures), ms});
        }
        if (table.rowCount())
            table.print(std::cout);
    }
    std::fprintf(stderr,
                 "d16tv: %zu units, %lld checks, %lld failures\n",
                 units.size(), static_cast<long long>(checks),
                 static_cast<long long>(failures));

    if (!built)
        return 2;
    return failures ? 1 : 0;
}
