/**
 * @file
 * Microarchitectural sweep (DESIGN.md §16): D16 vs. DLXe under data
 * forwarding, branch-prediction, and pipeline-depth variants.
 *
 * The paper's machine is a fixed five-stage interlocked pipeline; this
 * table asks how its 16-vs-32-bit conclusion moves when the pipeline
 * itself is a variable. For each microarchitecture the drivers report
 * suite-aggregate CPI per encoding, the D16/DLXe cycle ratio (the
 * paper's performance headline), and the branch-policy counters that
 * explain the movement (mispredicts, branch stall cycles, forwarding
 * savings). Static density is encoding-only — it never moves with the
 * uarch — so the density column is the constant reminder that D16's
 * size advantage survives every pipeline.
 */

#include "common.hh"

using namespace d16bench;

namespace
{

/** The paper baseline, then the machines of sweep::uarchSmokeMatrix(). */
std::vector<std::string>
uarchConfigs()
{
    std::vector<std::string> configs = {""};
    for (std::string &cfg : sweep::uarchSmokeConfigs())
        configs.push_back(std::move(cfg));
    return configs;
}

struct Agg
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t size = 0;
    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;
    uint64_t branchStalls = 0;
    uint64_t fwdSaved = 0;

    double
    cpi() const
    {
        return instructions
                   ? static_cast<double>(cycles) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

Agg
aggregate(const CompileOptions &opts, const sim::UarchConfig &uarch)
{
    Agg a;
    for (const std::string &w : sweep::uarchSmokeWorkloads()) {
        JobSpec spec = JobSpec::base(w, opts);
        spec.uarch = uarch;
        const JobResult &r = measureJob(spec);
        a.instructions += r.run.stats.instructions;
        a.cycles += r.run.stats.baseCycles();
        a.size += r.run.sizeBytes;
        a.condBranches += r.run.stats.condBranches;
        a.mispredicts += r.run.stats.mispredicts;
        a.branchStalls += r.run.stats.branchStalls;
        a.fwdSaved += r.run.stats.fwdSavedStalls;
    }
    return a;
}

std::string
uarchLabel(const std::string &key)
{
    return key.empty() ? "baseline (paper)" : key;
}

} // namespace

int
main()
{
    header("Microarchitectural sweep: CPI and density per encoding",
           "DESIGN.md §16; extends Bunda et al. 1993 §4");

    const CompileOptions d16 = CompileOptions::d16();
    const CompileOptions dlxe = CompileOptions::dlxe();

    std::vector<JobSpec> plan;
    for (const std::string &cfg : uarchConfigs())
        for (const std::string &w : sweep::uarchSmokeWorkloads())
            for (const CompileOptions &opts : {d16, dlxe}) {
                JobSpec spec = JobSpec::base(w, opts);
                spec.uarch = sweep::parseUarch(cfg);
                plan.push_back(std::move(spec));
            }
    prefetch(std::move(plan));

    Table cpi({"uarch", "D16 CPI", "DLXe CPI", "CPI D16/DLXe",
               "cycles D16/DLXe", "size DLXe/D16"});
    std::string suiteLabel;
    for (const std::string &w : sweep::uarchSmokeWorkloads())
        suiteLabel += (suiteLabel.empty() ? "" : ", ") + w;
    cpi.setTitle("suite-aggregate CPI (" + suiteLabel + ")");
    Table branches({"uarch", "variant", "cond branches", "mispredicts",
                    "branch stalls", "fwd saved"});
    branches.setTitle("branch-policy counters per encoding");

    for (const std::string &cfg : uarchConfigs()) {
        const sim::UarchConfig uarch = sweep::parseUarch(cfg);
        const Agg a16 = aggregate(d16, uarch);
        const Agg a32 = aggregate(dlxe, uarch);
        cpi.addRow({uarchLabel(cfg), fixed(a16.cpi(), 3),
                    fixed(a32.cpi(), 3), ratio(a16.cpi(), a32.cpi()),
                    ratio(static_cast<double>(a16.cycles),
                          static_cast<double>(a32.cycles)),
                    ratio(static_cast<double>(a32.size),
                          static_cast<double>(a16.size))});
        for (const auto &[label, a] :
             {std::pair<std::string, const Agg &>{"D16", a16},
              std::pair<std::string, const Agg &>{sweep::variantKey(dlxe),
                                                  a32}}) {
            branches.addRow({uarchLabel(cfg), label,
                             std::to_string(a.condBranches),
                             std::to_string(a.mispredicts),
                             std::to_string(a.branchStalls),
                             std::to_string(a.fwdSaved)});
        }
    }
    cpi.print(std::cout);
    std::cout << "\n";
    branches.print(std::cout);

    std::cout << "\nReading: branch policies charge identical interlock "
                 "streams (additive accounting), so CPI movement is pure "
                 "branch/forwarding/depth effect; density never moves "
                 "with the pipeline.\n";
    return 0;
}
