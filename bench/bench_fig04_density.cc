/**
 * @file
 * Figure 4 + Table 6: D16 relative code density.
 *
 * Prints per-benchmark static sizes (bytes of stripped binary: text +
 * data, paper §3.1) for D16 and the four DLXe compiler variants, plus
 * the paper's headline: the DLXe/D16 size ratio per program and its
 * suite average (paper: ~1.5x; Table 6 averages 1.62/1.61/1.57/1.53
 * over the restricted variants).
 */

#include "common.hh"

#include "analysis/analysis.hh"
#include "verify/diag.hh"

using namespace d16bench;

namespace
{

/**
 * Cross-check the figure's inputs against the static binary analyzer:
 * rebuild each image, recover its CFG, and require the analyzer's
 * density accounting (decoded sites x width + pools + data) to equal
 * the measured sizeBytes *exactly*. A mismatch means the figure is
 * built on numbers the instruction stream does not support.
 */
int
staticCrossCheck(
    const std::vector<std::pair<std::string, CompileOptions>> &variants)
{
    int checked = 0;
    for (const Workload &w : workloadSuite()) {
        for (const auto &[name, opts] : variants) {
            const assem::Image img = core::build(w.source, opts);
            verify::DiagEngine diags;
            const analysis::AnalysisResult r = analysis::analyzeImage(
                img, diags, analysis::Abi::from(opts));
            const uint32_t measured = measure(w.name, opts).run.sizeBytes;
            if (r.staticBytes != measured || diags.failures()) {
                fatal("fig04 static cross-check failed for ", w.name, "/",
                      opts.name(), ": analyzer ", r.staticBytes,
                      " bytes vs measured ", measured, " (",
                      diags.failures(), " findings)");
            }
            ++checked;
        }
    }
    return checked;
}

} // namespace

int
main()
{
    header("Figure 4 / Table 6: code size and relative density",
           "Bunda et al. 1993, Fig. 4 and Table 6");

    const auto variants = sweep::paperVariants();
    std::vector<JobSpec> plan;
    for (const Workload &w : workloadSuite())
        for (const auto &[name, opts] : variants)
            plan.push_back(JobSpec::base(w.name, opts));
    prefetch(std::move(plan));

    Table t({"Program", "D16/16/2", "DLXe/16/2", "DLXe/16/3",
             "DLXe/32/2", "DLXe/32/3", "density DLXe/D16"});
    std::vector<double> ratioSum(variants.size(), 0.0);
    int n = 0;

    for (const Workload &w : workloadSuite()) {
        std::vector<uint32_t> sizes;
        for (const auto &[name, opts] : variants)
            sizes.push_back(measure(w.name, opts).run.sizeBytes);
        for (size_t v = 0; v < variants.size(); ++v)
            ratioSum[v] += static_cast<double>(sizes[v]) / sizes[0];
        ++n;
        t.addRow({w.name, std::to_string(sizes[0]),
                  std::to_string(sizes[1]), std::to_string(sizes[2]),
                  std::to_string(sizes[3]), std::to_string(sizes[4]),
                  ratio(sizes[4], sizes[0])});
    }
    t.addRow({"(relative density avg)", "1.00",
              fixed(ratioSum[1] / n, 2), fixed(ratioSum[2] / n, 2),
              fixed(ratioSum[3] / n, 2), fixed(ratioSum[4] / n, 2),
              ""});
    t.print(std::cout);

    std::cout << "\nPaper Table 6 averages: D16=1.00, DLXe/16/2=1.62, "
                 "DLXe/16/3=1.61, DLXe/32/2=1.57, DLXe/32/3=1.53\n";

    const int checked = staticCrossCheck(variants);
    std::cout << "Static density cross-check: " << checked
              << " images match the binary CFG analyzer exactly\n";
    return 0;
}
