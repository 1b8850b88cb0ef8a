/**
 * @file
 * Figure 5 + Table 7: DLXe path-length reduction relative to D16.
 *
 * Path length = total executed instructions. The paper's finding: the
 * DLXe speedup is far smaller than density predicts (Table 7 averages
 * 0.95/0.94/0.90/0.87 vs D16 = 1.00, i.e. ~15% at best).
 */

#include "common.hh"

using namespace d16bench;

int
main()
{
    header("Figure 5 / Table 7: path length",
           "Bunda et al. 1993, Fig. 5 and Table 7");

    const auto variants = sweep::paperVariants();
    std::vector<JobSpec> plan;
    for (const Workload &w : workloadSuite())
        for (const auto &[name, opts] : variants)
            plan.push_back(JobSpec::base(w.name, opts));
    prefetch(std::move(plan));

    Table t({"Program", "D16/16/2", "DLXe/16/2", "DLXe/16/3",
             "DLXe/32/2", "DLXe/32/3", "ratio DLXe/D16"});
    std::vector<double> ratioSum(variants.size(), 0.0);
    int n = 0;

    for (const Workload &w : workloadSuite()) {
        std::vector<uint64_t> paths;
        for (const auto &[name, opts] : variants)
            paths.push_back(measure(w.name, opts).run.stats.instructions);
        for (size_t v = 0; v < variants.size(); ++v)
            ratioSum[v] += static_cast<double>(paths[v]) / paths[0];
        ++n;
        t.addRow({w.name, std::to_string(paths[0]),
                  std::to_string(paths[1]), std::to_string(paths[2]),
                  std::to_string(paths[3]), std::to_string(paths[4]),
                  ratio(paths[4], paths[0])});
    }
    t.addRow({"(path length avg)", "1.00", fixed(ratioSum[1] / n, 2),
              fixed(ratioSum[2] / n, 2), fixed(ratioSum[3] / n, 2),
              fixed(ratioSum[4] / n, 2), ""});
    t.print(std::cout);

    std::cout << "\nPaper Table 7 averages: D16=1.00, DLXe/16/2=0.95, "
                 "DLXe/16/3=0.94, DLXe/32/2=0.90, DLXe/32/3=0.87\n";
    return 0;
}
