/**
 * @file
 * Whole-program binary analysis orchestrator.
 *
 * analyzeImage() runs every static pass over one linked image — CFG
 * recovery, dominators/natural loops, unreachable-code and
 * dead-function detection, interprocedural register dataflow, static
 * stack bounds — and folds the results into one AnalysisResult with a
 * canonical JSON rendering (the golden-file format of
 * tests/analysis_test.cc). Findings go through the same DiagEngine as
 * the IR verifier and the machine-code linter, with stable `cfa-*`
 * codes:
 *
 *   cfa-use-before-def          Error    dataflow (no def on any path)
 *   cfa-density-mismatch        Error    static size identities broken
 *   cfa-clobbered-across-call   Warning  caller-saved value outlives call
 *   cfa-unreachable-block       Warning  code no function can reach
 *   cfa-indirect-jump           Warning  unresolvable register jump
 *   cfa-dead-function           Note     linked but never called
 *   cfa-recursive-cycle         Note     call-graph cycle (bound unbounded)
 *
 * The Error/Warning set is empty for every image the toolchain emits;
 * core::build enforces that through analyzeImageOrThrow() whenever
 * verification is on, exactly like the machine-code linter.
 */

#ifndef D16SIM_ANALYSIS_ANALYSIS_HH
#define D16SIM_ANALYSIS_ANALYSIS_HH

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "support/json.hh"
#include "verify/diag.hh"

namespace d16sim::analysis
{

/** Static per-function report (instruction mix rolls up globally). */
struct FunctionSummary
{
    std::string name;
    uint32_t entryAddr = 0;
    int blocks = 0;
    int insns = 0;
    int loops = 0;          //!< natural-loop headers
    int frameBytes = 0;
    int64_t stackDepth = 0; //!< worst-case incl. callees; -1 unbounded
    bool reachable = false;
};

/** Number of isa::OpClass values (operation.hh has no Count member). */
constexpr int numOpClasses = 11;

/** Stable lower-case tag for an OpClass index, for reports/JSON. */
std::string_view opClassTag(int cls);

struct AnalysisResult
{
    // Graph shape.
    int insnCount = 0;
    int blockCount = 0;
    int edgeCount = 0;
    int funcCount = 0;
    int callEdgeCount = 0;
    int loopCount = 0;
    int unreachableBlocks = 0;
    int deadFuncs = 0;

    // Static code density (the paper's §3.1 measures, recomputed from
    // the decoded instruction stream and checked against the image).
    uint32_t insnBytes = 0;   //!< decoded sites * insn width
    uint32_t poolBytes = 0;   //!< text bytes that are not instructions
    uint32_t dataBytes = 0;
    uint32_t bssBytes = 0;
    uint32_t staticBytes = 0; //!< == Image::sizeBytes()

    // Stack bounds.
    int64_t maxStackBytes = 0; //!< from entry; -1 = unbounded (recursion)
    bool recursive = false;

    /** Static instruction mix, indexed by isa::OpClass. */
    std::array<int, numOpClasses> opClassCounts{};

    std::vector<FunctionSummary> functions; //!< ascending entry address

    /** Error- + Warning-severity findings this analysis reported. */
    int findings = 0;

    /** The recovered graph, retained for DOT export and dynamic
     *  cross-validation. Valid as long as the analyzed image lives. */
    ImageCfg cfg;

    /** The summary as Json (the golden-file format). */
    Json json() const;

    /** Human-readable multi-line summary (d16cfa's default output). */
    void renderText(std::ostream &os) const;
};

/** Run every pass; append findings to `diags`. `abi` selects the
 *  calling convention for the dataflow (use Abi::from for restricted
 *  DLXe variants — their callee-saved boundary differs). */
AnalysisResult analyzeImage(const assem::Image &img,
                            verify::DiagEngine &diags, const Abi &abi);

/** Convenience: the target's default conventions. */
AnalysisResult analyzeImage(const assem::Image &img,
                            verify::DiagEngine &diags);

/** Analyze and throw PanicError listing the findings when any Error or
 *  Warning is produced (core::build's post-link gate). */
void analyzeImageOrThrow(const assem::Image &img,
                         const mc::CompileOptions &opts,
                         const std::string &unit = "");

} // namespace d16sim::analysis

#endif // D16SIM_ANALYSIS_ANALYSIS_HH
