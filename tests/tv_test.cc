/**
 * @file
 * Translation-validation engine tests.
 *
 * Positive: representative workloads validate cleanly per pass across
 * machine variants and opt levels through the CollectingValidator (the
 * full matrix is the d16tv CI gate; these keep the unit suite fast).
 *
 * Negative, mirroring the seeded-defect style of tests/analysis_test.cc:
 * each test captures a real (before, after) pair at one pass boundary of
 * a real compile, injects a single deliberate defect into the after
 * side, and demands the checker reject it with exactly one stable tv-*
 * diagnostic — including a re-introduction of each of the five PR-5
 * miscompiles as a pass defect, caught statically with no execution.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "mc/machine_env.hh"
#include "mc/regalloc.hh"
#include "verify/tv/tv.hh"
#include "verify/verify.hh"

namespace
{

using namespace d16sim;
using mc::CompileOptions;
using mc::IrFunction;
using mc::IrInst;
using mc::IrOp;
using verify::Diag;

// ---------------------------------------------------------------------
// Pass-boundary capture
// ---------------------------------------------------------------------

/** Records a deep copy of every pass boundary the compiler crosses so a
 *  test can replay one of them through the tv checkers after mutating
 *  the after side. */
class CaptureValidator final : public mc::PassValidator
{
  public:
    struct IrBoundary
    {
        std::string pass;
        IrFunction before, after;
        bool hadEnv = false;
    };
    struct RegallocBoundary
    {
        IrFunction before, after;
        mc::Allocation alloc;
    };
    struct SchedBoundary
    {
        std::vector<assem::AsmItem> before, after;
    };

    void
    afterIrPass(const IrFunction &before, const IrFunction &after,
                const char *pass, const mc::MachineEnv *env) override
    {
        irBoundaries.push_back({pass, before, after, env != nullptr});
    }

    void
    afterRegalloc(const IrFunction &before, const IrFunction &after,
                  const mc::Allocation &alloc,
                  const mc::MachineEnv &) override
    {
        regallocBoundaries.push_back({before, after, alloc});
    }

    void
    afterSchedule(const std::vector<assem::AsmItem> &before,
                  const std::vector<assem::AsmItem> &after,
                  const mc::MachineEnv &) override
    {
        schedBoundaries.push_back({before, after});
    }

    std::vector<IrBoundary> irBoundaries;
    std::vector<RegallocBoundary> regallocBoundaries;
    std::vector<SchedBoundary> schedBoundaries;
};

/** Compile `source` with every boundary captured. */
std::shared_ptr<CaptureValidator>
captureCompile(const std::string &source, CompileOptions opts)
{
    auto cap = std::make_shared<CaptureValidator>();
    opts.validateEach = true;
    opts.validator = cap;
    mc::compile(source, opts);
    return cap;
}

/** The first captured boundary of a pass, for the named function. */
const CaptureValidator::IrBoundary &
boundaryOf(const CaptureValidator &cap, const std::string &pass,
           const std::string &func)
{
    for (const auto &b : cap.irBoundaries)
        if (b.pass == pass && b.before.name == func)
            return b;
    throw std::runtime_error("no captured boundary for " + pass + "/" +
                             func);
}

/** Apply `fn` to every instruction until it reports a hit. */
template <typename Fn>
bool
mutateFirst(IrFunction &f, Fn &&fn)
{
    for (auto &bb : f.blocks)
        for (auto &inst : bb.insts)
            if (fn(inst))
                return true;
    return false;
}

/** Expect exactly one finding with the given stable code. */
void
expectDiag(const std::optional<Diag> &d, std::string_view code)
{
    ASSERT_TRUE(d.has_value()) << "defect not caught (wanted " << code
                               << ")";
    EXPECT_EQ(d->code, code) << d->message;
}

// ---------------------------------------------------------------------
// Positive: real compiles validate cleanly
// ---------------------------------------------------------------------

TEST(Tv, WorkloadsValidateClean)
{
    // A fast slice of the d16tv matrix: one integer and one FP
    // workload, both targets, every opt level.
    for (const char *name : {"towers", "matrix"}) {
        const core::Workload &w = core::workload(name);
        for (int opt = 0; opt <= 2; ++opt) {
            for (bool d16 : {true, false}) {
                verify::DiagEngine de;
                de.setUnit(w.name);
                auto collect =
                    std::make_shared<verify::tv::CollectingValidator>(
                        de);
                CompileOptions opts = d16 ? CompileOptions::d16()
                                          : CompileOptions::dlxe();
                opts.optLevel = opt;
                opts.validateEach = true;
                opts.validator = collect;
                mc::compile(w.source, opts);
                std::ostringstream os;
                de.renderText(os);
                EXPECT_EQ(de.failures(), 0)
                    << w.name << " opt " << opt << ":\n"
                    << os.str();
                int64_t checks = 0;
                for (const auto &[pass, s] : collect->stats())
                    checks += s.checks;
                EXPECT_GT(checks, 0) << w.name;
            }
        }
    }
}

TEST(Tv, PassFilterLimitsCheckedPasses)
{
    // d16tv --pass: only passes whose name contains the filter run.
    for (const char *filter : {"licm", "regalloc", "sched", "opt:"}) {
        verify::DiagEngine de;
        auto collect = std::make_shared<verify::tv::CollectingValidator>(
            de, filter);
        CompileOptions opts = CompileOptions::d16();
        opts.validateEach = true;
        opts.validator = collect;
        mc::compile(core::workload("towers").source, opts);
        ASSERT_FALSE(collect->stats().empty()) << filter;
        for (const auto &[pass, s] : collect->stats()) {
            EXPECT_NE(pass.find(filter), std::string::npos) << pass;
            EXPECT_GT(s.checks, 0) << pass;
        }
    }
}

TEST(Tv, ValidatorsAreInstallable)
{
    // The seam core::build uses: validateEach with no explicit
    // validator must still compile cleanly once the throwing validator
    // is installed.
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 2;
    opts.validateEach = true;
    opts.validator = verify::tv::makeThrowingValidator();
    EXPECT_NO_THROW(
        mc::compile(core::workload("queens").source, opts));
}

TEST(Tv, ValidationDoesNotPerturbSweepJson)
{
    // Acceptance gate at unit scale: a sweep's canonical JSON must be
    // byte-identical whether or not every compile is translation-
    // validated (validation observes pass boundaries; it must never
    // steer them).
    const auto runOnce = [](bool validate) {
        core::sweep::ResultStore store;
        core::sweep::SweepEngine engine(store, 2);
        for (const char *wl : {"queens", "pi"}) {
            for (mc::CompileOptions opts :
                 {CompileOptions::d16(), CompileOptions::dlxe()}) {
                opts.validateEach = validate;
                if (validate)
                    verify::installTranslationValidator(opts);
                engine.add(core::sweep::JobSpec::base(wl, opts));
            }
        }
        engine.run();
        return core::sweep::sweepJson(store, nullptr).dump(2);
    };
    EXPECT_EQ(runOnce(false), runOnce(true));
}

// ---------------------------------------------------------------------
// Seeded single-defect pass mutations (one per validated stage)
// ---------------------------------------------------------------------

TEST(Tv, SeededOptDefectCaught)
{
    // A miscompiled constant fold: the folded movi feeding print_int
    // is off by one.
    const std::string src = "int main() {\n"
                            "  int x; x = 10;\n"
                            "  print_int(x + 7);\n"
                            "  return 0;\n"
                            "}\n";
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 1;
    auto cap = captureCompile(src, opts);
    auto b = boundaryOf(*cap, "opt:fold", "main");
    ASSERT_TRUE(mutateFirst(b.after, [](IrInst &i) {
        if (i.op == IrOp::MovImm && i.imm == 17) {
            i.imm = 18;
            return true;
        }
        return false;
    }));
    expectDiag(verify::tv::checkIrPass(b.before, b.after, "opt:fold",
                                       nullptr),
               "tv-effect-mismatch");
}

TEST(Tv, SeededLegalizeDefectCaught)
{
    // Legalization that flips a fused compare-and-branch condition.
    const std::string src = "int main() {\n"
                            "  int a; a = 3;\n"
                            "  int b; b = 12;\n"
                            "  if (a < b) print_int(1);\n"
                            "  else print_int(2);\n"
                            "  return 0;\n"
                            "}\n";
    CompileOptions opts = CompileOptions::dlxe();
    opts.optLevel = 0;
    auto cap = captureCompile(src, opts);
    auto b = boundaryOf(*cap, "legalize", "main");
    mc::MachineEnv env(opts);
    ASSERT_TRUE(mutateFirst(b.after, [](IrInst &i) {
        if (i.op == IrOp::BrCmp) {
            i.cond = isa::Cond::Ge;
            return true;
        }
        return false;
    }));
    expectDiag(
        verify::tv::checkIrPass(b.before, b.after, "legalize", &env),
        "tv-term-mismatch");
}

TEST(Tv, SeededRegallocDefectCaught)
{
    // An allocator that ignores an ABI precoloring pin: the location
    // map claims an argument-carrying vreg lives in the wrong physical
    // register.
    const std::string src = "int helper(int a, int b) {\n"
                            "  int t; t = a * 3 + b;\n"
                            "  if (b > 4) t = t + a;\n"
                            "  return t - b;\n"
                            "}\n"
                            "int main() {\n"
                            "  print_int(helper(5, 9));\n"
                            "  return 0;\n"
                            "}\n";
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 0;
    auto cap = captureCompile(src, opts);
    mc::MachineEnv env(opts);
    bool checked = false;
    for (auto &rb : cap->regallocBoundaries) {
        if (rb.before.name != "helper")
            continue;
        int victim = -1;
        for (int v = 0;
             v < static_cast<int>(rb.after.precolor.size()); ++v) {
            if (rb.after.precolor[v] >= 0 &&
                rb.after.vregClass[v] == mc::RegClass::Int) {
                victim = v;
                break;
            }
        }
        ASSERT_GE(victim, 0);
        mc::Allocation broken = rb.alloc;
        for (int r : env.allocatable(mc::RegClass::Int)) {
            if (r != broken.color[victim]) {
                broken.color[victim] = r;
                break;
            }
        }
        expectDiag(verify::tv::checkRegalloc(rb.before, rb.after,
                                             broken, env),
                   "tv-regalloc-loc");
        checked = true;
    }
    EXPECT_TRUE(checked);
}

TEST(Tv, SeededSchedDefectCaught)
{
    // A scheduler that reorders across a read-after-write dependence.
    CompileOptions opts = CompileOptions::dlxe();
    opts.optLevel = 2;
    auto cap = captureCompile(core::workload("towers").source, opts);
    ASSERT_FALSE(cap->schedBoundaries.empty());
    mc::MachineEnv env(opts);
    bool swapped = false;
    for (auto &sb : cap->schedBoundaries) {
        auto &items = sb.after;
        for (size_t i = 0; i + 1 < items.size() && !swapped; ++i) {
            auto &x = items[i];
            auto &y = items[i + 1];
            if (x.kind != assem::ItemKind::Inst ||
                y.kind != assem::ItemKind::Inst)
                continue;
            if (isa::isControlFlow(x.inst.op) ||
                isa::isControlFlow(y.inst.op))
                continue;
            if (x.inst.rd >= 0 && (y.inst.rs1 == x.inst.rd ||
                                   y.inst.rs2 == x.inst.rd)) {
                std::swap(x, y);
                swapped = true;
            }
        }
        if (swapped) {
            auto d = verify::tv::checkSchedule(sb.before, sb.after, env);
            ASSERT_TRUE(d.has_value());
            EXPECT_TRUE(d->code == "tv-sched-reorder" ||
                        d->code == "tv-sched-stream")
                << d->code << ": " << d->message;
            break;
        }
    }
    EXPECT_TRUE(swapped);
}

TEST(Tv, SeededSchedDroppedInstCaught)
{
    // A scheduler that loses an instruction outright.
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 2;
    auto cap = captureCompile(core::workload("queens").source, opts);
    ASSERT_FALSE(cap->schedBoundaries.empty());
    mc::MachineEnv env(opts);
    auto &sb = cap->schedBoundaries.front();
    const auto sameInst = [](const isa::AsmInst &a,
                             const isa::AsmInst &b) {
        return a.op == b.op && a.cond == b.cond && a.rd == b.rd &&
               a.rs1 == b.rs1 && a.rs2 == b.rs2 && a.imm == b.imm &&
               a.label == b.label;
    };
    const auto countIn = [&](const std::vector<assem::AsmItem> &items,
                             const isa::AsmInst &x) {
        int n = 0;
        for (const auto &it : items)
            if (it.kind == assem::ItemKind::Inst &&
                sameInst(it.inst, x))
                ++n;
        return n;
    };
    // A deletable candidate: a uniquely-keyed plain instruction that
    // closes a straight-line run (the next item is a label, directive,
    // or branch), so every other instruction of the run pools ahead of
    // it and its absence is provable rather than ambiguous with a
    // reordering.
    bool erased = false;
    for (size_t i = 1;
         i + 1 < sb.before.size() && !erased; ++i) {
        const auto &it = sb.before[i];
        const auto &next = sb.before[i + 1];
        const auto &prev = sb.before[i - 1];
        if (it.kind != assem::ItemKind::Inst ||
            isa::isControlFlow(it.inst.op) ||
            it.inst.op == isa::Op::Trap)
            continue;
        if (prev.kind == assem::ItemKind::Inst &&
            isa::isControlFlow(prev.inst.op))
            continue;  // a delay slot, not a plain instruction
        const bool closesRun =
            next.kind != assem::ItemKind::Inst ||
            isa::isControlFlow(next.inst.op) ||
            next.inst.op == isa::Op::Trap;
        if (!closesRun || countIn(sb.before, it.inst) != 1 ||
            countIn(sb.after, it.inst) != 1)
            continue;
        for (size_t j = 0; j < sb.after.size(); ++j) {
            if (sb.after[j].kind == assem::ItemKind::Inst &&
                sameInst(sb.after[j].inst, it.inst)) {
                sb.after.erase(sb.after.begin() +
                               static_cast<ptrdiff_t>(j));
                erased = true;
                break;
            }
        }
    }
    ASSERT_TRUE(erased);
    expectDiag(verify::tv::checkSchedule(sb.before, sb.after, env),
               "tv-sched-stream");
}

// ---------------------------------------------------------------------
// The five PR-5 miscompiles, re-introduced as pass defects and caught
// statically (tests/corpus holds the dynamic reproducers)
// ---------------------------------------------------------------------

/** Read one corpus reproducer. */
std::string
corpusSource(const std::string &file);

std::string
corpusSource(const std::string &file)
{
    const std::string path = std::string(TV_CORPUS_DIR) + "/" + file;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("missing corpus file " + path);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

TEST(Tv, Pr5NegFoldIntMinCaught)
{
    // The INT32_MIN negation fold, re-done without wrapping: -x with
    // x = INT32_MIN folds to +2^31-1 instead of wrapping back.
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 1;
    auto cap =
        captureCompile(corpusSource("neg_fold_int_min.c"), opts);
    auto b = boundaryOf(*cap, "opt:fold", "main");
    // Find a print_int argument, chase copies back to its defining
    // movi INT32_MIN (the folded -x), and un-wrap that fold.
    bool mutated = false;
    for (auto &bb : b.after.blocks) {
        for (const auto &call : bb.insts) {
            if (mutated || call.op != IrOp::Call || call.args.empty())
                continue;
            int want = call.args.front().id;
            for (auto it = bb.insts.rbegin(); it != bb.insts.rend();
                 ++it) {
                IrInst &d = *it;
                const mc::VReg dst = defOf(d);
                if (!dst.valid() || dst.id != want)
                    continue;
                if (d.op == IrOp::Mov) {
                    want = d.a.id;  // keep chasing the copy chain
                } else if (d.op == IrOp::MovImm &&
                           d.imm == int64_t{INT32_MIN}) {
                    d.imm = int64_t{INT32_MAX};  // non-wrapping result
                    mutated = true;
                }
                break;
            }
        }
    }
    ASSERT_TRUE(mutated);
    expectDiag(verify::tv::checkIrPass(b.before, b.after, "opt:fold",
                                       nullptr),
               "tv-effect-mismatch");
}

TEST(Tv, Pr5CharCastFoldCaught)
{
    // The char-cast fold that forgot to narrow: (char)200 folds to 200
    // instead of -56.
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 1;
    auto cap = captureCompile(corpusSource("char_cast_fold.c"), opts);
    auto b = boundaryOf(*cap, "opt:fold", "main");
    ASSERT_TRUE(mutateFirst(b.after, [](IrInst &i) {
        // x + (char)200 folds to 100 + (-56) = 44; un-narrowed it
        // would have been 100 + 200 = 300.
        if (i.op == IrOp::MovImm && i.imm == 44) {
            i.imm = 300;
            return true;
        }
        return false;
    }));
    expectDiag(verify::tv::checkIrPass(b.before, b.after, "opt:fold",
                                       nullptr),
               "tv-effect-mismatch");
}

TEST(Tv, Pr5TwoDimStrideCaught)
{
    // The 2-D row stride collapsed to the element stride: every row
    // address multiply uses the element size instead of the row size.
    CompileOptions opts = CompileOptions::d16();
    opts.optLevel = 1;
    auto cap = captureCompile(corpusSource("two_dim_index.c"), opts);
    auto b = boundaryOf(*cap, "opt:fold", "main");
    // g[4][8]: the row index is scaled by 32 bytes. Shrink every such
    // scale to 4 (the element size), exactly the PR-5 bug.
    int hits = 0;
    for (auto &bb : b.after.blocks) {
        for (auto &inst : bb.insts) {
            const bool scale =
                (inst.op == IrOp::Mul && inst.b.isImm() &&
                 inst.b.imm == 32) ||
                (inst.op == IrOp::Shl && inst.b.isImm() &&
                 inst.b.imm == 5);
            if (scale) {
                inst.b = inst.op == IrOp::Mul
                             ? mc::Operand::ofImm(4)
                             : mc::Operand::ofImm(2);
                ++hits;
            }
        }
    }
    ASSERT_GT(hits, 0);
    expectDiag(verify::tv::checkIrPass(b.before, b.after, "opt:fold",
                                       nullptr),
               "tv-effect-mismatch");
}

TEST(Tv, Pr5FpIncDecCaught)
{
    // ++ on a double emitted as integer arithmetic: the FAdd by 1.0
    // becomes an FSub (any wrong op works; the original corrupted the
    // value the same way, just less politely).
    CompileOptions opts = CompileOptions::dlxe();
    opts.optLevel = 0;
    auto cap = captureCompile(corpusSource("fp_incdec.c"), opts);
    auto b = boundaryOf(*cap, "legalize", "main");
    mc::MachineEnv env(opts);
    ASSERT_TRUE(mutateFirst(b.after, [](IrInst &i) {
        if (i.op == IrOp::FAdd) {
            i.op = IrOp::FSub;
            return true;
        }
        return false;
    }));
    expectDiag(
        verify::tv::checkIrPass(b.before, b.after, "legalize", &env),
        "tv-effect-mismatch");
}

TEST(Tv, Pr5FpTruthinessCaught)
{
    // FP truthiness branched through the integer register file; the
    // visible effect at any boundary is a wrong branch polarity on the
    // fused FP compare-and-branch.
    CompileOptions opts = CompileOptions::dlxe();
    opts.optLevel = 0;
    auto cap = captureCompile(corpusSource("fp_condition.c"), opts);
    auto b = boundaryOf(*cap, "legalize", "main");
    mc::MachineEnv env(opts);
    ASSERT_TRUE(mutateFirst(b.after, [](IrInst &i) {
        if (i.op == IrOp::BrFCmp) {
            std::swap(i.thenBB, i.elseBB);
            return true;
        }
        return false;
    }));
    expectDiag(
        verify::tv::checkIrPass(b.before, b.after, "legalize", &env),
        "tv-term-mismatch");
}

} // namespace
