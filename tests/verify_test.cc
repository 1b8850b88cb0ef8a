/**
 * @file
 * Verification-layer tests.
 *
 * Positive: the shipped toolchain is clean — every workload compiles
 * with the IR verifier hooked after every pass (opt levels 0-2) and its
 * linked image passes the machine-code linter with zero findings, and
 * every emitted instruction round-trips encode -> decode -> re-encode
 * bit-identically on both targets.
 *
 * Negative: hand-built IR functions and assembly modules seeding one
 * defect per test; each must be caught with the exact diagnostic code,
 * so a refactor cannot silently stop detecting a defect class.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "isa/codec.hh"
#include "isa/reconstruct.hh"
#include "mc/compiler.hh"
#include "mc/machine_env.hh"
#include "support/error.hh"
#include "verify/verify.hh"

namespace
{

using namespace d16sim;
using assem::AsmItem;
using assem::Image;
using isa::AsmInst;
using isa::Cond;
using isa::Op;
using isa::TargetInfo;

// ---------------------------------------------------------------------
// Positive: the real toolchain produces verifier- and linter-clean code.
// ---------------------------------------------------------------------

void
expectClean(const verify::DiagEngine &diags)
{
    if (diags.failures() == 0)
        return;
    std::ostringstream os;
    diags.renderText(os);
    ADD_FAILURE() << os.str();
}

/** Compile one workload with the IR verifier collecting into `diags`
 *  (non-throwing, so one test can report every finding at once). */
assem::Image
compileVerified(const core::Workload &w, mc::CompileOptions opts,
                int optLevel, verify::DiagEngine &diags)
{
    opts.optLevel = optLevel;
    opts.verifyEach = true;
    opts.verifyHook = [&diags](const mc::IrFunction &fn, const char *stage,
                               const mc::MachineEnv *env) {
        verify::IrVerifyOptions vo;
        vo.env = env;
        vo.stage = stage;
        verify::verifyIr(fn, diags, vo);
    };
    diags.setUnit(w.name + "/" + opts.name());

    return core::link(w.source, opts);
}

TEST(WorkloadsClean, VerifyAndLintBothTargets)
{
    verify::DiagEngine diags;
    for (const core::Workload &w : core::workloadSuite()) {
        for (const auto &base :
             {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
            const Image img = compileVerified(w, base, 2, diags);
            verify::lintImage(img, diags);
        }
    }
    expectClean(diags);
}

TEST(WorkloadsClean, VerifyEachAtLowerOptLevels)
{
    verify::DiagEngine diags;
    for (const core::Workload &w : core::workloadSuite()) {
        for (const auto &base :
             {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
            for (int opt = 0; opt <= 1; ++opt)
                compileVerified(w, base, opt, diags);
        }
    }
    expectClean(diags);
}

// Satellite: every instruction the toolchain emits, on both targets,
// round-trips through decode + reconstruct + encode bit-identically.
TEST(RoundTrip, EveryWorkloadInstructionBothTargets)
{
    int checked = 0;
    for (const core::Workload &w : core::workloadSuite()) {
        for (const auto &base :
             {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
            mc::CompileOptions opts = base;
            opts.optLevel = 2;
            mc::CompileResult comp = mc::compile(w.source, opts);
            assem::Assembler as(opts.target());
            as.add(std::move(comp.items));
            const Image img = as.link();
            const TargetInfo &t = *img.target;
            for (const assem::InsnSite &site : img.insnSites) {
                const size_t off = site.addr - img.textBase;
                if (t.insnBytes() == 2) {
                    const uint16_t word = static_cast<uint16_t>(
                        img.bytes[off] | (img.bytes[off + 1] << 8));
                    const isa::DecodedInst d = isa::d16Decode(word);
                    ASSERT_EQ(isa::d16Encode(isa::reconstruct(t, d)), word)
                        << w.name << " @" << std::hex << site.addr;
                } else {
                    uint32_t word = 0;
                    for (int i = 3; i >= 0; --i)
                        word = (word << 8) | img.bytes[off + i];
                    const isa::DecodedInst d = isa::dlxeDecode(word);
                    ASSERT_EQ(isa::dlxeEncode(isa::reconstruct(t, d)), word)
                        << w.name << " @" << std::hex << site.addr;
                }
                ++checked;
            }
        }
    }
    // Both encodings of the full suite: thousands of instructions.
    EXPECT_GT(checked, 10000);
}

// ---------------------------------------------------------------------
// Negative: seeded IR defects, each caught with its exact code.
// ---------------------------------------------------------------------

class IrNegative : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fn.name = "seeded";
        fn.retType = types.voidTy();
        fn.blocks.emplace_back();
        fn.blocks.back().id = 0;
    }

    bool
    run(const mc::MachineEnv *env = nullptr)
    {
        verify::IrVerifyOptions vo;
        vo.env = env;
        vo.stage = "seeded-defect";
        return verify::verifyIr(fn, diags, vo);
    }

    static mc::IrInst
    movImm(mc::VReg dst, int64_t v)
    {
        mc::IrInst i;
        i.op = mc::IrOp::MovImm;
        i.dst = dst;
        i.imm = v;
        return i;
    }

    static mc::IrInst
    ret()
    {
        mc::IrInst i;
        i.op = mc::IrOp::Ret;
        return i;
    }

    static mc::IrInst
    jmp(int bb)
    {
        mc::IrInst i;
        i.op = mc::IrOp::Jmp;
        i.thenBB = bb;
        return i;
    }

    static mc::IrInst
    binOp(mc::IrOp op, mc::VReg dst, mc::VReg a, mc::Operand b,
          Cond cond = Cond::Eq)
    {
        mc::IrInst i;
        i.op = op;
        i.dst = dst;
        i.a = a;
        i.b = b;
        i.cond = cond;
        return i;
    }

    mc::TypeTable types;
    mc::IrFunction fn;
    verify::DiagEngine diags;
};

TEST_F(IrNegative, NoTerminator)
{
    const mc::VReg v = fn.newReg(mc::RegClass::Int);
    fn.blocks[0].insts = {movImm(v, 1)};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-no-terminator"));
}

TEST_F(IrNegative, TerminatorInMiddle)
{
    fn.blocks[0].insts = {ret(), ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-terminator-middle"));
}

TEST_F(IrNegative, BranchToMissingBlock)
{
    fn.blocks[0].insts = {jmp(7)};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-bad-branch-target"));
}

TEST_F(IrNegative, BlockIdMismatch)
{
    fn.blocks[0].id = 3;
    fn.blocks[0].insts = {ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-block-id"));
}

TEST_F(IrNegative, UseBeforeDef)
{
    const mc::VReg undef = fn.newReg(mc::RegClass::Int);
    const mc::VReg dst = fn.newReg(mc::RegClass::Int);
    mc::IrInst mov;
    mov.op = mc::IrOp::Mov;
    mov.dst = dst;
    mov.a = undef;
    fn.blocks[0].insts = {mov, ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-use-before-def"));
}

TEST_F(IrNegative, ConditionalDefIsNotFlagged)
{
    // May-analysis: a def that reaches on only one path is legal IR
    // (the C program may simply never take the other path).
    const mc::VReg flag = fn.newReg(mc::RegClass::Int);
    const mc::VReg maybe = fn.newReg(mc::RegClass::Int);
    const mc::VReg use = fn.newReg(mc::RegClass::Int);
    fn.blocks.emplace_back().id = 1;
    fn.blocks.emplace_back().id = 2;

    mc::IrInst br;
    br.op = mc::IrOp::Br;
    br.a = flag;
    br.thenBB = 1;
    br.elseBB = 2;
    fn.blocks[0].insts = {movImm(flag, 0), br};
    fn.blocks[1].insts = {movImm(maybe, 5), jmp(2)};
    mc::IrInst mov;
    mov.op = mc::IrOp::Mov;
    mov.dst = use;
    mov.a = maybe;
    fn.blocks[2].insts = {mov, ret()};

    EXPECT_TRUE(run());
    EXPECT_TRUE(diags.empty());
}

TEST_F(IrNegative, IntOpWithFpDestination)
{
    const mc::VReg bad = fn.newReg(mc::RegClass::Fp);
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    const mc::VReg b = fn.newReg(mc::RegClass::Int);
    fn.blocks[0].insts = {movImm(a, 1), movImm(b, 2),
                          binOp(mc::IrOp::Add, bad, a,
                                mc::Operand::ofReg(b)),
                          ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-class-mismatch"));
}

TEST_F(IrNegative, VRegIdOutOfRange)
{
    const mc::VReg dst = fn.newReg(mc::RegClass::Int);
    mc::IrInst mov;
    mov.op = mc::IrOp::Mov;
    mov.dst = dst;
    mov.a = mc::VReg{7, mc::RegClass::Int};  // only v0 exists
    fn.blocks[0].insts = {mov, ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-bad-vreg"));
}

TEST_F(IrNegative, MissingReturnValue)
{
    fn.retType = types.intTy();
    fn.blocks[0].insts = {ret()};
    EXPECT_FALSE(run());
    EXPECT_TRUE(diags.has("ir-ret-type"));
}

TEST_F(IrNegative, MulSurvivesLegalization)
{
    const mc::MachineEnv env(mc::CompileOptions::d16());
    const mc::VReg d = fn.newReg(mc::RegClass::Int);
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    const mc::VReg b = fn.newReg(mc::RegClass::Int);
    fn.blocks[0].insts = {movImm(a, 3), movImm(b, 4),
                          binOp(mc::IrOp::Mul, d, a,
                                mc::Operand::ofReg(b)),
                          ret()};
    EXPECT_FALSE(run(&env));
    EXPECT_TRUE(diags.has("ir-op-not-lowered"));
}

TEST_F(IrNegative, UnencodableAluImmediate)
{
    const mc::MachineEnv env(mc::CompileOptions::d16());
    const mc::VReg d = fn.newReg(mc::RegClass::Int);
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    // D16 ALU immediates are 5-bit unsigned; +/-1000 fits neither the
    // addi nor the mirrored subi form.
    fn.blocks[0].insts = {movImm(a, 0),
                          binOp(mc::IrOp::Add, d, a,
                                mc::Operand::ofImm(1000)),
                          ret()};
    EXPECT_FALSE(run(&env));
    EXPECT_TRUE(diags.has("ir-imm-unencodable"));
}

TEST_F(IrNegative, ConditionUnavailableOnD16)
{
    const mc::MachineEnv env(mc::CompileOptions::d16());
    const mc::VReg d = fn.newReg(mc::RegClass::Int);
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    const mc::VReg b = fn.newReg(mc::RegClass::Int);
    fn.blocks[0].insts = {movImm(a, 1), movImm(b, 2),
                          binOp(mc::IrOp::Cmp, d, a,
                                mc::Operand::ofReg(b), Cond::Gt),
                          ret()};
    EXPECT_FALSE(run(&env));
    EXPECT_TRUE(diags.has("ir-cond-unavailable"));
}

TEST_F(IrNegative, BrCmpCompareTempOnD16)
{
    const mc::MachineEnv env(mc::CompileOptions::d16());
    const mc::VReg temp = fn.newReg(mc::RegClass::Int);
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    const mc::VReg b = fn.newReg(mc::RegClass::Int);
    fn.blocks.emplace_back().id = 1;
    mc::IrInst br = binOp(mc::IrOp::BrCmp, temp, a,
                          mc::Operand::ofReg(b), Cond::Lt);
    br.thenBB = 1;
    br.elseBB = 1;
    fn.blocks[0].insts = {movImm(a, 1), movImm(b, 2), br};
    fn.blocks[1].insts = {ret()};
    EXPECT_FALSE(run(&env));
    EXPECT_TRUE(diags.has("ir-class-mismatch"));
}

TEST_F(IrNegative, BrCmpMissingCompareTempOnDLXe)
{
    const mc::MachineEnv env(mc::CompileOptions::dlxe());
    const mc::VReg a = fn.newReg(mc::RegClass::Int);
    const mc::VReg b = fn.newReg(mc::RegClass::Int);
    fn.blocks.emplace_back().id = 1;
    mc::IrInst br = binOp(mc::IrOp::BrCmp, mc::VReg{}, a,
                          mc::Operand::ofReg(b), Cond::Lt);
    br.thenBB = 1;
    br.elseBB = 1;
    fn.blocks[0].insts = {movImm(a, 1), movImm(b, 2), br};
    fn.blocks[1].insts = {ret()};
    EXPECT_FALSE(run(&env));
    EXPECT_TRUE(diags.has("ir-missing-dst"));
}

// ---------------------------------------------------------------------
// Negative: seeded machine-code defects.
// ---------------------------------------------------------------------

Image
assembleD16(std::vector<AsmItem> items)
{
    assem::Assembler as(TargetInfo::d16());
    as.add(std::move(items));
    return as.link();
}

verify::DiagEngine
lint(const Image &img, bool perfNotes = false)
{
    verify::DiagEngine diags;
    verify::LintOptions lo;
    lo.perfNotes = perfNotes;
    verify::lintImage(img, diags, lo);
    return diags;
}

TEST(McLintNegative, BranchInDelaySlot)
{
    // A taken transfer in a delay slot panics the simulator
    // (sim/machine.cc); the linter must reject the sequence statically.
    const Image img = assembleD16({
        AsmItem::label("main"),
        AsmItem::instruction(AsmInst::branch(Op::Br, 0, "main")),
        AsmItem::instruction(AsmInst::branch(Op::Br, 0, "main")),
        AsmItem::instruction(AsmInst::nop()),
    });
    const verify::DiagEngine diags = lint(img);
    EXPECT_TRUE(diags.has("mc-branch-in-delay-slot"));
    EXPECT_GT(diags.failures(), 0);
}

TEST(McLintNegative, MissingDelaySlot)
{
    const Image img = assembleD16({
        AsmItem::label("main"),
        AsmItem::instruction(AsmInst::nop()),
        AsmItem::instruction(AsmInst::branch(Op::Br, 0, "main")),
    });
    const verify::DiagEngine diags = lint(img);
    EXPECT_TRUE(diags.has("mc-missing-delay-slot"));
}

TEST(McLintNegative, BranchTargetOutsideText)
{
    // A branch resolved to a data symbol encodes fine but would execute
    // data; the target check catches it.
    const Image img = assembleD16({
        AsmItem::label("main"),
        AsmItem::instruction(AsmInst::branch(Op::Br, 0, "d")),
        AsmItem::instruction(AsmInst::nop()),
        AsmItem::section(false),
        AsmItem::label("d"),
        AsmItem::word({assem::DataValue{0}}),
    });
    const verify::DiagEngine diags = lint(img);
    EXPECT_TRUE(diags.has("mc-branch-target"));
}

TEST(McLintNegative, ReservedEncoding)
{
    Image img = assembleD16({
        AsmItem::label("main"),
        AsmItem::instruction(AsmInst::nop()),
        AsmItem::instruction(AsmInst::nop()),
    });
    // Find a word the canonical decoder rejects and overwrite the
    // first instruction with it (a corrupted or mislinked image).
    uint32_t reserved = 0;
    bool found = false;
    for (uint32_t w = 0; w <= 0xffff && !found; ++w) {
        try {
            (void)isa::d16Decode(static_cast<uint16_t>(w));
        } catch (const FatalError &) {
            reserved = w;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    const size_t off = img.insnSites.at(0).addr - img.textBase;
    img.bytes[off] = static_cast<uint8_t>(reserved & 0xff);
    img.bytes[off + 1] = static_cast<uint8_t>(reserved >> 8);

    const verify::DiagEngine diags = lint(img);
    EXPECT_TRUE(diags.has("mc-reserved-encoding"));
}

TEST(McLintNegative, EntryPointNotAnInstruction)
{
    const Image img = assembleD16({
        AsmItem::instruction(AsmInst::nop()),
        AsmItem::instruction(AsmInst::nop()),
        AsmItem::section(false),
        AsmItem::label("main"),  // entry symbol lands in .data
        AsmItem::word({assem::DataValue{1}}),
    });
    const verify::DiagEngine diags = lint(img);
    EXPECT_TRUE(diags.has("mc-bad-entry"));
}

TEST(McLintNegative, LoadUseInterlockIsANoteOnly)
{
    const int sp = TargetInfo::d16().spReg();
    const Image img = assembleD16({
        AsmItem::label("main"),
        AsmItem::instruction(AsmInst::ri(Op::Ld, 1, sp, 0)),
        AsmItem::instruction(AsmInst::r3(Op::Add, 2, 2, 1)),
        AsmItem::instruction(AsmInst::nop()),
    });
    const verify::DiagEngine quiet = lint(img, /*perfNotes=*/false);
    EXPECT_TRUE(quiet.empty());

    const verify::DiagEngine perf = lint(img, /*perfNotes=*/true);
    EXPECT_TRUE(perf.has("mc-load-use-interlock"));
    EXPECT_EQ(perf.notes(), 1);
    EXPECT_EQ(perf.failures(), 0);  // hardware interlocks; legal code
}

TEST(Diag, JsonKeepsSetFieldsAndEscapesText)
{
    verify::DiagEngine de;
    de.setUnit("towers/D16");
    de.error("ir-use-before-def", "say \"hi\"\n\tnow");
    verify::Diag located;
    located.severity = verify::Severity::Note;
    located.code = "mc-load-use-interlock";
    located.message = "m";
    located.unit = "u";
    located.symbol = "main";
    located.addr = 4096;
    located.hasAddr = true;
    located.line = 7;
    located.block = 2;
    located.inst = 3;
    de.report(located);

    const Json j = de.json();
    ASSERT_EQ(j.size(), 2u);
    // Unset location fields are omitted.
    EXPECT_EQ(j.items()[0].dump(),
              "{\"code\":\"ir-use-before-def\",\"message\":"
              "\"say \\\"hi\\\"\\n\\tnow\",\"severity\":\"error\","
              "\"unit\":\"towers/D16\"}");
    EXPECT_EQ(j.items()[1].dump(),
              "{\"addr\":4096,\"block\":2,\"code\":"
              "\"mc-load-use-interlock\",\"inst\":3,\"line\":7,"
              "\"message\":\"m\",\"severity\":\"note\",\"symbol\":"
              "\"main\",\"unit\":\"u\"}");
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

} // namespace
