#include "analysis/analysis.hh"

#include <sstream>

#include "analysis/dom.hh"
#include "analysis/stack.hh"
#include "mc/machine_env.hh"
#include "support/strings.hh"

namespace d16sim::analysis
{

using verify::Diag;
using verify::DiagEngine;
using verify::Severity;

std::string_view
opClassTag(int cls)
{
    static constexpr std::string_view tags[numOpClasses] = {
        "int_alu", "int_alu_imm", "load",    "store",      "load_const",
        "branch",  "jump",        "fp_alu",  "fp_move",    "fp_convert",
        "misc",
    };
    return cls >= 0 && cls < numOpClasses ? tags[cls] : "?";
}

Abi
Abi::from(const mc::CompileOptions &opts)
{
    const mc::MachineEnv env(opts);
    Abi a;
    a.intArgCount =
        static_cast<int>(env.argRegs(mc::RegClass::Int).size());
    a.fpArgCount = static_cast<int>(env.argRegs(mc::RegClass::Fp).size());
    a.intAllocLast = env.allocatable(mc::RegClass::Int).back();
    a.fpAllocLast = env.allocatable(mc::RegClass::Fp).back();
    a.intCalleeFirst = a.intAllocLast + 1;
    a.intCalleeLast = a.intAllocLast;
    for (int r : env.allocatable(mc::RegClass::Int)) {
        if (env.isCalleeSaved(r, mc::RegClass::Int))
            a.intCalleeFirst = std::min(a.intCalleeFirst, r);
    }
    a.fpCalleeFirst = a.fpAllocLast + 1;
    a.fpCalleeLast = a.fpAllocLast;
    for (int r : env.allocatable(mc::RegClass::Fp)) {
        if (env.isCalleeSaved(r, mc::RegClass::Fp))
            a.fpCalleeFirst = std::min(a.fpCalleeFirst, r);
    }
    return a;
}

namespace
{

void
blame(DiagEngine &diags, Severity sev, const char *code,
      const ImageCfg &cfg, uint32_t addr, int line, std::string message)
{
    Diag d;
    d.severity = sev;
    d.code = code;
    d.message = std::move(message);
    d.addr = addr;
    d.hasAddr = true;
    d.symbol = cfg.enclosingSymbol(addr);
    d.line = line;
    diags.report(std::move(d));
}

} // namespace

AnalysisResult
analyzeImage(const assem::Image &img, DiagEngine &diags, const Abi &abi)
{
    AnalysisResult r;
    r.cfg = buildCfg(img);
    const ImageCfg &cfg = r.cfg;
    const isa::TargetInfo &t = *img.target;

    r.insnCount = static_cast<int>(cfg.insns.size());
    r.blockCount = static_cast<int>(cfg.blocks.size());
    r.edgeCount = cfg.edgeCount();
    r.funcCount = static_cast<int>(cfg.funcs.size());
    r.callEdgeCount = cfg.callEdgeCount();

    // Static instruction mix.
    for (const Insn &in : cfg.insns)
        ++r.opClassCounts[static_cast<int>(isa::opClass(in.d.op))];

    // Density identities. staticBytes is rebuilt from the decoded
    // stream (sites * width + non-instruction text + data) and must
    // reproduce the assembler's own accounting exactly.
    r.insnBytes = static_cast<uint32_t>(cfg.insns.size()) *
                  static_cast<uint32_t>(t.insnBytes());
    if (r.insnBytes > img.textSize ||
        cfg.insns.size() != img.textInsns) {
        blame(diags, Severity::Error, "cfa-density-mismatch", cfg,
              img.textBase, 0,
              "decoded instruction stream disagrees with the image: " +
                  std::to_string(cfg.insns.size()) + " sites vs " +
                  std::to_string(img.textInsns) + " textInsns");
        ++r.findings;
    }
    r.poolBytes = img.textSize - r.insnBytes;
    r.dataBytes = img.dataSize;
    r.bssBytes = img.bssSize;
    r.staticBytes = r.insnBytes + r.poolBytes + r.dataBytes - r.bssBytes;
    if (r.staticBytes != img.sizeBytes()) {
        blame(diags, Severity::Error, "cfa-density-mismatch", cfg,
              img.textBase, 0,
              "static size " + std::to_string(r.staticBytes) +
                  " != image sizeBytes " +
                  std::to_string(img.sizeBytes()));
        ++r.findings;
    }

    // Block partition must cover the instruction stream exactly.
    int covered = 0;
    for (const Block &b : cfg.blocks)
        covered += b.size();
    if (covered != r.insnCount) {
        blame(diags, Severity::Error, "cfa-density-mismatch", cfg,
              img.textBase, 0,
              "basic blocks cover " + std::to_string(covered) + " of " +
                  std::to_string(r.insnCount) + " instructions");
        ++r.findings;
    }

    // Unreachable code: blocks no function claimed.
    for (const Block &b : cfg.blocks) {
        if (b.func >= 0)
            continue;
        ++r.unreachableBlocks;
        const Insn &in = cfg.insns[b.first];
        blame(diags, Severity::Warning, "cfa-unreachable-block", cfg,
              in.addr, in.line,
              "unreachable code: " + std::to_string(b.size()) +
                  " instruction(s) no control-flow path reaches");
        ++r.findings;
    }

    // Unresolvable indirect transfers (a register jump that is neither
    // a return nor a recovered D16 call).
    for (const Block &b : cfg.blocks) {
        if (!b.hasIndirect)
            continue;
        const Insn &in = cfg.insns[b.cfIndex];
        blame(diags, Severity::Warning, "cfa-indirect-jump", cfg,
              in.addr, in.line,
              "indirect jump target could not be resolved statically");
        ++r.findings;
    }

    // Dominators / natural loops, and per-function summaries.
    for (const Function &fn : cfg.funcs) {
        const DomInfo di = computeDoms(cfg, fn);
        FunctionSummary fs;
        fs.name = fn.name;
        fs.entryAddr = fn.entryAddr;
        fs.blocks = static_cast<int>(fn.blocks.size());
        for (int b : fn.blocks)
            fs.insns += cfg.blocks[b].size();
        fs.loops = di.loopCount();
        fs.frameBytes = fn.frameBytes;
        fs.reachable = fn.reachable;
        r.loopCount += fs.loops;
        r.functions.push_back(std::move(fs));

        if (!fn.reachable) {
            ++r.deadFuncs;
            blame(diags, Severity::Note, "cfa-dead-function", cfg,
                  fn.entryAddr, 0,
                  "function '" + fn.name +
                      "' is linked but never called");
        }
    }

    // Interprocedural register dataflow.
    r.findings += analyzeDataflow(cfg, abi, diags);

    // Static stack bounds.
    const StackBounds sb = analyzeStack(cfg, diags);
    r.maxStackBytes = sb.maxStackBytes;
    r.recursive = sb.recursive;
    for (size_t f = 0; f < cfg.funcs.size(); ++f)
        r.functions[f].stackDepth = sb.depth[f];

    return r;
}

AnalysisResult
analyzeImage(const assem::Image &img, DiagEngine &diags)
{
    return analyzeImage(img, diags, Abi::defaultFor(*img.target));
}

void
analyzeImageOrThrow(const assem::Image &img,
                    const mc::CompileOptions &opts,
                    const std::string &unit)
{
    DiagEngine diags;
    diags.setUnit(unit.empty() ? opts.name() : unit);
    analyzeImage(img, diags, Abi::from(opts));
    if (!diags.failures())
        return;
    std::ostringstream os;
    os << "binary CFG analysis failed";
    if (!unit.empty())
        os << " for " << unit;
    os << ":\n";
    diags.renderText(os);
    panic(os.str());
}

Json
AnalysisResult::json() const
{
    Json j = Json::object();
    j["insns"] = insnCount;
    j["blocks"] = blockCount;
    j["edges"] = edgeCount;
    j["funcs"] = funcCount;
    j["callEdges"] = callEdgeCount;
    j["loops"] = loopCount;
    j["unreachable"] = unreachableBlocks;
    j["deadFuncs"] = deadFuncs;
    j["insnBytes"] = insnBytes;
    j["poolBytes"] = poolBytes;
    j["dataBytes"] = dataBytes;
    j["bssBytes"] = bssBytes;
    j["staticBytes"] = staticBytes;
    j["maxStack"] = maxStackBytes;
    j["recursive"] = recursive;
    j["findings"] = findings;
    Json mix = Json::object();
    for (int c = 0; c < numOpClasses; ++c)
        if (opClassCounts[c])
            mix[std::string(opClassTag(c))] = opClassCounts[c];
    j["mix"] = std::move(mix);
    Json funcs = Json::array();
    for (const FunctionSummary &f : functions) {
        Json fj = Json::object();
        fj["name"] = f.name;
        fj["entry"] = f.entryAddr;
        fj["blocks"] = f.blocks;
        fj["insns"] = f.insns;
        fj["loops"] = f.loops;
        fj["frame"] = f.frameBytes;
        fj["depth"] = f.stackDepth;
        fj["reachable"] = f.reachable;
        funcs.push(std::move(fj));
    }
    j["functions"] = std::move(funcs);
    return j;
}

void
AnalysisResult::renderText(std::ostream &os) const
{
    os << "  " << insnCount << " instructions, " << blockCount
       << " blocks, " << edgeCount << " edges, " << funcCount
       << " functions (" << callEdgeCount << " call edges, " << loopCount
       << " loops)\n";
    os << "  density: " << insnBytes << " insn + " << poolBytes
       << " pool + " << dataBytes - bssBytes << " data = " << staticBytes
       << " bytes static\n";
    os << "  stack: ";
    if (maxStackBytes < 0)
        os << "unbounded (recursive)";
    else
        os << maxStackBytes << " bytes worst case";
    if (unreachableBlocks || deadFuncs) {
        os << "\n  " << unreachableBlocks << " unreachable block(s), "
           << deadFuncs << " dead function(s)";
    }
    os << "\n  mix:";
    for (int c = 0; c < numOpClasses; ++c) {
        if (opClassCounts[c])
            os << " " << opClassTag(c) << "=" << opClassCounts[c];
    }
    os << "\n";
}

} // namespace d16sim::analysis
