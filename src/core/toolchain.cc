#include "core/toolchain.hh"

#include "analysis/analysis.hh"
#include "analysis/block_export.hh"
#include "verify/verify.hh"

namespace d16sim::core
{

assem::Image
link(std::string_view source, const mc::CompileOptions &opts)
{
    mc::CompileResult comp = mc::compile(source, opts);
    assem::Assembler as(opts.target());
    as.add(std::move(comp.items));
    return as.link();
}

assem::Image
build(std::string_view source, const mc::CompileOptions &opts)
{
    // Verification is always on in debug builds; release builds (where
    // the experiments run) enable it per-options via verifyEach.
#ifndef NDEBUG
    const bool verifying = true;
#else
    const bool verifying = opts.verifyEach;
#endif
    mc::CompileOptions effective = opts;
    if (verifying && !effective.verifyHook)
        verify::installIrVerifier(effective);
    if (effective.validateEach && !effective.validator)
        verify::installTranslationValidator(effective);

    assem::Image img = link(source, effective);
    if (verifying) {
        verify::lintImageOrThrow(img, std::string(opts.name()));
        analysis::analyzeImageOrThrow(img, opts, std::string(opts.name()));
    }
    return img;
}

sim::BlockTable
recoverBlockTable(const assem::Image &image)
{
    return analysis::exportBlockTable(analysis::buildCfg(image));
}

std::shared_ptr<const sim::BlockProgram>
makeBlockProgram(const assem::Image &image,
                 std::shared_ptr<const sim::DecodedText> predecoded,
                 const sim::BlockTable &table)
{
    if (!predecoded)
        predecoded = std::make_shared<const sim::DecodedText>(image);
    return std::make_shared<const sim::BlockProgram>(image, *predecoded,
                                                     table);
}

std::shared_ptr<const sim::BlockProgram>
buildBlockProgram(const assem::Image &image,
                  std::shared_ptr<const sim::DecodedText> predecoded)
{
    if (!predecoded)
        predecoded = std::make_shared<const sim::DecodedText>(image);
    return makeBlockProgram(image, predecoded,
                            recoverBlockTable(image));
}

RunMeasurement
run(const assem::Image &image, std::vector<sim::Probe *> probes,
    sim::MachineConfig config,
    std::shared_ptr<const sim::DecodedText> predecoded,
    std::shared_ptr<const sim::BlockProgram> blocks)
{
    sim::Machine machine(image, config, std::move(predecoded));
    for (sim::Probe *p : probes) {
        if (auto *cp = dynamic_cast<CacheProbe *>(p))
            cp->setInsnBytes(image.target->insnBytes());
        machine.addProbe(p);
    }
    if (blocks) {
        machine.setBlockProgram(std::move(blocks));
        // A lone block-capable probe (the trace capturer) keeps block
        // dispatch eligible; anything else makes the machine fall
        // back to pure step dispatch on its own.
        if (probes.size() == 1)
            if (auto *sink = dynamic_cast<sim::TraceSink *>(probes[0]))
                machine.setTraceSink(sink);
    }
    RunMeasurement m;
    m.exitStatus = machine.run();
    m.output = machine.output();
    m.stats = machine.stats();
    m.sizeBytes = image.sizeBytes();
    m.textBytes = image.textSize;
    m.textInsns = image.textInsns;
    return m;
}

RunMeasurement
buildAndRun(std::string_view source, const mc::CompileOptions &opts,
            std::vector<sim::Probe *> probes)
{
    const assem::Image image = build(source, opts);
    return run(image, std::move(probes));
}

} // namespace d16sim::core
