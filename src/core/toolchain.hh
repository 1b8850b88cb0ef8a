/**
 * @file
 * Toolchain facade: MiniC source -> image -> simulated run, with the
 * measurement probes the paper's experiments need.
 */

#ifndef D16SIM_CORE_TOOLCHAIN_HH
#define D16SIM_CORE_TOOLCHAIN_HH

#include <map>
#include <memory>
#include <string>

#include "asm/assembler.hh"
#include "mc/compiler.hh"
#include "mem/cache.hh"
#include "sim/machine.hh"

namespace d16sim::core
{

/** Compile + assemble + link one program for one machine variant,
 *  with no checks of its own: whatever opts.verifyHook/validator do is
 *  all the verification that runs. The static-check tools call this
 *  and collect diagnostics themselves. */
assem::Image link(std::string_view source, const mc::CompileOptions &opts);

/** link() behind the verification gates: the IR verifier (debug
 *  builds, or opts.verifyEach), per-pass translation validation
 *  (opts.validateEach), and the post-link image lint and binary CFG
 *  analysis, each throwing on a finding. */
assem::Image build(std::string_view source,
                   const mc::CompileOptions &opts);

/**
 * Fetch-buffer model of the cacheless machines (§4): the processor
 * holds the last fetched aligned block of `busBytes`; a fetch outside
 * it issues a memory request. Counts the paper's IRequests.
 */
class FetchBufferProbe : public sim::Probe
{
  public:
    explicit FetchBufferProbe(uint32_t busBytes) : busBytes_(busBytes) {}

    void
    onIFetch(uint32_t pc) override
    {
        const uint32_t block = pc / busBytes_;
        if (!valid_ || block != current_) {
            valid_ = true;
            current_ = block;
            ++requests_;
        }
    }

    uint64_t requests() const { return requests_; }

    /** Instruction traffic in 32-bit words. */
    uint64_t words() const { return requests_ * (busBytes_ / 4); }

  private:
    uint32_t busBytes_;
    bool valid_ = false;
    uint32_t current_ = 0;
    uint64_t requests_ = 0;
};

/** Split I/D cache model attached to the reference streams (§4.1). */
class CacheProbe : public sim::Probe
{
  public:
    CacheProbe(mem::CacheConfig icacheCfg, mem::CacheConfig dcacheCfg)
        : icache_(icacheCfg), dcache_(dcacheCfg)
    {}

    void onIFetch(uint32_t pc) override { icache_.read(pc, insnBytes_); }

    void
    onDataRead(uint32_t addr, int size) override
    {
        dcache_.read(addr, size);
    }

    void
    onDataWrite(uint32_t addr, int size) override
    {
        dcache_.write(addr, size);
    }

    void setInsnBytes(int n) { insnBytes_ = n; }

    const mem::Cache &icache() const { return icache_; }
    const mem::Cache &dcache() const { return dcache_; }

  private:
    mem::Cache icache_;
    mem::Cache dcache_;
    int insnBytes_ = 4;
};

/**
 * Classifies executed instructions whose immediate operands exceed the
 * limits of the D16 instruction set (paper Table 4), measured on a
 * restricted-DLXe instruction stream: immediate compares, ALU
 * immediates beyond 5 unsigned bits, and memory displacements D16
 * cannot express.
 */
class ImmediateClassProbe : public sim::Probe
{
  public:
    void
    onExec(const isa::DecodedInst &inst, uint32_t pc) override
    {
        (void)pc;
        ++total_;
        const auto &d16 = isa::TargetInfo::d16();
        switch (inst.op) {
          case isa::Op::CmpI:
            ++cmpImmediate_;
            break;
          case isa::Op::AddI: case isa::Op::SubI:
            if (!d16.aluImmFits(inst.op, inst.imm) &&
                !d16.aluImmFits(inst.op == isa::Op::AddI
                                    ? isa::Op::SubI
                                    : isa::Op::AddI,
                                -static_cast<int64_t>(inst.imm))) {
                ++aluImmediate_;
            }
            break;
          case isa::Op::AndI: case isa::Op::OrI: case isa::Op::XorI:
          case isa::Op::MvHI:
            ++aluImmediate_;  // D16 has no logical/upper immediates
            break;
          case isa::Op::Ld: case isa::Op::St:
          case isa::Op::Ldh: case isa::Op::Ldhu: case isa::Op::Sth:
          case isa::Op::Ldb: case isa::Op::Ldbu: case isa::Op::Stb:
            if (!d16.memOffsetFits(inst.op, inst.imm))
                ++memDisplacement_;
            break;
          default:
            break;
        }
    }

    uint64_t total() const { return total_; }
    uint64_t cmpImmediate() const { return cmpImmediate_; }
    uint64_t aluImmediate() const { return aluImmediate_; }
    uint64_t memDisplacement() const { return memDisplacement_; }

    double
    pct(uint64_t v) const
    {
        return total_ ? 100.0 * static_cast<double>(v) /
                            static_cast<double>(total_)
                      : 0.0;
    }

  private:
    uint64_t total_ = 0;
    uint64_t cmpImmediate_ = 0;
    uint64_t aluImmediate_ = 0;
    uint64_t memDisplacement_ = 0;
};

/** Everything one simulated execution yields. */
struct RunMeasurement
{
    std::string output;
    int exitStatus = 0;
    sim::SimStats stats;
    uint32_t sizeBytes = 0;   //!< static size (text+data)
    uint32_t textBytes = 0;
    uint32_t textInsns = 0;   //!< static instruction count
};

/** Run CFG recovery over the image and export the analyzer-proved
 *  block spans. This is the expensive half of block compilation; the
 *  artifact store persists its result ("D16M" metadata) so reloaded
 *  images skip it. */
sim::BlockTable recoverBlockTable(const assem::Image &image);

/** Translate a known-good block table (fresh from recoverBlockTable()
 *  or reloaded from the store) into a shared block program. */
std::shared_ptr<const sim::BlockProgram>
makeBlockProgram(const assem::Image &image,
                 std::shared_ptr<const sim::DecodedText> predecoded,
                 const sim::BlockTable &table);

/** Compile the image's recovered CFG into a shared block program for
 *  the sim threaded-code engine (see sim::BlockProgram). Built once
 *  per image and shared read-only by every machine that runs it;
 *  `predecoded` reuses an existing decode table when available.
 *  Equivalent to makeBlockProgram(recoverBlockTable(image)). */
std::shared_ptr<const sim::BlockProgram>
buildBlockProgram(const assem::Image &image,
                  std::shared_ptr<const sim::DecodedText> predecoded =
                      nullptr);

/** Run to completion with optional probes (not owned). `predecoded`
 *  optionally shares one decode table across runs of the same image
 *  (see sim::DecodedText); `blocks` optionally enables block-compiled
 *  dispatch (ignored by probe-attached runs except trace capture —
 *  results are bit-identical either way). */
RunMeasurement run(const assem::Image &image,
                   std::vector<sim::Probe *> probes = {},
                   sim::MachineConfig config = {},
                   std::shared_ptr<const sim::DecodedText> predecoded =
                       nullptr,
                   std::shared_ptr<const sim::BlockProgram> blocks =
                       nullptr);

/** Convenience: build + run. */
RunMeasurement buildAndRun(std::string_view source,
                           const mc::CompileOptions &opts,
                           std::vector<sim::Probe *> probes = {});

// ----- the paper's performance formulas (§4, Appendix A) ---------------

/** Cacheless: Cycles = IC + Interlocks + latency * (IReq + DReq). */
inline uint64_t
cyclesNoCache(const sim::SimStats &stats, int waitStates,
              uint64_t ifetchRequests)
{
    return stats.baseCycles() +
           static_cast<uint64_t>(waitStates) *
               (ifetchRequests + stats.memOps());
}

/** With caches: Cycles = IC + Interlocks + missPenalty * misses. */
inline uint64_t
cyclesWithCache(const sim::SimStats &stats, int missPenalty,
                const mem::CacheStats &icache,
                const mem::CacheStats &dcache)
{
    return stats.baseCycles() +
           static_cast<uint64_t>(missPenalty) *
               (icache.misses() + dcache.misses());
}

} // namespace d16sim::core

#endif // D16SIM_CORE_TOOLCHAIN_HH
