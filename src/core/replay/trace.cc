#include "core/replay/trace.hh"

#include "support/bytes.hh"
#include "support/error.hh"

namespace d16sim::core::replay
{

constexpr uint32_t HeaderMagic = 0x54363144;  // "D16T" little-endian
constexpr uint32_t TrailerMagic = 0x44363154; // "T16D" little-endian
constexpr uint32_t FormatVersion = 3;

uint64_t
Trace::fetchCount() const
{
    uint64_t n = 0;
    for (const FetchRun &r : runs)
        n += r.count;
    return n;
}

std::vector<uint8_t>
Trace::serialize() const
{
    std::vector<uint8_t> bytes;
    bytes.reserve(128 + base.output.size() + runs.size() * 8 +
                  accesses.size() * 5 + outcomes.size() * 4);
    ByteWriter out(bytes);

    out.u32(HeaderMagic);
    out.u32(FormatVersion);
    out.u32(insnBytes);
    out.u32(0);  // reserved
    // Capture-uarch tag: the slice of the microarchitecture that
    // shaped the recorded streams (sim/uarch.hh).
    out.u8(capturedUarch.forward ? 1 : 0);
    out.u8(static_cast<uint8_t>(capturedUarch.branch));
    out.u8(static_cast<uint8_t>(capturedUarch.bhtLog2));
    out.u8(static_cast<uint8_t>(capturedUarch.depth));

    out.u32(static_cast<uint32_t>(base.exitStatus));
    out.u32(base.sizeBytes);
    out.u32(base.textBytes);
    out.u32(base.textInsns);
    for (const auto &field : sim::kStatFields)
        out.u64(base.stats.*field.member);
    out.u64(base.output.size());
    out.bytes(base.output.data(), base.output.size());

    out.u64(runs.size());
    for (const FetchRun &r : runs) {
        out.u32(r.startPc);
        out.u32(r.count);
    }

    out.u64(accesses.size());
    for (const DataAccess &a : accesses) {
        out.u32(a.addr);
        out.u8(static_cast<uint8_t>(a.size | (a.write ? 0x80u : 0u)));
    }

    // Outcome entries pack the taken bit into pc bit 0, which is
    // always clear for 2- and 4-byte instruction sites.
    out.u64(outcomes.size());
    for (const BranchOutcome &o : outcomes)
        out.u32(o.pc | (o.taken ? 1u : 0u));

    out.u32(TrailerMagic);
    return bytes;
}

Trace
Trace::deserialize(const std::vector<uint8_t> &bytes)
{
    ByteReader in(bytes, "trace");
    if (in.u32() != HeaderMagic)
        fatal("trace: bad magic (not a D16T trace)");
    const uint32_t version = in.u32();
    if (version != FormatVersion)
        fatal("trace: unsupported format version ", version);

    Trace t;
    t.insnBytes = in.u32();
    if (t.insnBytes != 2 && t.insnBytes != 4)
        fatal("trace: bad instruction width ", t.insnBytes);
    if (in.u32() != 0)
        fatal("trace: reserved header field is not zero");
    const uint8_t forward = in.u8();
    if (forward > 1)
        fatal("trace: bad forwarding flag ", int{forward});
    t.capturedUarch.forward = forward != 0;
    const uint8_t bp = in.u8();
    if (bp > 2)
        fatal("trace: bad branch-policy tag ", int{bp});
    t.capturedUarch.branch = static_cast<sim::BranchPolicy>(bp);
    t.capturedUarch.bhtLog2 = in.u8();
    t.capturedUarch.depth = in.u8();
    if (t.capturedUarch.depth < 5 || t.capturedUarch.depth > 7)
        fatal("trace: bad pipeline depth ", t.capturedUarch.depth);

    t.base.exitStatus = static_cast<int>(in.u32());
    t.base.sizeBytes = in.u32();
    t.base.textBytes = in.u32();
    t.base.textInsns = in.u32();
    for (const auto &field : sim::kStatFields)
        t.base.stats.*field.member = in.u64();
    t.base.output = in.str(in.u64());

    const uint64_t runCount = in.count(in.u64(), 8);
    t.runs.reserve(static_cast<size_t>(runCount));
    for (uint64_t i = 0; i < runCount; ++i) {
        FetchRun r;
        r.startPc = in.u32();
        r.count = in.u32();
        if (r.count == 0)
            fatal("trace: empty fetch run at index ", i);
        t.runs.push_back(r);
    }

    const uint64_t accessCount = in.count(in.u64(), 5);
    t.accesses.reserve(static_cast<size_t>(accessCount));
    for (uint64_t i = 0; i < accessCount; ++i) {
        DataAccess a;
        a.addr = in.u32();
        const uint8_t kind = in.u8();
        a.write = (kind & 0x80u) != 0;
        a.size = kind & 0x7fu;
        if (a.size != 1 && a.size != 2 && a.size != 4)
            fatal("trace: bad access size ", int{a.size}, " at index ", i);
        t.accesses.push_back(a);
    }

    const uint64_t outcomeCount = in.count(in.u64(), 4);
    t.outcomes.reserve(static_cast<size_t>(outcomeCount));
    for (uint64_t i = 0; i < outcomeCount; ++i) {
        const uint32_t v = in.u32();
        t.outcomes.push_back({v & ~1u, (v & 1u) != 0});
    }

    if (in.u32() != TrailerMagic)
        fatal("trace: bad trailer (corrupt or truncated)");
    in.finish();

    // Structural cross-checks against the recorded measurement.
    if (t.fetchCount() != t.base.stats.instructions)
        fatal("trace: fetch stream length ", t.fetchCount(),
              " does not match instruction count ",
              t.base.stats.instructions);
    if (t.accesses.size() != t.base.stats.memOps())
        fatal("trace: data stream length ", t.accesses.size(),
              " does not match memory-op count ", t.base.stats.memOps());
    if (t.outcomes.size() != t.base.stats.condBranches)
        fatal("trace: branch-outcome stream length ", t.outcomes.size(),
              " does not match conditional-branch count ",
              t.base.stats.condBranches);
    return t;
}

Trace
capture(const assem::Image &image,
        std::shared_ptr<const sim::DecodedText> predecoded,
        sim::MachineConfig config,
        std::shared_ptr<const sim::BlockProgram> blocks)
{
    panicIf(!image.target, "image has no target");
    TraceProbe probe(static_cast<uint32_t>(image.target->insnBytes()));
    const sim::UarchConfig uarch = config.uarch;
    RunMeasurement m = core::run(image, {&probe}, config,
                                 std::move(predecoded), std::move(blocks));
    Trace t = probe.take(std::move(m));
    t.capturedUarch = uarch;
    return t;
}

} // namespace d16sim::core::replay
