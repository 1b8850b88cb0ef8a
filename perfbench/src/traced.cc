#include "traced.hh"

#include <cstring>
#include <map>
#include <memory>

#include "analysis/analysis.hh"
#include "asm/assembler.hh"
#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/sweep/artifacts.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "support/error.hh"
#include "verify/tv/tv.hh"
#include "verify/verify.hh"

namespace perfbench
{

namespace
{

using namespace d16sim;
using core::sweep::JobResult;
using core::sweep::JobSpec;
using core::sweep::ProbeKind;
namespace store = core::store;
namespace replay = core::replay;

// ----- traced build -----------------------------------------------------

/**
 * Compile-phase bookkeeping for one mc::compile call. The compiler
 * calls its VerifyHook and PassValidator at stage boundaries; each
 * boundary closes the open phase span, named by the stage that ends
 * it, and opens the next one. Work done inside a hook (IR verifier,
 * translation validation) gets its own span between the two phases.
 */
class CompileTrack
{
  public:
    explicit CompileTrack(Lane *lane) : lane_(lane) {}

    /** Close the open phase as `phaseKey`, then run `check` under a
     *  `checkKey` span (null: nothing to check), then open the next
     *  phase. */
    template <typename Fn>
    void
    boundary(const char *phaseKey, bool afterRegalloc,
             const char *checkKey, const Fn &check)
    {
        lane_->end(phaseKey);
        lastWasRegalloc_ = afterRegalloc;
        ++boundaries_;
        if (checkKey) {
            lane_->begin(checkKey);
            check();
            lane_->end();
        }
        lane_->begin(kOpenPhase);
    }

    /** Phase a verify-hook stage name ends. Without a validator the
     *  compiler has no boundary between register allocation and
     *  emission, so a function's emission then books to regalloc. */
    const char *
    phaseFor(const char *stage) const
    {
        if (std::strcmp(stage, "irgen") == 0) {
            if (boundaries_ == 0)
                return "mc.frontend_s";
            return lastWasRegalloc_ ? "mc.emit_sched_s" : "mc.regalloc_s";
        }
        if (std::strncmp(stage, "opt", 3) == 0)
            return "mc.opt_s";
        if (std::strcmp(stage, "legalize") == 0 ||
            std::strcmp(stage, "lower-calls-abi") == 0)
            return "mc.lower_s";
        return "mc.other_s";
    }

    static constexpr const char *kOpenPhase = "mc.phase";

  private:
    Lane *lane_;
    int boundaries_ = 0;
    bool lastWasRegalloc_ = false;
};

/** Timing decorator around the throwing translation validator. */
class TimedValidator : public mc::PassValidator
{
  public:
    TimedValidator(std::shared_ptr<mc::PassValidator> inner,
                   std::shared_ptr<CompileTrack> track)
        : inner_(std::move(inner)), track_(std::move(track))
    {}

    void
    afterIrPass(const mc::IrFunction &before, const mc::IrFunction &after,
                const char *pass, const mc::MachineEnv *env) override
    {
        track_->boundary(track_->phaseFor(pass), false, "verify.tv_s", [&] {
            inner_->afterIrPass(before, after, pass, env);
        });
        count("verify.tv_checks", 1);
    }

    void
    afterRegalloc(const mc::IrFunction &before, const mc::IrFunction &after,
                  const mc::Allocation &alloc,
                  const mc::MachineEnv &env) override
    {
        track_->boundary("mc.regalloc_s", true, "verify.tv_s", [&] {
            inner_->afterRegalloc(before, after, alloc, env);
        });
        count("verify.tv_checks", 1);
    }

    void
    afterSchedule(const std::vector<assem::AsmItem> &before,
                  const std::vector<assem::AsmItem> &after,
                  const mc::MachineEnv &env) override
    {
        track_->boundary("mc.emit_sched_s", false, "verify.tv_s", [&] {
            inner_->afterSchedule(before, after, env);
        });
        count("verify.tv_checks", 1);
    }

  private:
    std::shared_ptr<mc::PassValidator> inner_;
    std::shared_ptr<CompileTrack> track_;
};

} // namespace

assem::Image
tracedBuild(const std::string &source, const mc::CompileOptions &opts)
{
    Lane *lane = currentLane();
    panicIf(!lane, "perfbench: tracedBuild off a traced lane");
    Span build("core.build_s");

    // As core::build in a release build: verification follows
    // verifyEach, translation validation follows validateEach.
    const bool verifying = opts.verifyEach;
    auto track = std::make_shared<CompileTrack>(lane);
    mc::CompileOptions effective = opts;
    mc::VerifyHook verifier;
    if (verifying) {
        mc::CompileOptions withVerifier = opts;
        verify::installIrVerifier(withVerifier);
        verifier = withVerifier.verifyHook;
    }
    effective.verifyHook = [track, verifier](const mc::IrFunction &fn,
                                             const char *stage,
                                             const mc::MachineEnv *env) {
        track->boundary(track->phaseFor(stage), false,
                        verifier ? "verify.ir_s" : nullptr,
                        [&] { verifier(fn, stage, env); });
    };
    if (opts.validateEach)
        effective.validator = std::make_shared<TimedValidator>(
            verify::tv::makeThrowingValidator(), track);

    const size_t depth = lane->open.size();
    mc::CompileResult comp;
    try {
        lane->begin("mc.other_s");
        lane->begin(CompileTrack::kOpenPhase);
        comp = mc::compile(source, effective);
        lane->end("mc.emit_sched_s");
        lane->end();
    } catch (...) {
        while (lane->open.size() > depth)
            lane->end();
        throw;
    }

    assem::Image img;
    {
        Span s("asm.link_s");
        assem::Assembler as(opts.target());
        as.add(std::move(comp.items));
        img = as.link();
    }
    if (verifying) {
        {
            Span s("verify.lint_s");
            verify::lintImageOrThrow(img, std::string(opts.name()));
        }
        {
            Span s("analysis.cfa_s");
            analysis::analyzeImageOrThrow(img, opts,
                                          std::string(opts.name()));
        }
    }
    return img;
}

namespace
{

// ----- traced sweep -----------------------------------------------------

double
traceBytes(const replay::Trace &t)
{
    return static_cast<double>(t.runs.size() * sizeof(replay::FetchRun) +
                               t.accesses.size() *
                                   sizeof(replay::DataAccess) +
                               t.outcomes.size() *
                                   sizeof(replay::BranchOutcome));
}

core::RunMeasurement
measurement(const sim::Machine &machine, int exitStatus,
            const assem::Image &image)
{
    core::RunMeasurement m;
    m.exitStatus = exitStatus;
    m.output = machine.output();
    m.stats = machine.stats();
    m.sizeBytes = image.sizeBytes();
    m.textBytes = image.textSize;
    m.textInsns = image.textInsns;
    return m;
}

/** Book one simulation's instructions and time by dispatch mode. */
void
countSim(const sim::Machine &machine, int64_t ns)
{
    const double insns = static_cast<double>(machine.stats().instructions);
    const double blocks = static_cast<double>(machine.blockInstructions());
    const bool blockRun = blocks > 0;
    count(blockRun ? "sim.block_insns" : "sim.step_insns", insns);
    count(blockRun ? "sim.block_run_s" : "sim.step_run_s",
          static_cast<double>(ns) * 1e-9);
    count("sim.block_retired", blocks);
    count("sim.insns", insns);
}

/** executeJob, traced. */
JobResult
directJob(const JobSpec &spec, const assem::Image &image,
          std::shared_ptr<const sim::DecodedText> predecoded,
          std::shared_ptr<const sim::BlockProgram> blocks)
{
    Span s("sim.run_s");
    sim::MachineConfig mcfg;
    mcfg.uarch = spec.uarch;
    JobResult r;
    r.probe = spec.probe;
    r.uarch = spec.uarch;
    std::unique_ptr<sim::Probe> probe;
    core::FetchBufferProbe *fb = nullptr;
    core::CacheProbe *cp = nullptr;
    core::ImmediateClassProbe *ic = nullptr;
    switch (spec.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer:
        probe = std::make_unique<core::FetchBufferProbe>(spec.busBytes);
        fb = static_cast<core::FetchBufferProbe *>(probe.get());
        break;
      case ProbeKind::CacheSim:
        probe = std::make_unique<core::CacheProbe>(spec.icache, spec.dcache);
        cp = static_cast<core::CacheProbe *>(probe.get());
        cp->setInsnBytes(image.target->insnBytes());
        break;
      case ProbeKind::ImmClass:
        probe = std::make_unique<core::ImmediateClassProbe>();
        ic = static_cast<core::ImmediateClassProbe *>(probe.get());
        break;
    }

    // core::run: probe runs never get the block program.
    const int64_t t0 = nowNs();
    sim::Machine machine(image, mcfg, std::move(predecoded));
    if (probe)
        machine.addProbe(probe.get());
    else if (blocks)
        machine.setBlockProgram(std::move(blocks));
    const int exitStatus = machine.run();
    countSim(machine, nowNs() - t0);
    r.run = measurement(machine, exitStatus, image);

    if (fb) {
        r.fetch.busBytes = spec.busBytes;
        r.fetch.requests = fb->requests();
        r.fetch.words = fb->words();
    } else if (cp) {
        r.icacheCfg = spec.icache;
        r.dcacheCfg = spec.dcache;
        r.icache = cp->icache().stats();
        r.dcache = cp->dcache().stats();
        count("mem.cache_refs", static_cast<double>(
                                    r.icache.accesses() +
                                    r.dcache.accesses()));
    } else if (ic) {
        r.imm.total = ic->total();
        r.imm.cmpImmediate = ic->cmpImmediate();
        r.imm.aluImmediate = ic->aluImmediate();
        r.imm.memDisplacement = ic->memDisplacement();
    }
    return r;
}

/** replayJob, traced: the branch, fetch-buffer and cache evaluators
 *  each get their own span. */
JobResult
replayedJob(const JobSpec &spec, const replay::Trace &trace)
{
    Span s("replay.job_s");
    JobResult r;
    r.probe = spec.probe;
    r.uarch = spec.uarch;
    r.run = trace.base;
    replay::BranchReplayStats bs;
    {
        Span b("replay.branch_s");
        bs = replay::branchStatsFor(trace, spec.uarch);
    }
    r.run.stats.branchStalls = bs.branchStalls;
    r.run.stats.mispredicts = bs.mispredicts;
    switch (spec.probe) {
      case ProbeKind::None:
      case ProbeKind::ImmClass:
        break;
      case ProbeKind::FetchBuffer: {
        Span f("replay.fetch_s");
        r.fetch.busBytes = spec.busBytes;
        r.fetch.requests = replay::replayFetchRequests(trace, spec.busBytes);
        r.fetch.words = r.fetch.requests * (spec.busBytes / 4);
        break;
      }
      case ProbeKind::CacheSim: {
        Span c("replay.cache_s");
        r.icacheCfg = spec.icache;
        r.dcacheCfg = spec.dcache;
        auto stats = replay::replayCache(trace, spec.icache, spec.dcache);
        r.icache = stats.first;
        r.dcache = stats.second;
        count("mem.cache_refs",
              static_cast<double>(r.icache.accesses() +
                                  r.dcache.accesses()));
        break;
      }
    }
    return r;
}

/** replay::capture, traced (through sim::Machine directly, so the
 *  block-retired share of the capture is visible). */
replay::Trace
captured(const assem::Image &image,
         std::shared_ptr<const sim::DecodedText> predecoded,
         const sim::MachineConfig &config,
         std::shared_ptr<const sim::BlockProgram> blocks)
{
    Span s("replay.capture_s");
    replay::TraceProbe probe(
        static_cast<uint32_t>(image.target->insnBytes()));
    const int64_t t0 = nowNs();
    sim::Machine machine(image, config, std::move(predecoded));
    machine.addProbe(&probe);
    if (blocks) {
        machine.setBlockProgram(std::move(blocks));
        machine.setTraceSink(&probe);
    }
    const int exitStatus = machine.run();
    const double insns = static_cast<double>(machine.stats().instructions);
    count("replay.capture_insns", insns);
    count("replay.capture_run_s", static_cast<double>(nowNs() - t0) * 1e-9);
    count("sim.block_retired",
          static_cast<double>(machine.blockInstructions()));
    count("sim.insns", insns);
    replay::Trace t = probe.take(measurement(machine, exitStatus, image));
    t.capturedUarch = config.uarch;
    count("replay.trace_bytes", traceBytes(t));
    return t;
}

std::string
contentKeyOf(const JobSpec &spec, bool build)
{
    Span k("store.key_s");
    return build ? core::sweep::buildContentKey(spec)
                 : core::sweep::jobContentKey(spec);
}

bool
storeGet(store::ArtifactStore &artifacts, store::Kind kind,
         const std::string &key, std::vector<uint8_t> *bytes)
{
    bool hit;
    {
        Span g("store.get_s");
        hit = artifacts.get(kind, key, bytes);
    }
    if (hit)
        count("store.read_bytes", static_cast<double>(bytes->size()));
    return hit;
}

void
storePut(store::ArtifactStore &artifacts, store::Kind kind,
         const std::string &key, const std::vector<uint8_t> &bytes)
{
    {
        Span p("store.put_s");
        artifacts.put(kind, key, bytes);
    }
    count("store.write_bytes", static_cast<double>(bytes.size()));
}

/** Shared state of one traced sweep. */
struct SweepRun
{
    LanePool &pool;
    store::ArtifactStore *artifacts;
    core::sweep::ResultStore &out;
    std::mutex mutex;
    TracedSweepCounts counts;

    struct Node
    {
        std::vector<JobSpec> runs;
    };
    std::map<std::string, Node> graph;

    void
    bump(int TracedSweepCounts::*field)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++(counts.*field);
    }

    void
    commit(const JobSpec &spec, JobResult result)
    {
        const JobResult *stored;
        {
            Span c("sweep.commit_s");
            stored = &out.put(core::sweep::jobKey(spec), std::move(result));
        }
        if (artifacts) {
            const std::string key = contentKeyOf(spec, false);
            std::vector<uint8_t> bytes;
            {
                Span c("store.row_codec_s");
                bytes = core::sweep::resultBytes(*stored);
            }
            storePut(*artifacts, store::Kind::Result, key, bytes);
        }
    }

    bool
    loadResult(const JobSpec &spec, JobResult *loaded)
    {
        const std::string key = contentKeyOf(spec, false);
        std::vector<uint8_t> bytes;
        count("store.result_lookups", 1);
        if (!storeGet(*artifacts, store::Kind::Result, key, &bytes))
            return false;
        try {
            Span c("store.row_codec_s");
            *loaded = core::sweep::resultFromBytes(bytes);
        } catch (const Error &) {
            return false;
        }
        count("store.result_hits", 1);
        return true;
    }

    void
    submitDirect(const JobSpec *s, std::shared_ptr<const assem::Image> image,
                 std::shared_ptr<const sim::DecodedText> predecoded,
                 std::shared_ptr<const sim::BlockProgram> blocks)
    {
        pool.submit([this, s, image, predecoded, blocks] {
            commit(*s, directJob(*s, *image, predecoded, blocks));
            bump(&TracedSweepCounts::directRuns);
        });
    }

    void
    submitReplay(const JobSpec *s, std::shared_ptr<const replay::Trace> t)
    {
        pool.submit([this, s, t] {
            commit(*s, replayedJob(*s, *t));
            bump(&TracedSweepCounts::replays);
        });
    }

    /** One build node, as SweepEngine::run's node task decides it. */
    void
    runNode(Node *n)
    {
        const JobSpec *baseSpec = nullptr;
        int totalReplayable = 0;
        bool anyDirectProbe = false;
        for (const JobSpec &spec : n->runs) {
            if (spec.probe == ProbeKind::None && !baseSpec)
                baseSpec = &spec;
            if (core::sweep::replayable(spec))
                ++totalReplayable;
            else
                anyDirectProbe = true;
        }
        const std::string contentKey =
            artifacts ? contentKeyOf(n->runs.front(), true) : std::string();

        std::shared_ptr<const replay::Trace> trace;
        if (artifacts && totalReplayable >= 1) {
            std::vector<uint8_t> bytes;
            if (storeGet(*artifacts, store::Kind::Trace, contentKey,
                         &bytes)) {
                try {
                    Span d("replay.trace_decode_s");
                    trace = std::make_shared<const replay::Trace>(
                        replay::Trace::deserialize(bytes));
                    count("replay.trace_bytes", traceBytes(*trace));
                } catch (const Error &) {
                    trace = nullptr;
                }
            }
        }
        const bool capture = !trace && totalReplayable >= 2;
        const bool needImage = !trace || anyDirectProbe;

        std::shared_ptr<const assem::Image> image;
        std::shared_ptr<const sim::DecodedText> predecoded;
        std::shared_ptr<const sim::BlockProgram> blocks;
        if (needImage) {
            bool compiled = false;
            if (artifacts) {
                std::vector<uint8_t> bytes;
                if (storeGet(*artifacts, store::Kind::Image, contentKey,
                             &bytes)) {
                    try {
                        Span d("asm.image_codec_s");
                        image = std::make_shared<const assem::Image>(
                            assem::Image::deserialize(bytes));
                    } catch (const Error &) {
                        image = nullptr;
                    }
                }
            }
            if (!image) {
                const JobSpec &front = n->runs.front();
                image = std::make_shared<const assem::Image>(tracedBuild(
                    core::workload(front.workload).source, front.opts));
                compiled = true;
                if (artifacts) {
                    std::vector<uint8_t> bytes;
                    {
                        Span e("asm.image_codec_s");
                        bytes = image->serialize();
                    }
                    storePut(*artifacts, store::Kind::Image, contentKey,
                             bytes);
                }
            }
            {
                Span p("sim.predecode_s");
                predecoded = std::make_shared<const sim::DecodedText>(*image);
            }
            sim::BlockTable table;
            bool haveTable = false;
            if (artifacts && !compiled) {
                std::vector<uint8_t> bytes;
                if (storeGet(*artifacts, store::Kind::Meta, contentKey,
                             &bytes)) {
                    try {
                        Span d("store.meta_codec_s");
                        table = core::sweep::blockTableFromBytes(bytes);
                        haveTable = true;
                    } catch (const Error &) {
                    }
                }
            }
            if (!haveTable) {
                {
                    Span r("analysis.block_table_s");
                    table = core::recoverBlockTable(*image);
                }
                if (artifacts) {
                    std::vector<uint8_t> bytes;
                    {
                        Span e("store.meta_codec_s");
                        bytes = core::sweep::blockTableBytes(table);
                    }
                    storePut(*artifacts, store::Kind::Meta, contentKey,
                             bytes);
                }
            }
            {
                Span t("sim.block_translate_s");
                blocks = core::makeBlockProgram(*image, predecoded, table);
            }
            if (compiled)
                bump(&TracedSweepCounts::builds);
        }

        if (trace) {
            for (const JobSpec &spec : n->runs) {
                if (spec.probe == ProbeKind::None ||
                    core::sweep::replayable(spec))
                    submitReplay(&spec, trace);
                else
                    submitDirect(&spec, image, predecoded, blocks);
            }
            return;
        }
        if (!capture) {
            for (const JobSpec &spec : n->runs)
                submitDirect(&spec, image, predecoded, blocks);
            return;
        }
        pool.submit([this, n, image, predecoded, blocks, baseSpec,
                     contentKey] {
            sim::MachineConfig captureCfg;
            captureCfg.uarch = n->runs.front().uarch.captureConfig();
            auto t = std::make_shared<const replay::Trace>(
                captured(*image, predecoded, captureCfg, blocks));
            bump(&TracedSweepCounts::captures);
            if (artifacts) {
                std::vector<uint8_t> bytes;
                {
                    Span e("replay.trace_encode_s");
                    bytes = t->serialize();
                }
                storePut(*artifacts, store::Kind::Trace, contentKey, bytes);
            }
            if (baseSpec)
                commit(*baseSpec, replayedJob(*baseSpec, *t));
            for (const JobSpec &spec : n->runs) {
                if (&spec == baseSpec)
                    continue;
                if (core::sweep::replayable(spec))
                    submitReplay(&spec, t);
                else
                    submitDirect(&spec, image, predecoded, blocks);
            }
        });
    }
};

} // namespace

TracedSweepCounts
tracedSweep(LanePool &pool, const std::vector<JobSpec> &jobs,
            store::ArtifactStore *artifacts, core::sweep::ResultStore &out)
{
    SweepRun run{pool, artifacts, out, {}, {}, {}};
    pool.submit([&run, &jobs] {
        std::map<std::string, JobSpec> unique;
        {
            Span plan("sweep.plan_s");
            for (const JobSpec &spec : jobs) {
                const std::string key = core::sweep::jobKey(spec);
                if (!run.out.contains(key))
                    unique.emplace(key, spec);
            }
        }
        if (run.artifacts) {
            for (auto it = unique.begin(); it != unique.end();) {
                JobResult loaded;
                if (run.loadResult(it->second, &loaded)) {
                    {
                        Span c("sweep.commit_s");
                        run.out.put(it->first, std::move(loaded));
                    }
                    run.bump(&TracedSweepCounts::resultHits);
                    it = unique.erase(it);
                } else {
                    ++it;
                }
            }
        }
        {
            Span plan("sweep.plan_s");
            for (auto &[key, spec] : unique)
                run.graph[core::sweep::buildKey(spec)].runs.push_back(
                    std::move(spec));
        }
        for (auto &[bkey, node] : run.graph) {
            SweepRun::Node *n = &node;
            run.pool.submit([&run, n] { run.runNode(n); });
        }
    });
    pool.wait();
    return run.counts;
}

} // namespace perfbench
