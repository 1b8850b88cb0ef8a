#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

#include "bench.hh"
#include "core/store/store.hh"
#include "core/sweep/artifacts.hh"
#include "core/workloads.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "traced.hh"

namespace perfbench
{

namespace
{

using namespace d16sim;
using core::sweep::JobSpec;
using core::sweep::SweepTiming;
namespace fs = std::filesystem;

Json
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read ", path);
    std::stringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
}

SweepCounts
countsOf(const SweepTiming &t)
{
    return {t.executedBuilds, t.capturedTraces,
            t.executedRuns - t.replayedRuns, t.replayedRuns,
            t.storeResultHits};
}

SweepCounts
countsOf(const TracedSweepCounts &c)
{
    return {c.builds, c.captures, c.directRuns + c.captures, c.replays,
            c.resultHits};
}

void
accumulate(SweepTiming &sum, const SweepTiming &t)
{
    sum.executedRuns += t.executedRuns;
    sum.executedBuilds += t.executedBuilds;
    sum.replayedRuns += t.replayedRuns;
    sum.capturedTraces += t.capturedTraces;
    sum.storeResultHits += t.storeResultHits;
    sum.storeImageHits += t.storeImageHits;
    sum.storeTraceHits += t.storeTraceHits;
    sum.storeMisses += t.storeMisses;
    sum.simulatedInstructions += t.simulatedInstructions;
    sum.wallSeconds += t.wallSeconds;
    sum.buildSeconds += t.buildSeconds;
    sum.simulateSeconds += t.simulateSeconds;
    sum.replaySeconds += t.replaySeconds;
}

/** Emit the canonical sweep document, as d16sweep --json does. */
void
emit(const core::sweep::ResultStore &rs, Output &out)
{
    const int64_t t0 = nowNs();
    Json doc = core::sweep::sweepJson(rs, nullptr);
    out.texts.push_back(doc.dump());
    out.jsonSeconds += static_cast<double>(nowNs() - t0) * 1e-9;
    out.docs.push_back(std::move(doc));
}

/** One sweep through SweepEngine::run. */
void
engineSweep(const std::vector<JobSpec> &jobs, int threads,
            core::store::ArtifactStore *artifacts, Output &out)
{
    core::sweep::ResultStore rs;
    core::sweep::SweepEngine engine(rs, threads);
    engine.setArtifacts(artifacts);
    engine.add(jobs);
    try {
        engine.run();
    } catch (const Error &e) {
        out.errors.push_back(e.what());
    }
    out.engineThreads = threads;
    accumulate(out.timing, engine.timing());
    out.sweeps.push_back(countsOf(engine.timing()));
    emit(rs, out);
}

/** One sweep through the traced path, sweepJson included. */
void
tracedEngineSweep(LanePool &pool, const std::vector<JobSpec> &jobs,
                  core::store::ArtifactStore *artifacts, Output &out)
{
    core::sweep::ResultStore rs;
    try {
        out.sweeps.push_back(
            countsOf(tracedSweep(pool, jobs, artifacts, rs)));
    } catch (const Error &e) {
        out.errors.push_back(e.what());
        out.sweeps.push_back({});
    }
    pool.submit([&rs, &out] {
        Span s("sweep.json_s");
        emit(rs, out);
    });
    pool.wait();
}

/** First integer leaf of a JSON value, for the row-tamper self test. */
Json *
firstInt(Json &j)
{
    if (j.isInt())
        return &j;
    if (j.isObject()) {
        for (const auto &[k, v] : j.members()) {
            (void)v;
            if (Json *leaf = firstInt(j[k]))
                return leaf;
        }
    }
    return nullptr;
}

/** Alter one result row (the first one `golden` also has, if any). */
void
tamperRow(Json &doc, const Json *golden)
{
    Json &results = doc["results"];
    std::string key = results.members().begin()->first;
    if (golden) {
        for (const auto &[k, v] : golden->find("results")->members()) {
            (void)v;
            if (results.find(k)) {
                key = k;
                break;
            }
        }
    }
    Json *leaf = firstInt(results[key]);
    panicIf(!leaf, "perfbench: no integer field to tamper with");
    *leaf = Json(leaf->asInt() + 1);
}

/** Compare the rows both documents have; a golden file covers a
 *  slice of the benchmark's matrix. */
void
checkGolden(const Json &doc, const Json &golden, const std::string &name,
            std::vector<std::string> &failures)
{
    Json got = Json::object(), want = Json::object();
    got["schema"] = *doc.find("schema");
    want["schema"] = *golden.find("schema");
    Json gotRows = Json::object(), wantRows = Json::object();
    const Json &rows = *doc.find("results");
    for (const auto &[k, v] : golden.find("results")->members()) {
        if (const Json *g = rows.find(k)) {
            gotRows[k] = *g;
            wantRows[k] = v;
        }
    }
    if (wantRows.size() == 0) {
        failures.push_back(name + ": no rows in common");
        return;
    }
    got["results"] = gotRows;
    want["results"] = wantRows;
    std::string diff;
    if (!core::sweep::compareSweeps(got, want, &diff))
        failures.push_back(name + " mismatch:\n" + diff);
}

void
checkDigest(const std::string &text, const Context &ctx,
            std::vector<std::string> &failures)
{
    std::string want = ctx.referenceDigest;
    if (ctx.tamper == "digest" && !want.empty())
        want[0] = want[0] == '0' ? '1' : '0';
    const std::string got = sha256Hex(text);
    if (got != want)
        failures.push_back("digest " + got + " != reference " +
                           (want.empty() ? "(none)" : want));
}

int
countImages(const std::vector<JobSpec> &jobs)
{
    std::set<std::string> images;
    for (const JobSpec &s : jobs)
        images.insert(s.workload + "|" + core::sweep::variantKey(s.opts));
    return static_cast<int>(images.size());
}

/** The end of every storeless set-up: build and run one small job, so
 *  the timed rounds start with code, allocator and caches warm. */
std::string
warmUpError(const mc::CompileOptions &opts)
{
    try {
        const assem::Image img =
            core::build(core::workload("queens").source, opts);
        if (core::run(img).exitStatus != 0)
            return "warm-up run of queens failed";
    } catch (const Error &e) {
        return std::string("warm-up: ") + e.what();
    }
    return {};
}

// ----- sweep workloads (paper-matrix, uarch-sweep) ----------------------

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const Context &ctx, int threads, std::string golden,
                  std::vector<JobSpec> (*jobs)())
        : ctx_(ctx), threads_(threads), goldenPath_(std::move(golden)),
          makeJobs_(jobs)
    {}

    int threads() const override { return threads_; }

    void
    setup() override
    {
        golden_ = readJson(ctx_.root + "/" + goldenPath_);
        jobs_ = makeJobs_();
        permute(jobs_, ctx_.seed);
        images_ = countImages(jobs_);
        setupErrors_.clear();
        if (std::string e = warmUpError(mc::CompileOptions::d16()); !e.empty())
            setupErrors_.push_back(e);
    }

    std::vector<std::string> checkSetup() override { return setupErrors_; }

    Output
    round(int) override
    {
        Output out;
        engineSweep(jobs_, threads_, nullptr, out);
        return out;
    }

    Output
    tracedRound(int, LanePool &pool) override
    {
        Output out;
        tracedEngineSweep(pool, jobs_, nullptr, out);
        return out;
    }

    std::vector<std::string>
    check(Output &out) override
    {
        std::vector<std::string> failures = out.errors;
        Json &doc = out.docs.at(0);
        if (ctx_.tamper == "row") {
            tamperRow(doc, &golden_);
            out.texts.at(0) = doc.dump();
        }
        checkGolden(doc, golden_, goldenPath_, failures);
        checkDigest(out.texts.at(0), ctx_, failures);
        return failures;
    }

    int distinctImages() const override { return images_; }

  private:
    const Context &ctx_;
    int threads_;
    std::string goldenPath_;
    std::vector<JobSpec> (*makeJobs_)();
    std::vector<std::string> setupErrors_;
    Json golden_;
    std::vector<JobSpec> jobs_;
    int images_ = 0;
};

/** The six machines of uarchSmokeMatrix() over a slice of the suite on
 *  D16 and DLXe. The smoke matrix itself covers bubblesort, queens and
 *  towers (every row of its golden file) plus its probe jobs; pi (the
 *  longest run), grep and quicksort are added so step() simulation
 *  dominates a round of a few seconds. */
std::vector<JobSpec>
uarchJobs()
{
    const std::vector<std::string> configs = {
        "fwd=on",  "bp=static", "bp=bimodal6",
        "bp=bimodal2", "depth=7", "fwd=on,bp=bimodal6,depth=7",
    };
    std::vector<JobSpec> jobs = core::sweep::uarchSmokeMatrix();
    for (const char *name : {"pi", "grep", "quicksort"})
        for (const auto &opts : {mc::CompileOptions::d16(),
                                 mc::CompileOptions::dlxe()})
            for (const std::string &cfg : configs) {
                JobSpec s = JobSpec::base(name, opts);
                s.uarch = core::sweep::parseUarch(cfg);
                jobs.push_back(std::move(s));
            }
    return jobs;
}

// ----- check-build --------------------------------------------------------

class CheckBuildWorkload : public Workload
{
  public:
    explicit CheckBuildWorkload(const Context &ctx) : ctx_(ctx) {}

    int threads() const override { return 1; }

    void
    setup() override
    {
        jobs_.clear();
        for (const core::Workload &w : core::workloadSuite())
            for (const auto &[label, opts] : core::sweep::paperVariants())
                for (int level : {0, 1, 2}) {
                    mc::CompileOptions o = opts;
                    o.optLevel = level;
                    o.verifyEach = true;
                    o.validateEach = true;
                    jobs_.push_back(JobSpec::base(w.name, o));
                }
        permute(jobs_, ctx_.seed);
        setupErrors_.clear();
        mc::CompileOptions checked = mc::CompileOptions::d16();
        checked.verifyEach = true;
        checked.validateEach = true;
        if (std::string e = warmUpError(checked); !e.empty())
            setupErrors_.push_back(e);
    }

    std::vector<std::string> checkSetup() override { return setupErrors_; }

    Output
    round(int) override
    {
        Output out;
        Json images = Json::object();
        for (const JobSpec &job : jobs_) {
            try {
                const assem::Image img =
                    core::build(core::workload(job.workload).source,
                                job.opts);
                images[core::sweep::jobKey(job)] = Json(digest(img));
            } catch (const Error &e) {
                out.errors.push_back(core::sweep::jobKey(job) + ": " +
                                     e.what());
            }
        }
        out.timing.executedBuilds = static_cast<int>(jobs_.size());
        finish(std::move(images), out);
        return out;
    }

    Output
    tracedRound(int, LanePool &pool) override
    {
        Output out;
        Json images = Json::object();
        pool.submit([this, &images, &out] {
            for (const JobSpec &job : jobs_) {
                try {
                    const assem::Image img = tracedBuild(
                        core::workload(job.workload).source, job.opts);
                    Span s("asm.image_codec_s");
                    images[core::sweep::jobKey(job)] = Json(digest(img));
                } catch (const Error &e) {
                    out.errors.push_back(core::sweep::jobKey(job) + ": " +
                                         e.what());
                }
            }
        });
        pool.wait();
        finish(std::move(images), out);
        return out;
    }

    std::vector<std::string>
    check(Output &out) override
    {
        std::vector<std::string> failures = out.errors;
        Json &doc = out.docs.at(0);
        if (ctx_.tamper == "row") {
            tamperImage(doc);
            out.texts.at(0) = doc.dump();
        }
        if (doc.find("images")->size() != jobs_.size())
            failures.push_back("built " +
                               std::to_string(doc.find("images")->size()) +
                               " of " + std::to_string(jobs_.size()) +
                               " images");
        checkDigest(out.texts.at(0), ctx_, failures);
        return failures;
    }

    int distinctImages() const override { return countImages(jobs_); }

  private:
    static std::string
    digest(const assem::Image &img)
    {
        const std::vector<uint8_t> bytes = img.serialize();
        return sha256Hex(std::string_view(
            reinterpret_cast<const char *>(bytes.data()), bytes.size()));
    }

    static void
    finish(Json images, Output &out)
    {
        Json doc = Json::object();
        doc["schema"] = Json("perfbench-images-v1");
        doc["images"] = std::move(images);
        out.texts.push_back(doc.dump());
        out.docs.push_back(std::move(doc));
    }

    static void
    tamperImage(Json &doc)
    {
        Json &images = doc["images"];
        if (images.size() == 0)
            return;
        Json &first = images[images.members().begin()->first];
        std::string h = first.asString();
        h[0] = h[0] == '0' ? '1' : '0';
        first = Json(h);
    }

    const Context &ctx_;
    std::vector<JobSpec> jobs_;
    std::vector<std::string> setupErrors_;
};

// ----- store-reuse --------------------------------------------------------

class StoreReuseWorkload : public Workload
{
  public:
    explicit StoreReuseWorkload(const Context &ctx) : ctx_(ctx) {}

    ~StoreReuseWorkload() override { dropStore(); }

    int threads() const override { return 1; }
    int setupRepeats() const override { return 3; }

    /** Cold-fill a fresh store with base + fb4/fb8 jobs for the whole
     *  suite on D16 and DLXe. */
    void
    setup() override
    {
        jobs_.clear();
        nodes_.clear();
        for (const core::Workload &w : core::workloadSuite()) {
            for (const auto &opts : {mc::CompileOptions::d16(),
                                     mc::CompileOptions::dlxe()}) {
                jobs_.push_back(JobSpec::base(w.name, opts));
                nodes_.push_back({JobSpec::fetch(w.name, opts, 4),
                                  JobSpec::fetch(w.name, opts, 8)});
                jobs_.push_back(nodes_.back()[0]);
                jobs_.push_back(nodes_.back()[1]);
            }
        }
        permute(jobs_, ctx_.seed);
        live_ = core::sweep::liveKeys(jobs_);

        dropStore();
        dir_ = ctx_.outDir + "/store-" + std::to_string(getpid()) + "-" +
               std::to_string(setups_++);
        fs::remove_all(dir_);
        store_ = std::make_unique<core::store::ArtifactStore>(dir_);
        Output out;
        engineSweep(jobs_, 1, store_.get(), out);
        setupErrors_ = out.errors;
        setupCounts_ = out.sweeps.at(0);
        setupText_ = out.texts.at(0);
    }

    std::vector<std::string>
    checkSetup() override
    {
        std::vector<std::string> failures = setupErrors_;
        if (setupCounts_.builds != static_cast<int>(nodes_.size()) ||
            setupCounts_.captures != static_cast<int>(nodes_.size()))
            failures.push_back("cold fill did not build and capture "
                               "every node once");
        checkDigest(setupText_, ctx_, failures);
        return failures;
    }

    Output
    round(int index) override
    {
        Output out;
        out.gcRemoved = evict(index);
        engineSweep(jobs_, 1, store_.get(), out);
        engineSweep(jobs_, 1, store_.get(), out);
        return out;
    }

    Output
    tracedRound(int index, LanePool &pool) override
    {
        Output out;
        pool.submit([this, index, &out] {
            Span s("store.gc_s");
            out.gcRemoved = evict(index);
        });
        pool.wait();
        tracedEngineSweep(pool, jobs_, store_.get(), out);
        tracedEngineSweep(pool, jobs_, store_.get(), out);
        return out;
    }

    std::vector<std::string>
    check(Output &out) override
    {
        std::vector<std::string> failures = out.errors;
        const int evicted = static_cast<int>(nodes_.size());
        if (ctx_.tamper == "row") {
            tamperRow(out.docs.at(0), nullptr);
            out.texts.at(0) = out.docs.at(0).dump();
        }
        if (out.gcRemoved != evicted)
            failures.push_back("gc removed " +
                               std::to_string(out.gcRemoved) + " rows, want " +
                               std::to_string(evicted));
        const SweepCounts &re = out.sweeps.at(0);
        if (re.builds || re.captures || re.simulations ||
            re.replays != evicted ||
            re.resultHits != static_cast<int>(jobs_.size()) - evicted)
            failures.push_back("re-derive sweep built, simulated, or "
                               "missed the store");
        const SweepCounts &warm = out.sweeps.at(1);
        if (warm.builds || warm.captures || warm.simulations ||
            warm.replays ||
            warm.resultHits != static_cast<int>(jobs_.size()))
            failures.push_back("warm sweep was not fully warm");
        const char *names[] = {"re-derive", "warm"};
        for (size_t i = 0; i < 2; ++i)
            if (out.texts.at(i) != setupText_)
                failures.push_back(std::string(names[i]) +
                                   " sweep differs from the set-up sweep");
        return failures;
    }

    int distinctImages() const override { return countImages(jobs_); }

  private:
    /** gc one seeded probe row per build node (fb4 or fb8); the count
     *  is the node count every round. */
    int
    evict(int index)
    {
        auto live = live_;
        std::vector<uint8_t> pick(nodes_.size());
        for (size_t i = 0; i < pick.size(); ++i)
            pick[i] = static_cast<uint8_t>(i % 2);
        permute(pick, ctx_.seed * 1000003ull + static_cast<uint64_t>(index));
        for (size_t i = 0; i < nodes_.size(); ++i)
            live[core::store::Kind::Result].erase(
                core::sweep::jobContentKey(nodes_[i][pick[i]]));
        return static_cast<int>(store_->gc(live).removed);
    }

    void
    dropStore()
    {
        store_.reset();
        if (!dir_.empty())
            fs::remove_all(dir_);
        dir_.clear();
    }

    const Context &ctx_;
    std::vector<JobSpec> jobs_;
    std::vector<std::vector<JobSpec>> nodes_;  //!< {fb4, fb8} per node
    std::map<core::store::Kind, std::set<std::string>> live_;
    std::unique_ptr<core::store::ArtifactStore> store_;
    std::string dir_;
    int setups_ = 0;
    std::vector<std::string> setupErrors_;
    SweepCounts setupCounts_;
    std::string setupText_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-matrix", "uarch-sweep", "check-build", "store-reuse"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "paper-matrix")
        return std::make_unique<SweepWorkload>(
            ctx, 2, "tests/golden/sweep_golden.json",
            &core::sweep::fullMatrix);
    if (name == "uarch-sweep")
        return std::make_unique<SweepWorkload>(
            ctx, 1, "tests/golden/sweep_uarch_golden.json", &uarchJobs);
    if (name == "check-build")
        return std::make_unique<CheckBuildWorkload>(ctx);
    if (name == "store-reuse")
        return std::make_unique<StoreReuseWorkload>(ctx);
    return nullptr;
}

} // namespace perfbench
