/**
 * @file
 * perfbench — the repository's benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--out DIR] [--reference FILE]
 *             [--tamper row|digest] [--update-reference]
 *   perfbench --list-metrics
 *
 * Sets the workload up several times (set-up time is the median), then
 * runs timed rounds for S seconds, checking every round's output. With
 * --trace 1 it then runs one more round through the traced path and
 * reports per-layer metrics instead of end-to-end ones. The last line
 * of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * The line before it records the run: seed, host facts, start time,
 * every round's wall time. See perfbench/README.md.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "bench.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "traced.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
utcNow()
{
    const std::time_t t = std::time(nullptr);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&t));
    return buf;
}

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
    std::string out;
    std::string reference;
    std::string tamper;
    bool updateReference = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       [--root DIR] [--out DIR] [--reference FILE]\n"
                 "       [--tamper row|digest] [--update-reference]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (flag == "--root")
                a.root = value();
            else if (flag == "--out")
                a.out = value();
            else if (flag == "--reference")
                a.reference = value();
            else if (flag == "--tamper")
                a.tamper = value();
            else if (flag == "--update-reference")
                a.updateReference = true;
            else
                usage("unknown option " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!a.tamper.empty() && a.tamper != "row" && a.tamper != "digest")
        usage("--tamper takes row or digest");
    if (a.out.empty())
        a.out = a.root + "/.bench_out";
    if (a.reference.empty())
        a.reference = a.root + "/perfbench/reference.json";
    return a;
}

Json
readReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Json::object();
    std::stringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
}

/** The metric table; BENCHMARK.json lists the same names (the
 *  benchmark's tests check that). */
struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sweep.build_s", "s"},
    {"sweep.simulate_s", "s"},
    {"sweep.replay_s", "s"},
    {"sweep.unbooked_s", "s"},
    {"sweep.pool_busy_ratio", "ratio"},
    {"sweep.builds_per_image", "ratio"},
    {"sweep.json_s", "s"},
    {"mc.compile_s", "s"},
    {"mc.frontend_s", "s"},
    {"mc.opt_s", "s"},
    {"mc.lower_s", "s"},
    {"mc.regalloc_s", "s"},
    {"mc.emit_sched_s", "s"},
    {"asm.link_s", "s"},
    {"verify.ir_s", "s"},
    {"verify.tv_s", "s"},
    {"verify.tv_checks", "count"},
    {"verify.lint_s", "s"},
    {"analysis.cfa_s", "s"},
    {"analysis.block_table_s", "s"},
    {"sim.predecode_s", "s"},
    {"sim.block_translate_s", "s"},
    {"sim.run_s", "s"},
    {"sim.block_mips", "Minsn/s"},
    {"sim.step_mips", "Minsn/s"},
    {"sim.block_share", "ratio"},
    {"sim.minsn", "count"},
    {"replay.capture_s", "s"},
    {"replay.capture_mips", "Minsn/s"},
    {"replay.cache_s", "s"},
    {"replay.cache_ns_per_ref_cfg", "ns"},
    {"replay.fetch_s", "s"},
    {"replay.branch_s", "s"},
    {"replay.trace_encode_s", "s"},
    {"replay.trace_decode_s", "s"},
    {"replay.trace_mb", "MB"},
    {"store.get_s", "s"},
    {"store.put_s", "s"},
    {"store.hash_s", "s"},
    {"store.row_codec_s", "s"},
    {"store.gc_s", "s"},
    {"store.read_mb", "MB"},
    {"store.write_mb", "MB"},
    {"store.result_hit_ratio", "ratio"},
    {"mem.cache_refs", "count"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** `key`'s value, or 0 when absent. */
double
valueOf(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** Sum of the values whose key starts with `prefix`. */
double
prefixSum(const std::map<std::string, double> &m, const std::string &prefix)
{
    double total = 0;
    for (const auto &[k, v] : m)
        if (k.compare(0, prefix.size(), prefix) == 0)
            total += v;
    return total;
}

/** Busy lane time: every self time except the lanes' unattributed. */
double
busySeconds(const Tracer::Summary &sum)
{
    return sum.selfSeconds - valueOf(sum.self, kUnattributed);
}

/** SHA-256 time over `bytes` bytes: the share of ArtifactStore get/put
 *  spent hashing (they hash internally, with no seam to time it in
 *  place; SHA-256 cost does not depend on the data). */
double
hashSeconds(double bytes)
{
    if (bytes <= 0)
        return 0;
    std::vector<uint8_t> buf(1 << 20, 0x5a);
    const int64_t t0 = nowNs();
    double left = bytes;
    d16sim::Sha256 h;
    while (left > 0) {
        const size_t n = static_cast<size_t>(
            std::min<double>(left, static_cast<double>(buf.size())));
        h.update(buf.data(), n);
        left -= static_cast<double>(n);
    }
    (void)h.hex();
    return seconds(nowNs() - t0);
}

/** Per-layer metrics: engine timing from the untraced round, every
 *  other layer from the traced round's spans. */
std::map<std::string, double>
perLayer(const Output &untraced, const Workload &wl,
         const Tracer::Summary &sum, double tracedWall,
         double untracedMedian)
{
    std::map<std::string, double> m;
    auto self = [&sum](const std::string &key) {
        return valueOf(sum.self, key);
    };
    auto cnt = [&sum](const std::string &key) {
        return valueOf(sum.counts, key);
    };

    const auto &t = untraced.timing;
    const double lanes = std::max(1, untraced.engineThreads);
    m["sweep.build_s"] = t.buildSeconds;
    m["sweep.simulate_s"] = t.simulateSeconds;
    m["sweep.replay_s"] = t.replaySeconds;
    m["sweep.unbooked_s"] = t.wallSeconds * lanes - t.busySeconds();
    m["sweep.pool_busy_ratio"] =
        ratio(t.busySeconds(), t.wallSeconds * lanes);
    m["sweep.builds_per_image"] =
        ratio(t.executedBuilds, wl.distinctImages());
    m["sweep.json_s"] = untraced.jsonSeconds;

    m["mc.compile_s"] = prefixSum(sum.self, "mc.");
    for (const char *k : {"mc.frontend_s", "mc.opt_s", "mc.lower_s",
                          "mc.regalloc_s", "mc.emit_sched_s", "asm.link_s",
                          "verify.ir_s", "verify.tv_s", "verify.lint_s",
                          "analysis.cfa_s", "analysis.block_table_s",
                          "sim.predecode_s", "sim.block_translate_s",
                          "sim.run_s", "replay.capture_s", "replay.cache_s",
                          "replay.fetch_s", "replay.branch_s",
                          "replay.trace_encode_s", "replay.trace_decode_s",
                          "store.get_s", "store.put_s", "store.row_codec_s",
                          "store.gc_s"})
        m[k] = self(k);
    m["verify.tv_checks"] = cnt("verify.tv_checks");
    m["sim.block_mips"] =
        ratio(cnt("sim.block_insns"), cnt("sim.block_run_s")) / 1e6;
    m["sim.step_mips"] =
        ratio(cnt("sim.step_insns"), cnt("sim.step_run_s")) / 1e6;
    m["sim.block_share"] = ratio(cnt("sim.block_retired"), cnt("sim.insns"));
    m["sim.minsn"] = cnt("sim.insns") / 1e6;
    m["replay.capture_mips"] =
        ratio(cnt("replay.capture_insns"), cnt("replay.capture_run_s")) /
        1e6;
    m["replay.cache_ns_per_ref_cfg"] =
        ratio(self("replay.cache_s") * 1e9, cnt("mem.cache_refs"));
    m["replay.trace_mb"] = cnt("replay.trace_bytes") / 1e6;
    m["store.read_mb"] = cnt("store.read_bytes") / 1e6;
    m["store.write_mb"] = cnt("store.write_bytes") / 1e6;
    m["store.hash_s"] =
        hashSeconds(cnt("store.read_bytes") + cnt("store.write_bytes"));
    m["store.result_hit_ratio"] =
        ratio(cnt("store.result_hits"), cnt("store.result_lookups"));
    m["mem.cache_refs"] = cnt("mem.cache_refs");
    m["trace.wall_s"] = tracedWall;
    m["trace.unattributed_s"] = self(kUnattributed);
    m["trace.overhead_s"] = tracedWall - untracedMedian;
    return m;
}

/** Layer totals as shares of busy lane time, for the run record. */
Json
layerShares(const Tracer::Summary &sum)
{
    std::map<std::string, double> layers;
    for (const auto &[k, v] : sum.self)
        if (k != kUnattributed)
            layers[k.substr(0, k.find('.'))] += v;
    Json j = Json::object();
    for (const auto &[k, v] : layers)
        j[k] = Json(ratio(v, busySeconds(sum)));
    return j;
}

/** The groups the benchmark's layer-dominance claims are stated in
 *  (README.md), as shares of busy lane time. */
Json
claimShares(const Tracer::Summary &sum)
{
    const double busy = busySeconds(sum);
    auto self = [&sum](const char *key) { return valueOf(sum.self, key); };
    auto share = [busy](double seconds) { return Json(ratio(seconds, busy)); };
    Json j = Json::object();
    j["replay_eval"] = share(self("replay.job_s") + self("replay.branch_s") +
                             self("replay.fetch_s") + self("replay.cache_s"));
    j["simulation"] =
        share(prefixSum(sum.self, "sim.") + self("replay.capture_s"));
    j["step_simulation"] = share(valueOf(sum.counts, "sim.step_run_s"));
    j["compile_checks"] =
        share(prefixSum(sum.self, "mc.") + prefixSum(sum.self, "verify.") +
              prefixSum(sum.self, "analysis."));
    j["store_io"] = share(self("store.get_s") + self("store.put_s") +
                          self("store.row_codec_s") + self("store.gc_s"));
    return j;
}

Json
selfTimes(const Tracer::Summary &sum)
{
    Json j = Json::object();
    for (const auto &[k, v] : sum.self)
        j[k] = Json(v);
    return j;
}

Json
metricsJson(const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    Json j = Json::object();
    for (const MetricDef &d : defs) {
        Json v = Json::object();
        v["value"] = Json(values.at(d.name));
        v["unit"] = Json(d.unit);
        j[d.name] = v;
    }
    return j;
}

Json
strings(const std::vector<std::string> &v)
{
    Json j = Json::array();
    for (const std::string &s : v)
        j.push(Json(s));
    return j;
}

Json
numbers(const std::vector<double> &v)
{
    Json j = Json::array();
    for (double d : v)
        j.push(Json(d));
    return j;
}

/** --list-metrics: the workload and metric tables, as JSON. */
void
listMetrics()
{
    Json j = Json::object();
    j["workloads"] = strings(workloadNames());
    for (const auto &[key, defs] :
         {std::pair{"end_to_end", &kEndToEnd},
          std::pair{"per_layer", &kPerLayer}}) {
        Json list = Json::array();
        for (const MetricDef &d : *defs) {
            Json m = Json::object();
            m["name"] = Json(d.name);
            m["unit"] = Json(d.unit);
            list.push(m);
        }
        j[key] = list;
    }
    std::printf("%s\n", j.dump(2).c_str());
}

int
run(const Args &args, int64_t processStart)
{
    Context ctx;
    ctx.seed = args.seed;
    ctx.root = args.root;
    ctx.outDir = args.out;
    ctx.tamper = args.tamper;
    std::filesystem::create_directories(ctx.outDir);
    Json reference = readReference(args.reference);
    if (const Json *d = reference.find(args.workload))
        ctx.referenceDigest = d->asString();

    std::unique_ptr<Workload> wl = makeWorkload(args.workload, ctx);
    if (!wl)
        usage("unknown workload " + args.workload);

    Json record = Json::object();
    record["workload"] = Json(args.workload);
    record["seed"] = Json(static_cast<int64_t>(args.seed));
    record["trace"] = Json(args.trace);
    record["start_utc"] = Json(utcNow());
    Json host = Json::object();
    host["nproc"] = Json(static_cast<int>(std::thread::hardware_concurrency()));
    host["compiler"] = Json(__VERSION__);
    host["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    record["host"] = host;

    // Set-up, several times; the first repeat counts from process start.
    std::vector<double> setups;
    for (int i = 0; i < wl->setupRepeats(); ++i) {
        const int64_t t0 = i == 0 ? processStart : nowNs();
        wl->setup();
        setups.push_back(seconds(nowNs() - t0));
    }

    // Timed rounds: start another while it would end within half a
    // round of the window, so the round count is stable when a round
    // takes about S/k seconds.
    std::vector<double> walls, cpus, starts;
    std::vector<std::string> failures;
    std::vector<Output> outputs;
    int attempted = 0, failed = 0;
    const int64_t window = nowNs();
    const double budget = args.seconds;
    std::vector<std::string> setupFailures;
    while (walls.empty() ||
           seconds(nowNs() - window) + median(walls) / 2 <= budget) {
        starts.push_back(seconds(nowNs() - window));
        const double cpu0 = cpuSeconds();
        const int64_t t0 = nowNs();
        Output out = wl->round(static_cast<int>(walls.size()));
        walls.push_back(seconds(nowNs() - t0));
        cpus.push_back(cpuSeconds() - cpu0);
        if (walls.size() == 1) {
            if (args.updateReference) {
                ctx.referenceDigest = d16sim::sha256Hex(out.texts.at(0));
                reference[args.workload] = Json(ctx.referenceDigest);
                std::ofstream(args.reference) << reference.dump(2) << "\n";
            }
            setupFailures = wl->checkSetup();
        }
        std::vector<std::string> f = wl->check(out);
        f.insert(f.end(), setupFailures.begin(), setupFailures.end());
        ++attempted;
        if (!f.empty()) {
            ++failed;
            failures.insert(failures.end(), f.begin(), f.end());
        }
        out.docs.clear();  // keep texts and timing, drop the trees
        outputs.push_back(std::move(out));
    }
    const double wallMedian = median(walls);
    // The untraced round whose wall is the median books the engine's
    // per-phase timing.
    size_t medianRound = 0;
    for (size_t i = 0; i < walls.size(); ++i)
        if (std::abs(walls[i] - wallMedian) <
            std::abs(walls[medianRound] - wallMedian))
            medianRound = i;

    record["setup_s"] = numbers(setups);
    record["round_start_s"] = numbers(starts);
    record["round_wall_s"] = numbers(walls);
    record["round_cpu_s"] = numbers(cpus);

    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = &kEndToEnd;
    if (!args.trace) {
        values["wall_s"] = wallMedian;
        values["cpu_s"] = median(cpus);
        values["peak_rss_mb"] = peakRssMb();
        values["setup_s"] = median(setups);
    } else {
        Tracer tracer;
        const int64_t epoch = nowNs();
        Output out;
        {
            LanePool pool(tracer, wl->threads());
            out = wl->tracedRound(static_cast<int>(walls.size()), pool);
        }
        const double tracedWall = seconds(nowNs() - epoch);
        std::vector<std::string> f = wl->check(out);
        if (out.texts != outputs.back().texts)
            f.push_back("traced round output differs from the untraced "
                        "round's");
        const Tracer::Summary sum = tracer.summarize();
        const double lanesWall = tracedWall * sum.lanes;
        // Self times (roots included) tile the lanes exactly; the lanes
        // start after, and end before, the round's own clock.
        const double tolerance = 0.005;
        if (std::abs(sum.selfSeconds - sum.laneSeconds) > 1e-6 ||
            sum.laneSeconds > lanesWall ||
            sum.laneSeconds < lanesWall * (1 - tolerance))
            f.push_back("traced layer times do not reconcile with wall");
        ++attempted;
        if (!f.empty()) {
            ++failed;
            failures.insert(failures.end(), f.begin(), f.end());
        }
        const std::string tracePath = ctx.outDir + "/trace-" +
                                      args.workload + "-" +
                                      std::to_string(args.seed) + ".json";
        tracer.writeChrome(tracePath, "perfbench " + args.workload, epoch);
        values = perLayer(outputs[medianRound], *wl, sum, tracedWall,
                          wallMedian);
        defs = &kPerLayer;
        Json traced = Json::object();
        traced["file"] = Json(tracePath);
        traced["wall_s"] = Json(tracedWall);
        traced["lanes"] = Json(sum.lanes);
        traced["lane_s"] = Json(sum.laneSeconds);
        traced["self_sum_s"] = Json(sum.selfSeconds);
        traced["reconcile_tolerance"] = Json(tolerance);
        traced["layer_share_of_busy"] = layerShares(sum);
        traced["claim_share_of_busy"] = claimShares(sum);
        traced["self_s"] = selfTimes(sum);
        record["traced"] = traced;
    }
    record["failures"] = strings(failures);

    Json wrapper = Json::object();
    wrapper["perfbench"] = record;
    std::printf("%s\n", wrapper.dump().c_str());
    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

    Json result = Json::object();
    result["correct"] = Json(failed == 0);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = metricsJson(*defs, values);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const int64_t processStart = perfbench::nowNs();
#ifndef NDEBUG
    // core::build lints and CFG-checks every image when NDEBUG is off
    // (src/core/toolchain.cc), so the workloads would time a different
    // program.
    (void)argc;
    (void)argv;
    (void)processStart;
    std::fprintf(stderr, "perfbench: refusing to run a build without "
                         "NDEBUG (use a Release or RelWithDebInfo build)\n");
    return 2;
#else
    if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
        perfbench::listMetrics();
        return 0;
    }
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args, processStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
#endif
}
