/**
 * @file
 * Tests for the content-addressed artifact store and the sweep
 * engine's incremental (warm) path.
 *
 * Pins, in rough dependency order:
 *
 *  - the SHA-256 primitive against FIPS 180-2 vectors;
 *  - the key schema: the content key of every full-matrix job against
 *    tests/golden/store_keys_golden.json, so an accidental change to
 *    the preimage, the toolchain fingerprint, or a workload source
 *    fails loudly (regenerate with `store_test --update-golden` after
 *    an *intended* change);
 *  - artifact codecs: image, result row, and block-table round trips,
 *    every stat-table field through every codec, and a mutation sweep
 *    (every prefix and every single-bit flip) over each decoder;
 *  - the store itself: put/get/contains/scan, corruption detection
 *    (truncated and bit-flipped entries are misses, never served),
 *    and gc() (never evicts a live key);
 *  - the engine's store integration: a warm sweep executes zero
 *    builds/runs/captures and emits byte-identical JSON; a partially
 *    invalidated store re-executes only the damaged row (reusing the
 *    stored trace, so still zero builds);
 *  - two engines sharing one store directory concurrently (the TSan
 *    leg of scripts/check.sh runs this file).
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/replay/trace.hh"
#include "core/store/store.hh"
#include "core/sweep/artifacts.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "support/bytes.hh"
#include "support/error.hh"
#include "support/hash.hh"

using namespace d16sim;
using namespace d16sim::core;

namespace
{

bool updateGolden = false;

/** mkdtemp-backed scratch directory, recursively removed on scope
 *  exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/d16store_test.XXXXXX";
        if (!mkdtemp(buf))
            fatal("mkdtemp failed");
        path = buf;
    }

    ~TempDir() { removeTree(path); }

    static void
    removeTree(const std::string &dir)
    {
        DIR *d = ::opendir(dir.c_str());
        if (!d) {
            ::unlink(dir.c_str());
            return;
        }
        while (dirent *e = ::readdir(d)) {
            if (std::strcmp(e->d_name, ".") == 0 ||
                std::strcmp(e->d_name, "..") == 0)
                continue;
            const std::string child = dir + "/" + e->d_name;
            struct stat st;
            if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(child);
            else
                ::unlink(child.c_str());
        }
        ::closedir(d);
        ::rmdir(dir.c_str());
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Locate the single on-disk file of a store entry. */
std::string
entryFile(const std::string &storeDir, store::Kind kind,
          const std::string &key)
{
    return storeDir + "/" + store::kindName(kind) + "/" +
           key.substr(0, 2) + "/" + key;
}

/**
 * Caps the process's address space at its current size plus
 * `headroom` while alive, so an allocation sized by an untrusted
 * length fails in the test instead of quietly succeeding. Inactive
 * under ASan and TSan, which reserve their shadow memory up front.
 */
class AddressSpaceCap
{
  public:
    explicit AddressSpaceCap(uint64_t headroom)
    {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
        std::ifstream statm("/proc/self/statm");
        uint64_t pages = 0;
        if (!(statm >> pages) || ::getrlimit(RLIMIT_AS, &saved_) != 0)
            return;
        rlimit cap = saved_;
        cap.rlim_cur = pages * static_cast<uint64_t>(::sysconf(
                                   _SC_PAGESIZE)) +
                       headroom;
        if (cap.rlim_cur < saved_.rlim_cur)
            active_ = ::setrlimit(RLIMIT_AS, &cap) == 0;
#else
        (void)headroom;
#endif
    }

    ~AddressSpaceCap()
    {
        if (active_)
            ::setrlimit(RLIMIT_AS, &saved_);
    }

    AddressSpaceCap(const AddressSpaceCap &) = delete;
    AddressSpaceCap &operator=(const AddressSpaceCap &) = delete;

  private:
    rlimit saved_{};
    bool active_ = false;
};

/** A program small enough that every bit of its artifacts can be
 *  mutated in one test. */
constexpr const char *kTinyProgram = R"(
int buf[4];

int main() {
    int i;
    for (i = 0; i < 4; i = i + 1)
        buf[i] = i * 3;
    print_int(buf[3]);
    return 0;
}
)";

/**
 * Feed `decode` every proper prefix and every single-bit flip of
 * `good`. Each attempt must throw FatalError or decode to a value that
 * `encode`s back to exactly the attempted bytes; any other exception
 * is a failure (a crash fails the whole binary).
 */
template <typename Decode, typename Encode>
void
expectMutationsFailCleanly(const std::string &what,
                           const std::vector<uint8_t> &good, Decode decode,
                           Encode encode)
{
    ASSERT_EQ(encode(decode(good)), good) << what;
    std::vector<std::string> failures;
    auto attempt = [&](const std::vector<uint8_t> &bytes,
                       const std::string &how) {
        try {
            if (encode(decode(bytes)) != bytes)
                failures.push_back(how + ": accepted but re-encodes "
                                         "differently");
        } catch (const FatalError &) {
        } catch (const std::exception &e) {
            failures.push_back(how + ": " + e.what());
        }
    };
    for (size_t n = 0; n < good.size(); ++n)
        attempt(std::vector<uint8_t>(good.begin(),
                                     good.begin() +
                                         static_cast<ptrdiff_t>(n)),
                "prefix of " + std::to_string(n) + " bytes");
    for (size_t bit = 0; bit < 8 * good.size(); ++bit) {
        std::vector<uint8_t> bad = good;
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        attempt(bad, "bit " + std::to_string(bit) + " flipped");
    }
    EXPECT_TRUE(failures.empty())
        << what << ": " << failures.size() << " of "
        << 9 * good.size() << " mutations misbehaved, first: "
        << (failures.empty() ? "" : failures.front());
}

/** A small matrix exercising every probe kind. */
std::vector<sweep::JobSpec>
miniMatrix()
{
    std::vector<sweep::JobSpec> jobs;
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe();
    for (const std::string w : {"towers", "queens"}) {
        jobs.push_back(sweep::JobSpec::base(w, d16));
        jobs.push_back(sweep::JobSpec::base(w, dlxe));
        jobs.push_back(sweep::JobSpec::fetch(w, d16, 4));
        jobs.push_back(sweep::JobSpec::imm(
            w, mc::CompileOptions::dlxe(16, false)));
    }
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockBytes = 16;
    cfg.subBlockBytes = 8;
    jobs.push_back(sweep::JobSpec::cache("towers", d16, cfg, cfg));
    return jobs;
}

/** Sweep `jobs` with `artifacts` attached; returns the canonical
 *  document (no timing). */
Json
sweepWithStore(const std::vector<sweep::JobSpec> &jobs,
               store::ArtifactStore *artifacts,
               sweep::SweepTiming *timingOut = nullptr, int threads = 4)
{
    sweep::ResultStore results;
    sweep::SweepEngine engine(results, threads);
    engine.setArtifacts(artifacts);
    engine.add(jobs);
    engine.run();
    if (timingOut)
        *timingOut = engine.timing();
    return sweep::sweepJson(results, nullptr);
}

TEST(Sha256, Fips180Vectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    // Streaming in odd-sized chunks matches one-shot.
    Sha256 h;
    const std::string text(1000, 'a');
    for (size_t i = 0; i < text.size(); i += 7)
        h.update(text.substr(i, 7));
    EXPECT_EQ(h.hex(), sha256Hex(text));
}

TEST(KeySchema, GoldenFullMatrixKeys)
{
    Json doc = Json::object();
    doc["schema"] = Json("d16store-keys-v1");
    doc["toolchain"] = Json(sweep::toolchainFingerprint());
    Json keys = Json::object();
    Json builds = Json::object();
    for (const sweep::JobSpec &spec : sweep::fullMatrix()) {
        keys[sweep::jobKey(spec)] = Json(sweep::jobContentKey(spec));
        builds[sweep::buildKey(spec)] =
            Json(sweep::buildContentKey(spec));
    }
    // The uarch smoke matrix rides in the same golden, pinning the v2
    // preimage's uarch: line and the capture-slice build keys.
    for (const sweep::JobSpec &spec : sweep::uarchSmokeMatrix()) {
        keys[sweep::jobKey(spec)] = Json(sweep::jobContentKey(spec));
        builds[sweep::buildKey(spec)] =
            Json(sweep::buildContentKey(spec));
    }
    doc["jobs"] = std::move(keys);
    doc["builds"] = std::move(builds);

    const std::string goldenPath = D16SIM_STORE_KEYS_GOLDEN_JSON;
    if (updateGolden) {
        std::ofstream out(goldenPath);
        ASSERT_TRUE(out) << "cannot write " << goldenPath;
        out << doc.dump(2) << "\n";
        GTEST_SKIP() << "updated " << goldenPath;
    }
    const Json golden = Json::parse(readFile(goldenPath));
    EXPECT_EQ(doc.dump(2) + "\n", golden.dump(2) + "\n")
        << "content-key schema drifted; if intended, regenerate with "
           "store_test --update-golden and bump the toolchain "
           "fingerprint";
}

TEST(KeySchema, ProbeConfigAffectsKeyButNotBuildKey)
{
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const sweep::JobSpec base = sweep::JobSpec::base("towers", d16);
    const sweep::JobSpec fb4 = sweep::JobSpec::fetch("towers", d16, 4);
    const sweep::JobSpec fb8 = sweep::JobSpec::fetch("towers", d16, 8);
    EXPECT_NE(sweep::jobContentKey(base), sweep::jobContentKey(fb4));
    EXPECT_NE(sweep::jobContentKey(fb4), sweep::jobContentKey(fb8));
    EXPECT_EQ(sweep::buildContentKey(base), sweep::buildContentKey(fb8));
    // The base job's content key IS the build key.
    EXPECT_EQ(sweep::jobContentKey(base), sweep::buildContentKey(base));

    // Cache geometry is part of the key; cache jobs share the base
    // job's build.
    const mem::CacheConfig a = sweep::paperCacheConfig(1024, 16);
    mem::CacheConfig b = a;
    b.subBlockBytes = 4;
    const sweep::JobSpec ca = sweep::JobSpec::cache("towers", d16, a, a);
    const sweep::JobSpec cb = sweep::JobSpec::cache("towers", d16, b, b);
    EXPECT_NE(sweep::jobContentKey(ca), sweep::jobContentKey(cb));
    EXPECT_EQ(sweep::buildContentKey(ca), sweep::buildContentKey(base));
}

TEST(KeySchema, UarchAxesNeverAliasKeys)
{
    // Specs differing ONLY in a microarchitecture field must never
    // share a display key or a content key — neither with the default
    // machine nor with each other. An alias here would silently serve
    // one pipeline's counters as another's from a warm store.
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const sweep::JobSpec base = sweep::JobSpec::base("towers", d16);
    std::set<std::string> jobKeys = {sweep::jobKey(base)};
    std::set<std::string> contentKeys = {sweep::jobContentKey(base)};
    for (const char *cfg :
         {"fwd=on", "bp=static", "bp=bimodal6", "bp=bimodal2", "depth=7",
          "fwd=on,depth=7", "fwd=on,bp=bimodal6,depth=7"}) {
        sweep::JobSpec spec = base;
        spec.uarch = sweep::parseUarch(cfg);
        EXPECT_TRUE(jobKeys.insert(sweep::jobKey(spec)).second) << cfg;
        EXPECT_TRUE(contentKeys.insert(sweep::jobContentKey(spec)).second)
            << cfg;
    }

    // Branch-policy siblings share the build node (one image, one
    // captured trace) but never the result row.
    sweep::JobSpec stat = base, bim = base;
    stat.uarch = sweep::parseUarch("bp=static");
    bim.uarch = sweep::parseUarch("bp=bimodal6");
    EXPECT_EQ(sweep::buildContentKey(stat), sweep::buildContentKey(base));
    EXPECT_EQ(sweep::buildContentKey(bim), sweep::buildContentKey(stat));
    EXPECT_NE(sweep::jobContentKey(bim), sweep::jobContentKey(stat));

    // Forwarding and depth are part of the capture slice, so they
    // split the build node too.
    sweep::JobSpec fwd = base, deep = base;
    fwd.uarch = sweep::parseUarch("fwd=on");
    deep.uarch = sweep::parseUarch("depth=7");
    EXPECT_NE(sweep::buildContentKey(fwd), sweep::buildContentKey(base));
    EXPECT_NE(sweep::buildContentKey(deep), sweep::buildContentKey(base));
    EXPECT_NE(sweep::buildContentKey(fwd), sweep::buildContentKey(deep));
}

TEST(Codecs, ImageRoundTrip)
{
    const assem::Image img = build(workload("towers").source,
                                   mc::CompileOptions::d16());
    const assem::Image back = assem::Image::deserialize(img.serialize());
    EXPECT_EQ(back.target, img.target);
    EXPECT_EQ(back.textBase, img.textBase);
    EXPECT_EQ(back.textSize, img.textSize);
    EXPECT_EQ(back.dataBase, img.dataBase);
    EXPECT_EQ(back.dataSize, img.dataSize);
    EXPECT_EQ(back.bssSize, img.bssSize);
    EXPECT_EQ(back.entry, img.entry);
    EXPECT_EQ(back.textInsns, img.textInsns);
    EXPECT_EQ(back.bytes, img.bytes);
    EXPECT_EQ(back.symbols, img.symbols);
    ASSERT_EQ(back.insnSites.size(), img.insnSites.size());
    for (size_t i = 0; i < img.insnSites.size(); ++i) {
        EXPECT_EQ(back.insnSites[i].addr, img.insnSites[i].addr);
        EXPECT_EQ(back.insnSites[i].line, img.insnSites[i].line);
    }

    std::vector<uint8_t> bad = img.serialize();
    bad[0] ^= 0xff;
    EXPECT_THROW(assem::Image::deserialize(bad), FatalError);
    bad = img.serialize();
    bad.resize(bad.size() - 1);
    EXPECT_THROW(assem::Image::deserialize(bad), FatalError);

    // A site count of 2^32 - 1 with no sites after it is rejected
    // before anything is reserved for the sites (32 GB).
    bad = img.serialize();
    const size_t siteCountAt = bad.size() - 4 - 8 * img.insnSites.size();
    ASSERT_EQ(loadLe32(&bad[siteCountAt]), img.insnSites.size());
    storeLe32(&bad[siteCountAt], 0xffffffffu);
    bad.resize(siteCountAt + 4);
    AddressSpaceCap cap(uint64_t{1} << 30);
    EXPECT_THROW(assem::Image::deserialize(bad), FatalError);
}

TEST(Codecs, ResultRoundTripEveryProbeKind)
{
    for (const sweep::JobSpec &spec : miniMatrix()) {
        const sweep::JobResult executed = sweep::executeJob(spec);
        const sweep::JobResult back =
            sweep::resultFromBytes(sweep::resultBytes(executed));
        // The canonical emission is the contract the goldens pin.
        EXPECT_EQ(back.json().dump(), executed.json().dump())
            << sweep::jobKey(spec);
        // Full fidelity beyond the canonical subset.
        EXPECT_EQ(back.run.output, executed.run.output);
        EXPECT_EQ(back.run.exitStatus, executed.run.exitStatus);
    }
}

TEST(Codecs, EveryStatFieldRoundTripsThroughEveryCodec)
{
    // A distinct value per counter, so a dropped, renamed or swapped
    // field shows in every codec.
    sim::SimStats stats;
    uint64_t next = 1;
    for (const auto &field : sim::kStatFields)
        stats.*field.member = next++;
    mem::CacheStats icache, dcache;
    for (const auto &field : mem::kCacheStatFields) {
        icache.*field.member = next++;
        dcache.*field.member = next++;
    }

    // D16T: the streams must agree with the counters they cross-check.
    replay::Trace trace;
    trace.base.stats = stats;
    trace.runs.push_back(
        {0x1000, static_cast<uint32_t>(stats.instructions)});
    trace.accesses.resize(stats.memOps(), {0x2000, 4, false});
    trace.outcomes.resize(stats.condBranches, {0x1004, true});
    EXPECT_EQ(replay::Trace::deserialize(trace.serialize()).base.stats,
              stats);

    // Store row: every counter, and the cache stats of a cache job on
    // a non-default machine.
    sweep::JobResult result;
    result.probe = sweep::ProbeKind::CacheSim;
    result.uarch = sweep::parseUarch("fwd=on");
    result.run.stats = stats;
    result.icache = icache;
    result.dcache = dcache;
    const sweep::JobResult back =
        sweep::resultFromBytes(sweep::resultBytes(result));
    EXPECT_EQ(back.run.stats, stats);

    // Sweep row: base counters under "run", uarch counters under
    // "uarch", cache counters under each cache.
    const Json row = result.json();
    for (const auto &field : mem::kCacheStatFields) {
        EXPECT_EQ(back.icache.*field.member, icache.*field.member);
        EXPECT_EQ(back.dcache.*field.member, dcache.*field.member);
        EXPECT_EQ(row.find("icache")->find(field.name)->asInt(),
                  static_cast<int64_t>(icache.*field.member));
        EXPECT_EQ(row.find("dcache")->find(field.name)->asInt(),
                  static_cast<int64_t>(dcache.*field.member));
    }
    for (const auto &field : sim::kBaseStatFields)
        EXPECT_EQ(row.find("run")->find(field.name)->asInt(),
                  static_cast<int64_t>(stats.*field.member));
    for (const auto &field : sim::kUarchStatFields)
        EXPECT_EQ(row.find("uarch")->find(field.name)->asInt(),
                  static_cast<int64_t>(stats.*field.member));
}

TEST(Codecs, MutatedArtifactsFailCleanlyOrRoundTrip)
{
    const assem::Image image =
        build(kTinyProgram, mc::CompileOptions::d16());
    const replay::Trace trace = replay::capture(image);
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockBytes = 16;
    const sweep::JobResult row = sweep::replayJob(
        sweep::JobSpec::cache("tiny", mc::CompileOptions::d16(), cfg, cfg),
        trace);

    expectMutationsFailCleanly(
        "D16T", trace.serialize(),
        [](const std::vector<uint8_t> &b) {
            return replay::Trace::deserialize(b);
        },
        [](const replay::Trace &t) { return t.serialize(); });
    expectMutationsFailCleanly(
        "D16I", image.serialize(),
        [](const std::vector<uint8_t> &b) {
            return assem::Image::deserialize(b);
        },
        [](const assem::Image &i) { return i.serialize(); });
    expectMutationsFailCleanly(
        "D16M", sweep::blockTableBytes(recoverBlockTable(image)),
        [](const std::vector<uint8_t> &b) {
            return sweep::blockTableFromBytes(b);
        },
        [](const sim::BlockTable &t) { return sweep::blockTableBytes(t); });
    expectMutationsFailCleanly(
        "result row", sweep::resultBytes(row),
        [](const std::vector<uint8_t> &b) {
            return sweep::resultFromBytes(b);
        },
        [](const sweep::JobResult &r) { return sweep::resultBytes(r); });
}

TEST(Codecs, NonPaperCachePolicyRowIsFatal)
{
    // A stored row naming any cache policy but the paper's is refused
    // cleanly: the model cannot reproduce it.
    sweep::JobResult row;
    row.probe = sweep::ProbeKind::CacheSim;
    const Json good = sweep::resultJson(row);
    const std::string text = good.dump();
    EXPECT_NO_THROW(sweep::resultFromBytes({text.begin(), text.end()}));
    const std::pair<const char *, Json> policies[] = {
        {"assoc", Json(2)},
        {"writeBack", Json(false)},
        {"prefetchWrapAround", Json(false)},
        {"writeAllocate", Json(false)},
    };
    for (const auto &[name, value] : policies) {
        for (const char *side : {"icacheCfg", "dcacheCfg"}) {
            Json bad = good;
            bad[side][name] = value;
            const std::string badText = bad.dump();
            EXPECT_THROW(sweep::resultFromBytes(
                             {badText.begin(), badText.end()}),
                         FatalError)
                << side << "." << name;
        }
    }
}

TEST(Codecs, BlockTableRoundTrip)
{
    const assem::Image img = build(workload("towers").source,
                                   mc::CompileOptions::d16());
    const sim::BlockTable table = recoverBlockTable(img);
    ASSERT_FALSE(table.spans.empty());
    const sim::BlockTable back =
        sweep::blockTableFromBytes(sweep::blockTableBytes(table));
    ASSERT_EQ(back.spans.size(), table.spans.size());
    for (size_t i = 0; i < table.spans.size(); ++i) {
        EXPECT_EQ(back.spans[i].startPc, table.spans[i].startPc);
        EXPECT_EQ(back.spans[i].count, table.spans[i].count);
    }
    EXPECT_THROW(sweep::blockTableFromBytes({1, 2, 3}), FatalError);
}

TEST(Store, PutGetScanContains)
{
    TempDir dir;
    store::ArtifactStore s(dir.path + "/store");
    const std::string key(64, 'a');
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};

    std::vector<uint8_t> got;
    EXPECT_FALSE(s.get(store::Kind::Result, key, &got));
    EXPECT_FALSE(s.contains(store::Kind::Result, key));

    s.put(store::Kind::Result, key, payload);
    EXPECT_TRUE(s.contains(store::Kind::Result, key));
    ASSERT_TRUE(s.get(store::Kind::Result, key, &got));
    EXPECT_EQ(got, payload);

    // Empty payloads are legal (and framed).
    s.put(store::Kind::Meta, key, {});
    ASSERT_TRUE(s.get(store::Kind::Meta, key, &got));
    EXPECT_TRUE(got.empty());

    const store::StoreScan scan = s.scan();
    EXPECT_EQ(scan.entries, 2u);
    EXPECT_EQ(scan.kinds.at("result").entries, 1u);
    EXPECT_EQ(scan.kinds.at("meta").entries, 1u);
    EXPECT_GT(scan.bytes, payload.size());

    const store::StoreCounters c = s.counters();
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.puts, 2u);
    EXPECT_EQ(c.corrupt, 0u);

    // Keys are validated before touching the filesystem.
    EXPECT_THROW(s.put(store::Kind::Result, "../../etc/passwd", payload),
                 PanicError);
    EXPECT_THROW(s.put(store::Kind::Result, "ABCDEF", payload),
                 PanicError);
}

TEST(Store, CorruptEntriesAreNeverServed)
{
    TempDir dir;
    const std::string storeDir = dir.path + "/store";
    const std::string key(64, 'b');
    const std::vector<uint8_t> payload(100, 0x5a);
    store::ArtifactStore s(storeDir);
    const std::string path = entryFile(storeDir, store::Kind::Trace, key);

    // Bit-flip inside the payload: checksum mismatch.
    s.put(store::Kind::Trace, key, payload);
    {
        std::string bytes = readFile(path);
        bytes[bytes.size() - 10] ^= 0x01;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    std::vector<uint8_t> got;
    EXPECT_FALSE(s.get(store::Kind::Trace, key, &got));
    // The damaged entry was unlinked, so it cannot be served later.
    EXPECT_FALSE(s.contains(store::Kind::Trace, key));

    // Truncated mid-payload.
    s.put(store::Kind::Trace, key, payload);
    {
        std::string bytes = readFile(path);
        bytes.resize(bytes.size() - 40);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_FALSE(s.get(store::Kind::Trace, key, &got));

    // Trailing garbage.
    s.put(store::Kind::Trace, key, payload);
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << "junk";
    }
    EXPECT_FALSE(s.get(store::Kind::Trace, key, &got));

    // Wrong kind field (an entry renamed across kind directories).
    s.put(store::Kind::Trace, key, payload);
    {
        std::string bytes = readFile(path);
        const std::string imagePath =
            entryFile(storeDir, store::Kind::Image, key);
        ::mkdir((storeDir + "/image/" + key.substr(0, 2)).c_str(), 0755);
        std::ofstream out(imagePath, std::ios::binary);
        out << bytes;
    }
    EXPECT_FALSE(s.get(store::Kind::Image, key, &got));

    // A header claiming 4 GiB of payload in a 64-byte file: the length
    // is checked against the file before any allocation.
    s.put(store::Kind::Trace, key, payload);
    {
        std::string bytes = readFile(path);
        bytes.resize(64);
        uint8_t len[8];
        storeLe64(len, uint64_t{1} << 32);
        bytes.replace(8, 8, reinterpret_cast<const char *>(len), 8);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    {
        AddressSpaceCap cap(uint64_t{1} << 30);
        EXPECT_FALSE(s.get(store::Kind::Trace, key, &got));
    }
    EXPECT_FALSE(s.contains(store::Kind::Trace, key));

    EXPECT_EQ(s.counters().corrupt, 5u);

    // A re-put after corruption serves again.
    s.put(store::Kind::Trace, key, payload);
    ASSERT_TRUE(s.get(store::Kind::Trace, key, &got));
    EXPECT_EQ(got, payload);
}

TEST(Store, VersionMismatchIsFatal)
{
    TempDir dir;
    const std::string storeDir = dir.path + "/store";
    { store::ArtifactStore s(storeDir); }
    {
        std::ofstream out(storeDir + "/VERSION", std::ios::trunc);
        out << "d16store-v999\n";
    }
    EXPECT_THROW(store::ArtifactStore s2(storeDir), FatalError);
}

TEST(Store, GcKeepsLiveKeysAndDropsTheRest)
{
    TempDir dir;
    store::ArtifactStore s(dir.path + "/store");
    const std::vector<sweep::JobSpec> matrix = miniMatrix();
    sweepWithStore(matrix, &s);

    const store::StoreScan before = s.scan();
    ASSERT_GT(before.entries, 0u);

    // GC against the full matrix's live set removes nothing the
    // matrix references. (Traces are only captured for multi-job
    // build nodes, so "kept" counts what exists, not the whole live
    // set.)
    store::ArtifactStore::GcResult r = s.gc(sweep::liveKeys(matrix));
    EXPECT_EQ(r.removed, 0u);
    EXPECT_EQ(r.kept, before.entries);

    // ... and the warm sweep still executes nothing.
    sweep::SweepTiming timing;
    const Json warm = sweepWithStore(matrix, &s, &timing);
    EXPECT_EQ(timing.executedBuilds, 0);
    EXPECT_EQ(timing.executedRuns, 0);
    EXPECT_EQ(timing.capturedTraces, 0);
    EXPECT_EQ(timing.storeResultHits,
              static_cast<int>(matrix.size()));

    // GC against a subset keeps the subset warm and frees the rest.
    std::vector<sweep::JobSpec> subset = {matrix.front()};
    r = s.gc(sweep::liveKeys(subset));
    EXPECT_GT(r.removed, 0u);
    EXPECT_GT(r.bytesFreed, 0u);

    sweep::SweepTiming subsetTiming;
    sweepWithStore(subset, &s, &subsetTiming);
    EXPECT_EQ(subsetTiming.executedRuns, 0);

    sweep::SweepTiming rebuildTiming;
    const Json rebuilt = sweepWithStore(matrix, &s, &rebuildTiming);
    EXPECT_GT(rebuildTiming.executedRuns, 0);
    EXPECT_EQ(rebuilt.dump(), warm.dump());
}

TEST(Engine, WarmSweepExecutesNothingAndMatchesBytes)
{
    TempDir dir;
    store::ArtifactStore s(dir.path + "/store");
    const std::vector<sweep::JobSpec> matrix = miniMatrix();

    sweep::SweepTiming storeless;
    const Json off = sweepWithStore(matrix, nullptr, &storeless);

    sweep::SweepTiming cold;
    const Json coldDoc = sweepWithStore(matrix, &s, &cold);
    EXPECT_EQ(cold.executedRuns, storeless.executedRuns);
    EXPECT_EQ(cold.storeResultHits, 0);
    EXPECT_EQ(cold.storeMisses, static_cast<int>(matrix.size()));

    // The contract: storeless, cold, and warm emissions are
    // byte-identical, whether the warm rows settle on one thread or
    // on four.
    EXPECT_EQ(off.dump(), coldDoc.dump());
    for (int threads : {1, 4}) {
        sweep::SweepTiming warm;
        const Json warmDoc = sweepWithStore(matrix, &s, &warm, threads);
        EXPECT_EQ(warm.executedBuilds, 0) << threads;
        EXPECT_EQ(warm.executedRuns, 0) << threads;
        EXPECT_EQ(warm.capturedTraces, 0) << threads;
        EXPECT_EQ(warm.storeResultHits, static_cast<int>(matrix.size()))
            << threads;
        EXPECT_EQ(warm.storeMisses, 0) << threads;
        EXPECT_EQ(off.dump(), warmDoc.dump()) << threads;
    }
}

TEST(Engine, PartialInvalidationReusesBuildArtifacts)
{
    TempDir dir;
    const std::string storeDir = dir.path + "/store";
    store::ArtifactStore s(storeDir);
    const std::vector<sweep::JobSpec> matrix = miniMatrix();
    const Json cold = sweepWithStore(matrix, &s);

    // Damage exactly one result row: a cache job whose build node has
    // a stored trace.
    const sweep::JobSpec &victim = matrix.back();
    ASSERT_EQ(victim.probe, sweep::ProbeKind::CacheSim);
    const std::string path = entryFile(
        storeDir, store::Kind::Result, sweep::jobContentKey(victim));
    {
        std::string bytes = readFile(path);
        bytes[bytes.size() / 2] ^= 0x20;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    sweep::SweepTiming timing;
    const Json repaired = sweepWithStore(matrix, &s, &timing);
    // Only the damaged job re-executed — from the stored trace, so no
    // compile and no capture.
    EXPECT_EQ(timing.executedRuns, 1);
    EXPECT_EQ(timing.replayedRuns, 1);
    EXPECT_EQ(timing.executedBuilds, 0);
    EXPECT_EQ(timing.capturedTraces, 0);
    EXPECT_EQ(timing.storeTraceHits, 1);
    EXPECT_EQ(timing.storeResultHits,
              static_cast<int>(matrix.size()) - 1);
    EXPECT_EQ(timing.storeMisses, 1);
    EXPECT_EQ(repaired.dump(), cold.dump());

    // The re-executed row was written back: warm again.
    sweep::SweepTiming warm;
    sweepWithStore(matrix, &s, &warm);
    EXPECT_EQ(warm.executedRuns, 0);
}

TEST(Engine, ConcurrentEnginesShareOneStoreDir)
{
    TempDir dir;
    const std::string storeDir = dir.path + "/store";
    const std::vector<sweep::JobSpec> matrix = miniMatrix();
    const Json expected = sweepWithStore(matrix, nullptr);

    // Two engines, two store handles, one directory, racing over the
    // same matrix (this is the check.sh TSan leg). Exceptions are
    // ferried back so a racing failure is a test failure, not a
    // process abort.
    std::string docs[2];
    std::string errors[2];
    std::thread racers[2];
    for (int i = 0; i < 2; ++i) {
        racers[i] = std::thread([&, i] {
            try {
                store::ArtifactStore handle(storeDir);
                sweep::SweepTiming timing;
                docs[i] =
                    sweepWithStore(matrix, &handle, &timing, 2).dump();
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    for (std::thread &t : racers)
        t.join();

    EXPECT_EQ(errors[0], "");
    EXPECT_EQ(errors[1], "");
    EXPECT_EQ(docs[0], expected.dump());
    EXPECT_EQ(docs[1], expected.dump());

    // Whatever interleaving happened, the store converged and serves
    // a warm sweep.
    store::ArtifactStore handle(storeDir);
    sweep::SweepTiming warm;
    sweepWithStore(matrix, &handle, &warm);
    EXPECT_EQ(warm.executedRuns, 0);
    EXPECT_EQ(warm.executedBuilds, 0);
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update-golden") == 0)
            updateGolden = true;
    return RUN_ALL_TESTS();
}
