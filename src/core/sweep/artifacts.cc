#include "core/sweep/artifacts.hh"

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "support/bytes.hh"
#include "support/error.hh"
#include "support/hash.hh"

namespace d16sim::core::sweep
{

namespace
{

constexpr uint32_t kBlockTableMagic = 0x4d363144; // "D16M" little-endian

/** Canonical probe component of the key preimage. The cache spec's
 *  ":pf1:wa1:wb1" policy suffix is kept so every store key is
 *  unchanged. */
std::string
probeSpec(const JobSpec &spec)
{
    auto cacheSpec = [](const mem::CacheConfig &cfg) {
        return cacheKey(cfg) + ":pf1:wa1:wb1";
    };
    switch (spec.probe) {
      case ProbeKind::None:
        return "base";
      case ProbeKind::FetchBuffer:
        return "fb" + std::to_string(spec.busBytes);
      case ProbeKind::CacheSim:
        return "cache:i=" + cacheSpec(spec.icache) +
               ",d=" + cacheSpec(spec.dcache);
      case ProbeKind::ImmClass:
        return "imm";
    }
    panic("unknown probe kind");
}

std::string
contentKey(const JobSpec &spec, const std::string &uarch,
           const std::string &probe)
{
    const std::string &source = workload(spec.workload).source;
    Sha256 h;
    h.update("d16key-v2\n");
    h.update("toolchain:" + toolchainFingerprint() + "\n");
    h.update("workload:" + spec.workload + "\n");
    h.update("source:" + std::to_string(source.size()) + "\n");
    h.update(source);
    h.update("\n");
    h.update("variant:" + variantKey(spec.opts) + "\n");
    h.update("uarch:" + uarch + "\n");
    h.update("probe:" + probe + "\n");
    return h.hex();
}

/** The policy members of a cache config's JSON. They spell the
 *  paper's one policy (assoc 1 and every flag true), which is the only
 *  one the model implements. */
constexpr const char *kPolicyFlags[] = {"prefetchWrapAround",
                                        "writeAllocate", "writeBack"};

Json
cacheConfigJson(const mem::CacheConfig &cfg)
{
    Json j = Json::object();
    j["sizeBytes"] = Json(cfg.sizeBytes);
    j["blockBytes"] = Json(cfg.blockBytes);
    j["subBlockBytes"] = Json(cfg.subBlockBytes);
    j["assoc"] = Json(1);
    for (const char *flag : kPolicyFlags)
        j[flag] = Json(true);
    return j;
}

/** The member `key` of `j`, which must have type `kind`. */
const Json &
member(const Json &j, const std::string &key,
       Json::Kind kind = Json::Kind::Object)
{
    const Json *v = j.find(key);
    if (!v)
        fatal("artifact json: missing member '", key, "'");
    if (v->kind() != kind)
        fatal("artifact json: member '", key, "' has the wrong type");
    return *v;
}

uint64_t
u64Member(const Json &j, const std::string &key)
{
    return static_cast<uint64_t>(member(j, key, Json::Kind::Int).asInt());
}

const std::string &
stringMember(const Json &j, const std::string &key)
{
    return member(j, key, Json::Kind::String).asString();
}

mem::CacheConfig
cacheConfigFromJson(const Json &j)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint32_t>(u64Member(j, "sizeBytes"));
    cfg.blockBytes = static_cast<uint32_t>(u64Member(j, "blockBytes"));
    cfg.subBlockBytes =
        static_cast<uint32_t>(u64Member(j, "subBlockBytes"));
    if (u64Member(j, "assoc") != 1)
        fatal("artifact json: only direct-mapped caches (assoc 1)");
    for (const char *flag : kPolicyFlags)
        if (!member(j, flag, Json::Kind::Bool).asBool())
            fatal("artifact json: cache member '", flag,
                  "' must be true");
    return cfg;
}

const char *
probeName(ProbeKind kind)
{
    switch (kind) {
      case ProbeKind::None: return "base";
      case ProbeKind::FetchBuffer: return "fetch";
      case ProbeKind::CacheSim: return "cache";
      case ProbeKind::ImmClass: return "imm";
    }
    panic("unknown probe kind");
}

ProbeKind
probeFromName(const std::string &name)
{
    if (name == "base")
        return ProbeKind::None;
    if (name == "fetch")
        return ProbeKind::FetchBuffer;
    if (name == "cache")
        return ProbeKind::CacheSim;
    if (name == "imm")
        return ProbeKind::ImmClass;
    fatal("artifact json: unknown probe kind '", name, "'");
}

// Row-section decoders; their encoders follow the namespace.

mem::CacheStats
cacheStatsFromJson(const Json &j)
{
    mem::CacheStats s;
    for (const auto &field : mem::kCacheStatFields)
        s.*field.member = u64Member(j, field.name);
    return s;
}

FetchMetrics
fetchFromJson(const Json &j)
{
    return {static_cast<uint32_t>(u64Member(j, "busBytes")),
            u64Member(j, "requests"), u64Member(j, "words")};
}

ImmMetrics
immFromJson(const Json &j)
{
    return {u64Member(j, "total"), u64Member(j, "cmpImmediate"),
            u64Member(j, "aluImmediate"), u64Member(j, "memDisplacement")};
}

} // namespace

Json
cacheStatsJson(const mem::CacheStats &stats)
{
    Json j = Json::object();
    for (const auto &field : mem::kCacheStatFields)
        j[field.name] = Json(stats.*field.member);
    return j;
}

Json
fetchJson(const FetchMetrics &fetch)
{
    Json j = Json::object();
    j["busBytes"] = Json(fetch.busBytes);
    j["requests"] = Json(fetch.requests);
    j["words"] = Json(fetch.words);
    return j;
}

Json
immJson(const ImmMetrics &imm)
{
    Json j = Json::object();
    j["total"] = Json(imm.total);
    j["cmpImmediate"] = Json(imm.cmpImmediate);
    j["aluImmediate"] = Json(imm.aluImmediate);
    j["memDisplacement"] = Json(imm.memDisplacement);
    return j;
}

const std::string &
toolchainFingerprint()
{
    // PR-numbered: PR 10 added the microarchitectural axes. Bump on
    // any measurement-affecting toolchain change (see file comment).
    static const std::string fp = "d16sim-toolchain-pr10";
    return fp;
}

std::string
jobContentKey(const JobSpec &spec)
{
    return contentKey(spec, spec.uarch.key(), probeSpec(spec));
}

std::string
buildContentKey(const JobSpec &spec)
{
    // Branch-policy siblings share the build node's image and trace:
    // only the capture slice of the uarch enters this key.
    return contentKey(spec, spec.uarch.captureKey(), "base");
}

Json
resultJson(const JobResult &result)
{
    Json j = Json::object();
    j["schema"] = Json("d16store-result-v2");
    j["probe"] = Json(probeName(result.probe));
    j["uarch"] = Json(result.uarch.key());

    Json r = Json::object();
    r["output"] = Json(result.run.output);
    r["exitStatus"] = Json(result.run.exitStatus);
    r["sizeBytes"] = Json(result.run.sizeBytes);
    r["textBytes"] = Json(result.run.textBytes);
    r["textInsns"] = Json(result.run.textInsns);
    for (const auto &field : sim::kStatFields)
        r[field.name] = Json(result.run.stats.*field.member);
    j["run"] = std::move(r);

    switch (result.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer:
        j["fetch"] = fetchJson(result.fetch);
        break;
      case ProbeKind::CacheSim:
        j["icacheCfg"] = cacheConfigJson(result.icacheCfg);
        j["dcacheCfg"] = cacheConfigJson(result.dcacheCfg);
        j["icache"] = cacheStatsJson(result.icache);
        j["dcache"] = cacheStatsJson(result.dcache);
        break;
      case ProbeKind::ImmClass:
        j["imm"] = immJson(result.imm);
        break;
    }
    return j;
}

JobResult
resultFromJson(const Json &j)
{
    const std::string &schema = stringMember(j, "schema");
    if (schema != "d16store-result-v2")
        fatal("artifact json: unknown result schema '", schema, "'");
    JobResult result;
    result.probe = probeFromName(stringMember(j, "probe"));
    result.uarch = parseUarch(stringMember(j, "uarch"));

    const Json &r = member(j, "run");
    result.run.output = stringMember(r, "output");
    result.run.exitStatus =
        static_cast<int>(member(r, "exitStatus", Json::Kind::Int).asInt());
    result.run.sizeBytes = static_cast<uint32_t>(u64Member(r, "sizeBytes"));
    result.run.textBytes = static_cast<uint32_t>(u64Member(r, "textBytes"));
    result.run.textInsns = static_cast<uint32_t>(u64Member(r, "textInsns"));
    for (const auto &field : sim::kStatFields)
        result.run.stats.*field.member = u64Member(r, field.name);

    switch (result.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer:
        result.fetch = fetchFromJson(member(j, "fetch"));
        break;
      case ProbeKind::CacheSim:
        result.icacheCfg = cacheConfigFromJson(member(j, "icacheCfg"));
        result.dcacheCfg = cacheConfigFromJson(member(j, "dcacheCfg"));
        result.icache = cacheStatsFromJson(member(j, "icache"));
        result.dcache = cacheStatsFromJson(member(j, "dcache"));
        break;
      case ProbeKind::ImmClass:
        result.imm = immFromJson(member(j, "imm"));
        break;
    }
    return result;
}

std::vector<uint8_t>
resultBytes(const JobResult &result)
{
    const std::string text = resultJson(result).dump();
    return std::vector<uint8_t>(text.begin(), text.end());
}

JobResult
resultFromBytes(const std::vector<uint8_t> &bytes)
{
    JobResult result = resultFromJson(Json::parse(
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size())));
    // Only resultBytes() output is a valid row: anything else that
    // parses (whitespace, a non-canonical number, an unknown member)
    // would not re-encode to the stored bytes.
    if (resultBytes(result) != bytes)
        fatal("artifact json: result row is not in canonical form");
    return result;
}

std::vector<uint8_t>
blockTableBytes(const sim::BlockTable &table)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(12 + 8 * table.spans.size());
    ByteWriter out(bytes);
    out.u32(kBlockTableMagic);
    out.u32(1); // version
    out.u32(static_cast<uint32_t>(table.spans.size()));
    for (const sim::BlockSpan &span : table.spans) {
        out.u32(span.startPc);
        out.u32(span.count);
    }
    return bytes;
}

sim::BlockTable
blockTableFromBytes(const std::vector<uint8_t> &bytes)
{
    ByteReader in(bytes, "block table deserialize");
    if (in.u32() != kBlockTableMagic)
        fatal("block table deserialize: bad magic");
    const uint32_t version = in.u32();
    if (version != 1)
        fatal("block table deserialize: version ", version);
    const uint64_t count = in.count(in.u32(), 8);
    sim::BlockTable table;
    table.spans.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        sim::BlockSpan span;
        span.startPc = in.u32();
        span.count = in.u32();
        table.spans.push_back(span);
    }
    in.finish();
    return table;
}

bool
loadResult(store::ArtifactStore &artifactStore, const JobSpec &spec,
           JobResult *out)
{
    std::vector<uint8_t> bytes;
    if (!artifactStore.get(store::Kind::Result, jobContentKey(spec),
                           &bytes))
        return false;
    try {
        *out = resultFromBytes(bytes);
    } catch (const Error &) {
        // Checksum-valid but schema-incompatible (e.g. written by a
        // different build with the same fingerprint — a bug, but never
        // worth serving): treat as a miss and re-execute.
        return false;
    }
    return true;
}

void
saveResult(store::ArtifactStore &artifactStore, const JobSpec &spec,
           const JobResult &result)
{
    artifactStore.put(store::Kind::Result, jobContentKey(spec),
                      resultBytes(result));
}

std::map<store::Kind, std::set<std::string>>
liveKeys(const std::vector<JobSpec> &jobs)
{
    std::map<store::Kind, std::set<std::string>> live;
    for (const JobSpec &spec : jobs) {
        live[store::Kind::Result].insert(jobContentKey(spec));
        const std::string bkey = buildContentKey(spec);
        live[store::Kind::Image].insert(bkey);
        live[store::Kind::Trace].insert(bkey);
        live[store::Kind::Meta].insert(bkey);
    }
    return live;
}

} // namespace d16sim::core::sweep
