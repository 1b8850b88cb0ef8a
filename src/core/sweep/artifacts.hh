/**
 * @file
 * Artifact codecs and the content-key schema binding the sweep engine
 * to the persistent store (src/core/store).
 *
 * A job's identity for caching purposes is the SHA-256 of everything
 * that could change its result:
 *
 *     d16key-v2
 *     toolchain:<fingerprint>
 *     workload:<name>
 *     source:<byte count>\n<source bytes>
 *     variant:<variantKey(opts)>
 *     uarch:<UarchConfig::key(), empty for the default machine>
 *     probe:<canonical probe spec, full cache geometry>
 *
 * (one line per component, '\n'-terminated; the exact preimage is
 * assembled in jobContentKey()). The build-level key is the same
 * preimage with "probe:base" and the uarch *capture* slice
 * (UarchConfig::captureKey(): forwarding/depth only) — images,
 * traces, and block tables are per-build artifacts shared by every
 * probe job and branch-policy sibling of the pair. v2 added the uarch
 * line (and, in the result payload, the branch-policy counters).
 *
 * The toolchain fingerprint is a *declared* version, bumped by hand
 * whenever a compiler/assembler/simulator change can alter any
 * measured number. It is deliberately not a hash of the binary: keys
 * must be stable across rebuilds of identical sources, or every
 * rebuild would cold-start every user. The golden key test
 * (tests/store_test.cc, tests/golden/store_keys_golden.json) pins the
 * derived keys of the entire full matrix, so an accidental schema or
 * fingerprint change fails loudly with an --update-golden escape
 * hatch.
 *
 * Also here: the lossless JSON round-trip for JobResult (the store's
 * result payload — the full measurement including program output,
 * not just the canonical emission subset), and byte codecs for the
 * per-build artifacts.
 */

#ifndef D16SIM_CORE_SWEEP_ARTIFACTS_HH
#define D16SIM_CORE_SWEEP_ARTIFACTS_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/store/store.hh"
#include "core/sweep/result_store.hh"
#include "sim/block_engine.hh"
#include "support/json.hh"

namespace d16sim::core::sweep
{

/** The declared toolchain version folded into every content key.
 *  Bump when a toolchain change can alter any measured number, then
 *  regenerate tests/golden/store_keys_golden.json. */
const std::string &toolchainFingerprint();

/** Content key (64 hex chars) of one job — the store key of its
 *  result row. */
std::string jobContentKey(const JobSpec &spec);

/** Content key of the job's build node — the store key of its image,
 *  trace, and block-table artifacts. */
std::string buildContentKey(const JobSpec &spec);

// ----- JobResult store payload -----------------------------------------

/** Full-fidelity JSON payload (a superset of JobResult::json(): adds
 *  program output and every SimStats counter, so a loaded result is
 *  indistinguishable from an executed one). */
Json resultJson(const JobResult &result);

/** Parse resultJson() output; FatalError on malformed input. */
JobResult resultFromJson(const Json &j);

/** Canonical payload bytes for the store (compact dump of
 *  resultJson). */
std::vector<uint8_t> resultBytes(const JobResult &result);
JobResult resultFromBytes(const std::vector<uint8_t> &bytes);

/** Row sections written identically by resultJson() and the sweep
 *  row (JobResult::json()), each decoded beside its encoder in
 *  artifacts.cc: every kCacheStatFields counter, and the fetch-buffer
 *  and immediate-class metrics. */
Json cacheStatsJson(const mem::CacheStats &stats);
Json fetchJson(const FetchMetrics &fetch);
Json immJson(const ImmMetrics &imm);

// ----- per-build artifacts ---------------------------------------------

/** Block-table metadata codec ("D16M"): the analyzer-proved block
 *  spans, stored so a reloaded image can be block-compiled without
 *  re-running CFG recovery. */
std::vector<uint8_t> blockTableBytes(const sim::BlockTable &table);
sim::BlockTable blockTableFromBytes(const std::vector<uint8_t> &bytes);

// ----- store front-end for the engine ----------------------------------

/** Fetch + decode one result row; false on miss/corruption. */
bool loadResult(store::ArtifactStore &store, const JobSpec &spec,
                JobResult *out);

/** Encode + store one result row under the job's content key. */
void saveResult(store::ArtifactStore &store, const JobSpec &spec,
                const JobResult &result);

/** The live key set of a job list, for ArtifactStore::gc(): result
 *  keys for every job plus image/trace/meta keys for every build
 *  node. */
std::map<store::Kind, std::set<std::string>>
liveKeys(const std::vector<JobSpec> &jobs);

} // namespace d16sim::core::sweep

#endif // D16SIM_CORE_SWEEP_ARTIFACTS_HH
