/**
 * @file
 * Unit tests for the support substrate (bits, strings, table, error,
 * json, parallel, cli).
 */

#include <gtest/gtest.h>

#include "support/bits.hh"
#include "support/cli.hh"
#include "support/error.hh"
#include "support/json.hh"
#include "support/parallel.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/wrap32.hh"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace d16sim;

TEST(Bits, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(5), 0x1fu);
    EXPECT_EQ(maskBits(16), 0xffffu);
    EXPECT_EQ(maskBits(32), 0xffffffffu);
}

TEST(Bits, ExtractInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bits(0xdeadbeef, 3, 0), 0xfu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(insertBits(0, 15, 8, 0xbe), 0xbe00u);
    EXPECT_EQ(insertBits(0xffffffff, 7, 4, 0), 0xffffff0fu);
    // Insert masks excess field bits.
    EXPECT_EQ(insertBits(0, 3, 0, 0x1ff), 0xfu);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x1ff, 9), -1);
    EXPECT_EQ(signExtend(0x0ff, 9), 255);
    EXPECT_EQ(signExtend(0x100, 9), -256);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x7fff, 16), 32767);
}

TEST(Bits, Fits)
{
    EXPECT_TRUE(fitsSigned(-256, 9));
    EXPECT_TRUE(fitsSigned(255, 9));
    EXPECT_FALSE(fitsSigned(256, 9));
    EXPECT_FALSE(fitsSigned(-257, 9));
    EXPECT_TRUE(fitsUnsigned(31, 5));
    EXPECT_FALSE(fitsUnsigned(32, 5));
    EXPECT_FALSE(fitsUnsigned(-1, 5));
}

TEST(Bits, AlignHelpers)
{
    EXPECT_TRUE(isAligned(8, 4));
    EXPECT_FALSE(isAligned(6, 4));
    EXPECT_EQ(roundUp(5, 4), 8u);
    EXPECT_EQ(roundUp(8, 4), 8u);
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(24));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitWhitespace)
{
    auto parts = splitWhitespace("  ld   r1, 4(r2) ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "ld");
    EXPECT_EQ(parts[1], "r1,");
    EXPECT_EQ(parts[2], "4(r2)");
}

TEST(Strings, Misc)
{
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("h", "he"));
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(hexString(0xbeef, 4), "0xbeef");
    EXPECT_EQ(fixed(1.23456, 2), "1.23");
}

TEST(Error, FatalAndPanic)
{
    EXPECT_THROW(fatal("bad ", 42), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        fatal("value=", 7, " name=", "x");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
    EXPECT_NO_THROW(panicIf(false, "ok"));
    EXPECT_THROW(panicIf(true, "no"), PanicError);
}

TEST(Json, NestingDepthIsBounded)
{
    // 256 levels is the limit; our own documents nest about five.
    const std::string ok = std::string(256, '[') + std::string(256, ']');
    EXPECT_EQ(Json::parse(ok).dump(), ok);
    EXPECT_THROW(Json::parse(std::string(257, '[') + std::string(257, ']')),
                 FatalError);
    std::string objects;
    for (int i = 0; i < 300; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(300, '}');
    EXPECT_THROW(Json::parse(objects), FatalError);
    // Must fail cleanly rather than exhaust the stack.
    EXPECT_THROW(Json::parse(std::string(10'000'000, '[')), FatalError);
}

TEST(Parallel, RunsEveryIndexOnce)
{
    for (int threads : {0, 1, 3, 64}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(hits.size(), threads, [&](size_t i) { ++hits[i]; });
        for (const std::atomic<int> &h : hits)
            EXPECT_EQ(h.load(), 1) << threads << " threads";
    }
    bool called = false;
    parallelFor(0, 4, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, RethrowsAfterJoining)
{
    std::atomic<int> running{0};
    try {
        parallelFor(1000, 4, [&](size_t i) {
            ++running;
            if (i == 10)
                fatal("index ", i);
            --running;
        });
        ADD_FAILURE() << "no exception";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "index 10");
    }
    // Every call had returned or thrown before parallelFor did.
    EXPECT_EQ(running.load(), 1);
    EXPECT_THROW(parallelFor(5, 2,
                             [](size_t) { throw std::logic_error("x"); }),
                 std::logic_error);
}

/** Parse `--n VALUE` into an int that starts at -7. */
cli::CliStatus
parseIntFlag(const char *value, int *n)
{
    *n = -7;
    cli::Cli parser("cli_test", "--n N");
    parser.intValue("--n", n);
    char prog[] = "cli_test";
    char flag[] = "--n";
    std::string v = value;
    char *argv[] = {prog, flag, v.data()};
    return parser.parse(3, argv);
}

TEST(Cli, IntValueRejectsNonNumericInput)
{
    int n = 0;
    EXPECT_EQ(parseIntFlag("200", &n), cli::CliStatus::Ok);
    EXPECT_EQ(n, 200);
    EXPECT_EQ(parseIntFlag("-3", &n), cli::CliStatus::Ok);
    EXPECT_EQ(n, -3);
    EXPECT_EQ(parseIntFlag("2147483647", &n), cli::CliStatus::Ok);
    EXPECT_EQ(n, 2147483647);

    // Partial, non-decimal and out-of-range values are bad usage and
    // leave the target alone.
    for (const char *bad : {"2OO", "abc", "", " 12", "1.5", "0x10",
                            "2147483648", "-99999999999"}) {
        EXPECT_EQ(parseIntFlag(bad, &n), cli::CliStatus::Error) << bad;
        EXPECT_EQ(n, -7) << bad;
    }
}

TEST(Table, Renders)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1.50"});
    t.addRow({"b", "12.25"});
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    // Numeric column right-aligned: "12.25" wider than " 1.50" check.
    EXPECT_NE(s.find(" 1.50"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, ArityChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

} // namespace

// ---------------------------------------------------------------------
// wrap32: the shared wrap-safe fold semantics (property test)
// ---------------------------------------------------------------------

namespace
{

/** splitmix64, so the wrap32 properties sweep a deterministic but
 *  well-scattered sample of the 32-bit space (including the edges
 *  below, which are always tested). */
uint64_t
wrapRngNext(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Reference semantics in 64-bit arithmetic: compute wide, then
 *  truncate to 32 bits two's-complement. */
int32_t
ref32(int64_t wide)
{
    return static_cast<int32_t>(static_cast<uint64_t>(wide) &
                                0xffffffffull);
}

} // namespace

TEST(Wrap32, MatchesWideArithmetic)
{
    using namespace support;
    std::vector<int64_t> sample = {0,  1,  -1, 2,  -2, 31, 32, 33,
                                   INT32_MAX, INT32_MIN,
                                   int64_t{INT32_MAX} - 1,
                                   int64_t{INT32_MIN} + 1};
    uint64_t rng = 0x5eed;
    for (int i = 0; i < 2000; ++i)
        sample.push_back(ref32(static_cast<int64_t>(wrapRngNext(rng))));

    for (size_t i = 0; i < sample.size(); ++i) {
        // Pair each value with a handful of pseudo-random partners.
        for (int k = 0; k < 4; ++k) {
            const int64_t a = sample[i];
            const int64_t b =
                sample[wrapRngNext(rng) % sample.size()];
            EXPECT_EQ(wrapAdd(a, b), ref32(a + b));
            EXPECT_EQ(wrapSub(a, b), ref32(a - b));
            EXPECT_EQ(wrapMul(a, b), ref32(a * b));
            EXPECT_EQ(wrapNeg(a), ref32(-a));
            EXPECT_EQ(wrapNot(a), ref32(~a));
            EXPECT_EQ(wrapAnd(a, b), ref32(a & b));
            EXPECT_EQ(wrapOr(a, b), ref32(a | b));
            EXPECT_EQ(wrapXor(a, b), ref32(a ^ b));

            // Shifts: count masked to 5 bits, arithmetic shift keeps
            // the sign, logical shift injects zeros.
            const uint32_t n = static_cast<uint32_t>(b) & 31;
            EXPECT_EQ(wrapShl(a, b), ref32(a << n));
            EXPECT_EQ(wrapShrL(a, b),
                      ref32(static_cast<int64_t>(
                          (static_cast<uint64_t>(a) & 0xffffffffull) >>
                          n)));
            EXPECT_EQ(wrapShrA(a, b),
                      ref32(static_cast<int64_t>(ref32(a)) >> n));

            // Division: the trap predicate matches the machines, and
            // non-trapping quotients truncate toward zero.
            const int32_t sa = ref32(a), sb = ref32(b);
            EXPECT_EQ(divSTraps(a, b),
                      sb == 0 || (sa == INT32_MIN && sb == -1));
            if (!divSTraps(a, b)) {
                EXPECT_EQ(wrapDivS(a, b),
                          ref32(int64_t{sa} / int64_t{sb}));
                EXPECT_EQ(wrapRemS(a, b),
                          ref32(int64_t{sa} % int64_t{sb}));
            }
            if (sb != 0) {
                const uint64_t ua = static_cast<uint32_t>(sa);
                const uint64_t ub = static_cast<uint32_t>(sb);
                EXPECT_EQ(wrapDivU(a, b), ref32(static_cast<int64_t>(
                                              ua / ub)));
                EXPECT_EQ(wrapRemU(a, b), ref32(static_cast<int64_t>(
                                              ua % ub)));
            }
        }
    }
}

TEST(Wrap32, EdgeIdentities)
{
    using namespace support;
    // The exact cases that were host-UB before the folds were routed
    // through these helpers (the PR-5 negation fix and this PR's
    // audit).
    EXPECT_EQ(wrapNeg(INT32_MIN), INT32_MIN);
    EXPECT_EQ(wrapSub(0, INT32_MIN), INT32_MIN);
    EXPECT_EQ(wrapAdd(INT32_MAX, 1), INT32_MIN);
    EXPECT_EQ(wrapMul(INT32_MIN, -1), INT32_MIN);
    EXPECT_EQ(wrapShl(-1, 31), INT32_MIN);
    EXPECT_EQ(wrapShl(1, 32), 1 << 0);   // count masks to 0
    EXPECT_EQ(wrapShrA(INT32_MIN, 31), -1);
    EXPECT_EQ(wrapShrL(INT32_MIN, 31), 1);
    EXPECT_TRUE(divSTraps(INT32_MIN, -1));
    EXPECT_TRUE(divSTraps(5, 0));
    EXPECT_FALSE(divSTraps(INT32_MIN, 1));
    EXPECT_EQ(wrapDivS(-7, 2), -3);  // truncates toward zero
    EXPECT_EQ(wrapRemS(-7, 2), -1);  // remainder takes dividend sign
}
