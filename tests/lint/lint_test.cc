/**
 * @file
 * proteus_lint tests: every rule firing, every suppression form, the
 * --json schema (golden output), and tokenizer edge cases.
 *
 * Fixture files live under tests/lint/fixtures/ in a tree that
 * mirrors the real layout (src/sim/, src/core/, bench/, ...) because
 * rule applicability is path-scoped. They are data, not code: never
 * compiled, and excluded from the default proteus_lint scan.
 */

#include "lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace {

using proteus::lint::Finding;
using proteus::lint::LintOptions;
using proteus::lint::lintSource;

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Lint one fixture, reporting under its repo-relative path. */
std::vector<Finding>
lintFixture(const std::string& rel)
{
    const std::string abs = std::string(LINT_FIXTURE_DIR) + "/" + rel;
    return lintSource("tests/lint/fixtures/" + rel, readFile(abs));
}

std::vector<std::string>
rulesOf(const std::vector<Finding>& fs, bool include_suppressed = true)
{
    std::vector<std::string> out;
    for (const Finding& f : fs) {
        if (include_suppressed || !f.suppressed)
            out.push_back(f.rule);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Per-rule fixtures
// ---------------------------------------------------------------------------

TEST(LintRules, D1FlagsUnorderedContainersInDecisionPath)
{
    auto fs = lintFixture("src/sim/d1_unordered.cc");
    ASSERT_EQ(fs.size(), 4u);
    for (const Finding& f : fs)
        EXPECT_EQ(f.rule, "D1");
    // The lookup-only set on line 9 carries a same-line suppression.
    EXPECT_FALSE(fs[0].suppressed);
    EXPECT_FALSE(fs[1].suppressed);
    EXPECT_FALSE(fs[2].suppressed);
    EXPECT_TRUE(fs[3].suppressed);
    EXPECT_EQ(fs[3].suppress_reason, "lookup-only set, never iterated");
}

TEST(LintRules, D1IgnoresUnorderedContainersOutsideDecisionPath)
{
    auto fs = lintSource("src/workload/gen.cc",
                         "#include <unordered_map>\n"
                         "std::unordered_map<int, int> m;\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintRules, D2FlagsClocksAndAmbientPrng)
{
    auto fs = lintFixture("src/core/d2_clock.cc");
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_EQ(fs[0].rule, "D2");  // steady_clock
    EXPECT_EQ(fs[1].rule, "D2");  // time(nullptr)
    EXPECT_EQ(fs[2].rule, "D2");  // rand(), suppressed
    EXPECT_FALSE(fs[0].suppressed);
    EXPECT_FALSE(fs[1].suppressed);
    EXPECT_TRUE(fs[2].suppressed);
}

TEST(LintRules, D2WhitelistsTheClockShim)
{
    const std::string body =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(lintSource("src/common/clock.h", body).empty());
    EXPECT_EQ(lintSource("src/common/other.h", body).size(), 1u);
}

TEST(LintRules, D2WhitelistsTheSweepClockShimOnly)
{
    const std::string body =
        "auto t = std::chrono::system_clock::now();\n";
    // The allowlist entry is the single audited file, not the
    // directory: every other sweep file still fires.
    EXPECT_TRUE(lintSource("src/sweep/sweep_clock.h", body).empty());
    EXPECT_EQ(lintSource("src/sweep/runner.cc", body).size(), 1u);
    EXPECT_EQ(lintSource("src/sweep/store.cc", body).size(), 1u);
}

TEST(LintRules, D2SweepFixturesMatchTheAllowlistScope)
{
    EXPECT_TRUE(lintFixture("src/sweep/sweep_clock.h").empty());
    auto fs = lintFixture("src/sweep/d2_scope.cc");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "D2");  // steady_clock
    EXPECT_EQ(fs[1].rule, "D2");  // time(nullptr)
    EXPECT_FALSE(fs[0].suppressed);
    EXPECT_FALSE(fs[1].suppressed);
}

TEST(LintRules, D2IgnoresMemberFunctionsNamedLikeClockCalls)
{
    auto fs = lintSource("src/core/q.cc",
                         "double f(const Query& q) { return q.time(); }\n"
                         "double g(Query* q) { return q->time(); }\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintRules, D3RequiresDetOrderCommentForFloatAccumulate)
{
    auto fs = lintFixture("src/common/d3_accumulate.cc");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "D3");
    EXPECT_FALSE(fs[0].suppressed);  // sum_bad
    EXPECT_EQ(fs[1].rule, "D3");
    EXPECT_TRUE(fs[1].suppressed);  // sum_suppressed, NOLINTNEXTLINE
    // sum_ok (det-order comment) and sum_int (integer) do not fire.
}

TEST(LintRules, D4FlagsRawOutputOutsideBenchAndTools)
{
    auto fs = lintFixture("src/core/d4_output.cc");
    ASSERT_EQ(fs.size(), 3u);  // cout, printf, fprintf; snprintf clean
    for (const Finding& f : fs)
        EXPECT_EQ(f.rule, "D4");
}

TEST(LintRules, D4AllowsBenchAndStringsStayInert)
{
    EXPECT_TRUE(lintFixture("bench/d4_allowed.cc").empty());
}

TEST(LintRules, A1FlagsHeapAllocationInHotPath)
{
    auto fs = lintFixture("src/sim/a1_alloc.cc");
    ASSERT_EQ(fs.size(), 5u);
    for (const Finding& f : fs)
        EXPECT_EQ(f.rule, "A1");
    EXPECT_FALSE(fs[0].suppressed);  // new Event{}
    EXPECT_FALSE(fs[1].suppressed);  // make_unique
    EXPECT_FALSE(fs[2].suppressed);  // make_shared
    EXPECT_FALSE(fs[3].suppressed);  // std::function Callback
    EXPECT_TRUE(fs[4].suppressed);   // AllowedCallback, NOLINTNEXTLINE
    // placementEvent (new (storage) Event{}) does not fire.
}

TEST(LintRules, A1AllowsPlacementNewOperatorNewAndIncludeNew)
{
    EXPECT_TRUE(lintSource("src/sim/p.cc",
                           "#include <new>\n"
                           "void* operator new(unsigned long n);\n"
                           "int* f(void* s) { return new (s) int{}; }\n")
                    .empty());
}

TEST(LintRules, A1IgnoresAllocationOutsideHotPath)
{
    const std::string body =
        "#include <memory>\n"
        "auto p = std::make_unique<int>(1);\n"
        "int* q = new int{2};\n";
    EXPECT_TRUE(lintSource("src/metrics/collector.cc", body).empty());
    EXPECT_TRUE(lintSource("src/core/controller.cc", body).empty());
    EXPECT_EQ(lintSource("src/core/worker.cc", body).size(), 2u);
    EXPECT_EQ(lintSource("src/common/alloc/pool.h", body).size(), 2u);
}

TEST(LintRules, S1FlagsUnsafeCastsInSrc)
{
    auto fs = lintFixture("src/common/s1_casts.cc");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "S1");
    EXPECT_EQ(fs[1].rule, "S1");
    // static_cast in the same fixture does not fire.
}

TEST(LintRules, S2RequiresIssueReferenceOnStaleMarkers)
{
    auto fs = lintFixture("src/common/s2_todo.cc");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "S2");
    EXPECT_EQ(fs[0].line, 2);  // marker with no reference at all
    EXPECT_EQ(fs[1].rule, "S2");
    EXPECT_EQ(fs[1].line, 3);  // second marker form, also unreferenced
    // line 4's TODO(#42) form is accepted.
}

TEST(LintRules, S3FlagsMalformedSuppressions)
{
    auto fs = lintFixture("src/common/s3_suppressions.cc");
    auto rules = rulesOf(fs);
    ASSERT_EQ(fs.size(), 6u);
    // Valid same-line and wildcard suppressions cover their D4s;
    // unknown-rule and missing-reason markers leave the D4 live and
    // add an S3 each.
    int s3 = 0;
    int live_d4 = 0;
    int suppressed_d4 = 0;
    for (const Finding& f : fs) {
        if (f.rule == "S3")
            ++s3;
        else if (f.rule == "D4" && f.suppressed)
            ++suppressed_d4;
        else if (f.rule == "D4")
            ++live_d4;
    }
    EXPECT_EQ(s3, 2);
    EXPECT_EQ(live_d4, 2);
    EXPECT_EQ(suppressed_d4, 2);
}

TEST(LintRules, C1FlagsStdLockTypesOutsideTheSyncShim)
{
    const std::string body =
        "#include <mutex>\n"
        "std::mutex a;\n"
        "std::recursive_mutex b;\n"
        "std::shared_mutex c;\n"
        "void f() {\n"
        "    std::lock_guard<M> g(m);\n"
        "    std::unique_lock<M> u(m);\n"
        "    std::scoped_lock s(m);\n"
        "}\n";
    auto fs = lintSource("src/core/locks.cc", body);
    const std::vector<int> lines = {2, 3, 4, 6, 7, 8};
    ASSERT_EQ(fs.size(), lines.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
        EXPECT_EQ(fs[i].rule, "C1");
        EXPECT_EQ(fs[i].line, lines[i]);
    }
    // The annotated wrapper itself and code outside src/ may use them.
    EXPECT_TRUE(lintSource("src/common/sync.h", body).empty());
    EXPECT_TRUE(lintSource("bench/locks.cc", body).empty());
    EXPECT_TRUE(lintSource("tests/sweep/locks.cc", body).empty());

    auto fixture = lintFixture("src/core/c1_std_mutex.cc");
    ASSERT_EQ(fixture.size(), 4u);
    EXPECT_EQ(rulesOf(fixture, /*include_suppressed=*/false),
              (std::vector<std::string>{"C1", "C1"}));
}

// ---------------------------------------------------------------------------
// C1 and raw locking: proteus::Mutex keeps lock()/unlock() private to
// MutexLock (ctest sync_raw_mutex_lock_does_not_compile), so only a
// std mutex can still be locked by hand.
// ---------------------------------------------------------------------------

TEST(ConcurrencyC1, FlagsRawLockAndUnlockOnResolvedMutex)
{
    // The raw calls cannot be told from any other lock() by tokens;
    // the std::mutex that makes them possible is flagged instead.
    auto fs = lintSource("src/core/raw.cc",
                         "#include <mutex>\n"
                         "namespace x {\n"
                         "std::mutex g_mu;\n"
                         "void f() {\n"
                         "    g_mu.lock();\n"
                         "    g_mu.unlock();\n"
                         "}\n"
                         "}  // namespace x\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "C1");
    EXPECT_EQ(fs[0].line, 3);
}

TEST(ConcurrencyC1, IgnoresLockCallsOnNonMutexObjects)
{
    auto fs = lintSource("src/core/wp.cc",
                         "#include <memory>\n"
                         "namespace x {\n"
                         "int f(std::weak_ptr<int> w) {\n"
                         "    auto s = w.lock();\n"
                         "    return s ? *s : 0;\n"
                         "}\n"
                         "}  // namespace x\n");
    EXPECT_TRUE(fs.empty());
}

TEST(ConcurrencyC1, RaiiGuardsAreTheSanctionedForm)
{
    auto fs = lintSource("src/core/guarded.cc",
                         "#include \"common/sync.h\"\n"
                         "namespace x {\n"
                         "proteus::Mutex g_mu;\n"
                         "void f() {\n"
                         "    proteus::MutexLock l(g_mu);\n"
                         "}\n"
                         "}  // namespace x\n");
    EXPECT_TRUE(fs.empty());
}

TEST(ConcurrencyC1, SyncShimIsTheSingleAllowedRawLockSite)
{
    const std::string body =
        "namespace proteus {\n"
        "class Mutex {\n"
        "    void lock() { mu_.lock(); }\n"
        "    std::mutex mu_;\n"
        "};\n"
        "}  // namespace proteus\n";
    EXPECT_TRUE(lintSource("src/common/sync.h", body).empty());
    EXPECT_FALSE(lintSource("src/common/other.h", body).empty());
}

TEST(ConcurrencyOptions, PerFileRuleFilterExcludesConcurrency)
{
    const std::string rel = "src/core/c1_std_mutex.cc";
    const std::string text =
        readFile(std::string(LINT_FIXTURE_DIR) + "/" + rel);
    LintOptions d_only;
    d_only.rules = {"D1", "D2", "D3", "D4"};
    EXPECT_TRUE(lintSource(rel, text, d_only).empty());

    LintOptions c1_only;
    c1_only.rules = {"C1"};
    auto fs = lintSource(rel, text, c1_only);
    EXPECT_FALSE(fs.empty());
    for (const Finding& f : fs)
        EXPECT_EQ(f.rule, "C1");
}

// ---------------------------------------------------------------------------
// Tokenizer edge cases
// ---------------------------------------------------------------------------

TEST(LintTokenizer, LiteralsAndCommentsAreInert)
{
    auto fs = lintSource(
        "src/sim/x.cc",
        "// a comment mentioning unordered_map is fine\n"
        "/* and steady_clock in a block comment too */\n"
        "const char* s = \"std::unordered_map<int,int> in a string\";\n"
        "const char* r = R\"(raw unordered_set literal)\";\n"
        "char c = 'x';\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintTokenizer, EscapedQuotesDoNotDerailStrings)
{
    auto fs = lintSource("src/sim/x.cc",
                         "const char* s = \"quote \\\" then "
                         "unordered_map stays literal\";\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintTokenizer, FindingCoordinatesAreOneBased)
{
    auto fs = lintSource("src/sim/x.cc", "std::unordered_set<int> s;\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_EQ(fs[0].col, 6);
}

// ---------------------------------------------------------------------------
// Suppression forms
// ---------------------------------------------------------------------------

TEST(LintSuppressions, MultiRuleListCoversEachNamedRule)
{
    auto fs = lintSource(
        "src/sim/x.cc",
        "std::unordered_map<int, long> m;  "
        "// NOLINT-PROTEUS(D1,D2): both rules named, one line\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_TRUE(fs[0].suppressed);
    EXPECT_EQ(fs[0].suppress_reason, "both rules named, one line");
}

TEST(LintSuppressions, SuppressionOnWrongRuleDoesNotApply)
{
    auto fs = lintSource("src/sim/x.cc",
                         "std::unordered_map<int, long> m;  "
                         "// NOLINT-PROTEUS(D4): wrong rule\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_FALSE(fs[0].suppressed);
}

TEST(ConcurrencySuppressions, MultiRuleListWithWhitespaceApplies)
{
    // The fixture's guard line carries "( C1 , D1 )": whitespace
    // around the ids must not defeat the rule-name match. Both C1s on
    // that line (lock_guard and its std::mutex argument) are covered.
    auto fs = lintFixture("src/core/c1_std_mutex.cc");
    ASSERT_EQ(fs.size(), 4u);
    EXPECT_FALSE(fs[0].suppressed);  // std::mutex g_c1_mu
    EXPECT_FALSE(fs[1].suppressed);  // std::shared_mutex
    EXPECT_TRUE(fs[2].suppressed);
    EXPECT_TRUE(fs[3].suppressed);
    EXPECT_EQ(fs[2].suppress_reason,
              "startup path, single-threaded by construction");
}

TEST(LintSuppressions, NextLineFormDoesNotCoverItsOwnLine)
{
    auto fs = lintSource(
        "src/sim/x.cc",
        "// NOLINTNEXTLINE-PROTEUS(D1): covers only the next line\n"
        "std::unordered_set<int> a;\n"
        "std::unordered_set<int> b;\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_TRUE(fs[0].suppressed);
    EXPECT_FALSE(fs[1].suppressed);
}

// ---------------------------------------------------------------------------
// JSON schema: golden output and parseability
// ---------------------------------------------------------------------------

// Kept in the full-path sort order collectFiles() produces, so the
// golden test feeds analyzeSources() the same sequence the CLI does.
const char* const kFixtureFiles[] = {
    "bench/d4_allowed.cc",
    "src/common/d3_accumulate.cc",
    "src/common/s1_casts.cc",
    "src/common/s2_todo.cc",
    "src/common/s3_suppressions.cc",
    "src/core/c1_std_mutex.cc",
    "src/core/d2_clock.cc",
    "src/core/d4_output.cc",
    "src/pipeline/d1_d2_planner.cc",
    "src/pipeline/stage_router_hot.cc",
    "src/sim/a1_alloc.cc",
    "src/sim/d1_unordered.cc",
    "src/sweep/d2_scope.cc",
    "src/sweep/sweep_clock.h",
};

TEST(LintJson, GoldenOutputIsByteIdentical)
{
    // Run the same entry point the CLI runs, over the same file list.
    std::vector<std::pair<std::string, std::string>> sources;
    for (const char* rel : kFixtureFiles) {
        const std::string abs =
            std::string(LINT_FIXTURE_DIR) + "/" + rel;
        sources.emplace_back("tests/lint/fixtures/" + std::string(rel),
                             readFile(abs));
    }
    const auto analysis = proteus::lint::analyzeSources(sources);
    const std::string got =
        proteus::lint::toJson(analysis.findings, sources.size());
    const std::string want = readFile(LINT_GOLDEN_FILE);
    EXPECT_EQ(got, want)
        << "regenerate with: build/tools/lint/proteus_lint --json "
           "tests/lint/fixtures > tests/lint/golden.json";
}

TEST(ConcurrencyJson, SchemaStampIsVersionTwo)
{
    const std::string json = proteus::lint::toJson({}, 0);
    EXPECT_NE(json.find("\"schema\": 2"), std::string::npos);
    EXPECT_EQ(json.find("\"version\""), std::string::npos);
}

TEST(LintJson, SchemaParsesAndCountsAreConsistent)
{
    const std::string text = readFile(LINT_GOLDEN_FILE);
    proteus::JsonValue v;
    std::string err;
    ASSERT_TRUE(proteus::parseJson(text, &v, &err)) << err;
    EXPECT_EQ(v.at("schema").asNumber(), 2.0);
    EXPECT_EQ(v.at("files_scanned").asNumber(),
              static_cast<double>(std::size(kFixtureFiles)));

    const auto& findings = v.at("findings").asArray();
    const auto& counts = v.at("counts");
    EXPECT_EQ(counts.at("total").asNumber(),
              static_cast<double>(findings.size()));
    double suppressed = 0;
    for (const auto& f : findings) {
        EXPECT_TRUE(f.at("file").isString());
        EXPECT_TRUE(f.at("line").isNumber());
        EXPECT_TRUE(f.at("col").isNumber());
        EXPECT_TRUE(f.at("rule").isString());
        EXPECT_TRUE(f.at("message").isString());
        EXPECT_TRUE(f.at("suppressed").isBool());
        EXPECT_TRUE(f.at("reason").isString());
        if (f.at("suppressed").asBool()) {
            ++suppressed;
            EXPECT_FALSE(f.at("reason").asString().empty())
                << "suppressed finding without a reason";
        }
    }
    EXPECT_EQ(counts.at("suppressed").asNumber(), suppressed);
    EXPECT_EQ(counts.at("unsuppressed").asNumber(),
              static_cast<double>(findings.size()) - suppressed);
}

// ---------------------------------------------------------------------------
// File collection and registry
// ---------------------------------------------------------------------------

TEST(LintFiles, DefaultScanSkipsFixtures)
{
    auto files =
        proteus::lint::collectFiles({LINT_FIXTURE_DIR}, true);
    EXPECT_TRUE(files.empty());
    files = proteus::lint::collectFiles({LINT_FIXTURE_DIR}, false);
    EXPECT_EQ(files.size(), std::size(kFixtureFiles));
}

TEST(LintRegistry, AllRuleIdsAreKnown)
{
    for (const auto& r : proteus::lint::ruleRegistry())
        EXPECT_TRUE(proteus::lint::isKnownRule(r.id));
    EXPECT_FALSE(proteus::lint::isKnownRule("D9"));
    EXPECT_FALSE(proteus::lint::isKnownRule(""));
}

}  // namespace
