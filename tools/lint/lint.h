/**
 * @file
 * proteus_lint — determinism-and-safety static analysis for the tree.
 *
 * Each file is linted on its own: a tokenizer (comments, string/char/
 * raw-string literals, identifiers, numbers, punctuation) feeds the
 * token and comment rules below, then suppressions apply.
 *
 * Rules (see ruleRegistry() for the authoritative table):
 *   D1  no unordered_map/unordered_set in solver/controller/router/sim
 *       code (src/solver/, src/core/, src/sim/) — iteration order is
 *       unspecified and has leaked into decisions in other systems.
 *   D2  no direct wall-clock reads (std::chrono::{steady,system,
 *       high_resolution}_clock, time()/clock()/rand()/srand()) outside
 *       the audited shims: src/common/clock.h (WallTimer) and
 *       src/sweep/sweep_clock.h (sweep job timing; see the allowlist
 *       rationale at isClockShim()).
 *   D3  no float/double std::accumulate without an explicit
 *       "det-order:" comment justifying the summation order.
 *   D4  no std::cout / raw printf-family output outside bench/ and
 *       tools/ — library code must use common/logging.
 *   A1  no heap allocation or std::function in hot-path files.
 *   S1  no const_cast / reinterpret_cast in src/.
 *   S2  stale-marker comments must carry an issue reference, i.e.
 *       the TODO(#123) form.
 *   S3  suppression hygiene: every suppression marker names known
 *       rule ids and carries a non-empty reason.
 *   C1  no std::mutex / recursive_mutex / shared_mutex / lock_guard /
 *       unique_lock / scoped_lock in src/ outside src/common/sync.h.
 *       proteus::Mutex keeps lock()/unlock() private to MutexLock, so
 *       an unannotated std mutex is the only way left to lock by hand,
 *       and clang -Wthread-safety cannot see it.
 *
 * Lock ordering and unguarded shared state are not lint rules: the
 * ThreadSanitizer pass (tools/check.sh tsan) reports lock-order
 * inversions and data races at run time, and clang -Wthread-safety
 * rejects a PROTEUS_GUARDED_BY that names no real mutex.
 *
 * Suppressions:
 *   code();  // NOLINT-PROTEUS(D2): reason why this is safe
 *   // NOLINTNEXTLINE-PROTEUS(D1,D3): reason covering the next line
 *   // NOLINT-PROTEUS(*): reason — suppress every rule on this line
 */

#ifndef PROTEUS_TOOLS_LINT_LINT_H_
#define PROTEUS_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace proteus::lint {

/** One rule violation (or suppressed would-be violation). */
struct Finding {
    std::string file;           ///< path as passed to lintSource()
    int line = 0;               ///< 1-based line of the offending token
    int col = 0;                ///< 1-based column
    std::string rule;           ///< rule id, e.g. "D2"
    std::string message;        ///< human-readable explanation
    bool suppressed = false;    ///< true when a suppression covers it
    std::string suppress_reason;  ///< the suppression's reason text
};

/** Registry entry describing one rule. */
struct RuleInfo {
    const char* id;       ///< short id, e.g. "D1"
    const char* summary;  ///< one-line description for --list-rules
};

/** @return the full rule registry, in display order. */
const std::vector<RuleInfo>& ruleRegistry();

/** @return true when @p id names a registered rule. */
bool isKnownRule(const std::string& id);

/** Rule selection: empty set means every rule runs. */
struct LintOptions {
    std::set<std::string> rules;

    /** @return true when rule @p id should run under this filter. */
    bool
    enabled(const std::string& id) const
    {
        return rules.empty() || rules.count(id) != 0;
    }
};

// ---------------------------------------------------------------------------
// Whole-analysis drivers
// ---------------------------------------------------------------------------

/** The combined result of linting a set of sources. */
struct Analysis {
    std::vector<Finding> findings;  ///< sorted by (file, line, col, rule)
    std::size_t files_scanned = 0;
};

/**
 * Lint in-memory (path, text) pairs and merge the findings in
 * (file, line, col, rule) order. The CLI and the golden test share
 * this entry point so their outputs are byte-identical for the same
 * inputs.
 */
Analysis analyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const LintOptions& options = {});

/** Read @p files and lint them. IO errors become "IO" findings. */
Analysis analyzeFiles(const std::vector<std::string>& files,
                      const LintOptions& options = {});

/**
 * Lint one translation unit. @p path is used both for reporting and
 * for directory-scoped rule applicability (substring match on
 * "src/solver/", "bench/", ... so fixture trees that mirror the
 * layout exercise the same scoping).
 */
std::vector<Finding> lintSource(const std::string& path,
                                const std::string& text,
                                const LintOptions& options = {});

/**
 * Recursively collect .cc/.cpp/.h/.hpp files under @p roots, sorted
 * for deterministic output. When @p skip_fixtures is set, paths
 * containing "tests/lint/fixtures" are excluded (they contain
 * intentional violations).
 */
std::vector<std::string> collectFiles(const std::vector<std::string>& roots,
                                      bool skip_fixtures);

/** Serialize findings as the stable --json schema (schema 2). */
std::string toJson(const std::vector<Finding>& findings,
                   std::size_t files_scanned);

/** Format one finding as "file:line:col: [rule] message". */
std::string formatHuman(const Finding& f);

}  // namespace proteus::lint

#endif  // PROTEUS_TOOLS_LINT_LINT_H_
