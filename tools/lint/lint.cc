#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace proteus::lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind { Ident, Number, Punct };

struct Token {
    TokKind kind;
    std::string text;
    int line;
    int col;
};

/** A comment with the line span it occupies (block comments span). */
struct Comment {
    std::string text;
    int line;
    int end_line;
};

struct Scan {
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Single-pass scanner. Strings, char literals and raw strings are
 * consumed without emitting tokens (rule matching must never fire on
 * literal text); comments are collected separately for suppression
 * parsing and the comment-based rules (S2, D3's det-order).
 */
Scan
scanSource(const std::string& text)
{
    Scan out;
    std::size_t i = 0;
    const std::size_t n = text.size();
    int line = 1;
    int col = 1;

    auto advance = [&](char c) {
        if (c == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
    };
    auto take = [&]() {
        advance(text[i]);
        ++i;
    };

    while (i < n) {
        const char c = text[i];

        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            const int start_line = line;
            std::string body;
            while (i < n && text[i] != '\n') {
                body += text[i];
                take();
            }
            out.comments.push_back({body, start_line, start_line});
            continue;
        }

        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            const int start_line = line;
            std::string body;
            take();
            take();
            body += "/*";
            while (i < n) {
                if (text[i] == '*' && i + 1 < n && text[i + 1] == '/') {
                    take();
                    take();
                    body += "*/";
                    break;
                }
                body += text[i];
                take();
            }
            out.comments.push_back({body, start_line, line});
            continue;
        }

        if (c == '"') {
            take();
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n) {
                    take();
                    take();
                    continue;
                }
                const bool done = text[i] == '"' || text[i] == '\n';
                take();
                if (done)
                    break;
            }
            continue;
        }

        if (c == '\'') {
            take();
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n) {
                    take();
                    take();
                    continue;
                }
                const bool done = text[i] == '\'' || text[i] == '\n';
                take();
                if (done)
                    break;
            }
            continue;
        }

        if (isIdentStart(c)) {
            const int tl = line;
            const int tc = col;
            std::string id;
            while (i < n && isIdentChar(text[i])) {
                id += text[i];
                take();
            }
            // Raw string literal: R"delim( ... )delim"
            if (i < n && text[i] == '"' &&
                (id == "R" || id == "LR" || id == "uR" || id == "UR" ||
                 id == "u8R")) {
                take();  // opening quote
                std::string delim;
                while (i < n && text[i] != '(' && text[i] != '\n') {
                    delim += text[i];
                    take();
                }
                if (i < n)
                    take();  // '('
                const std::string closer = ")" + delim + "\"";
                while (i < n) {
                    if (text.compare(i, closer.size(), closer) == 0) {
                        for (std::size_t k = 0; k < closer.size(); ++k)
                            take();
                        break;
                    }
                    take();
                }
                continue;
            }
            out.tokens.push_back({TokKind::Ident, id, tl, tc});
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0)) {
            const int tl = line;
            const int tc = col;
            std::string num;
            while (i < n) {
                const char d = text[i];
                if (isIdentChar(d) || d == '.' || d == '\'') {
                    num += d;
                    take();
                    continue;
                }
                if ((d == '+' || d == '-') && !num.empty() &&
                    (num.back() == 'e' || num.back() == 'E' ||
                     num.back() == 'p' || num.back() == 'P')) {
                    num += d;
                    take();
                    continue;
                }
                break;
            }
            out.tokens.push_back({TokKind::Number, num, tl, tc});
            continue;
        }

        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            take();
            continue;
        }

        const int tl = line;
        const int tc = col;
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            take();
            take();
            out.tokens.push_back({TokKind::Punct, "::", tl, tc});
            continue;
        }
        if (c == '-' && i + 1 < n && text[i + 1] == '>') {
            take();
            take();
            out.tokens.push_back({TokKind::Punct, "->", tl, tc});
            continue;
        }
        out.tokens.push_back({TokKind::Punct, std::string(1, c), tl, tc});
        take();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/** One parsed suppression marker (see the forms in lint.h). */
struct Suppression {
    std::set<std::string> rules;  ///< empty when all == true
    bool all = false;             ///< "*" form
    std::string reason;
    int applies_to_line = 0;  ///< line whose findings it covers
};

struct SuppressionScan {
    std::vector<Suppression> suppressions;
    std::vector<Finding> malformed;  ///< S3 findings
};

std::string
trim(const std::string& s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Parse all suppression markers (same-line and next-line forms) in
 * one comment. Syntax: MARKER(rule[,rule...]): reason. Malformed
 * markers become S3 findings rather than silently suppressing
 * nothing.
 */
void
parseSuppressions(const std::string& path, const Comment& comment,
                  SuppressionScan* out)
{
    static const std::string kNext = "NOLINTNEXTLINE-PROTEUS";
    static const std::string kHere = "NOLINT-PROTEUS";

    const std::string& body = comment.text;
    std::size_t pos = 0;
    while (true) {
        std::size_t at_next = body.find(kNext, pos);
        std::size_t at_here = body.find(kHere, pos);
        bool next_form = false;
        std::size_t at;
        if (at_next != std::string::npos && at_next <= at_here) {
            // kHere is a substring of kNext, so a NOLINTNEXTLINE match
            // also matches kHere a few chars later; prefer the longer.
            next_form = true;
            at = at_next;
        } else if (at_here != std::string::npos) {
            at = at_here;
        } else {
            break;
        }
        const std::size_t marker_len =
            next_form ? kNext.size() : kHere.size();
        pos = at + marker_len;

        const int marker_line =
            comment.line +
            static_cast<int>(std::count(body.begin(),
                                        body.begin() +
                                            static_cast<std::ptrdiff_t>(at),
                                        '\n'));
        auto malformed = [&](const std::string& why) {
            Finding f;
            f.file = path;
            f.line = marker_line;
            f.col = 1;
            f.rule = "S3";
            f.message = "malformed NOLINT-PROTEUS suppression: " + why;
            out->malformed.push_back(f);
        };

        if (pos >= body.size() || body[pos] != '(') {
            malformed("expected '(rule[,rule...])' after marker");
            continue;
        }
        const std::size_t close = body.find(')', pos);
        if (close == std::string::npos) {
            malformed("unterminated rule list");
            continue;
        }
        const std::string rule_list = body.substr(pos + 1, close - pos - 1);
        pos = close + 1;

        Suppression sup;
        bool ok = true;
        std::stringstream ss(rule_list);
        std::string item;
        int items = 0;
        while (std::getline(ss, item, ',')) {
            item = trim(item);
            if (item.empty())
                continue;
            ++items;
            if (item == "*") {
                sup.all = true;
            } else if (isKnownRule(item)) {
                sup.rules.insert(item);
            } else {
                malformed("unknown rule id '" + item + "'");
                ok = false;
            }
        }
        if (items == 0) {
            malformed("empty rule list");
            ok = false;
        }
        if (!ok)
            continue;

        // Reason: everything after a ':' up to the end of the comment
        // line the marker sits on.
        std::size_t colon = pos;
        while (colon < body.size() &&
               (body[colon] == ' ' || body[colon] == '\t'))
            ++colon;
        if (colon >= body.size() || body[colon] != ':') {
            malformed("missing ': reason'");
            continue;
        }
        std::size_t reason_end = body.find('\n', colon);
        if (reason_end == std::string::npos)
            reason_end = body.size();
        std::string reason =
            trim(body.substr(colon + 1, reason_end - colon - 1));
        // Strip a trailing block-comment closer from one-line /* */.
        if (reason.size() >= 2 && reason.substr(reason.size() - 2) == "*/")
            reason = trim(reason.substr(0, reason.size() - 2));
        if (reason.empty()) {
            malformed("empty reason");
            continue;
        }
        sup.reason = reason;
        sup.applies_to_line =
            next_form ? comment.end_line + 1 : marker_line;
        out->suppressions.push_back(sup);
    }
}

/** Mark a finding suppressed when one of @p sups covers its line and
 *  rule. */
void
applySuppressions(const std::vector<Suppression>& sups,
                  std::vector<Finding>* findings)
{
    for (Finding& f : *findings) {
        if (f.suppressed)
            continue;
        for (const Suppression& s : sups) {
            if (s.applies_to_line != f.line)
                continue;
            if (!s.all && s.rules.count(f.rule) == 0)
                continue;
            f.suppressed = true;
            f.suppress_reason = s.reason;
            break;
        }
    }
}

/** Stable finding order: (line, col, rule) within one file. */
void
sortFindings(std::vector<Finding>* findings)
{
    std::sort(findings->begin(), findings->end(),
              [](const Finding& a, const Finding& b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.col != b.col)
                      return a.col < b.col;
                  return a.rule < b.rule;
              });
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

std::string
normalizePath(const std::string& path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p;
}

bool
pathHas(const std::string& path, const char* frag)
{
    return path.find(frag) != std::string::npos;
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** D1 scope: the deterministic decision path. */
bool
isDecisionPath(const std::string& path)
{
    return pathHas(path, "src/solver/") || pathHas(path, "src/core/") ||
           pathHas(path, "src/sim/") || pathHas(path, "src/pipeline/");
}

/**
 * D2 allowlist: the sanctioned wall-clock sites. Each entry is a
 * single audited file, never a directory — adding one requires the
 * same audit common/clock.h got (reads are measurement-only and can
 * never change a deterministic result):
 *   - src/common/clock.h: the WallTimer shim (solver time limits).
 *   - src/sweep/sweep_clock.h: sweep job timing + journal stamps;
 *     wall time there only aborts over-budget jobs into explicit
 *     failure rows and annotates the journal, never the merged store.
 */
bool
isClockShim(const std::string& path)
{
    return endsWith(path, "src/common/clock.h") ||
           path == "common/clock.h" || path == "clock.h" ||
           endsWith(path, "src/sweep/sweep_clock.h");
}

/** C1 scope: the annotated wrapper is the one file that may hold a
 *  std mutex. */
bool
isSyncShim(const std::string& path)
{
    return endsWith(path, "src/common/sync.h");
}

/** D4 scope: raw stdout/stderr output is fine in bench and tools. */
bool
isOutputAllowed(const std::string& path)
{
    return pathHas(path, "bench/") || pathHas(path, "tools/");
}

/** A1 scope: the zero-allocation query hot path (ISSUE 6). */
bool
isHotPath(const std::string& path)
{
    if (pathHas(path, "src/sim/") || pathHas(path, "src/common/alloc/"))
        return true;
    return pathHas(path, "src/core/worker") ||
           pathHas(path, "src/core/router") ||
           pathHas(path, "src/core/batching") ||
           pathHas(path, "src/core/query") ||
           pathHas(path, "src/pipeline/stage_router");
}

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

bool
isClockIdent(const std::string& id)
{
    // Spelled with a runtime concatenation so proteus_lint's own
    // sources stay clean under the rule it enforces.
    static const std::string suffix = "_clock";
    return id == "steady" + suffix || id == "system" + suffix ||
           id == "high_resolution" + suffix;
}

/** C1: std locking types, invisible to clang -Wthread-safety. */
bool
isStdLockType(const std::string& id)
{
    return id == "mutex" || id == "recursive_mutex" ||
           id == "shared_mutex" || id == "lock_guard" ||
           id == "unique_lock" || id == "scoped_lock";
}

bool
isClockCall(const std::string& id)
{
    return id == "time" || id == "clock" || id == "rand" || id == "srand";
}

bool
isPrintfFamily(const std::string& id)
{
    return id == "printf" || id == "fprintf" || id == "vprintf" ||
           id == "vfprintf" || id == "puts" || id == "fputs" ||
           id == "putchar" || id == "putc" || id == "fputc";
}

/** @return true when any comment intersecting [line-2, line] contains
 *  a "det-order" marker — D3's escape hatch. */
bool
hasDetOrderComment(const std::vector<Comment>& comments, int line)
{
    for (const Comment& c : comments) {
        if (c.end_line < line - 2 || c.line > line)
            continue;
        if (c.text.find("det-order") != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Scan the balanced-paren argument list starting at tokens[open] (the
 * '(') for evidence of floating-point accumulation: a float literal
 * or a float/double keyword.
 */
bool
argsLookFloating(const std::vector<Token>& tokens, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(")
                ++depth;
            else if (t.text == ")") {
                --depth;
                if (depth == 0)
                    break;
            }
            continue;
        }
        if (depth == 0)
            break;
        if (t.kind == TokKind::Ident &&
            (t.text == "float" || t.text == "double"))
            return true;
        if (t.kind == TokKind::Number) {
            const std::string& v = t.text;
            const bool is_hex =
                v.size() > 1 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
            if (!is_hex &&
                (v.find('.') != std::string::npos ||
                 v.find('e') != std::string::npos ||
                 v.find('E') != std::string::npos ||
                 v.back() == 'f' || v.back() == 'F'))
                return true;
        }
    }
    return false;
}

void
checkTokens(const std::string& path, const Scan& scan,
            std::vector<Finding>* findings)
{
    const bool decision = isDecisionPath(path);
    const bool clock_ok = isClockShim(path);
    const bool output_ok = isOutputAllowed(path);
    const bool in_src = pathHas(path, "src/");
    const bool std_locks_banned = in_src && !isSyncShim(path);
    const bool hot = isHotPath(path);

    const std::vector<Token>& toks = scan.tokens;
    auto add = [&](const Token& t, const char* rule, std::string msg) {
        Finding f;
        f.file = path;
        f.line = t.line;
        f.col = t.col;
        f.rule = rule;
        f.message = std::move(msg);
        findings->push_back(std::move(f));
    };
    auto prevText = [&](std::size_t i) -> std::string {
        return i > 0 ? toks[i - 1].text : std::string();
    };
    auto nextIsCallParen = [&](std::size_t i) {
        return i + 1 < toks.size() && toks[i + 1].kind == TokKind::Punct &&
               toks[i + 1].text == "(";
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        const std::string& id = t.text;

        if (decision &&
            (id == "unordered_map" || id == "unordered_set" ||
             id == "unordered_multimap" || id == "unordered_multiset")) {
            add(t, "D1",
                "unordered container '" + id +
                    "' in deterministic decision path; iteration order "
                    "is unspecified — use std::map/std::set or an "
                    "insertion-ordered wrapper");
            continue;
        }

        if (std_locks_banned && isStdLockType(id) && prevText(i) == "::" &&
            i >= 2 && toks[i - 2].text == "std") {
            add(t, "C1",
                "std::" + id +
                    " in src/; lock through proteus::Mutex and MutexLock "
                    "(common/sync.h) so -Wthread-safety sees the "
                    "acquisition");
            continue;
        }

        if (!clock_ok && isClockIdent(id)) {
            add(t, "D2",
                "direct wall-clock '" + id +
                    "'; use proteus::WallTimer from common/clock.h, "
                    "the one sanctioned wall-clock site");
            continue;
        }
        if (!clock_ok && isClockCall(id) && nextIsCallParen(i)) {
            const std::string prev = prevText(i);
            if (prev != "." && prev != "->") {
                add(t, "D2",
                    "call to '" + id +
                        "()' reads ambient wall-clock/PRNG state; use "
                        "proteus::WallTimer (common/clock.h) or "
                        "proteus::Rng (common/rng.h)");
                continue;
            }
        }

        if (id == "accumulate" && nextIsCallParen(i) &&
            argsLookFloating(toks, i + 1) &&
            !hasDetOrderComment(scan.comments, t.line)) {
            add(t, "D3",
                "floating-point std::accumulate without a det-order "
                "comment; add '// det-order: <why the fold order is "
                "fixed>' within the two lines above");
            continue;
        }

        if (!output_ok && id == "cout") {
            add(t, "D4",
                "raw std::cout outside bench/tools; use common/logging "
                "(inform/warn/debugLog)");
            continue;
        }
        if (!output_ok && isPrintfFamily(id) && nextIsCallParen(i)) {
            const std::string prev = prevText(i);
            if (prev != "." && prev != "->") {
                add(t, "D4",
                    "raw " + id +
                        "() outside bench/tools; use common/logging "
                        "(inform/warn/debugLog)");
                continue;
            }
        }

        if (hot) {
            // Allocating 'new' is always followed by a type name.
            // This skips placement new ('new (addr) T' — storage the
            // caller already owns), 'operator new' declarations (the
            // interposition shim itself) and '#include <new>'.
            const bool alloc_new =
                id == "new" && prevText(i) != "operator" &&
                i + 1 < toks.size() &&
                toks[i + 1].kind == TokKind::Ident;
            if (alloc_new) {
                add(t, "A1",
                    "heap 'new' in hot-path file; use "
                    "alloc::ObjectPool/ScratchVector (or "
                    "placement new into pooled storage)");
                continue;
            }
            if (id == "make_unique" || id == "make_shared") {
                add(t, "A1",
                    "std::" + id +
                        " in hot-path file; hot-path objects come from "
                        "alloc::ObjectPool, not the heap");
                continue;
            }
            if (id == "function" && prevText(i) == "::") {
                add(t, "A1",
                    "std::function in hot-path file; it heap-allocates "
                    "for large captures — use alloc::InplaceFunction");
                continue;
            }
        }

        if (in_src && (id == "const_cast" || id == "reinterpret_cast")) {
            add(t, "S1",
                id + " in src/; redesign the interface instead of "
                     "casting around it");
            continue;
        }
    }
}

// ---------------------------------------------------------------------------
// Comment rules
// ---------------------------------------------------------------------------

void
checkComments(const std::string& path, const Scan& scan,
              std::vector<Finding>* findings)
{
    for (const Comment& c : scan.comments) {
        for (const char* marker : {"TODO", "FIXME"}) {
            std::size_t pos = 0;
            const std::string m(marker);
            while ((pos = c.text.find(m, pos)) != std::string::npos) {
                // Reject TODOS/, xTODO, ... — require a bare word.
                const bool word_start =
                    pos == 0 || !isIdentChar(c.text[pos - 1]);
                const std::size_t after = pos + m.size();
                const bool word_end =
                    after >= c.text.size() || !isIdentChar(c.text[after]);
                if (!word_start || !word_end) {
                    pos = after;
                    continue;
                }
                // Valid form: TODO(#123)
                bool ok = false;
                if (after + 2 < c.text.size() && c.text[after] == '(' &&
                    c.text[after + 1] == '#') {
                    std::size_t d = after + 2;
                    while (d < c.text.size() &&
                           std::isdigit(static_cast<unsigned char>(
                               c.text[d])) != 0)
                        ++d;
                    ok = d > after + 2 && d < c.text.size() &&
                         c.text[d] == ')';
                }
                if (!ok) {
                    Finding f;
                    f.file = path;
                    f.line = c.line +
                             static_cast<int>(std::count(
                                 c.text.begin(),
                                 c.text.begin() +
                                     static_cast<std::ptrdiff_t>(pos),
                                 '\n'));
                    f.col = 1;
                    f.rule = "S2";
                    f.message =
                        m + " without an issue reference; use " + m +
                        "(#<issue>) so stale markers stay traceable";
                    findings->push_back(std::move(f));
                }
                pos = after;
            }
        }
    }
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>&
ruleRegistry()
{
    static const std::vector<RuleInfo> kRules = {
        {"D1", "no unordered containers in solver/controller/router/sim "
               "code (src/solver, src/core, src/sim, src/pipeline)"},
        {"D2", "no direct wall-clock or ambient PRNG reads outside the "
               "audited shims (src/common/clock.h, "
               "src/sweep/sweep_clock.h)"},
        {"D3", "no float/double std::accumulate without a det-order "
               "comment"},
        {"D4", "no std::cout / raw printf-family output outside "
               "bench/ and tools/ (use common/logging)"},
        {"A1", "no heap allocation (new / make_unique / make_shared) or "
               "std::function in hot-path files (src/sim, "
               "src/common/alloc, src/core/{worker,router,batching,"
               "query}, src/pipeline/stage_router)"},
        {"S1", "no const_cast / reinterpret_cast in src/"},
        {"S2", "no TODO/FIXME without an issue reference TODO(#N)"},
        {"S3", "every NOLINT-PROTEUS names known rules and carries a "
               "non-empty reason"},
        {"C1", "no std::mutex / recursive_mutex / shared_mutex / "
               "lock_guard / unique_lock / scoped_lock in src/ outside "
               "src/common/sync.h (lock through proteus::Mutex + "
               "MutexLock)"},
    };
    return kRules;
}

bool
isKnownRule(const std::string& id)
{
    for (const RuleInfo& r : ruleRegistry()) {
        if (id == r.id)
            return true;
    }
    return false;
}

std::vector<Finding>
lintSource(const std::string& path, const std::string& text,
           const LintOptions& options)
{
    const std::string norm = normalizePath(path);
    const Scan scan = scanSource(text);

    SuppressionScan sups;
    for (const Comment& c : scan.comments)
        parseSuppressions(norm, c, &sups);

    std::vector<Finding> findings;
    checkTokens(norm, scan, &findings);
    checkComments(norm, scan, &findings);
    for (Finding& f : sups.malformed)
        findings.push_back(std::move(f));

    applySuppressions(sups.suppressions, &findings);

    if (!options.rules.empty()) {
        findings.erase(std::remove_if(findings.begin(), findings.end(),
                                      [&](const Finding& f) {
                                          return !options.enabled(f.rule);
                                      }),
                       findings.end());
    }

    sortFindings(&findings);
    return findings;
}

Analysis
analyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const LintOptions& options)
{
    Analysis out;
    out.files_scanned = sources.size();

    for (const auto& [path, text] : sources) {
        std::vector<Finding> per_file = lintSource(path, text, options);
        out.findings.insert(out.findings.end(),
                            std::make_move_iterator(per_file.begin()),
                            std::make_move_iterator(per_file.end()));
    }

    std::sort(out.findings.begin(), out.findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.col != b.col)
                      return a.col < b.col;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return out;
}

Analysis
analyzeFiles(const std::vector<std::string>& files,
             const LintOptions& options)
{
    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    std::vector<Finding> io_errors;
    for (const std::string& path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            Finding f;
            f.file = path;
            f.line = 0;
            f.col = 0;
            f.rule = "IO";
            f.message = "cannot open file";
            io_errors.push_back(std::move(f));
            continue;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        sources.emplace_back(path, ss.str());
    }

    Analysis out = analyzeSources(sources, options);
    out.files_scanned = files.size();
    if (!io_errors.empty()) {
        out.findings.insert(out.findings.begin(),
                            std::make_move_iterator(io_errors.begin()),
                            std::make_move_iterator(io_errors.end()));
    }
    return out;
}

std::vector<std::string>
collectFiles(const std::vector<std::string>& roots, bool skip_fixtures)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    auto wanted = [](const fs::path& p) {
        const std::string ext = p.extension().string();
        return ext == ".cc" || ext == ".cpp" || ext == ".h" ||
               ext == ".hpp";
    };
    for (const std::string& root : roots) {
        std::error_code ec;
        if (fs::is_regular_file(root, ec)) {
            files.push_back(normalizePath(root));
            continue;
        }
        fs::recursive_directory_iterator it(root, ec);
        if (ec)
            continue;
        for (const auto& entry :
             fs::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file() || !wanted(entry.path()))
                continue;
            std::string p =
                normalizePath(entry.path().generic_string());
            if (skip_fixtures && pathHas(p, "tests/lint/fixtures"))
                continue;
            files.push_back(std::move(p));
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::string
toJson(const std::vector<Finding>& findings, std::size_t files_scanned)
{
    std::size_t suppressed = 0;
    for (const Finding& f : findings)
        suppressed += f.suppressed ? 1 : 0;

    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": 2,\n";
    out << "  \"files_scanned\": " << files_scanned << ",\n";
    out << "  \"counts\": {\"total\": " << findings.size()
        << ", \"suppressed\": " << suppressed
        << ", \"unsuppressed\": " << findings.size() - suppressed
        << "},\n";
    out << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"file\": \"" << jsonEscape(f.file) << "\", "
            << "\"line\": " << f.line << ", \"col\": " << f.col << ", "
            << "\"rule\": \"" << jsonEscape(f.rule) << "\", "
            << "\"message\": \"" << jsonEscape(f.message) << "\", "
            << "\"suppressed\": " << (f.suppressed ? "true" : "false")
            << ", \"reason\": \"" << jsonEscape(f.suppress_reason)
            << "\"}";
    }
    out << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
formatHuman(const Finding& f)
{
    std::ostringstream out;
    out << f.file << ":" << f.line << ":" << f.col << ": [" << f.rule
        << "] " << f.message;
    if (f.suppressed)
        out << " (suppressed: " << f.suppress_reason << ")";
    return out.str();
}

}  // namespace proteus::lint
