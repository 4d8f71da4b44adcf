/**
 * @file
 * proteus_trace: offline analyser for the Chrome trace-event files
 * written by the observability subsystem (proteus_sim --trace, or any
 * bench binary run with PROTEUS_TRACE_FILE set).
 *
 * Prints a per-stage latency breakdown (queue wait, execution,
 * end-to-end) with p50/p95/p99 per model variant, the
 * controller/solver decision summary, and the top-N slowest queries.
 * With --critical-path, decomposes each tail exemplar's end-to-end
 * latency into the exact segment partition (obs/lineage.h), aggregating
 * per-family/per-variant blame tables (JSON via --blame-json). The
 * trace is read back by obs::readChromeTrace, the inverse of the
 * exporter, so every table here runs on the tracer's own records.
 *
 * Exit codes: 0 = ok, 1 = findings or error (unreadable trace,
 * inexact partition), 2 = usage.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/exporter.h"
#include "obs/lineage.h"
#include "obs/trace.h"

namespace {

void
usage(std::ostream& os)
{
    os << "usage: proteus_trace <trace.json> [options]\n"
          "\n"
          "options:\n"
          "  --top N              rows in the slowest-queries table "
          "(default 10)\n"
          "  --critical-path [Q]  decompose query Q's latency into the "
          "exact segment\n"
          "                       partition; without Q, analyze the "
          "trace's tail\n"
          "                       exemplars (fallback: top-N slowest)\n"
          "  --blame-json PATH    write the per-family/per-variant "
          "blame tables as\n"
          "                       JSON (implies --critical-path)\n"
          "  --help               this text\n"
          "\n"
          "exit codes: 0 ok, 1 findings or error, 2 usage\n";
}

std::string
ms(double us)
{
    return proteus::fmtDouble(us / 1000.0, 2);
}

/** @return the name for @p id, or the bare id when unnamed. */
std::string
label(const std::vector<std::string>& names, long long id)
{
    if (id >= 0 && static_cast<std::size_t>(id) < names.size())
        return names[static_cast<std::size_t>(id)];
    return std::to_string(id);
}

/** @return the variant id of @p s as a table key (-1 = none). */
long long
variantKey(const proteus::obs::SpanRecord& s)
{
    return s.b == proteus::kInvalidId ? -1 : static_cast<long long>(s.b);
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace proteus;
    std::string path;
    int top_n = 10;
    bool critical_path = false;
    long long critical_qid = -1;
    std::string blame_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--top" && i + 1 < argc) {
            top_n = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--critical-path") {
            critical_path = true;
            // Optional query id operand (digits only).
            if (i + 1 < argc) {
                const std::string next = argv[i + 1];
                if (!next.empty() &&
                    next.find_first_not_of("0123456789") ==
                        std::string::npos) {
                    critical_qid = std::atoll(argv[++i]);
                }
            }
        } else if (arg == "--blame-json" && i + 1 < argc) {
            critical_path = true;
            blame_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "proteus_trace: unknown option " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "proteus_trace: unexpected argument " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (path.empty()) {
        usage(std::cerr);
        return 2;
    }

    JsonValue doc;
    std::string error;
    if (!parseJsonFile(path, &doc, &error)) {
        std::cerr << "cannot parse " << path << ": " << error << "\n";
        return 1;
    }
    obs::ChromeTrace trace;
    if (!obs::readChromeTrace(doc, &trace, &error)) {
        std::cerr << path << " is not a proteus Chrome trace: " << error
                  << "\n";
        return 1;
    }
    const obs::TraceNameTables& names = trace.names;

    std::cout << "== " << path << ": " << trace.spans.size()
              << " spans (recorded " << trace.spans_recorded
              << ", dropped " << trace.spans_dropped << ") ==\n\n";

    // Per-variant stage breakdown. Queue/exec waits are grouped by the
    // variant whose queue the query joined (a worker drop's queue span
    // names the variant it waited for), end-to-end times by the
    // variant in the query span (variant -1 = dropped before
    // execution).
    struct StageDurations {
        std::vector<double> queue, exec, total;
    };
    std::map<long long, StageDurations> by_variant;
    std::vector<const obs::SpanRecord*> queries;
    std::vector<double> solve_durs, solve_nodes;

    for (const obs::SpanRecord& s : trace.spans) {
        const auto dur = static_cast<double>(s.duration());
        if (s.kind == obs::SpanKind::Queue) {
            by_variant[variantKey(s)].queue.push_back(dur);
        } else if (s.kind == obs::SpanKind::Exec) {
            by_variant[variantKey(s)].exec.push_back(dur);
        } else if (s.kind == obs::SpanKind::Solve) {
            solve_durs.push_back(dur);
            solve_nodes.push_back(static_cast<double>(s.v0));
        } else if (s.kind == obs::SpanKind::Query) {
            by_variant[variantKey(s)].total.push_back(dur);
            queries.push_back(&s);
        }
    }

    const std::vector<double> kPs{50.0, 95.0, 99.0};
    TextTable stages;
    stages.setHeader({"variant", "stage", "count", "p50_ms", "p95_ms",
                      "p99_ms"});
    for (auto& [variant, s] : by_variant) {
        struct Row {
            const char* stage;
            std::vector<double>* vals;
        };
        for (const Row& row : {Row{"queue", &s.queue}, Row{"exec", &s.exec},
                               Row{"total", &s.total}}) {
            if (row.vals->empty())
                continue;
            std::vector<double> p = percentiles(*row.vals, kPs);
            stages.addRow({variant < 0 ? std::string("(dropped)")
                                       : label(names.variants, variant),
                           row.stage,
                           std::to_string(row.vals->size()), ms(p[0]),
                           ms(p[1]), ms(p[2])});
        }
    }
    std::cout << "-- per-variant stage latency --\n";
    stages.print(std::cout);

    // Per-pipeline e2e breakdown: exec time per stage, the queue gap
    // between consecutive stages (next stage's exec start minus the
    // previous stage's exec end — the queueing of the hop),
    // and the end-to-end latency from the query span. Only present
    // when the trace carries pipeline/stage args.
    struct PipelineDurations {
        std::map<long long, std::vector<double>> stage_exec;
        std::map<long long, std::vector<double>> stage_gap;
        std::vector<double> e2e;
    };
    std::map<long long, PipelineDurations> by_pipeline;
    // qid -> pipeline, from the (terminal) query spans.
    std::map<long long, long long> pipeline_of_query;
    // qid -> per-stage exec (ts, dur), for the gap computation.
    std::map<long long,
             std::map<long long, std::pair<double, double>>>
        exec_of_query;
    for (const obs::SpanRecord& s : trace.spans) {
        if (s.kind == obs::SpanKind::Exec && s.v1 != 0) {
            exec_of_query[static_cast<long long>(s.id)][s.v1 - 1] = {
                static_cast<double>(s.start),
                static_cast<double>(s.duration())};
        }
        if (s.kind == obs::SpanKind::Query && s.v2 != 0) {
            by_pipeline[s.v2 - 1].e2e.push_back(
                static_cast<double>(s.duration()));
            pipeline_of_query[static_cast<long long>(s.id)] = s.v2 - 1;
        }
    }
    for (const auto& [qid, stages_of] : exec_of_query) {
        auto pit = pipeline_of_query.find(qid);
        if (pit == pipeline_of_query.end())
            continue;  // dropped before the terminal query span
        PipelineDurations& pd = by_pipeline[pit->second];
        const std::pair<double, double>* prev = nullptr;
        long long prev_stage = -1;
        for (const auto& [stage, td] : stages_of) {
            pd.stage_exec[stage].push_back(td.second);
            if (prev && stage == prev_stage + 1) {
                pd.stage_gap[stage].push_back(
                    td.first - (prev->first + prev->second));
            }
            prev = &td;
            prev_stage = stage;
        }
    }
    for (const auto& [pipe, pd] : by_pipeline) {
        std::string pname =
            pipe >= 0 &&
                    static_cast<std::size_t>(pipe) <
                        names.pipelines.size()
                ? names.pipelines[static_cast<std::size_t>(pipe)].name
                : std::to_string(pipe);
        const std::vector<std::string>* stage_names =
            pipe >= 0 && static_cast<std::size_t>(pipe) <
                             names.pipelines.size()
                ? &names.pipelines[static_cast<std::size_t>(pipe)]
                       .stages
                : nullptr;
        auto stageLabel = [&](long long s) {
            if (stage_names &&
                static_cast<std::size_t>(s) < stage_names->size())
                return (*stage_names)[static_cast<std::size_t>(s)];
            return "stage " + std::to_string(s);
        };
        TextTable bt;
        bt.setHeader({"segment", "count", "p50_ms", "p95_ms",
                      "p99_ms"});
        for (const auto& [stage, durs] : pd.stage_exec) {
            std::vector<double> p = percentiles(durs, kPs);
            bt.addRow({stageLabel(stage) + " exec",
                       std::to_string(durs.size()), ms(p[0]),
                       ms(p[1]), ms(p[2])});
            auto git = pd.stage_gap.find(stage);
            if (git != pd.stage_gap.end()) {
                std::vector<double> g =
                    percentiles(git->second, kPs);
                bt.addRow({stageLabel(stage - 1) + " -> " +
                               stageLabel(stage) + " gap",
                           std::to_string(git->second.size()),
                           ms(g[0]), ms(g[1]), ms(g[2])});
            }
        }
        if (!pd.e2e.empty()) {
            std::vector<double> p = percentiles(pd.e2e, kPs);
            bt.addRow({"e2e", std::to_string(pd.e2e.size()), ms(p[0]),
                       ms(p[1]), ms(p[2])});
        }
        std::cout << "\n-- pipeline " << pname
                  << " e2e breakdown --\n";
        bt.print(std::cout);
    }

    if (!solve_durs.empty()) {
        std::vector<double> dp = percentiles(solve_durs, kPs);
        std::vector<double> np = percentiles(solve_nodes, kPs);
        std::cout << "\n-- controller decisions --\n"
                  << "solves: " << solve_durs.size()
                  << "  solve->apply p50/p95/p99 ms: " << ms(dp[0])
                  << "/" << ms(dp[1]) << "/" << ms(dp[2])
                  << "  B&B nodes p50/p99: " << fmtDouble(np[0], 0)
                  << "/" << fmtDouble(np[2], 0) << "\n";
    }

    std::sort(queries.begin(), queries.end(),
              [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                  if (a->duration() != b->duration())
                      return a->duration() > b->duration();
                  return a->id < b->id;
              });
    TextTable slow;
    slow.setHeader({"qid", "family", "variant", "device", "status",
                    "latency_ms"});
    const char* kStatus[] = {"pending", "served", "late", "dropped"};
    int shown = 0;
    for (const obs::SpanRecord* q : queries) {
        if (shown++ >= top_n)
            break;
        const long long var = variantKey(*q);
        slow.addRow({std::to_string(q->id),
                     label(names.families, q->a),
                     var < 0 ? std::string("-")
                             : label(names.variants, var),
                     std::to_string(q->v1),
                     q->v0 >= 0 && q->v0 <= 3 ? kStatus[q->v0] : "?",
                     ms(static_cast<double>(q->duration()))});
    }
    std::cout << "\n-- top " << std::min<std::size_t>(
                                    static_cast<std::size_t>(top_n),
                                    queries.size())
              << " slowest queries --\n";
    slow.print(std::cout);

    if (!critical_path)
        return 0;

    // Critical-path analysis: the exact-partition decomposition on the
    // chosen queries (explicit id > recorded tail exemplars > slowest).
    const obs::LineageIndex index(std::move(trace.spans),
                                  std::move(trace.links));
    std::vector<std::uint64_t> exemplar_ids;
    const char* exemplar_source = "";
    if (critical_qid >= 0) {
        exemplar_ids.push_back(
            static_cast<std::uint64_t>(critical_qid));
        exemplar_source = "requested query";
    } else {
        exemplar_ids = names.tail_exemplars;
        exemplar_source = "tail exemplars (seeded reservoir)";
        if (exemplar_ids.empty()) {
            exemplar_ids = index.slowestQueries(
                static_cast<std::size_t>(top_n));
            exemplar_source = "slowest traced queries (fallback)";
        }
    }

    std::vector<obs::CriticalPath> paths;
    std::size_t missing = 0, inexact = 0;
    const auto analyzeInto = [&](const std::vector<std::uint64_t>& ids) {
        for (const std::uint64_t qid : ids) {
            obs::CriticalPath cp = index.analyze(qid);
            if (cp.family == kInvalidId) {
                ++missing;
                continue;
            }
            if (!cp.exact())
                ++inexact;
            paths.push_back(std::move(cp));
        }
    };
    analyzeInto(exemplar_ids);
    // Reservoir exemplars sample the whole run while the span ring
    // keeps only the newest spans, so exemplars can be evicted from
    // the trace. That is not an error: fall back to the slowest
    // queries that are still fully present.
    if (paths.empty() && critical_qid < 0 && !exemplar_ids.empty()) {
        missing = 0;
        exemplar_source = "slowest traced queries (exemplars evicted)";
        analyzeInto(
            index.slowestQueries(static_cast<std::size_t>(top_n)));
    }

    const auto us_ms = [](Duration d) {
        return ms(static_cast<double>(d));
    };
    // Header cells "<segment kind>_ms", one per SegmentKind.
    const auto withSegmentColumns = [](std::vector<std::string> header) {
        for (std::size_t k = 0; k < obs::kNumSegmentKinds; ++k)
            header.push_back(std::string(obs::toString(
                                 static_cast<obs::SegmentKind>(k))) +
                             "_ms");
        return header;
    };
    std::cout << "\n-- critical path: " << paths.size() << " "
              << exemplar_source << " --\n";

    // One summary row per exemplar: e2e plus the per-kind totals of
    // its partition (columns sum to e2e exactly).
    TextTable summary;
    summary.setHeader(
        withSegmentColumns({"qid", "family", "variant", "e2e_ms"}));
    for (const obs::CriticalPath& cp : paths) {
        Duration by_kind[obs::kNumSegmentKinds] = {};
        for (const obs::Segment& s : cp.segments)
            by_kind[static_cast<std::size_t>(s.kind)] += s.duration();
        std::vector<std::string> row = {
            std::to_string(cp.query), label(names.families, cp.family),
            cp.variant == kInvalidId ? std::string("-")
                                     : label(names.variants, cp.variant),
            us_ms(cp.total())};
        for (const Duration d : by_kind)
            row.push_back(us_ms(d));
        summary.addRow(row);
    }
    summary.print(std::cout);

    // Detailed segment walk for an explicitly requested query.
    if (critical_qid >= 0 && !paths.empty()) {
        const obs::CriticalPath& cp = paths.front();
        TextTable walk;
        walk.setHeader({"segment", "start_ms", "dur_ms", "device",
                        "ref"});
        for (const obs::Segment& s : cp.segments) {
            walk.addRow({obs::toString(s.kind),
                         us_ms(s.start - cp.arrival),
                         us_ms(s.duration()),
                         s.device < 0 ? std::string("-")
                                      : std::to_string(s.device),
                         s.ref == 0 ? std::string("-")
                                    : std::to_string(s.ref)});
        }
        std::cout << "\n-- query " << cp.query << " segment walk ("
                  << (cp.exact() ? "exact" : "INEXACT")
                  << " partition) --\n";
        walk.print(std::cout);
    }

    // Blame tables: per-family / per-variant totals over the set,
    // labelled and ordered by id once for both the text and the JSON.
    using BlameRows = std::vector<std::pair<std::string, obs::BlameRow>>;
    const auto labelled =
        [](const std::unordered_map<std::uint32_t, obs::BlameRow>& rows,
           const std::vector<std::string>& name_table) {
            const std::map<std::uint32_t, obs::BlameRow> by_id(
                rows.begin(), rows.end());
            BlameRows out;
            for (const auto& [id, row] : by_id) {
                out.emplace_back(id == kInvalidId ? "(dropped)"
                                                  : label(name_table, id),
                                 row);
            }
            return out;
        };
    const obs::BlameTables blame = obs::aggregateBlame(paths);
    const BlameRows blame_family =
        labelled(blame.by_family, names.families);
    const BlameRows blame_variant =
        labelled(blame.by_variant, names.variants);
    const auto printBlame = [&](const char* title, const char* key,
                                const BlameRows& rows) {
        if (rows.empty())
            return;
        TextTable bt;
        bt.setHeader(withSegmentColumns({key, "queries"}));
        for (const auto& [name, row] : rows) {
            std::vector<std::string> cells = {name,
                                              std::to_string(row.queries)};
            for (const Duration d : row.by_kind)
                cells.push_back(us_ms(d));
            bt.addRow(cells);
        }
        std::cout << "\n-- blame " << title << " --\n";
        bt.print(std::cout);
    };
    printBlame("by family", "family", blame_family);
    printBlame("by variant", "variant", blame_variant);

    if (!blame_path.empty()) {
        std::string out = "{\"schema\":1,\"trace\":\"";
        out += path;
        out += "\",\"exemplar_source\":\"";
        out += exemplar_source;
        out += "\",\"exemplars\":[";
        for (std::size_t i = 0; i < paths.size(); ++i) {
            const obs::CriticalPath& cp = paths[i];
            out += i > 0 ? ",{" : "{";
            out += "\"qid\":" + std::to_string(cp.query);
            out += ",\"family\":" + std::to_string(cp.family);
            out += ",\"variant\":" +
                   std::to_string(
                       cp.variant == kInvalidId
                           ? -1
                           : static_cast<std::int64_t>(cp.variant));
            out += ",\"status\":" + std::to_string(cp.status);
            out += ",\"pipeline\":" + std::to_string(cp.pipeline);
            out += ",\"e2e_us\":" + std::to_string(cp.total());
            out += ",\"exact\":";
            out += cp.exact() ? "true" : "false";
            out += ",\"segments\":[";
            for (std::size_t j = 0; j < cp.segments.size(); ++j) {
                const obs::Segment& s = cp.segments[j];
                out += j > 0 ? ",{\"kind\":\"" : "{\"kind\":\"";
                out += obs::toString(s.kind);
                out += "\",\"start_us\":" +
                       std::to_string(s.start - cp.arrival);
                out += ",\"dur_us\":" + std::to_string(s.duration());
                out += ",\"device\":" + std::to_string(s.device);
                out += ",\"ref\":" + std::to_string(s.ref);
                out += '}';
            }
            out += "]}";
        }
        out += "]";
        const auto appendBlame = [&](const char* key,
                                     const BlameRows& rows) {
            out += ",\"" + std::string(key) + "\":{";
            for (std::size_t i = 0; i < rows.size(); ++i) {
                out += (i > 0 ? ",\"" : "\"") + rows[i].first +
                       "\":{\"queries\":" +
                       std::to_string(rows[i].second.queries);
                for (std::size_t k = 0; k < obs::kNumSegmentKinds; ++k) {
                    out += ",\"";
                    out += obs::toString(static_cast<obs::SegmentKind>(k));
                    out += "_us\":" +
                           std::to_string(rows[i].second.by_kind[k]);
                }
                out += '}';
            }
            out += '}';
        };
        appendBlame("by_family", blame_family);
        appendBlame("by_variant", blame_variant);
        out += "}\n";
        std::ofstream f(blame_path,
                        std::ios::binary | std::ios::trunc);
        if (!f || !f.write(out.data(),
                           static_cast<std::streamsize>(out.size()))) {
            std::cerr << "proteus_trace: cannot write " << blame_path
                      << "\n";
            return 1;
        }
        std::cout << "\nblame tables written to " << blame_path
                  << "\n";
    }

    if (inexact > 0 || (critical_qid >= 0 && missing > 0)) {
        std::cerr << "proteus_trace: " << inexact
                  << " inexact partition(s), " << missing
                  << " missing query span(s)\n";
        return 1;
    }
    return 0;
}
