/**
 * @file
 * Trace and metrics exporters (DESIGN.md, "Observability"):
 *
 *  - Chrome trace-event JSON (loadable in chrome://tracing and
 *    Perfetto): one complete ("X") event per span, timestamped in
 *    simulated microseconds. The output contains only integer fields
 *    derived from simulated time and deterministic counters, so it is
 *    byte-identical across runs with the same seed. readChromeTrace()
 *    parses it back into the records it was written from; both sides
 *    use one per-kind table of span args (exporter.cc, kArgsByKind).
 *    A child's causal parent rides in the "pk" (SpanKind) and "pid"
 *    (the parent's domain id) args. Batch numbers count per device,
 *    so a "pid" naming a Batch is resolved on the child's "device"
 *    arg: a queue event's parent is the batch with that number on
 *    that device.
 *  - Plain-JSON metrics dump of a MetricsRegistry (counters, gauges,
 *    histogram summaries with p50/p95/p99).
 */

#ifndef PROTEUS_OBS_EXPORTER_H_
#define PROTEUS_OBS_EXPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace proteus {
namespace obs {

/**
 * Optional name tables rendered into the trace's otherData so offline
 * tools (proteus_trace) can label raw ids. Built by the caller (the
 * obs layer knows nothing about registries); empty tables emit
 * nothing, keeping the no-names output byte-identical.
 */
struct TraceNameTables {
    /** families[f] = family name. */
    std::vector<std::string> families;
    /** variants[v] = variant name. */
    std::vector<std::string> variants;
    struct Pipeline {
        std::string name;
        /** Stage families in topological order. */
        std::vector<std::uint32_t> families;
        /** Stage names, same order. */
        std::vector<std::string> stages;
    };
    /** pipelines[p] = stage map of pipeline p. */
    std::vector<Pipeline> pipelines;
    /** Tail-exemplar query ids (sorted); empty emits nothing. */
    std::vector<std::uint64_t> tail_exemplars;
};

/** @return the Chrome trace-event JSON document for @p tracer. */
std::string toChromeTraceJson(const Tracer& tracer,
                              const TraceNameTables& names = {});

/** Everything a Chrome trace document carries, as records. */
struct ChromeTrace {
    /** Spans in file order (the tracer's oldest-first order). */
    std::vector<SpanRecord> spans;
    /** Queued-behind links in file order. */
    std::vector<LinkRecord> links;
    TraceNameTables names;
    /** The tracer's lifetime counters (otherData). */
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
    std::uint64_t links_recorded = 0;
    std::uint64_t links_dropped = 0;
};

/**
 * Parse a document written by toChromeTraceJson back into @p out, so
 * offline tools analyse exactly the records the tracer held.
 * @return false with @p error (may be null) naming the event and arg when
 * @p doc does not follow the format: an unknown span kind, a missing,
 * extra or non-integer arg, a missing or non-integer link field, or a
 * malformed name table.
 */
bool readChromeTrace(const JsonValue& doc, ChromeTrace* out,
                     std::string* error);

/**
 * Write toChromeTraceJson(@p tracer, @p names) to @p path.
 * @return false when the file cannot be written.
 */
bool writeChromeTrace(const Tracer& tracer, const TraceNameTables& names,
                      const std::string& path);

/** @return a JSON dump of every metric in @p registry. */
std::string toMetricsJson(const MetricsRegistry& registry);

/**
 * Write toMetricsJson(@p registry) to @p path.
 * @return false when the file cannot be written.
 */
bool writeMetricsJson(const MetricsRegistry& registry,
                      const std::string& path);

}  // namespace obs
}  // namespace proteus

#endif  // PROTEUS_OBS_EXPORTER_H_
