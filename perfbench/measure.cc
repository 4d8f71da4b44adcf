/**
 * @file
 * Measurement program of the repository benchmark (see README.md in
 * this directory). It loads one workload config, generates the trace
 * from --seed, drives ServingSystem through its public staged API
 * (construct, beginRun, advanceTo in fixed simulated-time slices,
 * finishRun) and prints one JSON object of raw measurements on
 * stdout. Aggregation, correctness checks and the result line are the
 * job of run.py; this program only measures.
 *
 * Layers are timed from outside: after every slice the program reads
 * Allocator::lastSolveMeta(), and a slice in which a new decision
 * appeared is charged to the controller/solver, every other slice to
 * the serving path. A traced repetition (--trace 1) enables the
 * program's own span/lineage recording and reads its counts back.
 *
 * Between repetitions the program times a fixed reference kernel
 * (referenceSeconds()), so run.py can scale every host time to one
 * reference speed and cancel the drift of a shared host.
 *
 * Usage:
 *   perfbench_measure --config FILE --seed N --seconds S --trace 0|1
 *                    [--traces K] [--setups N] [--spans-out FILE]
 *
 * --traces K simulates K distinct traces (seeds seed*1000 + 0..K-1)
 * round-robin; --setups N takes N set-up samples on each of them.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/experiment.h"
#include "core/serving_system.h"
#include "obs/lineage.h"
#include "obs/trace.h"

namespace {

using namespace proteus;
using Clock = std::chrono::steady_clock;

/** Simulated length of one advanceTo() slice. */
constexpr double kSliceSeconds = 1.0;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps the reference kernel's result alive. */
volatile std::uint64_t g_reference_sink = 0;

/**
 * Reference kernel: 200,000 push/pop pairs of pseudo-random keys on a
 * 1000-entry binary heap, the access pattern of the simulator's event
 * queue. Its code and input never change, so the time it takes
 * measures only the host's current speed. On a shared 4-vCPU VM that
 * speed drifts by 20-30% over seconds to minutes, and this kernel's
 * time tracks the drift of all three workloads (README.md,
 * "Steadiness"); a synthetic arithmetic or memory-latency loop does
 * not.
 *
 * @return wall seconds the kernel took.
 */
double
referenceSeconds()
{
    const auto t0 = Clock::now();
    std::uint64_t state = 11;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 17;
    };
    std::priority_queue<std::uint64_t> heap;
    for (int i = 0; i < 1000; ++i)
        heap.push(next());
    for (int i = 0; i < 200000; ++i) {
        heap.push(next());
        heap.pop();
    }
    g_reference_sink = heap.top();
    return since(t0);
}

/** %.17g: doubles survive the round trip, so equality checks are exact. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Minimal JSON object writer for the raw-measurement record. */
class JsonOut
{
  public:
    JsonOut& key(const std::string& k)
    {
        comma();
        out_ << '"' << k << "\":";
        fresh_ = true;
        return *this;
    }
    JsonOut& val(double v)
    {
        out_ << num(v);
        fresh_ = false;
        return *this;
    }
    JsonOut& val(std::uint64_t v)
    {
        out_ << v;
        fresh_ = false;
        return *this;
    }
    JsonOut& val(std::int64_t v)
    {
        out_ << v;
        fresh_ = false;
        return *this;
    }
    JsonOut& open(char c)
    {
        comma();
        out_ << c;
        fresh_ = true;
        return *this;
    }
    JsonOut& close(char c)
    {
        out_ << c;
        fresh_ = false;
        return *this;
    }
    std::string str() const { return out_.str(); }

  private:
    void comma()
    {
        if (!fresh_)
            out_ << ',';
        fresh_ = false;
    }
    std::ostringstream out_;
    bool fresh_ = true;
};

/** One span the benchmark records around its calls into the program. */
struct BenchSpan {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into the span log (-1 = root)
};

/** In-memory span log; written out once the benchmark ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    int open(const char* name, int parent, Clock::time_point at)
    {
        BenchSpan s;
        s.name = name;
        s.start_s = seconds(at);
        s.parent = parent;
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int idx, Clock::time_point at)
    {
        spans_[idx].end_s = seconds(at);
    }
    /** Record a span of @p duration_s that ended at @p end. */
    void add(const char* name, int parent, Clock::time_point end,
             double duration_s)
    {
        const int idx = open(name, parent, end);
        spans_[idx].end_s = spans_[idx].start_s;
        spans_[idx].start_s -= duration_s;
    }
    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const BenchSpan& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"id\":" << i
                << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
                << "\",\"start_s\":" << num(s.start_s)
                << ",\"end_s\":" << num(s.end_s) << '}';
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    double seconds(Clock::time_point at) const
    {
        return std::chrono::duration<double>(at - origin_).count();
    }

    Clock::time_point origin_;
    std::vector<BenchSpan> spans_;
};

/**
 * Times one call into the program, and records it as a span when a
 * log is attached (traced repetitions only, so untraced runs keep no
 * per-slice state that would grow with the run length).
 */
class Stopwatch
{
  public:
    Stopwatch(SpanLog* log, const char* name, int parent)
        : log_(log), start_(Clock::now()),
          id_(log ? log->open(name, parent, start_) : -1)
    {
    }
    /** @return the span index (-1 without a log), for child spans. */
    int id() const { return id_; }
    /** @return seconds since construction; closes the span. */
    double stop()
    {
        end_ = Clock::now();
        if (log_)
            log_->close(id_, end_);
        return std::chrono::duration<double>(end_ - start_).count();
    }
    /** @return when stop() was called. */
    Clock::time_point end() const { return end_; }

  private:
    SpanLog* log_;
    Clock::time_point start_;
    Clock::time_point end_;
    int id_;
};

struct Decision {
    double ms = 0.0;
    std::int64_t nodes = 0;
    std::int64_t iters = 0;
    int backoff = 0;
};

/** Host-time and simulated outcome of one full repetition. */
struct Rep {
    double construct_s = 0.0;
    double initial_plan_s = 0.0;
    double run_s = 0.0;
    double solver_s = 0.0;   ///< slices in which a decision ran
    double serving_s = 0.0;  ///< every other slice
    /** Mean reference-kernel time just before and just after. */
    double ref_s = 0.0;
    /** The initial plan (index 0), then the decisions slices caught. */
    std::vector<Decision> decisions;
    RunResult result;
    int trace_index = 0;
    // Traced repetition only.
    bool traced = false;
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
    std::uint64_t links_dropped = 0;
    std::uint64_t solve_spans = 0;
    std::int64_t bb_nodes = 0;      ///< summed over Solve spans
    std::int64_t simplex_iters = 0;  ///< summed over Solve spans
    std::int64_t simplex_iters_max = 0;
    std::uint64_t batch_spans = 0;
    std::uint64_t load_spans = 0;
    std::uint64_t lineage_queries = 0;
    std::uint64_t lineage_inexact = 0;
    std::array<double, obs::kNumSegmentKinds> segment_ms{};
};

bool
sameMeta(const AllocatorSolveMeta& a, const AllocatorSolveMeta& b)
{
    return a.wall_seconds == b.wall_seconds && a.nodes == b.nodes &&
           a.simplex_iterations == b.simplex_iterations &&
           a.backoff_steps == b.backoff_steps && a.gap == b.gap;
}

Decision
toDecision(const AllocatorSolveMeta& m)
{
    return {m.wall_seconds * 1e3, m.nodes, m.simplex_iterations,
            m.backoff_steps};
}

/** Spans a traced run may record per arrival (pipelines: per stage). */
std::size_t
spanCapacity(const ExperimentSpec& spec)
{
    const std::size_t stages =
        spec.config.pipelines.empty()
            ? 1
            : spec.config.pipelines.front().stages.size();
    return spec.trace.size() * stages * 8 + (1u << 16);
}

/** Fill the traced-only fields of @p rep from the program's tracer. */
void
readTrace(const ServingSystem& system, Rep* rep)
{
    const obs::Tracer& tracer = *system.tracer();
    rep->traced = true;
    rep->spans_recorded = tracer.recorded();
    rep->spans_dropped = tracer.dropped();
    rep->links_dropped = tracer.linksDropped();
    std::vector<obs::SpanRecord> spans = tracer.spans();
    std::vector<std::uint64_t> queries;
    for (const obs::SpanRecord& s : spans) {
        if (s.kind == obs::SpanKind::Solve) {
            ++rep->solve_spans;
            rep->bb_nodes += s.v0;
            rep->simplex_iters += s.v1;
            rep->simplex_iters_max =
                std::max(rep->simplex_iters_max, s.v1);
        } else if (s.kind == obs::SpanKind::Batch) {
            ++rep->batch_spans;
        } else if (s.kind == obs::SpanKind::Load) {
            ++rep->load_spans;
        } else if (s.kind == obs::SpanKind::Query) {
            queries.push_back(s.id);
        }
    }
    const obs::LineageIndex index(std::move(spans), tracer.links());
    std::array<Duration, obs::kNumSegmentKinds> sum{};
    for (std::uint64_t q : queries) {
        const obs::CriticalPath path = index.analyze(q);
        if (path.family == kInvalidId)
            continue;
        ++rep->lineage_queries;
        if (!path.exact())
            ++rep->lineage_inexact;
        for (const obs::Segment& seg : path.segments)
            sum[static_cast<std::size_t>(seg.kind)] += seg.duration();
    }
    for (std::size_t k = 0; k < sum.size(); ++k) {
        rep->segment_ms[k] =
            rep->lineage_queries == 0
                ? 0.0
                : toSeconds(sum[k]) * 1e3 /
                      static_cast<double>(rep->lineage_queries);
    }
}

/**
 * One full repetition: construct, beginRun, 1 s slices to the
 * horizon, finishRun. With @p log, benchmark spans go under
 * @p parent; the program's own tracing is on exactly when @p log is.
 */
Rep
runOnce(const ExperimentSpec& spec, SpanLog* log, int parent)
{
    Rep rep;
    SystemConfig config = spec.config;
    config.obs.enabled = log != nullptr;
    if (config.obs.enabled) {
        config.obs.ring_capacity = spanCapacity(spec);
        config.obs.link_capacity = config.obs.ring_capacity;
    }

    Stopwatch construct(log, "construct", parent);
    ServingSystem system(&spec.cluster, &spec.registry, config);
    rep.construct_s = construct.stop();

    Stopwatch plan(log, "initial_plan", parent);
    const Time horizon = system.beginRun(spec.trace);
    rep.initial_plan_s = plan.stop();
    AllocatorSolveMeta last = system.allocator()->lastSolveMeta();
    rep.decisions.push_back(toDecision(last));

    Stopwatch run(log, "run", parent);
    const Time step = seconds(kSliceSeconds);
    for (Time at = step;; at += step) {
        Stopwatch slice(log, "slice", run.id());
        system.advanceTo(std::min(at, horizon));
        const double dt = slice.stop();
        const AllocatorSolveMeta meta =
            system.allocator()->lastSolveMeta();
        if (sameMeta(meta, last)) {
            rep.serving_s += dt;
        } else {
            rep.solver_s += dt;
            rep.decisions.push_back(toDecision(meta));
            // The decision ran inside the slice; its length is the
            // allocator's own timer, placed at the end of the slice.
            if (log)
                log->add("decision", slice.id(), slice.end(),
                         meta.wall_seconds);
            last = meta;
        }
        if (at >= horizon)
            break;
    }
    rep.run_s = run.stop();

    Stopwatch finish(log, "finish_run", parent);
    rep.result = system.finishRun();
    finish.stop();
    if (log)
        readTrace(system, &rep);
    return rep;
}

void
writeRep(JsonOut* j, const Rep& r)
{
    const RunSummary& s = r.result.summary;
    std::uint64_t e2e_late = 0, e2e_dropped = 0;
    for (const PipelineRunStats& p : r.result.pipelines) {
        e2e_late += p.stats.served_late;
        e2e_dropped += p.stats.dropped;
    }
    j->open('{');
    j->key("trace_index").val(static_cast<std::int64_t>(r.trace_index));
    j->key("construct_s").val(r.construct_s);
    j->key("initial_plan_s").val(r.initial_plan_s);
    j->key("run_s").val(r.run_s);
    j->key("solver_s").val(r.solver_s);
    j->key("serving_s").val(r.serving_s);
    j->key("ref_s").val(r.ref_s);
    j->key("decisions").open('[');
    for (const Decision& d : r.decisions) {
        j->open('{');
        j->key("ms").val(d.ms);
        j->key("nodes").val(d.nodes);
        j->key("iters").val(d.iters);
        j->key("backoff").val(static_cast<std::int64_t>(d.backoff));
        j->close('}');
    }
    j->close(']');
    // Simulated outcome: deterministic for a given seed.
    j->key("sim").open('{');
    j->key("arrivals").val(s.arrivals);
    j->key("served").val(s.served);
    j->key("served_late").val(s.served_late);
    j->key("dropped").val(s.dropped);
    j->key("effective_accuracy").val(s.effective_accuracy);
    j->key("max_accuracy_drop").val(s.max_accuracy_drop);
    j->key("slo_violation_ratio").val(s.slo_violation_ratio);
    j->key("throughput_qps").val(s.avg_throughput_qps);
    j->key("reallocations")
        .val(static_cast<std::int64_t>(r.result.reallocations));
    j->key("mean_batch_size").val(r.result.mean_batch_size);
    j->key("shed").val(r.result.shed);
    j->key("forwarded").val(r.result.forwarded);
    j->key("pipeline_e2e_late").val(e2e_late);
    j->key("pipeline_e2e_dropped").val(e2e_dropped);
    j->close('}');
    if (r.traced) {
        j->key("trace").open('{');
        j->key("spans_recorded").val(r.spans_recorded);
        j->key("spans_dropped").val(r.spans_dropped);
        j->key("links_dropped").val(r.links_dropped);
        j->key("solve_spans").val(r.solve_spans);
        j->key("bb_nodes").val(r.bb_nodes);
        j->key("simplex_iters").val(r.simplex_iters);
        j->key("simplex_iters_max").val(r.simplex_iters_max);
        j->key("batch_spans").val(r.batch_spans);
        j->key("load_spans").val(r.load_spans);
        j->key("lineage_queries").val(r.lineage_queries);
        j->key("lineage_inexact").val(r.lineage_inexact);
        j->key("segment_ms").open('{');
        for (std::size_t k = 0; k < r.segment_ms.size(); ++k) {
            j->key(obs::toString(static_cast<obs::SegmentKind>(k)))
                .val(r.segment_ms[k]);
        }
        j->close('}');
        j->close('}');
    }
    j->close('}');
}

/** Rebuild @p config with the workload (and system) seed replaced. */
JsonValue
withSeed(const JsonValue& config, std::uint64_t seed)
{
    std::map<std::string, JsonValue> top;
    for (const std::string& k : config.keys())
        top[k] = config.at(k);
    std::map<std::string, JsonValue> workload;
    for (const std::string& k : config.at("workload").keys())
        workload[k] = config.at("workload").at(k);
    workload["seed"] = JsonValue::makeNumber(static_cast<double>(seed));
    top["workload"] = JsonValue::makeObject(std::move(workload));
    top["seed"] = JsonValue::makeNumber(static_cast<double>(seed));
    return JsonValue::makeObject(std::move(top));
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --config FILE --seed N --seconds S --trace 0|1"
                 " [--traces K] [--setups N] [--spans-out FILE]\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string config_path, spans_out;
    std::uint64_t seed = 0;
    double budget_s = -1.0;
    int trace = -1;
    int traces = 1;
    int setups_per_trace = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        if (flag == "--config") {
            config_path = v;
        } else if (flag == "--spans-out") {
            spans_out = v;
        } else if (flag == "--seed") {
            seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                return usage(argv[0]);
        } else if (flag == "--seconds") {
            budget_s = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0')
                return usage(argv[0]);
        } else if (flag == "--traces" || flag == "--setups") {
            const long n = std::strtol(v, &end, 10);
            if (*v == '\0' || *end != '\0' || n < 1 || n > 1000)
                return usage(argv[0]);
            (flag == "--traces" ? traces : setups_per_trace) =
                static_cast<int>(n);
        } else if (flag == "--trace") {
            trace = std::strcmp(v, "0") == 0   ? 0
                    : std::strcmp(v, "1") == 0 ? 1
                                               : -1;
        } else {
            return usage(argv[0]);
        }
    }
    if (argc % 2 == 0 || config_path.empty() || budget_s <= 0.0 ||
        trace < 0)
        return usage(argv[0]);

    JsonValue raw;
    std::string error;
    if (!parseJsonFile(config_path, &raw, &error)) {
        std::cerr << "perfbench_measure: " << config_path << ": " << error
                  << "\n";
        return 2;
    }
    // Trace i of the run is generated from seed * 1000 + i. A spec is
    // loaded outside every timed region, and only one is alive at a
    // time.
    const auto load = [&](int index) {
        return loadExperiment(withSeed(
            raw, seed * 1000 + static_cast<std::uint64_t>(index)));
    };

    const auto origin = Clock::now();
    // Warm-up: one untimed repetition, so lazy initialisation and the
    // first touch of the allocator's pages are not charged to trace 0.
    // Peak memory is read right after it: that of one trace and one
    // system in a fresh process. Read at the end of the run, it would
    // also hold heap fragments left by earlier traces, which vary with
    // the order of allocations rather than with the program.
    runOnce(load(0), nullptr, -1);
    const double peak_rss_mb = peakRssMb();
    referenceSeconds();

    struct SetupSample {
        double construct_s, initial_plan_s, ref_s;
    };
    std::vector<SetupSample> setups;
    std::vector<Rep> reps;
    double milp_time_limit_s = 0.0;
    double ref_before = referenceSeconds();
    // Each trace is visited in turn until the budget is spent, and
    // the first is visited twice, so run.py can check same-seed
    // repeats. On its first visit a trace also gives set-up samples:
    // construction + beginRun (the first plan), system then discarded.
    // The reference kernel runs between visits; a visit's samples get
    // the mean of the two reference times around them.
    for (int i = 0; static_cast<int>(reps.size()) <= traces ||
                    since(origin) < budget_s;
         i = (i + 1) % traces) {
        const ExperimentSpec spec = load(i);
        const std::size_t first_setup = setups.size();
        if (static_cast<int>(reps.size()) < traces) {
            milp_time_limit_s = spec.config.milp_time_limit_sec;
            for (int k = 0; k < setups_per_trace; ++k) {
                Stopwatch construct(nullptr, "construct", -1);
                ServingSystem system(&spec.cluster, &spec.registry,
                                     spec.config);
                const double c = construct.stop();
                Stopwatch plan(nullptr, "initial_plan", -1);
                system.beginRun(spec.trace);
                setups.push_back({c, plan.stop(), 0.0});
            }
        }
        reps.push_back(runOnce(spec, nullptr, -1));
        reps.back().trace_index = i;
        const double ref_after = referenceSeconds();
        reps.back().ref_s = 0.5 * (ref_before + ref_after);
        for (std::size_t k = first_setup; k < setups.size(); ++k)
            setups[k].ref_s = reps.back().ref_s;
        ref_before = ref_after;
    }

    SpanLog log(origin);
    Rep traced;
    if (trace == 1) {
        const ExperimentSpec spec = load(0);
        Stopwatch whole(&log, "traced_repetition", -1);
        traced = runOnce(spec, &log, whole.id());
        whole.stop();
        traced.ref_s = 0.5 * (ref_before + referenceSeconds());
    }

    JsonOut j;
    j.open('{');
    j.key("milp_time_limit_s").val(milp_time_limit_s);
    j.key("peak_rss_mb").val(peak_rss_mb);
    j.key("setups").open('[');
    for (const SetupSample& s : setups) {
        j.open('{');
        j.key("construct_s").val(s.construct_s);
        j.key("initial_plan_s").val(s.initial_plan_s);
        j.key("ref_s").val(s.ref_s);
        j.close('}');
    }
    j.close(']');
    j.key("reps").open('[');
    for (const Rep& r : reps)
        writeRep(&j, r);
    j.close(']');
    if (trace == 1) {
        j.key("traced");
        writeRep(&j, traced);
    }
    j.close('}');
    std::cout << j.str() << std::endl;

    if (trace == 1 && !spans_out.empty() && !log.write(spans_out)) {
        std::cerr << "perfbench_measure: cannot write " << spans_out
                  << "\n";
        return 2;
    }
    return 0;
}
