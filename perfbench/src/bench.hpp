// Nano-Sim benchmark — shared plumbing for the four workloads.
//
// Every workload runs through the simulator's public API (SimSession,
// service::Server, service::Client), times what a user would wait for,
// checks the outputs against stated bounds, and fills one Report.  The
// metric names and units live in one table (bench.cpp), so every run
// prints every metric of its kind; a layer a workload does not touch
// reports 0 for its per-layer figures.
#ifndef NANOSIM_PERFBENCH_BENCH_HPP
#define NANOSIM_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/waveform.hpp"
#include "core/analysis_spec.hpp"
#include "core/sim_session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line settings of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;        ///< tiny inputs (8x8 meshes, 4 trials, 8 jobs)
    std::string out_dir = "."; ///< reference cache + trace output
};

// ---- statistics ---------------------------------------------------------

/// Quantile with linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

/// "n=<count>: v1 v2 ..." with 4 significant digits — sample counts
/// and values for the informational lines.
[[nodiscard]] std::string format_samples(const std::vector<double>& v);

/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder, written once at the end as Chrome/Perfetto
/// trace JSON.  Each span keeps its name, start, end, parent span and
/// the id shared by every span of one analysis or job.  Thread-safe.
class Tracer {
public:
    Tracer();

    /// Open a span; returns its index (pass it to end() and as parent).
    int begin(const std::string& name, int parent, std::uint64_t group);
    /// Record an already-finished interval.
    int record(const std::string& name, int parent, std::uint64_t group,
               Clock::time_point t0, Clock::time_point t1);
    void end(int span);
    /// Attach a count or a duration to a span (shown as a trace arg).
    void arg(int span, const std::string& key, double value);
    /// Host facts and run settings, written into the trace metadata.
    void meta(const std::string& key, const std::string& value);

    [[nodiscard]] std::uint64_t next_group();

    /// Write {"traceEvents":[...]} to `path`.
    void write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        Clock::time_point t0;
        Clock::time_point t1;
        int parent = -1;
        std::uint64_t group = 0;
        int tid = 1;
        std::vector<std::pair<std::string, double>> args;
    };

    mutable std::mutex mu_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::map<std::string, std::string> meta_;
    std::uint64_t groups_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
               std::uint64_t group = 0)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, parent, group) : -1) {}
    ~ScopedSpan() {
        if (tracer_ != nullptr) {
            tracer_->end(index_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int index() const noexcept { return index_; }

private:
    Tracer* tracer_;
    int index_;
};

// ---- results -------------------------------------------------------------

/// What one run reports: metrics, output checks and informational lines.
class Report {
public:
    explicit Report(bool trace);

    /// Set a metric declared in the table for this run's kind.
    void set(const std::string& name, double value);
    /// Count one attempted operation or output check.
    void attempt(bool ok, const std::string& what);
    /// Informational line (printed, never a metric).
    void note(const std::string& line);

    [[nodiscard]] int attempted() const noexcept { return attempted_; }
    [[nodiscard]] int failed() const noexcept { return failed_; }
    [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
        return notes_;
    }
    /// Names of declared metrics the workload never set.
    [[nodiscard]] std::vector<std::string> missing() const;
    /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
    [[nodiscard]] std::string json() const;
    /// One "name value unit" line per metric.
    [[nodiscard]] std::string table() const;

private:
    bool trace_;
    std::map<std::string, double> values_;
    std::vector<std::string> set_;
    int attempted_ = 0;
    int failed_ = 0;
    std::vector<std::string> notes_;
};

/// Metric table: (name, unit) for the untraced (end-to-end) and the
/// traced (per-layer) runs.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

// ---- accuracy oracle -----------------------------------------------------

/// Number of evenly spaced grading times over [0, t_stop].
inline constexpr int k_grade_points = 2001;

/// A tight NR reference waveform of one node, sampled at k_grade_points.
struct Reference {
    double t_stop = 0.0;
    int dt_divisor = 0;   ///< reference dt_max = t_stop / dt_divisor
    double self_diff = 0; ///< max |ref - ref at half its dt_max|
    bool resolved = false;
    std::vector<double> v;

    /// max |w(t) - ref(t)| over the grading times.
    [[nodiscard]] double error(const nanosim::analysis::Waveform& w) const;
};

/// The cached reference `key` (<out_dir>/refs/<key>.ref); throws when
/// the prepare step has not written it.
[[nodiscard]] Reference load_reference(const Options& opt, const std::string& key);

/// Compute and cache the NR reference for `node` of the session's
/// circuit over [0, t_stop], unless it is cached already: NR at reltol
/// 1e-6 from dt_max = t_stop/4000, halved until it agrees with a run at
/// half its dt_max to within a tenth of the smallest error it grades
/// (`graded` returns those errors against a candidate).  Below
/// t_stop/256000 it gives up and caches the reference as unresolved.
void prepare_reference(const Options& opt, const std::string& key,
                       nanosim::SimSession& session, const std::string& node,
                       double t_stop,
                       const std::function<std::vector<double>(const Reference&)>& graded);

// ---- per-analysis layer split ---------------------------------------------

/// Layer times of one analysis from its RunReport; other_s is what no
/// bucket claims (elapsed minus the five buckets).
struct LayerSplit {
    double analyze_s = 0, eval_s = 0, stamp_s = 0, factor_s = 0,
           solve_s = 0, other_s = 0, elapsed_s = 0;

    static LayerSplit of(const nanosim::obs::RunReport& r);
    LayerSplit& operator+=(const LayerSplit& o);
};

/// Observer that records step (or trial) intervals and spans.
struct StepTimer {
    std::vector<double> intervals_s;
    Clock::time_point last;
    Tracer* tracer = nullptr;
    int parent = -1;
    std::uint64_t group = 0;
    const char* span_name = "step";

    void start() { last = Clock::now(); }
    void tick();
    [[nodiscard]] nanosim::engines::AnalysisObserver steps();
    [[nodiscard]] nanosim::engines::AnalysisObserver trials();
};

// ---- set-up -----------------------------------------------------------------

/// Set-up of the in-process workloads: circuit build, SimSession
/// constructor (assembly) and first solver_cache() (symbolic analysis),
/// summed over the workload's circuits.  Samples are taken between the
/// measured passes, so they spread over the whole run rather than its
/// first moments.
class Setup {
public:
    Setup(std::vector<std::function<nanosim::Circuit()>> builders, Tracer* tracer);

    /// Build every circuit's session once; `record` keeps the times.
    std::vector<std::unique_ptr<nanosim::SimSession>> once(bool record);

    /// setup_s in an untraced run; the three layer times in a traced one.
    void report_to(Report& report) const;

private:
    std::vector<std::function<nanosim::Circuit()>> builders_;
    Tracer* tracer_;
    std::vector<double> total_, build_, assemble_, analyze_;
};

/// End-to-end figures of the measured units of work (passes, campaigns
/// or jobs): wall_s is their mean — a median of a two-kind job mix jumps
/// between the kinds — and wall_p90_s their 90th percentile.  Also sets
/// peak_rss_mb and notes the sample count and values.
void report_walls(Report& report, const std::string& unit,
                  const std::vector<double>& walls);

/// The measured loop shared by the in-process workloads: one warm-up
/// pass (checked, not recorded), then passes until `seconds` have
/// elapsed and at least 3 ran (4 traced, 1 in smoke runs).  After each
/// pass, set-up samples take about 2% of the pass time (at least one).
/// A traced run alternates traced and untraced passes so the tracing
/// overhead is measured on the same machine state.
void measure_passes(const Options& opt,
                    const std::function<void(bool traced, bool record)>& pass,
                    Setup& setup);

// ---- layer probes (traced run only) ----------------------------------------

/// Median microseconds of SystemCache::eval_chords at the DC operating
/// point, SparseLu::refactor and SparseLu::solve on mna::swec_step_matrix
/// of the session's circuit.
struct LayerProbe {
    double eval_chords_us = 0, refactor_us = 0, solve_us = 0;
};
[[nodiscard]] LayerProbe probe_layers(nanosim::SimSession& session,
                                      Tracer* tracer);

// ---- workloads -------------------------------------------------------------

void run_tran_mesh(const Options& opt, Report& report, Tracer* tracer);
void run_paper(const Options& opt, Report& report, Tracer* tracer);
void run_mc_mesh(const Options& opt, Report& report, Tracer* tracer);
void run_serve(const Options& opt, Report& report, Tracer* tracer);

/// Compute and cache the references a transient workload
/// ("tran_mesh" or "paper") grades against.
void prepare_tran_references(const Options& opt, const std::string& workload);

} // namespace perfbench

#endif // NANOSIM_PERFBENCH_BENCH_HPP
