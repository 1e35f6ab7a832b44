// Nano-Sim benchmark — statistics, tracing, reports, references, probes.
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "service/json.hpp"

namespace perfbench {

namespace json = nanosim::service::json;

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

std::string format_samples(const std::vector<double>& v) {
    std::ostringstream out;
    out << "n=" << v.size() << ":" << std::setprecision(4);
    for (const double x : v) {
        out << ' ' << x;
    }
    return out.str();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::begin(const std::string& name, int parent, std::uint64_t group) {
    const auto now = Clock::now();
    return record(name, parent, group, now, now);
}

int Tracer::record(const std::string& name, int parent, std::uint64_t group,
                   Clock::time_point t0, Clock::time_point t1) {
    static thread_local int tid = 0;
    static std::atomic<int> next_tid{1};
    if (tid == 0) {
        tid = next_tid.fetch_add(1);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t0, t1, parent, group, tid, {}});
    return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(span)).t1 = now;
}

void Tracer::arg(int span, const std::string& key, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(span)).args.emplace_back(key, value);
}

void Tracer::meta(const std::string& key, const std::string& value) {
    const std::lock_guard<std::mutex> lock(mu_);
    meta_[key] = value;
}

std::uint64_t Tracer::next_group() {
    const std::lock_guard<std::mutex> lock(mu_);
    return ++groups_;
}

void Tracer::write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    json::Array events;
    events.reserve(spans_.size() + 1);
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        json::Value args{json::Object{}};
        args.set("span", json::Value(static_cast<double>(i)));
        args.set("parent", json::Value(s.parent));
        args.set("id", json::Value(static_cast<double>(s.group)));
        for (const auto& [k, v] : s.args) {
            args.set(k, json::Value(v));
        }
        json::Value e{json::Object{}};
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", json::Value(1));
        e.set("tid", json::Value(s.tid));
        e.set("ts", json::Value(us(s.t0)));
        e.set("dur", json::Value(us(s.t1) - us(s.t0)));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    json::Value meta{json::Object{}};
    for (const auto& [k, v] : meta_) {
        meta.set(k, v);
    }
    json::Value doc{json::Object{}};
    doc.set("traceEvents", json::Value(std::move(events)));
    doc.set("displayTimeUnit", "ms");
    doc.set("otherData", std::move(meta));
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << doc.dump() << '\n';
    if (!out) {
        throw std::runtime_error("cannot write trace " + path);
    }
}

// ---- metric table ----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"wall_p90_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return table;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"netlist.build_s", "s"},
        {"mna.assemble_s", "s"},
        {"mna.analyze_s", "s"},
        {"engines.swec.wall_s", "s"},
        {"engines.nr.wall_s", "s"},
        {"engines.pwl.wall_s", "s"},
        {"engines.swec.err_v", "V"},
        {"engines.nr.err_v", "V"},
        {"engines.swec.steps", "count"},
        {"engines.nr.steps", "count"},
        {"engines.pwl.steps", "count"},
        {"engines.swec.rejected", "count"},
        {"engines.nr.rejected", "count"},
        {"engines.pwl.rejected", "count"},
        {"engines.nr.iterations", "count"},
        {"engines.swec.step_p50_us", "us"},
        {"engines.swec.step_p99_us", "us"},
        {"engines.nr.step_p50_us", "us"},
        {"engines.nr.step_p99_us", "us"},
        {"engines.pwl.step_p50_us", "us"},
        {"engines.pwl.step_p99_us", "us"},
        {"engines.swec.bound_node", "count"},
        {"engines.swec.bound_device", "count"},
        {"engines.swec.bound_dt_max", "count"},
        {"engines.rescues", "count"},
        {"engines.mc.trial_steps", "count"},
        {"engines.mc.trial_p50_s", "s"},
        {"engines.mc.trial_p90_s", "s"},
        {"engines.mc.failed_trials", "count"},
        {"engines.mc.trials_per_s", "1/s"},
        {"devices.eval_s", "s"},
        {"mna.eval_chords_us", "us"},
        {"mna.stamp_s", "s"},
        {"linalg.factor_s", "s"},
        {"linalg.solve_s", "s"},
        {"linalg.full_factors", "count"},
        {"linalg.fast_refactors", "count"},
        {"linalg.pivot_fallbacks", "count"},
        {"linalg.factor_nnz", "count"},
        {"linalg.refactor_us", "us"},
        {"linalg.solve_us", "us"},
        {"linalg.swec_factor_share", "ratio"},
        {"other_s", "s"},
        {"stochastic.samples_us", "us"},
        {"service.submit_ack_s", "s"},
        {"service.queue_wait_p50_s", "s"},
        {"service.queue_wait_p90_s", "s"},
        {"service.run_s", "s"},
        {"service.fetch_s", "s"},
        {"service.result_bytes", "bytes"},
        {"service.session_reuse_ratio", "ratio"},
        {"service.rejected", "count"},
        {"service.job_p50_s", "s"},
        {"service.job_p90_s", "s"},
        {"obs.trace_overhead_ratio", "ratio"},
    };
    return table;
}

// ---- Report ----------------------------------------------------------------

namespace {

const std::vector<std::pair<std::string, std::string>>& table_for(bool trace) {
    return trace ? per_layer_metrics() : end_to_end_metrics();
}

} // namespace

Report::Report(bool trace) : trace_(trace) {
    // A traced run reports 0 for the layers its workload never enters;
    // an end-to-end metric left at 0 is reported by missing().
    for (const auto& [name, unit] : table_for(trace_)) {
        values_[name] = 0.0;
    }
}

void Report::set(const std::string& name, double value) {
    const auto declared_in = [&](bool trace) {
        const auto& table = table_for(trace);
        return std::any_of(table.begin(), table.end(),
                           [&](const auto& entry) { return entry.first == name; });
    };
    if (!declared_in(trace_)) {
        if (!declared_in(!trace_)) {
            throw std::logic_error("undeclared metric " + name);
        }
        return; // the other run kind's metric
    }
    values_[name] = value;
    set_.push_back(name);
}

void Report::attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cout << "CHECK FAILED: " << what << '\n';
    }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

std::vector<std::string> Report::missing() const {
    std::vector<std::string> out;
    if (trace_) {
        return out; // unused layers legitimately stay at 0
    }
    for (const auto& [name, unit] : end_to_end_metrics()) {
        if (std::find(set_.begin(), set_.end(), name) == set_.end()) {
            out.push_back(name);
        }
    }
    return out;
}

std::string Report::json() const {
    json::Value metrics{json::Object{}};
    for (const auto& [name, unit] : table_for(trace_)) {
        json::Value m{json::Object{}};
        m.set("value", json::Value(values_.at(name)));
        m.set("unit", unit);
        metrics.set(name, std::move(m));
    }
    json::Value doc{json::Object{}};
    doc.set("correct", json::Value(failed_ == 0 && missing().empty()));
    doc.set("attempted", json::Value(attempted_));
    doc.set("failed", json::Value(failed_));
    doc.set("metrics", std::move(metrics));
    return doc.dump();
}

std::string Report::table() const {
    std::ostringstream out;
    for (const auto& [name, unit] : table_for(trace_)) {
        out << "  " << name << " = " << json::number_to_string(values_.at(name))
            << ' ' << unit << '\n';
    }
    return out.str();
}

// ---- references --------------------------------------------------------------

double Reference::error(const nanosim::analysis::Waveform& w) const {
    double worst = 0.0;
    for (int i = 0; i < k_grade_points; ++i) {
        const double t = t_stop * i / (k_grade_points - 1);
        worst = std::max(worst, std::abs(w.at(t) - v[static_cast<std::size_t>(i)]));
    }
    return worst;
}

namespace {

std::vector<double> sample(const nanosim::analysis::Waveform& w, double t_stop) {
    std::vector<double> out(k_grade_points);
    for (int i = 0; i < k_grade_points; ++i) {
        out[static_cast<std::size_t>(i)] = w.at(t_stop * i / (k_grade_points - 1));
    }
    return out;
}

bool read_reference(const std::string& path, Reference& ref) {
    std::ifstream in(path);
    std::size_t n = 0;
    int resolved = 0;
    if (!(in >> ref.t_stop >> ref.dt_divisor >> ref.self_diff >> resolved >> n) ||
        n != static_cast<std::size_t>(k_grade_points)) {
        return false;
    }
    ref.resolved = resolved != 0;
    ref.v.resize(n);
    for (double& x : ref.v) {
        if (!(in >> x)) {
            return false;
        }
    }
    return true;
}

void write_reference(const std::string& path, const Reference& ref) {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        out.precision(17);
        out << ref.t_stop << ' ' << ref.dt_divisor << ' ' << ref.self_diff
            << ' ' << (ref.resolved ? 1 : 0) << ' ' << ref.v.size() << '\n';
        for (const double x : ref.v) {
            out << x << '\n';
        }
        if (!out) {
            throw std::runtime_error("cannot write reference " + tmp);
        }
    }
    std::filesystem::rename(tmp, path);
}

std::vector<double> nr_reference_run(nanosim::SimSession& session,
                                     const std::string& node, double t_stop,
                                     int divisor) {
    nanosim::TranSpec spec;
    spec.name = "reference";
    spec.engine = nanosim::TranEngine::newton_raphson;
    spec.t_stop = t_stop;
    spec.common.reltol = 1e-6;
    spec.common.dt_max = t_stop / divisor;
    const nanosim::AnalysisResult r = session.run(spec);
    return sample(r.tran().node(session.circuit(), node), t_stop);
}

std::string reference_path(const Options& opt, const std::string& key) {
    return opt.out_dir + "/refs/" + key + (opt.smoke ? "-smoke" : "") + ".ref";
}

} // namespace

Reference load_reference(const Options& opt, const std::string& key) {
    Reference ref;
    if (!read_reference(reference_path(opt, key), ref)) {
        throw std::runtime_error("reference " + key +
                                 " missing: run perfbench --prepare first");
    }
    return ref;
}

void prepare_reference(const Options& opt, const std::string& key,
                       nanosim::SimSession& session, const std::string& node,
                       double t_stop,
                       const std::function<std::vector<double>(const Reference&)>& graded) {
    const std::string path = reference_path(opt, key);
    Reference ref;
    if (read_reference(path, ref) && ref.t_stop == t_stop) {
        return;
    }
    constexpr int k_first_divisor = 4000;
    constexpr int k_last_divisor = 256000;
    ref = Reference{};
    ref.t_stop = t_stop;
    ref.dt_divisor = k_first_divisor;
    ref.v = nr_reference_run(session, node, t_stop, k_first_divisor);
    for (;;) {
        const std::vector<double> half =
            nr_reference_run(session, node, t_stop, 2 * ref.dt_divisor);
        ref.self_diff = 0.0;
        for (std::size_t i = 0; i < half.size(); ++i) {
            ref.self_diff = std::max(ref.self_diff, std::abs(half[i] - ref.v[i]));
        }
        const std::vector<double> errors = graded(ref);
        const double smallest =
            errors.empty() ? 0.0 : *std::min_element(errors.begin(), errors.end());
        std::cout << "reference " << key << ": dt_max = t_stop/" << ref.dt_divisor
                  << ", half-step diff " << ref.self_diff
                  << " V, smallest graded error " << smallest << " V\n";
        if (ref.self_diff <= 0.1 * smallest) {
            ref.resolved = true;
            break;
        }
        if (2 * ref.dt_divisor > k_last_divisor) {
            ref.resolved = false;
            break;
        }
        // Not resolved yet: tighten and grade again.
        ref.dt_divisor *= 2;
        ref.v = half;
    }
    write_reference(path, ref);
}

// ---- layer split -------------------------------------------------------------

LayerSplit LayerSplit::of(const nanosim::obs::RunReport& r) {
    LayerSplit s;
    s.analyze_s = r.analyze_s;
    s.eval_s = r.eval_s;
    s.stamp_s = r.stamp_s;
    s.factor_s = r.factor_s;
    s.solve_s = r.solve_s;
    s.elapsed_s = r.elapsed_s;
    s.other_s = r.elapsed_s -
                (r.analyze_s + r.eval_s + r.stamp_s + r.factor_s + r.solve_s);
    return s;
}

LayerSplit& LayerSplit::operator+=(const LayerSplit& o) {
    analyze_s += o.analyze_s;
    eval_s += o.eval_s;
    stamp_s += o.stamp_s;
    factor_s += o.factor_s;
    solve_s += o.solve_s;
    other_s += o.other_s;
    elapsed_s += o.elapsed_s;
    return *this;
}

void StepTimer::tick() {
    const auto now = Clock::now();
    intervals_s.push_back(std::chrono::duration<double>(now - last).count());
    if (tracer != nullptr) {
        tracer->record(span_name, parent, group, last, now);
    }
    last = now;
}

nanosim::engines::AnalysisObserver StepTimer::steps() {
    nanosim::engines::AnalysisObserver obs;
    obs.on_step = [this](double, int) { tick(); };
    return obs;
}

nanosim::engines::AnalysisObserver StepTimer::trials() {
    nanosim::engines::AnalysisObserver obs;
    obs.on_trial = [this](int, int) { tick(); };
    return obs;
}

// ---- set-up and measured loop ---------------------------------------------------

Setup::Setup(std::vector<std::function<nanosim::Circuit()>> builders,
             Tracer* tracer)
    : builders_(std::move(builders)), tracer_(tracer) {}

std::vector<std::unique_ptr<nanosim::SimSession>> Setup::once(bool record) {
    std::vector<std::unique_ptr<nanosim::SimSession>> sessions;
    const ScopedSpan span(tracer_, "setup");
    double total = 0, build = 0, assemble = 0, analyze = 0;
    for (const auto& make : builders_) {
        const auto t0 = Clock::now();
        nanosim::Circuit ckt = make();
        const auto t1 = Clock::now();
        auto session = std::make_unique<nanosim::SimSession>(std::move(ckt));
        const auto t2 = Clock::now();
        (void)session->solver_cache();
        const auto t3 = Clock::now();
        if (tracer_ != nullptr) {
            tracer_->record("netlist.build", span.index(), 0, t0, t1);
            tracer_->record("mna.assemble", span.index(), 0, t1, t2);
            tracer_->record("mna.analyze", span.index(), 0, t2, t3);
        }
        const auto s = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double>(b - a).count();
        };
        build += s(t0, t1);
        assemble += s(t1, t2);
        analyze += s(t2, t3);
        total += s(t0, t3);
        sessions.push_back(std::move(session));
    }
    if (record) {
        total_.push_back(total);
        build_.push_back(build);
        assemble_.push_back(assemble);
        analyze_.push_back(analyze);
    }
    return sessions;
}

void Setup::report_to(Report& report) const {
    report.set("setup_s", median(total_));
    report.set("netlist.build_s", median(build_));
    report.set("mna.assemble_s", median(assemble_));
    report.set("mna.analyze_s", median(analyze_));
    report.note("set-up samples: " + std::to_string(total_.size()));
}

void report_walls(Report& report, const std::string& unit,
                  const std::vector<double>& walls) {
    double sum = 0.0;
    for (const double w : walls) {
        sum += w;
    }
    report.set("wall_s", walls.empty() ? 0.0 : sum / static_cast<double>(walls.size()));
    report.set("wall_p90_s", quantile(walls, 0.9));
    report.set("peak_rss_mb", peak_rss_mb());
    report.note(unit + " wall times [s]: median " +
                json::number_to_string(median(walls)) + ", " +
                (walls.size() <= 20 ? format_samples(walls)
                                    : "n=" + std::to_string(walls.size())));
}

void measure_passes(const Options& opt,
                    const std::function<void(bool traced, bool record)>& pass,
                    Setup& setup) {
    pass(false, false);
    const int min_passes = opt.smoke ? 1 : (opt.trace ? 4 : 3);
    const auto t0 = Clock::now();
    for (int n = 0; n < min_passes || seconds_since(t0) < opt.seconds; ++n) {
        const auto p0 = Clock::now();
        pass(opt.trace && n % 2 == 0, true);
        const double budget = 0.02 * seconds_since(p0);
        const auto s0 = Clock::now();
        do {
            (void)setup.once(true);
        } while (seconds_since(s0) < budget);
    }
}

// ---- probes ------------------------------------------------------------------

LayerProbe probe_layers(nanosim::SimSession& session, Tracer* tracer) {
    using nanosim::linalg::SparseLu;
    LayerProbe probe;
    const ScopedSpan root(tracer, "probe");

    // Device evaluation at the DC operating point.
    const nanosim::AnalysisResult op = session.run(nanosim::OpSpec{});
    const std::vector<double>& x = op.dc().x;
    nanosim::mna::SystemCache& cache = session.solver_cache();
    const std::size_t devices = session.assembler().nonlinear_devices().size();
    std::vector<double> dvdt(x.size(), 0.0);
    std::vector<double> geq(devices, 0.0);
    std::vector<double> rate(devices, 0.0);
    constexpr int k_reps = 200;
    std::vector<double> samples;
    {
        const ScopedSpan span(tracer, "mna.eval_chords", root.index());
        for (int i = 0; i < k_reps; ++i) {
            const auto t0 = Clock::now();
            cache.eval_chords(x, dvdt, false, geq, rate);
            samples.push_back(seconds_since(t0) * 1e6);
        }
    }
    probe.eval_chords_us = median(samples);

    // Refactor and solve of the SWEC step matrix, in the fill-reducing
    // order the session's solver chose.
    const nanosim::linalg::Triplets a =
        nanosim::mna::swec_step_matrix(session.assembler(), 1e-10);
    const nanosim::linalg::CscForm csc = nanosim::linalg::compress_columns(a);
    nanosim::linalg::Permutation order;
    switch (cache.chosen_ordering()) {
    case nanosim::linalg::Ordering::rcm:
        order = nanosim::linalg::reverse_cuthill_mckee(csc.cols, csc.col_ptr,
                                                       csc.row_idx);
        break;
    case nanosim::linalg::Ordering::min_degree:
        order = nanosim::linalg::min_degree_ordering(csc.cols, csc.col_ptr,
                                                     csc.row_idx);
        break;
    default:
        break; // natural (also the dense path's choice)
    }
    SparseLu lu(a, order);
    std::vector<double> nudged = csc.values;
    nanosim::linalg::Vector b(lu.order());
    for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = 1e-3 * std::sin(static_cast<double>(i) + 1.0);
    }
    samples.clear();
    {
        const ScopedSpan span(tracer, "linalg.refactor", root.index());
        for (int i = 0; i < k_reps; ++i) {
            for (double& v : nudged) {
                v *= 1.0 + 1e-9; // keep the numeric sweep non-degenerate
            }
            const auto t0 = Clock::now();
            (void)lu.refactor(std::span<const double>(nudged));
            samples.push_back(seconds_since(t0) * 1e6);
        }
    }
    probe.refactor_us = median(samples);
    samples.clear();
    double sink = 0.0;
    {
        const ScopedSpan span(tracer, "linalg.solve", root.index());
        for (int i = 0; i < k_reps; ++i) {
            const auto t0 = Clock::now();
            const nanosim::linalg::Vector xs = lu.solve(b);
            samples.push_back(seconds_since(t0) * 1e6);
            sink += xs[0];
        }
    }
    if (!std::isfinite(sink)) {
        throw std::runtime_error("probe solve produced a non-finite value");
    }
    probe.solve_us = median(samples);
    return probe;
}

} // namespace perfbench
