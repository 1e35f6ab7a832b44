// Nano-Sim benchmark — transient workloads: `tran_mesh` (a 32x32
// RTD-loaded RC mesh, the sparse path) and `paper` (the Fig. 8 FET-RTD
// inverter and the Fig. 9 RTD D flip-flop, the dense path).  One pass
// runs every case once with each transient engine, in an order drawn
// from the seed.
#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "bench.hpp"
#include "core/ref_circuits.hpp"

namespace perfbench {

namespace {

using nanosim::AnalysisResult;
using nanosim::Circuit;
using nanosim::SimSession;
using nanosim::TranEngine;
using nanosim::TranSpec;
using nanosim::engines::TranResult;

struct EngineDef {
    TranEngine engine;
    const char* name;
};
constexpr std::array<EngineDef, 3> k_engines = {{
    {TranEngine::swec, "swec"},
    {TranEngine::newton_raphson, "nr"},
    {TranEngine::pwl, "pwl"},
}};

/// One circuit of a transient workload.
struct Case {
    std::string key;
    std::function<Circuit()> build;
    std::string node;  ///< graded node
    double t_stop = 0.0;
    /// Stated bound on max |v - v_ref| per engine (k_engines order);
    /// 0 = the engine's waveform is checked functionally only.
    std::array<double, 3> bound{};
    /// Functional check; returns an empty string when the waveforms
    /// behave, otherwise what went wrong.
    std::function<std::string(const Circuit&, const TranResult&)> functional;
};

/// Fig. 8: `out` is low while `in` has been high for 30 ns, and high
/// while `in` has been low for 60 ns.
std::string inverter_check(const Circuit& ckt, const TranResult& r) {
    const auto& in = r.node(ckt, "in");
    const auto& out = r.node(ckt, "out");
    const double t_stop = in.time().back();
    const double v_dd = 5.0;
    int low_checks = 0;
    int high_checks = 0;
    for (int i = 0; i < k_grade_points; ++i) {
        const double t = t_stop * i / (k_grade_points - 1);
        const auto all_in = [&](double lo, double hi, double span) {
            for (const double dt : {0.0, span / 2, span}) {
                const double v = in.at(t - dt);
                if (t - dt < 0.0 || v < lo || v > hi) {
                    return false;
                }
            }
            return true;
        };
        if (all_in(0.9 * v_dd, 2 * v_dd, 30e-9)) {
            ++low_checks;
            if (out.at(t) >= 1.0) {
                return "out = " + std::to_string(out.at(t)) +
                       " V while in is high at t = " + std::to_string(t);
            }
        } else if (all_in(-v_dd, 0.1 * v_dd, 60e-9)) {
            ++high_checks;
            if (out.at(t) <= 2.5) {
                return "out = " + std::to_string(out.at(t)) +
                       " V while in is low at t = " + std::to_string(t);
            }
        }
    }
    if (low_checks == 0 || high_checks == 0) {
        return "input never settled high and low";
    }
    return {};
}

/// Fig. 9: at the end of every clock-high phase, q is the inverse of d
/// sampled at that phase's rising edge.
std::string dff_check(const Circuit& ckt, const TranResult& r) {
    const auto& clk = r.node(ckt, "clk");
    const auto& d = r.node(ckt, "d");
    const auto& q = r.node(ckt, "q");
    const double t_stop = clk.time().back();
    const double v_high = 5.0;
    int edges = 0;
    bool high = false;
    bool d_at_edge = false;
    double last_plateau = -1.0;
    for (int i = 0; i < k_grade_points; ++i) {
        const double t = t_stop * i / (k_grade_points - 1);
        const double c = clk.at(t);
        if (!high && c > 0.5 * v_high) {
            high = true;
            d_at_edge = d.at(t) > 0.5 * v_high;
            last_plateau = -1.0;
        } else if (high && c > 0.9 * v_high) {
            last_plateau = t;
        } else if (high && c < 0.5 * v_high) {
            high = false;
            if (last_plateau < 0.0) {
                continue;
            }
            ++edges;
            const double vq = q.at(last_plateau);
            const bool ok = d_at_edge ? vq < 1.0 : vq > 2.5;
            if (!ok) {
                return "q = " + std::to_string(vq) + " V at t = " +
                       std::to_string(last_plateau) + " with d " +
                       (d_at_edge ? "high" : "low");
            }
        }
    }
    if (edges < 3) {
        return "fewer than 3 complete clock phases";
    }
    return {};
}

std::vector<Case> cases_for(const std::string& workload, bool smoke) {
    if (workload == "tran_mesh") {
        const int g = smoke ? 8 : 32;
        return {Case{"mesh" + std::to_string(g),
                     [g] { return nanosim::refckt::rc_mesh(g, g); },
                     "n0_0", 200e-9, {0.01, 0.003, 0.06}, nullptr}};
    }
    return {
        Case{"fig8", [] { return nanosim::refckt::fet_rtd_inverter(); },
             "out", 400e-9, {0.25, 0.07, 0.0}, inverter_check},
        Case{"fig9", [] { return nanosim::refckt::rtd_dff(); }, "q", 500e-9,
             {0.06, 0.03, 0.0}, dff_check},
    };
}

TranSpec tran_spec(const Case& c, TranEngine engine) {
    TranSpec spec;
    spec.name = c.key;
    spec.engine = engine;
    spec.t_stop = c.t_stop;
    return spec;
}

/// Per-pass samples of the per-layer figures (median over passes).
using Samples = std::map<std::string, std::vector<double>>;

struct Live {
    Case c;
    std::unique_ptr<SimSession> session;
    Reference ref;
};

std::string fmt(double v, int precision = 4) {
    std::ostringstream out;
    out << std::setprecision(precision) << v;
    return out.str();
}

/// Grade one analysis against its reference bound and functional check;
/// returns max |v - v_ref| on the graded node.
double check_analysis(const Live& l, std::size_t e, const AnalysisResult& r,
                      Report& report) {
    const std::string what = l.c.key + "/" + k_engines[e].name;
    report.attempt(!r.header.aborted && r.report.steps_accepted > 0,
                   what + ": transient completed");
    const double err = l.ref.error(r.tran().node(l.session->circuit(), l.c.node));
    if (l.c.bound[e] > 0.0) {
        report.attempt(err <= l.c.bound[e],
                       what + ": max |v - v_ref| = " + fmt(err) +
                           " V within " + fmt(l.c.bound[e]) + " V");
    }
    if (l.c.functional) {
        const std::string why = l.c.functional(l.session->circuit(), r.tran());
        report.attempt(why.empty(), what + ": " + why);
    }
    return err;
}

void run_tran(const std::vector<Case>& cases, const Options& opt,
              Report& report, Tracer* tracer) {
    std::vector<std::function<Circuit()>> builders;
    for (const Case& c : cases) {
        builders.push_back(c.build);
    }
    Setup setup(builders, tracer);
    auto sessions = setup.once(false);
    std::vector<Live> live;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        live.push_back(Live{cases[i], std::move(sessions[i]), {}});
    }

    // References come from the prepare step; grading runs outside every
    // timed region.
    for (Live& l : live) {
        l.ref = load_reference(opt, l.c.key);
        report.attempt(l.ref.resolved,
                       l.c.key + ": reference resolved (half-step diff " +
                           fmt(l.ref.self_diff) + " V at dt_max = t_stop/" +
                           std::to_string(l.ref.dt_divisor) + ")");
        if (!l.ref.resolved) {
            report.note(l.c.key + ": error metrics UNRESOLVED — the reference "
                                  "did not converge");
        }
    }

    std::mt19937_64 rng(opt.seed);
    std::array<std::size_t, 3> order = {0, 1, 2};

    std::vector<double> pass_walls;          // untraced passes
    std::vector<double> traced_walls;        // traced passes
    std::array<std::vector<double>, 3> step_us;
    std::array<double, 3> err{};             // max over cases
    Samples layer;
    std::array<std::vector<double>, 3> untraced_engine_walls;
    bool step_spans = true;

    const auto run_pass = [&](bool traced, bool record) {
        std::shuffle(order.begin(), order.end(), rng);
        const std::uint64_t pass_group = traced ? tracer->next_group() : 0;
        const ScopedSpan pass_span(traced ? tracer : nullptr, "pass", -1, pass_group);
        std::array<double, 3> engine_wall{};
        std::array<double, 3> steps{}, rejected{};
        double iterations = 0, rescues = 0, bound_node = 0, bound_device = 0,
               bound_dt_max = 0, full = 0, fast = 0, fallbacks = 0;
        LayerSplit split;
        double swec_factor = 0, swec_elapsed = 0;
        double wall = 0;
        for (std::size_t ci = 0; ci < live.size(); ++ci) {
            for (const std::size_t e : order) {
                const TranSpec spec = tran_spec(live[ci].c, k_engines[e].engine);
                StepTimer timer;
                nanosim::engines::AnalysisObserver obs;
                std::uint64_t group = 0;
                int span = -1;
                if (traced) {
                    group = tracer->next_group();
                    span = tracer->begin(std::string("analysis.") + k_engines[e].name,
                                         pass_span.index(), group);
                    // Step spans of the first traced pass only: a
                    // run's worth of them would not fit in memory.
                    timer.tracer = step_spans ? tracer : nullptr;
                    timer.parent = span;
                    timer.group = group;
                    obs = timer.steps();
                    timer.start();
                }
                const auto t0 = Clock::now();
                const AnalysisResult r =
                    live[ci].session->run(spec, traced ? &obs : nullptr);
                const double dt = seconds_since(t0);
                wall += dt;
                engine_wall[e] += dt;
                const nanosim::obs::RunReport& rep = r.report;
                const LayerSplit s = LayerSplit::of(rep);
                if (traced) {
                    tracer->end(span);
                    tracer->arg(span, "steps", static_cast<double>(rep.steps_accepted));
                    tracer->arg(span, "rejected", static_cast<double>(rep.steps_rejected));
                    tracer->arg(span, "eval_s", s.eval_s);
                    tracer->arg(span, "stamp_s", s.stamp_s);
                    tracer->arg(span, "factor_s", s.factor_s);
                    tracer->arg(span, "solve_s", s.solve_s);
                    tracer->arg(span, "other_s", s.other_s);
                    tracer->arg(span, "elapsed_s", s.elapsed_s);
                    step_us[e].insert(step_us[e].end(), timer.intervals_s.begin(),
                                      timer.intervals_s.end());
                    // The split must partition the analysis wall time.
                    report.attempt(s.other_s >= -1e-9,
                                   live[ci].c.key + "/" + k_engines[e].name +
                                       ": layer buckets exceed elapsed by " +
                                       fmt(-s.other_s) + " s");
                }
                split += s;
                steps[e] += static_cast<double>(rep.steps_accepted);
                rejected[e] += static_cast<double>(rep.steps_rejected);
                iterations += static_cast<double>(rep.nr_iterations);
                rescues += static_cast<double>(rep.rescues.total_attempted());
                full += static_cast<double>(rep.full_factors);
                fast += static_cast<double>(rep.fast_refactors);
                fallbacks += static_cast<double>(rep.pivot_fallbacks);
                if (k_engines[e].engine == TranEngine::swec) {
                    bound_node += static_cast<double>(rep.bounds.node);
                    bound_device += static_cast<double>(rep.bounds.device);
                    bound_dt_max += static_cast<double>(rep.bounds.dt_max);
                    swec_factor += s.factor_s;
                    swec_elapsed += s.elapsed_s;
                }
                // Output checks, outside the timed analysis; the result
                // is dropped before the next analysis so peak memory
                // does not depend on the engine order.
                err[e] = std::max(err[e], check_analysis(live[ci], e, r, report));
            }
        }
        if (!record) {
            return;
        }
        step_spans = step_spans && !traced;
        (traced ? traced_walls : pass_walls).push_back(wall);
        if (!traced) {
            for (std::size_t e = 0; e < 3; ++e) {
                untraced_engine_walls[e].push_back(engine_wall[e]);
            }
            return;
        }
        for (std::size_t e = 0; e < 3; ++e) {
            const std::string p = std::string("engines.") + k_engines[e].name;
            layer[p + ".wall_s"].push_back(engine_wall[e]);
            layer[p + ".steps"].push_back(steps[e]);
            layer[p + ".rejected"].push_back(rejected[e]);
        }
        layer["engines.nr.iterations"].push_back(iterations);
        layer["engines.rescues"].push_back(rescues);
        layer["engines.swec.bound_node"].push_back(bound_node);
        layer["engines.swec.bound_device"].push_back(bound_device);
        layer["engines.swec.bound_dt_max"].push_back(bound_dt_max);
        layer["devices.eval_s"].push_back(split.eval_s);
        layer["mna.stamp_s"].push_back(split.stamp_s);
        layer["linalg.factor_s"].push_back(split.factor_s);
        layer["linalg.solve_s"].push_back(split.solve_s);
        layer["other_s"].push_back(split.other_s);
        layer["linalg.full_factors"].push_back(full);
        layer["linalg.fast_refactors"].push_back(fast);
        layer["linalg.pivot_fallbacks"].push_back(fallbacks);
        layer["linalg.swec_factor_share"].push_back(
            swec_elapsed > 0 ? swec_factor / swec_elapsed : 0.0);
    };

    measure_passes(opt, run_pass, setup);

    setup.report_to(report);
    if (!opt.trace) {
        report_walls(report, "pass", pass_walls);
        for (std::size_t e = 0; e < 3; ++e) {
            report.note(std::string("tran_") + k_engines[e].name + "_s = " +
                        fmt(median(untraced_engine_walls[e]), 6) + " s");
        }
    } else {
        for (const auto& [name, values] : layer) {
            report.set(name, median(values));
        }
        for (std::size_t e = 0; e < 3; ++e) {
            const std::string p = std::string("engines.") + k_engines[e].name;
            report.set(p + ".step_p50_us", quantile(step_us[e], 0.5) * 1e6);
            report.set(p + ".step_p99_us", quantile(step_us[e], 0.99) * 1e6);
        }
        LayerProbe sum;
        double factor_nnz = 0;
        for (Live& l : live) {
            const LayerProbe p = probe_layers(*l.session, tracer);
            sum.eval_chords_us += p.eval_chords_us;
            sum.refactor_us += p.refactor_us;
            sum.solve_us += p.solve_us;
            factor_nnz += static_cast<double>(l.session->solver_cache().stats().factor_nnz);
        }
        report.set("mna.eval_chords_us", sum.eval_chords_us);
        report.set("linalg.refactor_us", sum.refactor_us);
        report.set("linalg.solve_us", sum.solve_us);
        report.set("linalg.factor_nnz", factor_nnz);
        report.set("obs.trace_overhead_ratio",
                   median(traced_walls) / median(pass_walls));
        report.note("SWEC factor share of SWEC time: " +
                    fmt(median(layer["linalg.swec_factor_share"])));
    }
    report.set("engines.swec.err_v", err[0]);
    report.set("engines.nr.err_v", err[1]);
    report.note("tran_swec_err_v = " + fmt(err[0], 6) + " V, tran_nr_err_v = " +
                fmt(err[1], 6) + " V (max over cases, vs the NR reference)");
    const double swec = median(untraced_engine_walls[0]);
    const double nr = median(untraced_engine_walls[1]);
    report.note("SWEC/NR wall-time ratio: " + fmt(swec / nr) +
                " (SWEC runs at " + fmt(nr / swec, 3) +
                "x the speed of NR at its default settings)");
}

} // namespace

void run_tran_mesh(const Options& opt, Report& report, Tracer* tracer) {
    run_tran(cases_for("tran_mesh", opt.smoke), opt, report, tracer);
}

void run_paper(const Options& opt, Report& report, Tracer* tracer) {
    run_tran(cases_for("paper", opt.smoke), opt, report, tracer);
}

void prepare_tran_references(const Options& opt, const std::string& workload) {
    for (const Case& c : cases_for(workload, opt.smoke)) {
        SimSession session(c.build());
        // The engine waveforms the reference grades, run once on demand.
        std::vector<nanosim::analysis::Waveform> graded;
        const auto errors = [&](const Reference& ref) {
            if (graded.empty()) {
                for (const EngineDef& e : k_engines) {
                    if (e.engine != TranEngine::pwl) {
                        const AnalysisResult r = session.run(tran_spec(c, e.engine));
                        graded.push_back(r.tran().node(session.circuit(), c.node));
                    }
                }
            }
            std::vector<double> out;
            for (const auto& w : graded) {
                out.push_back(ref.error(w));
            }
            return out;
        };
        prepare_reference(opt, c.key, session, c.node, c.t_stop, errors);
    }
}

} // namespace perfbench
