// Nano-Sim benchmark — `mc_mesh`: a 100-trial Monte-Carlo campaign on a
// 16x16 mesh with an RTD at every node (device evaluation weighs more
// than on the transient mesh) and a white-noise current at the centre.
// One pass is one campaign; each pass draws its campaign seed from the
// workload seed.
#include <cmath>

#include "bench.hpp"
#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "stochastic/noise_paths.hpp"

namespace perfbench {

namespace {

struct McCase {
    int grid = 16;
    int runs = 100;
    std::string node;
};

McCase mc_case(bool smoke) {
    McCase c;
    c.grid = smoke ? 8 : 16;
    c.runs = smoke ? 4 : 100;
    c.node = "n" + std::to_string(c.grid / 2) + "_" + std::to_string(c.grid / 2);
    return c;
}

nanosim::Circuit build(const McCase& c) {
    nanosim::refckt::MeshSpec mesh;
    mesh.rows = c.grid;
    mesh.cols = c.grid;
    mesh.rtd_stride = 1;
    nanosim::Circuit ckt = nanosim::refckt::rc_mesh(mesh);
    ckt.add<nanosim::NoiseCurrentSource>("NOISE1", nanosim::k_ground,
                                         ckt.find_node(c.node), 1e-9);
    return ckt;
}

nanosim::MonteCarloSpec campaign(const McCase& c, std::uint64_t seed) {
    nanosim::MonteCarloSpec spec;
    spec.node = c.node;
    spec.t_stop = 2e-9;
    spec.runs = c.runs;
    spec.noise_dt = 0.25e-9;
    spec.grid_points = 26;
    spec.seed = seed;
    return spec;
}

} // namespace

void run_mc_mesh(const Options& opt, Report& report, Tracer* tracer) {
    const McCase c = mc_case(opt.smoke);
    Setup setup({[&c] { return build(c); }}, tracer);
    auto sessions = setup.once(false);
    nanosim::SimSession& session = *sessions.front();

    std::mt19937_64 rng(opt.seed);
    std::vector<double> walls, traced_walls, trial_s, campaign_steps;
    std::map<std::string, std::vector<double>> layer;

    const auto run_pass = [&](bool traced, bool record) {
        const nanosim::MonteCarloSpec spec = campaign(c, rng());
        StepTimer timer;
        timer.span_name = "trial";
        nanosim::engines::AnalysisObserver obs;
        int span = -1;
        if (traced) {
            timer.group = tracer->next_group();
            span = tracer->begin("analysis.mc", -1, timer.group);
            timer.tracer = tracer;
            timer.parent = span;
            obs = timer.trials();
            timer.start();
        }
        const auto t0 = Clock::now();
        const nanosim::AnalysisResult r = session.run(spec, traced ? &obs : nullptr);
        const double wall = seconds_since(t0);
        const nanosim::obs::RunReport& rep = r.report;
        const LayerSplit split = LayerSplit::of(rep);
        const nanosim::engines::McResult& mc = r.monte_carlo();
        double trial_steps = 0;
        for (const int steps : mc.trial_steps) {
            trial_steps += steps;
        }
        if (traced) {
            tracer->end(span);
            tracer->arg(span, "trials", static_cast<double>(mc.trial_steps.size()));
            tracer->arg(span, "trial_steps", trial_steps);
            tracer->arg(span, "eval_s", split.eval_s);
            tracer->arg(span, "factor_s", split.factor_s);
            tracer->arg(span, "other_s", split.other_s);
        }

        // Output checks.
        const double sd = mc.stddev.value().empty() ? 0.0 : mc.stddev.value().back();
        report.attempt(!r.header.aborted &&
                           mc.trial_steps.size() == static_cast<std::size_t>(c.runs),
                       "mc: all " + std::to_string(c.runs) + " trials completed");
        report.attempt(mc.failed_trials.empty(),
                       "mc: " + std::to_string(mc.failed_trials.size()) +
                           " failed trials");
        report.attempt(std::isfinite(sd) && sd > 0.0,
                       "mc: stddev at t_stop is finite and > 0 (got " +
                           std::to_string(sd) + ")");
        if (!record) {
            return;
        }
        (traced ? traced_walls : walls).push_back(wall);
        if (!traced) {
            campaign_steps.push_back(trial_steps);
            return;
        }
        trial_s.insert(trial_s.end(), timer.intervals_s.begin(), timer.intervals_s.end());
        layer["engines.mc.trial_steps"].push_back(trial_steps);
        layer["engines.mc.failed_trials"].push_back(
            static_cast<double>(mc.failed_trials.size()));
        layer["engines.mc.trials_per_s"].push_back(c.runs / wall);
        layer["engines.rescues"].push_back(
            static_cast<double>(mc.rescues.total_attempted()));
        layer["devices.eval_s"].push_back(split.eval_s);
        layer["mna.stamp_s"].push_back(split.stamp_s);
        layer["linalg.factor_s"].push_back(split.factor_s);
        layer["linalg.solve_s"].push_back(split.solve_s);
        layer["other_s"].push_back(split.other_s);
        layer["linalg.full_factors"].push_back(static_cast<double>(rep.full_factors));
        layer["linalg.fast_refactors"].push_back(static_cast<double>(rep.fast_refactors));
        layer["linalg.pivot_fallbacks"].push_back(static_cast<double>(rep.pivot_fallbacks));
    };

    measure_passes(opt, run_pass, setup);

    setup.report_to(report);
    if (!opt.trace) {
        report_walls(report, "campaign", walls);
        report.note("trial steps per campaign: " + format_samples(campaign_steps));
        report.note("mc_trials_per_s = " + std::to_string(c.runs / median(walls)));
        return;
    }
    for (const auto& [name, values] : layer) {
        report.set(name, median(values));
    }
    report.set("engines.mc.trial_p50_s", quantile(trial_s, 0.5));
    report.set("engines.mc.trial_p90_s", quantile(trial_s, 0.9));

    const LayerProbe probe = probe_layers(session, tracer);
    report.set("mna.eval_chords_us", probe.eval_chords_us);
    report.set("linalg.refactor_us", probe.refactor_us);
    report.set("linalg.solve_us", probe.solve_us);
    report.set("linalg.factor_nnz",
               static_cast<double>(session.solver_cache().stats().factor_nnz));

    // Noise-path generation for one trial, as the MC drivers draw it.
    const nanosim::MonteCarloSpec spec = campaign(c, opt.seed);
    const auto holds = static_cast<std::size_t>(std::llround(spec.t_stop / spec.noise_dt));
    const nanosim::stochastic::NoisePathSet paths(opt.seed, {1e-9}, holds,
                                                  spec.noise_dt);
    std::vector<double> samples_us;
    double sink = 0.0;
    {
        const ScopedSpan span(tracer, "stochastic.samples");
        for (int trial = 0; trial < 2000; ++trial) {
            const auto t0 = Clock::now();
            const std::vector<double> path = paths.samples(trial, 0);
            samples_us.push_back(seconds_since(t0) * 1e6);
            sink += path.front();
        }
    }
    report.attempt(std::isfinite(sink), "mc: noise paths are finite");
    report.set("stochastic.samples_us", median(samples_us));
    report.set("obs.trace_overhead_ratio", median(traced_walls) / median(walls));
}

} // namespace perfbench
