// Workloads shared by the correctness suites and the timing gates of
// test_perf_gates.cpp, so a gate and the test of the same run's results
// measure one workload: a noisy RC-mesh Monte-Carlo, the {op, dc
// sweep, tran, MC} batch through one SimSession or per-call engines, and
// an RTD-mesh Monte-Carlo with exact or tabulated device models.
#ifndef NANOSIM_TESTS_GATE_WORKLOADS_HPP
#define NANOSIM_TESTS_GATE_WORKLOADS_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_swec.hpp"
#include "mna/system_cache.hpp"

namespace nanosim::gate_workloads {

/// Name of the centre node of an n x n mesh.
inline std::string centre(int n) {
    return "n" + std::to_string(n / 2) + "_" + std::to_string(n / 2);
}

/// n x n RC mesh with an RTD every `rtd_stride` nodes and a white-noise
/// current injected at the centre.
inline Circuit noisy_mesh(int n, int rtd_stride = 3) {
    refckt::MeshSpec spec;
    spec.rows = n;
    spec.cols = n;
    spec.rtd_stride = rtd_stride;
    Circuit ckt = refckt::rc_mesh(spec);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node(centre(n)),
                                1e-9);
    return ckt;
}

/// FET-RTD inverter with a white-noise current on "out": the dense
/// solver path.
inline Circuit noisy_inverter() {
    Circuit ckt = refckt::fet_rtd_inverter();
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("out"),
                                1e-9);
    return ckt;
}

/// Fixed-step Monte-Carlo on noisy_mesh(n) through a fresh session:
/// trials march on the noise grid, so the trial cost is the
/// noise-resolving transient.
inline engines::McResult run_mesh_mc(int n, int runs) {
    MonteCarloSpec mc;
    mc.node = centre(n);
    mc.t_stop = 5e-9;
    mc.noise_dt = 2.5e-10;
    mc.runs = runs;
    mc.grid_points = 26;
    mc.tran.adaptive = false;
    mc.tran.dt_init = mc.noise_dt;
    return std::get<engines::McResult>(
        SimSession(noisy_mesh(n)).run(mc).payload);
}

// ---- {op, dc sweep, tran, MC} batch ----------------------------------

/// One batch: a circuit with noise on `mc_node`, the swept source and
/// the analysis horizons.
struct Batch {
    std::function<Circuit()> make;
    std::string sweep_source;
    double sweep_stop = 0.0;
    double sweep_step = 0.0;
    double tran_stop = 0.0;
    std::string mc_node;
    double mc_stop = 0.0;
    double mc_noise_dt = 0.0;
};

inline Batch inverter_batch() {
    return {noisy_inverter, "VIN", 5.0, 0.25, 100e-9, "out", 20e-9, 1e-9};
}

inline Batch mesh_batch(int n) {
    return {[n] { return noisy_mesh(n); }, "VIN", 2.0, 0.2, 20e-9,
            centre(n), 5e-9, 2.5e-10};
}

struct BatchRun {
    engines::DcResult op;
    engines::SweepResult sweep;
    engines::TranResult tran;
    std::optional<engines::McResult> mc;
    /// Symbolic factorisations summed over the batch (session path only).
    std::size_t full_factors = 0;
};

inline DcSweepSpec batch_sweep(const Batch& b) {
    DcSweepSpec dc;
    dc.source = b.sweep_source;
    dc.stop = b.sweep_stop;
    dc.step = b.sweep_step;
    return dc;
}

/// Per-trial transient of the batch's MC: warm start from the operating
/// point, fixed steps on the noise grid.
inline engines::SwecTranOptions batch_trial(const Batch& b,
                                            const linalg::Vector& op) {
    engines::SwecTranOptions tran;
    tran.start_from_dc = false;
    tran.initial = op;
    tran.adaptive = false;
    tran.dt_init = b.mc_noise_dt;
    return tran;
}

/// The batch through one SimSession and its persistent solver cache.
inline BatchRun run_session_batch(const Batch& b, int mc_runs) {
    SimSession session(b.make());
    BatchRun out;
    const auto take = [&out](AnalysisResult r) {
        out.full_factors += r.header.solver.full_factors;
        return std::move(r.payload);
    };
    out.op = std::get<engines::DcResult>(take(session.run(OpSpec{})));
    out.sweep =
        std::get<engines::SweepResult>(take(session.run(batch_sweep(b))));
    TranSpec tran;
    tran.t_stop = b.tran_stop;
    out.tran = std::get<engines::TranResult>(take(session.run(tran)));
    MonteCarloSpec mc;
    mc.node = b.mc_node;
    mc.t_stop = b.mc_stop;
    mc.noise_dt = b.mc_noise_dt;
    mc.runs = mc_runs;
    mc.grid_points = 26;
    mc.tran = batch_trial(b, out.op.x);
    out.mc = std::get<engines::McResult>(take(session.run(mc)));
    return out;
}

/// The batch through the per-call engine entry points: each analysis,
/// and each MC trial, builds its own solver cache.
inline BatchRun run_percall_batch(const Batch& b, int mc_runs) {
    Circuit circuit = b.make();
    const mna::MnaAssembler assembler(circuit);
    BatchRun out;
    out.op = engines::solve_op_swec(assembler);
    // The engine restores the swept source before the transient.
    out.sweep = engines::dc_sweep_swec(circuit, b.sweep_source,
                                       batch_sweep(b).values());
    engines::SwecTranOptions tran;
    tran.t_stop = b.tran_stop;
    out.tran = engines::run_tran_swec(assembler, tran);
    engines::McOptions mc;
    mc.runs = mc_runs;
    mc.t_stop = b.mc_stop;
    mc.noise_dt = b.mc_noise_dt;
    mc.grid_points = 26;
    mc.tran = batch_trial(b, out.op.x);
    stochastic::Rng rng(1); // MonteCarloSpec's default seed
    out.mc = engines::run_monte_carlo(assembler, mc, rng,
                                      circuit.find_node(b.mc_node));
    return out;
}

/// Max absolute deviation between two batch runs: op and sweep
/// solutions, transients sampled on a common grid, MC mean and stddev.
inline double max_deviation(const BatchRun& a, const BatchRun& b,
                            double tran_stop) {
    double dev = 0.0;
    const auto fold = [&dev](const std::vector<double>& x,
                             const std::vector<double>& y) {
        for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
            dev = std::max(dev, std::abs(x[i] - y[i]));
        }
    };
    fold(a.op.x, b.op.x);
    for (std::size_t k = 0; k < a.sweep.solutions.size(); ++k) {
        fold(a.sweep.solutions[k], b.sweep.solutions[k]);
    }
    for (std::size_t n = 0; n < a.tran.node_waves.size(); ++n) {
        for (int s = 0; s <= 50; ++s) {
            const double t = tran_stop * s / 50.0;
            dev = std::max(dev, std::abs(a.tran.node_waves[n].at(t) -
                                         b.tran.node_waves[n].at(t)));
        }
    }
    fold(a.mc->mean.value(), b.mc->mean.value());
    fold(a.mc->stddev.value(), b.mc->stddev.value());
    return dev;
}

// ---- RTD-mesh Monte-Carlo, exact vs tabulated models ------------------

/// {mean, stddev}, and the wall and device-evaluation time of the MC
/// phase.
struct TablesMc {
    std::vector<analysis::Waveform> waves;
    double wall_s = 0.0;
    double eval_s = 0.0;
};

/// Monte-Carlo on noisy_mesh(n, 1), an RTD at every node, through one
/// solver cache.  Trials warm-start from the operating point and keep
/// the adaptive step controller on, so every step pays the full device
/// evaluation.
inline TablesMc run_rtd_mesh_mc(const mna::MnaAssembler& assembler,
                                NodeId node, int runs, bool tables) {
    mna::SystemCache cache(assembler);
    engines::McOptions mc;
    mc.runs = runs;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.start_from_dc = false;
    mc.tran.initial =
        engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache).x;
    mc.tran.dt_init = mc.noise_dt;
    mc.tran.tables.enabled = tables;

    stochastic::Rng rng(1);
    const double eval_before = cache.stats().eval_s;
    const auto t0 = std::chrono::steady_clock::now();
    engines::McResult res =
        engines::run_monte_carlo(assembler, mc, rng, node, nullptr, &cache);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    return {{std::move(res.mean), std::move(res.stddev)},
            wall.count(),
            cache.stats().eval_s - eval_before};
}

} // namespace nanosim::gate_workloads

#endif // NANOSIM_TESTS_GATE_WORKLOADS_HPP
