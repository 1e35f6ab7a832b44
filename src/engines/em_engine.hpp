// Nano-Sim — Euler-Maruyama stochastic transient engine (paper Sec. 4).
//
// Integrates the circuit SDE (paper eqs. 13/17)
//
//     C dX = (b(t) - G(t) X) dt + B dW(t)
//
// with the Euler-Maruyama update (eq. 18, Ito convention):
//
//     X_{j+1} = X_j + dt C^{-1} (b - G X_j) + C^{-1} B  dW_j ,
//
// where B has one column per white-noise current source (entries follow
// the ISource injection convention) and dW_j ~ N(0, dt) are Wiener
// increments.  G(t) is refreshed each step: time-varying linear devices
// by their known G(t), nonlinear devices by their SWEC chord conductance
// at the current state — this is how the paper's two contributions
// compose ("Since G is time variant, Equation (13) also includes cases
// with the nonlinear nanodevices").
//
// Schemes:
//  * explicit  — the paper's eq. (18).  Requires an invertible C (every
//    node must carry capacitance and the circuit must have no branch
//    unknowns); C is factored once.
//  * implicit  — stochastic backward Euler,
//        (C/dt + G) X_{j+1} = (C/dt) X_j + b + B dW_j / dt,
//    unconditionally stable and tolerant of singular C.  Offered as the
//    production default and as the ablation contrast for the stability
//    study of the explicit scheme.
//
// One driver runs every ensemble (EmEngine::run_ensemble).  Path p draws
// from its own counter-derived stream (stochastic::SeedSequence) and the
// paths fold into the statistics in path order, so an ensemble's result
// depends on its seed, never on its worker count.
#ifndef NANOSIM_ENGINES_EM_ENGINE_HPP
#define NANOSIM_ENGINES_EM_ENGINE_HPP

#include <cstdint>
#include <span>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "runtime/execution_policy.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/stats.hpp"
#include "stochastic/wiener.hpp"

namespace nanosim::engines {

/// Integration scheme for the SDE.
enum class EmScheme {
    explicit_em, ///< paper eq. (18)
    implicit_be, ///< stochastic backward Euler
};

/// EM engine options.
struct EmOptions {
    double t_stop = 0.0; ///< horizon [s] (required)
    double dt = 0.0;     ///< uniform step [s] (required)
    EmScheme scheme = EmScheme::explicit_em;
    bool swec_update = true; ///< refresh chord conductances per step
    bool start_from_dc = false;
    linalg::Vector initial; ///< explicit IC (size = unknowns)
};

/// One sample path result: per-node waveforms on the uniform grid.
struct EmPathResult {
    std::vector<analysis::Waveform> node_waves;
    FlopCounter flops;
};

/// Ensemble result for one observed node.
struct EmEnsembleResult {
    std::vector<double> grid;          ///< time samples (L+1 points)
    analysis::Waveform mean;           ///< E[V_node(t)]
    analysis::Waveform stddev;         ///< sqrt(Var[V_node(t)])
    stochastic::EnsembleStats stats;   ///< full per-point + peak stats
    /// True when an AnalysisObserver cancelled the ensemble; statistics
    /// cover the exact path prefix folded before the abort.
    bool aborted = false;
    FlopCounter flops;
};

/// Euler-Maruyama engine bound to one assembled circuit.
class EmEngine {
public:
    /// Validates options and (for the explicit scheme) that C is usable.
    EmEngine(const mna::MnaAssembler& assembler, const EmOptions& options);

    /// Number of grid steps L = t_stop / dt.
    [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

    /// The validated options this engine was built with.
    [[nodiscard]] const EmOptions& options() const noexcept {
        return options_;
    }

    /// Run one path, sampling Wiener increments from `rng`.
    [[nodiscard]] EmPathResult run_path(stochastic::Rng& rng) const;

    /// Run one path against SUPPLIED Wiener paths (one per noise source,
    /// each with exactly steps() increments) — the hook for strong
    /// (path-wise) comparison against a reference solution.
    [[nodiscard]] EmPathResult
    run_path(std::span<const stochastic::WienerPath> paths) const;

    /// Run an ensemble of `num_paths` paths and aggregate the voltage of
    /// `node`; path p draws its Wiener increments from
    /// SeedSequence(seed).stream(p).
    ///
    /// `policy` sets the worker count (default 1; 0 = all cores): one
    /// worker runs the paths inline, more run them on a pool of
    /// min(policy.resolved(), num_paths) workers.  Either way the paths
    /// fold into the statistics and the flop tally in path order on the
    /// calling thread, so results are bit-identical at any worker count.
    /// `observer` gets per-path trial/progress callbacks on the calling
    /// thread, in path order, and may cancel between paths; a cancel
    /// keeps the exact path prefix folded so far.  With a pool its
    /// cancel predicate is polled from the workers too and must be
    /// thread-safe.
    [[nodiscard]] EmEnsembleResult
    run_ensemble(int num_paths, std::uint64_t seed, NodeId node,
                 const AnalysisObserver* observer = nullptr,
                 const runtime::ExecutionPolicy& policy =
                     runtime::ExecutionPolicy{1}) const;

private:
    [[nodiscard]] linalg::Vector initial_state() const;
    void check_explicit_feasible() const;

    const mna::MnaAssembler* assembler_;
    EmOptions options_;
    std::size_t steps_ = 0;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_EM_ENGINE_HPP
