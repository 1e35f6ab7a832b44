// Nano-Sim — Monte-Carlo noise analysis (the baseline EM replaces).
//
// The pre-SDE methodology for circuits with uncertain inputs: realise
// each white-noise source as a concrete band-limited sample path (a
// piecewise-constant current of value sigma * xi_k / sqrt(dt) on each
// interval, so its integral over a step is a true Wiener increment), run
// a full *deterministic* transient per realization, and build statistics
// over hundreds of runs.  This is the "several hundreds to over thousands
// of Monte Carlo simulations" cost of paper Sec. 1 that the EM engine
// amortises — for a matched path count, MC pays the deterministic
// engine's full machinery per run.
//
// One driver runs every campaign.  Its worker count comes from an
// ExecutionPolicy: one worker runs the trials inline through the
// caller's SystemCache; more run them on a pool, one fresh cache per
// trial.  Either way trial k draws its noise from one shared
// stochastic::NoisePathSet keyed by (trial, source) and the trials fold
// into the statistics in trial order, so results are bit-identical at
// any worker count.
#ifndef NANOSIM_ENGINES_MONTE_CARLO_HPP
#define NANOSIM_ENGINES_MONTE_CARLO_HPP

#include <memory>

#include "engines/checkpoint.hpp"
#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "runtime/execution_policy.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/stats.hpp"

namespace nanosim::engines {

/// Monte-Carlo options.
struct McOptions {
    int runs = 200;          ///< deterministic transients to run
    double t_stop = 0.0;     ///< horizon [s]
    double noise_dt = 0.0;   ///< noise bandwidth grid; 0 = t_stop/200
    std::size_t grid_points = 201; ///< output sampling for statistics
    /// Additional nodes to observe alongside the primary one; each gets
    /// its own mean/stddev/ensemble block in McResult::probes.
    std::vector<NodeId> probe_nodes;
    /// Emit a resumable McCheckpoint through the observer every N
    /// completed trials (0 = off).  Checkpoints do not depend on the
    /// worker count, so a campaign may resume at another one.
    int checkpoint_every = 0;
    /// Resume a checkpointed campaign: restore the accumulator state and
    /// continue at resume->next_trial.  The request must describe the
    /// same campaign (runs/grid/probes validated; same circuit and seed
    /// are the caller's contract — the checkpoint pins base_seed).
    std::shared_ptr<const McCheckpoint> resume;
    /// Base options for the per-run deterministic transient (t_stop and
    /// noise are overridden per run).
    SwecTranOptions tran;
};

/// Per-node observation block for McOptions::probe_nodes.
struct McNodeStats {
    NodeId node = 0;
    std::string name;
    analysis::Waveform mean;
    analysis::Waveform stddev;
    stochastic::EnsembleStats stats;
};

/// Ensemble statistics of one node voltage over the MC runs.
struct McResult {
    std::vector<double> grid;
    analysis::Waveform mean;
    analysis::Waveform stddev;
    stochastic::EnsembleStats stats;
    /// Optional extra observed nodes, in McOptions::probe_nodes order.
    std::vector<McNodeStats> probes;
    /// Accepted step count of each completed trial, in trial order —
    /// the adaptive-step fingerprint of the campaign.
    std::vector<int> trial_steps;
    /// Trials quarantined after the rescue ladder was exhausted (seed +
    /// diagnostic for offline replay); the campaign continues without
    /// them and the surviving trials stay bit-identical.
    std::vector<McFailedTrial> failed_trials;
    /// Rescue-ladder outcomes aggregated over every surviving trial.
    obs::RescueCounts rescues;
    /// True when an AnalysisObserver cancelled the run; statistics cover
    /// the trials completed before the abort.
    bool aborted = false;
    FlopCounter flops;
};

/// Run the Monte-Carlo analysis, observing `node`.  `rng` draws the one
/// base seed of the noise-path set (a resumed campaign reuses the
/// checkpoint's instead).  `observer` gets per-trial callbacks on the
/// calling thread, in trial order, and may cancel: between trials, and
/// mid-trial at the inner transient's step granularity.  A cancel keeps
/// the exact trial prefix folded so far.
///
/// `policy` sets the worker count (default 1; 0 = all cores).  One
/// worker runs the trials inline and shares `cache` across every
/// realization — without it each trial's transient re-freezes its own
/// pattern and re-runs the symbolic analysis.  More workers run the
/// trials on a pool: with `cache` each trial gets a fresh SystemCache
/// (built outside its flop tally, so flops match the shared-cache run),
/// without it each transient builds its own, as at one worker.  The
/// observer's cancel predicate is then polled from the workers too and
/// must be thread-safe.
[[nodiscard]] McResult run_monte_carlo(const mna::MnaAssembler& assembler,
                                       const McOptions& options,
                                       stochastic::Rng& rng, NodeId node,
                                       const AnalysisObserver* observer = nullptr,
                                       mna::SystemCache* cache = nullptr,
                                       const runtime::ExecutionPolicy& policy =
                                           runtime::ExecutionPolicy{1});

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_MONTE_CARLO_HPP
