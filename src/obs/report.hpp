// Nano-Sim — structured per-run solver report.
//
// A RunReport is the machine-readable summary of one analysis run,
// attached to every AnalysisResult: step-control outcomes (accepted /
// rejected counts, which bound limited each accepted step), solver-cache
// work (the SolverWork record: factor strategy mix, pivot fallbacks,
// pattern rebuilds, table builds and the five-way wall-time attribution
// including the symbolic analyze bucket), and thread-pool queue
// pressure.  It aggregates data the engines already track plus the
// counters this subsystem adds, so a regression harness (or the
// `nanosim report` verb) can diff runs without scraping log output.
//
// Deliberately std-only (no engine/mna includes): core/analysis_spec.hpp
// embeds a RunReport by value and mna::SystemCache counts into a
// SolverWork, so this header must sit below everything.
#ifndef NANOSIM_OBS_REPORT_HPP
#define NANOSIM_OBS_REPORT_HPP

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

namespace nanosim::obs {

/// Solver-cache work: the factor/solve counts and the wall-time split of
/// an mna::SystemCache.  The cache holds the lifetime totals; the
/// difference of two snapshots (`after - before`) is the work spent
/// between them, which is what every result carries (the analysis
/// header, the tran/dc payloads and the RunReport).
///
/// Adding a value costs one member and one fields() line: the delta,
/// the equality, RunReport::to_json and the wire codec all walk fields().
struct SolverWork {
    /// Symbolic + pivoting factorisations — what a persistent SimSession
    /// cache drives to zero for repeat analyses on an unchanged circuit.
    std::uint64_t full_factors = 0;
    std::uint64_t fast_refactors = 0; ///< pattern-reusing refactors
    std::uint64_t dense_solves = 0;   ///< dense-path solves
    /// refactor() detected pivot degradation and fell back to a full
    /// re-pivoting factorisation (a subset of full_factors).
    std::uint64_t pivot_fallbacks = 0;
    /// Stamp-pattern misses that forced a re-freeze (exotic devices only).
    std::uint64_t pattern_rebuilds = 0;
    /// Solves answered through the held LU with iterative refinement
    /// instead of a refactor (SWEC steps after a transient's first).
    std::uint64_t reused_solves = 0;
    /// Correction solves (x += LU^-1 r) those solves took, whether the
    /// call was accepted or fell back to a refactor.
    std::uint64_t refinement_sweeps = 0;
    std::uint64_t tables_built = 0; ///< chord tables built

    // ---- wall-time attribution [s] ------------------------------------
    /// Symbolic analysis: pattern freeze, fill-reducing ordering
    /// selection, StampProgram compile (the numeric half of the first LU
    /// stays in factor_s).
    double analyze_s = 0.0;
    double eval_s = 0.0;  ///< device-model evaluation (chords / rates)
    /// begin() baselines, restamps and step-bound diagonals; NR restamps
    /// are fused eval+stamp and land here.
    double stamp_s = 0.0;
    /// LU factor / refactor, incl. dense build+factor and overflow
    /// rebuilds (wall clock).
    double factor_s = 0.0;
    /// Triangular solves, plus the reused solves' residuals and
    /// refinement.
    double solve_s = 0.0;

    /// The field list: (JSON key, member) for every value above.
    [[nodiscard]] static constexpr auto fields() noexcept {
        return std::tuple{
            std::pair{"full_factors", &SolverWork::full_factors},
            std::pair{"fast_refactors", &SolverWork::fast_refactors},
            std::pair{"dense_solves", &SolverWork::dense_solves},
            std::pair{"pivot_fallbacks", &SolverWork::pivot_fallbacks},
            std::pair{"pattern_rebuilds", &SolverWork::pattern_rebuilds},
            std::pair{"reused_solves", &SolverWork::reused_solves},
            std::pair{"refinement_sweeps", &SolverWork::refinement_sweeps},
            std::pair{"tables_built", &SolverWork::tables_built},
            std::pair{"analyze_s", &SolverWork::analyze_s},
            std::pair{"eval_s", &SolverWork::eval_s},
            std::pair{"stamp_s", &SolverWork::stamp_s},
            std::pair{"factor_s", &SolverWork::factor_s},
            std::pair{"solve_s", &SolverWork::solve_s}};
    }

    /// Call f(key, member) for every field of `work` (a SolverWork or a
    /// record derived from one, const or not), in fields() order.
    template <typename Work, typename F>
    static void for_each_field(Work& work, F&& f) {
        std::apply(
            [&](const auto&... field) {
                (f(field.first, work.*field.second), ...);
            },
            fields());
    }

    /// Member-wise `after - before`: the work spent between two
    /// snapshots of one cache.
    [[nodiscard]] friend SolverWork
    operator-(const SolverWork& after, const SolverWork& before) noexcept {
        SolverWork delta;
        std::apply(
            [&](const auto&... field) {
                ((delta.*field.second =
                      after.*field.second - before.*field.second),
                 ...);
            },
            fields());
        return delta;
    }

    friend bool operator==(const SolverWork&, const SolverWork&) = default;
};

/// How many accepted steps were limited by each step-size bound.  For
/// adaptive engines the per-step winner is whichever constraint produced
/// the step actually taken; fixed-step engines count everything under
/// `fixed`.  Sums to the engine's accepted-step count.
struct StepBoundCounts {
    /// Local-error control: the eq. (12) device bound (SWEC) or an
    /// LTE/segment-cycling halving (NR/PWL baselines).
    std::uint64_t device = 0;
    std::uint64_t node = 0;       ///< SWEC per-node voltage-change bound
    /// growth_limit vs the previous step (SWEC), or the 1.5x growth
    /// heuristic proposing the step unopposed (NR/PWL).
    std::uint64_t growth = 0;
    std::uint64_t dt_max = 0;     ///< user step ceiling
    std::uint64_t dt_min = 0;     ///< clamped up to the step floor
    std::uint64_t breakpoint = 0; ///< clipped to a source breakpoint
    std::uint64_t horizon = 0;    ///< clipped to land exactly on t_stop
    std::uint64_t fixed = 0;      ///< fixed-step engine (no adaptation)

    [[nodiscard]] std::uint64_t total() const noexcept {
        return device + node + growth + dt_max + dt_min + breakpoint +
               horizon + fixed;
    }
};

/// Numerical rescue-ladder outcomes (PR-10 robustness subsystem).  When a
/// step fails to solve (NR non-convergence, singular/non-finite SWEC
/// solve), the engines escalate dt-backoff -> gmin stepping -> source
/// stepping before giving up; each rung counts an attempt when entered
/// and a success when it produced an accepted step.
struct RescueCounts {
    std::uint64_t dt_backoff_attempted = 0;
    std::uint64_t dt_backoff_succeeded = 0;
    std::uint64_t gmin_attempted = 0;
    std::uint64_t gmin_succeeded = 0;
    std::uint64_t source_attempted = 0;
    std::uint64_t source_succeeded = 0;

    [[nodiscard]] std::uint64_t total_attempted() const noexcept {
        return dt_backoff_attempted + gmin_attempted + source_attempted;
    }
    [[nodiscard]] std::uint64_t total_succeeded() const noexcept {
        return dt_backoff_succeeded + gmin_succeeded + source_succeeded;
    }

    RescueCounts& operator+=(const RescueCounts& o) noexcept {
        dt_backoff_attempted += o.dt_backoff_attempted;
        dt_backoff_succeeded += o.dt_backoff_succeeded;
        gmin_attempted += o.gmin_attempted;
        gmin_succeeded += o.gmin_succeeded;
        source_attempted += o.source_attempted;
        source_succeeded += o.source_succeeded;
        return *this;
    }
};

/// Aggregated diagnostics for one analysis run.  The SolverWork base is
/// the run's solver-cache work (deltas for this run).  Its time buckets
/// are the CALLER's wall clock over the session cache's sections — a
/// multi-worker Monte-Carlo campaign's per-trial work lives in trace
/// spans only (summing it would report more time than elapsed_s on
/// multi-core).
struct RunReport : SolverWork {
    // ---- identity -----------------------------------------------------
    std::string analysis;   ///< spec name
    std::string kind;       ///< analysis kind ("tran", "monte_carlo", ...)
    std::string engine;     ///< engine display name
    double elapsed_s = 0.0; ///< wall-clock for the whole run
    bool aborted = false;

    // ---- step control -------------------------------------------------
    std::uint64_t steps_accepted = 0;
    std::uint64_t steps_rejected = 0;
    std::uint64_t nr_iterations = 0;     ///< total (0 for SWEC)
    std::uint64_t nonconverged_steps = 0;
    StepBoundCounts bounds;              ///< per-bound winner counts
    double min_dt = 0.0;                 ///< smallest accepted step [s]
    double max_dt = 0.0;                 ///< largest accepted step [s]

    // ---- robustness ---------------------------------------------------
    RescueCounts rescues;          ///< rescue-ladder attempts per rung
    std::uint64_t failed_trials = 0; ///< MC trials quarantined after the
                                     ///< ladder was exhausted

    // ---- batch drivers ------------------------------------------------
    std::uint64_t trials = 0; ///< MC trials / EM paths / sweep points

    // ---- infrastructure -----------------------------------------------
    std::uint64_t cache_signature = 0;  ///< stamp-pattern signature
    std::uint64_t pool_tasks = 0;       ///< thread-pool tasks this run
    double pool_queue_wait_s = 0.0;     ///< summed submit→dequeue latency

    /// One JSON object (keys in declaration order, the SolverWork fields
    /// between `trials` and `cache_signature`; deterministic).
    [[nodiscard]] std::string to_json() const;

    /// Human-readable multi-line rendering for the CLI `report` verb.
    [[nodiscard]] std::string pretty() const;
};

} // namespace nanosim::obs

#endif // NANOSIM_OBS_REPORT_HPP
