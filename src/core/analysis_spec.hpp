// Nano-Sim — the typed analysis request/response pair.
//
// An AnalysisSpec is one analysis request: a std::variant over the five
// kinds the simulator runs (operating point, DC sweep, transient,
// Monte-Carlo, Euler-Maruyama ensemble), each carrying its engine
// selection plus the commonly tuned options factored out of the
// per-engine `*Options` structs.  A SimSession executes specs against
// one circuit and returns AnalysisResults — a uniform header (name,
// kind, engine, elapsed time, abort flag, solver-cache work) over the
// engine-native payload.
//
//     SimSession session = SimSession::from_deck_file("x.cir");
//     AnalysisResult tr = session.run(TranSpec{.t_stop = 1e-6});
//     tr.tran().node(session.circuit(), "out");        // typed payload
//     tr.header.solver.full_factors;                   // uniform header
//
// Power users still reach the engines directly (the benches do); the
// spec layer is the ergonomic, cache-sharing front door.
#ifndef NANOSIM_CORE_ANALYSIS_SPEC_HPP
#define NANOSIM_CORE_ANALYSIS_SPEC_HPP

#include <cstdint>
#include <string>
#include <variant>

#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/dense.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"

namespace nanosim {

/// DC solver selection.
enum class DcEngine {
    swec,           ///< pseudo-transient SWEC (default; paper Sec. 5.1)
    newton_raphson, ///< plain NR (SPICE behaviour, incl. NDR failures)
    mla,            ///< Bhattacharya-Mazumder limited NR baseline
};

/// Transient solver selection.
enum class TranEngine {
    swec,           ///< SWEC (default; paper Sec. 3)
    newton_raphson, ///< SPICE3-like companion-model NR
    pwl,            ///< ACES-like piecewise linear
};

[[nodiscard]] const char* engine_name(DcEngine engine) noexcept;
[[nodiscard]] const char* engine_name(TranEngine engine) noexcept;

/// Options shared across analysis kinds, factored out of the per-engine
/// structs.  A zero means "use the engine's default" everywhere, so a
/// default-constructed CommonOptions reproduces each engine's historical
/// behaviour exactly.
struct CommonOptions {
    double abstol = 0.0;  ///< NR-family absolute voltage tolerance [V]
    double reltol = 0.0;  ///< NR-family relative tolerance
    double dt_init = 0.0; ///< transient first step [s]
    double dt_min = 0.0;  ///< transient step floor [s]
    double dt_max = 0.0;  ///< transient step ceiling [s]
    /// Opt-in tabulated chord-conductance models for the SWEC engines
    /// (devices/tabulated.hpp): cubic-Hermite lookups replace the
    /// closed-form transcendentals inside the default voltage range,
    /// exact fallback outside.  Tables build once per session solver
    /// cache and are shared across analyses / Monte-Carlo trials.
    bool tabulate = false;
    /// Wall-clock budget for the whole analysis [s]; 0 = none.  When the
    /// budget runs out the run is cancelled through the observer path and
    /// returns an `aborted` partial result (never an exception) — the
    /// same contract as a client-initiated cancel.
    double deadline_s = 0.0;
};

/// DC operating point.
struct OpSpec {
    std::string name = "op";
    DcEngine engine = DcEngine::swec;
    CommonOptions common;
};

/// DC sweep of a named V/I source over [start, stop] by `step`.
struct DcSweepSpec {
    std::string name = "dc";
    DcEngine engine = DcEngine::swec;
    CommonOptions common;
    std::string source;  ///< swept V or I source name
    double start = 0.0;
    double stop = 0.0;
    double step = 0.0;   ///< signed increment (sign must match stop-start)

    /// The sweep values (endpoints included).  Throws AnalysisError on an
    /// inconsistent start/stop/step triple.
    [[nodiscard]] linalg::Vector values() const;
};

/// Transient over [0, t_stop].
struct TranSpec {
    std::string name = "tran";
    TranEngine engine = TranEngine::swec;
    CommonOptions common;
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    bool start_from_dc = true; ///< initial condition from a DC solve
    linalg::Vector initial;    ///< explicit IC (overrides start_from_dc)
    // --- SWEC-engine knobs (ignored by the NR/PWL baselines) ---
    double eps = 0.05;         ///< target local error ratio (eq. 10)
    bool adaptive = true;      ///< eq. (12) step control
    bool use_predictor = true; ///< eq. (5) Taylor predictor
    double growth_limit = 2.0; ///< max step growth per step
    double geq_floor = 1e-12;  ///< conductance floor [S]
    /// Noise realizations (Monte-Carlo internals; normally empty).
    mna::MnaAssembler::NoiseRealization noise;
};

/// Monte-Carlo noise analysis on one node (SWEC transient per trial).
struct MonteCarloSpec {
    std::string name = "mc";
    CommonOptions common;
    std::string node;          ///< observed node (required)
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    int runs = 200;            ///< deterministic transients to run
    double noise_dt = 0.0;     ///< noise bandwidth grid; 0 = t_stop/200
    std::size_t grid_points = 201; ///< statistics sampling grid
    std::uint64_t seed = 1;
    /// Monte-Carlo trial workers.  1 (default) runs the trials serially,
    /// every one refactoring through the session's shared solver cache
    /// (the symbolic analysis is never repeated); N > 1 runs them on N
    /// workers, one fresh cache per trial; 0 = all cores.  Trial k's
    /// noise comes from the same seed-derived path set at any count, so
    /// results are bit-identical for any `threads`.
    int threads = 1;
    /// Extra nodes to observe alongside `node` (per-node mean/stddev
    /// blocks in the result).
    std::vector<std::string> probes;
    /// Emit a resumable engines::McCheckpoint through the observer every
    /// N completed trials (0 = off).
    int checkpoint_every = 0;
    /// Resume a checkpointed campaign at resume->next_trial (see
    /// engines::McOptions::resume); the spec must describe the same
    /// campaign.
    std::shared_ptr<const engines::McCheckpoint> resume;
    /// Base options for the per-trial transient (t_stop/noise overridden
    /// per trial); lets a spec reproduce engines::McOptions exactly.
    engines::SwecTranOptions tran;
};

/// Euler-Maruyama stochastic ensemble on one node (paper Sec. 4).
struct EnsembleSpec {
    std::string name = "em";
    CommonOptions common;
    std::string node;          ///< observed node (required)
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    double dt = 0.0;           ///< uniform SDE step [s] (required, > 0)
    int paths = 100;           ///< sample paths
    engines::EmScheme scheme = engines::EmScheme::explicit_em;
    bool swec_update = true;   ///< refresh chord conductances per step
    bool start_from_dc = false;
    linalg::Vector initial;
    std::uint64_t seed = 1;
    /// Path workers, as MonteCarloSpec::threads: 1 (default) runs the
    /// paths serially, N > 1 on N workers, 0 = all cores.  Path p draws
    /// from stream p of `seed` at any count, so results are bit-identical
    /// for any `threads`.
    int threads = 1;
};

/// One analysis request.
using AnalysisSpec =
    std::variant<OpSpec, DcSweepSpec, TranSpec, MonteCarloSpec, EnsembleSpec>;

/// Which alternative an AnalysisSpec / AnalysisResult holds.
enum class AnalysisKind { op, dc_sweep, tran, monte_carlo, ensemble };

[[nodiscard]] const char* analysis_kind_name(AnalysisKind kind) noexcept;

/// Solver-cache work spent inside one analysis (deltas, not lifetime
/// totals of the session's cache; the record is declared once, in
/// obs/report.hpp).
using SolverWork = obs::SolverWork;

/// Uniform result header shared by every analysis kind.
struct AnalysisHeader {
    std::string name;          ///< spec name (echoed back)
    AnalysisKind kind = AnalysisKind::op;
    std::string engine;        ///< engine display name
    double elapsed_s = 0.0;    ///< wall-clock time of this run
    bool aborted = false;      ///< observer cancelled mid-run
    /// Session-cache work spent in this run, including the cache's
    /// construction when the run built it (the payload's `solver` covers
    /// the engine call only).
    SolverWork solver;
    std::uint64_t cache_signature = 0; ///< stamp-pattern signature used
};

/// Typed response: uniform header + engine-native payload.  The typed
/// accessors throw AnalysisError when the payload kind does not match —
/// a misrouted result should fail loudly, not decay to a default.
struct AnalysisResult {
    using Payload =
        std::variant<engines::DcResult, engines::SweepResult,
                     engines::TranResult, engines::McResult,
                     engines::EmEnsembleResult>;

    AnalysisHeader header;
    Payload payload;
    /// Aggregated per-run diagnostics (obs/report.hpp): step-control
    /// outcomes, solver-cache work, time attribution, pool pressure.
    /// Machine-readable via report.to_json(); the CLI `report` verb
    /// pretty-prints it.
    obs::RunReport report;

    [[nodiscard]] const engines::DcResult& dc() const {
        return get<engines::DcResult>("DcResult");
    }
    [[nodiscard]] const engines::SweepResult& sweep() const {
        return get<engines::SweepResult>("SweepResult");
    }
    [[nodiscard]] const engines::TranResult& tran() const {
        return get<engines::TranResult>("TranResult");
    }
    [[nodiscard]] const engines::McResult& monte_carlo() const {
        return get<engines::McResult>("McResult");
    }
    [[nodiscard]] const engines::EmEnsembleResult& ensemble() const {
        return get<engines::EmEnsembleResult>("EmEnsembleResult");
    }

private:
    template <typename T>
    [[nodiscard]] const T& get(const char* what) const {
        if (const T* p = std::get_if<T>(&payload)) {
            return *p;
        }
        throw AnalysisError("AnalysisResult '" + header.name +
                            "' does not hold a " + what + " (kind is " +
                            analysis_kind_name(header.kind) + ")");
    }
};

} // namespace nanosim

#endif // NANOSIM_CORE_ANALYSIS_SPEC_HPP
