#include "engines/em_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "linalg/lu.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stochastic/seed_sequence.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// B * dW accumulated into a vector (ISource sign convention: the noise
/// current is drawn out of pos and injected into neg).
void add_noise_injection(const mna::MnaAssembler& assembler,
                         std::span<const double> dw, linalg::Vector& out,
                         double gain) {
    const auto& noise = assembler.noise_sources();
    for (std::size_t k = 0; k < noise.size(); ++k) {
        const auto* src = static_cast<const NoiseCurrentSource*>(noise[k]);
        const double amp = gain * src->sigma() * dw[k];
        if (src->pos() != k_ground) {
            out[static_cast<std::size_t>(src->pos() - 1)] -= amp;
        }
        if (src->neg() != k_ground) {
            out[static_cast<std::size_t>(src->neg() - 1)] += amp;
        }
    }
}

/// One path's observed-node samples and flop tally.  Empty values mark
/// a path skipped after a cancel.
struct PathSample {
    std::vector<double> values;
    FlopCounter flops;
};

/// Raises the skip flag of queued paths when the fold loop exits, on a
/// cancel or a throw as well as at the end.
struct SkipRest {
    std::atomic<bool>& flag;
    ~SkipRest() { flag.store(true); }
};

} // namespace

EmEngine::EmEngine(const mna::MnaAssembler& assembler,
                   const EmOptions& options)
    : assembler_(&assembler), options_(options) {
    if (options_.t_stop <= 0.0 || options_.dt <= 0.0) {
        throw AnalysisError("EmEngine: t_stop and dt must be positive");
    }
    if (options_.dt > options_.t_stop) {
        throw AnalysisError("EmEngine: dt exceeds t_stop");
    }
    steps_ = static_cast<std::size_t>(
        std::llround(options_.t_stop / options_.dt));
    if (steps_ == 0) {
        steps_ = 1;
    }
    if (assembler.noise_sources().empty()) {
        throw AnalysisError(
            "EmEngine: circuit has no noise sources (nothing stochastic)");
    }
    if (options_.scheme == EmScheme::explicit_em) {
        check_explicit_feasible();
    }
}

void EmEngine::check_explicit_feasible() const {
    if (assembler_->num_branches() != 0) {
        throw AnalysisError(
            "EmEngine(explicit): branch unknowns (V sources / inductors) "
            "make C singular; use EmScheme::implicit_be");
    }
    // Every node needs capacitance for C to be invertible.
    const auto& c = assembler_->c_csr();
    for (int j = 0; j < assembler_->num_nodes(); ++j) {
        const auto r = static_cast<std::size_t>(j);
        if (c.at(r, r) == 0.0) {
            throw AnalysisError(
                "EmEngine(explicit): node '" +
                assembler_->circuit().node_name(j + 1) +
                "' carries no capacitance; C is singular — use "
                "EmScheme::implicit_be");
        }
    }
}

linalg::Vector EmEngine::initial_state() const {
    const auto n = static_cast<std::size_t>(assembler_->unknowns());
    if (!options_.initial.empty()) {
        if (options_.initial.size() != n) {
            throw AnalysisError("EmEngine: initial size mismatch");
        }
        return options_.initial;
    }
    if (options_.start_from_dc) {
        return solve_op_swec(*assembler_).x;
    }
    return linalg::Vector(n, 0.0);
}

EmPathResult EmEngine::run_path(stochastic::Rng& rng) const {
    std::vector<stochastic::WienerPath> paths;
    paths.reserve(assembler_->noise_sources().size());
    for (std::size_t k = 0; k < assembler_->noise_sources().size(); ++k) {
        paths.emplace_back(rng, options_.t_stop, steps_);
    }
    return run_path(paths);
}

EmPathResult
EmEngine::run_path(std::span<const stochastic::WienerPath> paths) const {
    const FlopScope scope;
    if (paths.size() != assembler_->noise_sources().size()) {
        throw AnalysisError("EmEngine: need one Wiener path per source");
    }
    for (const auto& p : paths) {
        if (p.steps() != steps_) {
            throw AnalysisError(
                "EmEngine: Wiener path grid does not match engine grid");
        }
    }
    const auto n = static_cast<std::size_t>(assembler_->unknowns());
    const auto& nonlinear = assembler_->nonlinear_devices();
    const double dt = options_.t_stop / static_cast<double>(steps_);

    linalg::Vector x = initial_state();

    EmPathResult result;
    for (int i = 0; i < assembler_->num_nodes(); ++i) {
        result.node_waves.emplace_back(
            "v(" + assembler_->circuit().node_name(i + 1) + ")");
    }
    auto record = [&](double t, const linalg::Vector& state) {
        for (int i = 0; i < assembler_->num_nodes(); ++i) {
            result.node_waves[static_cast<std::size_t>(i)].append(
                t, state[static_cast<std::size_t>(i)]);
        }
    };
    record(0.0, x);

    // Explicit scheme: factor C once.
    std::unique_ptr<linalg::DenseLu> c_lu;
    if (options_.scheme == EmScheme::explicit_em) {
        c_lu = std::make_unique<linalg::DenseLu>(
            assembler_->c_triplets().to_dense());
    }

    std::vector<double> geq(nonlinear.size(), 0.0);
    std::vector<double> dw(paths.size(), 0.0);

    for (std::size_t j = 0; j < steps_; ++j) {
        const double t = dt * static_cast<double>(j);
        const double t_next = t + dt;
        for (std::size_t k = 0; k < paths.size(); ++k) {
            dw[k] = paths[k].increment(j);
        }

        // Assemble G(t): static + time-varying + SWEC chords at X_j.
        linalg::Triplets g = assembler_->static_g();
        assembler_->add_time_varying_stamps(t, g);
        if (!nonlinear.empty()) {
            const NodeVoltages v = assembler_->view(x);
            for (std::size_t k = 0; k < nonlinear.size(); ++k) {
                geq[k] = options_.swec_update
                             ? std::max(nonlinear[k]->swec_conductance(v),
                                        0.0)
                             : geq[k];
            }
            assembler_->add_swec_stamps(geq, g);
        }

        if (options_.scheme == EmScheme::explicit_em) {
            // z solves C z = dt (b - G x) + B dW;  x += z   (eq. 18).
            const linalg::CsrMatrix g_csr(g);
            const linalg::Vector gx = g_csr.multiply(x);
            linalg::Vector rhs = assembler_->rhs(t);
            for (std::size_t i = 0; i < n; ++i) {
                rhs[i] = dt * (rhs[i] - gx[i]);
            }
            add_noise_injection(*assembler_, dw, rhs, 1.0);
            const linalg::Vector z = c_lu->solve(rhs);
            for (std::size_t i = 0; i < n; ++i) {
                x[i] += z[i];
            }
        } else {
            // (C/dt + G) x' = (C/dt) x + b + B dW/dt.
            linalg::Triplets a = g;
            linalg::Vector rhs = assembler_->rhs(t_next);
            const linalg::Vector cx = assembler_->c_csr().multiply(x);
            for (std::size_t i = 0; i < n; ++i) {
                rhs[i] += cx[i] / dt;
            }
            for (const auto& e : assembler_->c_triplets().entries()) {
                a.add(e.row, e.col, e.value / dt);
            }
            add_noise_injection(*assembler_, dw, rhs, 1.0 / dt);
            x = mna::solve_system(a, rhs);
        }
        record(t_next, x);
    }

    result.flops = scope.counter();
    return result;
}

EmEnsembleResult
EmEngine::run_ensemble(int num_paths, std::uint64_t seed, NodeId node,
                       const AnalysisObserver* observer,
                       const runtime::ExecutionPolicy& policy) const {
    if (num_paths < 1) {
        throw AnalysisError("EmEngine::run_ensemble: need >= 1 path");
    }
    if (node == k_ground || node > assembler_->num_nodes()) {
        throw AnalysisError("EmEngine::run_ensemble: bad node");
    }
    const double dt = options_.t_stop / static_cast<double>(steps_);

    EmEnsembleResult out{.grid = {},
                         .mean = analysis::Waveform("mean"),
                         .stddev = analysis::Waveform("stddev"),
                         .stats = stochastic::EnsembleStats(steps_ + 1),
                         .aborted = false,
                         .flops = {}};
    out.grid.resize(steps_ + 1);
    for (std::size_t j = 0; j <= steps_; ++j) {
        out.grid[j] = dt * static_cast<double>(j);
    }

    // Path p: its own stream, the observed node sampled on the grid, and
    // its own flop tally (run_path scopes one).
    const stochastic::SeedSequence streams(seed);
    const auto node_idx = static_cast<std::size_t>(node - 1);
    const auto run_one = [&](int p) {
        const obs::Span trial_span("trial", "em");
        stochastic::Rng rng = streams.stream(static_cast<std::uint64_t>(p));
        const EmPathResult path = run_path(rng);
        const auto& w = path.node_waves[node_idx];
        PathSample sample{.values = std::vector<double>(steps_ + 1),
                          .flops = path.flops};
        for (std::size_t j = 0; j <= steps_; ++j) {
            sample.values[j] = w.value_at(j);
        }
        return sample;
    };

    // More than one worker: every path is queued up front and the loop
    // below waits for each in path order.  One worker: the loop runs each
    // path inline.
    const int workers = std::min(policy.resolved(), num_paths);
    std::atomic<bool> skip_rest{false};
    std::vector<std::future<PathSample>> queued;
    std::optional<runtime::ThreadPool> pool;
    if (workers > 1) {
        pool.emplace(workers);
        queued.reserve(static_cast<std::size_t>(num_paths));
        for (int p = 0; p < num_paths; ++p) {
            queued.push_back(pool->submit([&, p] {
                if (skip_rest.load() ||
                    (observer != nullptr && observer->cancelled())) {
                    return PathSample{}; // skipped: left out of the prefix
                }
                return run_one(p);
            }));
        }
    }
    // Paths queued behind an abort or a throw are skipped while the pool
    // drains.
    const SkipRest skip_on_exit{skip_rest};

    for (int p = 0; p < num_paths; ++p) {
        if (observer != nullptr && observer->cancelled()) {
            out.aborted = true;
            break;
        }
        const PathSample sample =
            pool ? queued[static_cast<std::size_t>(p)].get() : run_one(p);
        if (pool) {
            // A pooled path's flop scope billed its worker thread; bill
            // the caller, as an inline path's scope does on exit.
            current_flops() += sample.flops;
        }
        if (sample.values.empty()) { // skipped after a cancel
            out.aborted = true;
            break;
        }
        out.stats.add_path(sample.values);
        out.flops += sample.flops;
        if (observer != nullptr) {
            observer->trial(p + 1, num_paths);
            observer->progress(static_cast<double>(p + 1) / num_paths);
        }
    }

    for (std::size_t j = 0; j <= steps_; ++j) {
        out.mean.append(out.grid[j], out.stats.at(j).mean());
        out.stddev.append(out.grid[j], out.stats.at(j).stddev());
    }
    return out;
}

} // namespace nanosim::engines
