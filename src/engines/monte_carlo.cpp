#include "engines/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "devices/sources.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stochastic/noise_paths.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::engines {

namespace {

/// Piecewise-constant sample-and-hold waveform on a uniform grid —
/// band-limited white noise for the deterministic engines.
class StepNoiseWave final : public Waveform {
public:
    StepNoiseWave(std::vector<double> samples, double dt)
        : samples_(std::move(samples)), dt_(dt) {}

    [[nodiscard]] double value(double t) const override {
        if (t < 0.0 || samples_.empty()) {
            return 0.0;
        }
        auto idx = static_cast<std::size_t>(t / dt_);
        idx = std::min(idx, samples_.size() - 1);
        return samples_[idx];
    }

    [[nodiscard]] double slope(double) const override { return 0.0; }

    [[nodiscard]] std::string describe() const override {
        return "NOISE(" + std::to_string(samples_.size()) + " holds)";
    }

private:
    std::vector<double> samples_;
    double dt_;
};

/// Validate the request and fill the defaulted fields (noise_dt, the
/// transient horizon and its dt_max cap).
McOptions normalize_options(const mna::MnaAssembler& assembler,
                            const McOptions& options_in, NodeId node) {
    McOptions options = options_in;
    if (options.t_stop <= 0.0 || options.runs < 1) {
        throw AnalysisError("run_monte_carlo: need t_stop > 0, runs >= 1");
    }
    if (options.grid_points < 2) {
        throw AnalysisError("run_monte_carlo: need grid_points >= 2");
    }
    if (options.noise_dt <= 0.0) {
        options.noise_dt = options.t_stop / 200.0;
    }
    if (node == k_ground || node > assembler.num_nodes()) {
        throw AnalysisError("run_monte_carlo: bad node");
    }
    for (const NodeId probe : options.probe_nodes) {
        if (probe == k_ground || probe > assembler.num_nodes()) {
            throw AnalysisError("run_monte_carlo: bad node");
        }
    }
    if (assembler.noise_sources().empty()) {
        throw AnalysisError("run_monte_carlo: circuit has no noise sources");
    }
    options.tran.t_stop = options.t_stop;
    // The deterministic transient must resolve the realized noise
    // bandwidth: capping the step at noise_dt is what makes Monte-Carlo
    // pay the full per-step engine cost the paper's Sec. 1 describes
    // (and what keeps its variance estimate unbiased).
    if (options.tran.dt_max <= 0.0 || options.tran.dt_max > options.noise_dt) {
        options.tran.dt_max = options.noise_dt;
    }
    return options;
}

/// The empty result of a campaign: uniform statistics grid, one
/// accumulator block per observed node.
McResult empty_result(const mna::MnaAssembler& assembler,
                      const McOptions& options) {
    McResult out{.grid = std::vector<double>(options.grid_points),
                 .mean = analysis::Waveform("mean"),
                 .stddev = analysis::Waveform("stddev"),
                 .stats = stochastic::EnsembleStats(options.grid_points),
                 .probes = {},
                 .trial_steps = {},
                 .failed_trials = {},
                 .rescues = {},
                 .aborted = false,
                 .flops = {}};
    for (std::size_t j = 0; j < options.grid_points; ++j) {
        out.grid[j] = options.t_stop * static_cast<double>(j) /
                      static_cast<double>(options.grid_points - 1);
    }
    for (const NodeId probe : options.probe_nodes) {
        const std::string name = assembler.circuit().node_name(probe);
        out.probes.push_back(McNodeStats{
            .node = probe,
            .name = name,
            .mean = analysis::Waveform("mean(v(" + name + "))"),
            .stddev = analysis::Waveform("stddev(v(" + name + "))"),
            .stats = stochastic::EnsembleStats(options.grid_points)});
    }
    return out;
}

/// The shared noise-path set: one sigma per noise source (in
/// noise_sources() order), streams keyed from `base_seed`.
stochastic::NoisePathSet noise_paths(const mna::MnaAssembler& assembler,
                                     const McOptions& options,
                                     std::uint64_t base_seed) {
    std::vector<double> sigmas;
    sigmas.reserve(assembler.noise_sources().size());
    for (const Device* dev : assembler.noise_sources()) {
        sigmas.push_back(static_cast<const NoiseCurrentSource*>(dev)->sigma());
    }
    const auto holds =
        static_cast<std::size_t>(std::ceil(options.t_stop / options.noise_dt));
    return stochastic::NoisePathSet(base_seed, std::move(sigmas), holds,
                                    options.noise_dt);
}

/// Everything one trial produces.
struct Trial {
    /// Primary node sampled on the statistics grid; empty when the trial
    /// was skipped or cancelled mid-transient (a partial trial would bias
    /// the ensemble) or quarantined.
    std::vector<double> samples;
    /// Probe-node samples, McOptions::probe_nodes order.
    std::vector<std::vector<double>> probe_samples;
    int steps_accepted = 0;
    obs::RescueCounts rescues;
    FlopCounter flops;
    double wall_s = 0.0;
    /// Set when the rescue ladder was exhausted: the trial is quarantined.
    std::optional<std::string> failure;
};

/// Deterministic `mc.trial_fail` admission decision, evaluated once per
/// trial in trial order at any worker count.
bool trial_fail_injected() {
    if (!failpoints::enabled()) {
        return false;
    }
    static auto& fp = failpoints::site("mc.trial_fail");
    return fp.fire();
}

/// One realization: realise trial `k`'s noise as sample-and-hold
/// waveforms, run the deterministic transient through `cache`, and
/// sample the observed nodes on the grid.  Flops are tallied per trial.
Trial run_trial(const mna::MnaAssembler& assembler, const McOptions& options,
                const stochastic::NoisePathSet& noise, int k, bool inject_fail,
                NodeId node, const std::vector<double>& grid,
                const AnalysisObserver* observer, mna::SystemCache* cache) {
    const obs::Span trial_span("trial", "mc");
    const auto t0 = std::chrono::steady_clock::now();
    const FlopScope scope;
    Trial out;
    try {
        if (inject_fail) {
            throw AnalysisError("fail-point mc.trial_fail fired");
        }
        SwecTranOptions tran = options.tran;
        tran.noise.reserve(noise.num_sources());
        for (std::size_t s = 0; s < noise.num_sources(); ++s) {
            tran.noise.push_back(std::make_shared<StepNoiseWave>(
                noise.samples(k, s), noise.noise_dt()));
        }
        // Cancellation forwarded at the inner transient's step
        // granularity; progress/step callbacks stay at the trial scale.
        const AnalysisObserver inner = cancel_only(observer);
        const TranResult res = run_tran_swec(
            assembler, tran, observer != nullptr ? &inner : nullptr, cache);
        if (!res.aborted) {
            out.steps_accepted = res.steps_accepted;
            out.rescues = res.rescues;
            auto sample = [&](NodeId n) {
                const auto& wave =
                    res.node_waves[static_cast<std::size_t>(n - 1)];
                std::vector<double> samples(grid.size());
                for (std::size_t j = 0; j < grid.size(); ++j) {
                    samples[j] = wave.at(grid[j]);
                }
                return samples;
            };
            out.samples = sample(node);
            out.probe_samples.reserve(options.probe_nodes.size());
            for (const NodeId probe : options.probe_nodes) {
                out.probe_samples.push_back(sample(probe));
            }
        }
    } catch (const SimError& e) {
        // Rescue ladder exhausted: quarantine the trial (seed +
        // diagnostic replay the failure offline) — one pathological
        // realization must not abort the campaign.
        out.failure = e.what();
    }
    out.flops = scope.counter();
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
}

/// Snapshot a campaign after `next_trial` folded trials.
McCheckpoint make_checkpoint(std::uint64_t base_seed, int next_trial,
                             const McOptions& options,
                             const McResult& partial) {
    McCheckpoint cp;
    cp.base_seed = base_seed;
    cp.next_trial = next_trial;
    cp.runs = options.runs;
    cp.grid_points = options.grid_points;
    cp.primary = capture_ensemble(partial.stats);
    cp.probes.reserve(partial.probes.size());
    for (const McNodeStats& probe : partial.probes) {
        cp.probes.push_back(capture_ensemble(probe.stats));
    }
    cp.trial_steps = partial.trial_steps;
    cp.failed_trials = partial.failed_trials;
    cp.flops = partial.flops;
    cp.rescues = partial.rescues;
    return cp;
}

/// Validate a resume checkpoint against the campaign and restore its
/// accumulators, trial ledger, rescue counts and flop tally into `out`.
/// Returns the trial to continue from.
int restore_checkpoint(const McCheckpoint& checkpoint, const McOptions& options,
                       McResult& out) {
    if (checkpoint.runs != options.runs ||
        checkpoint.grid_points != options.grid_points) {
        throw AnalysisError(
            "mc resume: checkpoint describes a different campaign (runs " +
            std::to_string(checkpoint.runs) + " vs " +
            std::to_string(options.runs) + ", grid " +
            std::to_string(checkpoint.grid_points) + " vs " +
            std::to_string(options.grid_points) + ")");
    }
    if (checkpoint.probes.size() != out.probes.size()) {
        throw AnalysisError("mc resume: checkpoint has " +
                            std::to_string(checkpoint.probes.size()) +
                            " probes, request has " +
                            std::to_string(out.probes.size()));
    }
    if (checkpoint.next_trial < 0 || checkpoint.next_trial > checkpoint.runs) {
        throw AnalysisError("mc resume: bad next_trial " +
                            std::to_string(checkpoint.next_trial));
    }
    restore_ensemble(out.stats, checkpoint.primary);
    for (std::size_t k = 0; k < out.probes.size(); ++k) {
        restore_ensemble(out.probes[k].stats, checkpoint.probes[k]);
    }
    out.trial_steps = checkpoint.trial_steps;
    out.failed_trials = checkpoint.failed_trials;
    out.rescues = checkpoint.rescues;
    out.flops = checkpoint.flops;
    return checkpoint.next_trial;
}

} // namespace

McResult run_monte_carlo(const mna::MnaAssembler& assembler,
                         const McOptions& options_in, stochastic::Rng& rng,
                         NodeId node, const AnalysisObserver* observer,
                         mna::SystemCache* cache,
                         const runtime::ExecutionPolicy& policy) {
    const McOptions options = normalize_options(assembler, options_in, node);
    McResult out = empty_result(assembler, options);
    // One base seed drawn from the caller's generator; every trial's
    // paths then come from counter-derived streams, so any worker count
    // consumes identical noise per trial.  A resumed campaign reuses the
    // checkpoint's base seed instead of drawing.
    const std::uint64_t base = options.resume != nullptr
                                   ? options.resume->base_seed
                                   : rng.engine()();
    const stochastic::NoisePathSet noise =
        noise_paths(assembler, options, base);
    // Resume: restore the accumulators and the flop tally, and continue
    // where the checkpoint stopped.
    const int first = options.resume != nullptr
                          ? restore_checkpoint(*options.resume, options, out)
                          : 0;

    obs::Histogram* trial_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& th = obs::metrics().histogram(
            "mc.trial_s", obs::time_buckets());
        trial_hist = &th;
    }

    // More than one worker: every remaining trial is queued up front (the
    // fail-point decisions drawn here, in trial order) and runs on the
    // pool through its own fresh cache; the loop below waits for each in
    // trial order.  One worker: the loop runs each trial inline through
    // the caller's cache.
    const int workers = std::min(policy.resolved(), options.runs - first);
    std::atomic<bool> skip_rest{false};
    std::vector<std::future<Trial>> queued;
    std::optional<runtime::ThreadPool> pool;
    if (workers > 1) {
        pool.emplace(workers);
        queued.reserve(static_cast<std::size_t>(options.runs - first));
        for (int k = first; k < options.runs; ++k) {
            const bool inject = trial_fail_injected();
            queued.push_back(pool->submit([&, k, inject] {
                if (skip_rest.load() ||
                    (observer != nullptr && observer->cancelled())) {
                    return Trial{}; // skipped: left out of the prefix
                }
                // Built before the trial's flop tally starts, so the
                // trial bills what it would through a shared cache.
                std::optional<mna::SystemCache> fresh;
                if (cache != nullptr) {
                    fresh.emplace(assembler);
                }
                return run_trial(assembler, options, noise, k, inject, node,
                                 out.grid, observer,
                                 fresh ? &*fresh : nullptr);
            }));
        }
    }

    for (int k = first; k < options.runs; ++k) {
        if (observer != nullptr && observer->cancelled()) {
            out.aborted = true;
            break;
        }
        Trial trial = pool ? queued[static_cast<std::size_t>(k - first)].get()
                           : run_trial(assembler, options, noise, k,
                                       trial_fail_injected(), node, out.grid,
                                       observer, cache);
        if (!trial.failure && trial.samples.empty()) { // skipped/cancelled
            out.aborted = true;
            break;
        }
        if (trial_hist != nullptr) {
            trial_hist->observe(trial.wall_s);
        }
        if (trial.failure) {
            out.failed_trials.push_back(
                McFailedTrial{k, base, std::move(*trial.failure)});
        } else {
            out.stats.add_path(trial.samples);
            out.trial_steps.push_back(trial.steps_accepted);
            for (std::size_t p = 0; p < out.probes.size(); ++p) {
                out.probes[p].stats.add_path(trial.probe_samples[p]);
            }
            out.rescues += trial.rescues;
        }
        out.flops += trial.flops;
        if (observer != nullptr) {
            observer->trial(k + 1, options.runs);
            observer->progress(static_cast<double>(k + 1) / options.runs);
        }
        if (observer != nullptr && observer->on_checkpoint &&
            options.checkpoint_every > 0 &&
            (k + 1) % options.checkpoint_every == 0 && k + 1 < options.runs) {
            // The `mc.checkpoint_drop` fail point suppresses the emission —
            // a dropped checkpoint may only cost resume progress.
            bool dropped = false;
            if (failpoints::enabled()) {
                static auto& drop = failpoints::site("mc.checkpoint_drop");
                dropped = drop.fire();
            }
            if (!dropped) {
                observer->checkpoint(
                    make_checkpoint(base, k + 1, options, out));
            }
        }
    }
    // Queued trials behind an abort are skipped; the pool drains here.
    skip_rest = true;
    pool.reset();

    for (std::size_t j = 0; j < options.grid_points; ++j) {
        const auto& s = out.stats.at(j);
        out.mean.append(out.grid[j], s.mean());
        out.stddev.append(out.grid[j], s.stddev());
        for (McNodeStats& probe : out.probes) {
            const auto& p = probe.stats.at(j);
            probe.mean.append(out.grid[j], p.mean());
            probe.stddev.append(out.grid[j], p.stddev());
        }
    }
    return out;
}

} // namespace nanosim::engines
