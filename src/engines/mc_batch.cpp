#include "engines/mc_batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "engines/swec_stepper.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// One trial in flight: its stepper plus the round-local solve slot.
struct Lane {
    int trial = -1;
    std::unique_ptr<SwecStepper> stepper;
    std::chrono::steady_clock::time_point t0;
    bool failed = false; ///< rescue ladder exhausted — retire quarantined
    std::string diagnostic;
};

/// A retired trial awaiting prefix emission: either its samples or its
/// quarantine diagnostic.
struct Retired {
    McTrial trial;
    bool failed = false;
    std::string diagnostic;
};

[[nodiscard]] bool all_finite(const linalg::Vector& x) noexcept {
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (!std::isfinite(x[i])) {
            return false;
        }
    }
    return true;
}

} // namespace

McResult run_monte_carlo_batched(const mna::MnaAssembler& assembler,
                                 const McOptions& options_in,
                                 stochastic::Rng& rng, NodeId node, int batch,
                                 const AnalysisObserver* observer,
                                 mna::SystemCache* cache,
                                 const runtime::ExecutionPolicy& policy) {
    const FlopScope scope;
    const McOptions options = normalize_mc_options(assembler, options_in, node);
    const int width = std::clamp(batch, 1, options.runs);

    // Same base-seed derivation and shared path set as the serial driver:
    // trial k's noise is identical no matter which driver runs it.  A
    // resumed campaign reuses the checkpoint's base seed instead.
    const std::uint64_t base = options.resume != nullptr
                                   ? options.resume->base_seed
                                   : rng.engine()();
    const stochastic::NoisePathSet noise =
        mc_noise_paths(assembler, options, base);

    McResult out{.grid = mc_grid(options),
                 .mean = analysis::Waveform("mean"),
                 .stddev = analysis::Waveform("stddev"),
                 .stats = stochastic::EnsembleStats(options.grid_points),
                 .probes = {},
                 .trial_steps = {},
                 .aborted = false,
                 .flops = {}};
    for (const NodeId probe : options.probe_nodes) {
        const std::string name = assembler.circuit().node_name(probe);
        out.probes.push_back(McNodeStats{
            .node = probe,
            .name = name,
            .mean = analysis::Waveform("mean(v(" + name + "))"),
            .stddev = analysis::Waveform("stddev(v(" + name + "))"),
            .stats = stochastic::EnsembleStats(options.grid_points)});
    }

    // The lanes need one shared solver cache (it is what the plane
    // capture snapshots).  Without a caller-owned one, own one here —
    // the serial-equivalent of run_monte_carlo with a shared cache.
    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }
    // Lane-parallel refactors: the one place worker threads pay on the
    // factor path.  Never spawned when there is a single lane or the
    // dense path serves every solve.
    std::optional<runtime::ThreadPool> lane_pool;
    if (width > 1 && policy.resolved() > 1 && !cache->dense_path()) {
        lane_pool.emplace(policy.resolved());
    }

    obs::Histogram* trial_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& th = obs::metrics().histogram(
            "mc.trial_s", obs::time_buckets());
        trial_hist = &th;
    }

    // Sample one finished transient on the statistics grid — the exact
    // epilogue of mc_realization.
    auto finish = [&](TranResult res) {
        McTrial t;
        t.steps_accepted = res.steps_accepted;
        t.rescues = res.rescues;
        auto sample = [&](NodeId n) {
            const auto& wave = res.node_waves[static_cast<std::size_t>(n - 1)];
            std::vector<double> samples(out.grid.size());
            for (std::size_t j = 0; j < out.grid.size(); ++j) {
                samples[j] = wave.at(out.grid[j]);
            }
            return samples;
        };
        t.samples = sample(node);
        t.probe_samples.reserve(options.probe_nodes.size());
        for (const NodeId probe : options.probe_nodes) {
            t.probe_samples.push_back(sample(probe));
        }
        return t;
    };

    // Cancellation is forwarded to the lane steppers' observer slots at
    // the serial driver's step granularity (trial/progress stay here).
    const AnalysisObserver inner = cancel_only(observer);
    const AnalysisObserver* inner_ptr = observer != nullptr ? &inner : nullptr;

    // Resume: restore the accumulators and start admission where the
    // checkpoint stopped, seeding the flop tally from it.
    FlopCounter flop_base;
    int first = 0;
    if (options.resume != nullptr) {
        first = restore_mc_checkpoint(*options.resume, options, out);
        flop_base = options.resume->flops;
    }

    std::vector<Lane> lanes;
    lanes.reserve(static_cast<std::size_t>(width));
    int next_trial = first; ///< next trial to admit to the frontier
    int next_emit = first;  ///< next trial to fold into the statistics
    int admit_limit = options.runs; ///< frontier cap (checkpoint chunking)
    std::map<int, Retired> finished; ///< retired, awaiting prefix emission
    bool cancelled = false;

    // Admit trials in order: trial 0 enters first, so the cold cache's
    // symbolic analysis and full factor see the same first operands as
    // under the serial driver.  A trial the `mc.trial_fail` site rejects
    // (evaluated here, in trial order — same decisions as the serial
    // driver) or whose initial-condition solve throws is quarantined
    // without ever occupying a lane.
    auto admit = [&]() {
        while (!cancelled && next_trial < admit_limit &&
               lanes.size() < static_cast<std::size_t>(width)) {
            Lane lane;
            lane.trial = next_trial++;
            lane.t0 = std::chrono::steady_clock::now();
            try {
                if (mc_trial_fail_injected()) {
                    throw AnalysisError("fail-point mc.trial_fail fired");
                }
                SwecTranOptions tran = options.tran;
                tran.noise = mc_noise_waves(noise, lane.trial);
                lane.stepper = std::make_unique<SwecStepper>(
                    assembler, resolve_swec_tran_options(tran), *cache,
                    /*dc_through_cache=*/true);
            } catch (const SimError& e) {
                finished.emplace(lane.trial,
                                 Retired{{}, true, e.what()});
                continue;
            }
            lanes.push_back(std::move(lane));
        }
    };

    std::vector<mna::SystemCache::EvalLane> eval_reqs;
    std::vector<mna::SystemCache::SolveLane> round;
    std::vector<std::size_t> round_lane; // lane index per round slot

    // A lane whose batched solve came back unusable re-stamps its own
    // system and walks the stepper's rescue ladder; exhaustion
    // quarantines just that lane.
    auto accept_or_rescue = [&](Lane& lane, linalg::Vector x) {
        if (all_finite(x)) {
            lane.stepper->accept(std::move(x), inner_ptr);
            return;
        }
        try {
            lane.stepper->stamp();
            lane.stepper->accept(lane.stepper->solve_rescued(), inner_ptr);
        } catch (const SimError& e) {
            lane.failed = true;
            lane.diagnostic = e.what();
        }
    };

    while (true) {
        // Checkpoint chunking: cap admission at the next checkpoint
        // boundary so the frontier drains there — with no trial in
        // flight the flop tally is exactly the emitted prefix's, and the
        // checkpoint matches the serial driver's field for field.
        if (options.checkpoint_every > 0) {
            const int every = options.checkpoint_every;
            admit_limit = std::min(options.runs,
                                   (next_emit / every + 1) * every);
        }
        admit();
        if (lanes.empty() && next_emit >= options.runs) {
            break;
        }
        if (observer != nullptr && observer->cancelled()) {
            // Active lanes are partial trials — discarding them is what
            // the serial driver does with its one in-flight transient.
            cancelled = true;
            out.aborted = true;
            break;
        }
        if (!lanes.empty()) {
            const obs::Span round_span("mc_round", "mc");

            // (a) Chord evaluation, batched across the frontier.
            eval_reqs.clear();
            for (Lane& lane : lanes) {
                eval_reqs.push_back(lane.stepper->eval_request());
            }
            cache->eval_chords_batch(eval_reqs);
            for (Lane& lane : lanes) {
                lane.stepper->prepare();
            }

            // (b) Stamp each lane and snapshot its value plane.  Lanes
            // the cache cannot snapshot (pattern overflow) solve inline
            // — the stamped system is about to be overwritten by the
            // next lane — through the stepper's rescue ladder.
            round.clear();
            round_lane.clear();
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                Lane& lane = lanes[i];
                SwecStepper& stepper = *lane.stepper;
                stepper.stamp();
                mna::SystemCache::SolveLane slot;
                if (!cache->capture_plane(slot.values)) {
                    try {
                        stepper.accept(stepper.solve_rescued(), inner_ptr);
                    } catch (const SimError& e) {
                        lane.failed = true;
                        lane.diagnostic = e.what();
                    }
                    continue;
                }
                slot.rhs = stepper.rhs();
                round.push_back(std::move(slot));
                round_lane.push_back(i);
            }

            // (c) One batched refactor dispatch + grouped multi-RHS
            // solves.  A singular (or injected-failure) plane fails the
            // whole dispatch, so replay the round lane by lane through
            // the rescue ladder — only genuinely unsolvable lanes
            // quarantine.
            bool batch_failed = false;
            try {
                cache->solve_batch(round,
                                   lane_pool ? &*lane_pool : nullptr);
            } catch (const SimError&) {
                batch_failed = true;
            }
            if (batch_failed) {
                for (const std::size_t i : round_lane) {
                    Lane& lane = lanes[i];
                    try {
                        lane.stepper->stamp();
                        lane.stepper->accept(lane.stepper->solve_rescued(),
                                             inner_ptr);
                    } catch (const SimError& e) {
                        lane.failed = true;
                        lane.diagnostic = e.what();
                    }
                }
            } else {
                for (std::size_t k = 0; k < round.size(); ++k) {
                    accept_or_rescue(lanes[round_lane[k]],
                                     std::move(round[k].x));
                }
            }
        }

        // Retire finished (and quarantined) lanes into the emission
        // buffer.
        for (std::size_t i = 0; i < lanes.size();) {
            Lane& lane = lanes[i];
            if (lane.failed) {
                finished.emplace(lane.trial,
                                 Retired{{}, true, std::move(lane.diagnostic)});
                lanes.erase(lanes.begin() + static_cast<std::ptrdiff_t>(i));
                continue;
            }
            if (!lane.stepper->done()) {
                ++i;
                continue;
            }
            if (trial_hist != nullptr) {
                trial_hist->observe(std::chrono::duration<double>(
                                        std::chrono::steady_clock::now() -
                                        lane.t0)
                                        .count());
            }
            finished.emplace(lane.trial,
                             Retired{finish(lane.stepper->take_result()),
                                     false,
                                     {}});
            lanes.erase(lanes.begin() + static_cast<std::ptrdiff_t>(i));
        }

        // Emit the completed prefix in strict trial order, re-checking
        // the cancel flag before each trial exactly like the serial
        // loop's per-trial gate — a cancel keeps the same trial prefix.
        while (true) {
            auto it = finished.find(next_emit);
            if (it == finished.end()) {
                break;
            }
            if (observer != nullptr && observer->cancelled()) {
                cancelled = true;
                out.aborted = true;
                break;
            }
            Retired& r = it->second;
            if (r.failed) {
                out.failed_trials.push_back(
                    McFailedTrial{next_emit, base, std::move(r.diagnostic)});
            } else {
                out.stats.add_path(r.trial.samples);
                out.trial_steps.push_back(r.trial.steps_accepted);
                for (std::size_t k = 0; k < out.probes.size(); ++k) {
                    out.probes[k].stats.add_path(r.trial.probe_samples[k]);
                }
                out.rescues += r.trial.rescues;
            }
            finished.erase(it);
            ++next_emit;
            if (observer != nullptr) {
                observer->trial(next_emit, options.runs);
                observer->progress(static_cast<double>(next_emit) /
                                   options.runs);
            }
            if (options.checkpoint_every > 0 &&
                next_emit % options.checkpoint_every == 0 &&
                next_emit < options.runs && lanes.empty()) {
                FlopCounter so_far = flop_base;
                so_far += scope.counter();
                emit_mc_checkpoint(observer, base, next_emit, options, out,
                                   so_far);
            }
        }
        if (cancelled) {
            break;
        }
    }

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
    out.flops = flop_base;
    out.flops += scope.counter();
    return out;
}

} // namespace nanosim::engines
