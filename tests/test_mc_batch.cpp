// Tests for the trial-batched Monte-Carlo driver (engines/mc_batch.hpp).
//
// The contract under test is *bit-identity*: at any batch width and any
// lane worker count, the batched driver must reproduce the serial
// driver's grids, per-trial adaptive step sequences, ensemble waveforms,
// probe blocks, flop totals and solver-cache accounting exactly —
// batching changes when shared work executes, never its operands.
// Workloads cover the dense replay path (FET-RTD inverter), the sparse
// lane-batched path (32x32 RTD mesh), the shared-factor multi-RHS path
// (linear RC mesh with fixed steps), mid-batch cancellation, and the
// serial/parallel seed-contract unification.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/mc_batch.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "engines/parallel.hpp"
#include "mna/system_cache.hpp"
#include "stochastic/rng.hpp"

namespace nanosim {
namespace {

/// One Monte-Carlo run through a fresh solver cache.  `width` selects
/// the driver: 0 = serial, >= 1 = batched at that width with `threads`
/// lane-refactor workers.  `warm_op`
/// reproduces the bench workload shape (explicit DC warm start, fixed
/// dt_init) so per-trial transients skip the pseudo-transient march.
struct RunOut {
    engines::McResult res;
    mna::SystemCache::Stats stats;
};

RunOut run_mc(const mna::MnaAssembler& assembler, engines::McOptions mc,
              NodeId node, int width, int threads, bool warm_op,
              const engines::AnalysisObserver* observer = nullptr) {
    mna::SystemCache cache(assembler);
    if (warm_op) {
        const engines::DcResult op =
            engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache);
        mc.tran.start_from_dc = false;
        mc.tran.initial = op.x;
    }
    stochastic::Rng rng(1);
    engines::McResult res =
        width > 0 ? engines::run_monte_carlo_batched(
                        assembler, mc, rng, node, width, observer, &cache,
                        runtime::ExecutionPolicy{threads})
                  : engines::run_monte_carlo(assembler, mc, rng, node, observer,
                                             &cache);
    return {std::move(res), cache.stats()};
}

void expect_same_waveform(const analysis::Waveform& a,
                          const analysis::Waveform& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.time_at(i), b.time_at(i));
        EXPECT_EQ(a.value_at(i), b.value_at(i)); // exact, not approximate
    }
}

/// Bitwise equality of two McResults: grids, waveforms, trial step
/// fingerprints, probe blocks, abort flag and flop totals.
void expect_identical(const engines::McResult& a, const engines::McResult& b) {
    ASSERT_EQ(a.grid.size(), b.grid.size());
    for (std::size_t i = 0; i < a.grid.size(); ++i) {
        EXPECT_EQ(a.grid[i], b.grid[i]);
    }
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.trial_steps, b.trial_steps);
    EXPECT_EQ(a.stats.paths(), b.stats.paths());
    expect_same_waveform(a.mean, b.mean);
    expect_same_waveform(a.stddev, b.stddev);
    ASSERT_EQ(a.probes.size(), b.probes.size());
    for (std::size_t p = 0; p < a.probes.size(); ++p) {
        EXPECT_EQ(a.probes[p].node, b.probes[p].node);
        EXPECT_EQ(a.probes[p].name, b.probes[p].name);
        EXPECT_EQ(a.probes[p].stats.paths(), b.probes[p].stats.paths());
        expect_same_waveform(a.probes[p].mean, b.probes[p].mean);
        expect_same_waveform(a.probes[p].stddev, b.probes[p].stddev);
    }
    EXPECT_EQ(a.flops.add, b.flops.add);
    EXPECT_EQ(a.flops.mul, b.flops.mul);
    EXPECT_EQ(a.flops.div, b.flops.div);
    EXPECT_EQ(a.flops.special, b.flops.special);
    EXPECT_EQ(a.flops.lu_factor, b.flops.lu_factor);
    EXPECT_EQ(a.flops.lu_solve, b.flops.lu_solve);
    EXPECT_EQ(a.flops.device_eval, b.flops.device_eval);
}

/// The batched driver's as-if-serial cache accounting: the frontier must
/// bill exactly the serial driver's factor/solve mix.
void expect_same_accounting(const mna::SystemCache::Stats& serial,
                            const mna::SystemCache::Stats& batched) {
    EXPECT_EQ(serial.steps, batched.steps);
    EXPECT_EQ(serial.full_factors, batched.full_factors);
    EXPECT_EQ(serial.fast_refactors, batched.fast_refactors);
    EXPECT_EQ(serial.dense_solves, batched.dense_solves);
    EXPECT_EQ(serial.pivot_fallbacks, batched.pivot_fallbacks);
    EXPECT_EQ(serial.pattern_rebuilds, batched.pattern_rebuilds);
}

/// FET-RTD inverter with a white-noise current on "out" — small system,
/// dense solver path, so every batched round takes the per-lane replay
/// fallback (which must still be bit-identical).
Circuit noisy_inverter() {
    Circuit ckt = refckt::fet_rtd_inverter();
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("out"),
                                1e-9);
    return ckt;
}

/// The bench workload: rows x cols RC mesh with an RTD at every node and
/// a white-noise current injected at the centre — sparse flat-LU path.
Circuit noisy_mesh(int n, int rtd_stride) {
    refckt::MeshSpec spec;
    spec.rows = n;
    spec.cols = n;
    spec.rtd_stride = rtd_stride;
    Circuit ckt = refckt::rc_mesh(spec);
    const std::string centre =
        "n" + std::to_string(n / 2) + "_" + std::to_string(n / 2);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node(centre),
                                1e-9);
    return ckt;
}

TEST(McBatch, InverterBitIdenticalAcrossWidths) {
    const Circuit ckt = noisy_inverter();
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    engines::McOptions mc;
    mc.runs = 5;
    mc.t_stop = 10e-9;
    mc.noise_dt = 5e-10;
    mc.grid_points = 11;
    mc.probe_nodes = {out, ckt.find_node("in")};

    const RunOut serial = run_mc(assembler, mc, out, 0, 1, false);
    ASSERT_EQ(serial.res.stats.paths(), 5u);
    ASSERT_EQ(serial.res.trial_steps.size(), 5u);
    // The primary node repeated as a probe must reproduce the main block.
    expect_same_waveform(serial.res.mean, serial.res.probes[0].mean);
    expect_same_waveform(serial.res.stddev, serial.res.probes[0].stddev);

    for (const int width : {1, 2, 4, 5, 16}) { // 16 > runs: clamped
        const RunOut batched = run_mc(assembler, mc, out, width, 1, false);
        expect_identical(serial.res, batched.res);
        expect_same_accounting(serial.stats, batched.stats);
        // Dense path: solve_batch replays lane by lane, never batches.
        EXPECT_EQ(batched.stats.batched_solves, 0u);
        EXPECT_GT(batched.stats.dense_solves, 0u);
    }
}

TEST(McBatch, MeshBitIdenticalAcrossWidthsAndThreads) {
    const Circuit ckt = noisy_mesh(32, 1);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n16_16");
    engines::McOptions mc;
    mc.runs = 4;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.dt_init = mc.noise_dt;

    const RunOut serial = run_mc(assembler, mc, node, 0, 1, true);
    ASSERT_EQ(serial.res.stats.paths(), 4u);
    ASSERT_GT(serial.stats.fast_refactors, 0u);

    for (const int threads : {1, 4}) {
        for (const int width : {1, 2, 4}) {
            const RunOut batched =
                run_mc(assembler, mc, node, width, threads, true);
            expect_identical(serial.res, batched.res);
            expect_same_accounting(serial.stats, batched.stats);
            if (width > 1) {
                EXPECT_GT(batched.stats.batched_solves, 0u);
            }
        }
    }
}

TEST(McBatch, LinearCircuitSharesFactorsAcrossLanes) {
    // Linear mesh (no RTDs), fixed step: every lane's value plane is
    // bit-identical each round, so one factor must serve all lanes via
    // the multi-RHS substitution.
    const Circuit ckt = noisy_mesh(12, 0);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n6_6");
    engines::McOptions mc;
    mc.runs = 4;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 21;
    mc.tran.adaptive = false;
    mc.tran.dt_init = mc.noise_dt;

    const RunOut serial = run_mc(assembler, mc, node, 0, 1, true);
    const RunOut batched = run_mc(assembler, mc, node, 4, 1, true);
    expect_identical(serial.res, batched.res);
    expect_same_accounting(serial.stats, batched.stats);
    EXPECT_GT(batched.stats.batched_solves, 0u);
    EXPECT_GT(batched.stats.shared_factor_solves, 0u);
    EXPECT_EQ(serial.stats.shared_factor_solves, 0u);
}

TEST(McBatch, MidBatchCancellationKeepsSerialTrialPrefix) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 10;
    mc.grid_points = 11;

    const auto cancelled_after = [&](int width, int keep) {
        int trials = 0;
        engines::AnalysisObserver obs;
        obs.on_trial = [&trials](int, int) { ++trials; };
        obs.cancel = [&trials, keep] { return trials >= keep; };
        return run_mc(assembler, mc, 1, width, 1, false, &obs);
    };

    const RunOut serial = cancelled_after(0, 2);
    ASSERT_TRUE(serial.res.aborted);
    ASSERT_EQ(serial.res.stats.at(0).count(), 2u);

    for (const int width : {2, 4, 10}) {
        const RunOut batched = cancelled_after(width, 2);
        EXPECT_TRUE(batched.res.aborted);
        EXPECT_EQ(batched.res.stats.at(0).count(), 2u);
        // The partial batch discards exactly the trials the serial
        // driver never ran: statistics cover the same 2-trial prefix.
        ASSERT_EQ(batched.res.trial_steps.size(), 2u);
        EXPECT_EQ(serial.res.trial_steps, batched.res.trial_steps);
        expect_same_waveform(serial.res.mean, batched.res.mean);
        expect_same_waveform(serial.res.stddev, batched.res.stddev);
    }
}

TEST(McBatch, SerialAndParallelDriversShareTheNoiseContract) {
    // PR 8 unified all drivers on one NoisePathSet keyed by
    // (trial, source): serial and parallel now agree bit-for-bit.
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 6;
    mc.grid_points = 11;

    stochastic::Rng rng(7);
    const engines::McResult serial =
        engines::run_monte_carlo(assembler, mc, rng, 1);
    runtime::ExecutionPolicy policy;
    policy.threads = 2;
    const engines::McResult parallel =
        engines::run_monte_carlo_parallel(assembler, mc, 7, 1, policy);

    EXPECT_EQ(serial.trial_steps, parallel.trial_steps);
    EXPECT_EQ(serial.stats.paths(), parallel.stats.paths());
    expect_same_waveform(serial.mean, parallel.mean);
    expect_same_waveform(serial.stddev, parallel.stddev);
}

} // namespace
} // namespace nanosim
