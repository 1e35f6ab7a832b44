// Tests for the Monte-Carlo driver (engines/monte_carlo.hpp).
//
// The contract under test is *bit-identity across worker counts*: one
// worker runs the trials inline through the caller's solver cache, two
// or four run them on a pool with a fresh cache per trial, and all must
// produce the same grids, per-trial adaptive step sequences, ensemble
// waveforms, probe blocks and flop totals.  Workloads cover the dense
// solver path (FET-RTD inverter), the sparse path (32x32 RTD mesh),
// mid-run cancellation and the shared noise contract.  The inverter and mesh
// campaigns are also pinned to golden hashes (tests/mc_golden.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "gate_workloads.hpp"
#include "mc_golden.hpp"
#include "mna/system_cache.hpp"
#include "stochastic/rng.hpp"

namespace nanosim {
namespace {

/// One Monte-Carlo run through a fresh solver cache on `workers`
/// workers.  `warm_op` reproduces the bench workload shape (explicit DC
/// warm start, fixed dt_init) so per-trial transients skip the
/// pseudo-transient march.
struct RunOut {
    engines::McResult res;
    mna::SystemCache::Stats stats;
};

RunOut run_mc(const mna::MnaAssembler& assembler, engines::McOptions mc,
              NodeId node, int workers, bool warm_op,
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
        engines::run_monte_carlo(assembler, mc, rng, node, observer, &cache,
                                 runtime::ExecutionPolicy{workers});
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

using gate_workloads::noisy_inverter;
using gate_workloads::noisy_mesh;

TEST(MonteCarlo, InverterMatchesGoldenAtOneTwoAndFourWorkers) {
    const Circuit ckt = noisy_inverter();
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    engines::McOptions mc;
    mc.runs = 5;
    mc.t_stop = 10e-9;
    mc.noise_dt = 5e-10;
    mc.grid_points = 11;
    mc.probe_nodes = {out, ckt.find_node("in")};

    const RunOut serial = run_mc(assembler, mc, out, 1, false);
    ASSERT_EQ(serial.res.stats.paths(), 5u);
    ASSERT_EQ(serial.res.trial_steps.size(), 5u);
    EXPECT_GT(serial.stats.dense_solves, 0u); // ran through the caller's cache
    // The primary node repeated as a probe must reproduce the main block.
    expect_same_waveform(serial.res.mean, serial.res.probes[0].mean);
    expect_same_waveform(serial.res.stddev, serial.res.probes[0].stddev);
    mc_golden::expect_golden(serial.res, mc_golden::k_inverter,
                             "inverter, 1 worker");

    for (const int workers : {2, 4}) {
        const RunOut pooled = run_mc(assembler, mc, out, workers, false);
        expect_identical(serial.res, pooled.res);
        EXPECT_EQ(pooled.stats.steps, 0u); // fresh cache per trial instead
        mc_golden::expect_golden(pooled.res, mc_golden::k_inverter,
                                 "inverter, 2/4 workers");
    }
}

TEST(MonteCarlo, MeshMatchesGoldenAtOneTwoAndFourWorkers) {
    const Circuit ckt = noisy_mesh(32, 1);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n16_16");
    engines::McOptions mc;
    mc.runs = 4;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.dt_init = mc.noise_dt;

    const RunOut serial = run_mc(assembler, mc, node, 1, true);
    ASSERT_EQ(serial.res.stats.paths(), 4u);
    ASSERT_GT(serial.stats.fast_refactors, 0u);
    mc_golden::expect_golden(serial.res, mc_golden::k_rtd_mesh,
                             "rtd mesh, 1 worker");

    for (const int workers : {2, 4}) {
        const RunOut pooled = run_mc(assembler, mc, node, workers, true);
        expect_identical(serial.res, pooled.res);
        mc_golden::expect_golden(pooled.res, mc_golden::k_rtd_mesh,
                                 "rtd mesh, 2/4 workers");
    }
}

TEST(MonteCarlo, MidRunCancellationKeepsExactTrialPrefix) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 10;
    mc.grid_points = 11;

    const auto cancelled_after = [&](int workers, int keep) {
        // Atomic: at four workers the pool polls the cancel predicate.
        std::atomic<int> trials{0};
        std::vector<int> seen;
        engines::AnalysisObserver obs;
        obs.on_trial = [&](int done, int) {
            ++trials;
            seen.push_back(done);
        };
        obs.cancel = [&trials, keep] { return trials.load() >= keep; };
        RunOut out = run_mc(assembler, mc, 1, workers, false, &obs);
        // Trial callbacks arrive in trial order at any worker count.
        EXPECT_EQ(seen, (std::vector<int>{1, 2}));
        return out;
    };

    const RunOut serial = cancelled_after(1, 2);
    ASSERT_TRUE(serial.res.aborted);
    ASSERT_EQ(serial.res.stats.at(0).count(), 2u);
    ASSERT_EQ(serial.res.trial_steps.size(), 2u);

    const RunOut pooled = cancelled_after(4, 2);
    // The pool may have finished later trials; the fold keeps exactly
    // the prefix the serial loop ran.
    expect_identical(serial.res, pooled.res);
}

TEST(MonteCarlo, NoiseContractHoldsWithoutACallerCache) {
    // Without a caller cache every transient builds its own, at any
    // worker count: both draw trial k's noise from one NoisePathSet
    // keyed by (trial, source) and agree bit for bit, flops included.
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 6;
    mc.grid_points = 11;

    stochastic::Rng rng1(7);
    const engines::McResult serial =
        engines::run_monte_carlo(assembler, mc, rng1, 1);
    stochastic::Rng rng4(7);
    const engines::McResult pooled = engines::run_monte_carlo(
        assembler, mc, rng4, 1, nullptr, nullptr, runtime::ExecutionPolicy{4});
    expect_identical(serial, pooled);
}

} // namespace
} // namespace nanosim
