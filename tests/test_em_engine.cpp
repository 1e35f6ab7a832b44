// Tests for the Euler-Maruyama engine (paper Sec. 4) and its ensemble
// driver (golden hashes at 1/2/4 workers, exact path prefix on cancel,
// pool size, flops billed to the caller), the exact OU reference (the
// "analytic solution" of Fig. 10) and the Monte-Carlo baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <thread>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "em_golden.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/ou_exact.hpp"
#include "linalg/expm.hpp"
#include "mna/mna.hpp"
#include "obs/trace.hpp"
#include "runtime/execution_policy.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim {
namespace {

using engines::EmEngine;
using engines::EmOptions;
using engines::EmScheme;

// The noisy RC bed: R=1k, C=1p -> tau = 1 ns; i_dc = 1 mA -> mean 1 V;
// sigma chosen for a visible but small voltage noise.
constexpr double k_r = 1e3;
constexpr double k_c = 1e-12;
constexpr double k_idc = 1e-3;
constexpr double k_sigma = 5e-9;
constexpr double k_tau = k_r * k_c;

EmOptions em_opts(double t_stop = 5e-9, double dt = 5e-12,
                  EmScheme scheme = EmScheme::explicit_em) {
    EmOptions o;
    o.t_stop = t_stop;
    o.dt = dt;
    o.scheme = scheme;
    return o;
}

TEST(EmEngine, RejectsCircuitsWithoutNoise) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
}

TEST(EmEngine, ExplicitRequiresInvertibleC) {
    // A voltage source adds a branch unknown -> C singular -> explicit
    // scheme must refuse, implicit must accept.
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V1", a, k_ground, 1.0);
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    ckt.add<NoiseCurrentSource>("N1", k_ground, a, 1e-9);
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
    EXPECT_NO_THROW(
        EmEngine(assembler, em_opts(5e-9, 5e-12, EmScheme::implicit_be)));
}

TEST(EmEngine, ExplicitRequiresCapacitanceOnEveryNode) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<ISource>("I1", k_ground, a, 1e-3);
    ckt.add<Resistor>("R1", a, k_ground, 1e3); // no capacitor!
    ckt.add<NoiseCurrentSource>("N1", k_ground, a, 1e-9);
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
}

TEST(EmEngine, ZeroNoiseReducesToDeterministicRc) {
    // sigma = 0: the EM path must follow the deterministic charging
    // curve v(t) = I R (1 - e^{-t/tau}).
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 0.0);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler, em_opts(5e-9, 1e-12));
    stochastic::Rng rng(11);
    const auto path = engine.run_path(rng);
    const auto& w = path.node_waves[0];
    for (const double t : {1e-9, 2e-9, 4e-9}) {
        const double expected = 1.0 * (1.0 - std::exp(-t / k_tau));
        EXPECT_NEAR(w.at(t), expected, 5e-3) << "t=" << t;
    }
}

TEST(EmEngine, EnsembleMeanAndVarianceMatchOuTheory) {
    // Stationary OU: mean = I R, var = sigma^2 R / (2 C)... in circuit
    // form: dV = (-V/tau + I/C) dt + (sigma/C) dW, stationary variance
    // = (sigma/C)^2 * tau / 2.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler, em_opts(8e-9, 4e-12));
    const auto ens = engine.run_ensemble(400, 12, ckt.find_node("n1"));

    const double mean_inf = k_idc * k_r; // 1 V
    const double var_inf =
        (k_sigma / k_c) * (k_sigma / k_c) * k_tau / 2.0;
    const double sd_inf = std::sqrt(var_inf);

    // At t = 8 ns (8 tau) the process is essentially stationary.
    const std::size_t last = ens.grid.size() - 1;
    EXPECT_NEAR(ens.stats.at(last).mean(), mean_inf, 4.0 * sd_inf / 20.0);
    EXPECT_NEAR(ens.stats.at(last).stddev(), sd_inf, 0.15 * sd_inf);
}

TEST(EmEngine, ImplicitAgreesWithExplicitAtFineStep) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    stochastic::Rng rng(13);
    const stochastic::WienerPath path(rng, 4e-9, 4000);

    const EmEngine exp_engine(assembler, em_opts(4e-9, 1e-12));
    const EmEngine imp_engine(
        assembler, em_opts(4e-9, 1e-12, EmScheme::implicit_be));
    const auto a = exp_engine.run_path(std::span(&path, 1));
    const auto b = imp_engine.run_path(std::span(&path, 1));
    EXPECT_LT(analysis::measure::max_abs_error(a.node_waves[0],
                                               b.node_waves[0]),
              5e-3);
}

TEST(EmEngine, ExplicitUnstableBeyondStabilityLimit) {
    // The ablation fact: explicit EM requires dt < 2 tau; implicit BE
    // does not.  At dt = 2.5 tau the explicit path blows up.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 0.0);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine exp_engine(assembler, em_opts(50e-9, 2.5e-9));
    const EmEngine imp_engine(
        assembler, em_opts(50e-9, 2.5e-9, EmScheme::implicit_be));
    stochastic::Rng rng(14);
    const auto unstable = exp_engine.run_path(rng);
    stochastic::Rng rng2(14);
    const auto stable = imp_engine.run_path(rng2);
    EXPECT_GT(std::abs(unstable.node_waves[0].value().back()), 10.0);
    EXPECT_LT(std::abs(stable.node_waves[0].value().back()), 2.0);
}

TEST(EmEngine, StrongConvergenceOrderHalf) {
    // Higham-style strong convergence: error vs a fine-grid reference on
    // the SAME Brownian path scales ~ sqrt(dt).
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 20e-9);
    const mna::MnaAssembler assembler(ckt);
    stochastic::Rng rng(15);

    const std::size_t fine_steps = 4096;
    const double t_stop = 4e-9;
    double err_coarse = 0.0;
    double err_mid = 0.0;
    const int reps = 40;
    for (int rep = 0; rep < reps; ++rep) {
        const stochastic::WienerPath fine(rng, t_stop, fine_steps);
        const stochastic::WienerPath mid = fine.coarsened(8);
        const stochastic::WienerPath coarse = fine.coarsened(64);

        const EmEngine ref(assembler, em_opts(t_stop, t_stop / fine_steps));
        const EmEngine em_mid(
            assembler, em_opts(t_stop, t_stop / (fine_steps / 8)));
        const EmEngine em_coarse(
            assembler, em_opts(t_stop, t_stop / (fine_steps / 64)));

        const double vf = ref.run_path(std::span(&fine, 1))
                              .node_waves[0]
                              .value()
                              .back();
        const double vm = em_mid.run_path(std::span(&mid, 1))
                              .node_waves[0]
                              .value()
                              .back();
        const double vc = em_coarse.run_path(std::span(&coarse, 1))
                              .node_waves[0]
                              .value()
                              .back();
        err_mid += std::abs(vm - vf);
        err_coarse += std::abs(vc - vf);
    }
    err_mid /= reps;
    err_coarse /= reps;
    // dt ratio 8 -> error ratio ~ sqrt(8) ~ 2.8 for strong order 1/2.
    // (For additive noise EM is strong order 1, giving ratio ~8; accept
    // anything clearly separating from order 0.)
    EXPECT_GT(err_coarse / err_mid, 2.0)
        << "coarse=" << err_coarse << " mid=" << err_mid;
}

// ---- the ensemble driver -----------------------------------------------

TEST(EmEnsemble, MatchesGoldenAtOneTwoAndFourWorkers) {
    const Circuit rc = refckt::noisy_rc();
    const Circuit rtd = em_golden::rtd_loaded_rc();
    const mna::MnaAssembler rc_asm(rc);
    const mna::MnaAssembler rtd_asm(rtd);
    const EmEngine rc_explicit(
        rc_asm, em_golden::rc_options(EmScheme::explicit_em));
    const EmEngine rc_implicit(
        rc_asm, em_golden::rc_options(EmScheme::implicit_be));
    const EmEngine rtd_swec(rtd_asm, em_golden::rtd_options());
    for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE(workers);
        const runtime::ExecutionPolicy policy{workers};
        const auto run = [&](const EmEngine& engine, const Circuit& ckt) {
            return engine.run_ensemble(em_golden::k_paths, em_golden::k_seed,
                                       ckt.find_node("n1"), nullptr, policy);
        };
        em_golden::expect_golden(run(rc_explicit, rc),
                                 em_golden::k_rc_explicit, "k_rc_explicit");
        em_golden::expect_golden(run(rc_implicit, rc),
                                 em_golden::k_rc_implicit, "k_rc_implicit");
        em_golden::expect_golden(run(rtd_swec, rtd), em_golden::k_rtd_swec,
                                 "k_rtd_swec");
    }
}

TEST(EnsembleFlops, CallerScopeReadsResultFlopsAtOneAndFourWorkers) {
    // Pooled paths and trials bill their flop tallies to the calling
    // thread, exactly once: a caller-side FlopScope around an EM
    // ensemble or a Monte-Carlo campaign reads the result's flops at any
    // worker count.
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    const NodeId n1 = ckt.find_node("n1");
    const EmEngine engine(assembler, em_opts());
    engines::McOptions mc;
    mc.runs = 4;
    mc.t_stop = 1e-9;
    mc.grid_points = 11;
    for (const int workers : {1, 4}) {
        SCOPED_TRACE(workers);
        const runtime::ExecutionPolicy policy{workers};
        {
            const FlopScope caller;
            const auto em = engine.run_ensemble(8, 7, n1, nullptr, policy);
            EXPECT_GT(em.flops.total(), 0u);
            EXPECT_EQ(caller.counter().summary(), em.flops.summary());
        }
        {
            const FlopScope caller;
            stochastic::Rng rng(3);
            const auto res = engines::run_monte_carlo(
                assembler, mc, rng, n1, nullptr, nullptr, policy);
            EXPECT_GT(res.flops.total(), 0u);
            EXPECT_EQ(caller.counter().summary(), res.flops.summary());
        }
    }
}

TEST(EmEnsemble, MidRunCancellationKeepsExactPathPrefix) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler,
                          em_opts(1e-9, 2e-11, EmScheme::implicit_be));
    const NodeId node = ckt.find_node("n1");
    const std::thread::id caller = std::this_thread::get_id();

    const auto cancelled_after = [&](int workers, int keep) {
        // Atomic: with a pool the workers poll the cancel predicate.
        std::atomic<int> paths{0};
        std::vector<int> seen;
        bool off_thread = false;
        engines::AnalysisObserver obs;
        obs.on_trial = [&](int done, int) {
            off_thread |= std::this_thread::get_id() != caller;
            ++paths;
            seen.push_back(done);
        };
        obs.on_progress = [&](double) {
            off_thread |= std::this_thread::get_id() != caller;
        };
        obs.cancel = [&paths, keep] { return paths.load() >= keep; };
        const auto res = engine.run_ensemble(
            10, 5, node, &obs, runtime::ExecutionPolicy{workers});
        // Callbacks arrive on the calling thread, in path order.
        EXPECT_FALSE(off_thread);
        EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
        return res;
    };

    // The kept prefix is exactly a 3-path ensemble of the same seed.
    const std::uint64_t want = em_golden::hash(engine.run_ensemble(3, 5, node));
    for (const int workers : {1, 4}) {
        SCOPED_TRACE(workers);
        const auto res = cancelled_after(workers, 3);
        EXPECT_TRUE(res.aborted);
        EXPECT_EQ(res.stats.paths(), 3u);
        EXPECT_EQ(em_golden::hash(res), want);
    }
}

/// Threads of this process right now, or -1 without /proc/self/task.
int live_threads() {
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec) {
        return -1;
    }
    int n = 0;
    for (; it != std::filesystem::directory_iterator(); ++it) {
        ++n;
    }
    return n;
}

TEST(EmEnsemble, PoolNeverOutnumbersThePaths) {
    const int before = live_threads();
    if (before < 0) {
        GTEST_SKIP() << "thread count needs /proc/self/task";
    }
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler,
                          em_opts(1e-9, 2e-11, EmScheme::implicit_be));
    const NodeId node = ckt.find_node("n1");
    const auto most_threads = [&](int paths) {
        int most = 0;
        engines::AnalysisObserver obs;
        obs.on_trial = [&most](int, int) {
            most = std::max(most, live_threads());
        };
        (void)engine.run_ensemble(paths, 1, node, &obs,
                                  runtime::ExecutionPolicy{8});
        return most;
    };
    // Eight workers asked for, two paths: at most two workers start.
    const int two_paths = most_threads(2);
    EXPECT_GT(two_paths, before);
    EXPECT_LE(two_paths, before + 2);
    // One path runs inline: no pool at all.
    EXPECT_EQ(most_threads(1), before);
}

TEST(EmEnsemble, RejectsBadNodeBeforeAnyPathStarts) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler, em_opts(1e-9, 2e-11));
    // Every path opens a "trial" span: none may be recorded.
    obs::start_trace();
    for (const int workers : {1, 4}) {
        const runtime::ExecutionPolicy policy{workers};
        EXPECT_THROW(
            (void)engine.run_ensemble(4, 1, k_ground, nullptr, policy),
            AnalysisError);
        EXPECT_THROW((void)engine.run_ensemble(4, 1, 2, nullptr, policy),
                     AnalysisError);
        EXPECT_THROW((void)engine.run_ensemble(0, 1, 1, nullptr, policy),
                     AnalysisError);
    }
    obs::stop_trace();
    EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(OuExact, ScalarMomentsClosedForm) {
    const auto m = engines::scalar_ou_moments(2.0, 4.0, 0.5, 1.0, 0.7);
    const double e = std::exp(-1.4);
    EXPECT_NEAR(m.mean, e + 2.0 * (1.0 - e), 1e-12);
    EXPECT_NEAR(m.variance, 0.25 / 4.0 * (1.0 - e * e), 1e-12);
    EXPECT_THROW((void)engines::scalar_ou_moments(-1.0, 0, 1, 0, 1),
                 AnalysisError);
}

TEST(OuExact, DiscretizeLtiMatchesScalarFormulas) {
    linalg::DenseMatrix a(1, 1);
    a(0, 0) = -3.0;
    linalg::DenseMatrix q(1, 1);
    q(0, 0) = 2.0; // L L^T
    const double h = 0.4;
    const auto d = engines::discretize_lti(a, q, h);
    EXPECT_NEAR(d.phi(0, 0), std::exp(-3.0 * h), 1e-12);
    EXPECT_NEAR(d.gamma(0, 0), (1.0 - std::exp(-3.0 * h)) / 3.0, 1e-12);
    // Qd = q/(2|a|) (1 - e^{-2|a|h}).
    EXPECT_NEAR(d.qd(0, 0), 2.0 / 6.0 * (1.0 - std::exp(-2.4)), 1e-12);
}

TEST(OuExact, ExactMomentsMatchScalarOuOnRcCircuit) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const auto res = engines::exact_moments(assembler, 5e-9, 100);
    const double a = 1.0 / k_tau;
    const double c = k_idc / k_c;
    const double s = k_sigma / k_c;
    for (const std::size_t j : {10u, 50u, 99u}) {
        const auto ref = engines::scalar_ou_moments(a, c, s, 0.0,
                                                    res.grid[j]);
        EXPECT_NEAR(res.mean[j][0], ref.mean, 1e-9);
        EXPECT_NEAR(res.variance[j][0], ref.variance,
                    1e-6 * ref.variance + 1e-18);
    }
}

TEST(OuExact, EmEnsembleConvergesToExactMoments) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const auto exact = engines::exact_moments(assembler, 4e-9, 200);

    const EmEngine engine(assembler, em_opts(4e-9, 2e-11));
    const auto ens = engine.run_ensemble(600, 16, ckt.find_node("n1"));

    const double sd_end = std::sqrt(exact.variance.back()[0]);
    EXPECT_NEAR(ens.stats.at(ens.grid.size() - 1).mean(),
                exact.mean.back()[0], 4.0 * sd_end / std::sqrt(600.0));
    EXPECT_NEAR(ens.stats.at(ens.grid.size() - 1).stddev(), sd_end,
                0.15 * sd_end);
}

TEST(OuExact, RejectsNonlinearAndBranchCircuits) {
    Circuit rtd = refckt::rtd_divider();
    const mna::MnaAssembler a1(rtd);
    EXPECT_THROW((void)engines::exact_moments(a1, 1e-9, 10),
                 AnalysisError);
}

TEST(MonteCarlo, AgreesWithEmOnNoisyRc) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);

    engines::McOptions mc;
    mc.runs = 150;
    mc.t_stop = 5e-9;
    mc.noise_dt = 25e-12;
    mc.grid_points = 101;
    stochastic::Rng rng(17);
    const auto mcr = engines::run_monte_carlo(assembler, mc, rng,
                                              ckt.find_node("n1"));

    const EmEngine engine(assembler, em_opts(5e-9, 25e-12));
    const auto em = engine.run_ensemble(150, 18, ckt.find_node("n1"));

    // Mean curves agree within Monte-Carlo error.
    const double sd =
        em.stats.at(em.grid.size() - 1).stddev() / std::sqrt(150.0);
    EXPECT_NEAR(mcr.mean.value().back(), em.mean.value().back(),
                6.0 * sd + 5e-3);
}

TEST(MonteCarlo, CostsMoreThanEmPerPath) {
    // The paper's Sec. 1 argument: a deterministic-transient MC run pays
    // the full engine per path; the EM path is a fixed-grid linear pass.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);

    engines::McOptions mc;
    mc.runs = 20;
    mc.t_stop = 5e-9;
    stochastic::Rng rng(19);
    const auto mcr = engines::run_monte_carlo(assembler, mc, rng,
                                              ckt.find_node("n1"));

    const EmEngine engine(assembler, em_opts(5e-9, 25e-12));
    stochastic::Rng rng2(20);
    const FlopScope em_scope;
    for (int p = 0; p < 20; ++p) {
        (void)engine.run_path(rng2);
    }
    EXPECT_LT(em_scope.counter().total(), mcr.flops.total())
        << "EM=" << em_scope.counter().total()
        << " MC=" << mcr.flops.total();
}

TEST(MonteCarlo, Validation) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    stochastic::Rng rng(21);
    EXPECT_THROW(
        (void)engines::run_monte_carlo(assembler, mc, rng, 1),
        AnalysisError); // no noise sources
}

} // namespace
} // namespace nanosim
