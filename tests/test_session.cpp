// Tests for the AnalysisSpec/SimSession API: engine parity (session
// results are bit-identical to direct engine calls), the persistent
// solver-cache registry (a second analysis on an unchanged circuit runs
// ZERO new symbolic factorisations), exception-safe source restore, and
// the deck-card -> spec mapping.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "gate_workloads.hpp"
#include "runtime/params.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

/// Reference-circuit table for the parity suite: factory + the swept
/// source + a sensible transient horizon.  All of these sit on the dense
/// solver path (<= 64 unknowns), where every solve is an independent LU
/// — so session-vs-direct results must match BIT for BIT.
struct ParityCase {
    const char* label;
    std::function<Circuit()> make;
    const char* source;   ///< swept V source
    double sweep_stop;
    double sweep_step;
    double t_stop;
};

const std::vector<ParityCase>& parity_cases() {
    static const std::vector<ParityCase> cases = {
        {"rtd_divider", [] { return refckt::rtd_divider(); }, "V1", 3.0,
         0.25, 50e-9},
        {"nanowire_divider", [] { return refckt::nanowire_divider(); }, "V1",
         2.0, 0.25, 50e-9},
        {"fet_rtd_inverter", [] { return refckt::fet_rtd_inverter(); },
         "VDD", 3.0, 0.5, 100e-9},
        {"rc_lowpass", [] { return refckt::rc_lowpass(); }, "V1", 1.0, 0.25,
         5e-6},
        {"rtd_chain4",
         [] {
             refckt::ChainSpec spec;
             spec.stages = 4;
             return refckt::rtd_chain(spec);
         },
         "V1", 2.0, 0.5, 50e-9},
        {"rc_mesh6x6", [] { return refckt::rc_mesh(6, 6); }, "VIN", 2.0,
         0.5, 20e-9},
    };
    return cases;
}

TEST(SessionParity, OperatingPointBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const DcEngine engine :
             {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
            SCOPED_TRACE(engine_name(engine));
            // Direct engine call on a fresh assembly...
            const Circuit direct_ckt = c.make();
            const mna::MnaAssembler assembler(direct_ckt);
            engines::DcResult direct;
            switch (engine) {
            case DcEngine::swec:
                direct = engines::solve_op_swec(assembler);
                break;
            case DcEngine::newton_raphson:
                direct = engines::solve_op_nr(assembler);
                break;
            case DcEngine::mla:
                direct = engines::solve_op_mla(assembler);
                break;
            }
            // ...vs a fresh session running the equivalent spec.
            SimSession session(c.make());
            OpSpec spec;
            spec.engine = engine;
            const AnalysisResult result = session.run(spec);
            EXPECT_EQ(result.header.kind, AnalysisKind::op);
            EXPECT_EQ(result.dc().converged, direct.converged);
            EXPECT_EQ(result.dc().iterations, direct.iterations);
            ASSERT_EQ(result.dc().x.size(), direct.x.size());
            EXPECT_EQ(result.dc().x, direct.x); // bit-identical
        }
    }
}

TEST(SessionParity, TransientBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const TranEngine engine :
             {TranEngine::swec, TranEngine::newton_raphson,
              TranEngine::pwl}) {
            SCOPED_TRACE(engine_name(engine));
            const Circuit direct_ckt = c.make();
            const mna::MnaAssembler assembler(direct_ckt);
            engines::TranResult direct;
            switch (engine) {
            case TranEngine::swec: {
                engines::SwecTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_swec(assembler, o);
                break;
            }
            case TranEngine::newton_raphson: {
                engines::NrTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_nr(assembler, o);
                break;
            }
            case TranEngine::pwl: {
                engines::PwlTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_pwl(assembler, o);
                break;
            }
            }

            SimSession session(c.make());
            TranSpec spec;
            spec.engine = engine;
            spec.t_stop = c.t_stop;
            const AnalysisResult result = session.run(spec);
            const engines::TranResult& tran = result.tran();
            EXPECT_EQ(tran.steps_accepted, direct.steps_accepted);
            ASSERT_EQ(tran.node_waves.size(), direct.node_waves.size());
            for (std::size_t n = 0; n < tran.node_waves.size(); ++n) {
                EXPECT_EQ(tran.node_waves[n].time(),
                          direct.node_waves[n].time());
                EXPECT_EQ(tran.node_waves[n].value(),
                          direct.node_waves[n].value()); // bit-identical
            }
        }
    }
}

TEST(SessionParity, DcSweepBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const DcEngine engine :
             {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
            SCOPED_TRACE(engine_name(engine));
            DcSweepSpec spec;
            spec.engine = engine;
            spec.source = c.source;
            spec.start = 0.0;
            spec.stop = c.sweep_stop;
            spec.step = c.sweep_step;
            const linalg::Vector values = spec.values();

            Circuit direct_ckt = c.make();
            engines::SweepResult direct;
            switch (engine) {
            case DcEngine::swec:
                direct = engines::dc_sweep_swec(direct_ckt, c.source, values);
                break;
            case DcEngine::newton_raphson:
                direct = engines::dc_sweep_nr(direct_ckt, c.source, values);
                break;
            case DcEngine::mla:
                direct = engines::dc_sweep_mla(direct_ckt, c.source, values);
                break;
            }

            SimSession session(c.make());
            const AnalysisResult result = session.run(spec);
            const engines::SweepResult& sweep = result.sweep();
            EXPECT_EQ(sweep.values, direct.values);
            EXPECT_EQ(sweep.converged, direct.converged);
            ASSERT_EQ(sweep.solutions.size(), direct.solutions.size());
            for (std::size_t k = 0; k < sweep.solutions.size(); ++k) {
                EXPECT_EQ(sweep.solutions[k], direct.solutions[k]);
            }
        }
    }
}

TEST(SessionParity, BatchMatchesPerCallEnginesTo1e12) {
    // {op, dc sweep, tran, MC} through one session vs the per-call engine
    // entry points, where every analysis and every MC trial builds its
    // own solver cache: the dense path (inverter) and the sparse path
    // (16x16 mesh) agree to 1e-12.
    for (const gate_workloads::Batch& batch :
         {gate_workloads::inverter_batch(), gate_workloads::mesh_batch(16)}) {
        const gate_workloads::BatchRun session =
            gate_workloads::run_session_batch(batch, 6);
        const gate_workloads::BatchRun percall =
            gate_workloads::run_percall_batch(batch, 6);
        EXPECT_EQ(session.mc->stats.paths(), 6u);
        EXPECT_LE(gate_workloads::max_deviation(session, percall,
                                                batch.tran_stop),
                  1e-12)
            << batch.mc_node;
    }
}

// ---- persistent cache ------------------------------------------------

TEST(SessionCache, SecondAnalysisRunsZeroNewSymbolicFactorisations) {
    // 10x10 mesh: 101 unknowns -> sparse path with a real symbolic
    // analysis to reuse.
    SimSession session(refckt::rc_mesh(10, 10));
    TranSpec tran;
    tran.t_stop = 20e-9;

    const AnalysisResult first = session.run(tran);
    EXPECT_EQ(first.header.solver.full_factors, 1u);
    EXPECT_GT(first.header.solver.fast_refactors, 0u);

    // Unchanged circuit: the sweep, the repeat transient and the op all
    // refactor through the frozen pattern — zero new symbolic work.
    const AnalysisResult second = session.run(tran);
    EXPECT_EQ(second.header.solver.full_factors, 0u);
    EXPECT_GT(second.header.solver.fast_refactors, 0u);

    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_EQ(op.header.solver.full_factors, 0u);
    EXPECT_GT(op.header.solver.fast_refactors, 0u);

    DcSweepSpec dc;
    dc.source = "VIN";
    dc.start = 0.0;
    dc.stop = 2.0;
    dc.step = 0.5;
    const AnalysisResult sweep = session.run(dc);
    EXPECT_EQ(sweep.header.solver.full_factors, 0u);
    EXPECT_GT(sweep.header.solver.fast_refactors, 0u);

    EXPECT_EQ(session.cache_count(), 1u);
    EXPECT_EQ(first.header.cache_signature, second.header.cache_signature);
}

TEST(SessionCache, MonteCarloTrialsShareOneSymbolicAnalysis) {
    SimSession session(gate_workloads::noisy_mesh(10));

    MonteCarloSpec mc;
    mc.node = "n5_5";
    mc.t_stop = 5e-9;
    mc.runs = 5;
    mc.grid_points = 11;
    const AnalysisResult result = session.run(mc);
    // 5 trials (plus the per-trial DC initial conditions) -> exactly one
    // symbolic factorisation for the whole analysis.
    EXPECT_EQ(result.header.solver.full_factors, 1u);
    EXPECT_GT(result.header.solver.fast_refactors, 0u);

    // And a follow-up analysis still pays nothing.
    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_EQ(op.header.solver.full_factors, 0u);

    // A whole {op, dc sweep, tran, MC} batch on a sparse 16x16 mesh runs
    // exactly one symbolic factorisation too.
    EXPECT_EQ(
        gate_workloads::run_session_batch(gate_workloads::mesh_batch(16), 6)
            .full_factors,
        1u);
}

TEST(SessionCache, RebindAfterParameterTweakKeepsSymbolicAnalysis) {
    SimSession session(refckt::rc_mesh(10, 10));
    const AnalysisResult first = session.run(OpSpec{});
    EXPECT_EQ(first.header.solver.full_factors, 1u);
    const std::uint64_t sig = session.pattern_signature();

    // A value-only tweak keeps the stamp pattern: after reassemble the
    // cache is rebound, not rebuilt — the next analysis refactors.
    runtime::set_device_param(session.circuit(), "RDRV", "R", 123.0);
    session.reassemble();
    EXPECT_EQ(session.pattern_signature(), sig);
    EXPECT_EQ(session.cache_count(), 1u);

    const AnalysisResult second = session.run(OpSpec{});
    EXPECT_EQ(second.header.solver.full_factors, 0u);
    EXPECT_GT(second.header.solver.fast_refactors, 0u);
}

// ---- source restore (RAII guard) -------------------------------------

TEST(SessionSweep, SourceStimulusRestoredAfterSweep) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 PULSE(0 2 10n 1n 1n 50n 100n)
R1 in out 50
RTD1 out 0
.op
)");
    const Waveform* original =
        session.circuit().get<VSource>("V1").wave_ptr().get();
    ASSERT_NE(original, nullptr);

    DcSweepSpec spec;
    spec.source = "V1";
    spec.start = 0.0;
    spec.stop = 2.0;
    spec.step = 0.5;
    const AnalysisResult result = session.run(spec);
    EXPECT_EQ(result.sweep().values.size(), 5u);
    // The EXACT original waveform object is back (not a DC snapshot).
    EXPECT_EQ(session.circuit().get<VSource>("V1").wave_ptr().get(),
              original);
}

TEST(SessionSweep, SourceWaveGuardRestoresOnThrow) {
    Circuit ckt = refckt::rtd_divider();
    const Waveform* original = ckt.get<VSource>("V1").wave_ptr().get();
    try {
        const SourceWaveGuard guard(ckt, "V1");
        ckt.get_mutable<VSource>("V1").set_wave(
            std::make_shared<DcWave>(3.0));
        ASSERT_NE(ckt.get<VSource>("V1").wave_ptr().get(), original);
        throw std::runtime_error("mid-sweep failure");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(ckt.get<VSource>("V1").wave_ptr().get(), original);
}

TEST(SessionSweep, GuardRejectsNonSources) {
    Circuit ckt = refckt::rtd_divider();
    EXPECT_THROW(SourceWaveGuard(ckt, "R1"), NetlistError);
    EXPECT_THROW(SourceWaveGuard(ckt, "nope"), NetlistError);
}

// ---- spec plumbing ---------------------------------------------------

TEST(SessionSpecs, DeckCardsMapOntoSpecs) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.dc V1 0 2 0.5
.tran 1n 100n
)");
    const auto specs = SimSession::specs_from_deck(
        session.deck_analyses(), DcEngine::mla, TranEngine::pwl);
    ASSERT_EQ(specs.size(), 3u);
    ASSERT_TRUE(std::holds_alternative<OpSpec>(specs[0]));
    EXPECT_EQ(std::get<OpSpec>(specs[0]).engine, DcEngine::mla);
    const auto& dc = std::get<DcSweepSpec>(specs[1]);
    EXPECT_EQ(dc.source, "V1");
    EXPECT_DOUBLE_EQ(dc.stop, 2.0);
    EXPECT_EQ(dc.engine, DcEngine::mla);
    const auto& tran = std::get<TranSpec>(specs[2]);
    EXPECT_DOUBLE_EQ(tran.t_stop, 100e-9);
    EXPECT_DOUBLE_EQ(tran.common.dt_init, 1e-9);
    EXPECT_EQ(tran.engine, TranEngine::pwl);
}

TEST(SessionSpecs, RunDeckExecutesEveryCard) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.tran 1n 50n
)");
    const auto results = session.run_deck();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].header.kind, AnalysisKind::op);
    EXPECT_TRUE(results[0].dc().converged);
    EXPECT_EQ(results[1].header.kind, AnalysisKind::tran);
    EXPECT_GT(results[1].tran().steps_accepted, 0);
    EXPECT_GE(results[1].header.elapsed_s, 0.0);
}

TEST(SessionSpecs, ResultAccessorMismatchThrows) {
    SimSession session(refckt::rtd_divider());
    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_THROW((void)op.tran(), AnalysisError);
    EXPECT_THROW((void)op.sweep(), AnalysisError);
    EXPECT_NO_THROW((void)op.dc());
    EXPECT_STREQ(analysis_kind_name(op.header.kind), "op");
    EXPECT_EQ(op.header.engine, "swec");
}

TEST(SessionSpecs, BadSweepSpecThrows) {
    SimSession session(refckt::rtd_divider());
    DcSweepSpec bad;
    bad.source = "V1";
    bad.start = 0.0;
    bad.stop = 5.0;
    bad.step = -0.5; // wrong direction
    EXPECT_THROW((void)session.run(bad), AnalysisError);
}

TEST(SessionSpecs, EnsembleAndMonteCarloRunThroughSession) {
    SimSession session(refckt::noisy_rc());
    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.scheme = engines::EmScheme::implicit_be;
    em.paths = 8;
    const AnalysisResult ens = session.run(em);
    EXPECT_EQ(ens.header.kind, AnalysisKind::ensemble);
    EXPECT_EQ(ens.header.engine, "em-implicit");
    EXPECT_EQ(ens.ensemble().grid.size(), 51u);

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.t_stop = 1e-9;
    mc.runs = 3;
    mc.grid_points = 11;
    const AnalysisResult mcr = session.run(mc);
    EXPECT_EQ(mcr.header.kind, AnalysisKind::monte_carlo);
    EXPECT_EQ(mcr.monte_carlo().stats.at(0).count(), 3u);
}

TEST(SessionSpecs, NegativeThreadsAreRejectedBeforeAnyWorkerStarts) {
    // ExecutionPolicy reads any count <= 0 as "all cores"; only 0 means
    // that, so the session refuses a negative count up front.
    SimSession session(refckt::noisy_rc());
    int trials = 0;
    engines::AnalysisObserver obs;
    obs.on_trial = [&trials](int, int) { ++trials; };

    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.paths = 4;
    em.threads = -3;
    EXPECT_THROW((void)session.run(em, &obs), AnalysisError);

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.t_stop = 1e-9;
    mc.runs = 2;
    mc.grid_points = 11;
    mc.threads = -1;
    EXPECT_THROW((void)session.run(mc, &obs), AnalysisError);
    EXPECT_EQ(trials, 0);

    // Positive counts run as usual.
    em.threads = 2;
    EXPECT_EQ(session.run(em, &obs).ensemble().stats.paths(), 4u);
    mc.threads = 1;
    EXPECT_EQ(session.run(mc, &obs).monte_carlo().stats.paths(), 2u);
}

} // namespace
} // namespace nanosim
