// Tests for the library front door, SimSession: deck loading, engine
// selection and the deck-to-analysis flow a downstream user follows.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "core/version.hpp"
#include "devices/passives.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

const char* k_divider_deck = R"(
.title rtd divider
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.dc V1 0 5 0.5
)";

OpSpec op_with(DcEngine engine) {
    OpSpec spec;
    spec.engine = engine;
    return spec;
}

TEST(FrontDoor, FromDeckRunsOperatingPoint) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    EXPECT_EQ(session.deck_analyses().size(), 2u);
    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_TRUE(op.dc().converged);
    // out node voltage below the 1 V source.
    const auto v = session.assembler().view(op.dc().x);
    const double out = v(session.circuit().find_node("out"));
    EXPECT_GT(out, 0.0);
    EXPECT_LT(out, 1.0);
}

TEST(FrontDoor, AllDcEnginesAgreeOnEasyPoint) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    const AnalysisResult swec = session.run(op_with(DcEngine::swec));
    const AnalysisResult nr = session.run(op_with(DcEngine::newton_raphson));
    const AnalysisResult mla = session.run(op_with(DcEngine::mla));
    ASSERT_TRUE(swec.dc().converged && nr.dc().converged &&
                mla.dc().converged);
    EXPECT_NEAR(swec.dc().x[1], nr.dc().x[1], 1e-4);
    EXPECT_NEAR(mla.dc().x[1], nr.dc().x[1], 1e-6);
}

TEST(FrontDoor, DcSweepProducesAllPoints) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    DcSweepSpec dc;
    dc.source = "V1";
    dc.start = 0.0;
    dc.stop = 5.0;
    dc.step = 0.25;
    const AnalysisResult sweep = session.run(dc);
    EXPECT_EQ(sweep.sweep().values.size(), 21u);
    EXPECT_EQ(sweep.sweep().failures(), 0);
    dc.step = -0.25;
    EXPECT_THROW((void)session.run(dc), AnalysisError);
}

TEST(FrontDoor, TransientEnginesOnRcDeck) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
.tran 10n 5u
)");
    TranSpec tran;
    tran.t_stop = 5e-6;
    tran.start_from_dc = false;
    const AnalysisResult swec = session.run(tran);
    tran.engine = TranEngine::newton_raphson;
    const AnalysisResult nr = session.run(tran);
    tran.engine = TranEngine::pwl;
    const AnalysisResult pwl = session.run(tran);
    const Circuit& ckt = session.circuit();
    const double expected = 1.0 * (1.0 - std::exp(-2.0)); // at 2 tau
    EXPECT_NEAR(swec.tran().node(ckt, "out").at(2e-6), expected, 0.02);
    EXPECT_NEAR(nr.tran().node(ckt, "out").at(2e-6), expected, 0.02);
    EXPECT_NEAR(pwl.tran().node(ckt, "out").at(2e-6), expected, 0.03);
}

TEST(FrontDoor, StochasticAnalyses) {
    SimSession session = SimSession::from_deck(R"(
I1 0 n1 DC 1m
R1 n1 0 1k
C1 n1 0 1p
NOISE1 0 n1 5e-9
)");
    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 5e-9;
    em.dt = 10e-12;
    const AnalysisResult ens = session.run(em);
    EXPECT_EQ(ens.ensemble().grid.size(), 501u);
    // Converges toward 1 V.
    EXPECT_NEAR(ens.ensemble().mean.value().back(), 1.0, 0.1);

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.runs = 20;
    mc.t_stop = 5e-9;
    const AnalysisResult mcr = session.run(mc);
    EXPECT_NEAR(mcr.monte_carlo().mean.value().back(), 1.0, 0.1);
}

TEST(FrontDoor, ReassembleAfterMutation) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    const int before = session.assembler().unknowns();
    session.circuit().add<Capacitor>(
        "CX", session.circuit().find_node("out"), k_ground, 1e-12);
    session.reassemble();
    EXPECT_EQ(session.assembler().unknowns(), before); // caps add no unknowns
    EXPECT_NE(session.circuit().find("CX"), nullptr);
}

TEST(FrontDoor, BadDeckPropagatesNetlistError) {
    EXPECT_THROW((void)SimSession::from_deck("Q1 a b c\n"), NetlistError);
    EXPECT_THROW((void)SimSession::from_deck_file("/no/such/file.cir"),
                 IoError);
}

TEST(FrontDoor, VersionString) {
    EXPECT_STREQ(version_string(), "1.0.0");
}

} // namespace
} // namespace nanosim
