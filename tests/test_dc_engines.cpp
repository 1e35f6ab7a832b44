// Tests for the three DC engines: Newton-Raphson (SPICE baseline), MLA
// (Bhattacharya-Mazumder baseline) and SWEC pseudo-transient — including
// the NDR failure/recovery behaviours the paper is about.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/diode.hpp"
#include "devices/passives.hpp"
#include "devices/rtd.hpp"
#include "devices/sources.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using engines::DcResult;
using engines::MlaOptions;
using engines::NrOptions;
using engines::SweepResult;
using engines::SwecDcOptions;

/// Divider with a fixed DC level on V1.
Circuit rtd_divider_at(double volts, double r = 50.0) {
    Circuit ckt = refckt::rtd_divider(r);
    ckt.get_mutable<VSource>("V1").set_wave(
        std::make_shared<DcWave>(volts));
    return ckt;
}

TEST(DcNr, LinearDividerExact) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, k_ground, 9.0);
    ckt.add<Resistor>("R1", in, out, 2e3);
    ckt.add<Resistor>("R2", out, k_ground, 1e3);
    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_nr(assembler);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[1], 3.0, 1e-9);
    // Linear circuit: one iteration to land, one to confirm.
    EXPECT_LE(r.iterations, 2);
}

TEST(DcNr, DiodeResistorMatchesBisection) {
    // V=2V -> R=1k -> diode: solve I = Is(e^{v/vt}-1) = (2-v)/R by
    // bisection as an independent reference.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V1", in, k_ground, 2.0);
    ckt.add<Resistor>("R1", in, a, 1e3);
    const auto& diode = ckt.add<Diode>("D1", a, k_ground);

    double lo = 0.0;
    double hi = 1.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double f = diode.current(mid) - (2.0 - mid) / 1e3;
        (f > 0.0 ? hi : lo) = mid;
    }
    const double v_ref = 0.5 * (lo + hi);

    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_nr(assembler);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.x[1], v_ref, 1e-7);
}

TEST(DcNr, RtdDividerMonotonicRegionConverges) {
    // Well below the peak NR has no trouble.
    Circuit ckt = rtd_divider_at(1.0);
    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_nr(assembler);
    EXPECT_TRUE(r.converged);
    const NodeVoltages v = assembler.view(r.x);
    EXPECT_GT(v(ckt.find_node("out")), 0.5);
}

/// Current-driven RTD: solve J(v) = I_src.  With I_src below the peak
/// current the equation has solutions on BOTH the PDR1 branch and the
/// falling (NDR-side) branch — the configuration of paper Fig. 2.
Circuit rtd_current_driven(double i_src) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<ISource>("I1", k_ground, a, i_src);
    ckt.add<Rtd>("RTD1", a, k_ground);
    return ckt;
}

TEST(DcNr, FailsFromBadInitialGuessOnNdrDevice) {
    // Paper Fig. 2: "Starting with initial guess x0 leads to
    // oscillations ... whereas having x0' as the initial guess makes the
    // simulation converge."  At 8 mA, a guess near the peak bounces for
    // the whole iteration budget; a guess past the peak converges.
    Circuit ckt = rtd_current_driven(8e-3);
    const mna::MnaAssembler assembler(ckt);

    NrOptions bad;
    bad.max_iterations = 50;
    bad.initial_guess = linalg::Vector{3.0};
    bad.record_trace = true;
    const DcResult r_bad = engines::solve_op_nr(assembler, bad);
    EXPECT_FALSE(r_bad.converged)
        << "iterations=" << r_bad.iterations
        << " residual=" << r_bad.residual;
    ASSERT_GE(r_bad.trace.size(), 10u);

    NrOptions good = bad;
    good.initial_guess = linalg::Vector{4.5};
    const DcResult r_good = engines::solve_op_nr(assembler, good);
    EXPECT_TRUE(r_good.converged);
    EXPECT_LE(r_good.iterations, 10);
}

TEST(DcNr, ConvergedBranchDependsOnInitialGuess) {
    // The subtler Fig. 2 pathology: NR *converges* but to a different
    // operating point depending on where it starts.
    Circuit ckt = rtd_current_driven(10e-3);
    const mna::MnaAssembler assembler(ckt);
    NrOptions low;
    low.initial_guess = linalg::Vector{3.0};
    NrOptions high;
    high.initial_guess = linalg::Vector{4.5};
    const DcResult r_low = engines::solve_op_nr(assembler, low);
    const DcResult r_high = engines::solve_op_nr(assembler, high);
    ASSERT_TRUE(r_low.converged);
    ASSERT_TRUE(r_high.converged);
    EXPECT_GT(std::abs(r_low.x[0] - r_high.x[0]), 1.0)
        << "expected different branches: " << r_low.x[0] << " vs "
        << r_high.x[0];
}

TEST(DcNr, SourceSteppingRescuesTheSamePoint) {
    Circuit ckt = rtd_divider_at(5.0, 220.0);
    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_source_stepping(assembler);
    EXPECT_TRUE(r.converged);
    // KCL check at the operating point.
    const NodeVoltages v = assembler.view(r.x);
    const auto& rtd = ckt.get<Rtd>("RTD1");
    const double i_r =
        (v(ckt.find_node("in")) - v(ckt.find_node("out"))) / 220.0;
    EXPECT_NEAR(i_r, rtd.branch_current(v), 1e-8);
}

TEST(DcMla, ConvergesWherePlainNrFails) {
    // Same bad initial guess that defeats plain NR: MLA's voltage
    // limiting + adaptive source ramp recovers a valid solution.
    Circuit ckt = rtd_current_driven(8e-3);
    const mna::MnaAssembler assembler(ckt);

    NrOptions plain_opt;
    plain_opt.max_iterations = 50;
    plain_opt.initial_guess = linalg::Vector{3.0};
    const DcResult plain = engines::solve_op_nr(assembler, plain_opt);
    EXPECT_FALSE(plain.converged);

    MlaOptions mla_opt;
    mla_opt.initial_guess = linalg::Vector{3.0};
    const DcResult mla = engines::solve_op_mla(assembler, mla_opt);
    ASSERT_TRUE(mla.converged);
    // KCL: the RTD carries exactly the source current.
    const auto& rtd = ckt.get<Rtd>("RTD1");
    const NodeVoltages v = assembler.view(mla.x);
    EXPECT_NEAR(rtd.branch_current(v), 8e-3, 1e-8);
}

TEST(DcSwec, LinearDividerExact) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, k_ground, 9.0);
    ckt.add<Resistor>("R1", in, out, 2e3);
    ckt.add<Resistor>("R2", out, k_ground, 1e3);
    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_swec(assembler);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[1], 3.0, 1e-6);
}

TEST(DcSwec, RtdDividerAgreesWithMla) {
    // Small series resistance -> unique operating point everywhere.
    for (const double vin : {0.5, 2.0, 3.0, 4.5}) {
        Circuit ckt = rtd_divider_at(vin, 50.0);
        const mna::MnaAssembler assembler(ckt);
        const DcResult swec = engines::solve_op_swec(assembler);
        const DcResult mla = engines::solve_op_mla(assembler);
        ASSERT_TRUE(swec.converged) << "vin=" << vin;
        ASSERT_TRUE(mla.converged) << "vin=" << vin;
        EXPECT_NEAR(swec.x[1], mla.x[1], 2e-3) << "vin=" << vin;
    }
}

TEST(DcSwec, NeverProducesOscillationEvenInNdr) {
    // SWEC pseudo-transient across the NDR-cut load line where NR cycles.
    Circuit ckt = rtd_divider_at(5.0, 220.0);
    const mna::MnaAssembler assembler(ckt);
    const DcResult r = engines::solve_op_swec(assembler);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.oscillation_detected);
    // The settled point satisfies KCL.
    const NodeVoltages v = assembler.view(r.x);
    const auto& rtd = ckt.get<Rtd>("RTD1");
    const double i_r =
        (v(ckt.find_node("in")) - v(ckt.find_node("out"))) / 220.0;
    EXPECT_NEAR(i_r, rtd.branch_current(v), 1e-6);
}

TEST(DcSweeps, SwecTracesFullIvIncludingNdr) {
    // Fig. 7(a): sweep the divider source and recover the RTD I-V.
    Circuit ckt = refckt::rtd_divider(50.0);
    const linalg::Vector values = linalg::linspace(0.0, 5.0, 51);
    const SweepResult sweep =
        engines::dc_sweep_swec(ckt, "V1", values);
    EXPECT_EQ(sweep.failures(), 0);

    // Recover the device curve and check it is non-monotonic with a
    // peak in the expected place.
    const mna::MnaAssembler assembler(ckt);
    const auto& rtd = ckt.get<Rtd>("RTD1");
    double peak_i = 0.0;
    double peak_v = 0.0;
    double i_at_end = 0.0;
    for (std::size_t k = 0; k < sweep.values.size(); ++k) {
        const NodeVoltages v = assembler.view(sweep.solutions[k]);
        const double vd = v(ckt.find_node("out"));
        const double i = rtd.branch_current(v);
        if (i > peak_i) {
            peak_i = i;
            peak_v = vd;
        }
        i_at_end = i;
    }
    EXPECT_GT(peak_i, 1.2 * i_at_end) << "NDR region not captured";
    EXPECT_GT(peak_v, 2.5);
    EXPECT_LT(peak_v, 4.3);
}

TEST(DcSweeps, SwecAndMlaAgreePointwise) {
    Circuit ckt1 = refckt::rtd_divider(50.0);
    Circuit ckt2 = refckt::rtd_divider(50.0);
    const linalg::Vector values = linalg::linspace(0.0, 5.0, 26);
    const SweepResult s1 = engines::dc_sweep_swec(ckt1, "V1", values);
    const SweepResult s2 = engines::dc_sweep_mla(ckt2, "V1", values);
    ASSERT_EQ(s1.solutions.size(), s2.solutions.size());
    for (std::size_t k = 0; k < s1.solutions.size(); ++k) {
        EXPECT_NEAR(s1.solutions[k][1], s2.solutions[k][1], 5e-3)
            << "at sweep point " << k;
    }
}

TEST(DcOp, SwecUsesFewerFlopsThanMlaColdStart) {
    // The Table I headline direction: for a standalone DC analysis
    // (cold start, NDR-crossing bias) SWEC's non-iterative pseudo-steps
    // beat MLA's limited-NR iterations in total floating point work.
    Circuit ckt = rtd_divider_at(5.0, 220.0);
    const mna::MnaAssembler assembler(ckt);
    const DcResult swec = engines::solve_op_swec(assembler);
    const DcResult mla = engines::solve_op_mla(assembler);
    ASSERT_TRUE(swec.converged);
    ASSERT_TRUE(mla.converged);
    EXPECT_LT(swec.flops.total(), mla.flops.total())
        << "SWEC=" << swec.flops.total() << " MLA=" << mla.flops.total();
}

TEST(DcSweeps, NanowireDividerIsStaircase) {
    // Fig. 7(b): the nanowire divider sweep conforms to the quantised
    // staircase I-V.
    Circuit ckt = refckt::nanowire_divider(1e3);
    const linalg::Vector values = linalg::linspace(-2.0, 2.0, 81);
    const SweepResult sweep = engines::dc_sweep_swec(ckt, "V1", values);
    EXPECT_EQ(sweep.failures(), 0);
    const mna::MnaAssembler assembler(ckt);
    const auto& nw = ckt.get<Nanowire>("NW1");
    // Current is odd and increasing in the source voltage.
    double prev_i = -1e9;
    for (std::size_t k = 0; k < sweep.values.size(); ++k) {
        const NodeVoltages v = assembler.view(sweep.solutions[k]);
        const double i = nw.branch_current(v);
        EXPECT_GE(i, prev_i - 1e-12);
        prev_i = i;
    }
}

TEST(DcSweeps, HysteresisWithShallowLoadLine) {
    // With a large series resistor the load line intersects the RTD
    // curve three times inside a bias window: the circuit is bistable
    // and a continuation sweep exhibits hysteresis — the up-sweep rides
    // the PDR1 branch past the fold, the down-sweep rides the upper
    // branch back.  This is real RTD physics (MOBILE logic depends on
    // it), and the warm-started sweep must expose rather than mask it.
    // R = 400 puts the bistable window at V1 in ~[8.0, 9.5]; sweeping to
    // 10 V enters and leaves it from both sides.
    const double r = 400.0;
    const linalg::Vector up = linalg::linspace(0.0, 10.0, 201);
    linalg::Vector down(up.rbegin(), up.rend());

    Circuit ckt_up = refckt::rtd_divider(r);
    Circuit ckt_down = refckt::rtd_divider(r);
    const auto s_up = engines::dc_sweep_swec(ckt_up, "V1", up);
    const auto s_down = engines::dc_sweep_swec(ckt_down, "V1", down);
    ASSERT_EQ(s_up.failures(), 0);
    ASSERT_EQ(s_down.failures(), 0);

    // Compare the device voltage at identical bias points.
    double max_gap = 0.0;
    for (std::size_t k = 0; k < up.size(); ++k) {
        const double v_up = s_up.solutions[k][1];
        const double v_down = s_down.solutions[up.size() - 1 - k][1];
        max_gap = std::max(max_gap, std::abs(v_up - v_down));
    }
    EXPECT_GT(max_gap, 0.5)
        << "expected a hysteresis window on the bistable divider";

    // Sanity: with a steep load line (small R) there is no bistability
    // and the two sweep directions agree everywhere.
    Circuit flat_up = refckt::rtd_divider(50.0);
    Circuit flat_down = refckt::rtd_divider(50.0);
    const auto f_up = engines::dc_sweep_swec(flat_up, "V1", up);
    const auto f_down = engines::dc_sweep_swec(flat_down, "V1", down);
    double flat_gap = 0.0;
    for (std::size_t k = 0; k < up.size(); ++k) {
        flat_gap = std::max(
            flat_gap, std::abs(f_up.solutions[k][1] -
                               f_down.solutions[up.size() - 1 - k][1]));
    }
    EXPECT_LT(flat_gap, 1e-2);
}

TEST(DcEngines, SweepValidation) {
    Circuit ckt = refckt::rtd_divider();
    EXPECT_THROW(
        (void)engines::dc_sweep_swec(ckt, "V1", linalg::Vector{}),
        AnalysisError);
    EXPECT_THROW((void)engines::dc_sweep_swec(ckt, "R1",
                                              linalg::Vector{1.0}),
                 NetlistError);
    EXPECT_THROW((void)engines::dc_sweep_nr(ckt, "NOPE",
                                            linalg::Vector{1.0}),
                 NetlistError);
}

/// RTD divider driven by a PULSE on V1 (the stimulus a sweep must not
/// flatten).
Circuit pulsed_rtd_divider() {
    Circuit ckt = refckt::rtd_divider();
    ckt.get_mutable<VSource>("V1").set_wave(std::make_shared<PulseWave>(
        0.0, 2.0, 5e-9, 1e-9, 1e-9, 10e-9, 30e-9));
    return ckt;
}

TEST(DcSweeps, EveryEngineRestoresTheSweptWaveformExactly) {
    // After a convenience-overload sweep, on return and on throw, V1
    // holds its original WaveformPtr, so a transient after the sweep is
    // bit-identical to one on an untouched circuit.
    engines::SwecTranOptions tran;
    tran.t_stop = 40e-9;
    const Circuit untouched = pulsed_rtd_divider();
    const engines::TranResult want =
        engines::run_tran_swec(mna::MnaAssembler(untouched), tran);

    using Sweep = std::function<SweepResult(
        Circuit&, const engines::AnalysisObserver*)>;
    const linalg::Vector values{0.0, 0.5, 1.0};
    const std::vector<std::pair<const char*, Sweep>> engines_under_test = {
        {"swec",
         [&](Circuit& c, const engines::AnalysisObserver* o) {
             return engines::dc_sweep_swec(c, "V1", values, {}, o);
         }},
        {"nr",
         [&](Circuit& c, const engines::AnalysisObserver* o) {
             return engines::dc_sweep_nr(c, "V1", values, {}, o);
         }},
        {"mla",
         [&](Circuit& c, const engines::AnalysisObserver* o) {
             return engines::dc_sweep_mla(c, "V1", values, {}, o);
         }},
    };
    for (const auto& [name, sweep] : engines_under_test) {
        Circuit ckt = pulsed_rtd_divider();
        const Waveform* original = ckt.get<VSource>("V1").wave_ptr().get();
        EXPECT_EQ(sweep(ckt, nullptr).values.size(), values.size())
            << name;
        EXPECT_EQ(ckt.get<VSource>("V1").wave_ptr().get(), original)
            << name;

        // A throw mid-sweep (from the observer, after the second point)
        // restores it too.
        engines::AnalysisObserver throwing;
        throwing.on_trial = [](int done, int) {
            if (done == 2) {
                throw std::runtime_error("stop");
            }
        };
        EXPECT_THROW((void)sweep(ckt, &throwing), std::runtime_error)
            << name;
        EXPECT_EQ(ckt.get<VSource>("V1").wave_ptr().get(), original)
            << name;

        const engines::TranResult got =
            engines::run_tran_swec(mna::MnaAssembler(ckt), tran);
        ASSERT_EQ(got.node_waves.size(), want.node_waves.size()) << name;
        for (std::size_t n = 0; n < want.node_waves.size(); ++n) {
            EXPECT_EQ(got.node_waves[n].time(), want.node_waves[n].time())
                << name;
            EXPECT_EQ(got.node_waves[n].value(), want.node_waves[n].value())
                << name;
        }
    }
}

TEST(DcEngines, InitialGuessSizeChecked) {
    Circuit ckt = rtd_divider_at(1.0);
    const mna::MnaAssembler assembler(ckt);
    NrOptions opt;
    opt.initial_guess = linalg::Vector{1.0};
    EXPECT_THROW((void)engines::solve_op_nr(assembler, opt),
                 AnalysisError);
}

TEST(DcEngines, FlopCountersPopulated) {
    Circuit ckt = rtd_divider_at(1.0);
    const mna::MnaAssembler assembler(ckt);
    const DcResult nr = engines::solve_op_nr(assembler);
    const DcResult swec = engines::solve_op_swec(assembler);
    EXPECT_GT(nr.flops.total(), 0u);
    EXPECT_GT(swec.flops.total(), 0u);
    EXPECT_GT(nr.flops.lu_factor, 0u);
}

} // namespace
} // namespace nanosim
