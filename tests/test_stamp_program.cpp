// Stamp-program fast path: stamp-level bit-identity against the
// assembler's virtual stamps, golden engine outputs, tabulated-model
// properties, and the refactor-vs-fresh-factorisation contract.
//
// The StampProgram (mna/stamp_program.hpp) promises that compiling the
// per-step work into flat slot/SoA plans changes NOTHING numerically:
// every restamp, chord evaluation, rhs and step-bound input must equal
// what MnaAssembler's virtual stamps (the oracle) produce, bit for bit.
// Engine outputs on the reference circuits are pinned to golden hashes.
// The tabulated models are the one opt-in that may deviate — by
// construction at most TableConfig::rel_tol inside the tabulated range
// and not at all outside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "devices/tabulated.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim {
namespace {

using analysis::Waveform;

/// Bitwise equality of two waveform sets (times AND values): the step
/// sequences themselves must match, not just interpolated samples.
void expect_waves_bit_identical(const std::vector<Waveform>& a,
                                const std::vector<Waveform>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w].size(), b[w].size()) << a[w].label();
        for (std::size_t i = 0; i < a[w].size(); ++i) {
            EXPECT_EQ(a[w].time_at(i), b[w].time_at(i))
                << a[w].label() << " @ " << i;
            EXPECT_EQ(a[w].value_at(i), b[w].value_at(i))
                << a[w].label() << " @ " << i;
        }
    }
}

/// The six reference circuits of the bit-identity table.  Each returns a
/// fresh circuit; `t_stop` scales with the circuit's time constants.
struct IdentityCase {
    std::string name;
    std::function<Circuit()> make;
    double t_stop;
    bool pwl_capable; ///< PWL engine supports every nonlinear device
};

std::vector<IdentityCase> identity_cases() {
    std::vector<IdentityCase> cases;
    cases.push_back({"rc_lowpass", [] { return refckt::rc_lowpass(); },
                     5e-6, true});
    cases.push_back({"rtd_divider",
                     [] {
                         Circuit ckt = refckt::rtd_divider();
                         ckt.get_mutable<VSource>("V1").set_wave(
                             std::make_shared<DcWave>(0.4));
                         return ckt;
                     },
                     1e-6, true});
    cases.push_back({"nanowire_divider",
                     [] {
                         Circuit ckt = refckt::nanowire_divider();
                         ckt.get_mutable<VSource>("V1").set_wave(
                             std::make_shared<DcWave>(1.0));
                         return ckt;
                     },
                     1e-6, true});
    cases.push_back({"fet_rtd_inverter",
                     [] { return refckt::fet_rtd_inverter(); }, 100e-9,
                     true});
    cases.push_back({"rtd_chain6",
                     [] {
                         refckt::ChainSpec spec;
                         spec.stages = 6;
                         return refckt::rtd_chain(spec);
                     },
                     100e-9, true});
    // Sparse solver path (> 64 unknowns) + RTDs at every node.
    cases.push_back({"rtd_mesh9x9",
                     [] {
                         refckt::MeshSpec spec;
                         spec.rows = 9;
                         spec.cols = 9;
                         spec.rtd_stride = 1;
                         return refckt::rc_mesh(spec);
                     },
                     50e-9, true});
    // Time-varying conductor (TV fast path) + noise source plumbing.
    cases.push_back({"fig10_noisy_transistor",
                     [] { return refckt::fig10_noisy_transistor(); }, 1e-9,
                     false});
    return cases;
}

// ---------------------------------------------------------------------------
// Stamp level: StampProgram vs the assembler's virtual stamps.
// ---------------------------------------------------------------------------

/// Frozen union pattern of an assembly (the pattern SystemCache builds)
/// plus a Stamper that scatters into its value slots exactly as the
/// cache's own scatter stamper does: ground rows dropped, node n -> row
/// n-1, branch b -> row num_nodes + b, each write `values[slot] += v` in
/// call order.
class SlotScatter final : public Stamper {
public:
    explicit SlotScatter(const mna::MnaAssembler& assembler)
        : num_nodes_(assembler.num_nodes()) {
        const auto n = static_cast<std::size_t>(assembler.unknowns());
        col_ptr_.assign(n + 1, 0);
        for (const auto& [row, col] : mna::union_stamp_pattern(assembler)) {
            row_idx_.push_back(row);
            ++col_ptr_[col + 1];
        }
        for (std::size_t c = 0; c < n; ++c) {
            col_ptr_[c + 1] += col_ptr_[c];
        }
    }

    [[nodiscard]] std::size_t slot_of(std::size_t row,
                                      std::size_t col) const {
        const auto begin = row_idx_.begin() +
                           static_cast<std::ptrdiff_t>(col_ptr_[col]);
        const auto end = row_idx_.begin() +
                         static_cast<std::ptrdiff_t>(col_ptr_[col + 1]);
        const auto it = std::lower_bound(begin, end, row);
        return it == end || *it != row
                   ? mna::StampProgram::k_npos
                   : static_cast<std::size_t>(it - row_idx_.begin());
    }
    [[nodiscard]] std::size_t nnz() const { return row_idx_.size(); }

    /// Scatter targets for the next stamps.
    void bind(std::vector<double>* values, linalg::Vector* rhs) {
        values_ = values;
        rhs_ = rhs;
    }

    void conductance(NodeId a, NodeId b, double g) override {
        if (a != k_ground) {
            entry(node_row(a), node_row(a), g);
        }
        if (b != k_ground) {
            entry(node_row(b), node_row(b), g);
        }
        if (a != k_ground && b != k_ground) {
            entry(node_row(a), node_row(b), -g);
            entry(node_row(b), node_row(a), -g);
        }
    }
    void conductance_entry(NodeId row, NodeId col, double g) override {
        if (row != k_ground && col != k_ground) {
            entry(node_row(row), node_row(col), g);
        }
    }
    void capacitance(NodeId, NodeId, double) override {
        FAIL() << "capacitance() is not a per-step stamp";
    }
    void rhs_current(NodeId node, double i) override {
        if (node != k_ground) {
            (*rhs_)[node_row(node)] += i;
        }
    }
    void branch_incidence(NodeId node, int branch, double sign) override {
        if (node != k_ground) {
            entry(node_row(node), branch_row(branch), sign);
        }
    }
    void branch_voltage_coeff(int branch, NodeId node,
                              double coeff) override {
        if (node != k_ground) {
            entry(branch_row(branch), node_row(node), coeff);
        }
    }
    void branch_reactive(int, int, double) override {
        FAIL() << "branch_reactive() is not a per-step stamp";
    }
    void branch_rhs(int branch, double value) override {
        (*rhs_)[branch_row(branch)] += value;
    }

private:
    void entry(std::size_t row, std::size_t col, double value) {
        const std::size_t s = slot_of(row, col);
        ASSERT_NE(s, mna::StampProgram::k_npos)
            << "stamp (" << row << ", " << col << ") outside the pattern";
        (*values_)[s] += value;
    }
    [[nodiscard]] std::size_t node_row(NodeId n) const {
        return static_cast<std::size_t>(n - 1);
    }
    [[nodiscard]] std::size_t branch_row(int b) const {
        return static_cast<std::size_t>(num_nodes_ + b);
    }

    int num_nodes_;
    std::vector<std::size_t> col_ptr_;
    std::vector<std::size_t> row_idx_;
    std::vector<double>* values_ = nullptr;
    linalg::Vector* rhs_ = nullptr;
};

template <typename A, typename B>
void expect_bitwise(const A& a, const B& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << "[" << i << "]: " << a[i] << " vs " << b[i];
    }
}

TEST(StampProgram, StampsBitIdenticalToAssemblerStamps) {
    std::mt19937 gen(20261017);
    for (const IdentityCase& c : identity_cases()) {
        SCOPED_TRACE(c.name);
        const Circuit ckt = c.make();
        const mna::MnaAssembler assembler(ckt);
        SlotScatter scatter(assembler);
        const mna::StampProgram program(
            assembler, [&](std::size_t row, std::size_t col) {
                return scatter.slot_of(row, col);
            });
        const auto n = static_cast<std::size_t>(assembler.unknowns());
        const auto nn = static_cast<std::size_t>(assembler.num_nodes());
        const auto& nonlinear = assembler.nonlinear_devices();
        const std::size_t nl = nonlinear.size();
        std::uniform_real_distribution<double> volts(-0.5, 2.5);
        std::uniform_real_distribution<double> unit(0.0, 1.0);

        for (int trial = 0; trial < 3; ++trial) {
            SCOPED_TRACE("state " + std::to_string(trial));
            const double t = c.t_stop * unit(gen);
            linalg::Vector x(n);
            linalg::Vector dvdt(n);
            for (std::size_t i = 0; i < n; ++i) {
                x[i] = volts(gen);
                dvdt[i] = 1e8 * (unit(gen) - 0.5);
            }
            std::vector<double> base(scatter.nnz());
            for (double& v : base) {
                v = unit(gen);
            }
            const NodeVoltages v = assembler.view(x);
            const NodeVoltages rate = assembler.view(dvdt);

            // Chord conductances and rates vs the virtual device models.
            std::vector<double> geq(nl), geq_rate(nl);
            program.eval_chords(v, rate, true, geq, geq_rate);
            std::vector<double> ref_geq(nl), ref_rate(nl);
            for (std::size_t k = 0; k < nl; ++k) {
                ref_geq[k] = nonlinear[k]->swec_conductance(v);
                ref_rate[k] = nonlinear[k]->swec_conductance_rate(v, rate);
            }
            expect_bitwise(geq, ref_geq, "geq");
            expect_bitwise(geq_rate, ref_rate, "geq_rate");

            // Device half of the eq. (12) step bound.
            double ref_bound = std::numeric_limits<double>::infinity();
            for (const Device* dev : nonlinear) {
                ref_bound = std::min(ref_bound, dev->step_limit(v, rate, 0.05));
            }
            const double bound =
                program.device_step_bound(v, rate, geq, geq_rate, 0.05);
            EXPECT_EQ(std::memcmp(&bound, &ref_bound, sizeof(double)), 0)
                << bound << " vs " << ref_bound;

            // Matrix restamps onto the same baseline plane.
            linalg::Vector rhs(n, 0.0);
            auto restamp = [&](auto&& via_program, auto&& via_assembler,
                               const char* what) {
                std::vector<double> got = base;
                std::vector<double> ref = base;
                linalg::Vector got_rhs(n, 0.5);
                linalg::Vector ref_rhs(n, 0.5);
                scatter.bind(&got, &got_rhs);
                via_program(got, got_rhs);
                scatter.bind(&ref, &ref_rhs);
                via_assembler();
                expect_bitwise(got, ref, what);
                expect_bitwise(got_rhs, ref_rhs, what);
            };
            restamp([&](std::vector<double>& vals, linalg::Vector&) {
                        program.apply_swec(geq, vals, scatter);
                    },
                    [&] { assembler.stamp_swec_into(geq, scatter); },
                    "swec");
            restamp([&](std::vector<double>& vals, linalg::Vector&) {
                        program.apply_time_varying(t, vals, scatter);
                    },
                    [&] { assembler.stamp_time_varying_into(t, scatter); },
                    "time_varying");
            restamp([&](std::vector<double>& vals, linalg::Vector& r) {
                        program.apply_nr(x, vals, r, scatter);
                    },
                    [&] { assembler.stamp_nr_into(x, scatter); }, "nr");

            // Source vector and step-bound diagonals, where the program
            // takes them over.
            if (program.rhs_fast()) {
                linalg::Vector got;
                program.eval_rhs(t, nullptr, got);
                expect_bitwise(got, assembler.rhs(t), "rhs");
            }
            if (program.gdiag_fast()) {
                std::vector<double> got(nn, 0.25);
                program.add_swec_gdiag(t, geq, got);
                std::vector<double> ref(nn, 0.25);
                mna::MnaBuilder builder(assembler.num_nodes(),
                                        assembler.num_branches());
                assembler.stamp_time_varying_into(t, builder);
                assembler.stamp_swec_into(geq, builder);
                for (const auto& e : builder.g().entries()) {
                    if (e.row == e.col && e.row < nn) {
                        ref[e.row] += e.value;
                    }
                }
                expect_bitwise(got, ref, "gdiag");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine level: golden output hashes on every reference circuit.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: step counts and the exact bits of every
/// time point and value, so any change in the step sequence or in one
/// ulp of one sample changes the hash.
struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void mix(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    }
    void mix(double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }
};

std::uint64_t tran_hash(const engines::TranResult& r) {
    Fnv f;
    f.mix(static_cast<std::uint64_t>(r.steps_accepted));
    f.mix(static_cast<std::uint64_t>(r.steps_rejected));
    f.mix(static_cast<std::uint64_t>(r.nr_iterations));
    for (const Waveform& w : r.node_waves) {
        f.mix(static_cast<std::uint64_t>(w.size()));
        for (std::size_t i = 0; i < w.size(); ++i) {
            f.mix(w.time_at(i));
            f.mix(w.value_at(i));
        }
    }
    return f.h;
}

std::uint64_t dc_hash(const engines::DcResult& r) {
    Fnv f;
    f.mix(static_cast<std::uint64_t>(r.converged ? 1 : 0));
    f.mix(static_cast<std::uint64_t>(r.iterations));
    for (std::size_t i = 0; i < r.x.size(); ++i) {
        f.mix(r.x[i]);
    }
    return f.h;
}

/// Golden output of one engine on one reference circuit.
struct Golden {
    const char* circuit;
    const char* engine;
    std::uint64_t hash;
};

// Recorded before the per-device virtual-stamping mode was removed from
// SystemCache, when both stamping paths agreed bit for bit.  Toolchain:
// GCC 12.2, glibc 2.36, x86-64, Release and RelWithDebInfo+ASan builds
// (both agree).  The bits depend on libm's exp/log/pow and on FP
// contraction, so on another toolchain a mismatch may be the platform
// rather than an engine change: StampsBitIdenticalToAssemblerStamps is
// the toolchain-independent oracle, and a mismatch prints the entry to
// re-record.
constexpr Golden k_golden[] = {
    {"rc_lowpass", "swec", 0x58e5856ac125993cULL},
    {"rc_lowpass", "nr", 0x0fa763bb86077373ULL},
    {"rc_lowpass", "pwl", 0xbbdc129f5aabf4bdULL},
    {"rc_lowpass", "dc_swec", 0xb0d2af3116601248ULL},
    {"rtd_divider", "swec", 0x43141eef5042b04eULL},
    {"rtd_divider", "nr", 0x5b3fe625f3385f83ULL},
    {"rtd_divider", "pwl", 0xf1b5ea090041aa86ULL},
    {"rtd_divider", "dc_swec", 0xbe08f740696183b1ULL},
    {"nanowire_divider", "swec", 0xaf2570676989e5beULL},
    {"nanowire_divider", "nr", 0xcbb0f1cda77f9284ULL},
    {"nanowire_divider", "pwl", 0x95c167d7281bde32ULL},
    {"nanowire_divider", "dc_swec", 0xd76092c60ec0b664ULL},
    {"fet_rtd_inverter", "swec", 0x35467727fa3b208bULL},
    {"fet_rtd_inverter", "nr", 0xc6a4126c3532ed7bULL},
    {"fet_rtd_inverter", "pwl", 0xa478df8d1a47669dULL},
    {"fet_rtd_inverter", "dc_swec", 0x69d8704e6e227553ULL},
    {"rtd_chain6", "swec", 0x9a428ae8ae9202aaULL},
    {"rtd_chain6", "nr", 0xc4ba35317477d535ULL},
    {"rtd_chain6", "pwl", 0x6b71fc1510320844ULL},
    {"rtd_chain6", "dc_swec", 0x58d9c075a9fbf187ULL},
    {"rtd_mesh9x9", "swec", 0x644f324f5fd4d083ULL},
    {"rtd_mesh9x9", "nr", 0xddf8ef3e17b7a331ULL},
    {"rtd_mesh9x9", "pwl", 0x9c062666eaed02bcULL},
    {"rtd_mesh9x9", "dc_swec", 0xf77d19c5492d8927ULL},
    {"fig10_noisy_transistor", "swec", 0x8bba66c0ceae93f0ULL},
    {"fig10_noisy_transistor", "nr", 0x901ee483f7b61a75ULL},
    {"fig10_noisy_transistor", "dc_swec", 0x10c362d74e13e28dULL},
};

std::uint64_t run_engine(const IdentityCase& c, const std::string& engine) {
    const Circuit ckt = c.make();
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);
    if (engine == "swec") {
        engines::SwecTranOptions o;
        o.t_stop = c.t_stop;
        return tran_hash(engines::run_tran_swec(assembler, o, nullptr, &cache));
    }
    if (engine == "nr") {
        engines::NrTranOptions o;
        o.t_stop = c.t_stop;
        return tran_hash(engines::run_tran_nr(assembler, o, nullptr, &cache));
    }
    if (engine == "pwl") {
        engines::PwlTranOptions o;
        o.t_stop = c.t_stop;
        return tran_hash(engines::run_tran_pwl(assembler, o, nullptr, &cache));
    }
    return dc_hash(engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache));
}

TEST(StampProgram, EngineOutputsMatchGoldenHashes) {
    std::size_t checked = 0;
    for (const IdentityCase& c : identity_cases()) {
        for (const char* engine : {"swec", "nr", "pwl", "dc_swec"}) {
            if (std::string(engine) == "pwl" && !c.pwl_capable) {
                continue;
            }
            const std::uint64_t got = run_engine(c, engine);
            const Golden* want = nullptr;
            for (const Golden& g : k_golden) {
                if (c.name == g.circuit && std::string(engine) == g.engine) {
                    want = &g;
                }
            }
            char line[128];
            std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016llxULL},",
                          c.name.c_str(), engine,
                          static_cast<unsigned long long>(got));
            if (want == nullptr) {
                ADD_FAILURE() << "no golden entry: " << line;
                continue;
            }
            EXPECT_EQ(got, want->hash) << "golden mismatch: " << line;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(k_golden));
}

// ---------------------------------------------------------------------------
// Fused RTD evaluators: bit-identical to the separate closed forms.
// ---------------------------------------------------------------------------

TEST(StampProgram, FusedRtdEvaluatorsBitIdentical) {
    const RtdParams p = RtdParams::date05();
    for (int i = -400; i <= 1200; ++i) {
        const double v = i * 5e-3; // -2 V .. 6 V, through all regions
        double cur = 0.0;
        double di = 0.0;
        rtd_math::current_and_didv(p, v, cur, di);
        EXPECT_EQ(cur, rtd_math::current(p, v)) << v;
        EXPECT_EQ(di, rtd_math::didv(p, v)) << v;

        double g = 0.0;
        double dg = 0.0;
        rtd_math::chord_and_dv(p, v, g, dg);
        EXPECT_EQ(g, rtd_math::chord(p, v)) << v;
        EXPECT_EQ(dg, rtd_math::chord_dv(p, v)) << v;
    }
    // The |v| < 1e-9 analytic-limit branch.
    double g0 = 0.0;
    double dg0 = 0.0;
    rtd_math::chord_and_dv(p, 0.0, g0, dg0);
    EXPECT_EQ(g0, rtd_math::chord(p, 0.0));
    EXPECT_EQ(dg0, rtd_math::chord_dv(p, 0.0));
}

// ---------------------------------------------------------------------------
// Tabulated models.
// ---------------------------------------------------------------------------

TEST(TabulatedModels, RtdChordAccurateAcrossAllRegions) {
    const RtdParams p = RtdParams::date05();
    const Rtd rtd("RTD1", 1, 0, p);
    TableStore store;
    TableConfig cfg;
    cfg.enabled = true;
    cfg.v_min = -1.0;
    cfg.v_max = 6.0;
    std::size_t builds = 0;
    const auto table = store.acquire(rtd, cfg, builds);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(builds, 1u);
    EXPECT_LE(table->max_rel_error(), cfg.rel_tol);

    // Sweep PDR1, NDR and PDR2 explicitly (peak/valley from the model).
    const auto pv = rtd_math::find_peak_valley(p, 5.0);
    ASSERT_LT(pv.v_peak, pv.v_valley);
    auto sweep_region = [&](double lo, double hi) {
        double worst_chord = 0.0;
        double worst_current = 0.0;
        constexpr int n = 700;
        for (int i = 0; i <= n; ++i) {
            const double v = lo + (hi - lo) * i / n;
            const double g_exact = rtd_math::chord(p, v);
            const double i_exact = rtd_math::current(p, v);
            worst_chord = std::max(
                worst_chord,
                std::abs(table->chord(v) - g_exact) / std::abs(g_exact));
            worst_current = std::max(worst_current,
                                     std::abs(table->current(v) - i_exact) /
                                         std::max(std::abs(i_exact), 1e-12));
            // chord_dv is the exact derivative of the chord patch — a C1
            // model self-consistency, looser than the value accuracy.
            const double dg_exact = rtd_math::chord_dv(p, v);
            EXPECT_NEAR(table->chord_dv(v), dg_exact,
                        1e-4 * std::max(std::abs(dg_exact), 1e-4))
                << v;
        }
        EXPECT_LE(worst_chord, 1e-6);
        EXPECT_LE(worst_current, 1e-6);
    };
    sweep_region(0.05, pv.v_peak);            // PDR1
    sweep_region(pv.v_peak, pv.v_valley);     // NDR
    sweep_region(pv.v_valley, 5.0);           // PDR2

    EXPECT_FALSE(table->contains(cfg.v_max + 1.0));
    EXPECT_FALSE(table->contains(cfg.v_min - 1.0));
    EXPECT_TRUE(table->contains(0.0));
}

TEST(TabulatedModels, AccuracyGateRejectsCoarseTables) {
    const Rtd rtd("RTD1", 1, 0, RtdParams::date05());
    TableStore store;
    TableConfig coarse;
    coarse.enabled = true;
    coarse.points = 16; // far too coarse for 1e-6 over 10 V
    std::size_t builds = 0;
    EXPECT_EQ(store.acquire(rtd, coarse, builds), nullptr);
    EXPECT_EQ(builds, 1u);
    // The rejection is cached: asking again does not rebuild.
    EXPECT_EQ(store.acquire(rtd, coarse, builds), nullptr);
    EXPECT_EQ(builds, 1u);
}

TEST(TabulatedModels, ExactFallbackOutsideTableRange) {
    // Operate the RTD divider at 2 V with a table covering only
    // [-0.1, 0.1]: every evaluation falls outside the range, so the
    // tabulated run must be BIT-identical to the closed-form run.
    auto make = [] {
        Circuit ckt = refckt::rtd_divider();
        ckt.get_mutable<VSource>("V1").set_wave(
            std::make_shared<DcWave>(2.0));
        return ckt;
    };
    engines::SwecTranOptions exact;
    exact.t_stop = 1e-6;
    engines::SwecTranOptions tab = exact;
    tab.tables.enabled = true;
    tab.tables.v_min = -0.1;
    tab.tables.v_max = 0.1;

    Circuit ckt_a = make();
    const mna::MnaAssembler asm_a(ckt_a);
    const auto res_a = engines::run_tran_swec(asm_a, exact);

    Circuit ckt_b = make();
    const mna::MnaAssembler asm_b(ckt_b);
    const auto res_b = engines::run_tran_swec(asm_b, tab);

    expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
}

TEST(TabulatedModels, TablesBuiltOncePerMonteCarloBatch) {
    // 6 identical RTDs + a noise source: ONE table build serves every
    // device and every trial (and the next batch on the same cache).
    refckt::ChainSpec spec;
    spec.stages = 6;
    Circuit ckt = refckt::rtd_chain(spec);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("n3"),
                                1e-9);
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);

    engines::McOptions mc;
    mc.runs = 5;
    mc.t_stop = 10e-9;
    mc.noise_dt = 5e-10;
    mc.grid_points = 11;
    mc.tran.tables.enabled = true;

    const std::uint64_t before = chord_table_build_count();
    {
        stochastic::Rng rng(1);
        const auto res = engines::run_monte_carlo(
            assembler, mc, rng, ckt.find_node("n3"), nullptr, &cache);
        EXPECT_EQ(res.mean.size(), mc.grid_points);
    }
    EXPECT_EQ(chord_table_build_count() - before, 1u)
        << "identical RTDs across all trials must share one table";
    EXPECT_EQ(cache.stats().tables_built, 1u);
    EXPECT_EQ(cache.tabulated_devices(), 6u);

    {
        stochastic::Rng rng(2);
        const auto res = engines::run_monte_carlo(
            assembler, mc, rng, ckt.find_node("n3"), nullptr, &cache);
        EXPECT_EQ(res.mean.size(), mc.grid_points);
    }
    EXPECT_EQ(chord_table_build_count() - before, 1u)
        << "a second batch on the same cache must reuse the store";
}

TEST(TabulatedModels, SessionTabulateFlagDeviatesWithinTolerance) {
    // CommonOptions::tabulate through the session front door: the
    // tabulated transient stays within the table tolerance of the exact
    // run (loose factor for error accumulation over steps).
    SimSession exact_session(refckt::fet_rtd_inverter());
    TranSpec spec;
    spec.t_stop = 100e-9;
    const auto exact = exact_session.run(spec);

    SimSession tab_session(refckt::fet_rtd_inverter());
    spec.common.tabulate = true;
    const auto tab = tab_session.run(spec);
    EXPECT_GE(tab.header.solver.tables_built, 1u);

    const auto& wa = exact.tran().node(exact_session.circuit(), "out");
    const auto& wb = tab.tran().node(tab_session.circuit(), "out");
    const double scale =
        std::max(std::abs(wa.max_value()), std::abs(wa.min_value()));
    for (int s = 0; s <= 200; ++s) {
        const double t = 100e-9 * s / 200.0;
        EXPECT_NEAR(wb.at(t), wa.at(t), 1e-4 * scale) << t;
    }
}

// ---------------------------------------------------------------------------
// Numeric refactor: bit-identical to a fresh factorisation.
// ---------------------------------------------------------------------------

TEST(FlatFactorStorage, RefactorMatchesFreshFactorisation) {
    refckt::ChainSpec spec;
    spec.stages = 40; // sparse-sized system
    const Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);
    const linalg::Triplets a = mna::swec_step_matrix(assembler, 1e-9);
    const linalg::CscForm csc = linalg::compress_columns(a);
    const auto n = csc.rows;

    linalg::Vector b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = std::sin(static_cast<double>(i) + 1.0);
    }

    // Numeric refactor with perturbed values vs a fresh factorisation of
    // the same values: same factors and solution, bit for bit.
    linalg::SparseLu lu(n, csc.col_ptr, csc.row_idx, csc.values);
    std::vector<double> values2 = csc.values;
    for (std::size_t s = 0; s < values2.size(); ++s) {
        values2[s] *= 1.0 + 1e-3 * std::cos(static_cast<double>(s));
    }
    ASSERT_TRUE(lu.refactor(std::span<const double>(values2)));
    const linalg::SparseLu fresh(n, csc.col_ptr, csc.row_idx, values2);
    EXPECT_EQ(lu.nnz_factors(), fresh.nnz_factors());
    expect_bitwise(lu.l_values(), fresh.l_values(), "L");
    expect_bitwise(lu.u_values(), fresh.u_values(), "U");
    expect_bitwise(lu.solve(b), fresh.solve(b), "x");
}

// ---------------------------------------------------------------------------
// Step-time attribution (SolverWork split).
// ---------------------------------------------------------------------------

TEST(StampProgram, StepTimeSplitReported) {
    SimSession session(refckt::fet_rtd_inverter());
    TranSpec spec;
    spec.t_stop = 100e-9;
    const auto res = session.run(spec);
    const SolverWork& sw = res.header.solver;
    // The transient must attribute nonzero time to evaluation, stamping
    // and factorisation (solve_s folds into factor on the dense path
    // only for the construction; all four are cumulative timers).
    EXPECT_GT(sw.eval_s, 0.0);
    EXPECT_GT(sw.stamp_s, 0.0);
    EXPECT_GT(sw.factor_s, 0.0);
    EXPECT_GT(sw.solve_s, 0.0);
    EXPECT_EQ(sw.tables_built, 0u);
}

} // namespace
} // namespace nanosim
