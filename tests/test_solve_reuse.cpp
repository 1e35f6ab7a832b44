// Solving SWEC steps through a held LU (SystemCache::solve_reusing).
//
// The contracts under test:
//
//  * accuracy: on mesh:16x16 the SWEC transient, whose steps after the
//    first are solved through the run's last LU plus iterative
//    refinement, stays within 1 nV of the refactor-every-step run and
//    takes the same number of steps.  The reference values below were
//    recorded from the refactor-every-step solver (every step a numeric
//    refactor + triangular solve);
//  * every x solve_reusing() accepts meets the backward-error bound
//    against the matrix actually stamped (checked here with an
//    independent dense residual);
//  * a value jump the held LU cannot refine past forces a refactor; an
//    out-of-pattern stamp, the dense path and a cache with no LU take
//    solve()'s path; counted fail points fire on the same calls as they
//    do through solve().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "linalg/dense.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim {
namespace {

using mna::SystemCache;

// ---- accuracy oracle ----------------------------------------------------

/// mesh:16x16, SWEC, t_stop 200 ns, default options: v(node) at
/// t = k * 5 ns (k = 0..40), recorded with one refactor per step.
struct OracleNode {
    const char* name;
    std::vector<double> v;
};

constexpr int k_oracle_steps = 4429;

const std::vector<OracleNode>& oracle_nodes() {
    static const std::vector<OracleNode> nodes = {
        {"n0_0",
         {
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.63649020221434438,
            0.74033204058688407, 0.74735419370125189, 0.74854487460737396,
            0.74878675218380786, 0.74883427785890833, 0.74885125386922724,
            0.74885787165131446, 0.74886018765526896, 0.74886115565603351,
            0.74886155512147778, 0.7488617154269045, 0.74886177318209524,
            0.74886179783091533, 0.7488618082086661, 0.74886181245600381,
            0.74886181401813512, 0.74886181469501678, 0.74886181498421756,
            0.74886181510534455, 0.11131960774742436, 0.0083913407843058795,
            0.0014777087709508432, 0.00030980166464952813,
            7.329754808963371e-05, 2.6894097301216052e-05,
            1.0301890046450351e-05, 3.8526183299680029e-06,
            1.5882347520705476e-06, 5.6295732976871549e-07
         }},
        {"n8_8",
         {
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3.1843511712271352e-06,
            0.00015562161664613394, 0.00053600471089066922,
            0.00079351336083551124, 0.00089766500528610702,
            0.00092818583041327448, 0.00094096590895217458,
            0.00094659818965004653, 0.00094882340157186409,
            0.00094983641851128196, 0.00095028938598640353,
            0.00095048573012207168, 0.00095056229110170823,
            0.0009505968905571255, 0.00095061227418251533,
            0.00095061891264074225, 0.00095062149153620607,
            0.00095062265440347925, 0.00095062317049769674,
            0.00095062339475971119, 0.00094776060087185614,
            0.00079531688060358085, 0.00041410116628305162,
            0.0001566454667493192, 5.2769516237583303e-05,
            2.2363036027136419e-05, 9.6126122853349131e-06,
            4.0116700268262624e-06, 1.7925030844252103e-06,
            7.0055028822900531e-07
         }},
        {"n15_15",
         {
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2.7320390363681604e-12,
            1.3736966399807537e-08, 5.50114137468784e-07, 3.0752544860953e-06,
            6.8777132392419182e-06, 9.5517726687395412e-06,
            1.11658652230851e-05, 1.2089777718940149e-05,
            1.2553836936694871e-05, 1.2802088155489775e-05,
            1.293015400471417e-05, 1.2993351247867583e-05,
            1.3021287453270525e-05, 1.3035060231637819e-05,
            1.3041688980136058e-05, 1.3044767923797762e-05,
            1.3046054230120989e-05, 1.3046664694277587e-05,
            1.304694872823497e-05, 1.3047077732750093e-05,
            1.3047141507472138e-05, 1.303430162668226e-05,
            1.2500982211276045e-05, 9.9725731528944236e-06,
            6.1661762873805799e-06, 3.4932278082804864e-06,
            1.8787667682537068e-06, 9.5679783212936e-07,
            4.9274003367709973e-07, 2.2597122004638761e-07
         }},
    };
    return nodes;
}

TEST(SwecSolveReuse, Mesh16StaysWithin1nVOfRefactorEveryStep) {
    SimSession session(refckt::builtin_circuit("mesh:16x16"));
    TranSpec tran;
    tran.t_stop = 200e-9;
    const AnalysisResult result = session.run(tran);
    const engines::TranResult& tr = result.tran();

    EXPECT_EQ(tr.steps_accepted, k_oracle_steps);
    // Most steps reuse the LU: at most a quarter refactor.
    EXPECT_LE(tr.solver_full_factors, 1u); // the DC operating point
    EXPECT_GT(tr.solver_reused_solves, 0u);
    EXPECT_LE(4 * tr.solver_fast_refactors,
              static_cast<std::size_t>(tr.steps_accepted));
    EXPECT_GE(tr.solver_refinement_sweeps, tr.solver_reused_solves);

    double worst = 0.0;
    for (const OracleNode& node : oracle_nodes()) {
        const analysis::Waveform& w = tr.node(session.circuit(), node.name);
        ASSERT_EQ(node.v.size(), 41u);
        for (std::size_t k = 0; k < node.v.size(); ++k) {
            const double t = 200e-9 * static_cast<double>(k) / 40.0;
            const double dv = std::abs(w.at(t) - node.v[k]);
            worst = std::max(worst, dv);
            EXPECT_LE(dv, 1e-9) << node.name << " at t = " << t;
        }
    }
    std::printf("[oracle] max |dv| = %.3g V over 3 nodes x 41 points\n",
                worst);
}

// ---- SystemCache contract ---------------------------------------------

/// 10x10 RC mesh: 102 unknowns, far above the dense threshold.
const mna::MnaAssembler& mesh_assembler() {
    static const Circuit ckt = refckt::rc_mesh(10, 10);
    static const mna::MnaAssembler assembler(ckt);
    return assembler;
}

/// The values the test stamps: G + scale * C + diag on every node row.
struct Stamp {
    double scale;
    double diag;
};

void stamp(SystemCache& cache, const mna::MnaAssembler& a, const Stamp& s,
           linalg::Vector& rhs) {
    cache.begin(s.scale, rhs);
    for (int i = 0; i < a.num_nodes(); ++i) {
        cache.add_node_diag(static_cast<std::size_t>(i), s.diag);
    }
}

/// Independent dense copy of the stamped matrix.
linalg::DenseMatrix dense_of(const mna::MnaAssembler& a, const Stamp& s) {
    const auto n = static_cast<std::size_t>(a.unknowns());
    linalg::DenseMatrix m(n, n);
    for (const auto& e : a.static_g().entries()) {
        m(e.row, e.col) += e.value;
    }
    for (const auto& e : a.c_triplets().entries()) {
        m(e.row, e.col) += s.scale * e.value;
    }
    for (int i = 0; i < a.num_nodes(); ++i) {
        const auto r = static_cast<std::size_t>(i);
        m(r, r) += s.diag;
    }
    return m;
}

/// ||b - A x|| / (||A|| ||x|| + ||b||), infinity norms.
double backward_error(const linalg::DenseMatrix& a, const linalg::Vector& b,
                      const linalg::Vector& x) {
    double r_norm = 0.0;
    double a_norm = 0.0;
    double x_norm = 0.0;
    double b_norm = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double r = b[i];
        double row = 0.0;
        for (std::size_t j = 0; j < x.size(); ++j) {
            r -= a(i, j) * x[j];
            row += std::abs(a(i, j));
        }
        r_norm = std::max(r_norm, std::abs(r));
        a_norm = std::max(a_norm, row);
        x_norm = std::max(x_norm, std::abs(x[i]));
        b_norm = std::max(b_norm, std::abs(b[i]));
    }
    return r_norm / (a_norm * x_norm + b_norm);
}

linalg::Vector test_rhs(std::size_t n) {
    linalg::Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = 1e-3 * (1.0 + 0.01 * static_cast<double>(i));
    }
    return b;
}

TEST(SolveReusing, DriftingMatrixReusesWithinBackwardErrorBound) {
    const mna::MnaAssembler& a = mesh_assembler();
    SystemCache cache(a);
    ASSERT_FALSE(cache.dense_path());
    const std::size_t n = cache.unknowns();
    linalg::Vector rhs = test_rhs(n);

    Stamp s{1.0 / 10e-12, 1e-3}; // C/h at h = 10 ps
    stamp(cache, a, s, rhs);
    const linalg::Vector first = cache.solve(rhs);
    EXPECT_LE(backward_error(dense_of(a, s), rhs, first),
              SystemCache::k_reuse_backward_error);
    const std::size_t factors = cache.stats().full_factors;

    linalg::Vector x;
    constexpr int k_steps = 40;
    for (int k = 1; k <= k_steps; ++k) {
        // Step-size and chord-like drift of SWEC's size between two
        // steps: a few parts in 1e5.  It piles up against the held LU
        // until refinement no longer converges in time; that step
        // refactors and the next ones reuse the new LU.
        s.scale *= 1.00001;
        s.diag *= 1.00003;
        rhs = test_rhs(n);
        stamp(cache, a, s, rhs);
        const SystemCache::Stats before = cache.stats();
        cache.solve_reusing(rhs, x);
        const SystemCache::Stats& after = cache.stats();
        EXPECT_EQ(after.steps, before.steps + 1);
        EXPECT_LE(after.refinement_sweeps - before.refinement_sweeps,
                  static_cast<std::size_t>(
                      SystemCache::k_max_refinement_sweeps));
        // Either reused, or refactored (never both, never neither).
        EXPECT_EQ(after.reused_solves + after.fast_refactors,
                  before.reused_solves + before.fast_refactors + 1)
            << "step " << k;
        EXPECT_LE(backward_error(dense_of(a, s), rhs, x),
                  SystemCache::k_reuse_backward_error)
            << "step " << k;
    }
    EXPECT_EQ(cache.stats().full_factors, factors);
    EXPECT_GE(4 * cache.stats().reused_solves,
              3 * static_cast<std::size_t>(k_steps));
    EXPECT_GT(cache.stats().fast_refactors, 0u);
    EXPECT_GE(cache.stats().refinement_sweeps, cache.stats().reused_solves);
}

TEST(SolveReusing, ValueJumpForcesRefactor) {
    const mna::MnaAssembler& a = mesh_assembler();
    SystemCache cache(a);
    const std::size_t n = cache.unknowns();
    linalg::Vector rhs = test_rhs(n);
    Stamp s{1e1, 1e-3};
    stamp(cache, a, s, rhs);
    (void)cache.solve(rhs);

    // Node conductances 1e6 times larger: the held LU is no preconditioner
    // for this matrix, so refinement diverges and the cache refactors.
    s.diag = 1e3;
    rhs = test_rhs(n);
    stamp(cache, a, s, rhs);
    const SystemCache::Stats before = cache.stats();
    linalg::Vector x;
    cache.solve_reusing(rhs, x);
    const SystemCache::Stats& after = cache.stats();
    EXPECT_EQ(after.reused_solves, before.reused_solves);
    EXPECT_EQ(after.fast_refactors + after.full_factors,
              before.fast_refactors + before.full_factors + 1);
    EXPECT_EQ(after.refinement_sweeps - before.refinement_sweeps,
              static_cast<std::size_t>(
                  SystemCache::k_max_refinement_sweeps));
    // The refactored answer is solve()'s, bit for bit.
    const linalg::Vector plain = cache.solve(rhs);
    EXPECT_EQ(x, plain);
    EXPECT_LE(backward_error(dense_of(a, s), rhs, x), 1e-15);
}

TEST(SolveReusing, OverflowStampTakesThePlainPath) {
    const mna::MnaAssembler& a = mesh_assembler();
    SystemCache cache(a);
    const std::size_t n = cache.unknowns();
    linalg::Vector rhs = test_rhs(n);
    const Stamp s{1e1, 1e-3};
    stamp(cache, a, s, rhs);
    (void)cache.solve(rhs);

    // (0, n - 2) couples the mesh's first and last node rows: outside
    // the frozen pattern.
    rhs = test_rhs(n);
    stamp(cache, a, s, rhs);
    cache.add_entry(0, n - 2, 1e-9);
    const SystemCache::Stats before = cache.stats();
    linalg::Vector x;
    cache.solve_reusing(rhs, x);
    EXPECT_EQ(cache.stats().pattern_rebuilds, before.pattern_rebuilds + 1);
    EXPECT_EQ(cache.stats().reused_solves, before.reused_solves);
    EXPECT_EQ(cache.stats().refinement_sweeps, before.refinement_sweeps);
    linalg::DenseMatrix m = dense_of(a, s);
    m(0, n - 2) += 1e-9;
    EXPECT_LE(backward_error(m, rhs, x), 1e-15);

    // The re-freeze dropped the LU: the next reuse call factors afresh.
    rhs = test_rhs(n);
    stamp(cache, a, s, rhs);
    const std::size_t full = cache.stats().full_factors;
    cache.solve_reusing(rhs, x);
    EXPECT_EQ(cache.stats().full_factors, full + 1);
    EXPECT_EQ(cache.stats().reused_solves, before.reused_solves);
}

TEST(SolveReusing, DenseSystemsAndAColdCacheFactor) {
    // 4x4 mesh: 17 unknowns, dense path.
    const Circuit small = refckt::rc_mesh(4, 4);
    const mna::MnaAssembler a(small);
    SystemCache dense(a);
    ASSERT_TRUE(dense.dense_path());
    linalg::Vector rhs = test_rhs(dense.unknowns());
    linalg::Vector x;
    for (int k = 0; k < 3; ++k) {
        stamp(dense, a, Stamp{1e1, 1e-3}, rhs);
        dense.solve_reusing(rhs, x);
    }
    EXPECT_EQ(dense.stats().dense_solves, 3u);
    EXPECT_EQ(dense.stats().reused_solves, 0u);

    // No LU yet: the first call factors.
    SystemCache cold(mesh_assembler());
    rhs = test_rhs(cold.unknowns());
    stamp(cold, mesh_assembler(), Stamp{1e1, 1e-3}, rhs);
    cold.solve_reusing(rhs, x);
    EXPECT_EQ(cold.stats().full_factors, 1u);
    EXPECT_EQ(cold.stats().reused_solves, 0u);
}

TEST(SolveReusing, CountedFailPointsFireOnTheSameCallsAsSolve) {
    const mna::MnaAssembler& a = mesh_assembler();
    SystemCache cache(a);
    linalg::Vector rhs = test_rhs(cache.unknowns());
    stamp(cache, a, Stamp{1e1, 1e-3}, rhs);
    (void)cache.solve(rhs);

    failpoints::arm_from_spec("linalg.singular_pivot=1in3");
    std::vector<int> fired_at;
    linalg::Vector x;
    for (int call = 1; call <= 6; ++call) {
        stamp(cache, a, Stamp{1e1, 1e-3}, rhs);
        try {
            if (call % 2 == 0) {
                cache.solve_reusing(rhs, x);
            } else {
                (void)cache.solve(rhs);
            }
        } catch (const SingularMatrixError&) {
            fired_at.push_back(call);
        }
    }
    // Every call of either entry is one evaluation of the site.
    EXPECT_EQ(fired_at, (std::vector<int>{3, 6}));

    // The overflow point forces the triplet path through either entry.
    failpoints::arm_from_spec("linalg.singular_pivot=off,"
                              "mna.pattern_overflow=always");
    const std::size_t rebuilds = cache.stats().pattern_rebuilds;
    stamp(cache, a, Stamp{1e1, 1e-3}, rhs);
    cache.solve_reusing(rhs, x);
    EXPECT_EQ(cache.stats().pattern_rebuilds, rebuilds + 1);
    failpoints::disarm_all();
}

} // namespace
} // namespace nanosim
