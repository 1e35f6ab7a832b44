// Numeric refactorisation suite: the one refactor sweep behind
// SparseLu::refactor().
//
// The contracts under test:
//
//  * refactor(v) produces L/U factors and solutions BIT-IDENTICAL to a
//    fresh factorisation of v while the recorded pivots hold (memcmp,
//    not a tolerance), and is a fixed point on repeated values;
//  * a degraded pivot falls back deterministically: the same verdict,
//    the same full_factor/fast_refactor counters and the factors of a
//    fresh factorisation of the degraded values;
//  * a FAILED fast-refactor attempt bills zero flops — the fallback full
//    factorisation accounts for the step exactly once (the historical
//    double-count regression);
//  * the circuit-level path (SystemCache / SimSession) inherits all of
//    the above, including the pivot_fallbacks counter algebra: one
//    fallback = full_factors + 1 and pivot_fallbacks + 1, never
//    fast_refactors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "util/flops.hpp"

namespace nanosim {
namespace {

using linalg::SparseLu;
using linalg::Triplets;
using linalg::Vector;

bool bit_identical(const Vector& a, const Vector& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// k x k 5-point grid Laplacian with a dominant diagonal — the canonical
/// mesh pattern whose elimination tree has wide levels (lots of
/// independent columns for the schedule to exploit).
Triplets laplacian2d(std::size_t k, double diag = 8.0) {
    const std::size_t n = k * k;
    Triplets a(n, n);
    for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
            const std::size_t i = r * k + c;
            a.add(i, i, diag + 0.01 * static_cast<double>(i % 7));
            if (r + 1 < k) {
                a.add(i, i + k, -1.0);
                a.add(i + k, i, -1.0);
            }
            if (c + 1 < k) {
                a.add(i, i + 1, -1.0);
                a.add(i + 1, i, -1.0);
            }
        }
    }
    return a;
}

/// Same pattern, deterministically perturbed values (diagonal dominance
/// preserved so the recorded pivot sequence stays usable).
Triplets perturb(const Triplets& a, std::uint32_t seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(0.9, 1.1);
    Triplets out(a.rows(), a.cols());
    for (const auto& e : a.entries()) {
        out.add(e.row, e.col, e.value * dist(gen));
    }
    return out;
}

/// Caller-order CSC pattern of a mesh plus a fill-reducing ordering —
/// the same ordering family SystemCache auto-selects for mesh circuits,
/// so the permuted gather path is exercised.  A permuted SparseLu only
/// refactors through the cached-pattern span overload (values in caller
/// slot order), hence slots().
struct OrderedMesh {
    std::vector<std::size_t> col_ptr;
    std::vector<std::size_t> row_idx;
    linalg::Permutation perm;

    /// Values of `t` (which must share the pattern) in caller slot order.
    [[nodiscard]] std::vector<double> slots(const Triplets& t) const {
        std::vector<double> v(row_idx.size(), 0.0);
        for (const auto& e : t.entries()) {
            for (std::size_t p = col_ptr[e.col]; p < col_ptr[e.col + 1];
                 ++p) {
                if (row_idx[p] == e.row) {
                    v[p] += e.value;
                    break;
                }
            }
        }
        return v;
    }
};

OrderedMesh analyse_mesh(const Triplets& a) {
    const SparseLu probe(a); // natural probe: caller-order pattern
    OrderedMesh out;
    out.col_ptr = probe.pattern_col_ptr();
    out.row_idx = probe.pattern_row_idx();
    out.perm =
        linalg::min_degree_ordering(probe.order(), out.col_ptr, out.row_idx);
    return out;
}

Vector make_rhs(std::size_t n, std::uint32_t seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Vector b(n);
    for (auto& v : b) {
        v = dist(gen);
    }
    return b;
}

/// Blow up both orientations of the grid edge (k, k+grid) to 1e9:
/// whichever of the two columns is eliminated later (under any
/// ordering), its recorded O(1) diagonal pivot drops below
/// k_refactor_pivot_ratio of the new below-diagonal candidate — a
/// rescue by elimination fill-in is impossible against nine decades —
/// so refactor() must fall back to full re-pivoting (which then pivots
/// on the huge row instead).
Triplets degrade_pivot(const Triplets& a, std::size_t k, std::size_t grid) {
    Triplets out(a.rows(), a.cols());
    for (const auto& e : a.entries()) {
        const bool edge = (e.row == k + grid && e.col == k) ||
                          (e.row == k && e.col == k + grid);
        out.add(e.row, e.col, edge ? -1e9 : e.value);
    }
    return out;
}

/// L/U planes and solution of one factorisation, for bitwise comparison.
struct Factors {
    std::vector<double> l, u;
    Vector x;
};

Factors snapshot(const SparseLu& lu, const Vector& b) {
    return {{lu.l_values().begin(), lu.l_values().end()},
            {lu.u_values().begin(), lu.u_values().end()},
            lu.solve(b)};
}

void expect_same_factors(const Factors& a, const Factors& b) {
    EXPECT_TRUE(bit_identical(std::span<const double>(a.l),
                              std::span<const double>(b.l)))
        << "L diverged";
    EXPECT_TRUE(bit_identical(std::span<const double>(a.u),
                              std::span<const double>(b.u)))
        << "U diverged";
    EXPECT_TRUE(bit_identical(a.x, b.x)) << "x diverged";
}

// ---- SparseLu level: refactor == fresh factorisation ----------------------

TEST(FactorRefactor, GridRefactorMatchesFreshFactorisation) {
    const std::size_t k = 10;
    const Triplets a = laplacian2d(k);
    const OrderedMesh mesh = analyse_mesh(a);
    const Vector b = make_rhs(k * k, 42);

    SparseLu lu(a, mesh.perm);
    for (std::uint32_t r = 0; r < 3; ++r) {
        const Triplets round = perturb(a, 100 + r);
        const std::vector<double> values = mesh.slots(round);
        ASSERT_TRUE(lu.refactor(std::span<const double>(values)));
        const SparseLu fresh(round, mesh.perm);
        expect_same_factors(snapshot(lu, b), snapshot(fresh, b));
    }
    EXPECT_EQ(lu.full_factor_count(), 1u);
    EXPECT_EQ(lu.fast_refactor_count(), 3u);
}

TEST(FactorRefactor, RefactorIsBitStableAcrossRepeats) {
    // Refactoring the same values again must be a fixed point.
    const Triplets a = laplacian2d(9); // n = 81
    const Vector b = make_rhs(81, 3);
    SparseLu lu(a);
    const Vector x0 = lu.solve(b);
    for (int r = 0; r < 5; ++r) {
        ASSERT_TRUE(lu.refactor(a));
        ASSERT_TRUE(bit_identical(x0, lu.solve(b))) << "repeat " << r;
    }
    EXPECT_EQ(lu.full_factor_count(), 1u);
    EXPECT_EQ(lu.fast_refactor_count(), 5u);
}

// ---- SparseLu level: deterministic fallback --------------------------------

TEST(FactorRefactor, FallbackMatchesFreshFactorisation) {
    const std::size_t k = 10;
    const std::size_t n = k * k;
    const Triplets a = laplacian2d(k);
    const Triplets degraded = degrade_pivot(a, 57, k);
    const OrderedMesh mesh = analyse_mesh(a);
    const std::vector<double> degraded_slots = mesh.slots(degraded);
    const Vector b = make_rhs(n, 17);

    // The degraded pivot forces the fallback, which re-pivots exactly as
    // a fresh factorisation of the degraded values does.
    SparseLu lu(a, mesh.perm);
    ASSERT_FALSE(lu.refactor(std::span<const double>(degraded_slots)));
    EXPECT_EQ(lu.full_factor_count(), 2u);
    EXPECT_EQ(lu.fast_refactor_count(), 0u);
    const SparseLu fresh(degraded, mesh.perm);
    const Factors ref = snapshot(fresh, b);
    expect_same_factors(snapshot(lu, b), ref);

    // The re-pivoted factorisation must still be correct.
    const Vector x_dense = linalg::lu_solve(degraded.to_dense(), b);
    EXPECT_LT(linalg::max_abs_diff(ref.x, x_dense),
              1e-8 * std::max(1.0, linalg::norm_inf(x_dense)));

    // Same values again: the re-pivoted factorisation is now cached.
    ASSERT_TRUE(lu.refactor(std::span<const double>(degraded_slots)));
    expect_same_factors(snapshot(lu, b), ref);

    // A second factoriser walks the same path to the same verdict.
    SparseLu again(a, mesh.perm);
    EXPECT_FALSE(again.refactor(std::span<const double>(degraded_slots)));
    EXPECT_EQ(again.full_factor_count(), 2u);
    expect_same_factors(snapshot(again, b), ref);
}

TEST(FactorRefactor, FailedAttemptBillsNoFlops) {
    // Counter-algebra regression (historical double-count): a failed fast
    // refactor must bill ZERO flops — the total billed by the whole
    // refactor() call equals a from-scratch full factorisation of the
    // same values.
    const std::size_t k = 10;
    const Triplets a = laplacian2d(k);
    const Triplets degraded = degrade_pivot(a, 57, k);
    const OrderedMesh mesh = analyse_mesh(a);
    const std::vector<double> degraded_slots = mesh.slots(degraded);
    const std::vector<double> a_slots = mesh.slots(a);

    // Baseline: a fresh full factorisation of the degraded values under
    // the same ordering the refactor path will fall back through.
    std::uint64_t full_factor_flops = 0;
    {
        FlopScope scope;
        const SparseLu direct(degraded, mesh.perm);
        full_factor_flops = scope.counter().lu_factor;
    }
    ASSERT_GT(full_factor_flops, 0u);
    {
        SparseLu lu(a, mesh.perm);
        FlopScope scope;
        ASSERT_FALSE(lu.refactor(std::span<const double>(degraded_slots)));
        EXPECT_EQ(scope.counter().lu_factor, full_factor_flops)
            << "a failed attempt must bill nothing beyond the fallback "
               "full factorisation";
    }

    // Sanity: a SUCCESSFUL fast refactor does bill factor work.
    SparseLu lu(a, mesh.perm);
    FlopScope scope;
    ASSERT_TRUE(lu.refactor(std::span<const double>(a_slots)));
    EXPECT_GT(scope.counter().lu_factor, 0u);
}

// ---- SystemCache level: fallback counter algebra ---------------------------

/// Drive a SystemCache through factor -> fast refactor -> pivot-degrading
/// restamp (a huge off-diagonal pair overwhelms the recorded pivot) and
/// return the stats plus the three solutions.
struct CacheRun {
    Vector x_full, x_fast, x_degraded;
    mna::SystemCache::Stats stats;
};

CacheRun run_cache_fallback(const mna::MnaAssembler& assembler,
                            std::size_t r0, std::size_t r1) {
    mna::SystemCache cache(assembler);
    const auto nl = assembler.nonlinear_devices().size();
    const std::vector<double> geq(nl, 1e-3);

    CacheRun out;
    const auto step = [&](bool degrade) {
        Vector rhs = assembler.rhs(0.0);
        Stamper& st = cache.begin(1.0 / 1e-10, rhs);
        assembler.stamp_time_varying_into(0.0, st);
        assembler.stamp_swec_into(geq, st);
        if (degrade) {
            // Both orientations of an existing mesh edge: whichever
            // column position survives the ordering, the recorded pivot
            // degrades below k_refactor_pivot_ratio of the new candidate.
            cache.add_entry(r0, r1, -1e9);
            cache.add_entry(r1, r0, -1e9);
        }
        return cache.solve(rhs);
    };
    out.x_full = step(false);     // first solve: full factor
    out.x_fast = step(false);     // unchanged values: fast refactor
    out.x_degraded = step(true);  // degraded pivot: fallback
    out.stats = cache.stats();
    return out;
}

TEST(FactorRefactor, SystemCacheFallbackCountersAndDeterminism) {
    const Circuit ckt = refckt::rc_mesh(12, 12);
    const mna::MnaAssembler assembler(ckt);
    ASSERT_GE(assembler.unknowns(), 64); // sparse path
    const auto r0 = static_cast<std::size_t>(ckt.find_node("n0_0") - 1);
    const auto r1 = static_cast<std::size_t>(ckt.find_node("n0_1") - 1);

    const CacheRun run = run_cache_fallback(assembler, r0, r1);
    // Counter algebra: one fallback = full_factors + 1 and
    // pivot_fallbacks + 1; the fast counter never moves on a fallback.
    EXPECT_EQ(run.stats.full_factors, 2u);
    EXPECT_EQ(run.stats.pivot_fallbacks, 1u);
    EXPECT_EQ(run.stats.fast_refactors, 1u);

    // The degraded system is wildly different from the healthy one —
    // make sure the fallback actually resolved it.
    EXPECT_FALSE(bit_identical(run.x_full, run.x_degraded));
    EXPECT_TRUE(bit_identical(run.x_full, run.x_fast));

    // A second cache takes the same path to the same bits.
    const CacheRun again = run_cache_fallback(assembler, r0, r1);
    EXPECT_EQ(again.stats.full_factors, run.stats.full_factors);
    EXPECT_EQ(again.stats.fast_refactors, run.stats.fast_refactors);
    EXPECT_EQ(again.stats.pivot_fallbacks, run.stats.pivot_fallbacks);
    EXPECT_TRUE(bit_identical(again.x_full, run.x_full));
    EXPECT_TRUE(bit_identical(again.x_fast, run.x_fast));
    EXPECT_TRUE(bit_identical(again.x_degraded, run.x_degraded));
}

// ---- SimSession level: circuit analyses ------------------------------------

bool waves_bit_identical(const engines::TranResult& a,
                         const engines::TranResult& b) {
    if (a.node_waves.size() != b.node_waves.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.node_waves.size(); ++i) {
        const auto& wa = a.node_waves[i];
        const auto& wb = b.node_waves[i];
        if (wa.size() != wb.size() ||
            !bit_identical(std::span<const double>(wa.time()),
                           std::span<const double>(wb.time())) ||
            !bit_identical(std::span<const double>(wa.value()),
                           std::span<const double>(wb.value()))) {
            return false;
        }
    }
    return true;
}

TEST(FactorRefactor, SessionTransientBitIdenticalOnWarmCache) {
    // A repeat run on the same session starts with a refactor of the
    // cached symbolic analysis instead of a fresh factorisation — the
    // results must not tell the two apart.
    TranSpec spec;
    spec.t_stop = 40e-9;
    SimSession session(refckt::rc_mesh(12, 12));
    const AnalysisResult cold = session.run(spec);
    ASSERT_FALSE(cold.header.aborted);
    EXPECT_GT(cold.header.solver.fast_refactors +
                  cold.header.solver.reused_solves,
              0u);
    EXPECT_EQ(cold.header.solver.pivot_fallbacks, 0u);

    const AnalysisResult warm = session.run(spec);
    ASSERT_FALSE(warm.header.aborted);
    EXPECT_EQ(warm.header.solver.full_factors, 0u);
    EXPECT_TRUE(waves_bit_identical(warm.tran(), cold.tran()))
        << "warm-cache transient diverged from the cold run";

    SimSession other(refckt::rc_mesh(12, 12));
    const AnalysisResult fresh = other.run(spec);
    EXPECT_TRUE(waves_bit_identical(fresh.tran(), cold.tran()));
    EXPECT_EQ(fresh.header.solver.full_factors,
              cold.header.solver.full_factors);
    EXPECT_EQ(fresh.header.solver.fast_refactors,
              cold.header.solver.fast_refactors);
    EXPECT_EQ(fresh.header.solver.reused_solves,
              cold.header.solver.reused_solves);
}

TEST(FactorRefactor, SessionPowerGridOpBitIdenticalOnWarmCache) {
    SimSession session(refckt::power_grid(12, 12, 4));
    const AnalysisResult cold = session.run(OpSpec{});
    ASSERT_TRUE(cold.dc().converged);
    const AnalysisResult warm = session.run(OpSpec{});
    ASSERT_TRUE(warm.dc().converged);
    EXPECT_TRUE(bit_identical(warm.dc().x, cold.dc().x));
    EXPECT_EQ(warm.dc().iterations, cold.dc().iterations);
    EXPECT_EQ(warm.header.solver.full_factors, 0u);
}

} // namespace
} // namespace nanosim
