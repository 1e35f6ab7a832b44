// Timing gates: each test measures one cost, prints it next to its bound
// and asserts the bound.  Wall-clock comparisons take the best of
// interleaved runs, the least-disturbed sample on a shared host.  The
// disabled-overhead gates predict the overhead from two reproducible
// numbers, the per-site cost and the exact site count of a run, instead
// of comparing two noisy wall-clock populations.  CMake labels this test
// `perf` and runs it serially; sanitizer builds skip it (`ctest -LE
// perf`), since a timed loop under a sanitizer times the sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "gate_workloads.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/failpoints.hpp"

namespace nanosim {
namespace {

namespace gw = gate_workloads;
using Clock = std::chrono::steady_clock;

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double seconds(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best (smallest) wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
    double best = seconds(fn);
    for (int r = 1; r < reps; ++r) {
        best = std::min(best, seconds(fn));
    }
    return best;
}

/// One measured value next to its bound, in the test log.
void report(const std::string& what, double value, const char* bound) {
    std::printf("[perf] %-58s %10.4g   bound %s\n", what.c_str(), value,
                bound);
    std::fflush(stdout);
}

/// ns per evaluation of `site`, best of three 2^22-iteration loops.
template <typename Site>
double site_ns(Site&& site) {
    constexpr std::int64_t k_iters = 1 << 22;
    const double s = best_of(3, [&] {
        for (std::int64_t i = 0; i < k_iters; ++i) {
            site();
        }
    });
    return 1e9 * s / static_cast<double>(k_iters);
}

TEST(PerfGates, RefactorFasterThanFreshFactorOnRtdChains) {
    for (const int stages : {100, 200, 400, 800}) {
        refckt::ChainSpec spec;
        spec.stages = stages;
        const Circuit ckt = refckt::rtd_chain(spec);
        const mna::MnaAssembler assembler(ckt);
        const linalg::Triplets a = mna::swec_step_matrix(assembler, 1e-10);

        const double fresh_s =
            best_of(20, [&] { const linalg::SparseLu lu(a); });
        // Values in cached pattern order, nudged each rep so the numeric
        // sweep never sees the same matrix twice.
        linalg::SparseLu lu(a);
        std::vector<double> values = linalg::compress_columns(a).values;
        const double refactor_s = best_of(20, [&] {
            for (double& v : values) {
                v *= 1.0 + 1e-9;
            }
            ASSERT_TRUE(lu.refactor(std::span<const double>(values)));
        });

        const std::string label =
            "rtd_chain " + std::to_string(stages) + ": fresh/refactor";
        report(label, fresh_s / refactor_s, "> 1");
        EXPECT_LT(refactor_s, fresh_s) << label;
    }
}

TEST(PerfGates, SessionBatchFasterThanPerCallOnSparseMesh) {
    const gw::Batch batch = gw::mesh_batch(16);
    constexpr int k_runs = 20;
    double session_s = 1e300;
    double percall_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) { // interleaved, best of each
        session_s = std::min(session_s, seconds([&] {
            (void)gw::run_session_batch(batch, k_runs);
        }));
        percall_s = std::min(percall_s, seconds([&] {
            (void)gw::run_percall_batch(batch, k_runs);
        }));
    }
    const double speedup = percall_s / session_s;
    report("16x16 mesh {op, dc, tran, 20-trial MC}: per-call/session",
           speedup, "> 1.02");
    EXPECT_GT(speedup, 1.02);
}

TEST(PerfGates, TablesFasterThanExactModelsOnRtdMeshMonteCarlo) {
    const Circuit ckt = gw::noisy_mesh(16, 1);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node(gw::centre(16));
    constexpr int k_runs = 20;
    double exact_s = 1e300;
    double tables_s = 1e300;
    double exact_eval_s = 1e300;
    double tables_eval_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) { // interleaved, best of each
        const gw::TablesMc exact =
            gw::run_rtd_mesh_mc(assembler, node, k_runs, false);
        const gw::TablesMc tables =
            gw::run_rtd_mesh_mc(assembler, node, k_runs, true);
        exact_s = std::min(exact_s, exact.wall_s);
        exact_eval_s = std::min(exact_eval_s, exact.eval_s);
        tables_s = std::min(tables_s, tables.wall_s);
        tables_eval_s = std::min(tables_eval_s, tables.eval_s);
    }
    report("16x16 RTD mesh, 20-trial MC: wall exact/tables",
           exact_s / tables_s, "> 1");
    report("16x16 RTD mesh, 20-trial MC: eval_s exact/tables",
           exact_eval_s / tables_eval_s, "> 1");
    EXPECT_LT(tables_s, exact_s);
    EXPECT_LT(tables_eval_s, exact_eval_s);
}

TEST(PerfGates, DisabledTelemetryIsNearFree) {
    obs::set_metrics_enabled(false);
    obs::stop_trace();
    // The code every instrumented hot loop runs while telemetry is idle:
    // a Span whose constructor sees tracing off, plus the metrics gate.
    std::uint64_t sink = 0;
    const double ns = site_ns([&sink] {
        const obs::Span span("perf", "obs");
        sink += obs::metrics_enabled() ? 1u : 0u;
        asm volatile("" : : "r"(&span) : "memory");
    });
    EXPECT_EQ(sink, 0u);

    constexpr int k_mesh = 10;
    constexpr int k_runs = 8;
    const double off_s =
        best_of(3, [] { (void)gw::run_mesh_mc(k_mesh, k_runs); });
    obs::set_metrics_enabled(true);
    obs::start_trace();
    (void)gw::run_mesh_mc(k_mesh, k_runs);
    obs::stop_trace();
    obs::set_metrics_enabled(false);
    const std::size_t spans = obs::trace_event_count();
    ASSERT_GT(spans, 0u);
    // Every span site costs about `ns` when idle; the metric gates are
    // the same check, covered by doubling.
    const double predicted_pct =
        100.0 * 2.0 * static_cast<double>(spans) * ns * 1e-9 / off_s;

    report("disabled span + metrics gate, ns/site", ns, "<= 50");
    report("predicted disabled telemetry overhead, %", predicted_pct,
           "<= 2");
    EXPECT_LE(ns, 50.0);
    EXPECT_LE(predicted_pct, 2.0);
}

TEST(PerfGates, DisabledFailPointsAreNearFree) {
    failpoints::disarm_all();
    auto& probe = failpoints::site("perf.disabled_probe");
    std::uint64_t sink = 0;
    const double ns = site_ns([&] {
        sink += failpoints::fire(probe) ? 1u : 0u;
        asm volatile("" : : "r"(&sink) : "memory");
    });
    EXPECT_EQ(sink, 0u);

    constexpr int k_mesh = 8;
    constexpr int k_runs = 12;
    const double off_s =
        best_of(3, [] { (void)gw::run_mesh_mc(k_mesh, k_runs); });
    // Armed at an unreachable Nth evaluation: the gate is open, every
    // site counts its evaluations, nothing fires.  The count is the
    // exact number of gate checks a disabled run pays.
    const auto evaluations = [] {
        std::uint64_t total = 0;
        for (const auto& [name, mode] : failpoints::catalog()) {
            total += failpoints::site(name.c_str()).evaluations();
        }
        return total;
    };
    failpoints::arm_from_spec("mc.trial_fail=1000000000,"
                              "linalg.singular_pivot=1000000000");
    const std::uint64_t before = evaluations();
    (void)gw::run_mesh_mc(k_mesh, k_runs);
    const std::uint64_t checks = evaluations() - before;
    failpoints::disarm_all();
    ASSERT_GT(checks, 0u);
    // Doubled for headroom, as the telemetry gate.
    const double predicted_pct =
        100.0 * 2.0 * static_cast<double>(checks) * ns * 1e-9 / off_s;

    report("disabled fail point, ns/site", ns, "<= 25");
    report("predicted disabled fail-point overhead, %", predicted_pct,
           "<= 1");
    EXPECT_LE(ns, 25.0);
    EXPECT_LE(predicted_pct, 1.0);
}

} // namespace
} // namespace nanosim
