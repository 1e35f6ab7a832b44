// Nano-Sim bench — trial-batched Monte-Carlo driver.
//
//   $ ./bench_mc_batch [mc_runs] [out.json] [mesh]
//
// Runs the mc_runs-trial Monte-Carlo on an MxM RTD mesh (an RTD at every
// node, white-noise current at the centre — BENCH_device_eval.json's MC
// workload) through the serial driver and the trial-batched driver
// (engines/mc_batch.hpp) at widths {1, 2, 4, 8} with 1 and 4 lane
// workers, every run warm-started from the same operating point through
// its own fresh solver cache.
//
// Gates (exit code 1 on any failure):
//   * bit-identity, ALWAYS: every batched width must reproduce the
//     serial driver's step grids, mean/stddev waveforms and per-trial
//     accepted-step sequences exactly (memcmp, not a tolerance);
//   * speedup, full runs on >= 4 hardware threads only: width 8 with 4
//     lane workers must beat the single serial run (the best serial
//     configuration: the serial driver has no threads) by >= 1.5x wall
//     clock.  The CI smoke run (small mc_runs / mesh) checks identity
//     only.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/mc_batch.hpp"
#include "engines/monte_carlo.hpp"
#include "mna/system_cache.hpp"
#include "runtime/execution_policy.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace nanosim;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// MxM RC mesh, RTD at every node, white-noise current at the centre.
Circuit make_mesh(int mesh) {
    refckt::MeshSpec spec;
    spec.rows = mesh;
    spec.cols = mesh;
    spec.rtd_stride = 1;
    Circuit ckt = refckt::rc_mesh(spec);
    const std::string center = "n" + std::to_string(mesh / 2) + "_" +
                               std::to_string(mesh / 2);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node(center),
                                1e-9);
    return ckt;
}

/// One Monte-Carlo run: mean/stddev, step fingerprints, wall time, cache
/// work.  width 0 = serial driver, otherwise the batched driver with
/// `threads` lane workers.
struct McRun {
    std::vector<analysis::Waveform> waves; ///< {mean, stddev}
    std::vector<int> trial_steps;
    double ms = 0.0;
    mna::SystemCache::Stats stats;
};

McRun run_mc(const mna::MnaAssembler& assembler, NodeId node, int mc_runs,
             int width, int threads) {
    mna::SystemCache cache(assembler);
    // Warm start every trial from the shared operating point (computed
    // once per run through the same cache; excluded from the timing).
    const engines::DcResult op =
        engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache);

    engines::McOptions mc;
    mc.runs = mc_runs;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.start_from_dc = false;
    mc.tran.initial = op.x;
    mc.tran.dt_init = mc.noise_dt;

    stochastic::Rng rng(1);
    const auto t0 = Clock::now();
    engines::McResult res =
        width > 0 ? engines::run_monte_carlo_batched(
                        assembler, mc, rng, node, width, nullptr, &cache,
                        runtime::ExecutionPolicy{threads})
                  : engines::run_monte_carlo(assembler, mc, rng, node,
                                             nullptr, &cache);
    McRun out;
    out.ms = ms_since(t0);
    out.waves.push_back(std::move(res.mean));
    out.waves.push_back(std::move(res.stddev));
    out.trial_steps = std::move(res.trial_steps);
    out.stats = cache.stats();
    return out;
}

/// Bitwise comparison of two waveform sets; max |a-b| (0.0 when
/// bit-identical), `same_grid` false on any structural/time mismatch.
double exact_deviation(const std::vector<analysis::Waveform>& a,
                       const std::vector<analysis::Waveform>& b,
                       bool& same_grid) {
    same_grid = a.size() == b.size();
    double dev = 0.0;
    for (std::size_t w = 0; same_grid && w < a.size(); ++w) {
        if (a[w].size() != b[w].size()) {
            same_grid = false;
            break;
        }
        for (std::size_t i = 0; i < a[w].size(); ++i) {
            if (std::memcmp(&a[w].time()[i], &b[w].time()[i],
                            sizeof(double)) != 0) {
                same_grid = false;
            }
            dev = std::max(dev,
                           std::abs(a[w].value_at(i) - b[w].value_at(i)));
        }
    }
    if (!same_grid) {
        dev = std::max(dev, 1.0); // structural mismatch: force a failure
    }
    return dev;
}

struct WidthReport {
    int width = 0;
    int threads = 1;
    double ms = 0.0;
    double speedup = 0.0; ///< serial / this
    double dev = 0.0;
    bool identical = false; ///< grids + values + step sequences
    std::size_t batched_solves = 0;
    std::size_t shared_factor_solves = 0;
    std::size_t fast_refactors = 0;
};

} // namespace

int main(int argc, char** argv) {
    const int mc_runs = argc > 1 ? std::stoi(argv[1]) : 100;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string("BENCH_mc_batch.json");
    const int mesh = argc > 3 ? std::stoi(argv[3]) : 32;
    const bool full_run = mc_runs >= 50;
    const unsigned hw = std::thread::hardware_concurrency();
    const int pool_threads = 4;
    const bool gate_speedup = full_run && hw >= 4;
    constexpr double k_speedup_gate = 1.5;
    constexpr int k_gated_width = 8;

    nanosim::bench::banner(
        "mc_batch",
        "serial vs trial-batched Monte-Carlo driver (" +
            std::to_string(mc_runs) + "-trial " + std::to_string(mesh) +
            "x" + std::to_string(mesh) + " RTD-mesh MC, widths 1/2/4/8)");

    const Circuit ckt = make_mesh(mesh);
    const mna::MnaAssembler assembler(ckt);
    const std::string center = "n" + std::to_string(mesh / 2) + "_" +
                               std::to_string(mesh / 2);
    const NodeId node = ckt.find_node(center);
    std::cout << "  " << assembler.unknowns() << " unknowns, "
              << mc_runs << " trials, " << hw << " hardware threads\n";

    bool pass = true;

    nanosim::bench::section("serial baseline");
    const McRun serial = run_mc(assembler, node, mc_runs, 0, 1);
    std::cout << std::fixed << std::setprecision(2) << "  serial "
              << std::setw(9) << serial.ms << " ms\n";

    std::vector<WidthReport> reports;
    for (const int width : {1, 2, 4, 8}) {
        // Identity must hold at every worker count; the speedup gate
        // times the pool width against the one serial run.
        for (const int threads : {1, pool_threads}) {
            const McRun batched =
                run_mc(assembler, node, mc_runs, width, threads);
            WidthReport rep;
            rep.width = width;
            rep.threads = threads;
            rep.ms = batched.ms;
            rep.speedup = batched.ms > 0.0 ? serial.ms / batched.ms : 0.0;
            bool same = false;
            rep.dev = exact_deviation(batched.waves, serial.waves, same);
            rep.identical = same && rep.dev == 0.0 &&
                            batched.trial_steps == serial.trial_steps;
            rep.batched_solves = batched.stats.batched_solves;
            rep.shared_factor_solves = batched.stats.shared_factor_solves;
            rep.fast_refactors = batched.stats.fast_refactors;

            std::cout << "  width " << width << " x" << threads
                      << " threads: " << std::setw(9) << rep.ms << " ms | "
                      << std::setprecision(2) << rep.speedup
                      << "x vs serial | "
                      << (rep.identical ? "bit-identical" : "DIVERGED")
                      << " | " << rep.batched_solves << " batched solves, "
                      << rep.shared_factor_solves << " shared-factor\n";
            if (!rep.identical) {
                std::cout << "  FAIL: batched driver must be bit-identical "
                             "to serial at every width\n";
                pass = false;
            }
            if (gate_speedup && width == k_gated_width &&
                threads == pool_threads &&
                rep.speedup < k_speedup_gate) {
                std::cout << "  FAIL: width " << k_gated_width << " under the "
                          << k_speedup_gate << "x speedup gate\n";
                pass = false;
            }
            reports.push_back(rep);
        }
    }

    std::ofstream json(out_path);
    json << std::scientific << std::setprecision(9);
    json << "{\n  \"bench\": \"mc_batch\",\n"
         << "  \"mc_runs\": " << mc_runs << ",\n"
         << "  \"mesh\": " << mesh << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"identity_gate\": \"bit-identical\",\n"
         << "  \"speedup_gate\": " << k_speedup_gate << ",\n"
         << "  \"speedup_gate_active\": " << (gate_speedup ? "true" : "false")
         << ",\n  \"serial_ms\": " << serial.ms << ",\n"
         << "  \"widths\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WidthReport& r = reports[i];
        json << "    {\"width\": " << r.width << ", \"threads\": "
             << r.threads << ", \"ms\": " << r.ms << ", \"speedup\": "
             << r.speedup << ", \"dev\": " << r.dev
             << ", \"bit_identical\": " << (r.identical ? "true" : "false")
             << ", \"batched_solves\": " << r.batched_solves
             << ", \"shared_factor_solves\": " << r.shared_factor_solves
             << ", \"fast_refactors\": " << r.fast_refactors << "}"
             << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::cout << "\nwrote " << out_path << (pass ? " (pass)" : " (FAIL)")
              << "\n";
    return pass ? 0 : 1;
}
