// Nano-Sim bench — device-evaluation fast path: StampProgram + tables.
//
//   $ ./bench_device_eval [mc_runs] [out.json] [mesh]
//
// Runs three workloads —
//
//   * fet_rtd_inverter   — 100 ns SWEC transient (dense solver path),
//   * rtd_mesh MxM       — 20 ns adaptive SWEC transient on an RTD-
//                          loaded RC mesh (sparse path),
//   * rtd_mesh MxM MC    — mc_runs-trial Monte-Carlo on an MxM mesh
//                          with an RTD at EVERY node (the device-eval
//                          stress version of BENCH_session.json's
//                          workload)
//
// — through two device-evaluation configurations:
//
//   * program  — the compiled StampProgram path: flat SoA per-class
//     evaluation + precomputed-slot scatters, exact closed-form models;
//   * tables   — program + tabulated chord models (cubic-Hermite chord /
//     dG/dV lookups, closed-form fallback outside the range).  Gated to
//     <= 1e-6 relative waveform deviation from `program` and faster than
//     it on the Monte-Carlo workload.
//
// Exit code 1 when any gate fails: table accuracy (always) and tables
// faster than program (full runs only; the CI smoke run with small
// mc_runs skips the timing gate).
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_swec.hpp"
#include "mna/system_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace nanosim;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// Which device-evaluation configuration a run uses.
enum class Path { program, tables };

/// One workload run: waveforms + wall time + the cache's step split.
struct RunResult {
    std::vector<analysis::Waveform> waves; ///< node waves or {mean, stddev}
    double ms = 0.0;
    mna::SystemCache::Stats stats;
};

struct PathReport {
    double ms = 0.0;
    double eval_ms = 0.0;
    double stamp_ms = 0.0;
    double factor_ms = 0.0;
    double solve_ms = 0.0;
    std::size_t tables_built = 0;
};

struct WorkloadReport {
    std::string name;
    std::size_t unknowns = 0;
    PathReport program, tables;
    double dev_tables = 0.0;     ///< tables vs program, relative
    double speedup_tables = 0.0; ///< program / tables
};

PathReport to_report(const RunResult& r) {
    PathReport p;
    p.ms = r.ms;
    p.eval_ms = r.stats.eval_s * 1e3;
    p.stamp_ms = r.stats.stamp_s * 1e3;
    p.factor_ms = r.stats.factor_s * 1e3;
    p.solve_ms = r.stats.solve_s * 1e3;
    p.tables_built = r.stats.tables_built;
    return p;
}

/// Relative deviation of `a` from reference `b`, sampled on a uniform
/// grid (the tabulated path may take a different step sequence), scaled
/// by each waveform's magnitude.
double relative_deviation(const std::vector<analysis::Waveform>& a,
                          const std::vector<analysis::Waveform>& b) {
    double worst = 0.0;
    for (std::size_t w = 0; w < a.size() && w < b.size(); ++w) {
        const double t0 = b[w].t_begin();
        const double t1 = b[w].t_end();
        const double scale = std::max(
            {std::abs(b[w].max_value()), std::abs(b[w].min_value()), 1e-12});
        constexpr int samples = 400;
        for (int s = 0; s <= samples; ++s) {
            const double t = t0 + (t1 - t0) * s / samples;
            worst = std::max(worst,
                             std::abs(a[w].at(t) - b[w].at(t)) / scale);
        }
    }
    return worst;
}

// ---- workloads --------------------------------------------------------

Circuit make_inverter() {
    return refckt::fet_rtd_inverter();
}

/// MxM RC mesh with an RTD load at EVERY node — the "RTD mesh" of the
/// paper-style statistical workloads (the RTD stamps are node-diagonal,
/// so the extra devices stress model evaluation, not factorisation).
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

RunResult run_tran(const mna::MnaAssembler& assembler, double t_stop,
                   Path path) {
    mna::SystemCache cache(assembler);
    engines::SwecTranOptions o;
    o.t_stop = t_stop;
    o.tables.enabled = path == Path::tables;
    const auto t0 = Clock::now();
    engines::TranResult res = engines::run_tran_swec(assembler, o, nullptr,
                                                     &cache);
    RunResult out;
    out.ms = ms_since(t0);
    out.waves = std::move(res.node_waves);
    out.stats = cache.stats();
    return out;
}

RunResult run_mc(const mna::MnaAssembler& assembler, NodeId node,
                 int mc_runs, double t_stop, double noise_dt, Path path) {
    mna::SystemCache cache(assembler);
    // Warm start every trial from the shared operating point (computed
    // once per path through the same cache; excluded from the timing).
    const engines::DcResult op =
        engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache);

    engines::McOptions mc;
    mc.runs = mc_runs;
    mc.t_stop = t_stop;
    mc.noise_dt = noise_dt;
    mc.grid_points = 26;
    // Default (paper-faithful) per-trial configuration: the eq. (12)
    // adaptive controller stays ON (run_monte_carlo caps dt_max at the
    // noise bandwidth), so every step pays the full SWEC evaluation the
    // controller needs — chords, rates and step bounds per device.
    mc.tran.start_from_dc = false;
    mc.tran.initial = op.x;
    mc.tran.dt_init = noise_dt;
    mc.tran.tables.enabled = path == Path::tables;

    stochastic::Rng rng(1);
    const mna::SystemCache::Stats before = cache.stats();
    const auto t0 = Clock::now();
    engines::McResult res =
        engines::run_monte_carlo(assembler, mc, rng, node, nullptr, &cache);
    RunResult out;
    out.ms = ms_since(t0);
    out.waves.push_back(std::move(res.mean));
    out.waves.push_back(std::move(res.stddev));
    out.stats = cache.stats();
    // Report the MC phase only (the op march warmed the same cache).
    out.stats.eval_s -= before.eval_s;
    out.stats.stamp_s -= before.stamp_s;
    out.stats.factor_s -= before.factor_s;
    out.stats.solve_s -= before.solve_s;
    return out;
}

void print_path(const char* label, const PathReport& p) {
    std::cout << "  " << std::left << std::setw(8) << label << std::right
              << std::fixed << std::setprecision(2) << std::setw(9) << p.ms
              << " ms | eval " << std::setw(8) << p.eval_ms << " | stamp "
              << std::setw(8) << p.stamp_ms << " | factor " << std::setw(8)
              << p.factor_ms << " | solve " << std::setw(8) << p.solve_ms;
    if (p.tables_built > 0) {
        std::cout << " | " << p.tables_built << " tables";
    }
    std::cout << "\n";
}

} // namespace

int main(int argc, char** argv) {
    const int mc_runs = argc > 1 ? std::stoi(argv[1]) : 100;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string("BENCH_device_eval.json");
    const int mesh = argc > 3 ? std::stoi(argv[3]) : 32;
    const bool full_run = mc_runs >= 50;
    constexpr double k_table_tol = 1e-6;

    nanosim::bench::banner(
        "device_eval",
        "compiled StampProgram vs tabulated chord models ({inverter, "
        "mesh} transients + " +
            std::to_string(mc_runs) + "-trial mesh Monte-Carlo)");

    bool pass = true;
    std::vector<WorkloadReport> reports;

    /// Run one workload through all three paths and gate the results.
    auto evaluate = [&](const std::string& name,
                        const mna::MnaAssembler& assembler,
                        const std::function<RunResult(Path)>& run,
                        bool gate_mc_speedup) {
        nanosim::bench::section(name);
        WorkloadReport rep;
        rep.name = name;
        rep.unknowns = static_cast<std::size_t>(assembler.unknowns());

        const RunResult program = run(Path::program);
        const RunResult tables = run(Path::tables);
        rep.program = to_report(program);
        rep.tables = to_report(tables);
        rep.dev_tables = relative_deviation(tables.waves, program.waves);
        rep.speedup_tables = tables.ms > 0.0 ? program.ms / tables.ms : 0.0;

        std::cout << "  " << rep.unknowns << " unknowns\n";
        print_path("program", rep.program);
        print_path("tables", rep.tables);
        std::cout << std::scientific << std::setprecision(2)
                  << "  tables vs program: rel dev " << rep.dev_tables
                  << std::fixed << std::setprecision(2) << " | speedup "
                  << rep.speedup_tables << "x\n";

        if (rep.dev_tables > k_table_tol) {
            std::cout << "  FAIL: tabulated path beyond " << k_table_tol
                      << " relative deviation\n";
            pass = false;
        }
        if (full_run && gate_mc_speedup && rep.tables.ms >= rep.program.ms) {
            std::cout << "  FAIL: tabulated path not faster than the exact "
                         "program path\n";
            pass = false;
        }
        reports.push_back(std::move(rep));
    };

    {
        const Circuit ckt = make_inverter();
        const mna::MnaAssembler assembler(ckt);
        evaluate("fet_rtd_inverter_tran", assembler,
                 [&](Path p) { return run_tran(assembler, 100e-9, p); },
                 /*gate_mc_speedup=*/false);
    }
    {
        const Circuit ckt = make_mesh(mesh);
        const mna::MnaAssembler assembler(ckt);
        evaluate("rtd_mesh" + std::to_string(mesh) + "x" +
                     std::to_string(mesh) + "_tran",
                 assembler,
                 [&](Path p) { return run_tran(assembler, 20e-9, p); },
                 /*gate_mc_speedup=*/false);
    }
    {
        const Circuit ckt = make_mesh(mesh);
        const mna::MnaAssembler assembler(ckt);
        const std::string center = "n" + std::to_string(mesh / 2) + "_" +
                                   std::to_string(mesh / 2);
        const NodeId node = ckt.find_node(center);
        evaluate("rtd_mesh" + std::to_string(mesh) + "x" +
                     std::to_string(mesh) + "_mc" + std::to_string(mc_runs),
                 assembler,
                 [&](Path p) {
                     return run_mc(assembler, node, mc_runs, 2e-9, 2.5e-10,
                                   p);
                 },
                 /*gate_mc_speedup=*/true);
    }

    std::ofstream json(out_path);
    json << std::scientific << std::setprecision(9);
    json << "{\n  \"bench\": \"device_eval\",\n"
         << "  \"mc_runs\": " << mc_runs << ",\n"
         << "  \"mesh\": " << mesh << ",\n"
         << "  \"table_rel_tol\": " << k_table_tol << ",\n"
         << "  \"timing_gates_active\": " << (full_run ? "true" : "false")
         << ",\n  \"workloads\": [\n";
    auto path_json = [&json](const char* key, const PathReport& p) {
        json << "      \"" << key << "\": {\"ms\": " << p.ms
             << ", \"eval_ms\": " << p.eval_ms << ", \"stamp_ms\": "
             << p.stamp_ms << ", \"factor_ms\": " << p.factor_ms
             << ", \"solve_ms\": " << p.solve_ms << ", \"tables_built\": "
             << p.tables_built << "},\n";
    };
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport& r = reports[i];
        json << "    {\n      \"name\": \"" << r.name << "\",\n"
             << "      \"unknowns\": " << r.unknowns << ",\n";
        path_json("program", r.program);
        path_json("tables", r.tables);
        json << "      \"dev_tables_rel\": " << r.dev_tables << ",\n"
             << "      \"speedup_tables\": " << r.speedup_tables << "\n    }"
             << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::cout << "\nwrote " << out_path << (pass ? " (pass)" : " (FAIL)")
              << "\n";
    return pass ? 0 : 1;
}
