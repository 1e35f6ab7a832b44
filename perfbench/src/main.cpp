// Nano-Sim benchmark executable.
//
//   perfbench --workload <tran_mesh|paper|mc_mesh|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//             [--commit <id>]
//   perfbench --prepare [--smoke] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no observers attached;
// --trace 1 measures the per-layer metrics, records spans and writes
// them as Chrome/Perfetto trace JSON under <out-dir>/traces/.
// --prepare computes the NR references the transient workloads grade
// against and caches them under <out-dir>/refs/.  The last line of
// stdout is the run's JSON result; the exit code is 0 only when every
// output check passed.
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <tran_mesh|paper|mc_mesh|serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
                 "[--out-dir <dir>] [--commit <id>]\n"
                 "       perfbench --prepare [--smoke] [--out-dir <dir>]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool prepare = false;
    std::string commit = "unknown";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument(arg + " needs a value");
                }
                return argv[++i];
            };
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                opt.trace = std::stoi(value()) != 0;
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else if (arg == "--out-dir") {
                opt.out_dir = value();
            } else if (arg == "--commit") {
                commit = value();
            } else if (arg == "--prepare") {
                prepare = true;
            } else {
                return usage("unknown argument " + arg);
            }
        }
    } catch (const std::exception& e) {
        return usage(e.what());
    }

    try {
        if (prepare) {
            perfbench::prepare_tran_references(opt, "tran_mesh");
            perfbench::prepare_tran_references(opt, "paper");
            return 0;
        }
        using Runner = void (*)(const perfbench::Options&, perfbench::Report&,
                                perfbench::Tracer*);
        Runner runner = nullptr;
        if (opt.workload == "tran_mesh") {
            runner = perfbench::run_tran_mesh;
        } else if (opt.workload == "paper") {
            runner = perfbench::run_paper;
        } else if (opt.workload == "mc_mesh") {
            runner = perfbench::run_mc_mesh;
        } else if (opt.workload == "serve") {
            runner = perfbench::run_serve;
        } else {
            return usage("unknown workload '" + opt.workload + "'");
        }
        if (!(opt.seconds > 0.0)) {
            return usage("--seconds must be positive");
        }

        const std::string host =
            "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
            " compiler=" PERFBENCH_COMPILER " build=" PERFBENCH_BUILD_TYPE
            " commit=" + commit + " workload=" + opt.workload +
            " seed=" + std::to_string(opt.seed) +
            " trace=" + (opt.trace ? "1" : "0") + (opt.smoke ? " smoke" : "");
        std::cout << "host: " << host << '\n';

        perfbench::Report report(opt.trace);
        perfbench::Tracer tracer;
        runner(opt, report, opt.trace ? &tracer : nullptr);

        for (const std::string& line : report.notes()) {
            std::cout << "info: " << line << '\n';
        }
        for (const std::string& name : report.missing()) {
            std::cout << "CHECK FAILED: metric " << name << " was not measured\n";
        }
        if (opt.trace) {
            tracer.meta("host", host);
            const std::string path = opt.out_dir + "/traces/" + opt.workload +
                                     "-seed" + std::to_string(opt.seed) + ".json";
            tracer.write(path);
            std::cout << "trace: " << path << '\n';
        }
        std::cout << "metrics (" << (opt.trace ? "per layer" : "end to end")
                  << "):\n"
                  << report.table();
        std::cout << "checks: " << report.attempted() - report.failed() << "/"
                  << report.attempted() << " passed, failed_ratio = "
                  << (report.attempted() > 0
                          ? static_cast<double>(report.failed()) / report.attempted()
                          : 0.0)
                  << '\n';
        const bool correct = report.failed() == 0 && report.missing().empty();
        std::cout << report.json() << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
