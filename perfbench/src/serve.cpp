// Nano-Sim benchmark — `serve`: an in-process analysis service on
// loopback with its default options, driven by 2 closed-loop clients.
// Each client submits a subscribed job, waits for its terminal event,
// then fetches and decodes the result — what every `nanosim submit`
// caller does.  Half the jobs are 16-trial Monte-Carlo campaigns and
// half are 20 ns SWEC transients.  Three in four use one shared fabric
// (a session-registry hit); one in four use a fabric cycled from more
// sizes than the registry holds (a miss).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace perfbench {

namespace {

namespace json = nanosim::service::json;
namespace wire = nanosim::service::wire;
using nanosim::service::Client;
using nanosim::service::Server;
using nanosim::service::ServerOptions;

constexpr int k_clients = 2;
constexpr int k_cycled_fabrics = 10; // more than ServerOptions::max_sessions

struct Job {
    wire::CircuitSource circuit;
    nanosim::AnalysisSpec spec;
    std::string key; ///< circuit + spec, for the in-process comparison
};

struct JobTimes {
    Clock::time_point sent, ack, started, terminal, decoded;
};

struct JobRecord {
    Job job;
    bool traced = false;
    bool ok = false;
    std::string error;
    JobTimes t;
    double result_bytes = 0;
    bool reused_session = false;
    std::uint64_t digest = 0;
    LayerSplit split;
};

/// FNV-1a over the bit patterns of a result's waveforms — equal digests
/// mean bit-identical payloads.
class Digest {
public:
    void add(const std::vector<double>& v) {
        for (const double x : v) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            for (int b = 0; b < 8; ++b) {
                h_ ^= (bits >> (8 * b)) & 0xffU;
                h_ *= 1099511628211ULL;
            }
        }
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t digest(const nanosim::AnalysisResult& r) {
    Digest d;
    if (r.header.kind == nanosim::AnalysisKind::monte_carlo) {
        const auto& mc = r.monte_carlo();
        for (const auto* w : {&mc.mean, &mc.stddev}) {
            d.add(w->time());
            d.add(w->value());
        }
    } else {
        for (const auto& w : r.tran().node_waves) {
            d.add(w.time());
            d.add(w.value());
        }
    }
    return d.value();
}

struct Fabrics {
    wire::CircuitSource shared;
    std::vector<wire::CircuitSource> cycled;
};

wire::CircuitSource fabric(int rows, int cols) {
    wire::CircuitSource c;
    c.builtin = "mesh:" + std::to_string(rows) + "x" + std::to_string(cols);
    c.noise.push_back({"n" + std::to_string(rows / 2) + "_" +
                           std::to_string(cols / 2),
                       1e-9});
    return c;
}

Fabrics fabrics(bool smoke) {
    const int rows = smoke ? 6 : 12;
    Fabrics f;
    f.shared = fabric(rows, rows);
    for (int cols = rows - 5; static_cast<int>(f.cycled.size()) < k_cycled_fabrics;
         ++cols) {
        if (cols != rows) {
            f.cycled.push_back(fabric(rows, cols));
        }
    }
    return f;
}

Job make_job(bool mc, const wire::CircuitSource& circuit, std::uint64_t mc_seed) {
    Job job;
    job.circuit = circuit;
    if (mc) {
        nanosim::MonteCarloSpec spec;
        spec.node = circuit.noise.front().node;
        spec.t_stop = 2e-9;
        spec.runs = 16;
        spec.noise_dt = 0.25e-9;
        spec.grid_points = 26;
        spec.seed = mc_seed;
        job.spec = spec;
    } else {
        nanosim::TranSpec spec;
        spec.t_stop = 20e-9;
        job.spec = spec;
    }
    job.key = circuit.canonical() + "|" + wire::spec_to_json(job.spec).dump();
    return job;
}

json::Value submit_message(const Job& job) {
    json::Value msg{json::Object{}};
    msg.set("op", "submit");
    msg.set("circuit", job.circuit.to_json());
    msg.set("spec", wire::spec_to_json(job.spec));
    msg.set("subscribe", json::Value(true));
    return msg;
}

/// One submit -> terminal event -> fetch -> decode round trip.
JobRecord round_trip(Client& client, const Job& job) {
    JobRecord rec;
    rec.job = job;
    std::string terminal;
    const auto on_event = [&](const json::Value& ev) {
        const std::string& name = ev.at("event").as_string();
        if (name == "started") {
            rec.t.started = Clock::now();
        } else if (name == "done" || name == "failed" || name == "cancelled" ||
                   name == "expired") {
            rec.t.terminal = Clock::now();
            terminal = name;
        }
    };
    const json::Value msg = submit_message(job);
    rec.t.sent = Clock::now();
    const json::Value accepted = client.request(msg, on_event);
    rec.t.ack = Clock::now();
    if (!accepted.at("ok").as_bool()) {
        rec.error = "submit refused: " + accepted.dump();
        return rec;
    }
    const std::uint64_t id = accepted.at("id").as_uint();
    if (terminal.empty()) {
        (void)client.wait_for_terminal(id, on_event);
    }
    if (terminal != "done") {
        rec.error = "job ended " + terminal;
        return rec;
    }
    json::Value fetch{json::Object{}};
    fetch.set("op", "result");
    fetch.set("id", json::Value(static_cast<double>(id)));
    const json::Value reply = client.request(fetch);
    if (!reply.at("ok").as_bool()) {
        rec.error = "result fetch refused: " + reply.dump();
        return rec;
    }
    const nanosim::AnalysisResult result = wire::result_from_json(reply.at("result"));
    rec.t.decoded = Clock::now();
    rec.result_bytes = static_cast<double>(reply.at("result").dump().size());
    rec.reused_session = result.header.solver.full_factors == 0;
    rec.digest = digest(result);
    rec.split = LayerSplit::of(result.report);
    rec.ok = true;
    return rec;
}

double span_s(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

void trace_job(Tracer& tracer, const JobRecord& rec) {
    const std::uint64_t group = tracer.next_group();
    const int job = tracer.record("job", -1, group, rec.t.sent, rec.t.decoded);
    tracer.record("service.submit_ack", job, group, rec.t.sent, rec.t.ack);
    tracer.record("service.queue_wait", job, group, rec.t.sent, rec.t.started);
    tracer.record("service.run", job, group, rec.t.started, rec.t.terminal);
    tracer.record("service.fetch", job, group, rec.t.terminal, rec.t.decoded);
    tracer.arg(job, "result_bytes", rec.result_bytes);
    tracer.arg(job, "reused_session", rec.reused_session ? 1.0 : 0.0);
    tracer.arg(job, "factor_s", rec.split.factor_s);
    tracer.arg(job, "elapsed_s", rec.split.elapsed_s);
}

} // namespace

void run_serve(const Options& opt, Report& report, Tracer* tracer) {
    ServerOptions server_options; // defaults: 2 workers, 8 sessions
    // Set-up samples are taken every 50 ms while the jobs run, so they
    // spread over the whole run under the same load in every run.
    std::vector<double> setup;
    const auto setup_once = [&](bool record) {
        const ScopedSpan span(tracer, "setup");
        const auto t0 = Clock::now();
        Server server(server_options);
        server.start();
        {
            Client client("127.0.0.1", server.port());
            const json::Value pong = client.request(json::parse(R"({"op":"ping"})"));
            if (record) {
                setup.push_back(seconds_since(t0));
            }
            report.attempt(pong.at("ok").as_bool(), "serve: ping answered");
        }
        server.stop(/*drain=*/true);
        server.wait();
    };
    setup_once(false);

    const Fabrics fab = fabrics(opt.smoke);
    std::array<std::uint64_t, 4> mc_seeds{};
    {
        std::mt19937_64 rng(opt.seed);
        for (std::uint64_t& s : mc_seeds) {
            s = rng() >> 11; // exact as a JSON number
        }
    }

    Server server(server_options);
    server.start();
    const int port = server.port();
    std::atomic<std::size_t> next_cycled{0};
    std::atomic<bool> stop{false};
    std::vector<std::vector<JobRecord>> records(k_clients);
    std::vector<std::string> client_errors(k_clients);
    const int smoke_jobs_per_client = 4;
    const int warmup_jobs = opt.smoke ? 0 : 2;

    const auto client_loop = [&](int index) {
        try {
            Client client("127.0.0.1", port);
            std::mt19937_64 rng(opt.seed * 7919 + static_cast<std::uint64_t>(index));
            // Blocks of 8 jobs: {mc, tran} x {3 shared, 1 cycled}, shuffled.
            std::vector<std::pair<bool, bool>> block;
            for (const bool mc : {true, false}) {
                for (int k = 0; k < 4; ++k) {
                    block.emplace_back(mc, k < 3);
                }
            }
            std::size_t in_block = block.size();
            for (int n = 0;; ++n) {
                const bool warm = n < warmup_jobs;
                const int measured = n - warmup_jobs;
                if (opt.smoke ? measured >= smoke_jobs_per_client
                              : (!warm && stop.load())) {
                    break;
                }
                if (in_block == block.size()) {
                    std::shuffle(block.begin(), block.end(), rng);
                    in_block = 0;
                }
                const auto [mc, shared] = block[in_block++];
                const wire::CircuitSource& circuit =
                    shared ? fab.shared
                           : fab.cycled[next_cycled.fetch_add(1) % fab.cycled.size()];
                const Job job = make_job(mc, circuit, mc_seeds[rng() % mc_seeds.size()]);
                JobRecord rec = round_trip(client, job);
                rec.traced = tracer != nullptr && measured % 2 == 0;
                if (!warm) {
                    if (rec.traced) {
                        trace_job(*tracer, rec);
                    }
                    records[static_cast<std::size_t>(index)].push_back(std::move(rec));
                }
            }
        } catch (const std::exception& e) {
            client_errors[static_cast<std::size_t>(index)] = e.what();
        }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < k_clients; ++i) {
        threads.emplace_back(client_loop, i);
    }
    const auto window_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(opt.seconds));
    std::exception_ptr setup_error;
    try {
        do {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            setup_once(true);
        } while (!opt.smoke && Clock::now() < window_end);
    } catch (...) {
        setup_error = std::current_exception(); // rethrown once the clients stop
    }
    stop.store(true);
    for (std::thread& t : threads) {
        t.join();
    }
    server.stop(/*drain=*/true);
    server.wait();
    if (setup_error) {
        std::rethrow_exception(setup_error);
    }

    for (const std::string& err : client_errors) {
        report.attempt(err.empty(), "serve: client failed: " + err);
    }

    // Each served result must equal a direct in-process run of the same
    // job, bit for bit (the service contract).
    std::map<std::string, std::uint64_t> direct;
    std::vector<JobRecord> all;
    for (auto& per_client : records) {
        for (JobRecord& rec : per_client) {
            all.push_back(std::move(rec));
        }
    }
    int rejected = 0;
    for (const JobRecord& rec : all) {
        report.attempt(rec.ok, "serve job: " + rec.error);
        if (!rec.ok) {
            rejected += rec.error.rfind("submit refused", 0) == 0 ? 1 : 0;
            continue;
        }
        auto it = direct.find(rec.job.key);
        if (it == direct.end()) {
            nanosim::SimSession session(rec.job.circuit.build());
            it = direct.emplace(rec.job.key, digest(session.run(rec.job.spec))).first;
        }
        report.attempt(it->second == rec.digest,
                       "serve job: result differs from the in-process run of " +
                           rec.job.key);
    }

    std::vector<double> latency, traced_latency, untraced_latency, ack, queue,
        run, fetch, bytes;
    double reused = 0;
    std::map<std::string, std::vector<double>> layer;
    for (const JobRecord& rec : all) {
        if (!rec.ok) {
            continue;
        }
        const double l = span_s(rec.t.sent, rec.t.decoded);
        latency.push_back(l);
        (rec.traced ? traced_latency : untraced_latency).push_back(l);
        ack.push_back(span_s(rec.t.sent, rec.t.ack));
        queue.push_back(span_s(rec.t.sent, rec.t.started));
        run.push_back(span_s(rec.t.started, rec.t.terminal));
        fetch.push_back(span_s(rec.t.terminal, rec.t.decoded));
        bytes.push_back(rec.result_bytes);
        reused += rec.reused_session ? 1.0 : 0.0;
        layer["devices.eval_s"].push_back(rec.split.eval_s);
        layer["mna.stamp_s"].push_back(rec.split.stamp_s);
        layer["linalg.factor_s"].push_back(rec.split.factor_s);
        layer["linalg.solve_s"].push_back(rec.split.solve_s);
        layer["other_s"].push_back(rec.split.other_s);
    }
    const double reuse_ratio = latency.empty() ? 0.0 : reused / latency.size();
    report.note("jobs measured: " + std::to_string(latency.size()) +
                ", session reuse share: " + std::to_string(reuse_ratio));
    if (!opt.trace) {
        report.set("setup_s", median(setup));
        report_walls(report, "job", latency);
        return;
    }
    for (const auto& [name, values] : layer) {
        report.set(name, median(values));
    }
    report.set("service.submit_ack_s", median(ack));
    report.set("service.queue_wait_p50_s", quantile(queue, 0.5));
    report.set("service.queue_wait_p90_s", quantile(queue, 0.9));
    report.set("service.run_s", median(run));
    report.set("service.fetch_s", median(fetch));
    report.set("service.result_bytes", median(bytes));
    report.set("service.session_reuse_ratio", reuse_ratio);
    report.set("service.rejected", rejected);
    report.set("service.job_p50_s", quantile(latency, 0.5));
    report.set("service.job_p90_s", quantile(latency, 0.9));
    report.set("obs.trace_overhead_ratio",
               median(traced_latency) / median(untraced_latency));
}

} // namespace perfbench
