#include "obs/report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/metrics.hpp" // json_escape

namespace nanosim::obs {

namespace {

void append_number(std::ostream& os, std::uint64_t v) { os << v; }

void append_number(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
}

/// "  label: value" line for pretty(); seconds rendered in ms.
void time_line(std::ostream& os, const char* label, double seconds) {
    os << "  " << std::left << std::setw(22) << label << std::right
       << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
}

void count_line(std::ostream& os, const char* label, std::uint64_t v) {
    os << "  " << std::left << std::setw(22) << label << std::right << v
       << '\n';
}

} // namespace

std::string RunReport::to_json() const {
    std::ostringstream os;
    os << "{\"analysis\":\"" << json_escape(analysis) << "\",\"kind\":\""
       << json_escape(kind) << "\",\"engine\":\"" << json_escape(engine)
       << "\",\"elapsed_s\":";
    append_number(os, elapsed_s);
    os << ",\"aborted\":" << (aborted ? "true" : "false")
       << ",\"steps_accepted\":" << steps_accepted
       << ",\"steps_rejected\":" << steps_rejected
       << ",\"nr_iterations\":" << nr_iterations
       << ",\"nonconverged_steps\":" << nonconverged_steps
       << ",\"step_bounds\":{\"device\":" << bounds.device
       << ",\"node\":" << bounds.node << ",\"growth\":" << bounds.growth
       << ",\"dt_max\":" << bounds.dt_max << ",\"dt_min\":" << bounds.dt_min
       << ",\"breakpoint\":" << bounds.breakpoint
       << ",\"horizon\":" << bounds.horizon << ",\"fixed\":" << bounds.fixed
       << "},\"min_dt\":";
    append_number(os, min_dt);
    os << ",\"max_dt\":";
    append_number(os, max_dt);
    os << ",\"rescues\":{\"dt_backoff_attempted\":"
       << rescues.dt_backoff_attempted
       << ",\"dt_backoff_succeeded\":" << rescues.dt_backoff_succeeded
       << ",\"gmin_attempted\":" << rescues.gmin_attempted
       << ",\"gmin_succeeded\":" << rescues.gmin_succeeded
       << ",\"source_attempted\":" << rescues.source_attempted
       << ",\"source_succeeded\":" << rescues.source_succeeded
       << "},\"failed_trials\":" << failed_trials
       << ",\"trials\":" << trials;
    for_each_field(*this, [&os](const char* key, const auto& value) {
        os << ",\"" << key << "\":";
        append_number(os, value);
    });
    os << ",\"cache_signature\":" << cache_signature
       << ",\"pool_tasks\":" << pool_tasks << ",\"pool_queue_wait_s\":";
    append_number(os, pool_queue_wait_s);
    os << '}';
    return os.str();
}

std::string RunReport::pretty() const {
    std::ostringstream os;
    os << "run report: " << analysis << " [" << kind << " / " << engine
       << "]" << (aborted ? "  (ABORTED)" : "") << '\n';
    os << "  " << std::left << std::setw(22) << "elapsed" << std::right
       << std::fixed << std::setprecision(3) << elapsed_s * 1e3
       << " ms\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);

    if (steps_accepted > 0 || steps_rejected > 0) {
        os << "step control:\n";
        count_line(os, "steps accepted", steps_accepted);
        count_line(os, "steps rejected", steps_rejected);
        if (nr_iterations > 0) {
            count_line(os, "NR iterations", nr_iterations);
        }
        if (nonconverged_steps > 0) {
            count_line(os, "non-converged steps", nonconverged_steps);
        }
        if (min_dt > 0.0) {
            os << "  " << std::left << std::setw(22) << "dt range"
               << std::right << std::scientific << std::setprecision(3)
               << min_dt << " .. " << max_dt << " s\n";
            os.unsetf(std::ios::scientific);
            os << std::setprecision(6);
        }
        if (bounds.total() > 0) {
            os << "step bound winners:\n";
            const auto line = [&os](const char* label, std::uint64_t v) {
                if (v > 0) {
                    count_line(os, label, v);
                }
            };
            line("device error bound", bounds.device);
            line("node voltage bound", bounds.node);
            line("growth limit", bounds.growth);
            line("dt_max ceiling", bounds.dt_max);
            line("dt_min floor", bounds.dt_min);
            line("breakpoint clip", bounds.breakpoint);
            line("horizon clip", bounds.horizon);
            line("fixed step", bounds.fixed);
        }
    }
    if (rescues.total_attempted() > 0) {
        os << "rescue ladder:\n";
        const auto rung = [&os](const char* label, std::uint64_t attempted,
                                std::uint64_t succeeded) {
            if (attempted > 0) {
                os << "  " << std::left << std::setw(22) << label
                   << std::right << succeeded << " / " << attempted
                   << " succeeded\n";
            }
        };
        rung("dt backoff", rescues.dt_backoff_attempted,
             rescues.dt_backoff_succeeded);
        rung("gmin stepping", rescues.gmin_attempted,
             rescues.gmin_succeeded);
        rung("source stepping", rescues.source_attempted,
             rescues.source_succeeded);
    }
    if (failed_trials > 0) {
        count_line(os, "quarantined trials", failed_trials);
    }
    if (trials > 0) {
        count_line(os, "trials", trials);
    }

    os << "solver cache:\n";
    count_line(os, "full factors", full_factors);
    count_line(os, "fast refactors", fast_refactors);
    count_line(os, "reused solves", reused_solves);
    count_line(os, "refinement sweeps", refinement_sweeps);
    count_line(os, "dense solves", dense_solves);
    if (pivot_fallbacks > 0) {
        count_line(os, "pivot fallbacks", pivot_fallbacks);
    }
    if (pattern_rebuilds > 0) {
        count_line(os, "pattern rebuilds", pattern_rebuilds);
    }
    if (tables_built > 0) {
        count_line(os, "chord tables built", tables_built);
    }
    os << "  " << std::left << std::setw(22) << "cache signature"
       << std::right << std::hex << std::showbase << cache_signature
       << std::dec << std::noshowbase << '\n';

    os << "time split:\n";
    time_line(os, "analyze", analyze_s);
    time_line(os, "eval", eval_s);
    time_line(os, "stamp", stamp_s);
    time_line(os, "factor", factor_s);
    time_line(os, "solve", solve_s);
    time_line(os, "other (no bucket)",
              elapsed_s - (analyze_s + eval_s + stamp_s + factor_s + solve_s));

    if (pool_tasks > 0) {
        os << "thread pool:\n";
        count_line(os, "tasks", pool_tasks);
        time_line(os, "queue wait (sum)", pool_queue_wait_s);
    }
    return os.str();
}

} // namespace nanosim::obs
