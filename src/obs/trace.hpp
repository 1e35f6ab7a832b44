// Nano-Sim — hierarchical trace spans exported as Chrome/Perfetto
// trace-event JSON.
//
// A Span is an RAII scope marker: construction stamps the start time,
// destruction records one complete ("ph":"X") trace event carrying the
// wall-clock duration and the recording thread's id.  Nesting falls out
// of scope order — a child span closes before its parent, and the
// Perfetto UI reconstructs the hierarchy from interval containment per
// thread (analysis → trial → step → eval/stamp/factor/solve).
//
// Cost model:
//  * tracing DISABLED (default): Span's constructor is one relaxed
//    atomic load and a pointer store; the destructor is one branch.  No
//    clock reads, no allocation, no locks — the no-op object the
//    disabled-telemetry gate in tests/test_perf_gates.cpp measures.
//  * tracing ENABLED: two steady_clock reads per span plus one append to
//    a per-thread buffer (a short uncontended lock; buffers are merged
//    only at export).  Events beyond the per-thread cap are counted and
//    dropped rather than growing without bound.
//
// Usage:
//     obs::start_trace();
//     { obs::Span s("step", "engine"); ... }   // one "X" event
//     obs::stop_trace();
//     obs::write_trace_file("out.json");       // open in ui.perfetto.dev
#ifndef NANOSIM_OBS_TRACE_HPP
#define NANOSIM_OBS_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace nanosim::obs {

/// True while spans record events (one relaxed atomic load).
[[nodiscard]] bool trace_enabled() noexcept;

/// Clear all recorded events and start recording (resets the trace
/// epoch; timestamps are relative to this call).
void start_trace();

/// Stop recording.  Events already recorded stay available for export;
/// spans still open keep recording their close (their start predates the
/// stop), which keeps the export internally consistent.
void stop_trace();

/// One completed span (for tests and programmatic consumers; the JSON
/// export is the interchange format).
struct TraceEvent {
    std::string name;
    const char* category = "sim";
    std::int64_t ts_ns = 0;  ///< start, ns since the trace epoch
    std::int64_t dur_ns = 0; ///< duration, ns
    std::uint32_t tid = 0;   ///< recording thread (1-based, stable)
};

/// Snapshot of every recorded event, merged across threads and sorted by
/// (tid, ts) — the order the nesting invariants are checked in.
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Events recorded / dropped (per-thread cap overflow) since the last
/// start_trace().
[[nodiscard]] std::size_t trace_event_count();
[[nodiscard]] std::size_t trace_dropped_count();

/// Chrome trace-event JSON: {"traceEvents":[{"name","cat","ph":"X",
/// "ts","dur","pid","tid"},...]} with ts/dur in microseconds.  Loadable
/// in ui.perfetto.dev and chrome://tracing.
[[nodiscard]] std::string trace_to_json();
void write_trace_file(const std::string& path);

/// RAII scoped span.  `name`/`category` passed as C strings must be
/// string literals (stored by pointer until the event is recorded); the
/// std::string overload owns its name and is meant for the per-analysis
/// spans where the label carries the spec name.
class Span {
public:
    explicit Span(const char* name, const char* category = "sim") noexcept
        : name_(name), category_(category) {
        if (trace_enabled()) {
            t0_ns_ = now_ns();
        }
    }
    /// Owned-name form: the string is only copied when tracing is
    /// enabled at construction.
    Span(std::string name, const char* category);
    ~Span() {
        if (t0_ns_ >= 0) {
            finish();
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    [[nodiscard]] static std::int64_t now_ns() noexcept;
    void finish() noexcept;

    const char* name_ = "";
    const char* category_;
    std::string owned_name_; ///< used when non-empty
    std::int64_t t0_ns_ = -1; ///< -1 = tracing was off at construction
};

} // namespace nanosim::obs

#endif // NANOSIM_OBS_TRACE_HPP
