// Nano-Sim — telemetry metrics: thread-safe counters, gauges, and
// fixed-bucket histograms behind one process-wide registry.
//
// Design constraints (the NEMO5 lesson: built-in performance attribution
// must cost nothing when idle):
//
//  * DISABLED is the default and must be near-free.  The global gate is
//    one relaxed atomic load (`metrics_enabled()`); instruments are only
//    resolved/observed behind it, so an un-instrumented run executes the
//    exact same numeric code with a handful of predictable branches.
//  * Instrument objects have STABLE ADDRESSES for the life of the
//    process: the registry never erases an entry (reset() zeroes values
//    in place), so hot loops may resolve `Counter&`/`Histogram&` once and
//    keep the reference across analyses — no per-step map lookup.
//  * All mutation is lock-free (relaxed atomics); only registration and
//    export take the registry mutex.  Telemetry never feeds back into
//    simulation results — waveforms are bit-identical with metrics on or
//    off (gated by tests/test_obs.cpp).
//
// Typical engine wiring:
//
//     obs::Histogram* hist =
//         obs::metrics_enabled()
//             ? &obs::metrics().histogram("swec.step_size",
//                                         obs::log_buckets(1e-15, 1e-3))
//             : nullptr;
//     while (stepping) { ...; if (hist != nullptr) hist->observe(h); }
#ifndef NANOSIM_OBS_METRICS_HPP
#define NANOSIM_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nanosim::obs {

/// True when metric collection is on (one relaxed atomic load — the
/// disabled-path cost of every instrumentation site).
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Monotonic event count (relaxed atomic).
class Counter {
public:
    void inc(std::uint64_t delta = 1) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (relaxed atomic double).
class Gauge {
public:
    void set(double v) noexcept {
        value_.store(v, std::memory_order_relaxed);
    }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `edges` are the strictly increasing upper
/// bounds of the finite buckets; one implicit overflow bucket catches
/// everything above the last edge.  observe() is lock-free (binary
/// search + relaxed atomic increments); bucket edges are frozen at
/// construction — the fixed-bucket contract is what keeps concurrent
/// observation coordination-free.
class Histogram {
public:
    /// Throws AnalysisError unless edges is non-empty and strictly
    /// increasing.
    explicit Histogram(std::vector<double> edges);

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void observe(double v) noexcept;

    [[nodiscard]] const std::vector<double>& edges() const noexcept {
        return edges_;
    }
    /// Count in finite bucket b (b < edges().size()) or the overflow
    /// bucket (b == edges().size()).
    [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
        return counts_[b].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    /// Smallest / largest observed value (0 when count() == 0).
    [[nodiscard]] double min() const noexcept;
    [[nodiscard]] double max() const noexcept;

    void reset() noexcept;

private:
    std::vector<double> edges_;
    // unique_ptr-free stable storage: sized at construction, never moved.
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/// Geometric bucket edges covering [lo, hi] with `per_decade` buckets per
/// decade — the step-size / wall-time distributions span many orders of
/// magnitude, so uniform buckets would waste all their resolution.
[[nodiscard]] std::vector<double>
log_buckets(double lo, double hi, int per_decade = 4);

/// Default wall-time bucket edges (100 ns .. 10 s).
[[nodiscard]] const std::vector<double>& time_buckets();

/// Default iteration-count bucket edges (1 .. 1024, powers of two).
[[nodiscard]] const std::vector<double>& iteration_buckets();

/// Process-wide instrument registry.  get-or-create by name; entries are
/// never removed, so returned references stay valid for the life of the
/// process (hot loops cache them).
class MetricsRegistry {
public:
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    /// `edges` are used only when `name` is first created; a later call
    /// with different edges returns the existing histogram unchanged.
    [[nodiscard]] Histogram& histogram(std::string_view name,
                                       const std::vector<double>& edges);

    /// Zero every instrument in place (addresses survive — cached
    /// references in running engines stay valid).
    void reset();

    /// Number of registered instruments (tests).
    [[nodiscard]] std::size_t size() const;

    /// One JSON object: {"counters":{...},"gauges":{...},
    /// "histograms":{name:{count,sum,min,max,buckets:[{le,count},...]}}}.
    /// Sorted by name — deterministic output for golden checks.
    [[nodiscard]] std::string to_json() const;
    void write_json_file(const std::string& path) const;

private:
    struct Impl;
    Impl* impl_;
};

/// The process-wide registry every subsystem reports into.
[[nodiscard]] MetricsRegistry& metrics();

/// Minimal JSON string escaping (shared by the metrics / trace / report
/// writers).
[[nodiscard]] std::string json_escape(std::string_view s);

} // namespace nanosim::obs

#endif // NANOSIM_OBS_METRICS_HPP
