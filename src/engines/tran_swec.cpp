#include "engines/tran_swec.hpp"

#include <optional>
#include <utility>

#include "engines/swec_stepper.hpp"
#include "mna/system_cache.hpp"
#include "obs/trace.hpp"

namespace nanosim::engines {

TranResult run_tran_swec(const mna::MnaAssembler& assembler,
                         const SwecTranOptions& options_in,
                         const AnalysisObserver* observer,
                         mna::SystemCache* cache) {
    const SwecTranOptions options = resolve_swec_tran_options(options_in);
    const FlopScope scope;

    // Pattern-frozen per-step system: restamp values in place, reuse the
    // symbolic LU analysis across every accepted step, and after the
    // first step reuse the run's last LU itself (the SWEC promise — one
    // linear solve per time point, most of them without a refactor).  A
    // caller-owned cache extends the symbolic reuse across whole analyses
    // (SimSession); the LU reuse never crosses a run.
    std::optional<mna::SystemCache> local_cache;
    const bool shared_cache = cache != nullptr;
    if (!shared_cache) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }
    const obs::SolverWork work_before = cache->stats();

    SwecStepper stepper(assembler, options, *cache, shared_cache);
    while (!stepper.done()) {
        // Cooperative cancellation, polled once per step: the partial
        // waveforms recorded so far are the result.
        if (observer != nullptr && observer->cancelled()) {
            stepper.abort();
            break;
        }
        const obs::Span step_span("step", "engine");
        stepper.eval();
        stepper.prepare();
        stepper.stamp();
        // The healthy path is one solve through the cache (the run's
        // first step factors, later ones reuse its LU); a singular or
        // non-finite solve walks the dt-backoff -> gmin ->
        // source-stepping ladder before giving up.
        stepper.solve_rescued();
        stepper.accept(observer);
    }

    TranResult result = stepper.take_result();
    // Delta over this run, so a shared cache reports per-analysis work.
    result.solver = cache->stats() - work_before;
    result.solver_ordering = make_ordering_stats(cache->stats());
    result.flops = scope.counter();
    return result;
}

} // namespace nanosim::engines
