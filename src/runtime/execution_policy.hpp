// Nano-Sim — execution policy for batch/ensemble orchestration.
//
// An ExecutionPolicy says how much parallel hardware a driver may use.
// It is a plain value so every driver can take it by default argument;
// threads == 0 defers to the machine.  Determinism note: no Nano-Sim
// driver lets the thread count influence results — the Monte-Carlo
// driver (engines::run_monte_carlo) keys trial noise by (trial, source),
// the Euler-Maruyama ensemble driver (EmEngine::run_ensemble) gives path
// p stream p of stochastic::SeedSequence, sweep campaigns build each job
// from its grid point, and every reduction happens in job-index order on
// the calling thread — so the policy is purely a performance knob.
// resolved() reads any count <= 0 as "all cores"; the session API
// refuses negative counts before a pool starts.
#ifndef NANOSIM_RUNTIME_EXECUTION_POLICY_HPP
#define NANOSIM_RUNTIME_EXECUTION_POLICY_HPP

#include <thread>

namespace nanosim::runtime {

/// How many worker threads a parallel driver may use.
struct ExecutionPolicy {
    /// 0 = one worker per hardware thread.
    int threads = 0;

    /// The concrete worker count (always >= 1).
    [[nodiscard]] int resolved() const noexcept {
        if (threads > 0) {
            return threads;
        }
        const unsigned hc = std::thread::hardware_concurrency();
        return hc == 0 ? 1 : static_cast<int>(hc);
    }
};

} // namespace nanosim::runtime

#endif // NANOSIM_RUNTIME_EXECUTION_POLICY_HPP
