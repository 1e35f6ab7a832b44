// Nano-Sim — trial-batched Monte-Carlo driver.
//
// The serial driver runs each realization's transient to completion
// before starting the next, so every step pays a lone numeric refactor
// and a lone pair of triangular solves.  This driver keeps a
// *time-frontier* of up to K trials in flight and advances them in
// rounds; per round it
//
//   (a) batches chord evaluation across the active lanes through the
//       StampProgram SoA path (SystemCache::eval_chords_batch),
//   (b) batches the due numeric refactors through one dispatch on a
//       driver-owned ThreadPool (SparseLu::refactor_lanes), and
//   (c) solves lanes that share a value plane bit-for-bit — linear
//       circuits, RHS-only noise perturbations — under a single factor
//       with the blocked multi-RHS substitution (SparseLu::solve_multi).
//
// Hard contract: per-trial adaptive step sequences, waveforms, and
// ensemble statistics are bit-identical to run_monte_carlo at any batch
// width and worker count.  Batching changes *when* shared work
// executes, never its operands: every lane's step arithmetic is the
// exact serial SwecStepper cycle on that lane's state, lane factors
// reproduce the serial refactor per plane, and any degraded pivot drops
// the whole round back to the serial solve path in lane order.
#ifndef NANOSIM_ENGINES_MC_BATCH_HPP
#define NANOSIM_ENGINES_MC_BATCH_HPP

#include "engines/monte_carlo.hpp"
#include "runtime/execution_policy.hpp"

namespace nanosim::engines {

/// Run the Monte-Carlo analysis with up to `batch` trials in flight
/// (clamped to [1, runs]).  Same contract as run_monte_carlo: `rng`
/// seeds the shared noise-path set, `observer` gets per-trial callbacks
/// in trial order and may cancel (statistics then cover the exact trial
/// prefix the serial driver would keep), `cache` shares one caller-owned
/// SystemCache across the lanes.  Without `cache` the driver owns one
/// internal cache shared by every lane — equivalent to the serial driver
/// *with* a shared cache, not to serial per-trial caches.  `policy`
/// sizes the pool the driver owns for lane-parallel refactors (one task
/// per lane; the default 1 keeps every lane on the calling thread);
/// results do not depend on it.
[[nodiscard]] McResult
run_monte_carlo_batched(const mna::MnaAssembler& assembler,
                        const McOptions& options, stochastic::Rng& rng,
                        NodeId node, int batch,
                        const AnalysisObserver* observer = nullptr,
                        mna::SystemCache* cache = nullptr,
                        const runtime::ExecutionPolicy& policy =
                            runtime::ExecutionPolicy{1});

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_MC_BATCH_HPP
