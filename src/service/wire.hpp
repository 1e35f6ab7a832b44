// Nano-Sim — wire schema: AnalysisSpec / AnalysisResult <-> JSON.
//
// The service protocol (service/server.hpp) ships analysis requests and
// results as JSON documents; this module is the schema, usable standalone
// (save a spec to disk, replay a result) without any networking.
//
// Spec encoding contract:
//  * Discriminated by "kind": "op" | "dc" | "tran" | "mc" | "em" (the
//    analysis_kind_name strings).
//  * Fields equal to the default-constructed spec are OMITTED, and
//    parsing fills them back from the same defaults — so
//    spec_from_json(spec_to_json(s)) reproduces `s` bit-identically and
//    `{"kind":"op"}` is a complete request.
//  * Unknown keys are REJECTED (ServiceError), not ignored: a typo like
//    "t_sop" must not silently run a different simulation.
//  * TranSpec::noise / MonteCarloSpec::tran.noise (per-trial noise
//    realizations) are Monte-Carlo ENGINE internals, never wire state;
//    spec_to_json throws if they are set.
//  * uint64 fields (seed, cache_signature) that exceed 2^53 travel as
//    decimal strings (JSON numbers are doubles); the parser accepts
//    both spellings.
//
// Result encoding: full header, the engine-native payload, and the
// obs::RunReport.  The solver-cache work (obs::SolverWork) is encoded
// through its one field list: a "solver" object in the header and in
// the op/tran payloads (the payload's ordering decision rides beside it
// as "ordering"), flat keys in the report.  The header's record is the
// whole run's, including the session cache's construction on a first
// run; the payload's covers the engine call only.  Unknown keys are
// rejected in every result block, as in specs.  Waveforms serialize as
// {"label","t":[...],"v":[...]} with shortest-round-trip doubles, so a
// result crossing the wire compares BIT-IDENTICAL to the in-process
// AnalysisResult — the service acceptance criterion.  Two payload
// members do not round-trip and are documented as summaries:
// FlopCounter internals beyond the category tallies (exact), and
// stochastic::EnsembleStats (serialized as paths/points/peak summary +
// per-path peaks; parsing restores an empty accumulator — the mean and
// stddev WAVEFORMS carry the ensemble statistics losslessly).
#ifndef NANOSIM_SERVICE_WIRE_HPP
#define NANOSIM_SERVICE_WIRE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis_spec.hpp"
#include "engines/checkpoint.hpp"
#include "netlist/circuit.hpp"
#include "service/json.hpp"

namespace nanosim::service::wire {

// ---- AnalysisSpec ----------------------------------------------------

[[nodiscard]] json::Value spec_to_json(const AnalysisSpec& spec);
[[nodiscard]] AnalysisSpec spec_from_json(const json::Value& v);

// ---- AnalysisResult --------------------------------------------------

[[nodiscard]] json::Value result_to_json(const AnalysisResult& result);
[[nodiscard]] AnalysisResult result_from_json(const json::Value& v);

// ---- Monte-Carlo checkpoints -----------------------------------------

/// Full-fidelity encoding of a resumable MC campaign state: raw Welford
/// accumulators travel with shortest-round-trip doubles and u64s as
/// decimal strings past 2^53, so checkpoint_from_json(checkpoint_to_json)
/// reproduces the state bit-identically — the resume contract.  These
/// documents ride "checkpoint" service events and the `submit --resume`
/// path ("resume" key of an mc spec).
[[nodiscard]] json::Value checkpoint_to_json(const engines::McCheckpoint& cp);
[[nodiscard]] engines::McCheckpoint checkpoint_from_json(const json::Value& v);

// ---- circuit source --------------------------------------------------

/// One extra white-noise current source to inject into the circuit
/// (node -> ground), so Monte-Carlo / EM jobs on generator-built fabrics
/// can be requested over the wire (the generators themselves carry no
/// noise sources).
struct NoiseInjection {
    std::string node;
    double sigma = 0.0; ///< intensity [A sqrt(s)], > 0
};

/// Where a job's circuit comes from: exactly one of `builtin` (a
/// refckt::builtin_circuit spec like "mesh:32x32") or `deck` (full
/// netlist text), plus optional noise injections.  The canonical text is
/// the SessionRegistry dedup key — two clients submitting the same
/// builtin spec (or byte-identical deck) share one live SimSession and
/// its symbolic factorization.
struct CircuitSource {
    std::string builtin;
    std::string deck;
    std::vector<NoiseInjection> noise;

    /// Canonical description: source kind + text + sorted noise list.
    [[nodiscard]] std::string canonical() const;
    /// FNV-1a of canonical() — the session dedup key.
    [[nodiscard]] std::uint64_t signature() const;
    /// Materialize the circuit (builds the generator / parses the deck,
    /// then injects the noise sources).  Throws NetlistError/ServiceError
    /// on bad sources.
    [[nodiscard]] Circuit build() const;

    [[nodiscard]] json::Value to_json() const;
    [[nodiscard]] static CircuitSource from_json(const json::Value& v);
};

} // namespace nanosim::service::wire

#endif // NANOSIM_SERVICE_WIRE_HPP
