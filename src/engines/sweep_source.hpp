// Nano-Sim — the swept source of a DC sweep: set its level per point and
// put the original stimulus back afterwards.
//
// Every DC sweep engine (SWEC, NR, MLA) replaces the swept V/I source's
// waveform with a DC level at each point.  These two helpers are the one
// place that does it, so the three engines leave the circuit in the same
// state: the exact original WaveformPtr, on return and on throw.
#ifndef NANOSIM_ENGINES_SWEEP_SOURCE_HPP
#define NANOSIM_ENGINES_SWEEP_SOURCE_HPP

#include <string>

#include "devices/waveform.hpp"
#include "netlist/circuit.hpp"

namespace nanosim::engines {

/// Replace the stimulus of V/I source `source` with a DC level.  Throws
/// NetlistError when `source` is not a V or I source.
void set_source_level(Circuit& circuit, const std::string& source,
                      double level);

/// RAII restore of a named V/I source's stimulus: saves the shared
/// waveform handle at construction and puts the exact original object
/// back on destruction — on both success and throw.  Every DC sweep
/// entry point that owns its circuit state (the engines' convenience
/// overloads, SimSession's sweeps) runs under one.
class SourceWaveGuard {
public:
    /// Throws NetlistError when `source` is not a V or I source.
    SourceWaveGuard(Circuit& circuit, const std::string& source);
    ~SourceWaveGuard();

    SourceWaveGuard(const SourceWaveGuard&) = delete;
    SourceWaveGuard& operator=(const SourceWaveGuard&) = delete;

    /// The saved original stimulus (for tests).
    [[nodiscard]] const WaveformPtr& saved() const noexcept { return saved_; }

private:
    Circuit* circuit_;
    std::string source_;
    WaveformPtr saved_;
    bool is_vsource_ = false;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_SWEEP_SOURCE_HPP
