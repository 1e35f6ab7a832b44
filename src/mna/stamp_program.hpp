// Nano-Sim — flattened per-step stamp/evaluation programs.
//
// Profiling the SWEC inner loop (session batch on a 32x32 RTD mesh)
// lands in per-device virtual dispatch: every step, every nonlinear
// device went `Device::swec_conductance` -> `Device::stamp_swec` ->
// `Stamper::conductance` -> a binary-searched slot lookup, repeated for
// NR linearisations and time-varying restamps.  None of that indirection
// carries information — the set of devices, their concrete classes, the
// matrix coordinates they touch and the slot each coordinate occupies in
// the frozen pattern are ALL fixed the moment a SystemCache freezes its
// union stamp pattern.
//
// A StampProgram compiles that knowledge into flat execution plans at
// pattern-freeze time:
//
//  * per-device-class SoA evaluation loops (chord conductance + rate) —
//    RTDs evaluate through rtd_math on their parameter structs, diodes /
//    nanowires / MOSFETs / RTTs through devirtualised qualified calls,
//    with opt-in ChordTable lookups replacing the transcendentals;
//  * per-device conductance-pair scatters: the 4 CSC value slots of a
//    two-terminal conductance stamp, precomputed so a SWEC / PWL / NR /
//    time-varying restamp is `values[slot] += ±g` — zero virtual calls,
//    zero Stamper indirection, zero slot searches;
//  * NR linearisation plans: the 6 single-entry slots of a MOSFET/RTT
//    stamp plus Norton rhs rows, evaluated and scattered in one pass;
//  * the node-diagonal conductance sums the adaptive step bound
//    (eq. 12) needs, replacing the per-step scratch MnaBuilder.
//
// Bit-identity contract: every fast path reproduces the arithmetic of
// MnaAssembler's virtual stamps (stamp_*_into, the oracle the tests
// compare against) exactly — same evaluation expressions (shared free
// functions / devirtualised calls into the same member functions), same
// per-slot accumulation order (devices in assembler order, entries in
// stamp-call order).  Devices of classes the program does not recognise
// fall back to their virtual stamps through the cache's scatter stamper,
// preserving correctness for user-defined models.
#ifndef NANOSIM_MNA_STAMP_PROGRAM_HPP
#define NANOSIM_MNA_STAMP_PROGRAM_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "devices/rtd.hpp" // RtdParams stored BY VALUE in the SoA plan
#include "devices/tabulated.hpp"
#include "linalg/dense.hpp"
#include "mna/mna.hpp"

namespace nanosim {
class Diode;
class ISource;
class Mosfet;
class Nanowire;
class Rtt;
class TimeVaryingConductor;
class VSource;
} // namespace nanosim

namespace nanosim::mna {

class StampProgram {
public:
    static constexpr std::size_t k_npos = static_cast<std::size_t>(-1);

    /// Resolve a frozen-pattern slot for (row, col); k_npos when absent.
    using SlotFn = std::function<std::size_t(std::size_t, std::size_t)>;

    /// Compile the program against `assembler`'s device lists, resolving
    /// every per-step coordinate through `slot_of` (the cache's frozen
    /// pattern).  Throws AnalysisError when a required coordinate is
    /// missing — the union pattern always contains them by construction.
    StampProgram(const MnaAssembler& assembler, const SlotFn& slot_of);

    // ---- device-model evaluation -------------------------------------

    /// Chord conductances (and, when `with_rate`, their time rates) of
    /// every nonlinear device, written to geq[k] / geq_rate[k] parallel
    /// to assembler.nonlinear_devices().  Tight per-class loops; bound
    /// tables short-circuit the closed forms inside their range.
    void eval_chords(const NodeVoltages& v, const NodeVoltages& dvdt,
                     bool with_rate, std::span<double> geq,
                     std::span<double> geq_rate) const;

    // ---- per-step restamps (into the frozen-pattern value array) ------

    /// SWEC chord stamps: values[slot] += ±geq[k] over precomputed pairs.
    void apply_swec(std::span<const double> geq, std::span<double> values,
                    Stamper& fallback) const;

    /// Newton-Raphson linearisation at x: evaluate every device's
    /// tangent + Norton current and scatter both (matrix slots + rhs
    /// rows).
    void apply_nr(std::span<const double> x, std::span<double> values,
                  linalg::Vector& rhs, Stamper& fallback) const;

    /// Time-varying linear device stamps at time t.
    void apply_time_varying(double t, std::span<double> values,
                            Stamper& fallback) const;

    /// True when apply_nortons covers every nonlinear device (all of
    /// them stamp the standard two-node Norton pair).
    [[nodiscard]] bool norton_fast() const noexcept { return norton_fast_; }

    /// PWL Norton stamps: per device k, conductance g[k] over its pair
    /// slots and ∓ioff[k] on its principal rhs rows.
    void apply_nortons(std::span<const double> g,
                       std::span<const double> ioff,
                       std::span<double> values, linalg::Vector& rhs) const;

    /// True when add_swec_gdiag covers every time-varying and nonlinear
    /// device (no unrecognised classes).
    [[nodiscard]] bool gdiag_fast() const noexcept { return gdiag_fast_; }

    /// True when eval_rhs covers the circuit: only V/I sources write the
    /// source vector and every device class is recognised as rhs-inert.
    [[nodiscard]] bool rhs_fast() const noexcept { return rhs_fast_; }

    /// Device half of the eq. (12) step bound: min over devices of their
    /// step_limit.  The chord-rate classes (RTD/diode/nanowire/RTT) reuse
    /// the geq/geq_rate values of the current step — the exact quantities
    /// Device::step_limit would re-derive from the same state — so no
    /// model re-evaluation happens; MOSFETs use their (transcendental-
    /// free) V_GS bound; unrecognised classes go through the virtual.
    [[nodiscard]] double device_step_bound(const NodeVoltages& v,
                                           const NodeVoltages& dvdt,
                                           std::span<const double> geq,
                                           std::span<const double> geq_rate,
                                           double eps) const;

    /// Source vector b(t) (+ realized noise injections) into `out` —
    /// replicates MnaAssembler::rhs without the scratch MnaBuilder and
    /// the virtual stamp_rhs sweep over every device.  Sources are read
    /// through their device handles, so sweep-swapped stimuli are seen.
    void eval_rhs(double t, const MnaAssembler::NoiseRealization* noise,
                  linalg::Vector& out) const;

    /// ADD the node-diagonal conductance contributions of time-varying
    /// devices (at time t) and SWEC chords `geq` to gdiag — the eq. (12)
    /// step-bound input, replacing a scratch-builder pass over the
    /// virtual stamps.
    void add_swec_gdiag(double t, std::span<const double> geq,
                        std::span<double> gdiag) const;

    // ---- tabulated models --------------------------------------------

    /// Attach tables for every tabulatable device (get-or-build through
    /// `store`).  Returns the number of tables actually built.
    std::size_t bind_tables(TableStore& store, const TableConfig& cfg);

    /// Detach tables — evaluation returns to the exact closed forms.
    void unbind_tables() noexcept { tables_on_ = false; }

    [[nodiscard]] bool tables_bound() const noexcept { return tables_on_; }

    /// Devices currently evaluating through a table (for reporting).
    [[nodiscard]] std::size_t tabulated_devices() const noexcept;

private:
    /// Concrete class of a nonlinear device (typeid-exact, so user
    /// subclasses of the known models stay on the generic path).
    enum class Kind : std::uint8_t {
        rtd,
        diode,
        nanowire,
        mosfet,
        rtt,
        generic,
    };

    /// Slots of a two-terminal conductance stamp between nodes (a, b):
    /// +g at (a,a), (b,b); -g at (a,b), (b,a); k_npos = row dropped
    /// (ground terminal).  Scatter order matches MnaBuilder/CoordStamper
    /// call order for bit-identical accumulation.
    struct Pair {
        std::size_t aa = k_npos;
        std::size_t bb = k_npos;
        std::size_t ab = k_npos;
        std::size_t ba = k_npos;
    };

    static void scatter_pair(const Pair& p, double g,
                             double* values) noexcept {
        if (p.aa != k_npos) {
            values[p.aa] += g;
        }
        if (p.bb != k_npos) {
            values[p.bb] += g;
        }
        if (p.ab != k_npos) {
            values[p.ab] += -g;
            values[p.ba] += -g;
        }
    }

    /// rhs_current(a, -ieq); rhs_current(b, +ieq) with ground dropped.
    static void scatter_rhs_pair(std::ptrdiff_t a_row, std::ptrdiff_t b_row,
                                 double ieq, linalg::Vector& rhs) noexcept {
        if (a_row >= 0) {
            rhs[static_cast<std::size_t>(a_row)] += -ieq;
        }
        if (b_row >= 0) {
            rhs[static_cast<std::size_t>(b_row)] += +ieq;
        }
    }

    [[nodiscard]] Pair make_pair(NodeId a, NodeId b,
                                 const SlotFn& slot_of) const;
    [[nodiscard]] std::size_t require_slot(const SlotFn& slot_of,
                                           std::size_t row,
                                           std::size_t col) const;

    const MnaAssembler* assembler_;

    // ---- per nonlinear device, in assembler.nonlinear_devices() order
    std::vector<Kind> kind_;
    std::vector<std::uint32_t> class_pos_; ///< index into the class SoA
    std::vector<Pair> pair_;               ///< principal conductance pair
    std::vector<std::ptrdiff_t> diag_a_;   ///< node-diag rows (-1 = ground)
    std::vector<std::ptrdiff_t> diag_b_;
    std::vector<std::ptrdiff_t> rhs_a_;    ///< principal rhs rows
    std::vector<std::ptrdiff_t> rhs_b_;

    // ---- per-class SoA evaluation plans ------------------------------
    struct RtdSoA {
        std::vector<const Rtd*> dev;
        /// Parameter copies, contiguous — the eval loop reads them
        /// without chasing per-device heap pointers.  Safe because any
        /// parameter mutation requires a reassemble/rebind (which also
        /// refreshes the cache's static baselines), and rebind rebuilds
        /// the program.
        std::vector<RtdParams> params;
        std::vector<NodeId> pos, neg;
        /// Terminal slots into the ground-padded voltage array (slot 0
        /// reads exactly 0.0) — the vectorised gather of eval_chords.
        std::vector<std::uint32_t> pos_slot, neg_slot;
        std::vector<std::uint32_t> idx;
        std::vector<const ChordTable*> table;
    };
    struct DiodeSoA {
        std::vector<const Diode*> dev;
        std::vector<NodeId> pos, neg;
        std::vector<std::uint32_t> pos_slot, neg_slot;
        std::vector<std::uint32_t> idx;
        std::vector<const ChordTable*> table;
    };
    struct WireSoA {
        std::vector<const Nanowire*> dev;
        std::vector<NodeId> pos, neg;
        std::vector<std::uint32_t> pos_slot, neg_slot;
        std::vector<std::uint32_t> idx;
        std::vector<const ChordTable*> table;
    };
    struct MosSoA {
        std::vector<const Mosfet*> dev;
        std::vector<NodeId> drain, gate, source;
        std::vector<std::uint32_t> idx;
        /// NR entry slots, order (d,g)(d,s)(d,d)(s,g)(s,s)(s,d).
        std::vector<std::array<std::size_t, 6>> nr_slot;
    };
    struct RttSoA {
        std::vector<const Rtt*> dev;
        std::vector<NodeId> collector, base, emitter;
        std::vector<std::uint32_t> idx;
        /// NR entry slots, order (c,c)(c,e)(c,b)(e,c)(e,e)(e,b).
        std::vector<std::array<std::size_t, 6>> nr_slot;
    };
    struct GenericEntry {
        const Device* dev = nullptr;
        std::uint32_t idx = 0;
        int branch_base = 0;
    };
    RtdSoA rtds_;
    DiodeSoA diodes_;
    WireSoA wires_;
    MosSoA mosfets_;
    RttSoA rtts_;
    std::vector<GenericEntry> generics_;

    // ---- time-varying devices, in assembler order ---------------------
    struct TvEntry {
        const TimeVaryingConductor* fast = nullptr; ///< null = fallback
        const Device* dev = nullptr;
        int branch_base = 0;
        Pair pair;
        std::ptrdiff_t diag_a = -1;
        std::ptrdiff_t diag_b = -1;
    };
    std::vector<TvEntry> tv_;

    // ---- compiled rhs plan (sources only, in circuit device order) ----
    struct RhsSource {
        const VSource* vs = nullptr; ///< exactly one of vs/is is set
        const ISource* is = nullptr;
        std::size_t branch_row = 0;  ///< VSource branch row
        std::ptrdiff_t pos_row = -1; ///< ISource node rows (-1 = ground)
        std::ptrdiff_t neg_row = -1;
    };
    struct RhsNoise { ///< parallel to assembler.noise_sources()
        std::ptrdiff_t pos_row = -1;
        std::ptrdiff_t neg_row = -1;
    };
    std::vector<RhsSource> rhs_sources_;
    std::vector<RhsNoise> rhs_noise_;
    std::size_t unknowns_ = 0;
    bool rhs_fast_ = true;

    bool norton_fast_ = true;
    bool gdiag_fast_ = true;
    bool tables_on_ = false;
    // ---- vectorised eval scratch (eval_chords) ------------------------
    // vpad_/dpad_: ground-padded copies of the step's node voltages /
    // rates (index 0 = ground = 0.0, node i at index i) so terminal
    // lookups become branch-free gathers; vd_/vdot_: the per-class
    // contiguous terminal differences the model loops then read.
    mutable std::vector<double> vpad_, dpad_, vd_, vdot_;
    /// Pins the shared tables the SoA raw pointers refer to.
    std::vector<std::shared_ptr<const ChordTable>> table_refs_;
};

} // namespace nanosim::mna

#endif // NANOSIM_MNA_STAMP_PROGRAM_HPP
