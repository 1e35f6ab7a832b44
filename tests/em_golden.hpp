// Golden hashes of Euler-Maruyama ensemble outputs, shared by the EM
// ensemble driver tests.
//
// The hashes were recorded from the per-path-stream ensemble driver
// (path p draws from SeedSequence(seed).stream(p)) before the serial
// shared-stream driver was retired.  Toolchain: GCC 12.2, glibc 2.36,
// x86-64, Release and RelWithDebInfo+TSan builds (both agree).  As with
// tests/mc_golden.hpp, a mismatch on another toolchain may be libm or FP
// contraction rather than a driver change: the 1-vs-N-worker identity
// checks beside each golden check are the toolchain-independent oracle,
// and a mismatch prints the hash to re-record.
#ifndef NANOSIM_TESTS_EM_GOLDEN_HPP
#define NANOSIM_TESTS_EM_GOLDEN_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/rtd.hpp"
#include "devices/sources.hpp"
#include "engines/em_engine.hpp"
#include "mc_golden.hpp"

namespace nanosim::em_golden {

/// Hash of an ensemble: the mean waveform (times and values), the stddev
/// values, every path's peak and the flop total.
inline std::uint64_t hash(const engines::EmEnsembleResult& r) {
    mc_golden::Fnv f;
    for (std::size_t i = 0; i < r.mean.size(); ++i) {
        f.mix(r.mean.time_at(i));
        f.mix(r.mean.value_at(i));
    }
    for (std::size_t i = 0; i < r.stddev.size(); ++i) {
        f.mix(r.stddev.value_at(i));
    }
    const std::vector<double>& peaks = r.stats.peaks();
    f.mix(static_cast<std::uint64_t>(peaks.size()));
    for (const double p : peaks) {
        f.mix(p);
    }
    f.mix(r.flops.total());
    return f.h;
}

/// Assert `r` hashes to `want`; a mismatch prints the actual hash.
inline void expect_golden(const engines::EmEnsembleResult& r,
                          std::uint64_t want, const char* ensemble) {
    const std::uint64_t got = hash(r);
    char line[96];
    std::snprintf(line, sizeof(line), "%s: 0x%016llxULL", ensemble,
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, want) << "golden mismatch, " << line;
}

// ---- recorded ensembles: 16 paths, seed 42, observed node "n1" ---------

inline constexpr int k_paths = 16;
inline constexpr std::uint64_t k_seed = 42;

/// refckt::noisy_rc() over 2 ns at dt = 20 ps.
inline engines::EmOptions rc_options(engines::EmScheme scheme) {
    engines::EmOptions o;
    o.t_stop = 2e-9;
    o.dt = 2e-11;
    o.scheme = scheme;
    return o;
}

/// noisy_rc() with an RTD from n1 to ground: the chord conductance is
/// refreshed every step (swec_update) and every path starts from the
/// SWEC operating point.
inline Circuit rtd_loaded_rc() {
    Circuit ckt = refckt::noisy_rc();
    ckt.add<Rtd>("RTD1", ckt.find_node("n1"), k_ground);
    return ckt;
}
inline engines::EmOptions rtd_options() {
    engines::EmOptions o = rc_options(engines::EmScheme::implicit_be);
    o.swec_update = true;
    o.start_from_dc = true;
    return o;
}

inline constexpr std::uint64_t k_rc_explicit = 0x897c6b211cd89403ULL;
inline constexpr std::uint64_t k_rc_implicit = 0xcc62e09f85341b5cULL;
inline constexpr std::uint64_t k_rtd_swec = 0xce14bf1daa992d05ULL;

} // namespace nanosim::em_golden

#endif // NANOSIM_TESTS_EM_GOLDEN_HPP
