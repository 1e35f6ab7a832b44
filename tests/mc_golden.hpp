// Golden hashes of Monte-Carlo campaign outputs, shared by the
// Monte-Carlo driver tests.
//
// The hashes were recorded from the serial driver while the
// trial-batched driver still existed and reproduced them bit for bit.
// Toolchain: GCC 12.2, glibc 2.36, x86-64, Release, RelWithDebInfo+ASan
// and RelWithDebInfo+TSan builds (all agree).  The bits depend on libm's
// exp/log/pow and on FP contraction, so on another toolchain a mismatch
// may be the platform rather than a driver change: the 1-vs-N-worker
// identity checks beside each golden check are the toolchain-independent
// oracle, and a mismatch prints the hash to re-record.
#ifndef NANOSIM_TESTS_MC_GOLDEN_HPP
#define NANOSIM_TESTS_MC_GOLDEN_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "engines/monte_carlo.hpp"

namespace nanosim::mc_golden {

/// FNV-1a over 64-bit words.
struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void mix(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    }
    void mix(double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }
};

/// Hash of a campaign: the mean waveform (times and values), the stddev
/// values, every trial's accepted-step count and the flop total.
inline std::uint64_t hash(const engines::McResult& r) {
    Fnv f;
    for (std::size_t i = 0; i < r.mean.size(); ++i) {
        f.mix(r.mean.time_at(i));
        f.mix(r.mean.value_at(i));
    }
    for (std::size_t i = 0; i < r.stddev.size(); ++i) {
        f.mix(r.stddev.value_at(i));
    }
    f.mix(static_cast<std::uint64_t>(r.trial_steps.size()));
    for (const int steps : r.trial_steps) {
        f.mix(static_cast<std::uint64_t>(steps));
    }
    f.mix(r.flops.total());
    return f.h;
}

/// Assert `r` hashes to `want`; a mismatch prints the actual hash.
inline void expect_golden(const engines::McResult& r, std::uint64_t want,
                          const char* campaign) {
    const std::uint64_t got = hash(r);
    char line[96];
    std::snprintf(line, sizeof(line), "%s: 0x%016llxULL", campaign,
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, want) << "golden mismatch, " << line;
}

// Recorded campaigns (see the test that runs each).  k_rtd_mesh was
// re-recorded when SWEC steps after a trial's first began solving through
// the trial's held LU with iterative refinement (a sparse-path change;
// the inverter and the robustness campaigns are dense and did not move).
inline constexpr std::uint64_t k_inverter = 0x81a397a20ae084a7ULL;
inline constexpr std::uint64_t k_rtd_mesh = 0x233d882d04064fd3ULL;
inline constexpr std::uint64_t k_quarantine = 0xf77b798711b3a2dcULL;
inline constexpr std::uint64_t k_checkpoint = 0xe790d8fade19c62dULL;

} // namespace nanosim::mc_golden

#endif // NANOSIM_TESTS_MC_GOLDEN_HPP
