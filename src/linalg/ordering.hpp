// Nano-Sim — fill-reducing node orderings for the sparse solver path.
//
// On 1-D ladder topologies (the RTD chains) natural node order is already
// near-optimal and the Gilbert-Peierls LU stays banded.  On the 2-D
// topologies nanotech fabrics and power-distribution meshes actually have,
// natural order produces O(n^1.5)+ fill — and the pattern-reusing refactor
// path faithfully caches that fill and re-pays it on EVERY accepted time
// step.  A fill-reducing symmetric permutation, computed once from the
// frozen sparsity pattern, shrinks both the one-time symbolic analysis and
// every subsequent numeric refactor/solve.
//
// This header provides:
//
//   * Permutation — a validated bijection with apply/invert helpers and a
//     symmetric CSC pattern permutation (B = A(p,p)) that also emits the
//     slot map needed to feed values in the caller's original order;
//   * reverse_cuthill_mckee() — bandwidth-reducing BFS ordering from a
//     pseudo-peripheral start node (George & Liu), per component;
//   * min_degree_ordering() — greedy minimum-(external-)degree ordering of
//     the symmetrized elimination graph, the algorithm family AMD
//     approximates (AMD's quotient-graph degree bounds are purely a speed
//     optimisation; the fill behaviour is the same);
//   * predicted_fill() — nnz(L)+nnz(U) of a no-pivoting symbolic
//     factorisation of the symmetrized pattern under a candidate
//     permutation, the quantity mna::SystemCache compares at freeze time
//     to auto-select an ordering.
//
// All functions take the CSC pattern (col_ptr/row_idx, rows sorted and
// unique per column) that linalg::SparseLu and mna::SystemCache already
// maintain; patterns are symmetrized internally, so unsymmetric MNA
// patterns (voltage-source branch rows) are handled.
#ifndef NANOSIM_LINALG_ORDERING_HPP
#define NANOSIM_LINALG_ORDERING_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/dense.hpp"

namespace nanosim::linalg {

/// A fill-reducing ordering (mna::SystemCache picks the one with the
/// least predicted fill and reports it in its stats).
enum class Ordering {
    natural,   ///< identity — keep assembly order
    rcm,       ///< reverse Cuthill-McKee (bandwidth reducing)
    min_degree,///< greedy minimum degree (the AMD family)
};

/// Human-readable name ("natural", "rcm", "min_degree").
[[nodiscard]] const char* ordering_name(Ordering o) noexcept;

/// A validated permutation of {0, .., n-1}.  Convention: new_to_old()[j]
/// is the ORIGINAL index placed at permuted position j, so a symmetric
/// matrix permutation reads  B(j, k) = A(new_to_old[j], new_to_old[k]).
/// A default-constructed Permutation is empty and means "identity of
/// whatever size the caller needs" (SparseLu treats it as no-op).
class Permutation {
public:
    Permutation() = default;

    /// Takes new_to_old; throws SimError unless it is a bijection.
    explicit Permutation(std::vector<std::size_t> new_to_old);

    [[nodiscard]] static Permutation identity(std::size_t n);

    [[nodiscard]] std::size_t size() const noexcept {
        return new_to_old_.size();
    }
    [[nodiscard]] bool empty() const noexcept { return new_to_old_.empty(); }
    [[nodiscard]] bool is_identity() const noexcept;

    [[nodiscard]] const std::vector<std::size_t>& new_to_old() const noexcept {
        return new_to_old_;
    }
    [[nodiscard]] const std::vector<std::size_t>& old_to_new() const noexcept {
        return old_to_new_;
    }

    /// The permutation mapping the other way (apply(inverse().apply(v))
    /// == v).
    [[nodiscard]] Permutation inverse() const;

    /// Gather: out[j] = v[new_to_old[j]] (original -> permuted space).
    [[nodiscard]] Vector apply(const Vector& v) const;
    /// Allocation-free variant (out is resized; must not alias v) — the
    /// hot-path form SparseLu::solve uses every step.
    void apply(const Vector& v, Vector& out) const;

    /// Scatter: out[new_to_old[j]] = v[j] (permuted -> original space).
    [[nodiscard]] Vector apply_inverse(const Vector& v) const;
    /// Allocation-free variant (out is resized; must not alias v).
    void apply_inverse(const Vector& v, Vector& out) const;

    /// Symmetric CSC pattern permutation B = A(p,p).  `slot_map[s]` gives,
    /// for each slot s of the permuted pattern, the slot of the ORIGINAL
    /// pattern holding the same matrix entry — so permuted values are a
    /// gather of original values.  Rows stay sorted and unique per column.
    void permute_pattern(const std::vector<std::size_t>& col_ptr,
                         const std::vector<std::size_t>& row_idx,
                         std::vector<std::size_t>& out_col_ptr,
                         std::vector<std::size_t>& out_row_idx,
                         std::vector<std::size_t>& slot_map) const;

private:
    std::vector<std::size_t> new_to_old_;
    std::vector<std::size_t> old_to_new_;
};

/// Reverse Cuthill-McKee ordering of the symmetrized pattern.  Each
/// connected component is BFS-numbered from a pseudo-peripheral node with
/// neighbours visited in ascending-degree order; the concatenated order is
/// reversed.  Deterministic for a given pattern.
[[nodiscard]] Permutation
reverse_cuthill_mckee(std::size_t n, const std::vector<std::size_t>& col_ptr,
                      const std::vector<std::size_t>& row_idx);

/// Greedy minimum-degree ordering of the symmetrized elimination graph:
/// repeatedly eliminate the node of least external degree and connect its
/// neighbours into a clique.  Deterministic (ties break on index).
[[nodiscard]] Permutation
min_degree_ordering(std::size_t n, const std::vector<std::size_t>& col_ptr,
                    const std::vector<std::size_t>& row_idx);

/// Predicted factor fill under `perm`: nnz(L) + nnz(U) (diagonal counted
/// once) of a symbolic no-pivoting factorisation of the symmetrized
/// pattern — directly comparable to SparseLu::nnz_factors() when partial
/// pivoting stays on the diagonal.  An empty permutation means natural
/// order.
[[nodiscard]] std::size_t
predicted_fill(std::size_t n, const std::vector<std::size_t>& col_ptr,
               const std::vector<std::size_t>& row_idx,
               const Permutation& perm = {});

} // namespace nanosim::linalg

#endif // NANOSIM_LINALG_ORDERING_HPP
