// Nano-Sim — sparse matrix storage (triplet builder + CSR).
//
// MNA matrices are sparse (a handful of entries per node); circuits past a
// few hundred nodes are assembled as triplets and factored with the sparse
// LU in sparse_lu.hpp.  Duplicate triplets accumulate — exactly the device
// "stamping" semantics MNA needs.
#ifndef NANOSIM_LINALG_SPARSE_HPP
#define NANOSIM_LINALG_SPARSE_HPP

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace nanosim::linalg {

/// One (row, col, value) entry.
struct Triplet {
    std::size_t row = 0;
    std::size_t col = 0;
    double value = 0.0;
};

/// Accumulating COO builder.  add() of a duplicate coordinate sums values
/// when compressed, mirroring MNA stamping.
class Triplets {
public:
    Triplets(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t entry_count() const noexcept {
        return entries_.size();
    }

    /// Append a contribution; bounds-checked (throws SimError).
    void add(std::size_t row, std::size_t col, double value);

    /// Drop all entries, keep the shape.
    void clear() noexcept { entries_.clear(); }

    /// The raw (uncompressed) entry list.
    [[nodiscard]] const std::vector<Triplet>& entries() const noexcept {
        return entries_;
    }

    /// Dense copy with duplicates summed.
    [[nodiscard]] DenseMatrix to_dense() const;

private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<Triplet> entries_;
};

/// Compressed-sparse-column pattern + parallel values of a triplet list:
/// duplicates summed, rows sorted and unique within each column — the
/// exact compression SparseLu caches, so `values` can be fed straight to
/// SparseLu::refactor(values) against a SparseLu built from the same
/// triplets.  Shared by the solver, the ordering benches and the tests
/// so the compression rules cannot drift apart.
struct CscForm {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::size_t> col_ptr; ///< size cols + 1
    std::vector<std::size_t> row_idx; ///< size nnz, sorted per column
    std::vector<double> values;       ///< parallel to row_idx
};

[[nodiscard]] CscForm compress_columns(const Triplets& t);

/// Compressed-sparse-row matrix (immutable once built).
class CsrMatrix {
public:
    CsrMatrix() = default;

    /// Compress a triplet list (duplicates summed, entries sorted by
    /// (row, col), explicit zeros kept).
    explicit CsrMatrix(const Triplets& t);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

    [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
        return row_ptr_;
    }
    [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
        return col_idx_;
    }
    [[nodiscard]] const std::vector<double>& values() const noexcept {
        return values_;
    }

    /// y = A * x (flop-counted).
    [[nodiscard]] Vector multiply(const Vector& x) const;
    /// Allocation-free variant: `y` (resized; must not alias `x`)
    /// receives the same bits multiply(x) returns.
    void multiply(const Vector& x, Vector& y) const;

    /// Entry lookup (binary search within the row); 0.0 if not stored.
    [[nodiscard]] double at(std::size_t row, std::size_t col) const;

    /// Dense copy, for tests and small-system fallbacks.
    [[nodiscard]] DenseMatrix to_dense() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> row_ptr_;
    std::vector<std::size_t> col_idx_;
    std::vector<double> values_;
};

} // namespace nanosim::linalg

#endif // NANOSIM_LINALG_SPARSE_HPP
