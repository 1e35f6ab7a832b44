#include "linalg/sparse.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::linalg {

void Triplets::add(std::size_t row, std::size_t col, double value) {
    if (row >= rows_ || col >= cols_) {
        throw SimError("Triplets::add: index out of range");
    }
    entries_.push_back(Triplet{row, col, value});
}

DenseMatrix Triplets::to_dense() const {
    DenseMatrix m(rows_, cols_);
    for (const auto& e : entries_) {
        m(e.row, e.col) += e.value;
    }
    return m;
}

CscForm compress_columns(const Triplets& t) {
    CscForm out;
    out.rows = t.rows();
    out.cols = t.cols();
    std::vector<Triplet> sorted = t.entries();
    std::sort(sorted.begin(), sorted.end(),
              [](const Triplet& a, const Triplet& b) {
                  return a.col != b.col ? a.col < b.col : a.row < b.row;
              });
    out.col_ptr.assign(out.cols + 1, 0);
    out.row_idx.reserve(sorted.size());
    out.values.reserve(sorted.size());
    for (std::size_t i = 0; i < sorted.size();) {
        const std::size_t c = sorted[i].col;
        const std::size_t r = sorted[i].row;
        double sum = 0.0;
        while (i < sorted.size() && sorted[i].col == c && sorted[i].row == r) {
            sum += sorted[i].value;
            ++i;
        }
        out.row_idx.push_back(r);
        out.values.push_back(sum);
        ++out.col_ptr[c + 1];
    }
    for (std::size_t c = 0; c < out.cols; ++c) {
        out.col_ptr[c + 1] += out.col_ptr[c];
    }
    return out;
}

CsrMatrix::CsrMatrix(const Triplets& t) : rows_(t.rows()), cols_(t.cols()) {
    std::vector<Triplet> sorted = t.entries();
    std::sort(sorted.begin(), sorted.end(),
              [](const Triplet& a, const Triplet& b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });

    row_ptr_.assign(rows_ + 1, 0);
    col_idx_.reserve(sorted.size());
    values_.reserve(sorted.size());

    for (std::size_t i = 0; i < sorted.size();) {
        const std::size_t r = sorted[i].row;
        const std::size_t c = sorted[i].col;
        double sum = 0.0;
        while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
            sum += sorted[i].value;
            ++i;
        }
        col_idx_.push_back(c);
        values_.push_back(sum);
        ++row_ptr_[r + 1];
    }
    for (std::size_t r = 0; r < rows_; ++r) {
        row_ptr_[r + 1] += row_ptr_[r];
    }
}

Vector CsrMatrix::multiply(const Vector& x) const {
    Vector y;
    multiply(x, y);
    return y;
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
    if (x.size() != cols_) {
        throw SimError("CsrMatrix::multiply: vector size mismatch");
    }
    y.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            acc += values_[k] * x[col_idx_[k]];
        }
        y[r] = acc;
    }
    count_fma(nnz());
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
    if (row >= rows_ || col >= cols_) {
        throw SimError("CsrMatrix::at: index out of range");
    }
    const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
    const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
    const auto it = std::lower_bound(begin, end, col);
    if (it == end || *it != col) {
        return 0.0;
    }
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

DenseMatrix CsrMatrix::to_dense() const {
    DenseMatrix m(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            m(r, col_idx_[k]) = values_[k];
        }
    }
    return m;
}

} // namespace nanosim::linalg
