// nwgraph/sparse/csr_matrix.hpp
//
// Rectangular sparse matrices in CSR form — the "rectangular matrix
// operation support" of paper Sec. III-B.1a: a hypergraph's incidence
// matrix B is nE x nV with independent row/column index spaces, and the
// algebraic route to the lower-order approximations runs through products
// of B with its transpose:
//
//   B · Bᵗ  (nE x nE)  off-diagonal entry (i, j) = |e_i ∩ e_j|
//                       -> threshold at s  =>  the s-line graph
//   Bᵗ · B  (nV x nV)  off-diagonal entry (u, v) = #hyperedges containing both
//                       -> threshold at 1  =>  the clique expansion
//
// Provided operations: construction from triplets or a bipartite edge
// list, transpose, SpMV, and a parallel row-wise Gustavson SpGEMM whose
// per-row accumulator is the same dense sparse_accumulator the counting
// s-line algorithms use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "nwhy/biedgelist.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/sparse_accumulator.hpp"

namespace nw::sparse {

template <class T = std::uint32_t>
class csr_matrix {
public:
  struct triplet {
    vertex_id_t row;
    vertex_id_t col;
    T           value;
  };

  csr_matrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Build from (row, col, value) triplets; duplicates are summed.
  csr_matrix(std::size_t rows, std::size_t cols, std::vector<triplet> entries)
      : rows_(rows), cols_(cols) {
    for (const auto& e : entries) {
      NW_ASSERT(e.row < rows_ && e.col < cols_, "triplet out of matrix bounds");
    }
    // Counting sort rows, then in-row column sort + duplicate summing.
    std::vector<offset_t> counts(rows_ + 1, 0);
    for (const auto& e : entries) ++counts[e.row + 1];
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    std::vector<triplet> sorted(entries.size());
    {
      auto cursor = counts;
      for (const auto& e : entries) sorted[cursor[e.row]++] = e;
    }
    row_ptr_.assign(rows_ + 1, 0);
    col_idx_.reserve(sorted.size());
    values_.reserve(sorted.size());
    for (std::size_t r = 0; r < rows_; ++r) {
      auto begin = sorted.begin() + static_cast<std::ptrdiff_t>(counts[r]);
      auto end   = sorted.begin() + static_cast<std::ptrdiff_t>(counts[r + 1]);
      std::sort(begin, end, [](const triplet& a, const triplet& b) { return a.col < b.col; });
      for (auto it = begin; it != end; ++it) {
        if (!col_idx_.empty() && row_ptr_[r] != col_idx_.size() &&
            col_idx_.back() == it->col) {
          values_.back() += it->value;  // duplicate within the row: sum
        } else {
          col_idx_.push_back(it->col);
          values_.push_back(it->value);
        }
      }
      row_ptr_[r + 1] = col_idx_.size();
    }
  }

  /// The incidence matrix of a hypergraph: rows = hyperedges, columns =
  /// hypernodes, all stored entries 1.
  static csr_matrix from_incidence(const nw::hypergraph::biedgelist<>& el) {
    std::vector<triplet> entries;
    entries.reserve(el.size());
    for (std::size_t i = 0; i < el.size(); ++i) {
      auto [e, v] = el[i];
      entries.push_back({e, v, T{1}});
    }
    return csr_matrix(el.num_vertices(0), el.num_vertices(1), std::move(entries));
  }

  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_cols() const { return cols_; }
  [[nodiscard]] std::size_t num_nonzeros() const { return col_idx_.size(); }

  /// Entries of row r as parallel spans.
  [[nodiscard]] std::span<const vertex_id_t> row_columns(std::size_t r) const {
    return {col_idx_.data() + row_ptr_[r],
            static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }
  [[nodiscard]] std::span<const T> row_values(std::size_t r) const {
    return {values_.data() + row_ptr_[r],
            static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }

  /// Value at (r, c); 0 if not stored.  O(log nnz(row)).
  [[nodiscard]] T at(std::size_t r, std::size_t c) const {
    auto cols = row_columns(r);
    auto it   = std::lower_bound(cols.begin(), cols.end(), static_cast<vertex_id_t>(c));
    if (it == cols.end() || *it != c) return T{};
    return row_values(r)[static_cast<std::size_t>(it - cols.begin())];
  }

  /// Transpose (cols x rows), by stable counting sort over columns.
  [[nodiscard]] csr_matrix transpose() const {
    csr_matrix t;
    t.rows_ = cols_;
    t.cols_ = rows_;
    t.row_ptr_.assign(cols_ + 1, 0);
    for (auto c : col_idx_) ++t.row_ptr_[c + 1];
    std::partial_sum(t.row_ptr_.begin(), t.row_ptr_.end(), t.row_ptr_.begin());
    t.col_idx_.resize(col_idx_.size());
    t.values_.resize(values_.size());
    auto cursor = t.row_ptr_;
    for (std::size_t r = 0; r < rows_; ++r) {
      for (offset_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        offset_t slot     = cursor[col_idx_[k]]++;
        t.col_idx_[slot]  = static_cast<vertex_id_t>(r);
        t.values_[slot]   = values_[k];
      }
    }
    return t;
  }

  /// y = A x (parallel over rows).
  template <class U>
  [[nodiscard]] std::vector<U> spmv(std::span<const U> x) const {
    NW_ASSERT(x.size() == cols_, "spmv dimension mismatch");
    std::vector<U> y(rows_, U{});
    par::parallel_for(0, rows_, [&](std::size_t r) {
      U acc{};
      for (offset_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += static_cast<U>(values_[k]) * x[col_idx_[k]];
      }
      y[r] = acc;
    });
    return y;
  }

  /// C = A · B, parallel row-wise Gustavson with a dense accumulator over
  /// B's columns.  Each entry sums its products in loop order.
  [[nodiscard]] csr_matrix multiply(const csr_matrix& other) const {
    NW_ASSERT(cols_ == other.rows_, "spgemm dimension mismatch");
    csr_matrix c;
    c.rows_ = rows_;
    c.cols_ = other.cols_;

    // Accumulate each result row in a private accumulator, buffer rows,
    // then stitch the CSR together in row order.
    struct row_entries {
      std::vector<vertex_id_t> cols;
      std::vector<T>           vals;
    };
    std::vector<row_entries>                     result_rows(rows_);
    par::per_thread<sparse_accumulator<T, true>> maps;
    maps.for_each([&](sparse_accumulator<T, true>& acc) { acc.ensure_keys(other.cols_); });
    par::parallel_for(0, rows_, [&](unsigned tid, std::size_t r) {
      auto& acc = maps.local(tid);
      acc.clear();
      for (offset_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        vertex_id_t inner = col_idx_[k];
        T           a     = values_[k];
        auto        bc    = other.row_columns(inner);
        auto        bv    = other.row_values(inner);
        for (std::size_t j = 0; j < bc.size(); ++j) acc.increment(bc[j], a * bv[j]);
      }
      // The touched columns come in first-touch order: sort them, then
      // read each value.
      auto& out = result_rows[r];
      out.cols.reserve(acc.size());
      acc.for_each([&](vertex_id_t col, T) { out.cols.push_back(col); });
      std::sort(out.cols.begin(), out.cols.end());
      out.vals.reserve(out.cols.size());
      for (vertex_id_t col : out.cols) out.vals.push_back(acc.get(col));
    });

    c.row_ptr_.assign(rows_ + 1, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      c.row_ptr_[r + 1] = c.row_ptr_[r] + result_rows[r].cols.size();
    }
    c.col_idx_.resize(c.row_ptr_[rows_]);
    c.values_.resize(c.row_ptr_[rows_]);
    par::parallel_for(0, rows_, [&](std::size_t r) {
      std::copy(result_rows[r].cols.begin(), result_rows[r].cols.end(),
                c.col_idx_.begin() + static_cast<std::ptrdiff_t>(c.row_ptr_[r]));
      std::copy(result_rows[r].vals.begin(), result_rows[r].vals.end(),
                c.values_.begin() + static_cast<std::ptrdiff_t>(c.row_ptr_[r]));
    });
    return c;
  }

private:
  std::size_t              rows_, cols_;
  std::vector<offset_t>    row_ptr_;
  std::vector<vertex_id_t> col_idx_;
  std::vector<T>           values_;
};

}  // namespace nw::sparse
