// nwhy/adjoin.hpp
//
// The adjoined-graph representation of a hypergraph (paper Sec. III-B.2):
// the two index spaces are consolidated into one shared index set —
// hyperedges keep ids [0, nE), hypernodes are shifted to [nE, nE + nV).
// The resulting general graph has the symmetric adjacency matrix
//
//        A_G = [ 0    Bᵗ ]
//              [ B    0  ]
//
// where B is the incidence matrix of H.  Any graph algorithm then computes
// hypergraph metrics, provided it is *range-aware*; afterwards the resultant
// array is split back into hyperedge and hypernode parts (split_results).
//
// Both halves of A_G are already stored: row e is E2N row e with every
// hypernode id shifted by nE, and row nE + v is N2E row v as is.  So
// `adjoin_graph` is a row view over one pinned generation's two CSRs that
// applies the shift on read; no third copy of the incidences is built.
#pragma once

#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nwgraph/adjacency.hpp"
#include "nwgraph/concepts.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// One adjoin row: a run of CSR targets, each read plus a constant shift
/// (nE on a hyperedge's row of hypernodes, 0 on a hypernode's row of
/// hyperedges).  The iterator carries the shift by value, so the inner
/// loop is a load and an add; a views::transform or a subrange of two
/// such iterators measured 3-10% slower in AdjoinBFS / AdjoinCC.
class adjoin_row {
public:
  class iterator {
  public:
    using iterator_concept  = std::forward_iterator_tag;
    using iterator_category = std::forward_iterator_tag;
    using value_type        = nw::vertex_id_t;
    using difference_type   = std::ptrdiff_t;

    iterator() = default;
    iterator(const nw::vertex_id_t* p, nw::vertex_id_t shift) : p_(p), shift_(shift) {}

    nw::vertex_id_t operator*() const { return *p_ + shift_; }
    iterator&       operator++() { ++p_; return *this; }
    iterator        operator++(int) { auto t = *this; ++p_; return t; }
    friend bool     operator==(const iterator& a, const iterator& b) { return a.p_ == b.p_; }

  private:
    const nw::vertex_id_t* p_     = nullptr;
    nw::vertex_id_t        shift_ = 0;
  };

  adjoin_row() = default;
  adjoin_row(std::span<const nw::vertex_id_t> targets, nw::vertex_id_t shift)
      : targets_(targets), shift_(shift) {}

  [[nodiscard]] iterator begin() const { return {targets_.data(), shift_}; }
  [[nodiscard]] iterator end() const { return {targets_.data() + targets_.size(), shift_}; }

private:
  std::span<const nw::vertex_id_t> targets_;
  nw::vertex_id_t                  shift_ = 0;
};

/// The adjoin graph as a row view over a pinned generation's E2N / N2E
/// CSRs, with the index-split bookkeeping the range-aware algorithms need.
/// Models degree_enumerable_graph, so the graph kernels (BFS, CC, PageRank,
/// the queue s-line algorithms) run on it unchanged.
class adjoin_graph {
public:
  using inner_range    = adjoin_row;
  using const_iterator = nw::graph::row_iterator<adjoin_graph>;

  /// Pin `gen` and view its CSRs.  Throws std::length_error when the
  /// nE + nV shared ids do not fit vertex_id_t with null_vertex<> reserved.
  explicit adjoin_graph(std::shared_ptr<const hypergraph_generation> gen)
      : gen_(std::move(gen)),
        ne_(gen_->hyperedges.size()),
        nv_(gen_->hyperedges.num_targets()),
        e_idx_(gen_->hyperedges.csr().indices()),
        e_tgt_(gen_->hyperedges.csr().targets()),
        n_idx_(gen_->hypernodes.csr().indices()),
        n_tgt_(gen_->hypernodes.csr().targets()) {
    if (ne_ + nv_ > std::numeric_limits<nw::vertex_id_t>::max()) {
      throw std::length_error("adjoin_graph: " + std::to_string(ne_) + " hyperedges + " +
                              std::to_string(nv_) + " hypernodes overflow the 32-bit id space");
    }
    NW_ASSERT(gen_->hypernodes.size() == nv_,
              "adjoin_graph: E2N and N2E disagree on the hypernode count");
  }

  [[nodiscard]] std::size_t size() const { return ne_ + nv_; }
  [[nodiscard]] std::size_t num_ids() const { return ne_ + nv_; }
  /// Ids [0, nrealedges()) are hyperedges.
  [[nodiscard]] std::size_t nrealedges() const { return ne_; }
  /// Ids [nrealedges(), nrealedges() + nrealnodes()) are hypernodes.
  [[nodiscard]] std::size_t nrealnodes() const { return nv_; }
  /// Directed edges: every incidence once in each direction.
  [[nodiscard]] std::size_t num_edges() const { return e_tgt_.size() + n_tgt_.size(); }

  [[nodiscard]] adjoin_row operator[](std::size_t u) const {
    return u < ne_ ? adjoin_row(row(e_idx_, e_tgt_, u), static_cast<nw::vertex_id_t>(ne_))
                   : adjoin_row(row(n_idx_, n_tgt_, u - ne_), 0);
  }
  [[nodiscard]] std::size_t degree(std::size_t u) const {
    return u < ne_ ? static_cast<std::size_t>(e_idx_[u + 1] - e_idx_[u])
                   : static_cast<std::size_t>(n_idx_[u - ne_ + 1] - n_idx_[u - ne_]);
  }
  [[nodiscard]] std::vector<std::size_t> degrees() const {
    std::vector<std::size_t> d(size());
    for (std::size_t u = 0; u < d.size(); ++u) d[u] = degree(u);
    return d;
  }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// Shift a hypernode id into the shared index set.
  [[nodiscard]] nw::vertex_id_t node_to_adjoin(nw::vertex_id_t v) const {
    return v + static_cast<nw::vertex_id_t>(ne_);
  }
  /// Recover a hypernode id from a shared-index id.
  [[nodiscard]] nw::vertex_id_t adjoin_to_node(nw::vertex_id_t id) const {
    NW_DEBUG_ASSERT(id >= ne_, "adjoin id is a hyperedge, not a hypernode");
    return id - static_cast<nw::vertex_id_t>(ne_);
  }
  [[nodiscard]] bool is_edge_id(nw::vertex_id_t id) const { return id < ne_; }

private:
  static std::span<const nw::vertex_id_t> row(std::span<const nw::offset_t>    idx,
                                              std::span<const nw::vertex_id_t> tgt,
                                              std::size_t                      r) {
    return {tgt.data() + idx[r], static_cast<std::size_t>(idx[r + 1] - idx[r])};
  }

  std::shared_ptr<const hypergraph_generation> gen_;
  std::size_t                                  ne_;
  std::size_t                                  nv_;
  std::span<const nw::offset_t>                e_idx_;
  std::span<const nw::vertex_id_t>             e_tgt_;
  std::span<const nw::offset_t>                n_idx_;
  std::span<const nw::vertex_id_t>             n_tgt_;
};

static_assert(nw::graph::degree_enumerable_graph<adjoin_graph>);

/// Split a per-id result array computed on the adjoin graph back into the
/// hyperedge part and the hypernode part (paper Sec. III-B.2: "we split the
/// resultant array of the graph algorithms into the hyperedge resultant
/// array and the hypernodes resultant array").
template <class T>
std::pair<std::vector<T>, std::vector<T>> split_results(const std::vector<T>& combined,
                                                        std::size_t nrealedges) {
  NW_ASSERT(combined.size() >= nrealedges, "result array shorter than the hyperedge range");
  std::vector<T> edge_part(combined.begin(),
                           combined.begin() + static_cast<std::ptrdiff_t>(nrealedges));
  std::vector<T> node_part(combined.begin() + static_cast<std::ptrdiff_t>(nrealedges),
                           combined.end());
  return {std::move(edge_part), std::move(node_part)};
}

}  // namespace nw::hypergraph
