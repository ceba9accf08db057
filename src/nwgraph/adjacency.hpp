// nwgraph/adjacency.hpp
//
// Compressed Sparse Row adjacency structure — the workhorse container of
// both the graph substrate and the hypergraph bi-adjacency (Section III-B.1
// stores a hypergraph as *two* mutually indexed instances of this).
//
// Models the paper's "range of ranges": the outer range over vertices is a
// std::ranges::random_access_range; each inner neighborhood is a
// forward_range (contiguous, in fact).  Checked by static_asserts at the
// bottom of this header.
//
// Storage is span-backed: all readers go through `std::span<const ...>`
// views (`indices_` / `targets_`) that normally point at the owned vectors
// (`indices_store_` / `targets_store_`), but can instead alias external
// read-only memory — the NWHYCSR2 mmap loader (nwhy/io/csr_snapshot.hpp)
// hands file-backed spans straight in via `from_csr_spans`, making snapshot
// load a zero-copy validation scan.  Lifetime of external memory is the
// caller's contract (the snapshot loader parks a keepalive next to the
// graph).  Copying an adjacency always deep-copies into owned storage, so a
// copy of a view is a plain owning CSR.
#pragma once

#include <algorithm>
#include <iterator>
#include <numeric>
#include <ranges>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "nwgraph/concepts.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwpar/parallel_scan.hpp"
#include "nwutil/defs.hpp"

namespace nw::graph {

namespace detail {

/// Inner range for attributed adjacency: iterating yields
/// std::tuple<vertex_id_t, Attributes...> by value.
template <class... Attributes>
class attributed_span {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type        = std::tuple<vertex_id_t, Attributes...>;
    using difference_type   = std::ptrdiff_t;

    iterator() = default;
    iterator(const vertex_id_t* tgt, std::tuple<const Attributes*...> attrs)
        : tgt_(tgt), attrs_(attrs) {}

    value_type operator*() const {
      return std::apply([&](const auto*... a) { return value_type{*tgt_, *a...}; }, attrs_);
    }
    iterator& operator++() {
      ++tgt_;
      std::apply([](const auto*&... a) { ((++a), ...); }, attrs_);
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.tgt_ == b.tgt_; }

  private:
    const vertex_id_t*               tgt_ = nullptr;
    std::tuple<const Attributes*...> attrs_;
  };

  attributed_span() = default;
  attributed_span(const vertex_id_t* tgt, std::tuple<const Attributes*...> attrs, std::size_t n)
      : tgt_(tgt), attrs_(attrs), n_(n) {}

  [[nodiscard]] iterator begin() const { return {tgt_, attrs_}; }
  [[nodiscard]] iterator end() const {
    auto shifted = std::apply(
        [&](const auto*... a) { return std::tuple<const Attributes*...>{(a + n_)...}; }, attrs_);
    return {tgt_ + n_, shifted};
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool        empty() const { return n_ == 0; }

private:
  const vertex_id_t*               tgt_ = nullptr;
  std::tuple<const Attributes*...> attrs_;
  std::size_t                      n_ = 0;
};

}  // namespace detail

/// Random-access outer iterator of any graph answering `g[u]` by value:
/// position u dereferences to row u (a prvalue range, like views::iota).
/// Shared by the CSR below and the adjoin row view (nwhy/adjoin.hpp).
template <class G>
class row_iterator {
public:
  using reference         = decltype(std::declval<const G&>()[std::size_t{}]);
  using value_type        = reference;
  using iterator_concept  = std::random_access_iterator_tag;
  using iterator_category = std::random_access_iterator_tag;
  using difference_type   = std::ptrdiff_t;

  row_iterator() = default;
  row_iterator(const G* g, std::size_t u) : g_(g), u_(u) {}

  reference operator*() const { return (*g_)[u_]; }
  reference operator[](difference_type k) const { return (*g_)[u_ + k]; }

  row_iterator& operator++() { ++u_; return *this; }
  row_iterator  operator++(int) { auto t = *this; ++u_; return t; }
  row_iterator& operator--() { --u_; return *this; }
  row_iterator  operator--(int) { auto t = *this; --u_; return t; }
  row_iterator& operator+=(difference_type k) { u_ += k; return *this; }
  row_iterator& operator-=(difference_type k) { u_ -= k; return *this; }

  friend row_iterator operator+(row_iterator it, difference_type k) { return it += k; }
  friend row_iterator operator+(difference_type k, row_iterator it) { return it += k; }
  friend row_iterator operator-(row_iterator it, difference_type k) { return it -= k; }
  friend difference_type operator-(const row_iterator& a, const row_iterator& b) {
    return static_cast<difference_type>(a.u_) - static_cast<difference_type>(b.u_);
  }
  friend bool operator==(const row_iterator& a, const row_iterator& b) { return a.u_ == b.u_; }
  friend auto operator<=>(const row_iterator& a, const row_iterator& b) { return a.u_ <=> b.u_; }

private:
  const G*    g_ = nullptr;
  std::size_t u_ = 0;
};

template <class... Attributes>
class adjacency {
public:
  using inner_range = std::conditional_t<sizeof...(Attributes) == 0, std::span<const vertex_id_t>,
                                         detail::attributed_span<Attributes...>>;

  adjacency() : indices_store_(1, 0) { rebind(); }

  /// Build CSR from an edge list.  Edges are grouped by source; the order
  /// of neighbors within a group follows the edge-list order.  `n` overrides
  /// the vertex count (0 = take from the edge list).  `check_targets`
  /// is disabled for rectangular (bipartite) builds where target ids live in
  /// a different index space than the sources.
  explicit adjacency(const edge_list<Attributes...>& el, std::size_t n = 0)
      : adjacency(el, n, check_targets_tag{true}) {}

  /// Build a CSR whose target ids live in a different index space of size
  /// `n_targets` (bipartite / rectangular case: targets are not checked
  /// against the source cardinality).
  adjacency(const edge_list<Attributes...>& el, std::size_t n_sources, std::size_t n_targets)
      : adjacency(el, n_sources, check_targets_tag{false}) {
    (void)n_targets;
  }

  /// Copying always materializes owned storage: a copy of an mmap-backed
  /// view is a plain in-memory CSR (deep copy of whatever the spans see).
  adjacency(const adjacency& other)
      : n_(other.n_),
        indices_store_(other.indices_.begin(), other.indices_.end()),
        targets_store_(other.targets_.begin(), other.targets_.end()),
        attrs_(other.attrs_) {
    rebind();
  }

  adjacency& operator=(const adjacency& other) {
    if (this != &other) {
      n_ = other.n_;
      indices_store_.assign(other.indices_.begin(), other.indices_.end());
      targets_store_.assign(other.targets_.begin(), other.targets_.end());
      attrs_ = other.attrs_;
      rebind();
    }
    return *this;
  }

  /// Moves transfer the owned heap buffers (spans into them stay valid) or,
  /// for external views, just the span handles.  The source is reset to the
  /// empty owning state.
  adjacency(adjacency&& other) noexcept
      : n_(other.n_),
        indices_store_(std::move(other.indices_store_)),
        targets_store_(std::move(other.targets_store_)),
        external_(other.external_),
        attrs_(std::move(other.attrs_)) {
    if (external_) {
      indices_ = other.indices_;
      targets_ = other.targets_;
    } else {
      rebind();
    }
    other.reset_to_empty();
  }

  adjacency& operator=(adjacency&& other) noexcept {
    if (this != &other) {
      n_             = other.n_;
      indices_store_ = std::move(other.indices_store_);
      targets_store_ = std::move(other.targets_store_);
      external_      = other.external_;
      attrs_         = std::move(other.attrs_);
      if (external_) {
        indices_ = other.indices_;
        targets_ = other.targets_;
      } else {
        rebind();
      }
      other.reset_to_empty();
    }
    return *this;
  }

  ~adjacency() = default;

  /// Zero-copy view over externally owned CSR arrays (the NWHYCSR2 mmap
  /// path).  Preconditions: `indices.size() == n + 1`, `indices[n] ==
  /// targets.size()`, offsets non-decreasing.  The caller owns the backing
  /// memory and must keep it alive for the view's lifetime.  Only available
  /// for the unattributed CSR.
  static adjacency from_csr_spans(std::span<const offset_t>    indices,
                                  std::span<const vertex_id_t> targets, std::size_t n)
    requires(sizeof...(Attributes) == 0)
  {
    NW_ASSERT(indices.size() == n + 1, "from_csr_spans: indices must have n+1 entries");
    adjacency g;
    g.n_        = n;
    g.external_ = true;
    g.indices_store_.clear();
    g.targets_store_.clear();
    g.indices_ = indices;
    g.targets_ = targets;
    return g;
  }

  /// Adopt pre-built CSR vectors without a per-element pass (the streamed
  /// snapshot reader path).  Same preconditions as from_csr_spans.
  static adjacency from_csr_vectors(std::vector<offset_t>    indices,
                                    std::vector<vertex_id_t> targets, std::size_t n)
    requires(sizeof...(Attributes) == 0)
  {
    NW_ASSERT(indices.size() == n + 1, "from_csr_vectors: indices must have n+1 entries");
    adjacency g;
    g.n_             = n;
    g.indices_store_ = std::move(indices);
    g.targets_store_ = std::move(targets);
    g.rebind();
    return g;
  }

  /// True when the spans alias external (e.g. mmap'd) memory instead of the
  /// owned vectors.
  [[nodiscard]] bool is_external() const { return external_; }

  /// Direct materialization of a *symmetric* CSR from per-thread buffers of
  /// unique undirected pairs — the s-line-graph fast path.  Skips the
  /// edge_list round-trip (append + symmetrize + sort_and_unique +
  /// counting-sort rebuild), and sorts no row.  Row v is its lower half
  /// (neighbours <= v) followed by its upper half (neighbours >= v):
  ///
  ///   1. count each row's lower and upper neighbours; scan -> row offsets
  ///   2. scatter each pair {a, b}, a <= b, into a's upper half, in no
  ///      particular order
  ///   3. transpose the upper halves into the lower halves, sources in
  ///      ascending order, so every lower half comes out sorted
  ///   4. transpose the lower halves back into the upper halves the same
  ///      way, so every upper half comes out sorted
  ///
  /// All of it happens in place in the final targets array.  With T pool
  /// contexts, steps 1-2 split the pairs into T contiguous ranges and steps
  /// 3-4 split the source rows into T contiguous nnz-balanced blocks, each
  /// with per-(row, thread) cursors laid out as in build_parallel: no step
  /// needs an atomic, and the bytes are the same at every thread count.
  ///
  /// Precondition: each unordered pair appears in the buffers exactly once,
  /// as {lo, hi} or {hi, lo} (what every construction algorithm in
  /// slinegraph/construction.hpp guarantees); a self-loop {a, a} counts in
  /// both halves of row a, so a appears there twice, as symmetrize gives
  /// before its unique.  Only available for the unattributed CSR.  `cap`
  /// controls per-thread buffer reuse, as in merge_thread_vectors.
  static adjacency from_unique_undirected_pairs(
      par::per_thread<std::vector<std::pair<vertex_id_t, vertex_id_t>>>& buffers,
      std::size_t n, par::merge_capacity cap = par::merge_capacity::release,
      par::thread_pool& pool = par::thread_pool::default_pool())
    requires(sizeof...(Attributes) == 0)
  {
    adjacency  g;
    const auto T = static_cast<std::size_t>(pool.concurrency());
    // Buffer b holds pairs [starts[b], starts[b + 1]) of the concatenation.
    std::vector<std::size_t> starts(buffers.size() + 1, 0);
    for (std::size_t b = 0; b < buffers.size(); ++b) {
      starts[b + 1] = starts[b] + buffers.local(static_cast<unsigned>(b)).size();
    }
    const std::size_t total = starts.back();
    const std::size_t m     = 2 * total;
    const std::size_t chunk = (total + T - 1) / T;
    // Thread t's pairs, [t·chunk, (t+1)·chunk) of the concatenation, as (lo, hi).
    const auto for_pairs = [&](std::size_t t, auto&& fn) {
      std::size_t       k   = std::min(t * chunk, total);
      const std::size_t end = std::min(k + chunk, total);
      auto b = static_cast<std::size_t>(std::upper_bound(starts.begin(), starts.end(), k) -
                                        starts.begin()) - 1;
      for (; k < end; ++b) {
        const auto&       buf  = buffers.local(static_cast<unsigned>(b));
        const std::size_t stop = std::min(end, starts[b + 1]);
        for (; k < stop; ++k) {
          const auto [x, y] = buf[k - starts[b]];
          fn(std::min(x, y), std::max(x, y));
        }
      }
    };

    // 1. per-(row, thread) upper and lower counts -> offsets, and the lower
    //    half's length in `mid` (then its end: the upper half's start).
    std::vector<offset_t> upper(n * T, 0), lower(n * T, 0);
    pool.run([&](unsigned t) {
      for_pairs(t, [&](vertex_id_t a, vertex_id_t b) {
        NW_ASSERT(b < n, "pair endpoint out of declared vertex range");
        ++upper[a * T + t];
        ++lower[b * T + t];
      });
    });
    g.n_ = n;
    g.indices_store_.assign(n + 1, 0);
    std::vector<offset_t> mid(n);
    par::parallel_for(
        0, n,
        [&](std::size_t v) {
          offset_t lo = 0, hi = 0;
          for (std::size_t t = 0; t < T; ++t) {
            lo += lower[v * T + t];
            hi += upper[v * T + t];
          }
          g.indices_store_[v] = lo + hi;
          mid[v]              = lo;
        },
        par::blocked{}, pool);
    par::parallel_exclusive_scan(g.indices_store_, pool);

    // 2. scatter into the upper halves; upper[] becomes each (row, thread)'s
    //    write cursor, starting at mid.
    par::parallel_for(
        0, n,
        [&](std::size_t v) {
          mid[v] += g.indices_store_[v];
          offset_t c = mid[v];
          for (std::size_t t = 0; t < T; ++t) c += std::exchange(upper[v * T + t], c);
        },
        par::blocked{}, pool);
    g.targets_store_.resize(m);
    vertex_id_t* const tgt = g.targets_store_.data();
    pool.run([&](unsigned t) {
      for_pairs(t, [&](vertex_id_t a, vertex_id_t b) { tgt[upper[a * T + t]++] = b; });
    });

    // 3-4. ordered transposes.  Thread t owns source rows [rows[t],
    //    rows[t + 1]); it first counts what it sends to each target row (the
    //    last thread need not), so cursor[x * T + t] starts past every
    //    earlier thread's share of x's destination half.
    std::vector<std::size_t> rows(T + 1, n);
    for (std::size_t t = 0; t < T; ++t) {
      rows[t] = static_cast<std::size_t>(
          std::lower_bound(g.indices_store_.begin(), g.indices_store_.begin() + n, t * m / T) -
          g.indices_store_.begin());
    }
    std::vector<offset_t>& cursor = lower;
    const auto transpose = [&](auto from_begin, auto from_end, auto to_begin) {
      std::fill(cursor.begin(), cursor.end(), offset_t{0});
      pool.run([&](unsigned t) {
        if (t + 1 == T) return;
        for (std::size_t r = rows[t]; r < rows[t + 1]; ++r) {
          for (offset_t k = from_begin(r); k < from_end(r); ++k) ++cursor[tgt[k] * T + t];
        }
      });
      par::parallel_for(
          0, n,
          [&](std::size_t x) {
            offset_t c = to_begin(x);
            for (std::size_t t = 0; t < T; ++t) c += std::exchange(cursor[x * T + t], c);
          },
          par::blocked{}, pool);
      pool.run([&](unsigned t) {
        for (std::size_t r = rows[t]; r < rows[t + 1]; ++r) {
          for (offset_t k = from_begin(r); k < from_end(r); ++k) {
            tgt[cursor[tgt[k] * T + t]++] = static_cast<vertex_id_t>(r);
          }
        }
      });
    };
    const auto row_begin = [&](std::size_t v) { return g.indices_store_[v]; };
    const auto row_mid   = [&](std::size_t v) { return mid[v]; };
    const auto row_end   = [&](std::size_t v) { return g.indices_store_[v + 1]; };
    transpose(row_mid, row_end, row_begin);  // upper halves -> sorted lower halves
    transpose(row_begin, row_mid, row_mid);  // lower halves -> sorted upper halves

    par::detail::reset_buffers(buffers, cap);
    g.rebind();
    return g;
  }

private:
  struct check_targets_tag {
    bool value;
  };

  adjacency(const edge_list<Attributes...>& el, std::size_t n, check_targets_tag tag) {
    const bool check_targets = tag.value;
    n_ = n != 0 ? n : el.num_vertices();
    const auto&       src = el.sources();
    const auto&       dst = el.destinations();
    const std::size_t m   = el.size();
    for (std::size_t i = 0; i < m; ++i) {
      NW_ASSERT(src[i] < n_, "edge source out of declared vertex range");
      NW_ASSERT(dst[i] < n_ || !check_targets, "edge target out of declared vertex range");
    }
    targets_store_.resize(m);
    resize_attrs(m);

    auto&          pool    = par::thread_pool::default_pool();
    const unsigned threads = pool.concurrency();
    if (threads == 1 || m < (1u << 16)) {
      build_serial(el, m);
    } else {
      build_parallel(el, m, pool, threads);
    }
    rebind();
  }

  /// Serial stable counting sort into CSR.
  void build_serial(const edge_list<Attributes...>& el, std::size_t m) {
    const auto&           src = el.sources();
    const auto&           dst = el.destinations();
    std::vector<offset_t> counts(n_ + 1, 0);
    for (std::size_t i = 0; i < m; ++i) ++counts[src[i] + 1];
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    indices_store_ = counts;  // counts becomes the write cursor below
    for (std::size_t i = 0; i < m; ++i) {
      offset_t slot        = counts[src[i]]++;
      targets_store_[slot] = dst[i];
      scatter_attrs(el, i, slot, std::index_sequence_for<Attributes...>{});
    }
  }

  /// Parallel stable counting sort: per-(source, thread) histograms give
  /// each thread an exclusive, order-preserving slice of every row, so the
  /// result is bit-identical to build_serial (neighbor order = edge-list
  /// order) regardless of thread count.
  void build_parallel(const edge_list<Attributes...>& el, std::size_t m,
                      par::thread_pool& pool, unsigned threads) {
    const auto&       src   = el.sources();
    const auto&       dst   = el.destinations();
    const std::size_t chunk = (m + threads - 1) / threads;

    // cursors[v * threads + t]: first the per-chunk counts, then (after the
    // scan) the running write cursor for (source v, thread t).
    std::vector<offset_t> cursors(n_ * static_cast<std::size_t>(threads), 0);
    pool.run([&](unsigned tid) {
      std::size_t lo = tid * chunk, hi = std::min(lo + chunk, m);
      for (std::size_t i = lo; i < hi; ++i) {
        ++cursors[static_cast<std::size_t>(src[i]) * threads + tid];
      }
    });
    par::parallel_exclusive_scan(cursors, pool);
    indices_store_.resize(n_ + 1);
    par::parallel_for(0, n_, [&](std::size_t v) { indices_store_[v] = cursors[v * threads]; },
                      par::blocked{}, pool);
    indices_store_[n_] = m;
    pool.run([&](unsigned tid) {
      std::size_t lo = tid * chunk, hi = std::min(lo + chunk, m);
      for (std::size_t i = lo; i < hi; ++i) {
        offset_t slot        = cursors[static_cast<std::size_t>(src[i]) * threads + tid]++;
        targets_store_[slot] = dst[i];
        scatter_attrs(el, i, slot, std::index_sequence_for<Attributes...>{});
      }
    });
  }

public:
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return targets_.size(); }

  [[nodiscard]] std::size_t degree(std::size_t u) const {
    NW_DEBUG_ASSERT(u < n_, "degree: vertex out of range");
    return static_cast<std::size_t>(indices_[u + 1] - indices_[u]);
  }

  [[nodiscard]] std::vector<std::size_t> degrees() const {
    std::vector<std::size_t> d(n_);
    for (std::size_t u = 0; u < n_; ++u) d[u] = degree(u);
    return d;
  }

  [[nodiscard]] inner_range operator[](std::size_t u) const {
    NW_DEBUG_ASSERT(u < n_, "operator[]: vertex out of range");
    offset_t    b = indices_[u], e = indices_[u + 1];
    std::size_t len = static_cast<std::size_t>(e - b);
    if constexpr (sizeof...(Attributes) == 0) {
      return inner_range(targets_.data() + b, len);
    } else {
      auto ptrs = std::apply(
          [&](const auto&... col) { return std::tuple{(col.data() + b)...}; }, attrs_);
      return inner_range(targets_.data() + b, ptrs, len);
    }
  }

  /// Outer iterator: random access over vertices, dereferencing to the
  /// vertex's neighborhood (an inner_range prvalue, like views::iota).
  using const_iterator = row_iterator<adjacency>;

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, n_}; }

  /// Raw CSR access for kernels that want pointer arithmetic.  These are
  /// views: they alias either the owned vectors or, for snapshot-backed
  /// graphs, external mmap'd memory.
  [[nodiscard]] std::span<const offset_t>    indices() const { return indices_; }
  [[nodiscard]] std::span<const vertex_id_t> targets() const { return targets_; }

private:
  /// Point the read spans at the owned vectors.
  void rebind() {
    external_ = false;
    indices_  = std::span<const offset_t>(indices_store_.data(), indices_store_.size());
    targets_  = std::span<const vertex_id_t>(targets_store_.data(), targets_store_.size());
  }

  /// Reset to the canonical empty CSR *without allocating*, so the noexcept
  /// moves really are noexcept: the indices span aliases a static zero
  /// offset (infinite lifetime) instead of a freshly allocated {0} vector,
  /// preserving the `indices().size() == size() + 1` contract for
  /// moved-from objects at zero cost.  The object behaves like an external
  /// view of that sentinel; copying or assigning into it materializes owned
  /// storage as usual.
  void reset_to_empty() noexcept {
    n_ = 0;
    indices_store_.clear();
    targets_store_.clear();
    external_ = true;
    indices_  = std::span<const offset_t>(&empty_indices_sentinel_, 1);
    targets_  = {};
  }

  /// The one row offset of an empty CSR (`indices() == {0}`).
  static constexpr offset_t empty_indices_sentinel_ = 0;

  template <std::size_t... Is>
  void scatter_attrs([[maybe_unused]] const edge_list<Attributes...>& el,
                     [[maybe_unused]] std::size_t i, [[maybe_unused]] offset_t slot,
                     std::index_sequence<Is...>) {
    ((std::get<Is>(attrs_)[slot] = el.template attribute_column<Is>()[i]), ...);
  }
  void resize_attrs(std::size_t m) {
    std::apply([m](auto&... col) { (col.resize(m), ...); }, attrs_);
  }

  std::size_t                            n_ = 0;
  std::vector<offset_t>                  indices_store_;
  std::vector<vertex_id_t>               targets_store_;
  std::span<const offset_t>              indices_;
  std::span<const vertex_id_t>           targets_;
  bool                                   external_ = false;
  std::tuple<std::vector<Attributes>...> attrs_;
};

// The containers must model the paper's range-of-ranges contract.
static_assert(std::ranges::random_access_range<adjacency<>>);
static_assert(std::ranges::forward_range<std::ranges::range_reference_t<adjacency<>>>);
static_assert(adjacency_list_graph<adjacency<>>);
static_assert(degree_enumerable_graph<adjacency<>>);
static_assert(std::ranges::random_access_range<adjacency<float>>);
static_assert(std::ranges::forward_range<std::ranges::range_reference_t<adjacency<float>>>);

}  // namespace nw::graph
