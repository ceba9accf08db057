// nwhy/nwhypergraph.hpp
//
// The NWHypergraph facade — the C++ twin of the Python-facing class in the
// paper's Listing 5, grown into the *dynamic hypergraph engine* of ROADMAP
// item 1.  The structure is layered:
//
//   generation  — an immutable biedgelist + CSR pair (possibly zero-copy
//                 mmap views of an NWHYCSR2 snapshot), held by shared_ptr
//                 so readers that pinned it survive compaction;
//   delta       — a mutable per-hyperedge overlay (nwhy/delta.hpp):
//                 replacement member lists and tombstones from the batched
//                 insert_edges / remove_edges / update_edge API;
//   compaction  — folds the overlay into a fresh generation through the
//                 parallel from_thread_buffers pipeline, automatically at
//                 NWHY_COMPACT_THRESHOLD overlay rows or explicitly via
//                 compact().
//
// Read paths compose base+delta transparently: degrees are maintained
// incrementally, point queries consult the overlay first, and every
// whole-graph query (traversals, components, toplexes, s-metrics, line
// graphs, motifs) runs the same parallel engine in both states.  While a
// delta is pending the engines read a composed generation — the base+delta
// CSR pair built once per version by the compaction pipeline and cached
// until the next mutation; compact() adopts that cached generation as the
// new base.  Results are bit-identical to a rebuild from scratch (hyperedge
// ids are stable, tombstones compact to empty rows).
// Accessors that would leak the stale base structures (edge_list(),
// hyperedges(), hypernodes(), save_csr_snapshot()) throw std::logic_error
// while a delta is pending; everything else recomputes.  Every mutation
// bumps a version counter shared with derived structures (the C API checks
// it to reject stale s-line-graph queries).
//
// A third, orthogonal layer is the degree-ordered *storage relabeling*
// (relabel_by_degree / nwhy/relabel.hpp): the internal generation may hold
// hyperedge rows in descending-degree order for locality while every public
// query keeps speaking original ("external") ids — queries translate in and
// answers translate out at the API boundary, each through its one
// `relabel_maps` translation.  Relabeling is content-preserving (no version
// bump) and folds away automatically on the first mutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nwhy/adjoin.hpp"
#include "nwhy/algorithms/adjoin_algorithms.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/algorithms/motif.hpp"
#include "nwhy/algorithms/toplex.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwhy/biedgelist.hpp"
#include "nwhy/delta.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/relabel.hpp"
#include "nwgraph/relabel.hpp"
#include "nwhy/s_linegraph.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwhy/slinegraph/weighted.hpp"
#include "nwobs/scope_timer.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwpar/partitioners.hpp"
#include "nwutil/defs.hpp"

namespace nw::hypergraph {

/// One batched-mutation row: hyperedge `edge` gets the full member list
/// `members` (insert when new, replacement when it exists).
struct edge_update {
  vertex_id_t              edge;
  std::vector<vertex_id_t> members;
};

class NWHypergraph {
public:
  /// Construct from parallel (hyperedge id, hypernode id) arrays — the
  /// Listing 5 `NWHypergraph(row, col, weight)` signature, with weights
  /// optional and ignored for the structural metrics.
  NWHypergraph(std::span<const vertex_id_t> edge_ids, std::span<const vertex_id_t> node_ids) {
    NW_ASSERT(edge_ids.size() == node_ids.size(), "row/col arrays must have equal length");
    biedgelist<> el;
    el.reserve(edge_ids.size());
    for (std::size_t i = 0; i < edge_ids.size(); ++i) el.push_back(edge_ids[i], node_ids[i]);
    init(std::move(el));
  }

  /// Construct from an already-populated bipartite edge list.
  explicit NWHypergraph(biedgelist<> el) { init(std::move(el)); }

  /// Construct from a loaded NWHYCSR2 snapshot.  CANONICAL snapshots are
  /// adopted wholesale: the two CSRs (possibly zero-copy mmap views) become
  /// the live bi-adjacency structures and the edge list is re-expanded in
  /// parallel from the E2N rows.  Non-canonical snapshots fall back to the
  /// full sort_and_unique + rebuild pipeline.
  explicit NWHypergraph(csr_snapshot snap) {
    // A stream-mode load of a compressed snapshot carries block-decoding
    // views instead of CSRs; NWHypergraph owns its structures, so fold them
    // into owned CSRs first (callers wanting bounded-memory traversal use
    // the views directly, not this class).
    if (snap.streaming()) snap.materialize_views();
    if (snap.canonical()) {
      auto gen          = std::make_shared<hypergraph_generation>();
      gen->el           = snap.to_biedgelist();
      gen->hyperedges   = std::move(snap.edges);
      gen->hypernodes   = std::move(snap.nodes);
      gen->io_keepalive = std::move(snap.storage);
      adopt_generation(std::move(gen));
      if (!snap.relabel_inv.empty()) {
        // The snapshot's rows are in relabeled (internal) order; install the
        // persisted maps so every query translates at the boundary.
        relabel_ = relabel_maps::from_inverse(std::move(snap.relabel_inv));
        refresh_relabel_degrees();
      }
    } else {
      auto el = snap.to_biedgelist();
      if (!snap.relabel_inv.empty()) {
        // Non-canonical loads rebuild from scratch anyway — fold the
        // relabeling away up front instead of carrying the maps.
        std::vector<vertex_id_t> eids(el.edge_ids());
        std::vector<vertex_id_t> nids(el.node_ids());
        relabel_maps::from_inverse(std::move(snap.relabel_inv))
            .translate_ids(eids, relabel_maps::direction::to_external);
        biedgelist<> plain(std::move(eids), std::move(nids), el.num_vertices(0),
                           el.num_vertices(1));
        el = std::move(plain);
      }
      init(std::move(el));
    }
  }

  /// Serialize this hypergraph as a CANONICAL NWHYCSR2 snapshot.
  /// Requires a compacted state (the snapshot serializes the base CSRs,
  /// which a pending delta would silently contradict).
  /// When the hypergraph is relabeled, the file's rows are written in
  /// internal (degree-ordered) order and a RELABEL_INV section is embedded
  /// so a later load reinstalls the maps — round-trips are id-invisible.
  void save_csr_snapshot(const std::string& path) const { save_impl(path, {}); }

  /// Compressing overload: target sections are StreamVByte-encoded (and
  /// duplicate hyperedges dictionary-deduplicated) per `opt` — see
  /// docs/IO_FORMATS.md §4.
  void save_csr_snapshot(const std::string& path, const csr_compress_options& opt) const {
    save_impl(path, {.compress = &opt});
  }

  /// Sharded overload: both CSRs sliced into contiguous hyperedge-range
  /// shards with independently mappable payloads (docs/IO_FORMATS.md §4.7);
  /// `shard.compress` selects SVB-coded shard slices.
  void save_csr_snapshot(const std::string& path, const csr_shard_options& shard) const {
    save_impl(path, {.shard = &shard});
  }

  // --- representation accessors -------------------------------------------
  //
  // These three expose the *base generation's* structures, which do not see
  // the delta overlay — so they refuse (std::logic_error) while a delta is
  // pending rather than hand out pre-mutation data.  Call compact() first.

  [[nodiscard]] const biedgelist<>& edge_list() const {
    require_compacted("edge_list");
    return gen_->el;
  }
  [[nodiscard]] const biadjacency<0>& hyperedges() const {
    require_compacted("hyperedges");
    return gen_->hyperedges;
  }
  [[nodiscard]] const biadjacency<1>& hypernodes() const {
    require_compacted("hypernodes");
    return gen_->hypernodes;
  }

  [[nodiscard]] std::size_t num_hyperedges() const { return edge_degrees_.size(); }
  [[nodiscard]] std::size_t num_hypernodes() const { return node_degrees_.size(); }
  [[nodiscard]] std::size_t num_incidences() const { return num_incidences_; }

  /// Composed degrees, maintained incrementally under mutation.
  [[nodiscard]] const std::vector<std::size_t>& edge_sizes() const { return edge_degrees_; }
  [[nodiscard]] const std::vector<std::size_t>& node_degrees() const { return node_degrees_; }

  // --- composed point queries ---------------------------------------------

  /// The composed (base+delta) member list of hyperedge `e`; empty for
  /// out-of-range or tombstoned edges.  Sorted ascending.
  [[nodiscard]] std::vector<vertex_id_t> edge_members(vertex_id_t e) const {
    if (const delta_row* row = delta_.find(e)) return row->members;
    const vertex_id_t se = storage_edge_id(e);
    if (se < gen_->hyperedges.size()) {
      auto                     nbrs = gen_->hyperedges[se];
      std::vector<vertex_id_t> out;
      for (auto&& t : nbrs) out.push_back(target(t));
      return out;
    }
    return {};
  }

  /// The composed hyperedges incident on hypernode `v`: base edges without
  /// an overlay row, merged with overlay edges containing `v`.  Sorted.
  [[nodiscard]] std::vector<vertex_id_t> incident_edges(vertex_id_t v) const {
    std::vector<vertex_id_t> out;
    if (v < gen_->hypernodes.size()) {
      for (auto&& t : gen_->hypernodes[v]) {
        vertex_id_t e = target(t);
        if (relabel_) e = relabel_->external_id(e);
        if (delta_.find(e) == nullptr) out.push_back(e);
      }
      // Internal-order rows come out in internal order; re-sort externally.
      if (relabel_) std::sort(out.begin(), out.end());
    }
    auto overlay = delta_.node_overlay(v);
    if (!overlay.empty()) {
      // Both inputs are sorted and disjoint (an edge is overlaid or not).
      std::vector<vertex_id_t> merged;
      merged.reserve(out.size() + overlay.size());
      std::merge(out.begin(), out.end(), overlay.begin(), overlay.end(),
                 std::back_inserter(merged));
      out = std::move(merged);
    }
    return out;
  }

  /// Composed incidence point query: is hyperedge `e` incident on `v`?
  [[nodiscard]] bool contains(vertex_id_t e, vertex_id_t v) const {
    if (const delta_row* row = delta_.find(e)) {
      return std::binary_search(row->members.begin(), row->members.end(), v);
    }
    const vertex_id_t se = storage_edge_id(e);
    return se < gen_->hyperedges.size() && gen_->hyperedges.contains(se, v);
  }

  // --- mutation (the dynamic engine) --------------------------------------

  /// Insert-or-replace a batch of hyperedge rows.  A row whose edge id is
  /// past num_hyperedges() grows the hypergraph (intermediate ids become
  /// empty hyperedges); member ids past num_hypernodes() grow the node
  /// space.  Duplicate edge ids within one batch: last row wins.
  void insert_edges(std::vector<edge_update> batch) {
    for (auto& u : batch) apply_row(u.edge, std::move(u.members), /*tombstone=*/false);
    maybe_autocompact();
  }

  /// Tombstone a batch of hyperedges: ids stay stable, the edges become
  /// empty (exactly what a rebuild without their incidences produces).
  /// Out-of-range ids are ignored.
  void remove_edges(std::span<const vertex_id_t> edge_ids) {
    for (vertex_id_t e : edge_ids) {
      if (e < edge_degrees_.size()) apply_row(e, {}, /*tombstone=*/true);
    }
    maybe_autocompact();
  }

  /// Replace the member list of one hyperedge.
  void update_edge(vertex_id_t e, std::vector<vertex_id_t> members) {
    apply_row(e, std::move(members), /*tombstone=*/false);
    maybe_autocompact();
  }

  /// Fold the pending delta into a fresh immutable generation: adopt the
  /// composed generation (built now unless a pending-delta query already
  /// cached it).  Readers holding the previous generation() shared_ptr keep
  /// it alive.  Content-preserving: the version counter does not change
  /// (mutations already bumped it).
  void compact() {
    if (delta_.empty()) return;
    NWOBS_SCOPE_TIMER("dynamic.compact");
    (void)composed();
    delta_.clear();
    adopt_generation(std::move(composed_));
  }

  /// True while mutations are pending in the delta overlay.
  [[nodiscard]] bool has_pending_delta() const { return !delta_.empty(); }
  /// Number of pending overlay rows (tombstones included).
  [[nodiscard]] std::size_t delta_size() const { return delta_.size(); }
  /// The overlay itself (introspection / benches).
  [[nodiscard]] const hyperedge_delta& delta() const { return delta_; }

  /// The current base generation.  Pin the returned shared_ptr to keep its
  /// CSRs (and any mmap'd backing bytes) alive across compactions.
  [[nodiscard]] std::shared_ptr<const hypergraph_generation> generation() const { return gen_; }

  /// Content version: bumped by every mutating call (not by compact(),
  /// which preserves content).  Derived structures capture the token at
  /// build time and compare to detect staleness.
  [[nodiscard]] std::uint64_t version() const { return *version_; }
  [[nodiscard]] std::shared_ptr<const std::uint64_t> version_token() const { return version_; }

  /// The adjoin representation: a row view over the live generation's two
  /// CSRs (nwhy/adjoin.hpp), pinning that generation.  Nothing is built.
  /// Its hyperedge ids are storage rows: on a relabeled hypergraph, row e
  /// is external hyperedge relabel_inverse()[e].
  [[nodiscard]] adjoin_graph adjoin() const { return adjoin_graph(live_generation()); }

  /// The dual hypergraph H*: hyperedges and hypernodes swap roles
  /// (transpose of the incidence matrix).  Composes base+delta.
  [[nodiscard]] NWHypergraph dual() const {
    // The dual's node ids are our external edge ids.
    biedgelist<>        scratch;
    const biedgelist<>& src = relabel_ ? (scratch = edge_list_in(nullptr)) : live().el;
    biedgelist<>        el(num_hypernodes(), num_hyperedges());
    el.reserve(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      auto [e, v] = src[i];
      el.push_back(v, e);
    }
    return NWHypergraph(std::move(el));
  }

  // --- lower-order approximations -----------------------------------------

  /// Listing 5 `s_linegraph(s, edges)`: the s-line graph over hyperedges
  /// (edges == true) or the s-clique graph over hypernodes (edges == false),
  /// through the direct per-thread-buffers -> CSR materialization pipeline
  /// (on the composed generation while a delta is pending).  Every s entry
  /// point throws std::invalid_argument on s == 0.
  [[nodiscard]] s_linegraph make_s_linegraph(std::size_t s, bool edges = true) const {
    require_positive_s(s, "make_s_linegraph");
    const auto& g = live();
    if (edges) {
      // A relabeled hypergraph counts overlaps over its internal
      // (degree-ordered) rows — that is the locality win — and the workers
      // map pair endpoints back to external ids in their own buffers, so
      // both builds assemble the same CSR bytes.
      return s_linegraph(
          to_two_graph_hashmap_csr(g.hyperedges, g.hypernodes,
                                   relabel_ ? internal_edge_degrees_ : edge_degrees_, s,
                                   par::blocked{}, relabel_inverse()),
          edge_degrees_, s);
    }
    // Node-side clique graph: edge ids only act as the transpose dimension,
    // so an edge relabeling cannot change the result.
    return s_linegraph(to_two_graph_hashmap_csr(g.hypernodes, g.hyperedges, node_degrees_, s),
                       node_degrees_, s);
  }

  /// s-connected components / s-distance computed *without* materializing
  /// the line graph (implicit traversal — see slinegraph/implicit.hpp for
  /// the memory/work tradeoff).
  [[nodiscard]] std::vector<vertex_id_t> s_connected_components_implicit(std::size_t s) const {
    require_positive_s(s, "s_connected_components_implicit");
    const auto& g = live();
    auto        r = nw::hypergraph::s_connected_components_implicit(
        g.hyperedges, g.hypernodes, relabel_ ? internal_edge_degrees_ : edge_degrees_, s);
    // Relabeled labels are each component's minimum active storage row.
    return relabel_ ? relabel_->to_external_components(r) : r;
  }
  [[nodiscard]] std::optional<std::size_t> s_distance_implicit(std::size_t s, vertex_id_t src,
                                                               vertex_id_t dst) const {
    require_positive_s(s, "s_distance_implicit");
    const auto& g = live();
    // Hop counts are label-invariant; only the endpoints translate in.
    return nw::hypergraph::s_distance_implicit(
        g.hyperedges, g.hypernodes, relabel_ ? internal_edge_degrees_ : edge_degrees_, s,
        storage_edge_id(src), storage_edge_id(dst));
  }

  /// Weighted 1-line edge list: every s-adjacent pair with its exact
  /// overlap |e_i ∩ e_j|; threshold_weighted() slices it into any L_s(H).
  /// A relabeled hypergraph counts over its storage rows and names each
  /// pair by its external {min, max} ids; the emission order may differ.
  [[nodiscard]] nw::graph::edge_list<std::uint32_t> weighted_linegraph_edges(
      std::size_t s = 1) const {
    require_positive_s(s, "weighted_linegraph_edges");
    const auto& g = live();
    return to_two_graph_weighted(g.hyperedges, g.hypernodes,
                                 relabel_ ? internal_edge_degrees_ : edge_degrees_, s,
                                 par::blocked{}, relabel_inverse());
  }

  /// Clique-expansion graph (Sec. III-B.3): graph over hypernodes replacing
  /// every hyperedge by a clique.  Materialized through the direct
  /// per-thread-buffers -> CSR pipeline.
  [[nodiscard]] nw::graph::adjacency<> clique_expansion_graph() const {
    const auto& g = live();
    return clique_expansion_csr(g.hypernodes, g.hyperedges, node_degrees_);
  }

  // --- exact algorithms -----------------------------------------------------

  /// HyperBFS from a hyperedge (direction-optimizing).
  [[nodiscard]] hyper_bfs_result bfs(vertex_id_t source_edge) const {
    const auto& g = live();
    if (!relabel_) return hyper_bfs(g.hyperedges, g.hypernodes, source_edge);
    return relabel_->to_external(
        hyper_bfs(g.hyperedges, g.hypernodes, storage_edge_id(source_edge)), source_edge);
  }

  /// AdjoinBFS over the adjoin view of the storage rows (the composed
  /// generation while a delta is pending).  A relabeled hypergraph maps the
  /// source in and the shared-id answers out through relabel_maps:
  /// hyperedge ids translate, hypernode ids pass through.
  [[nodiscard]] adjoin_bfs_result bfs_adjoin(vertex_id_t source_edge) const {
    auto r = adjoin_bfs(adjoin(), storage_edge_id(source_edge));
    if (relabel_) relabel_->parents_to_external(r.parents_edge, r.parents_node, source_edge);
    return r;
  }

  /// HyperCC (label propagation) and AdjoinCC (Afforest) over the adjoin
  /// view.  Both name a component by its minimum shared id, a storage row
  /// whenever the component holds a hyperedge, so both return the same
  /// labels and translate out the same way.
  [[nodiscard]] hyper_cc_result connected_components() const {
    return external_components(hyper_cc(adjoin()));
  }
  [[nodiscard]] hyper_cc_result connected_components_adjoin() const {
    return external_components(adjoin_cc(adjoin()));
  }

  /// Toplexes (Algorithm 3).  A relabeled hypergraph runs the kernel over
  /// its storage rows with the external ids as the tie-break order, so the
  /// representative kept among duplicate rows is the minimum external id.
  [[nodiscard]] std::vector<vertex_id_t> toplexes() const {
    const auto& g   = live();
    auto        ids = nw::hypergraph::toplexes(g.hyperedges, g.hypernodes, relabel_inverse());
    if (relabel_) {
      relabel_->translate_ids(ids, relabel_maps::direction::to_external);
      std::sort(ids.begin(), ids.end());
    }
    return ids;
  }

  /// Wedge/triad/butterfly census of the bipartite form
  /// (nwhy/algorithms/motif.hpp).  The census is label-invariant, so it
  /// runs on the internal (possibly relabeled) CSRs unchanged.
  [[nodiscard]] motif_census motifs() const {
    const auto& g = live();
    return count_motifs(g.hyperedges, g.hypernodes);
  }

  // --- degree-ordered storage relabeling (ROADMAP item 2 locality pass) ----

  /// Reorder the *internal* hyperedge storage by degree (descending by
  /// default, stable tie-break on prior external id) so the hot rows of
  /// both CSRs pack into the same pages.  Invisible to callers: every query
  /// keeps speaking the original external ids via the inverse map.
  /// Content-preserving (no version bump); requires a compacted state, and
  /// the next mutation folds the relabeling away automatically.
  void relabel_by_degree(nw::graph::degree_order order = nw::graph::degree_order::descending) {
    require_compacted("relabel_by_degree");
    auto maps = degree_relabel_maps(edge_degrees_, order);
    rebuild_in(&maps);
    relabel_ = std::move(maps);
    refresh_relabel_degrees();
  }

  /// Undo relabel_by_degree: rebuild the storage in external-id order.
  void derelabel() {
    if (!relabel_) return;
    require_compacted("derelabel");
    rebuild_in(nullptr);
    relabel_.reset();
    internal_edge_degrees_.clear();
  }

  [[nodiscard]] bool is_relabeled() const { return relabel_.has_value(); }

  /// inv[storage_row] = external id — exactly the RELABEL_INV payload a
  /// relabeled save embeds.  Empty when not relabeled.
  [[nodiscard]] std::span<const vertex_id_t> relabel_inverse() const {
    return relabel_ ? std::span<const vertex_id_t>(relabel_->inv)
                    : std::span<const vertex_id_t>{};
  }

private:
  void init(biedgelist<> el) {
    el.sort_and_unique();  // canonical order: sorted incidence lists everywhere
    adopt_generation(make_generation(std::move(el)));
  }

  /// Install `gen` as the live generation and derive the maintained state.
  void adopt_generation(std::shared_ptr<hypergraph_generation> gen) {
    gen_            = std::move(gen);
    edge_degrees_   = gen_->hyperedges.degrees();
    node_degrees_   = gen_->hypernodes.degrees();
    num_incidences_ = gen_->el.size();
  }

  /// External query id -> internal storage row (identity when unrelabeled
  /// or out of range — out-of-range ids keep their unrelabeled behavior).
  [[nodiscard]] vertex_id_t storage_edge_id(vertex_id_t e) const {
    return relabel_ ? relabel_->storage_id(e) : e;
  }

  /// Component labels over the storage rows -> external ids: each
  /// component takes its minimum external hyperedge id, and isolated
  /// hypernodes keep nE + v.
  [[nodiscard]] hyper_cc_result external_components(hyper_cc_result r) const {
    if (relabel_) r.labels_edge = relabel_->to_external_components(r.labels_edge, r.labels_node);
    return r;
  }

  /// Recompute both degree views after adopting a relabeled generation:
  /// internal for the CSR-order algorithms, external for the public API.
  void refresh_relabel_degrees() {
    internal_edge_degrees_ = gen_->hyperedges.degrees();
    edge_degrees_          = relabel_->to_external_order(internal_edge_degrees_);
  }

  /// The base edge list in canonical order with every edge id translated
  /// from its storage row to its external id and then, when `to` is given,
  /// on to `to`'s storage row.
  [[nodiscard]] biedgelist<> edge_list_in(const relabel_maps* to) const {
    std::vector<vertex_id_t> edge_ids(gen_->el.edge_ids());
    std::vector<vertex_id_t> node_ids(gen_->el.node_ids());
    if (relabel_) relabel_->translate_ids(edge_ids, relabel_maps::direction::to_external);
    if (to != nullptr) to->translate_ids(edge_ids, relabel_maps::direction::to_storage);
    biedgelist<> el(std::move(edge_ids), std::move(node_ids), num_hyperedges(),
                    num_hypernodes());
    el.sort_and_unique();
    return el;
  }

  /// Rebuild the generation in `to`'s storage order, or in external order
  /// when `to` is null (content-preserving: same incidences under a
  /// bijection of edge ids).
  void rebuild_in(const relabel_maps* to) {
    adopt_generation(make_generation(edge_list_in(to), gen_->id + 1));
  }

  void save_impl(const std::string& path, csr_write_options wopt) const {
    require_compacted("save_csr_snapshot");
    wopt.relabel_inv = relabel_inverse();
    write_csr_snapshot(path, gen_->hyperedges, gen_->hypernodes, wopt);
  }

  static void require_positive_s(std::size_t s, const char* what) {
    if (s == 0) throw std::invalid_argument(std::string(what) + ": s must be >= 1");
  }

  void require_compacted(const char* what) const {
    if (!delta_.empty()) {
      throw std::logic_error(std::string(what) +
                             ": hypergraph has a pending delta overlay (" +
                             std::to_string(delta_.size()) +
                             " rows); call compact() first");
    }
  }

  /// Apply one overlay row: canonicalize, maintain the incremental degree
  /// state, record in the delta, invalidate every cached derived structure.
  void apply_row(vertex_id_t e, std::vector<vertex_id_t> members, bool tombstone) {
    // The overlay speaks external ids against external-order storage; fold
    // any relabeling away first (relabel_ implies an empty delta, so this
    // cannot strand overlay rows).
    if (relabel_) derelabel();
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    auto old = edge_members(e);
    if (std::size_t{e} >= edge_degrees_.size()) edge_degrees_.resize(std::size_t{e} + 1, 0);
    for (vertex_id_t v : members) {
      if (std::size_t{v} >= node_degrees_.size()) node_degrees_.resize(std::size_t{v} + 1, 0);
    }
    for (vertex_id_t v : old) --node_degrees_[v];
    for (vertex_id_t v : members) ++node_degrees_[v];
    num_incidences_ += members.size();
    num_incidences_ -= old.size();
    edge_degrees_[e] = members.size();
    if (tombstone) {
      delta_.erase_edge(e);
    } else {
      delta_.set(e, std::move(members));
    }
    composed_.reset();
    ++*version_;
  }

  void maybe_autocompact() {
    const std::size_t threshold = compact_threshold();
    if (threshold != 0 && delta_.size() >= threshold) compact();
  }

  /// The generation every whole-graph query reads: the base when
  /// compacted, else the composed base+delta generation.  A relabeled state
  /// never has a pending delta, so relabeled reads always see the base.
  [[nodiscard]] const hypergraph_generation& live() const {
    return delta_.empty() ? *gen_ : *composed();
  }

  /// live(), pinned: the shared_ptr a view over the live CSRs holds.
  [[nodiscard]] std::shared_ptr<const hypergraph_generation> live_generation() const {
    return delta_.empty() ? gen_ : composed();
  }

  /// The composed (base+delta) generation, built through the parallel
  /// from_thread_buffers pipeline and cached until the next mutation;
  /// compact() adopts it as the next base generation.
  const std::shared_ptr<hypergraph_generation>& composed() const {
    if (composed_) return composed_;
    auto&             pool = par::thread_pool::default_pool();
    const std::size_t ne   = edge_degrees_.size();
    const std::size_t nv   = node_degrees_.size();
    const auto&       base = gen_->hyperedges;
    par::per_thread<std::vector<std::pair<vertex_id_t, vertex_id_t>>> buffers(pool);
    // static_blocked gives thread t a contiguous ascending block of edge
    // ids and from_thread_buffers merges the buffers in thread order, so
    // the composed list comes out in canonical (edge, node) order without
    // a sort — bit-identical to init()'s sort_and_unique on the same rows.
    par::parallel_for(
        0, ne,
        [&](unsigned tid, std::size_t e) {
          auto& buf = buffers.local(tid);
          if (const delta_row* row = delta_.find(static_cast<vertex_id_t>(e))) {
            for (vertex_id_t v : row->members) {
              buf.push_back({static_cast<vertex_id_t>(e), v});
            }
          } else if (e < base.size()) {
            for (auto&& t : base[e]) buf.push_back({static_cast<vertex_id_t>(e), target(t)});
          }
        },
        par::static_blocked{}, pool);
    composed_ = make_generation(
        biedgelist<>::from_thread_buffers(buffers, ne, nv, par::merge_capacity::release, pool),
        gen_->id + 1);
    return composed_;
  }

  std::shared_ptr<const hypergraph_generation> gen_;
  hyperedge_delta                              delta_;
  /// Engaged while the storage is degree-relabeled: perm[external] =
  /// storage row, inv[storage row] = external id.  Invariant: never engaged
  /// together with a non-empty delta_.
  std::optional<relabel_maps>                  relabel_;
  /// Degrees in storage-row order while relabeled (empty otherwise);
  /// edge_degrees_ always stays in external order.
  std::vector<std::size_t>                     internal_edge_degrees_;
  std::vector<std::size_t>                     edge_degrees_;
  std::vector<std::size_t>                     node_degrees_;
  std::size_t                                  num_incidences_ = 0;
  mutable std::shared_ptr<hypergraph_generation> composed_;
  std::shared_ptr<std::uint64_t> version_ = std::make_shared<std::uint64_t>(0);
};

}  // namespace nw::hypergraph
