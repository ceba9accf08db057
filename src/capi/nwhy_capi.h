/* capi/nwhy_capi.h
 *
 * C ABI for the NWHy framework, mirroring the Python API of the paper's
 * Listing 5 one-to-one.  pybind11 is not available in this environment, so
 * this header is the binding surface a Python (ctypes / cffi) or any other
 * FFI layer would wrap; examples/pyapi_emulation.cpp drives it exactly like
 * the Listing 5 session.
 *
 * Conventions:
 *  - handles are opaque pointers; destroy with the matching *_destroy
 *  - array outputs are written into caller-provided buffers whose length is
 *    queried first (…_size functions) or fixed by the entity counts
 *  - all ids are uint32_t, -1 (NWHY_NULL_ID) means "none"/unreachable
 */
#ifndef NWHY_CAPI_H
#define NWHY_CAPI_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define NWHY_NULL_ID ((uint32_t)-1)

typedef struct nwhy_hypergraph nwhy_hypergraph;
typedef struct nwhy_slinegraph nwhy_slinegraph;

/* --- hypergraph lifecycle (Listing 5: nwhy.NWHypergraph(row, col, weight)) */

/* Build from parallel incidence arrays: edge_ids[i] is incident on
 * node_ids[i].  weights are accepted for API fidelity and ignored by the
 * structural metrics, as in the paper.  Returns NULL on invalid input. */
nwhy_hypergraph* nwhy_hypergraph_create(const uint32_t* edge_ids, const uint32_t* node_ids,
                                        const double* weights, size_t n);
void             nwhy_hypergraph_destroy(nwhy_hypergraph* hg);

size_t nwhy_num_hyperedges(const nwhy_hypergraph* hg);
size_t nwhy_num_hypernodes(const nwhy_hypergraph* hg);
size_t nwhy_num_incidences(const nwhy_hypergraph* hg);

/* degrees[0..num_hyperedges) / [0..num_hypernodes) */
void nwhy_edge_sizes(const nwhy_hypergraph* hg, size_t* out);
void nwhy_node_degrees(const nwhy_hypergraph* hg, size_t* out);

/* Toplexes: returns the count; if out != NULL it must have room for the
 * count obtained from a first call with out == NULL. */
size_t nwhy_toplexes(const nwhy_hypergraph* hg, uint32_t* out);

/* Wedge/triad/butterfly census of the bipartite form.  Each non-NULL output
 * receives its count; returns 0, or -1 on a NULL hypergraph. */
int nwhy_motif_counts(const nwhy_hypergraph* hg, uint64_t* wedges, uint64_t* triads,
                      uint64_t* open_wedges, uint64_t* butterflies);

/* --- mutation (the dynamic delta-overlay engine) --------------------------- */

/* Insert-or-replace hyperedge `edge` with the given member list (ids past
 * the current cardinalities grow the hypergraph).  Returns 0 on success,
 * -1 on invalid input.  Existing nwhy_slinegraph handles become stale (see
 * nwhy_slg_is_stale). */
int nwhy_insert_edge(nwhy_hypergraph* hg, uint32_t edge, const uint32_t* nodes, size_t n);

/* Remove (tombstone) hyperedge `edge`: the id stays valid and becomes an
 * empty hyperedge.  Out-of-range ids are a no-op.  Returns 0 on success. */
int nwhy_remove_edge(nwhy_hypergraph* hg, uint32_t edge);

/* Fold pending mutations into a fresh immutable CSR generation.  Queries
 * work with or without a pending delta; compaction only affects speed. */
int nwhy_compact(nwhy_hypergraph* hg);

/* Reorder the internal hyperedge storage by descending degree (a locality
 * optimization).  Invisible to every query — ids keep their original
 * meaning; the next mutation undoes it automatically.  Requires a
 * compacted state: returns -1 while a delta is pending, 0 on success. */
int nwhy_relabel_by_degree(nwhy_hypergraph* hg);

/* 1 while the internal storage is degree-relabeled, else 0. */
int nwhy_is_relabeled(const nwhy_hypergraph* hg);

/* Number of pending (uncompacted) mutation rows. */
size_t nwhy_delta_size(const nwhy_hypergraph* hg);

/* Content version: bumped by every successful mutation.  An
 * nwhy_slinegraph captured at version V is stale once this differs. */
uint64_t nwhy_version(const nwhy_hypergraph* hg);

/* Composed member list of hyperedge `edge`: returns the member count and
 * fills `out` (room for nwhy_edge_sizes[edge] entries) if non-NULL.
 * Out-of-range / removed edges return 0. */
size_t nwhy_edge_members(const nwhy_hypergraph* hg, uint32_t edge, uint32_t* out);

/* --- s-line graph (Listing 5: hg.s_linegraph(s, edges)) ------------------- */

/* The s-line graph (edges != 0) or s-clique graph (edges == 0) of `hg`.
 * Returns NULL when hg is NULL or s == 0 (s counts shared members, so it
 * starts at 1). */
nwhy_slinegraph* nwhy_s_linegraph(const nwhy_hypergraph* hg, size_t s, int edges);
void             nwhy_slinegraph_destroy(nwhy_slinegraph* lg);

/* 1 when the source hypergraph has been mutated since this line graph was
 * built (the handle then answers every query with its sentinel value:
 * counts/degrees 0, ids NWHY_NULL_ID, centralities 0.0); 0 while fresh.
 * Rebuild with nwhy_s_linegraph after mutating. */
int nwhy_slg_is_stale(const nwhy_slinegraph* lg);

size_t nwhy_slg_num_vertices(const nwhy_slinegraph* lg);
size_t nwhy_slg_num_edges(const nwhy_slinegraph* lg);

/* Listing 5: s2lg.is_s_connected() */
int nwhy_slg_is_s_connected(const nwhy_slinegraph* lg);

/* Listing 5: s2lg.s_neighbors(v); returns neighbor count, fills out if
 * non-NULL (room for nwhy_slg_s_degree(lg, v) entries). */
size_t nwhy_slg_s_degree(const nwhy_slinegraph* lg, uint32_t v);
size_t nwhy_slg_s_neighbors(const nwhy_slinegraph* lg, uint32_t v, uint32_t* out);

/* Listing 5: s2lg.s_connected_components(); out has num_vertices entries,
 * NWHY_NULL_ID for inactive hyperedges. */
void nwhy_slg_s_connected_components(const nwhy_slinegraph* lg, uint32_t* out);

/* Listing 5: s2lg.s_distance(src, dest); NWHY_NULL_ID when unreachable. */
uint32_t nwhy_slg_s_distance(const nwhy_slinegraph* lg, uint32_t src, uint32_t dest);

/* Listing 5: s2lg.s_path(src, dest); returns path length in vertices (0 if
 * unreachable); fills out (room for num_vertices entries) if non-NULL. */
size_t nwhy_slg_s_path(const nwhy_slinegraph* lg, uint32_t src, uint32_t dest, uint32_t* out);

/* Listing 5 centralities; out has num_vertices entries. */
void nwhy_slg_s_betweenness_centrality(const nwhy_slinegraph* lg, int normalized, double* out);
/* Batched frontier Brandes: same conventions, bit-deterministic at every
 * thread count.  Sampled: num_samples seed-driven sources (0 = the
 * NWHY_BETWEENNESS_SAMPLES default), scaled by n / samples. */
void nwhy_slg_s_betweenness_batched(const nwhy_slinegraph* lg, int normalized, double* out);
void nwhy_slg_s_betweenness_sampled(const nwhy_slinegraph* lg, size_t num_samples, uint64_t seed,
                                    double* out);
void nwhy_slg_s_closeness_centrality(const nwhy_slinegraph* lg, double* out);
void nwhy_slg_s_harmonic_closeness_centrality(const nwhy_slinegraph* lg, double* out);
void nwhy_slg_s_eccentricity(const nwhy_slinegraph* lg, uint32_t* out);

#ifdef __cplusplus
}
#endif

#endif /* NWHY_CAPI_H */
