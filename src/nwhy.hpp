// nwhy.hpp — umbrella header: the full public API of the NWHy framework.
#pragma once

// Utilities
#include "nwutil/bitmap.hpp"
#include "nwutil/defs.hpp"
#include "nwutil/env.hpp"
#include "nwutil/rng.hpp"
#include "nwutil/stats.hpp"
#include "nwutil/timer.hpp"

// Observability (counters, phase timers, JSON profiles)
#include "nwobs/counters.hpp"
#include "nwobs/profile.hpp"
#include "nwobs/scope_timer.hpp"

// Parallel runtime (oneTBB substitute)
#include "nwpar/frontier.hpp"
#include "nwpar/line_split.hpp"
#include "nwpar/parallel_for.hpp"
#include "nwpar/parallel_sort.hpp"
#include "nwpar/partitioners.hpp"
#include "nwpar/range_adaptors.hpp"
#include "nwpar/thread_pool.hpp"
#include "nwpar/work_stealing.hpp"

// Graph substrate (NWGraph)
#include "nwgraph/adjacency.hpp"
#include "nwgraph/algorithms/bfs.hpp"
#include "nwgraph/algorithms/closeness.hpp"
#include "nwgraph/algorithms/connected_components.hpp"
#include "nwgraph/algorithms/kcore.hpp"
#include "nwgraph/algorithms/mis.hpp"
#include "nwgraph/algorithms/pagerank.hpp"
#include "nwgraph/algorithms/sssp.hpp"
#include "nwgraph/algorithms/triangle_count.hpp"
#include "nwgraph/concepts.hpp"
#include "nwgraph/edge_list.hpp"
#include "nwgraph/io.hpp"
#include "nwgraph/relabel.hpp"

// Hypergraph core
#include "nwhy/adjoin.hpp"
#include "nwhy/algorithms/adjoin_algorithms.hpp"
#include "nwhy/algorithms/hyper_bfs.hpp"
#include "nwhy/algorithms/hyper_kcore.hpp"
#include "nwhy/algorithms/hyper_pagerank.hpp"
#include "nwhy/algorithms/sharded_traversal.hpp"
#include "nwhy/algorithms/toplex.hpp"
#include "nwhy/biadjacency.hpp"
#include "nwhy/biedgelist.hpp"
#include "nwhy/bipartite_graph_base.hpp"
#include "nwhy/delta.hpp"
#include "nwhy/gen/dataset_suite.hpp"
#include "nwhy/gen/generators.hpp"
#include "nwhy/io/binary.hpp"
#include "nwhy/io/csr_snapshot.hpp"
#include "nwhy/io/io_error.hpp"
#include "nwhy/io/konect.hpp"
#include "nwhy/io/matrix_market.hpp"
#include "nwhy/io/shard.hpp"
#include "nwhy/io/text_input.hpp"
#include "nwhy/nwhypergraph.hpp"
#include "nwhy/ref/ref.hpp"
#include "nwhy/relabel.hpp"
#include "nwhy/s_linegraph.hpp"
#include "nwhy/slinegraph/construction.hpp"
#include "nwhy/slinegraph/implicit.hpp"
#include "nwhy/slinegraph/incremental.hpp"
#include "nwhy/slinegraph/spgemm.hpp"
#include "nwhy/slinegraph/weighted.hpp"

// Query server (epoch-pinned generations over a binary protocol)
#include "nwhy/serve/client.hpp"
#include "nwhy/serve/dispatcher.hpp"
#include "nwhy/serve/protocol.hpp"
#include "nwhy/serve/query.hpp"
#include "nwhy/serve/registry.hpp"
#include "nwhy/serve/server.hpp"

// Sparse-matrix substrate (rectangular incidence-matrix operations)
#include "nwgraph/sparse/csr_matrix.hpp"
#include "nwgraph/sparse/graphblas.hpp"
#include "nwhy/transforms.hpp"
#include "nwhy/validate.hpp"

// Comparator baseline (Hygra substitute)
#include "hygra/algorithms.hpp"
