// bindings/nwhy_pybind.cpp
//
// The `nwhy` Python module from the paper's Listing 5, as a pybind11
// extension over the C++ core.  This file compiles only when pybind11 is
// installed (see bindings/CMakeLists.txt); in environments without it, the
// same surface is reachable through the C ABI in src/capi/ (which
// examples/pyapi_emulation.cpp drives).
//
// Python usage (Listing 5):
//
//   import numpy as np, nwhy
//   hg   = nwhy.NWHypergraph(row, col, weight)
//   s2lg = hg.s_linegraph(s=2, edges=True)
//   s2lg.is_s_connected()
//   s2lg.s_connected_components()
//   ...
#include <pybind11/numpy.h>
#include <pybind11/pybind11.h>
#include <pybind11/stl.h>

#include <optional>
#include <span>

#include "nwhy/nwhypergraph.hpp"
#include "nwhy/s_linegraph.hpp"
#include "nwobs/profile.hpp"

namespace py = pybind11;
using nw::vertex_id_t;
using nw::hypergraph::NWHypergraph;
using nw::hypergraph::s_linegraph;

namespace {

/// Wrap an s_linegraph with the Listing-5 spelling of every metric.
class PySlinegraph {
public:
  explicit PySlinegraph(s_linegraph lg) : lg_(std::move(lg)) {}

  bool is_s_connected() const { return lg_.is_s_connected(); }

  std::vector<vertex_id_t> s_neighbors(vertex_id_t v) const { return lg_.s_neighbors(v); }
  std::size_t              s_degree(vertex_id_t v) const { return lg_.s_degree(v); }

  py::array_t<vertex_id_t> s_connected_components() const {
    auto labels = lg_.s_connected_components();
    return py::array_t<vertex_id_t>(static_cast<py::ssize_t>(labels.size()), labels.data());
  }

  std::optional<std::size_t> s_distance(vertex_id_t src, vertex_id_t dest) const {
    return lg_.s_distance(src, dest);
  }

  std::vector<vertex_id_t> s_path(vertex_id_t src, vertex_id_t dest) const {
    return lg_.s_path(src, dest);
  }

  std::vector<double> s_betweenness_centrality(bool normalized) const {
    return lg_.s_betweenness_centrality(normalized);
  }
  std::vector<double> s_closeness_centrality() const { return lg_.s_closeness_centrality(); }
  std::vector<double> s_harmonic_closeness_centrality() const {
    return lg_.s_harmonic_closeness_centrality();
  }
  std::vector<vertex_id_t> s_eccentricity() const { return lg_.s_eccentricity(); }

  // Extensions beyond Listing 5.
  std::vector<double>      s_pagerank(double damping) const { return lg_.s_pagerank(damping); }
  std::vector<std::size_t> s_core_numbers() const { return lg_.s_core_numbers(); }
  std::size_t              s_diameter() const { return lg_.s_diameter(); }
  std::size_t              num_edges() const { return lg_.num_edges(); }
  std::size_t              num_vertices() const { return lg_.num_vertices(); }

private:
  s_linegraph lg_;
};

class PyHypergraph {
public:
  /// NWHypergraph(row, col, weight): row = hyperedge ids, col = hypernode
  /// ids; weights accepted for interface fidelity and ignored by the
  /// structural metrics, as in the paper.
  PyHypergraph(py::array_t<vertex_id_t, py::array::c_style | py::array::forcecast> row,
               py::array_t<vertex_id_t, py::array::c_style | py::array::forcecast> col,
               py::object /*weight*/)
      : hg_(std::span<const vertex_id_t>(row.data(), static_cast<std::size_t>(row.size())),
            std::span<const vertex_id_t>(col.data(), static_cast<std::size_t>(col.size()))) {}

  PySlinegraph s_linegraph(std::size_t s, bool edges) const {
    return PySlinegraph(hg_.make_s_linegraph(s, edges));
  }

  std::size_t num_hyperedges() const { return hg_.num_hyperedges(); }
  std::size_t num_hypernodes() const { return hg_.num_hypernodes(); }
  std::vector<std::size_t> edge_sizes() const { return hg_.edge_sizes(); }
  std::vector<std::size_t> node_degrees() const { return hg_.node_degrees(); }
  std::vector<vertex_id_t> toplexes() const { return hg_.toplexes(); }

private:
  NWHypergraph hg_;
};

}  // namespace

PYBIND11_MODULE(nwhy, m) {
  m.doc() = "NWHy: parallel hypergraph analytics (paper Listing 5 API)";

  // Observability: the accumulated counter/timer registry as a JSON string
  // (schema: {counters, timers, env, threads, hardware_concurrency, build,
  // context} — see DESIGN.md).  Kept as a
  // string rather than a dict so the schema is identical to the C++ tools'
  // --profile output; callers `json.loads()` it.
  m.def("profile_snapshot", [] { return nw::obs::profile_json(); },
        "JSON snapshot of the nwobs counter/timer registry");
  m.def("profile_reset", [] { nw::obs::reset_profile(); },
        "Zero all nwobs counters and drop timer aggregates");

  py::class_<PyHypergraph>(m, "NWHypergraph")
      .def(py::init<py::array_t<vertex_id_t, py::array::c_style | py::array::forcecast>,
                    py::array_t<vertex_id_t, py::array::c_style | py::array::forcecast>,
                    py::object>(),
           py::arg("row"), py::arg("col"), py::arg("weight") = py::none())
      .def("s_linegraph", &PyHypergraph::s_linegraph, py::arg("s") = 1, py::arg("edges") = true)
      .def_property_readonly("num_hyperedges", &PyHypergraph::num_hyperedges)
      .def_property_readonly("num_hypernodes", &PyHypergraph::num_hypernodes)
      .def("edge_sizes", &PyHypergraph::edge_sizes)
      .def("node_degrees", &PyHypergraph::node_degrees)
      .def("toplexes", &PyHypergraph::toplexes);

  py::class_<PySlinegraph>(m, "Slinegraph")
      .def("is_s_connected", &PySlinegraph::is_s_connected)
      .def("s_neighbors", &PySlinegraph::s_neighbors, py::arg("v"))
      .def("s_degree", &PySlinegraph::s_degree, py::arg("v"))
      .def("s_connected_components", &PySlinegraph::s_connected_components)
      .def("s_distance", &PySlinegraph::s_distance, py::arg("src"), py::arg("dest"))
      .def("s_path", &PySlinegraph::s_path, py::arg("src"), py::arg("dest"))
      .def("s_betweenness_centrality", &PySlinegraph::s_betweenness_centrality,
           py::arg("normalized") = true)
      .def("s_closeness_centrality", &PySlinegraph::s_closeness_centrality)
      .def("s_harmonic_closeness_centrality", &PySlinegraph::s_harmonic_closeness_centrality)
      .def("s_eccentricity", &PySlinegraph::s_eccentricity)
      .def("s_pagerank", &PySlinegraph::s_pagerank, py::arg("damping") = 0.85)
      .def("s_core_numbers", &PySlinegraph::s_core_numbers)
      .def("s_diameter", &PySlinegraph::s_diameter)
      .def_property_readonly("num_edges", &PySlinegraph::num_edges)
      .def_property_readonly("num_vertices", &PySlinegraph::num_vertices);
}
