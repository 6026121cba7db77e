"""Topology builders.

Every builder returns a :class:`repro.model.graph.Graph` with a deterministic
port numbering.  The cycle (ring) is the topology studied by the paper; the
other families exist so that the complexity measures and the generic
algorithms can be exercised beyond the ring (the paper's "further work"
explicitly asks about more general graphs).
"""

from repro.topology.complete import complete_graph, star_graph
from repro.topology.cycle import cycle_graph, cycle_successor_ports
from repro.topology.grid import grid_graph, torus_graph
from repro.topology.path import path_graph
from repro.topology.stream import (
    DETERMINISTIC_TOPOLOGIES,
    STREAM_TOPOLOGIES,
    CSRTopology,
    build_csr,
)
from repro.topology.tree import balanced_tree, caterpillar_tree, spider_tree

__all__ = [
    "CSRTopology",
    "DETERMINISTIC_TOPOLOGIES",
    "STREAM_TOPOLOGIES",
    "balanced_tree",
    "build_csr",
    "caterpillar_tree",
    "complete_graph",
    "cycle_graph",
    "cycle_successor_ports",
    "grid_graph",
    "path_graph",
    "spider_tree",
    "star_graph",
    "torus_graph",
]
