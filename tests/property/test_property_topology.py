"""One graph per ``(topology, n, seed)``: every mode builds the same graph.

``Session.graph`` (what simulate, worst-case, distribution and sweep
queries run on) and ``Session.csr`` (what scale queries run on) must name
and build the identical graph for every streamed family, at every size and
under any integer seed — negative ones and ones beyond 64 bits included.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.topology.stream import STREAM_TOPOLOGIES

SIZES = (1, 2, 3, 5, 17, 64, 300)

CASES = [
    (topology, n)
    for topology in STREAM_TOPOLOGIES
    for n in SIZES
    if topology != "cycle" or n >= 3
]


@pytest.mark.parametrize("topology, n", CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=-(2**80), max_value=2**80))
@example(seed=0)
@example(seed=-1)
@example(seed=2**63 + 1)
def test_graph_and_csr_are_the_same_graph(topology, n, seed):
    graph = Session().graph(topology, n, seed)
    csr = Session().csr(topology, n, seed)
    assert graph == csr.to_graph()
    assert graph.name == csr.name
