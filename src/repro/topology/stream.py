"""Flat CSR topology construction for the million-node scale path.

The object builders in this package (:func:`~repro.topology.cycle.cycle_graph`
and friends) materialise a :class:`~repro.model.graph.Graph` — hundreds of
bytes of Python objects per node — which caps them at ~10^4 nodes.  This
module builds the same families as **flat CSR adjacency** (``indptr`` /
``indices`` in :class:`array.array` storage, 8 bytes per entry), so a
10^6-node instance costs tens of megabytes instead of gigabytes and never
allocates a per-node object.

Three families are built (:data:`STREAM_TOPOLOGIES`):

* ``cycle`` — the paper's ring, bit-compatible with
  :func:`~repro.topology.cycle.cycle_graph` (successor first, predecessor
  second).  Its arrays are a closed form of ``n``, so :func:`build_csr`
  returns them unbuilt and a :class:`CSRTopology` builds them only when
  something reads them (:meth:`CSRTopology.to_graph`, ``neighbors``); the
  ring scan of the ``scale`` path needs only ``n`` and never does;
* ``random-tree`` — the uniform random-attachment tree: node ``i`` attaches
  to a uniform parent in ``[0, i)``;
* ``gnp`` — a sparse connected Erdős–Rényi-style family: a random-attachment
  backbone tree plus ``n`` deduplicated uniform extra edges (average degree
  ≈ 4).  The backbone guarantees connectivity without a giant-component
  extraction.

These generators are the only definition of ``random-tree`` and ``gnp``:
:data:`~repro.engine.campaign.TOPOLOGY_BUILDERS` builds both families as
``build_csr(name, n, seed).to_graph()``, so a ``(topology, n, seed)`` names
one graph in every query mode.  Every row of a random family lists its
neighbours in ascending order.  The random draws are ``randrange`` calls
on both kernel backends; only the assembly of the drawn edges into CSR
differs — whole-array sorting with numpy, a sorted key list without — and
both give the same bytes.

Determinism: random draws are seeded per fixed-size block of
:data:`SEED_BLOCK` nodes via :func:`~repro.utils.rng.derive_task_seed`,
so the adjacency is a pure function of ``(topology, n, seed)`` —
independent of the backend, the worker count, and the process that
rebuilds it (sharded kernel workers reconstruct the CSR from the spec
instead of unpickling megabytes of arrays).
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.obs.spans import span as _obs_span
from repro.utils.rng import derive_task_seed, make_rng
from repro.utils.validation import require_positive_int

#: The families :func:`build_csr` builds; each names the same graph as the
#: object builder of :data:`~repro.engine.campaign.TOPOLOGY_BUILDERS` under
#: that name.
STREAM_TOPOLOGIES = ("cycle", "random-tree", "gnp")

#: Topologies whose structure ignores the seed, in every mode.  Caches key
#: them by ``seed = 0`` so one instance (with its frontier plans and
#: automorphism group) serves differently seeded queries, and a
#: :class:`CSRTopology` records ``seed = 0`` for them.
DETERMINISTIC_TOPOLOGIES = frozenset({"cycle", "path", "grid", "complete"})

#: Nodes (or extra-edge draws) per random block: every block reseeds from
#: ``derive_task_seed(seed, "topology.stream", ...)``, so the draws are a
#: pure function of the block, not of how or where the graph is built.
SEED_BLOCK = 4096


class CSRTopology:
    """A topology as flat CSR arrays — the large-n counterpart of ``Graph``.

    Neighbours of node ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in a
    deterministic per-family order (for ``cycle``: successor then
    predecessor, matching the object builder's ports).  Instances are cheap
    to hold (two ``array('q')`` buffers) and carry their own build spec
    ``(topology, n, seed)``, so a worker process can rebuild an identical
    copy from three scalars instead of receiving megabytes over a pipe.
    A ``cycle`` may be given without arrays: they are built on first read.
    """

    __slots__ = ("topology", "n", "seed", "_indptr", "_indices")

    def __init__(
        self,
        topology: str,
        n: int,
        seed: int,
        indptr: Optional[Sequence[int]] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> None:
        self.topology = topology
        self.n = n
        self.seed = seed
        self._indptr = indptr
        self._indices = indices

    def _arrays(self) -> tuple[Sequence[int], Sequence[int]]:
        if self._indptr is None:
            self._indptr, self._indices = _cycle_csr(self.n)
        return self._indptr, self._indices

    @property
    def indptr(self) -> Sequence[int]:
        return self._arrays()[0]

    @property
    def indices(self) -> Sequence[int]:
        return self._arrays()[1]

    @property
    def m(self) -> int:
        """Number of undirected edges (``n`` for an unbuilt cycle)."""
        return self.n if self._indices is None else len(self._indices) // 2

    @property
    def name(self) -> str:
        """The graph's label, identical to the object builder's (``cycle-8``)."""
        return f"{self.topology}-{self.n}"

    @property
    def spec(self) -> tuple[str, int, int]:
        """The picklable rebuild key: ``build_csr(*spec)`` reproduces this."""
        return (self.topology, self.n, self.seed)

    def degree(self, v: int) -> int:
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> Sequence[int]:
        """The neighbours of ``v`` (a cheap array slice, CSR order)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def to_graph(self) -> Graph:
        """Materialise the object :class:`Graph` (small ``n`` only).

        Ports follow CSR neighbour order.  For ``cycle`` the result equals
        :func:`~repro.topology.cycle.cycle_graph`; for the random families it
        *is* the object builder (:func:`~repro.engine.campaign.build_topology`
        calls this), so every mode answers on the same graph.
        """
        indptr, indices = self._arrays()
        adjacency = [tuple(indices[indptr[v] : indptr[v + 1]]) for v in range(self.n)]
        return Graph(adjacency, name=self.name)

    def describe(self) -> dict:
        """JSON-friendly identity (result rows, benchmark artifacts)."""
        return {
            "topology": self.topology,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "bytes": 8 * (self.n + 1 + 2 * self.m),
        }


def _require_stream_topology(topology: str) -> None:
    if topology not in STREAM_TOPOLOGIES:
        raise ConfigurationError(
            f"unknown stream topology {topology!r}; "
            f"known: {', '.join(STREAM_TOPOLOGIES)}"
        )


def _block_rng(seed: int, topology: str, n: int, purpose: str, block: int):
    """The rng of one fixed-size random block."""
    return make_rng(derive_task_seed(seed, "topology.stream", topology, n, purpose, block))


def _tree_parents(n: int, seed: int, topology: str, purpose: str = "parents") -> array:
    """Random-attachment parents: ``parents[i]`` uniform in ``[0, i)``.

    Drawn in :data:`SEED_BLOCK`-node blocks, each under its own derived
    seed, so the tree is a pure function of ``(topology, n, seed)``.
    """
    parents = array("q", bytes(8 * n))  # parents[0] unused (the root)
    for block_start in range(0, n, SEED_BLOCK):
        rng = _block_rng(seed, topology, n, purpose, block_start // SEED_BLOCK)
        for i in range(max(1, block_start), min(n, block_start + SEED_BLOCK)):
            parents[i] = rng.randrange(i)
    return parents


def _cycle_csr(n: int) -> tuple[array, array]:
    """The ring's arrays: row ``v`` is ``(v + 1, v - 1) mod n``."""
    indices = array("q", bytes(16 * n))
    indices[0::2] = array("q", range(1, n + 1))
    indices[1::2] = array("q", range(-1, n - 1))
    indices[2 * n - 2] = 0
    indices[1] = n - 1
    return array("q", range(0, 2 * n + 1, 2)), indices


def _gnp_edges(n: int, seed: int) -> tuple[array, array]:
    """Backbone tree + ``n`` uniform extra draws (see module doc).

    Returns the edges as two endpoint arrays; an extra draw with equal
    endpoints is dropped, duplicates are left to :func:`_csr_from_edges`.
    """
    heads = _tree_parents(n, seed, "gnp", purpose="backbone")[1:]
    tails = array("q", range(1, n))
    for block_start in range(0, n, SEED_BLOCK):
        rng = _block_rng(seed, "gnp", n, "extras", block_start // SEED_BLOCK)
        for _ in range(min(n, block_start + SEED_BLOCK) - block_start):
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a != b:
                heads.append(a)
                tails.append(b)
    return heads, tails


def _csr_from_edges(n: int, heads: array, tails: array) -> tuple[array, array]:
    """CSR arrays of the undirected edges ``heads[k] -- tails[k]``.

    Every edge contributes the half-edge codes ``a * n + b`` and
    ``b * n + a``; their sorted, deduplicated list *is* the CSR in code
    order — ``code // n`` the row, ``code % n`` the neighbour, each row
    ascending.  numpy sorts the codes as whole arrays and writes straight
    into the ``array('q')`` buffers through views; the stdlib sorts a set.
    Both give the same bytes.
    """
    from repro.kernel.backend import numpy_available, numpy_module  # repro.kernel imports us

    indptr = array("q", bytes(8 * (n + 1)))
    if numpy_available():
        np = numpy_module()
        a = np.frombuffer(heads, dtype=np.int64)
        b = np.frombuffer(tails, dtype=np.int64)
        codes = np.concatenate((a * n + b, b * n + a))
        codes.sort()
        fresh = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
        codes = codes[fresh]
        np.cumsum(
            np.bincount(codes // n, minlength=n), out=np.frombuffer(indptr, np.int64)[1:]
        )
        indices = array("q", bytes(8 * codes.size))
        np.remainder(codes, n, out=np.frombuffer(indices, np.int64))
        return indptr, indices
    codes = sorted({code for a, b in zip(heads, tails) for code in (a * n + b, b * n + a)})
    degrees = [0] * n
    for code in codes:
        degrees[code // n] += 1
    indptr[1:] = array("q", accumulate(degrees))
    return indptr, array("q", (code % n for code in codes))


def build_csr(topology: str, n: int, seed: int = 0) -> CSRTopology:
    """The :class:`CSRTopology` of ``(topology, n, seed)``.

    A ``cycle`` comes back with its arrays unbuilt (a closed form of ``n``);
    the random families draw their edges and assemble them in one pass.
    """
    _require_stream_topology(topology)
    require_positive_int(n, "n")
    if topology == "cycle":
        if n < 3:
            raise ConfigurationError(f"a cycle needs at least 3 nodes, got n={n}")
        return CSRTopology(topology, n, 0)
    with _obs_span("topology.stream", topology=topology, n=n):
        if topology == "random-tree":
            heads, tails = _tree_parents(n, seed, topology)[1:], array("q", range(1, n))
        else:  # gnp
            heads, tails = _gnp_edges(n, seed)
        indptr, indices = _csr_from_edges(n, heads, tails)
    return CSRTopology(topology, n, seed, indptr, indices)
