"""Streamed CSR topology construction for the million-node scale path.

The object builders in this package (:func:`~repro.topology.cycle.cycle_graph`
and friends) materialise a :class:`~repro.model.graph.Graph` — hundreds of
bytes of Python objects per node — which caps them at ~10^4 nodes.  This
module builds the same families as **flat CSR adjacency** (``indptr`` /
``indices`` in :class:`array.array` storage, 8 bytes per entry), emitted in
node-range chunks, so a 10^6-node instance costs tens of megabytes instead
of gigabytes and never allocates a per-node object.

Three families stream (:data:`STREAM_TOPOLOGIES`):

* ``cycle`` — the paper's ring, bit-compatible with
  :func:`~repro.topology.cycle.cycle_graph` (successor first, predecessor
  second), generated chunk by chunk with no global state at all;
* ``random-tree`` — the uniform random-attachment tree: node ``i`` attaches
  to a uniform parent in ``[0, i)``;
* ``gnp`` — a sparse connected Erdős–Rényi-style family: a random-attachment
  backbone tree plus ``n`` deduplicated uniform extra edges (average degree
  ≈ 4).  The backbone guarantees connectivity without a giant-component
  extraction, which is what makes the family streamable.

These generators are the only definition of ``random-tree`` and ``gnp``:
:data:`~repro.engine.campaign.TOPOLOGY_BUILDERS` builds both families as
``build_csr(name, n, seed).to_graph()``, so a ``(topology, n, seed)`` names
one graph in every query mode.

Determinism: random draws are seeded per fixed-size block of
:data:`SEED_BLOCK` nodes via :func:`~repro.utils.rng.derive_task_seed`,
so the emitted adjacency is a pure function of ``(topology, n, seed)`` —
independent of the caller's emission chunk size, the worker count, and the
process that rebuilds it (sharded kernel workers reconstruct the CSR from
the spec instead of unpickling megabytes of arrays).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.model.graph import Graph
from repro.obs.spans import span as _obs_span
from repro.utils.rng import derive_task_seed, make_rng
from repro.utils.validation import require_positive_int

#: The streamable families; each names the same graph as the object builder
#: of :data:`~repro.engine.campaign.TOPOLOGY_BUILDERS` under that name.
STREAM_TOPOLOGIES = ("cycle", "random-tree", "gnp")

#: Topologies whose structure ignores the seed, in every mode.  Caches key
#: them by ``seed = 0`` so one instance (with its frontier plans and
#: automorphism group) serves differently seeded queries, and a streamed
#: :class:`CSRTopology` records ``seed = 0`` for them.
DETERMINISTIC_TOPOLOGIES = frozenset({"cycle", "path", "grid", "complete"})

#: Nodes per emitted adjacency chunk (the caller may override; emission
#: granularity never changes the adjacency).
DEFAULT_STREAM_CHUNK = 65536

#: Nodes (or extra-edge draws) per random block: every block reseeds from
#: ``derive_task_seed(seed, "topology.stream", ...)``, making the draws
#: independent of how the stream is chunked or sharded.
SEED_BLOCK = 4096


@dataclass(frozen=True)
class CSRChunk:
    """One node-range slice of a streamed adjacency.

    ``indptr`` is chunk-local (``indptr[0] == 0``; ``len == stop - start + 1``):
    the neighbours of global node ``start + i`` are
    ``indices[indptr[i]:indptr[i + 1]]``.
    """

    start: int
    stop: int
    indptr: array
    indices: array


class CSRTopology:
    """A topology as flat CSR arrays — the large-n counterpart of ``Graph``.

    Neighbours of node ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in a
    deterministic per-family order (for ``cycle``: successor then
    predecessor, matching the object builder's ports).  Instances are cheap
    to hold (two ``array('q')`` buffers) and carry their own build spec
    ``(topology, n, seed)``, so a worker process can rebuild an identical
    copy from three scalars instead of receiving megabytes over a pipe.
    """

    __slots__ = ("topology", "n", "seed", "indptr", "indices")

    def __init__(
        self, topology: str, n: int, seed: int, indptr: array, indices: array
    ) -> None:
        self.topology = topology
        self.n = n
        self.seed = seed
        self.indptr = indptr
        self.indices = indices

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

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

    def neighbors(self, v: int) -> array:
        """The neighbours of ``v`` (a cheap array slice, CSR order)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def to_graph(self) -> Graph:
        """Materialise the object :class:`Graph` (small ``n`` only).

        Ports follow CSR neighbour order.  For ``cycle`` the result equals
        :func:`~repro.topology.cycle.cycle_graph`; for the random families it
        *is* the object builder (:func:`~repro.engine.campaign.build_topology`
        calls this), so every mode answers on the same graph.
        """
        adjacency = [
            tuple(self.indices[self.indptr[v] : self.indptr[v + 1]])
            for v in range(self.n)
        ]
        return Graph(adjacency, name=self.name)

    def describe(self) -> dict:
        """JSON-friendly identity (result rows, benchmark artifacts)."""
        return {
            "topology": self.topology,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "bytes": (len(self.indptr) + len(self.indices)) * self.indptr.itemsize,
        }


def _require_stream_topology(topology: str) -> None:
    if topology not in STREAM_TOPOLOGIES:
        raise ConfigurationError(
            f"unknown stream topology {topology!r}; "
            f"known: {', '.join(STREAM_TOPOLOGIES)}"
        )


def _block_rng(seed: int, topology: str, n: int, purpose: str, block: int):
    """The rng of one fixed-size random block (chunking-independent)."""
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


def _csr_from_edges(n: int, encoded_edges: list[int]) -> tuple[array, array]:
    """CSR arrays from sorted, unique ``min * n + max`` encoded edges."""
    degrees = array("q", bytes(8 * n))
    for code in encoded_edges:
        a, b = divmod(code, n)
        degrees[a] += 1
        degrees[b] += 1
    indptr = array("q", bytes(8 * (n + 1)))
    running = 0
    for v in range(n):
        indptr[v] = running
        running += degrees[v]
    indptr[n] = running
    cursor = array("q", indptr[:n])
    indices = array("q", bytes(8 * running))
    for code in encoded_edges:
        a, b = divmod(code, n)
        indices[cursor[a]] = b
        cursor[a] += 1
        indices[cursor[b]] = a
        cursor[b] += 1
    return indptr, indices


def _tree_csr(n: int, seed: int, topology: str = "random-tree") -> tuple[array, array]:
    """CSR of the random-attachment tree: parent first, children ascending."""
    parents = _tree_parents(n, seed, topology)
    degrees = array("q", bytes(8 * n))
    for i in range(1, n):
        degrees[i] += 1
        degrees[parents[i]] += 1
    indptr = array("q", bytes(8 * (n + 1)))
    running = 0
    for v in range(n):
        indptr[v] = running
        running += degrees[v]
    indptr[n] = running
    indices = array("q", bytes(8 * running))
    # Non-root rows reserve slot 0 for the parent; children then append to
    # their parent's row in increasing order.
    cursor = array("q", bytes(8 * n))
    for v in range(n):
        cursor[v] = indptr[v] + (1 if v != 0 else 0)
    for i in range(1, n):
        p = parents[i]
        indices[indptr[i]] = p
        indices[cursor[p]] = i
        cursor[p] += 1
    return indptr, indices


def _gnp_csr(n: int, seed: int) -> tuple[array, array]:
    """Backbone tree + ``n`` deduplicated uniform extra edges (see module doc)."""
    parents = _tree_parents(n, seed, "gnp", purpose="backbone")
    encoded = []
    for i in range(1, n):
        p = parents[i]
        encoded.append(p * n + i if p < i else i * n + p)
    extras = n
    for block_start in range(0, extras, SEED_BLOCK):
        rng = _block_rng(seed, "gnp", n, "extras", block_start // SEED_BLOCK)
        for _ in range(min(extras, block_start + SEED_BLOCK) - block_start):
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a == b:
                continue
            encoded.append(a * n + b if a < b else b * n + a)
    encoded.sort()
    unique = []
    previous = -1
    for code in encoded:
        if code != previous:
            unique.append(code)
            previous = code
    return _csr_from_edges(n, unique)


def stream_adjacency(
    topology: str,
    n: int,
    seed: int = 0,
    chunk_nodes: int = DEFAULT_STREAM_CHUNK,
) -> Iterator[CSRChunk]:
    """Yield the adjacency of ``(topology, n, seed)`` in node-range chunks.

    The concatenation of the chunks is identical for every ``chunk_nodes``
    (the property wall asserts this): chunking only controls emission
    granularity, never the structure.  The ``cycle`` family is generated
    chunk by chunk with O(chunk) live memory; the random families hold
    their flat edge arrays (O(n + m) compact ints — the memory bound that
    makes 10^6 nodes feasible) and emit slices.
    """
    _require_stream_topology(topology)
    require_positive_int(n, "n")
    require_positive_int(chunk_nodes, "chunk_nodes")
    if topology == "cycle" and n < 3:
        raise ConfigurationError(f"a cycle needs at least 3 nodes, got n={n}")
    if topology == "cycle":
        for start in range(0, n, chunk_nodes):
            stop = min(n, start + chunk_nodes)
            indptr = array("q", range(0, 2 * (stop - start) + 1, 2))
            indices = array("q", bytes(16 * (stop - start)))
            for offset, v in enumerate(range(start, stop)):
                indices[2 * offset] = (v + 1) % n
                indices[2 * offset + 1] = (v - 1) % n
            yield CSRChunk(start, stop, indptr, indices)
        return
    if topology == "random-tree":
        indptr, indices = _tree_csr(n, seed)
    else:  # gnp
        indptr, indices = _gnp_csr(n, seed)
    for start in range(0, n, chunk_nodes):
        stop = min(n, start + chunk_nodes)
        base = indptr[start]
        local_indptr = array("q", (indptr[v] - base for v in range(start, stop + 1)))
        yield CSRChunk(start, stop, local_indptr, indices[base : indptr[stop]])


def build_csr(
    topology: str,
    n: int,
    seed: int = 0,
    chunk_nodes: int = DEFAULT_STREAM_CHUNK,
) -> CSRTopology:
    """Assemble the full :class:`CSRTopology` from the chunk stream."""
    indptr = array("q", [0])
    indices = array("q")
    chunks = 0
    with _obs_span("topology.stream", topology=topology, n=n):
        for chunk in stream_adjacency(topology, n, seed=seed, chunk_nodes=chunk_nodes):
            base = indptr[-1]
            indptr.extend(base + offset for offset in chunk.indptr[1:])
            indices.extend(chunk.indices)
            chunks += 1
    normalized = 0 if topology in DETERMINISTIC_TOPOLOGIES else seed
    return CSRTopology(topology, n, normalized, indptr, indices)
