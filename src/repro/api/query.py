"""The declarative, validated query spec of the unified API.

A :class:`Query` describes one question about the paper's measures as pure
data — *which* grid of instances (topologies × sizes × algorithms), *which*
measure, *which* mode of answering (a single simulation, a worst case over
identifier assignments, the whole distribution, a sweep of searches, or
sharded sampling at scale) and *which* budgets — without running anything.
Every argument convention (``seed=``, ``samples=``, ``workers=``) has
exactly one home here.

A query can be built three ways:

* directly from keyword arguments — ``Query(mode="sweep", topologies="cycle",
  sizes=(8, 16))`` (scalars are promoted to 1-tuples);
* fluently, via :meth:`Query.builder`;
* from a versioned JSON document (``kind: "repro-query"``) with
  :meth:`Query.from_json` — the schema consumed by ``repro query --spec``.

Validation is eager and complete: every registry name (topology, algorithm,
adversary, distribution method, identifier family, measure) is checked at
construction time, so a misspelt grid fails before any simulation runs.
:class:`~repro.api.session.Session` executes queries;
:class:`~repro.api.results.Result` carries the answers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algorithms.registry import algorithm_registry
from repro.core.measures import get_measure
from repro.engine.campaign import ADVERSARY_NAMES, DIST_METHODS, TOPOLOGY_BUILDERS
from repro.errors import ConfigurationError
from repro.kernel.shard import SCALE_ALGORITHMS
from repro.model.identifiers import ID_FAMILIES
from repro.search.branch_bound import DEFAULT_EXACT_MAX_NODES, DEFAULT_MAX_CLASSES
from repro.topology.stream import STREAM_TOPOLOGIES

#: The five kinds of question the API answers.  ``scale`` is the
#: million-node sampling mode: streamed CSR topologies, sharded plan-free
#: kernel execution, sampling-only measures (see ``docs/performance.md``).
MODES = ("simulate", "worst-case", "distribution", "sweep", "scale")

#: Document tag and schema version of the JSON form (see ``docs/api.md``).
QUERY_KIND = "repro-query"
QUERY_VERSION = 1

#: The answer epoch, hashed into every content address (:meth:`Query.canonical_hash`
#: and :meth:`Query.family_hash`) but never written into a query document.
#: Rule: bump it in every change that alters the answer to an unchanged
#: ``Query`` — a different graph behind a topology name, a different
#: estimator, a different row field.  Stored results and resumable sampling
#: states of the old epoch are then never served: their addresses no longer
#: match, so every such query is a miss and is recomputed.  Epoch 1: the
#: ``random-tree`` and ``gnp`` families are built from their streamed
#: generators in every mode, and row ``graph`` names lost the ``-stream``
#: and ``-p`` suffixes.  Epoch 2: the exact adversaries enumerate every
#: canonical leaf (no bound pruning), which changes the certificate
#: counters, ``evaluations`` and ``cache`` of search rows.  Epoch 3:
#: ``scale`` rows draw their identifier permutations from one
#: ``getrandbits(64 n)`` key draw (see
#: :func:`~repro.kernel.shard.scale_row_ids`), which changes every sampled
#: scale value.  Epoch 4: ``branch-and-bound`` is ``pruned-exhaustive`` (no
#: hill-climbed incumbent, so its witness, ``evaluations``, certificate and
#: ``cache`` change), ``local-search`` is a portfolio of hill-climb members
#: (every row field but the objective changes), and ``random-search`` and
#: ``rotation`` report the ``cache`` of their witness trace alone.  Epoch 5:
#: the swap strategies commit the swap the kernel scored, so hill climbing
#: and tabu search count one evaluation fewer per committed step — the
#: ``evaluations`` of ``local-search`` and ``portfolio`` rows change.
ANSWER_EPOCH = 5

#: Budget/execution fields excluded from the *family* hash: two sampling
#: queries that differ only here describe the same estimand, so a stored
#: result for one can be resumed (its estimators continued) to answer the
#: other.  ``workers`` never changes any row (the determinism contract);
#: ``samples`` is the resumable budget itself.
FAMILY_EXCLUDED_FIELDS = ("samples", "workers")

#: Grid axes: each value names its own cells, so none may repeat.
AXES = ("topologies", "sizes", "algorithms", "adversaries", "methods")

#: Budget and cap fields: each must be an int of at least 1.
POSITIVE_INT_FIELDS = (
    "samples",
    "restarts",
    "workers",
    "swaps_per_step",
    "max_steps",
    "exhaustive_max_nodes",
    "exact_max_nodes",
    "max_classes",
)


def _check_int(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an int, or a :class:`ConfigurationError` (bools are not ints)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return int(value)


def _as_tuple(value, kind) -> tuple:
    """Promote a scalar to a 1-tuple and any sequence to a tuple."""
    if isinstance(value, (str, int)):
        return (value,)
    try:
        return tuple(value)
    except TypeError as exc:
        raise ConfigurationError(f"{kind} must be a name or a sequence, got {value!r}") from exc


def _preimage(document: dict) -> str:
    """Compact key-sorted JSON of ``document`` stamped with :data:`ANSWER_EPOCH`."""
    return json.dumps(
        dict(document, answer_epoch=ANSWER_EPOCH),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


@dataclass(frozen=True)
class Query:
    """One declarative question: graph grid × algorithm × measure × mode × budget.

    Scalar values are accepted wherever a tuple field is declared
    (``topologies="cycle"`` means ``("cycle",)``); all names are validated
    against the live registries at construction time.

    >>> Query(mode="sweep", topologies="cycle", sizes=8).topologies
    ('cycle',)
    >>> Query(topologies="hypercube")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown topology 'hypercube'; known: complete, cycle, gnp, grid, path, random-tree
    """

    #: One of :data:`MODES`.
    mode: str = "simulate"
    #: Names from :data:`repro.engine.campaign.TOPOLOGY_BUILDERS`.
    topologies: tuple = ("cycle",)
    #: Node counts of the grid.
    sizes: tuple = (8,)
    #: Registered algorithm names.
    algorithms: tuple = ("largest-id",)
    #: Measure name (``classic``/``average``/``sum``) or objective key.
    measure: str = "average"
    #: Identifier family for ``simulate`` mode (see :data:`ID_FAMILIES`).
    ids: str = "random"
    #: Adversary names for ``worst-case``/``sweep`` modes.
    adversaries: tuple = ("branch-and-bound",)
    #: Distribution methods (``exact``/``sample``) for ``distribution`` mode.
    methods: tuple = ("exact",)
    #: Base seed (any int); every cell derives a private seed from it.
    seed: int = 0
    #: Randomised budget: random-search draws / Monte-Carlo samples per cell.
    samples: int = 64
    #: Local-search restarts per cell.
    restarts: int = 2
    #: Process fan-out (cells in ``sweep``/``distribution``, portfolio
    #: strategies in ``worst-case``).
    workers: int = 1
    #: Local-search swap candidates per step.
    swaps_per_step: int = 16
    #: Local-search step cap.
    max_steps: int = 32
    #: Node cap of the legacy exhaustive adversary.
    exhaustive_max_nodes: int = 9
    #: Node cap of the symmetry-pruned exact searches.
    exact_max_nodes: int = DEFAULT_EXACT_MAX_NODES
    #: Cap on ``n!/|Aut|`` canonical classes for exact searches and
    #: exact distributions.
    max_classes: int = DEFAULT_MAX_CLASSES

    def __post_init__(self) -> None:
        for name in AXES:
            object.__setattr__(self, name, _as_tuple(getattr(self, name), name))
        object.__setattr__(self, "seed", _check_int("seed", self.seed))
        for name in POSITIVE_INT_FIELDS:
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum=1))
        object.__setattr__(
            self, "sizes", tuple(_check_int("sizes", n, minimum=1) for n in self.sizes)
        )
        for name in AXES:  # a repeated value would name one cell twice
            values = getattr(self, name)
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ConfigurationError(f"{name} repeats {repeated[0]!r}")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; known: {', '.join(MODES)}"
            )
        for name in self.topologies:
            if name not in TOPOLOGY_BUILDERS:
                raise ConfigurationError(
                    f"unknown topology {name!r}; known: {', '.join(sorted(TOPOLOGY_BUILDERS))}"
                )
        registry = algorithm_registry()
        for name in self.algorithms:
            if name not in registry:
                raise ConfigurationError(
                    f"unknown algorithm {name!r}; known: {', '.join(sorted(registry))}"
                )
        for name in self.adversaries:
            if name not in ADVERSARY_NAMES:
                raise ConfigurationError(
                    f"unknown adversary {name!r}; known: {', '.join(ADVERSARY_NAMES)}"
                )
        for name in self.methods:
            if name not in DIST_METHODS:
                raise ConfigurationError(
                    f"unknown distribution method {name!r}; known: {', '.join(DIST_METHODS)}"
                )
        if self.ids not in ID_FAMILIES:
            raise ConfigurationError(
                f"unknown identifier family {self.ids!r}; known: {', '.join(sorted(ID_FAMILIES))}"
            )
        if self.mode == "scale":
            # The scale path has its own, stricter registries: only streamed
            # CSR families and plan-free (compile_scale_rule) algorithms.
            for name in self.topologies:
                if name not in STREAM_TOPOLOGIES:
                    raise ConfigurationError(
                        f"topology {name!r} does not stream; scale mode supports: "
                        f"{', '.join(STREAM_TOPOLOGIES)}"
                    )
            for name in self.algorithms:
                if name not in SCALE_ALGORITHMS:
                    raise ConfigurationError(
                        f"algorithm {name!r} has no scale rule; scale mode "
                        f"supports: {', '.join(sorted(SCALE_ALGORITHMS))}"
                    )
        try:
            get_measure(self.measure)
        except Exception as exc:  # AnalysisError; re-tag as a spec problem
            raise ConfigurationError(str(exc)) from exc

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def objective(self) -> str:
        """The adversary/trace objective key of :attr:`measure`."""
        return get_measure(self.measure).objective

    def with_changes(self, **changes) -> "Query":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # the versioned JSON document
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned plain-dict form (``kind``/``version`` + all fields)."""
        document = {"kind": QUERY_KIND, "version": QUERY_VERSION}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            document[field.name] = list(value) if isinstance(value, tuple) else value
        return document

    def to_json(self) -> str:
        """Serialise as a ``repro-query`` JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # ------------------------------------------------------------------
    # content addressing (the service's cache keys, see docs/service.md)
    # ------------------------------------------------------------------
    def canonical_preimage(self) -> str:
        """The canonical serialisation the content hash is computed over.

        Compact key-sorted JSON of :meth:`to_dict` — i.e. of the *validated*
        query, after scalar→tuple promotion and with every defaulted field
        written out explicitly, with the document kind and schema version in
        the preimage — plus :data:`ANSWER_EPOCH` under ``answer_epoch``.
        Two semantically equal queries (scalar vs tuple spellings, any key
        order, defaulted vs explicit fields) therefore serialise
        identically, and a schema or epoch bump re-keys the store.
        """
        return _preimage(self.to_dict())

    def canonical_hash(self) -> str:
        """The content address of this query: SHA-256 of the canonical preimage.

        Stable across processes and interpreters (no dependence on
        ``PYTHONHASHSEED``): the exact-result store keys on it, because
        exact answers are pure functions of the spec.

        >>> Query(topologies="cycle").canonical_hash() == Query(
        ...     topologies=("cycle",)).canonical_hash()
        True
        """
        return hashlib.sha256(self.canonical_preimage().encode("ascii")).hexdigest()

    def family_hash(self) -> str:
        """The resume key: the canonical hash minus the resumable budgets.

        Strips :data:`FAMILY_EXCLUDED_FIELDS` (``samples``, ``workers``)
        from the preimage and tags it as a family document, so a sampling
        query finds stored estimator state written under a smaller budget.
        """
        document = self.to_dict()
        document["kind"] = QUERY_KIND + "-family"
        for field in FAMILY_EXCLUDED_FIELDS:
            document.pop(field, None)
        return hashlib.sha256(_preimage(document).encode("ascii")).hexdigest()

    @classmethod
    def from_dict(cls, document: Mapping) -> "Query":
        """Parse the dict form; unknown keys and wrong kind/version are errors.

        >>> Query.from_dict({"kind": "repro-query", "version": 1, "mode": "sweep"}).mode
        'sweep'
        """
        if not isinstance(document, Mapping):
            raise ConfigurationError(f"a query document must be an object, got {type(document).__name__}")
        if document.get("kind") != QUERY_KIND:
            raise ConfigurationError(
                f"not a {QUERY_KIND} document: kind={document.get('kind')!r}"
            )
        if document.get("version") != QUERY_VERSION:
            raise ConfigurationError(
                f"unsupported {QUERY_KIND} version {document.get('version')!r} "
                f"(this library reads version {QUERY_VERSION})"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        fields = {}
        for key, value in document.items():
            if key in ("kind", "version"):
                continue
            if key not in known:
                raise ConfigurationError(
                    f"unknown query field {key!r}; known: {', '.join(sorted(known))}"
                )
            fields[key] = value
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "Query":
        """Parse a document previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "Query":
        """Read a ``repro-query`` JSON document from ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def builder(cls, mode: str = "simulate") -> "QueryBuilder":
        """Start a fluent :class:`QueryBuilder` (terminated by ``.build()``)."""
        return QueryBuilder(mode)


class QueryBuilder:
    """Fluent construction of a :class:`Query`; every method returns ``self``.

    >>> (Query.builder().worst_case().on("cycle").sizes(8)
    ...     .adversaries("branch-and-bound").measure("sum").build().mode)
    'worst-case'
    """

    def __init__(self, mode: str = "simulate") -> None:
        self._fields: dict = {"mode": mode}

    # -- mode selectors -------------------------------------------------
    def simulate(self) -> "QueryBuilder":
        """Answer with single runs (one per grid cell)."""
        self._fields["mode"] = "simulate"
        return self

    def worst_case(self) -> "QueryBuilder":
        """Answer with the worst case over identifier assignments."""
        self._fields["mode"] = "worst-case"
        return self

    def distribution(self) -> "QueryBuilder":
        """Answer with the measure distribution over assignments."""
        self._fields["mode"] = "distribution"
        return self

    def sweep(self) -> "QueryBuilder":
        """Answer with a full campaign grid of adversarial searches."""
        self._fields["mode"] = "sweep"
        return self

    def scale(self) -> "QueryBuilder":
        """Answer with sharded million-node sampling (streamed topologies)."""
        self._fields["mode"] = "scale"
        return self

    # -- the grid -------------------------------------------------------
    def on(self, *topologies: str) -> "QueryBuilder":
        """Set the topology names of the grid."""
        self._fields["topologies"] = topologies
        return self

    def sizes(self, *sizes: int) -> "QueryBuilder":
        """Set the node counts of the grid."""
        self._fields["sizes"] = sizes
        return self

    def algorithms(self, *names: str) -> "QueryBuilder":
        """Set the registered algorithm names of the grid."""
        self._fields["algorithms"] = names
        return self

    def measure(self, name: str) -> "QueryBuilder":
        """Set the measure (``classic``/``average``/``sum`` or objective key)."""
        self._fields["measure"] = name
        return self

    def identifiers(self, family: str) -> "QueryBuilder":
        """Set the identifier family used by ``simulate`` mode."""
        self._fields["ids"] = family
        return self

    def adversaries(self, *names: str) -> "QueryBuilder":
        """Set the adversaries raced by ``worst-case``/``sweep`` modes."""
        self._fields["adversaries"] = names
        return self

    def methods(self, *names: str) -> "QueryBuilder":
        """Set the distribution methods (``exact``/``sample``)."""
        self._fields["methods"] = names
        return self

    # -- budgets --------------------------------------------------------
    def budget(self, **budgets) -> "QueryBuilder":
        """Set budget fields (``seed``, ``samples``, ``restarts``, ``workers``, ...)."""
        self._fields.update(budgets)
        return self

    def build(self) -> Query:
        """Validate and freeze the accumulated fields into a :class:`Query`."""
        return Query(**self._fields)
