"""The ball-based algorithm interface.

A deterministic LOCAL algorithm, in the paper's preferred formulation, is a
function from *views* to either an output or "grow the ball further".  The
runner presents a node with its radius-0 ball, then its radius-1 ball, and
so on; the radius at which the algorithm first returns an output is the
node's radius ``r(v)``, the quantity all complexity measures are built from.

Determinism is essential (the paper's computation "is always deterministic"),
and it is also what makes the minimality machinery of :mod:`repro.theory`
sound: an algorithm must return the same answer whenever it is shown
indistinguishable views.  The runner spot-checks this by construction since
views are pure values.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

from repro.model.ball import BallView


class BallAlgorithm(abc.ABC):
    """A deterministic LOCAL algorithm expressed as a function of ball views.

    Subclasses must implement :meth:`decide`.  Returning ``None`` means "I do
    not have enough information yet; show me the ball of the next radius";
    returning any other value commits the node to that output.
    """

    #: Human-readable name, used in experiment tables and error messages.
    name: str = "ball-algorithm"

    #: Key of the problem the algorithm solves (e.g. ``"largest-id"``,
    #: ``"3-coloring"``); used to look up the matching certifier.
    problem: str = "unspecified"

    #: Whether :meth:`decide` depends only on the *relative order* of the
    #: identifiers in the ball (never on their numeric values) and returns
    #: outputs that contain no identifiers.  Order-invariant algorithms
    #: behave identically on balls related by an order-preserving renaming
    #: of identifiers, which lets the engine's decision cache memoise on the
    #: id-relabeled ball signature — a dramatically smaller key space.  The
    #: safe default is ``False``, under which caching uses the exact
    #: signature (actual identifiers included), sound for every
    #: deterministic algorithm.
    order_invariant: bool = False

    #: Whether :meth:`decide` may read the port numbers of the view
    #: (``port_by_pair``, :meth:`~repro.model.ball.BallView.port`,
    #: :meth:`~repro.model.ball.BallView.neighbor_by_port`).  The safe
    #: default is ``True``.  Algorithms that declare ``uses_ports = False``
    #: behave identically on views related by a port-forgetting isomorphism,
    #: which lets the exact adversary searches
    #: (:mod:`repro.search.automorphisms`) prune with the full adjacency
    #: automorphism group instead of the smaller port-preserving one.
    uses_ports: bool = True

    @abc.abstractmethod
    def decide(self, ball: BallView) -> Optional[Any]:
        """Output for the centre of ``ball``, or ``None`` to keep growing."""

    def supports_graph(self, graph: Any) -> bool:
        """Whether the algorithm's structural assumptions hold on ``graph``.

        The default accepts everything; ring-only algorithms override this
        so the runner can fail fast with a clear error instead of producing
        meaningless radii.
        """
        return True

    def compile_kernel_rule(self, instance: Any) -> Optional[Any]:
        """A vectorised batch rule for ``instance``, or ``None``.

        ``instance`` is the :class:`~repro.kernel.compile.CompiledInstance`
        being built for this algorithm on one fixed graph.  Algorithms whose
        stopping radius has an array-friendly closed form return a
        :class:`~repro.kernel.rules.KernelRule` here and get whole-matrix
        batch evaluation — largest-ID returns the CSR rule of its
        :meth:`compile_scale_rule`, the greedy-by-ID cone rules their cone
        rule, all built on ``instance.indptr`` / ``instance.indices``.  A rule reads only that CSR and returns only
        radii; it never builds frontier plans.  The default ``None`` selects
        the decide-backed fallback, which is sound for every deterministic
        algorithm.  Any returned rule must be bit-identical to the
        single-assignment reference path — the kernel property suite
        enforces this.
        """
        return None

    def compile_scale_rule(self, csr: Any) -> Optional[Any]:
        """A plan-free large-n rule for a streamed CSR topology, or ``None``.

        ``csr`` is a :class:`~repro.topology.stream.CSRTopology`.  Algorithms
        whose stopping radius can be evaluated directly against flat CSR
        adjacency — without per-centre frontier plans — return a
        :class:`~repro.kernel.rules.ScaleRule` here and become usable in the
        ``scale`` query mode at millions of nodes (largest-ID's early-stop
        BFS, :class:`~repro.kernel.rules.MaxScanScaleRule`, is the
        reference; its :meth:`compile_kernel_rule` returns the same rule on
        a compiled instance's CSR).  The default ``None`` keeps the
        algorithm out of the scale path;
        :data:`~repro.kernel.shard.SCALE_ALGORITHMS` must list exactly the
        registry names that override this.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, problem={self.problem!r})"


class FunctionBallAlgorithm(BallAlgorithm):
    """Adapter turning a plain function ``BallView -> output | None`` into an
    algorithm object.

    Handy in tests and in the minimality machinery, where modified copies of
    an existing algorithm ("behave like A except on these views") are built
    programmatically.
    """

    def __init__(
        self,
        decide: Callable[[BallView], Optional[Any]],
        name: str = "function-algorithm",
        problem: str = "unspecified",
        order_invariant: bool = False,
        uses_ports: bool = True,
    ) -> None:
        self._decide = decide
        self.name = name
        self.problem = problem
        self.order_invariant = order_invariant
        self.uses_ports = uses_ports

    def decide(self, ball: BallView) -> Optional[Any]:
        return self._decide(ball)
