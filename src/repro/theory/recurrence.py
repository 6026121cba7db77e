"""The segment recurrence of Section 2.

The paper bounds the total radius of the largest-ID algorithm on a cycle by
splitting off the global maximum (which must see everything) and analysing
the remaining *segment*: a path of ``p`` vertices whose both endpoints are
adjacent, on the original cycle, to the removed maximum.  On the segment the
radius of a vertex is the distance to the nearest strictly larger identifier
within the segment, or — if the vertex is a left-to-right maximum up to an
endpoint — one more than the distance to that endpoint (one extra step shows
it the global maximum sitting just outside).

Writing ``a(p)`` for the worst case (over identifier orders) of the sum of
radii in a ``p``-vertex segment, splitting at the position ``k`` of the
segment maximum (taken in ``1..ceil(p/2)`` by symmetry) yields the paper's
recurrence::

    a(p) = max_{1 <= k <= ceil(p/2)} { k + a(k-1) + a(p-k) },   a(0)=0, a(1)=1

whose solution coincides with OEIS A000788 and grows as ``Theta(p log p)``.
This module evaluates the recurrence, the per-vertex segment radii, and a
brute-force maximisation over all identifier orders for small ``p`` so the
three views can be cross-checked.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from repro.errors import ConfigurationError
from repro.kernel.backend import active_backend, numpy_module
from repro.utils.validation import require_non_negative_int

# Cache of a(0), a(1), ... computed so far; extended on demand.
_A_CACHE: list[int] = [0, 1]


def worst_case_segment_sum(p: int) -> int:
    """``a(p)``: worst-case sum of radii in a ``p``-vertex segment."""
    require_non_negative_int(p, "p")
    if len(_A_CACHE) <= p and active_backend() == "numpy":
        _extend_numpy(numpy_module(), _A_CACHE, p)
    _extend_stdlib(_A_CACHE, p)
    return _A_CACHE[p]


def _extend_stdlib(values: list[int], p: int) -> None:
    """Append ``a(len(values)), ..., a(p)`` to the prefix ``values``."""
    for q in range(len(values), p + 1):
        values.append(max(k + values[k - 1] + values[q - k] for k in range(1, (q + 1) // 2 + 1)))


def _extend_numpy(np, values: list[int], p: int) -> None:
    """:func:`_extend_stdlib` with each inner maximum as one int64 expression:
    for ``h = ceil(q / 2)`` the candidates are ``ks[:h] + a[:h] + a[q - h:q][::-1]``."""
    start, a = len(values), np.zeros(p + 1, dtype=np.int64)
    a[:start] = values
    ks = np.arange(1, (p + 1) // 2 + 1, dtype=np.int64)
    for q in range(start, p + 1):
        h = (q + 1) // 2
        a[q] = (ks[:h] + a[:h] + a[q - h : q][::-1]).max()
    values.extend(a[start:].tolist())


def worst_case_segment_sums(up_to: int) -> list[int]:
    """The prefix ``[a(0), a(1), ..., a(up_to)]``."""
    require_non_negative_int(up_to, "up_to")
    worst_case_segment_sum(up_to)
    return list(_A_CACHE[: up_to + 1])


def segment_radii(identifiers: Sequence[int]) -> list[int]:
    """Per-vertex radii of the largest-ID algorithm on a segment.

    ``identifiers`` lists the (distinct) identifiers along the path.  The
    radius of vertex ``i`` is the minimum of

    * the distance to the nearest strictly larger identifier in the segment,
    * ``i + 1`` (reach past the left endpoint and meet the global maximum),
    * ``len(identifiers) - i`` (same through the right endpoint).

    Linear time: one monotonic-stack pass per direction finds each vertex's
    nearest larger identifier on that side.
    """
    values = list(identifiers)
    if len(set(values)) != len(values):
        raise ConfigurationError("segment identifiers must be pairwise distinct")
    p = len(values)
    radii = [min(i + 1, p - i) for i in range(p)]
    for order in (range(p), range(p - 1, -1, -1)):
        larger: list[int] = []  # indices of a decreasing run of identifiers
        for i in order:
            while larger and values[larger[-1]] < values[i]:
                larger.pop()
            if larger:
                radii[i] = min(radii[i], abs(i - larger[-1]))
            larger.append(i)
    return radii


def segment_radius_sum(identifiers: Sequence[int]) -> int:
    """Sum of :func:`segment_radii` over the segment."""
    return sum(segment_radii(identifiers))


def brute_force_segment_maximum(p: int, max_p: int = 9) -> int:
    """Exact worst case over *all* identifier orders of a ``p``-vertex segment.

    Exhaustive over ``p!`` orders, so capped at ``max_p`` vertices.  Used by
    the tests to confirm that the paper's recurrence really is the right
    worst case and not merely an upper bound.
    """
    require_non_negative_int(p, "p")
    if p > max_p:
        raise ConfigurationError(
            f"brute force over {p}! permutations refused (cap is {max_p}); "
            "use worst_case_segment_sum instead"
        )
    if p == 0:
        return 0
    return max(
        segment_radius_sum(permutation) for permutation in itertools.permutations(range(p))
    )


def worst_case_segment_arrangement(identifiers: Sequence[int]) -> list[int]:
    """An arrangement of ``identifiers`` on a segment achieving ``a(p)``.

    Follows the recurrence's optimal split: the largest identifier is placed
    at the maximising position ``k`` (counted from the nearer endpoint) and
    the two sub-segments are arranged recursively.  The returned list
    realises the worst case exactly, i.e.
    ``segment_radius_sum(result) == worst_case_segment_sum(p)``.
    """
    values = sorted(identifiers)
    if len(set(values)) != len(values):
        raise ConfigurationError("segment identifiers must be pairwise distinct")
    p = len(values)
    if p == 0:
        return []
    if p == 1:
        return [values[0]]
    worst_case_segment_sum(p)  # ensure the cache covers 0..p
    best_k = max(
        range(1, math.ceil(p / 2) + 1),
        key=lambda k: k + _A_CACHE[k - 1] + _A_CACHE[p - k],
    )
    maximum = values[-1]
    left_values = values[: best_k - 1]
    right_values = values[best_k - 1 : -1]
    left = worst_case_segment_arrangement(left_values)
    right = worst_case_segment_arrangement(right_values)
    return left + [maximum] + right


def worst_case_cycle_arrangement(n: int) -> list[int]:
    """Identifiers ``0..n-1`` arranged around a cycle to realise the worst case.

    Position 0 carries the global maximum ``n - 1`` (whose radius is the
    cycle's eccentricity regardless of the arrangement) and the remaining
    positions carry a worst-case segment arrangement of ``0..n-2``, so the
    total radius of the largest-ID algorithm on the resulting cycle equals
    ``floor(n/2) + a(n-1)``.
    """
    require_non_negative_int(n, "n")
    if n < 3:
        raise ConfigurationError("a cycle arrangement needs at least 3 identifiers")
    return [n - 1] + worst_case_segment_arrangement(range(n - 1))


def average_radius_upper_bound(n: int) -> float:
    """Paper's upper bound on the worst-case *average* radius on the ``n``-cycle.

    The global maximum needs radius ``floor(n/2)`` (its eccentricity on the
    cycle) and the remaining ``n - 1`` vertices form a segment, so the sum of
    radii is at most ``floor(n/2) + a(n-1)`` and the average is that divided
    by ``n`` — a ``Theta(log n)`` quantity.
    """
    require_non_negative_int(n, "n")
    if n == 0:
        raise ConfigurationError("the bound is undefined for an empty cycle")
    return (n // 2 + worst_case_segment_sum(n - 1)) / n
