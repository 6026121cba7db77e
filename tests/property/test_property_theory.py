"""Property-based tests for the theory toolkit."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.theory.oeis import A000788, A000788_closed_form, popcount
from repro.theory.recurrence import (
    segment_radii,
    segment_radius_sum,
    worst_case_segment_arrangement,
    worst_case_segment_sum,
)
from repro.utils.math_functions import log_star

segment_orders = st.integers(min_value=1, max_value=10).flatmap(
    lambda p: st.permutations(list(range(p)))
)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_closed_form_digit_count_matches_the_naive_sum(n):
    assert A000788_closed_form(n) == A000788(n)


@given(st.integers(min_value=0, max_value=4000))
@settings(max_examples=100, deadline=None)
def test_recurrence_coincides_with_A000788(p):
    assert worst_case_segment_sum(p) == A000788_closed_form(p)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_recurrence_increments_are_the_binary_digit_counts(p):
    # a(p) - a(p-1) == popcount(p): the recurrence adds exactly the number of
    # ones of p at each step, which is what ties it to A000788.
    assert worst_case_segment_sum(p) - worst_case_segment_sum(p - 1) == popcount(p)


@given(segment_orders)
@settings(max_examples=100, deadline=None)
def test_no_identifier_order_beats_the_recurrence(order):
    assert segment_radius_sum(order) <= worst_case_segment_sum(len(order))


def quadratic_segment_radii(values):
    """The definition, evaluated pair by pair: the oracle of the fast version."""
    p = len(values)
    radii = []
    for i, own in enumerate(values):
        best = min(i + 1, p - i)
        for j, other in enumerate(values):
            if other > own:
                best = min(best, abs(i - j))
        radii.append(best)
    return radii


@given(
    st.one_of(
        st.integers(min_value=0, max_value=64).flatmap(
            lambda p: st.permutations(list(range(p)))
        ),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), unique=True, max_size=64),
    )
)
@example([])
@example([7])
@settings(max_examples=300, deadline=None)
def test_segment_radii_match_the_quadratic_definition(order):
    assert segment_radii(order) == quadratic_segment_radii(order)


@given(segment_orders)
@settings(max_examples=100, deadline=None)
def test_segment_radii_are_positive_and_bounded_by_geometry(order):
    p = len(order)
    for index, radius in enumerate(segment_radii(order)):
        assert 1 <= radius <= min(index + 1, p - index)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_worst_case_arrangement_is_always_optimal(p):
    arrangement = worst_case_segment_arrangement(range(p))
    assert segment_radius_sum(arrangement) == worst_case_segment_sum(p)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_log_star_is_monotone_and_tiny(a, b):
    low, high = sorted((a, b))
    assert log_star(low) <= log_star(high)
    assert log_star(high) <= 5
