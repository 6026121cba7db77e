"""Tests for the segment recurrence of Section 2."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.kernel.backend import numpy_available, numpy_module
from repro.theory import recurrence
from repro.theory.oeis import A000788
from repro.theory.recurrence import (
    average_radius_upper_bound,
    brute_force_segment_maximum,
    segment_radii,
    segment_radius_sum,
    worst_case_cycle_arrangement,
    worst_case_segment_arrangement,
    worst_case_segment_sum,
    worst_case_segment_sums,
)


class TestRecurrenceValues:
    @pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
    def test_numpy_and_stdlib_prefixes_agree(self):
        # The array expression and the stdlib loop extend the same prefix
        # to the same exact integers, from scratch and from a warm prefix.
        stdlib, array = [0, 1], [0, 1]
        recurrence._extend_stdlib(stdlib, 4096)
        recurrence._extend_numpy(numpy_module(), array, 1000)
        recurrence._extend_numpy(numpy_module(), array, 4096)
        assert array == stdlib
        assert stdlib[4096] == A000788(4096)

    def test_initial_values_match_the_paper(self):
        assert worst_case_segment_sum(0) == 0
        assert worst_case_segment_sum(1) == 1

    def test_first_terms(self):
        assert worst_case_segment_sums(7) == [0, 1, 2, 4, 5, 7, 9, 12]

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 10, 50, 255, 1024])
    def test_recurrence_equals_A000788(self, p):
        assert worst_case_segment_sum(p) == A000788(p)

    def test_growth_is_theta_p_log_p(self):
        p = 4096
        ratio = worst_case_segment_sum(p) / (p * math.log2(p))
        assert 0.4 < ratio < 0.6

    def test_monotone_in_p(self):
        values = worst_case_segment_sums(200)
        assert values == sorted(values)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            worst_case_segment_sum(-1)


class TestSegmentRadii:
    def test_single_vertex_segment_has_radius_one(self):
        assert segment_radii([5]) == [1]

    def test_radius_is_distance_to_nearest_larger_identifier(self):
        # The local maximum 5 sits two steps away from the segment maximum 9
        # and three steps away from either endpoint, so its radius is 2.
        assert segment_radii([0, 1, 5, 2, 9, 3, 4]) == [1, 1, 2, 1, 3, 1, 1]

    def test_endpoint_proximity_caps_the_radius(self):
        # The segment maximum in the middle of 5 vertices reaches the nearer
        # endpoint (and hence the cycle's global maximum) in 3 steps.
        assert segment_radii([0, 1, 4, 2, 3]) == [1, 1, 3, 1, 1]

    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(ConfigurationError):
            segment_radii([1, 1, 2])

    def test_sum_helper_matches_manual_sum(self):
        order = [4, 1, 0, 3, 2]
        assert segment_radius_sum(order) == sum(segment_radii(order))


class TestBruteForce:
    @pytest.mark.parametrize("p", range(0, 8))
    def test_exhaustive_maximum_matches_the_recurrence(self, p):
        assert brute_force_segment_maximum(p) == worst_case_segment_sum(p)

    def test_refuses_oversized_instances(self):
        with pytest.raises(ConfigurationError, match="refused"):
            brute_force_segment_maximum(12)


class TestWorstCaseArrangements:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 40, 100])
    def test_segment_arrangement_achieves_the_recurrence_value(self, p):
        arrangement = worst_case_segment_arrangement(range(p))
        assert sorted(arrangement) == list(range(p))
        assert segment_radius_sum(arrangement) == worst_case_segment_sum(p)

    def test_arrangement_preserves_the_identifier_pool(self):
        pool = [3, 8, 11, 20, 21]
        arrangement = worst_case_segment_arrangement(pool)
        assert sorted(arrangement) == sorted(pool)

    def test_duplicate_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            worst_case_segment_arrangement([1, 1, 2])

    @pytest.mark.parametrize("n", [3, 4, 9, 32])
    def test_cycle_arrangement_is_a_permutation_with_max_first(self, n):
        arrangement = worst_case_cycle_arrangement(n)
        assert sorted(arrangement) == list(range(n))
        assert arrangement[0] == n - 1

    def test_cycle_arrangement_needs_at_least_three_nodes(self):
        with pytest.raises(ConfigurationError):
            worst_case_cycle_arrangement(2)


class TestAverageUpperBound:
    def test_formula(self):
        assert average_radius_upper_bound(8) == pytest.approx((4 + worst_case_segment_sum(7)) / 8)

    def test_grows_logarithmically(self):
        small = average_radius_upper_bound(64)
        large = average_radius_upper_bound(4096)
        assert large - small == pytest.approx(3.0, abs=0.2)  # +log2(64) / 2

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            average_radius_upper_bound(0)
